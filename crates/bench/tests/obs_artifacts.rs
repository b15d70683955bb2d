//! The obs artifacts as a pin: one small recorded adaptive Jacobi (8 ranks,
//! 60 cycles, a competing process on node 3 from cycle 10) runs in-process
//! and every export a figure binary can write — profile JSON, Chrome
//! trace, JSONL, health JSONL, explain JSONL, Prometheus text — is
//! byte-compared with the file committed under `results/quick/obs/`. Two
//! wirings must both reproduce the files: the figures' one
//! `HealthMonitor` giving both reports, and the host-cost benchmark's
//! `HealthMonitor` + `ExplainEngine` subscribed side by side. Virtual time
//! is deterministic, so the bytes are the same in debug and release
//! builds. Fresh files land in `target/golden-rows/obs/` so CI can upload
//! them when this fails.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dynmpi::DynMpiConfig;
use dynmpi_apps::harness::{run_sim_with, AppSpec, Experiment};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_obs::{ExplainEngine, ExplainReport, HealthMonitor, Recorder, DEFAULT_WINDOW_NS};
use dynmpi_sim::{LoadScript, NodeSpec};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// How the health and explain reports are produced.
#[derive(Clone, Copy)]
enum Wiring {
    /// One monitor; the explain report is assembled from it.
    OneMonitor,
    /// A monitor and an `ExplainEngine`, each subscribed.
    SideBySide,
}

/// `(file name, bytes)` of the six artifacts of one recorded run.
fn record(wiring: Wiring) -> Vec<(&'static str, String)> {
    let exp = Experiment::new(
        AppSpec::Jacobi(JacobiParams {
            n: 256,
            iters: 60,
            exercise_kernel: false,
            rebalance_at: None,
        }),
        8,
    )
    .with_node_spec(NodeSpec::with_speed(5e6))
    .with_cfg(DynMpiConfig::default())
    .with_script(LoadScript::dedicated().at_cycle(3, 10, 1));
    let rec = Recorder::new();
    let health = Arc::new(HealthMonitor::new(DEFAULT_WINDOW_NS));
    rec.subscribe(health.clone());
    let explain = matches!(wiring, Wiring::SideBySide).then(|| {
        let engine = Arc::new(ExplainEngine::new(DEFAULT_WINDOW_NS));
        rec.subscribe(engine.clone());
        engine
    });
    run_sim_with(&exp, Some(rec.clone()));
    let profile = rec.profile();
    let health_report = health.report();
    let explain_report = match explain {
        Some(engine) => engine.report(),
        None => ExplainReport::from_monitor(&health, &health_report, None),
    };
    vec![
        ("profile.json", profile.to_json().to_string()),
        ("chrome.json", rec.chrome_trace()),
        ("trace.jsonl", rec.jsonl()),
        ("health.jsonl", health_report.to_jsonl()),
        ("explain.jsonl", explain_report.to_jsonl(&profile.blame)),
        (
            "metrics.prom",
            dynmpi_obs::prometheus_text(&rec.merged_metrics()),
        ),
    ]
}

/// `None` when equal, else where `fresh` first leaves `golden`.
fn first_difference(file: &str, fresh: &str, golden: &str) -> Option<String> {
    let offset = fresh
        .bytes()
        .zip(golden.bytes())
        .position(|(f, g)| f != g)
        .or((fresh.len() != golden.len()).then(|| fresh.len().min(golden.len())))?;
    let line = golden.as_bytes()[..offset]
        .iter()
        .filter(|b| **b == b'\n')
        .count();
    let around = |text: &str| {
        let bytes = text.as_bytes();
        let lo = offset.saturating_sub(60).min(bytes.len());
        let hi = (offset + 60).min(bytes.len());
        String::from_utf8_lossy(&bytes[lo..hi]).into_owned()
    };
    Some(format!(
        "{file}: first difference at byte {offset} (line {}); sizes golden {} / fresh {}\n  \
         golden: …{}…\n  fresh:  …{}…",
        line + 1,
        golden.len(),
        fresh.len(),
        around(golden),
        around(fresh),
    ))
}

/// Records the run wired as `wiring`, writes its artifacts under
/// `target/golden-rows/<fresh>/` and byte-compares them with the golden
/// files.
fn assert_matches_golden_files(wiring: Wiring, fresh: &str) {
    let fresh_dir = repo_root().join("target/golden-rows").join(fresh);
    std::fs::create_dir_all(&fresh_dir).expect("create the fresh artifact directory");
    let mut failures = Vec::new();
    for (file, bytes) in record(wiring) {
        std::fs::write(fresh_dir.join(file), &bytes).expect("write fresh artifact");
        match std::fs::read_to_string(repo_root().join("results/quick/obs").join(file)) {
            Ok(golden) => failures.extend(first_difference(file, &bytes, &golden)),
            Err(e) => failures.push(format!("{file}: cannot read the golden file: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "the recorded run no longer reproduces results/quick/obs/:\n{}\n\
         if the artifacts were meant to move, re-bless from the repository root with\n  \
         cp target/golden-rows/{fresh}/* results/quick/obs/",
        failures.join("\n"),
    );
}

#[test]
fn obs_artifacts_match_golden_files() {
    assert_matches_golden_files(Wiring::OneMonitor, "obs");
}

#[test]
fn side_by_side_explain_engine_matches_golden_files() {
    assert_matches_golden_files(Wiring::SideBySide, "obs-side-by-side");
}
