//! Smoke tests behind the CI `profile-smoke` job: run the quick fig4
//! `jacobi/8` configuration end to end with `--trace-out`/`--profile-out`
//! (and, separately, `--health-out`) and assert the emitted reports are
//! parseable, complete, and internally consistent; quick fig8 (node
//! arrival) and fig9 (node crash) arms do the same for the malleability
//! and fault paths. Artifacts land in `target/profile-smoke/` so CI can
//! upload them when this fails. Two more tests hold the shims' command
//! line: a flag a figure would ignore, or an `--out` it cannot write, exits
//! 2 before anything is simulated. Engine-mode equivalence is held below
//! the binaries, not here: `SimCtx` operations in the simulator's
//! `random_programs.rs`, runtime scenarios in the runtime's `tests/drive`.

use std::path::PathBuf;
use std::process::Command;

use dynmpi_obs::Json;

fn u64_field(obj: &Json, key: &str) -> u64 {
    obj.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 `{key}` in {obj}"))
}

#[test]
fn fig4_quick_profile_is_complete() {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/profile-smoke");
    std::fs::create_dir_all(&out_dir).unwrap();
    let trace_path = out_dir.join("trace.json");
    let profile_path = out_dir.join("profile.json");

    let output = Command::new(env!("CARGO_BIN_EXE_fig4_overall"))
        .arg("--quick")
        .arg("--only")
        .arg("jacobi/8")
        .arg("--out")
        .arg(&out_dir)
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--profile-out")
        .arg(&profile_path)
        .output()
        .expect("failed to launch fig4_overall");
    assert!(
        output.status.success(),
        "fig4_overall failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The trace the profile was computed from is on disk too.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(!trace.trim().is_empty(), "trace output is empty");

    let report = Json::parse(&std::fs::read_to_string(&profile_path).unwrap())
        .expect("profile report must be valid JSON");

    // Coverage bar from the acceptance criteria: >= 95 % of every rank's
    // makespan attributed (exact attribution gives 100).
    let coverage = report
        .get("min_coverage_pct")
        .and_then(Json::as_f64)
        .expect("missing min_coverage_pct");
    assert!(coverage >= 95.0, "coverage {coverage:.2}% below 95%");

    // Attribution sums exactly per rank, for all 8 ranks.
    let ranks = report.get("ranks").and_then(Json::as_arr).unwrap();
    assert_eq!(ranks.len(), 8, "expected 8 attributed ranks");
    for rank in ranks {
        let makespan = u64_field(rank, "makespan_ns");
        let buckets = rank.get("buckets").expect("rank without buckets");
        let total: u64 = [
            "compute_ns",
            "interference_ns",
            "late_wait_ns",
            "network_ns",
            "redist_ns",
            "runtime_ns",
            "other_ns",
        ]
        .iter()
        .map(|k| u64_field(buckets, k))
        .sum();
        assert_eq!(
            total,
            makespan,
            "rank {} buckets do not sum to its makespan",
            u64_field(rank, "rank")
        );
    }

    // A complete cross-rank critical path: non-empty, tiles the makespan.
    let path = report.get("critical_path").and_then(Json::as_arr).unwrap();
    assert!(!path.is_empty(), "critical path is empty");
    assert_eq!(
        u64_field(&report, "critical_path_ns"),
        u64_field(&report, "makespan_ns"),
        "critical path does not cover the makespan"
    );
    assert!(
        path.iter().any(|seg| {
            seg.get("kind").and_then(Json::as_str) == Some("transfer")
                && seg.get("src").and_then(Json::as_u64) != seg.get("dst").and_then(Json::as_u64)
        }),
        "no cross-rank transfer on the critical path"
    );

    // The adaptive run redistributed at least once and was audited.
    let cycles = report.get("cycles").and_then(Json::as_arr).unwrap();
    assert!(!cycles.is_empty(), "no redistribution audits");
    assert!(cycles.iter().all(|c| u64_field(c, "rows_moved") > 0));
}

/// Runs quick fig8 (node arrival) with `--health-out`/`--explain-out`
/// under the given thread count, returning
/// `(rows_jsonl, health_jsonl, explain_jsonl)`.
fn fig8_run(out_dir: &std::path::Path, tag: &str, threads: &str) -> (String, String, String) {
    let dir = out_dir.join(format!("fig8-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let health = dir.join("health.jsonl");
    let explain = dir.join("explain.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_fig8_node_arrival"))
        .arg("--quick")
        .arg("--out")
        .arg(&dir)
        .arg("--threads")
        .arg(threads)
        .arg("--health-out")
        .arg(&health)
        .arg("--explain-out")
        .arg(&explain)
        .output()
        .expect("failed to launch fig8_node_arrival");
    assert!(
        output.status.success(),
        "fig8_node_arrival ({tag}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        std::fs::read_to_string(dir.join("fig8_node_arrival.jsonl")).unwrap(),
        std::fs::read_to_string(&health).unwrap(),
        std::fs::read_to_string(&explain).unwrap(),
    )
}

/// The fig8 arm of the smoke job: every scenario's arrival must be
/// absorbed (admitted, with rows transferred to the newcomer), and the
/// result rows, health snapshot stream, and explain report must be
/// byte-identical across `--threads 1` vs `8`. The explain report must
/// card the instrumented run's expansion decision as an admit with both
/// branch predictions.
#[test]
fn fig8_quick_arrival_absorbed_deterministically() {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/profile-smoke");
    std::fs::create_dir_all(&out_dir).unwrap();

    let (rows_t1, health_t1, explain_t1) = fig8_run(&out_dir, "t1", "1");
    let (rows_t8, health_t8, explain_t8) = fig8_run(&out_dir, "t8", "8");
    assert_eq!(
        rows_t1, rows_t8,
        "fig8 rows differ between --threads 1 and 8"
    );
    assert_eq!(
        health_t1, health_t8,
        "fig8 health snapshots differ between --threads 1 and 8"
    );
    assert_eq!(
        explain_t1, explain_t8,
        "fig8 explain report differs between --threads 1 and 8"
    );

    let admit = explain_t1
        .lines()
        .skip(1)
        .map(|l| Json::parse(l).expect("explain line must be JSON"))
        .find(|c| c.get("kind").and_then(Json::as_str) == Some("expand-evaluated"))
        .expect("no expand-evaluated decision card");
    assert_eq!(
        admit.get("taken").and_then(Json::as_str),
        Some("admit"),
        "expansion was not taken as admit: {admit}"
    );
    assert!(
        admit.get("predicted_ns").and_then(Json::as_u64).is_some()
            && admit
                .get("counterfactual_ns")
                .and_then(Json::as_u64)
                .is_some(),
        "expand card lacks branch predictions: {admit}"
    );

    let mut scenarios = Vec::new();
    for (lineno, line) in rows_t1.lines().enumerate() {
        let row = Json::parse(line)
            .unwrap_or_else(|e| panic!("fig8 row {} is not JSON: {e}", lineno + 1));
        assert_eq!(
            row.get("admitted").and_then(Json::as_bool),
            Some(true),
            "arrival not admitted: {row}"
        );
        assert!(
            u64_field(&row, "new_rows") > 0,
            "admitted node received no rows: {row}"
        );
        assert!(
            u64_field(&row, "admitted_cycle") >= u64_field(&row, "arrived_cycle"),
            "admission precedes evaluation: {row}"
        );
        scenarios.push(format!(
            "{}/{}",
            row.get("scenario").and_then(Json::as_str).unwrap(),
            u64_field(&row, "nodes")
        ));
    }
    assert_eq!(
        scenarios,
        ["grow/2", "grow/4", "grow/8", "readd/4"],
        "unexpected fig8 scenario sweep"
    );
}

/// Runs quick fig9 (node crash) fully observed (`--trace-out`,
/// `--health-out`, `--explain-out`) under the given thread count,
/// returning `(rows_jsonl, health_jsonl, trace_json, explain_jsonl)`.
fn fig9_run(
    out_dir: &std::path::Path,
    tag: &str,
    threads: &str,
) -> (String, String, String, String) {
    let dir = out_dir.join(format!("fig9-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let health = dir.join("health.jsonl");
    let trace = dir.join("trace.json");
    let explain = dir.join("explain.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_fig9_node_crash"))
        .arg("--quick")
        .arg("--out")
        .arg(&dir)
        .arg("--threads")
        .arg(threads)
        .arg("--health-out")
        .arg(&health)
        .arg("--trace-out")
        .arg(&trace)
        .arg("--explain-out")
        .arg(&explain)
        .output()
        .expect("failed to launch fig9_node_crash");
    assert!(
        output.status.success(),
        "fig9_node_crash ({tag}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        std::fs::read_to_string(dir.join("fig9_node_crash.jsonl")).unwrap(),
        std::fs::read_to_string(&health).unwrap(),
        std::fs::read_to_string(&trace).unwrap(),
        std::fs::read_to_string(&explain).unwrap(),
    )
}

/// The fig9 arm of the smoke job: after an injected mid-run crash the
/// survivors must confirm the death, restore from the buddy checkpoint,
/// and finish with the crash-free checksum — and the rows, health
/// snapshots, raw trace, and explain report must be byte-identical
/// across `--threads 1` vs `8`. Each confirmed death must produce a
/// flight record with detection latency, replay cost, and the intact
/// checksum.
#[test]
fn fig9_quick_crash_recovers_deterministically() {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/profile-smoke");
    std::fs::create_dir_all(&out_dir).unwrap();

    let (rows_t1, health_t1, trace_t1, explain_t1) = fig9_run(&out_dir, "t1", "1");
    let (rows_t8, health_t8, trace_t8, explain_t8) = fig9_run(&out_dir, "t8", "8");
    assert_eq!(rows_t1, rows_t8, "fig9 rows differ under --threads 8");
    assert_eq!(
        health_t1, health_t8,
        "fig9 health snapshots differ under --threads 8"
    );
    assert_eq!(trace_t1, trace_t8, "fig9 trace differs under --threads 8");
    assert_eq!(
        explain_t1, explain_t8,
        "fig9 explain report differs under --threads 8"
    );

    assert!(!trace_t1.trim().is_empty(), "fig9 trace is empty");

    // Every confirmed death in the instrumented run has a flight record:
    // detection latency, replay cost, buddy restore, intact checksum.
    let flights: Vec<Json> = explain_t1
        .lines()
        .skip(1)
        .map(|l| Json::parse(l).expect("explain line must be JSON"))
        .filter(|c| c.get("card").and_then(Json::as_str) == Some("flight-record"))
        .collect();
    assert!(
        !flights.is_empty(),
        "no crash flight record in the explain report"
    );
    for f in &flights {
        assert!(
            u64_field(f, "detection_ns") > 0,
            "flight record without detection latency: {f}"
        );
        assert!(
            u64_field(f, "replay_cycles") > 0 && u64_field(f, "restored_rows") > 0,
            "flight record without replay cost: {f}"
        );
        assert_eq!(
            f.get("checksum_intact").and_then(Json::as_bool),
            Some(true),
            "flight record does not report the checksum intact: {f}"
        );
    }
    let mut fracs = Vec::new();
    for (lineno, line) in rows_t1.lines().enumerate() {
        let row = Json::parse(line)
            .unwrap_or_else(|e| panic!("fig9 row {} is not JSON: {e}", lineno + 1));
        assert_eq!(
            row.get("checksum_ok").and_then(Json::as_bool),
            Some(true),
            "recovered run diverged from the crash-free checksum: {row}"
        );
        assert!(
            u64_field(&row, "confirmed_cycle") > 0,
            "crash never confirmed: {row}"
        );
        assert!(
            u64_field(&row, "detect_cycles") > 0 && u64_field(&row, "restored_rows") > 0,
            "no detection latency or no restored rows: {row}"
        );
        fracs.push(row.get("crash_frac").and_then(Json::as_f64).unwrap());
    }
    assert_eq!(fracs, [0.3, 0.6], "unexpected fig9 crash sweep");
}

/// Runs quick fig4 `jacobi/8` with `--health-out`/`--explain-out` under
/// the given thread count, returning `(health_jsonl, explain_jsonl)`.
fn health_run(out_dir: &std::path::Path, tag: &str, threads: &str) -> (String, String) {
    let path = out_dir.join(format!("health-{tag}.jsonl"));
    let explain = out_dir.join(format!("explain-{tag}.jsonl"));
    let output = Command::new(env!("CARGO_BIN_EXE_fig4_overall"))
        .arg("--quick")
        .arg("--only")
        .arg("jacobi/8")
        .arg("--out")
        .arg(out_dir)
        .arg("--threads")
        .arg(threads)
        .arg("--health-out")
        .arg(&path)
        .arg("--explain-out")
        .arg(&explain)
        .output()
        .expect("failed to launch fig4_overall");
    assert!(
        output.status.success(),
        "fig4_overall ({tag}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        std::fs::read_to_string(&path).unwrap(),
        std::fs::read_to_string(&explain).unwrap(),
    )
}

/// The `--health-out` arm of the smoke job: the competing-process
/// scenario must classify the loaded node (node 7 of jacobi/8) as a
/// `Straggler` before the runtime's redistribution on the same timeline,
/// and both the snapshot stream and the explain report must be
/// byte-identical across `--threads 1` vs `8`. The explain report must
/// also tell the fig4 story end to end: straggler alert on the loaded
/// node → load-change → redistribution, one causal chain on one card,
/// with a counterfactual makespan and a realized-vs-predicted delta.
#[test]
fn fig4_quick_health_flags_straggler_deterministically() {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/profile-smoke");
    std::fs::create_dir_all(&out_dir).unwrap();

    let (t1, explain_t1) = health_run(&out_dir, "t1", "1");
    let (t8, explain_t8) = health_run(&out_dir, "t8", "8");
    assert_eq!(t1, t8, "health snapshots differ between --threads 1 and 8");
    assert_eq!(
        explain_t1, explain_t8,
        "explain report differs between --threads 1 and 8"
    );

    // Header: schema tag plus a non-empty critical-path blame table.
    let header = Json::parse(explain_t1.lines().next().expect("explain is empty"))
        .expect("explain header must be JSON");
    assert_eq!(header.get("explain").and_then(Json::as_str), Some("v1"));
    assert!(
        !header
            .get("blame")
            .and_then(Json::as_arr)
            .expect("header without blame table")
            .is_empty(),
        "blame table is empty"
    );

    // The redistribution decision card carries the full causal chain.
    let card = explain_t1
        .lines()
        .skip(1)
        .map(|l| Json::parse(l).expect("explain line must be JSON"))
        .find(|c| c.get("kind").and_then(Json::as_str) == Some("redistributed"))
        .expect("no redistributed decision card");
    let card_ts = u64_field(&card, "ts_ns");
    let chain = card.get("chain").and_then(Json::as_arr).unwrap();
    let link_ts = |pred: &dyn Fn(&Json) -> bool| -> u64 {
        chain
            .iter()
            .find(|l| pred(l))
            .map(|l| u64_field(l, "ts_ns"))
            .unwrap_or_else(|| panic!("missing chain link in {card}"))
    };
    let alert_ts = link_ts(&|l: &Json| {
        l.get("type").and_then(Json::as_str) == Some("alert")
            && l.get("rule").and_then(Json::as_str) == Some("straggler")
            && l.get("node").and_then(Json::as_u64) == Some(7)
    });
    let load_change_ts =
        link_ts(&|l: &Json| l.get("kind").and_then(Json::as_str) == Some("load-change"));
    assert!(
        alert_ts < card_ts && load_change_ts < card_ts,
        "chain links do not precede the decision: alert {alert_ts}, \
         load-change {load_change_ts}, decision {card_ts}"
    );
    assert!(
        card.get("counterfactual_ns")
            .and_then(Json::as_u64)
            .is_some(),
        "redistributed card without counterfactual: {card}"
    );
    let outcome = card.get("outcome").expect("card without outcome");
    assert!(
        outcome
            .get("delta_vs_predicted_ns")
            .and_then(Json::as_f64)
            .is_some(),
        "redistributed card without realized-vs-predicted delta: {card}"
    );

    let mut straggler_ts: Option<u64> = None;
    let mut redist_ts: Option<u64> = None;
    for (lineno, line) in t1.lines().enumerate() {
        let w = Json::parse(line)
            .unwrap_or_else(|e| panic!("health line {} is not JSON: {e}", lineno + 1));
        for a in w.get("alerts").and_then(Json::as_arr).unwrap() {
            if a.get("state").and_then(Json::as_str) == Some("straggler")
                && a.get("node").and_then(Json::as_u64) == Some(7)
            {
                let ts = u64_field(a, "ts_ns");
                straggler_ts = Some(straggler_ts.map_or(ts, |t| t.min(ts)));
            }
        }
        for d in w.get("decisions").and_then(Json::as_arr).unwrap() {
            if d.get("kind").and_then(Json::as_str) == Some("redistributed") {
                let ts = u64_field(d, "ts_ns");
                redist_ts = Some(redist_ts.map_or(ts, |t| t.min(ts)));
            }
        }
    }
    let straggler_ts = straggler_ts.expect("no Straggler alert on the loaded node (7)");
    let redist_ts = redist_ts.expect("no redistribution decision on the health timeline");
    assert!(
        straggler_ts < redist_ts,
        "straggler alert ({straggler_ts} ns) did not precede redistribution ({redist_ts} ns)"
    );
}

/// Runs the binary at `exe` with `args`; returns its name, exit code and
/// stderr.
fn run_bin(exe: &str, args: &[&str]) -> (String, Option<i32>, String) {
    let output = Command::new(exe)
        .args(args)
        .env("DYNMPI_LOG", "info")
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    let name = std::path::Path::new(exe).file_name().unwrap();
    (
        name.to_string_lossy().into_owned(),
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// An `--out` directory that cannot be created fails up front: exit 2
/// naming the flag, and no sweep progress line before it.
#[test]
fn unwritable_out_exits_2_before_the_sweep() {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/profile-smoke");
    std::fs::create_dir_all(&out_dir).unwrap();
    // A regular file where a directory is needed.
    let file = out_dir.join("not-a-directory");
    std::fs::write(&file, "").unwrap();
    let out = file.join("sub");
    for (exe, progress) in [
        (env!("CARGO_BIN_EXE_fig7_grace_period"), "fig7 part="),
        (env!("CARGO_BIN_EXE_tab_microbench"), "wrote"),
    ] {
        let (bin, code, stderr) = run_bin(exe, &["--quick", "--out", out.to_str().unwrap()]);
        assert_eq!(
            code,
            Some(2),
            "{bin} accepted an unwritable --out:\n{stderr}"
        );
        assert!(stderr.contains("--out"), "{bin}: {stderr}");
        assert!(!stderr.contains(progress), "{bin} ran first:\n{stderr}");
    }
}

/// A flag the figure would ignore exits 2 naming the flag and the binary:
/// at least one per class (`--only`, instrumentation), plus a flag no
/// figure has any more. The rejected trace file is never created.
#[test]
fn flags_a_figure_ignores_exit_2() {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/profile-smoke");
    let trace = out_dir.join("rejected/trace.json");
    let _ = std::fs::remove_file(&trace);
    for (exe, flag, value) in [
        (env!("CARGO_BIN_EXE_fig6_node_removal"), "--only", "8"),
        (env!("CARGO_BIN_EXE_ablation_monitor"), "--only", "nothing"),
        // A flag that no longer exists: an unknown argument.
        (env!("CARGO_BIN_EXE_fig4_overall"), "--shards", "2"),
        (
            env!("CARGO_BIN_EXE_fig3_alloc"),
            "--trace-out",
            trace.to_str().unwrap(),
        ),
    ] {
        let out = out_dir.to_str().unwrap();
        let (bin, code, stderr) = run_bin(exe, &["--quick", "--out", out, flag, value]);
        assert_eq!(code, Some(2), "{bin} accepted {flag}:\n{stderr}");
        assert!(
            stderr.contains(&bin) && stderr.contains(flag),
            "{bin} {flag}: {stderr}"
        );
    }
    assert!(!trace.exists(), "fig3_alloc wrote a trace it cannot record");
}
