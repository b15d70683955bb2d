//! `figures`: what each whole figure binary costs the host. Opt-in and
//! outside the contract run — it needs the repository's own release build
//! (`cargo build --release --workspace` at the root) and takes minutes.
//!
//! Each binary runs under a child of its own (`benchmark figure <path>`)
//! that pins itself, so the binary inherits the one-CPU affinity, and that
//! has no other children, so its `RUSAGE_CHILDREN` is that binary's cost
//! alone — peak RSS included, which in a shared parent would be a running
//! maximum over all binaries.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use dynmpi_obs::Json;

use crate::host::{self, Fingerprint, Usage};
use crate::suite::append_ledger;

fn release_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target/release")
}

/// The figure, ablation and table binaries present in the release build.
fn binaries() -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(release_dir())
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            p.is_file()
                && p.extension().is_none()
                && (name.starts_with("fig")
                    || name.starts_with("ablation_")
                    || name == "tab_microbench")
        })
        .collect();
    found.sort();
    found
}

/// The `figure` child: runs one binary pinned and prints its cost.
pub fn run_one(bin: &str) -> Result<bool, String> {
    let pinned = host::pin_to_one_cpu();
    let scratch = crate::suite::out_dir().join("figures");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let start = Instant::now();
    let status = Command::new(bin)
        .args(["--quick", "--threads", "1", "--out"])
        .arg(&scratch)
        .env("DYNMPI_LOG", "off")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{bin}: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "{}",
        Json::obj([
            ("ok", Json::Bool(status.success())),
            ("wall_s", Json::Num(wall_s)),
            ("pinned_cpu", host::cpu_json(pinned)),
            (
                "usage",
                host::usage_children().map_or(Json::Null, Usage::to_json),
            ),
        ])
    );
    Ok(true)
}

/// Runs every figure binary; returns whether all of them succeeded.
pub fn run(record: bool) -> Result<bool, String> {
    let bins = binaries();
    if bins.is_empty() {
        return Err(format!(
            "no figure binaries under {}; run `cargo build --release --workspace` at the repository root first",
            release_dir().display()
        ));
    }
    let fingerprint = Fingerprint::read();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut rows = Vec::new();
    let mut all_ok = true;
    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>10}",
        "binary", "wall_s", "user_s", "sys_s", "rss_MiB"
    );
    for bin in bins {
        let name = bin.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        // A blocking wait, no watchdog: whole figures take minutes.
        let out = Command::new(&exe)
            .arg("figure")
            .arg(&bin)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let line = String::from_utf8_lossy(&out.stdout);
        let report = Json::parse(line.trim()).map_err(|e| format!("{name}: {e:?}"))?;
        let ok = report.get("ok").and_then(Json::as_bool) == Some(true);
        all_ok &= ok;
        let wall_s = report
            .get("wall_s")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let usage = report.get("usage").and_then(Usage::from_json);
        let (user_s, sys_s, rss_mib) = usage.map_or((f64::NAN, f64::NAN, f64::NAN), |u| {
            (u.user_s, u.sys_s, u.max_rss_kib as f64 / 1024.0)
        });
        println!(
            "{name:<28} {wall_s:>9.2} {user_s:>9.2} {sys_s:>9.2} {rss_mib:>10.1}{}",
            if ok { "" } else { "  FAILED" }
        );
        let metric = |suffix: &str, v: f64| (format!("bench.fig.{name}.{suffix}"), Json::Num(v));
        rows.push(Json::obj([
            ("workload", Json::str(format!("fig.{name}"))),
            ("host", fingerprint.to_json()),
            (
                "pinned_cpu",
                report.get("pinned_cpu").cloned().unwrap_or(Json::Null),
            ),
            (
                "metrics",
                Json::Obj(vec![
                    metric("wall_s", wall_s),
                    metric("user_s", user_s),
                    metric("sys_s", sys_s),
                    metric("peak_rss_mb", rss_mib),
                ]),
            ),
        ]));
    }
    if record && all_ok {
        let path = append_ledger(&rows).map_err(|e| format!("ledger: {e}"))?;
        eprintln!("benchmark: appended to {}", path.display());
    }
    Ok(all_ok)
}
