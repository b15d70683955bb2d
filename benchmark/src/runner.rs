//! The parent side: spawns one child process per workload, watches it,
//! and turns the lines it printed into a `Measurement`. Single-threaded
//! apart from a pipe reader, and asleep while a child runs; all simulation
//! happens in the children.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Duration;

use dynmpi_obs::Json;

use crate::host::{self, Usage};
use crate::metrics::{values_from_json, Value, Values};
use crate::spans::{self, Span};
use crate::stats::median;
use crate::workloads::Workload;

/// A child that has printed nothing final by then is killed and its
/// repetition in flight counted as failed.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Children keep the memory they free (no `mmap` for large blocks, no heap
/// trimming). The reference host reports free guest pages to its
/// hypervisor within seconds, after which touching one again costs 12 to
/// 59 us instead of 2 us (measured); a child that returned its 350 MiB
/// between repetitions took anything from 1.6 to 5.9 s per repetition.
const CHILD_MALLOC: &str =
    "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=17179869184:glibc.malloc.top_pad=268435456";

pub struct ChildOutput {
    /// The JSON objects the child printed, one per line, in order.
    pub lines: Vec<Json>,
    pub exit_ok: bool,
    pub timed_out: bool,
}

impl ChildOutput {
    pub fn line(&self, kind: &str) -> Option<&Json> {
        self.lines
            .iter()
            .find(|l| l.get("kind").and_then(Json::as_str) == Some(kind))
    }
}

/// Runs this executable again with `args` and collects what it prints.
pub fn spawn_child(args: &[String]) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .env("GLIBC_TUNABLES", CHILD_MALLOC)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // The pipe reaches end-of-file when the child exits, so waiting for
    // the reader (with the watchdog as its time-out) is waiting for the
    // child. No polling: with a parent calling `try_wait` every 2 ms, 6 of
    // 44 pinned children ran with twice the context switches per message
    // and 1.8x the wall time; with a sleeping parent, 0 of 60.
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let read = stdout.read_to_string(&mut text).map(|_| text);
        let _ = tx.send(read);
    });
    let (read, timed_out) = match rx.recv_timeout(WATCHDOG) {
        Ok(read) => (read, false),
        Err(_) => {
            let _ = child.kill();
            (rx.recv().map_err(|e| format!("pipe reader: {e}"))?, true)
        }
    };
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    reader
        .join()
        .map_err(|_| "pipe reader panicked".to_string())?;
    let text = read.map_err(|e| format!("read child output: {e}"))?;
    Ok(ChildOutput {
        lines: text.lines().filter_map(|l| Json::parse(l).ok()).collect(),
        exit_ok: status.success(),
        timed_out,
    })
}

#[derive(Clone, Debug, PartialEq)]
pub struct RepLine {
    pub cold: bool,
    pub wall_s: f64,
    pub makespan_ns: u64,
    pub error: Option<String>,
}

/// What to ask of the `rep` child.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ask {
    pub seconds: f64,
    /// Add the recorded repetition and its per-layer metrics.
    pub traced: bool,
    /// One cold repetition only (peak RSS of a single run).
    pub cold_only: bool,
    pub bless: bool,
    /// Extra set-up-only children, so that set-up time is a median of
    /// several process starts instead of one.
    pub setup_samples: usize,
}

/// Everything one workload's child reported.
#[derive(Clone, Debug, Default)]
pub struct Measurement {
    pub pinned_cpu: Option<usize>,
    pub setup_s: Vec<f64>,
    /// Untraced repetitions, the cold one first.
    pub reps: Vec<RepLine>,
    /// Peak RSS after the last untraced repetition, KiB.
    pub peak_rss_kib: Option<u64>,
    /// Per-layer metrics read off the workload (traced children only).
    pub layer_metrics: Values,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Measurement {
    pub fn timed_walls(&self) -> Vec<f64> {
        self.reps
            .iter()
            .filter(|r| !r.cold)
            .map(|r| r.wall_s)
            .collect()
    }

    /// The four end-to-end metrics. A metric whose inputs are missing
    /// (the child died first) is absent.
    pub fn end_to_end(&self) -> Values {
        let mut v = Values::new();
        if let Some(w) = median(&self.timed_walls()) {
            v.insert("wall_s".into(), Value::Num(w));
        }
        if let Some(kib) = self.peak_rss_kib {
            v.insert("peak_rss_mb".into(), Value::Num(kib as f64 / 1024.0));
        }
        if let Some(last) = self.reps.last() {
            v.insert(
                "virt_makespan_s".into(),
                Value::Num(last.makespan_ns as f64 * 1e-9),
            );
        }
        if let Some(s) = median(&self.setup_s) {
            v.insert("setup_s".into(), Value::Num(s));
        }
        v
    }
}

fn rep_args(workload: Workload, seed: u64, extra: &[&str]) -> Vec<String> {
    let mut args = vec![
        "rep".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--spawned-at-ns".to_string(),
        host::now_ns().to_string(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// Folds a child's output into `m`: repetitions seen, failures, and the
/// repetition in flight if the child died or was killed.
fn absorb(m: &mut Measurement, out: &ChildOutput) {
    for line in &out.lines {
        let error = line
            .get("error")
            .and_then(Json::as_str)
            .map(|s| s.to_string());
        match line.get("kind").and_then(Json::as_str) {
            Some("ready") => {
                m.pinned_cpu = line
                    .get("pinned_cpu")
                    .and_then(Json::as_u64)
                    .map(|c| c as usize);
                m.setup_s.extend(line.get("setup_s").and_then(Json::as_f64));
            }
            Some("rep") => {
                m.attempted += 1;
                m.failed += u64::from(error.is_some());
                m.errors.extend(error.clone());
                m.reps.push(RepLine {
                    cold: line.get("cold").and_then(Json::as_bool).unwrap_or(false),
                    wall_s: line.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
                    makespan_ns: line.get("makespan_ns").and_then(Json::as_u64).unwrap_or(0),
                    error,
                });
            }
            Some("timed_done") => {
                m.peak_rss_kib = line
                    .get("usage")
                    .and_then(Usage::from_json)
                    .map(|u| u.max_rss_kib);
            }
            Some("traced") => {
                m.attempted += 1;
                m.failed += u64::from(error.is_some());
                m.errors.extend(error);
                m.layer_metrics = line
                    .get("metrics")
                    .and_then(values_from_json)
                    .unwrap_or_default();
                m.spans = spans::from_json(line.get("spans"));
            }
            _ => {}
        }
    }
    if out.line("done").is_none() {
        // The child died (or was killed) inside a repetition.
        m.attempted += 1;
        m.failed += 1;
        m.errors.push(if out.timed_out {
            format!("child exceeded the {} s watchdog", WATCHDOG.as_secs())
        } else {
            "child exited before finishing".to_string()
        });
    } else if !out.exit_ok && m.failed == 0 {
        m.failed += 1;
        m.errors
            .push("child exited non-zero without naming a failed repetition".to_string());
    }
}

/// Runs `workload` in a child process and reports what it measured.
pub fn measure(workload: Workload, seed: u64, ask: Ask) -> Measurement {
    let mut m = Measurement::default();
    for _ in 0..ask.setup_samples {
        match spawn_child(&rep_args(workload, seed, &["--setup-only"])) {
            Ok(out) => m.setup_s.extend(
                out.line("ready")
                    .and_then(|l| l.get("setup_s"))
                    .and_then(Json::as_f64),
            ),
            Err(e) => m.errors.push(e),
        }
    }
    let seconds = ask.seconds.to_string();
    let mut extra = vec!["--seconds", seconds.as_str()];
    for (flag, on) in [
        ("--traced", ask.traced),
        ("--cold-only", ask.cold_only),
        ("--bless", ask.bless),
    ] {
        if on {
            extra.push(flag);
        }
    }
    match spawn_child(&rep_args(workload, seed, &extra)) {
        Ok(out) => absorb(&mut m, &out),
        Err(e) => {
            m.attempted += 1;
            m.failed += 1;
            m.errors.push(e);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(lines: &[&str], exit_ok: bool) -> ChildOutput {
        ChildOutput {
            lines: lines.iter().map(|l| Json::parse(l).unwrap()).collect(),
            exit_ok,
            timed_out: false,
        }
    }

    const READY: &str = r#"{"kind":"ready","setup_s":0.002,"pinned_cpu":1}"#;
    const COLD: &str =
        r#"{"kind":"rep","cold":true,"wall_s":1.5,"makespan_ns":7000000000,"error":null}"#;
    const WARM_A: &str =
        r#"{"kind":"rep","cold":false,"wall_s":1.0,"makespan_ns":7000000000,"error":null}"#;
    const WARM_B: &str =
        r#"{"kind":"rep","cold":false,"wall_s":1.2,"makespan_ns":7000000000,"error":null}"#;
    const MISMATCH: &str = r#"{"kind":"rep","cold":false,"wall_s":1.1,"makespan_ns":7100000000,"error":"output differs from reference at $.runs[0].makespan_ns"}"#;
    const TIMED_DONE: &str = r#"{"kind":"timed_done","usage":{"user_s":1,"sys_s":2,"max_rss_kib":5120,"ctx_switches":9}}"#;
    const DONE: &str = r#"{"kind":"done"}"#;

    #[test]
    fn clean_child_yields_the_four_metrics() {
        let mut m = Measurement::default();
        absorb(
            &mut m,
            &output(&[READY, COLD, WARM_A, WARM_B, TIMED_DONE, DONE], true),
        );
        assert_eq!((m.attempted, m.failed), (3, 0));
        assert_eq!(m.pinned_cpu, Some(1));
        let e = m.end_to_end();
        assert_eq!(e["wall_s"], Value::Num(1.1));
        assert_eq!(e["peak_rss_mb"], Value::Num(5.0));
        assert_eq!(e["virt_makespan_s"], Value::Num(7.0));
        assert_eq!(e["setup_s"], Value::Num(0.002));
    }

    #[test]
    fn reference_mismatch_counts_as_a_failed_rep() {
        let mut m = Measurement::default();
        absorb(
            &mut m,
            &output(
                &[READY, COLD, WARM_A, MISMATCH, WARM_B, TIMED_DONE, DONE],
                false,
            ),
        );
        assert_eq!((m.attempted, m.failed), (4, 1));
        assert!(m.errors[0].contains("makespan_ns"));
    }

    #[test]
    fn child_dying_mid_rep_counts_the_rep_in_flight() {
        let mut m = Measurement::default();
        absorb(&mut m, &output(&[READY, COLD, WARM_A], false));
        assert_eq!((m.attempted, m.failed), (3, 1));
    }
}
