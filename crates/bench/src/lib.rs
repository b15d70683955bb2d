//! # dynmpi-bench — harnesses regenerating the paper's tables and figures
//!
//! The evaluation (§5) is a library: [`figures`] holds one module per
//! figure, table or ablation, each with its typed rows, its sweep and its
//! printout. Every binary below is a shim over its module's `FIGURE`, and
//! the golden-row tests call the same functions in-process:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig3_alloc` | §4.1/Fig. 3 — projection vs. contiguous allocation |
//! | `fig4_overall` | Fig. 4 — 4 apps × {2,4,8} nodes × {dedicated, no-adapt, Dyn-MPI} |
//! | `fig5_redist_points` | Fig. 5 — Jacobi with 0/1/2 redistribution points |
//! | `fig6_node_removal` | Fig. 6 — SOR keep-vs-drop on 8/16/32 nodes |
//! | `fig7_grace_period` | Fig. 7 — particle sim, grace period 1 vs 5 |
//! | `fig8_node_arrival` | extension — growing the job: node arrival absorption on 2/4/8 seed nodes + recovery from removal by re-adding |
//! | `fig9_node_crash` | extension — fail-stop crash: detection, buddy-checkpoint restore, replay |
//! | `tab_microbench` | §4.3 — two-node comp/comm micro-benchmarks |
//! | `ablation_balancer` | successive balancing vs relative power |
//! | `ablation_drop_mode` | physical vs logical node dropping (§2.2) |
//! | `ablation_monitor` | `dmpi_ps` vs `vmstat` load readings (§4.2) |
//!
//! Binaries print the figure's table to stdout and write JSON rows to
//! `results/<name>.jsonl` for EXPERIMENTS.md. Pass `--quick` for scaled-down
//! inputs (same shapes, minutes → seconds). Pass `--trace-out PATH` on
//! the figure binaries to capture a Chrome/Perfetto trace of the run
//! (virtual timestamps; `PATH.metrics.json` gets the metrics snapshots),
//! and `--health-out PATH`/`--watch`/`--prom-out PATH` for the online
//! health monitor's snapshot JSONL, live dashboard, and
//! Prometheus-format metrics (DESIGN.md §11), and `--explain-out PATH`
//! for the decision-audit report — decision cards with counterfactuals
//! and crash flight records (DESIGN.md §15).
//! Pass `--threads N` to size the configuration-sweep worker pool
//! (default: available parallelism; output is byte-identical at any
//! value — `fig3_alloc` ignores it and stays serial because it measures
//! real wall-clock time). A flag a figure would ignore (`--only` outside
//! fig4, an instrumentation flag where nothing honours it) exits 2
//! instead.
//!
//! Progress output goes through a leveled logger controlled by the
//! `DYNMPI_LOG` environment variable (`error`, `warn`, `info` — the
//! default — `debug`, `trace`, or `off`).

pub mod figures;

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use dynmpi_obs::{ExplainReport, HealthMonitor, Json, ProfileReport, Recorder};

/// Verbosity of the bench logger, in increasing order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    Off,
    Error,
    Warn,
    Info,
    Debug,
    Trace,
}

impl LogLevel {
    fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" => Some(LogLevel::Off),
            "error" => Some(LogLevel::Error),
            "warn" | "warning" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            "trace" => Some(LogLevel::Trace),
            _ => None,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
            LogLevel::Trace => "trace",
        }
    }
}

/// The active log level: `DYNMPI_LOG` if set and valid, else `info`.
pub fn log_level() -> LogLevel {
    static LEVEL: OnceLock<LogLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        std::env::var("DYNMPI_LOG")
            .ok()
            .and_then(|v| LogLevel::parse(&v))
            .unwrap_or(LogLevel::Info)
    })
}

/// Logger backend for the `log_*` macros: writes one stderr line when
/// `level` is enabled. Use the macros, not this directly.
pub fn log_at(level: LogLevel, args: std::fmt::Arguments<'_>) {
    if level != LogLevel::Off && level <= log_level() {
        eprintln!("[{}] {}", level.tag(), args);
    }
}

/// Logs at `error` level (shown unless `DYNMPI_LOG=off`).
#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => { $crate::log_at($crate::LogLevel::Error, format_args!($($arg)*)) };
}

/// Logs at `warn` level.
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => { $crate::log_at($crate::LogLevel::Warn, format_args!($($arg)*)) };
}

/// Logs at `info` level (the default): per-configuration progress lines.
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => { $crate::log_at($crate::LogLevel::Info, format_args!($($arg)*)) };
}

/// Logs at `debug` level: per-variant details.
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => { $crate::log_at($crate::LogLevel::Debug, format_args!($($arg)*)) };
}

/// Logs at `trace` level.
#[macro_export]
macro_rules! log_trace {
    ($($arg:tt)*) => { $crate::log_at($crate::LogLevel::Trace, format_args!($($arg)*)) };
}

/// Common CLI handling: `--quick`, an optional `--out DIR`, an optional
/// `--trace-out PATH` (Chrome trace of the instrumented runs), an optional
/// `--profile-out PATH` (critical-path & wait-state attribution report of
/// the instrumented run, JSON; the text rendering prints to stdout), an
/// optional `--health-out PATH` (online health monitor snapshots, JSONL),
/// `--watch` (live health dashboard on stderr while the instrumented run
/// executes), `--health-window MS` (monitor window width), an optional
/// `--prom-out PATH` (metrics registry in Prometheus text exposition
/// format), an optional `--explain-out PATH` (decision cards and crash
/// flight records, JSONL; the text rendering prints to stdout —
/// DESIGN.md §15), an optional `--only KEY` (restrict the sweep to
/// matching configurations, where supported), and `--threads N` (worker
/// count for the parallel configuration sweep; defaults to the machine's
/// available parallelism). Every simulated configuration is an
/// independent deterministic run, so output is byte-identical at any
/// thread count.
pub struct BenchArgs {
    pub quick: bool,
    pub out_dir: String,
    pub trace_out: Option<String>,
    pub profile_out: Option<String>,
    pub health_out: Option<String>,
    pub explain_out: Option<String>,
    pub watch: bool,
    /// Health-monitor window width in virtual milliseconds.
    pub health_window_ms: u64,
    pub prom_out: Option<String>,
    pub only: Option<String>,
    pub threads: usize,
}

/// The optional flag classes a figure honours. `--quick`, `--out` and
/// `--threads` are always accepted (a serial figure runs as if
/// `--threads 1`); any other flag the figure would ignore exits 2.
#[derive(Clone, Copy, Debug)]
pub struct Honours {
    /// `--only KEY` filters the sweep.
    pub only: bool,
    /// The trace, profile, health, explain and Prometheus outputs,
    /// `--watch` and `--health-window` observe one instrumented run.
    pub instrumentation: bool,
}

impl BenchArgs {
    /// Parses the command line `argv` of the figure binary `bin`. A
    /// malformed value, or a flag outside `honours`, exits 2 naming it.
    pub fn parse_from<S: Into<String>>(
        bin: &str,
        honours: Honours,
        argv: impl IntoIterator<Item = S>,
    ) -> Self {
        let mut quick = false;
        let mut out_dir = "results".to_string();
        let mut trace_out = None;
        let mut profile_out = None;
        let mut health_out = None;
        let mut explain_out = None;
        let mut watch = false;
        let mut health_window_ms = dynmpi_obs::health::DEFAULT_WINDOW_NS / 1_000_000;
        let mut prom_out = None;
        let mut only = None;
        let mut threads = dynmpi_testkit::available_threads();
        let mut args = argv.into_iter().map(Into::into);
        let value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        while let Some(a) = args.next() {
            let honoured = match a.as_str() {
                "--only" => honours.only,
                "--trace-out" | "--profile-out" | "--health-out" | "--explain-out" | "--watch"
                | "--health-window" | "--prom-out" => honours.instrumentation,
                _ => true,
            };
            if !honoured {
                eprintln!("{bin}: {a} would have no effect on this figure");
                std::process::exit(2);
            }
            match a.as_str() {
                "--quick" => quick = true,
                "--out" => out_dir = value("--out", &mut args),
                "--trace-out" => trace_out = Some(value("--trace-out", &mut args)),
                "--profile-out" => profile_out = Some(value("--profile-out", &mut args)),
                "--health-out" => health_out = Some(value("--health-out", &mut args)),
                "--explain-out" => explain_out = Some(value("--explain-out", &mut args)),
                "--watch" => watch = true,
                "--health-window" => {
                    let v = value("--health-window", &mut args);
                    health_window_ms = v.parse().ok().filter(|&ms| ms > 0).unwrap_or_else(|| {
                        eprintln!("--health-window needs a positive integer (ms), got {v}");
                        std::process::exit(2);
                    });
                }
                "--prom-out" => prom_out = Some(value("--prom-out", &mut args)),
                "--only" => only = Some(value("--only", &mut args)),
                "--threads" => {
                    let v = value("--threads", &mut args);
                    threads = v.parse().unwrap_or_else(|_| {
                        eprintln!("--threads needs a positive integer, got {v}");
                        std::process::exit(2);
                    });
                    if threads == 0 {
                        eprintln!("--threads must be at least 1");
                        std::process::exit(2);
                    }
                }
                "--help" | "-h" => {
                    let opt = |on: bool, flags: &'static str| if on { flags } else { "" };
                    eprintln!(
                        "usage: {bin} [--quick] [--out DIR] [--threads N]{}{}",
                        opt(honours.only, " [--only KEY]"),
                        opt(
                            honours.instrumentation,
                            " [--trace-out PATH] [--profile-out PATH] [--health-out PATH] \
                             [--explain-out PATH] [--watch] [--health-window MS] [--prom-out PATH]"
                        ),
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("{bin}: unknown argument {other}");
                    std::process::exit(2);
                }
            }
        }
        BenchArgs {
            quick,
            out_dir,
            trace_out,
            profile_out,
            health_out,
            explain_out,
            watch,
            health_window_ms,
            prom_out,
            only,
            threads,
        }
    }

    /// Does any flag ask for an instrumented run?
    pub fn wants_recorder(&self) -> bool {
        self.trace_out.is_some()
            || self.profile_out.is_some()
            || self.health_out.is_some()
            || self.explain_out.is_some()
            || self.prom_out.is_some()
            || self.watch
    }

    /// Builds the [`Instrumentation`] bundle these flags ask for: the
    /// shared recorder, the streaming health monitor subscribed to it, and
    /// (with `--watch`) the live dashboard thread.
    pub fn instrumentation(&self) -> Instrumentation {
        Instrumentation::new(self)
    }

    /// Keeps a sweep configuration when `--only` is unset or matches
    /// `key` as a substring.
    pub fn keeps(&self, key: &str) -> bool {
        self.only.as_deref().is_none_or(|pat| key.contains(pat))
    }
}

/// Everything the instrumentation flags set up for one bench run: the
/// shared [`Recorder`], the one streaming [`HealthMonitor`] subscribed to
/// it (for `--health-out`/`--watch`/`--explain-out`: the explain report is
/// assembled from the same monitor), and the live dashboard thread.
/// Create it **before** the sweep with [`BenchArgs::instrumentation`],
/// hand the recorder to exactly one sweep item via
/// [`recorder_for`](Instrumentation::recorder_for), and call
/// [`finish`](Instrumentation::finish) after the sweep to stop the watch
/// thread and write every requested output.
pub struct Instrumentation {
    recorder: Option<Recorder>,
    monitor: Option<Arc<HealthMonitor>>,
    checksum_intact: OnceLock<bool>,
    watch_stop: Option<Arc<AtomicBool>>,
    watch_thread: Option<std::thread::JoinHandle<()>>,
    trace_out: Option<String>,
    profile_out: Option<String>,
    health_out: Option<String>,
    explain_out: Option<String>,
    prom_out: Option<String>,
    watch: bool,
}

/// Probes an `--*-out` destination at startup: creates its parent
/// directories and opens it for writing, so a typo'd or unwritable path
/// fails immediately with a clear message instead of panicking after the
/// sweep has run for minutes.
fn validate_out_path(flag: &str, path: &str) {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!(
                    "{flag} {path}: cannot create directory {}: {e}",
                    parent.display()
                );
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        eprintln!("{flag} {path}: not writable: {e}");
        std::process::exit(2);
    }
}

impl Instrumentation {
    fn new(args: &BenchArgs) -> Self {
        for (flag, path) in [
            ("--trace-out", &args.trace_out),
            ("--profile-out", &args.profile_out),
            ("--health-out", &args.health_out),
            ("--explain-out", &args.explain_out),
            ("--prom-out", &args.prom_out),
        ] {
            if let Some(p) = path {
                validate_out_path(flag, p);
            }
        }
        let recorder = args.wants_recorder().then(Recorder::new);
        let window_ns = args.health_window_ms * 1_000_000;
        let wants_monitor = args.health_out.is_some() || args.watch || args.explain_out.is_some();
        let monitor = match (&recorder, wants_monitor) {
            (Some(rec), true) => {
                let mon = Arc::new(HealthMonitor::new(window_ns));
                // Subscribe before any rank scope is installed: scopes
                // capture the sink list at install time.
                rec.subscribe(mon.clone());
                Some(mon)
            }
            _ => None,
        };
        let (watch_stop, watch_thread) = if args.watch {
            let stop = Arc::new(AtomicBool::new(false));
            let mon = monitor.clone().expect("watch implies monitor");
            let stop2 = stop.clone();
            let handle = std::thread::spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    let frame = mon.report().render_dashboard();
                    let (hi, lo) = mon.progress();
                    // In-place redraw: home the cursor, print the frame
                    // erasing each line's tail, clear whatever an earlier
                    // (taller) frame left below, reset attributes.
                    // Deliberately no alternate screen and no cursor
                    // hiding — if the process dies mid-frame (panic
                    // elsewhere, Ctrl-C), the TTY is already in a sane
                    // state and the last frame stays readable above the
                    // shell prompt.
                    eprintln!(
                        "\x1b[H{}streamed: fastest rank {:.3}s, slowest {:.3}s\x1b[K\x1b[0J\x1b[0m",
                        frame.replace('\n', "\x1b[K\n"),
                        hi as f64 / 1e9,
                        lo as f64 / 1e9
                    );
                    let _ = std::io::stderr().flush();
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
            });
            (Some(stop), Some(handle))
        } else {
            (None, None)
        };
        Instrumentation {
            recorder,
            monitor,
            checksum_intact: OnceLock::new(),
            watch_stop,
            watch_thread,
            trace_out: args.trace_out.clone(),
            profile_out: args.profile_out.clone(),
            health_out: args.health_out.clone(),
            explain_out: args.explain_out.clone(),
            prom_out: args.prom_out.clone(),
            watch: args.watch,
        }
    }

    /// The recorder for the sweep item elected to be instrumented
    /// (`selected` true on exactly one item), `None` for the rest.
    pub fn recorder_for(&self, selected: bool) -> Option<Recorder> {
        selected.then(|| self.recorder.clone()).flatten()
    }

    /// Records whether the instrumented run's final checksum matched the
    /// crash-free baseline (the fig9 crash harness reports it before
    /// [`finish`](Instrumentation::finish)); every flight record of the
    /// explain report shows it. The first verdict stands.
    pub fn set_checksum_intact(&self, intact: bool) {
        let _ = self.checksum_intact.set(intact);
    }

    /// Stops the watch thread and writes every requested output: trace,
    /// profile, health JSONL, explain JSONL, and Prometheus metrics text.
    pub fn finish(mut self) {
        if let Some(stop) = self.watch_stop.take() {
            stop.store(true, Ordering::Relaxed);
        }
        if let Some(handle) = self.watch_thread.take() {
            let _ = handle.join();
        }
        let Some(rec) = &self.recorder else { return };
        if let Some(path) = &self.trace_out {
            write_trace(rec, path);
        }
        // One analysis pass serves both --profile-out and the explain
        // report's critical-path blame table.
        let profile =
            (self.profile_out.is_some() || self.explain_out.is_some()).then(|| rec.profile());
        if let Some(path) = &self.profile_out {
            write_profile_report(profile.as_ref().expect("computed above"), path);
        }
        if let Some(mon) = &self.monitor {
            let health = mon.report();
            if self.watch {
                // Leave the final state on screen after in-place redraws.
                eprint!("{}", health.render_dashboard());
            }
            if let Some(path) = &self.health_out {
                std::fs::write(path, health.to_jsonl()).expect("write health file");
                log_info!("wrote {path}");
            }
            if let Some(path) = &self.explain_out {
                let checksum_intact = self.checksum_intact.get().copied();
                let report = ExplainReport::from_monitor(mon, &health, checksum_intact);
                let blame = profile.as_ref().map_or(&[][..], |p| p.blame.as_slice());
                std::fs::write(path, report.to_jsonl(blame)).expect("write explain file");
                print!("{}", report.render_text(blame));
                log_info!("wrote {path}");
            }
        }
        if let Some(path) = &self.prom_out {
            let text = dynmpi_obs::prometheus_text(&rec.merged_metrics());
            std::fs::write(path, text).expect("write prometheus file");
            log_info!("wrote {path}");
        }
    }
}

impl Drop for Instrumentation {
    fn drop(&mut self) {
        // `finish` drains these on the normal path; reaching here with a
        // live watch thread means the run is unwinding (a panic skipped
        // `finish`). Stop the redraw loop, leave a final readable frame,
        // and reset terminal attributes so the panic message that follows
        // lands on a sane TTY.
        if let Some(stop) = self.watch_stop.take() {
            stop.store(true, Ordering::Relaxed);
        }
        if let Some(handle) = self.watch_thread.take() {
            let _ = handle.join();
            if let Some(mon) = &self.monitor {
                eprint!("\x1b[0m{}", mon.report().render_dashboard());
            }
            let _ = std::io::stderr().flush();
        }
    }
}

/// Writes JSON rows to `<out_dir>/<name>.jsonl`, one object per line.
pub fn write_rows(out_dir: &str, name: &str, rows: &[Json]) -> std::io::Result<()> {
    let dir = Path::new(out_dir);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    // Buffered: a row's `Display` writes token by token.
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for r in rows {
        writeln!(f, "{r}")?;
    }
    f.flush()?;
    log_info!("wrote {}", path.display());
    Ok(())
}

/// Writes the Chrome trace and the per-rank + merged metrics snapshots
/// collected by `recorder`. The trace goes to `trace_path` (whose
/// directory `validate_out_path` made at startup); the metrics report goes
/// next to it as `<trace_path>.metrics.json`.
fn write_trace(recorder: &dynmpi_obs::Recorder, trace_path: &str) {
    recorder
        .write_chrome_trace(trace_path)
        .expect("write trace file");
    let metrics_path = format!("{trace_path}.metrics.json");
    recorder
        .write_metrics(&metrics_path)
        .expect("write metrics file");
    log_info!("wrote {trace_path} and {metrics_path}");
}

/// Writes the JSON [`ProfileReport`] to `profile_path` and prints its
/// text rendering (attribution table, top critical-path segments,
/// redistribution audits) to stdout.
fn write_profile_report(report: &ProfileReport, profile_path: &str) {
    std::fs::write(profile_path, report.to_json().to_string()).expect("write profile file");
    print!("{}", report.render_text());
    log_info!("wrote {profile_path}");
}

/// Renders an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats seconds with 3 decimals.
pub fn fmt_s(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio with 2 decimals.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_without_panic() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn rows_write_to_tmp() {
        let dir = std::env::temp_dir().join("dynmpi_bench_test");
        let rows = [
            Json::obj([("x", Json::UInt(1))]),
            Json::obj([("x", Json::UInt(2))]),
        ];
        write_rows(dir.to_str().unwrap(), "t", &rows).unwrap();
        let content = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
        assert_eq!(content.lines().count(), 2);
        let first = Json::parse(content.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("x").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn log_levels_order() {
        assert!(LogLevel::Error < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Trace);
        assert_eq!(LogLevel::parse("WARN"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("bogus"), None);
        // Must not panic whatever the level.
        log_at(LogLevel::Debug, format_args!("debug line"));
        log_error!("error line {}", 1);
    }
}
