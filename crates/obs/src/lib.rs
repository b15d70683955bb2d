//! # dynmpi-obs — virtual-time observability for the Dyn-MPI reproduction
//!
//! Three pieces, usable independently:
//!
//! * **Tracing** ([`trace`]): spans and instants stamped with *virtual*
//!   nanoseconds (the simulator's clock, not wallclock). A thread-local
//!   scope installed per rank thread buffers events without cross-thread
//!   contention; everything is a no-op when no scope is installed.
//! * **Metrics** ([`metrics`]): counters, gauges, and fixed-bucket
//!   histograms with atomic recording and plain-data snapshots whose merge
//!   is commutative and associative.
//! * **Exporters** ([`export`]): Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>) and a JSONL stream,
//!   plus a parser for round-trip verification. The tiny [`json`] module
//!   backs both and is reused by the bench binaries for row output.
//!
//! The [`Recorder`] ties it together: one per traced run, cloned into each
//! rank thread, collecting per-rank events and metric snapshots for export.
//!
//! Three readers turn the stream into reports: the profiler ([`analysis`],
//! after the run), the streaming [`HealthMonitor`] ([`health`]) and the
//! decision audit ([`explain`]), which the monitor's report feeds. The
//! runtime's replicated decisions are folded once, into one decision log
//! per stream: the monitor keeps one and explain reads it, and the
//! profiler folds its own over the recorded slice.
//!
//! This crate deliberately has **no dependencies** (it sits below the
//! simulator in the crate graph) and never reads the wallclock: callers pass
//! explicit timestamps, which is what keeps traces deterministic.

pub mod analysis;
mod decision_log;
pub mod explain;
pub mod export;
pub mod health;
pub mod json;
pub mod metrics;
pub mod trace;

use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

pub use trace::TraceEvent;

pub use analysis::{
    analyze, BlameEntry, Buckets, CritSegment, CycleAudit, ProfileReport, RankAttribution, SegKind,
};
pub use explain::{ChainLink, DecisionCard, ExplainEngine, ExplainReport, FlightRecord, Outcome};
pub use export::{parse_chrome_trace, parse_jsonl, ParsedEvent};
pub use health::{
    default_rules, Alert, AlertRule, HealthMonitor, HealthReport, HealthState, NodeHealth,
    RuleMetric, RuleOp, DEFAULT_WINDOW_NS,
};
pub use json::Json;
pub use metrics::{
    prometheus_text, Counter, Gauge, HistSnapshot, Histogram, Registry, Snapshot, BYTE_BUCKETS,
};
pub use trace::{
    count, counter_handle, enabled, gauge_handle, gauge_set, histogram_handle, instant, observe,
    span_begin, span_end, span_end_args, EventSink, ScopeGuard,
};

#[derive(Default)]
struct RecorderInner {
    /// Every event merged so far, in the canonical order (see
    /// [`Recorder::events`]); every read shares it.
    events: Arc<Vec<TraceEvent>>,
    /// Flushed rank buffers not yet merged into `events`, in flush order.
    /// The merge happens on the reading thread, so the one large vector
    /// is allocated there and not in whichever rank thread flushed.
    flushed: Vec<Vec<TraceEvent>>,
    /// One metrics snapshot per rank (last flush wins per rank).
    snapshots: Vec<(usize, Snapshot)>,
    /// Streaming subscribers; cloned into each rank scope at install.
    sinks: Vec<Arc<dyn EventSink>>,
}

/// Collects trace events and metric snapshots from every rank of one run.
///
/// Cheap to clone (shared interior). Typical use:
///
/// ```
/// use dynmpi_obs::Recorder;
///
/// let rec = Recorder::new();
/// let handles: Vec<_> = (0..2)
///     .map(|rank| {
///         let rec = rec.clone();
///         std::thread::spawn(move || {
///             let _guard = rec.install(rank);
///             dynmpi_obs::span_begin("sched", "run", 0);
///             dynmpi_obs::count("quanta", 1);
///             dynmpi_obs::span_end(10_000);
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(rec.events().len(), 2);
/// assert_eq!(rec.merged_metrics().counter("quanta"), 2);
/// ```
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::default()
    }

    fn locked(&self) -> MutexGuard<'_, RecorderInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Install a tracing scope for `rank` on the calling thread. The
    /// returned guard flushes buffered events and this rank's metrics
    /// snapshot back into the recorder when dropped (even on panic).
    ///
    /// Panics if the thread already has a scope installed.
    pub fn install(&self, rank: usize) -> ScopeGuard {
        trace::install_scope(self.clone(), rank)
    }

    /// Register a streaming [`EventSink`]: it is called at emission time,
    /// on the emitting rank's thread, for every span close and instant.
    /// Subscribe **before** installing rank scopes — scopes capture the
    /// sink list when installed, so later subscriptions only affect ranks
    /// installed afterwards.
    pub fn subscribe(&self, sink: Arc<dyn EventSink>) {
        self.locked().sinks.push(sink);
    }

    /// Snapshot of the current sink list (captured per rank at install).
    pub(crate) fn sinks(&self) -> Arc<[Arc<dyn EventSink>]> {
        self.locked().sinks.clone().into()
    }

    pub(crate) fn absorb(&self, rank: usize, events: Vec<Vec<TraceEvent>>, snapshot: Snapshot) {
        let mut inner = self.locked();
        inner.flushed.extend(events);
        inner.snapshots.retain(|(r, _)| *r != rank);
        inner.snapshots.push((rank, snapshot));
    }

    /// All flushed events, in the canonical trace order.
    ///
    /// **Ordering contract:** events are sorted by
    /// `(ts_ns, rank, emission seq)` — virtual timestamp first, rank as the
    /// cross-rank tie-break, and each rank's own emission order as the final
    /// stable tie-break (a span is "emitted" when it *closes*, so at equal
    /// timestamps an instant fired before a zero-length span's close
    /// precedes it). It is a *stable* sort by `(ts_ns, rank)` over append
    /// order: events with equal keys belong to one rank, and a rank's
    /// events are appended in the order it emitted them (a re-installed
    /// rank's later buffer lands behind its earlier one), so stability is
    /// the emission-seq tie-break. The order is total and deterministic:
    /// two runs of the same program produce the same sequence regardless of
    /// thread flush interleaving. Exporters ([`chrome_trace`](export::chrome_trace),
    /// [`jsonl`](export::jsonl)) and the [`analysis`] module consume this
    /// order as-is and never re-sort.
    ///
    /// The first read after a flush merges the flushed buffers and sorts
    /// once; every later read shares the result.
    pub fn events(&self) -> Arc<Vec<TraceEvent>> {
        let mut inner = self.locked();
        if !inner.flushed.is_empty() {
            let flushed = std::mem::take(&mut inner.flushed);
            // Copies the vector only if a reader still holds an earlier read.
            let events = Arc::make_mut(&mut inner.events);
            events.reserve_exact(flushed.iter().map(Vec::len).sum());
            flushed.into_iter().for_each(|block| events.extend(block));
            events.sort_by_key(|e| (e.ts_ns(), e.rank()));
        }
        Arc::clone(&inner.events)
    }

    /// Per-rank metric snapshots, sorted by rank.
    pub fn snapshots(&self) -> Vec<(usize, Snapshot)> {
        let mut snaps = self.locked().snapshots.clone();
        snaps.sort_by_key(|(r, _)| *r);
        snaps
    }

    /// All ranks' metrics merged into one aggregate.
    pub fn merged_metrics(&self) -> Snapshot {
        let mut total = Snapshot::default();
        for (_, s) in self.snapshots() {
            total.merge(&s);
        }
        total
    }

    /// Chrome `trace_event` JSON document of everything recorded so far.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.events())
    }

    /// JSONL stream of everything recorded so far.
    pub fn jsonl(&self) -> String {
        export::jsonl(&self.events())
    }

    /// Run the [`analysis`] pass over everything recorded so far.
    pub fn profile(&self) -> analysis::ProfileReport {
        analysis::analyze(&self.events())
    }

    /// Stream the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_file(path.as_ref(), |out| {
            export::write_chrome_trace(out, &self.events())
        })
    }

    /// Stream the JSONL events to `path`.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_file(path.as_ref(), |out| {
            export::write_jsonl(out, &self.events())
        })
    }

    /// Write the merged metrics report (JSON) to `path`, including the
    /// per-rank snapshots under `"ranks"`.
    pub fn write_metrics(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let ranks = Json::Obj(
            self.snapshots()
                .into_iter()
                .map(|(r, s)| (r.to_string(), s.to_json()))
                .collect(),
        );
        let doc = Json::obj([
            ("merged", self.merged_metrics().to_json()),
            ("ranks", ranks),
        ]);
        std::fs::write(path, doc.to_string())
    }
}

/// `fmt::Write` over a buffered file, keeping the I/O error that
/// `fmt::Error` cannot carry.
struct FileFmt {
    file: io::BufWriter<std::fs::File>,
    error: Option<io::Error>,
}

impl fmt::Write for FileFmt {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.file.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// Creates `path` and lets `write` stream into it through a buffer.
fn write_file(path: &Path, write: impl FnOnce(&mut FileFmt) -> fmt::Result) -> io::Result<()> {
    let mut out = FileFmt {
        file: io::BufWriter::new(std::fs::File::create(path)?),
        error: None,
    };
    match write(&mut out) {
        Ok(()) => out.file.flush(),
        Err(fmt::Error) => Err(out
            .error
            .unwrap_or_else(|| io::Error::other("formatter error"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_collects_across_threads() {
        let rec = Recorder::new();
        let handles: Vec<_> = (0..4)
            .map(|rank| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    let _guard = rec.install(rank);
                    span_begin("sched", "run", rank as u64 * 100);
                    count("sim.msgs_sent", rank as u64);
                    span_end(rank as u64 * 100 + 50);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        // Sorted by virtual time.
        assert!(events.windows(2).all(|w| w[0].ts_ns() <= w[1].ts_ns()));
        assert_eq!(rec.merged_metrics().counter("sim.msgs_sent"), 6); // 0+1+2+3
        assert_eq!(rec.snapshots().len(), 4);
    }

    #[test]
    fn events_order_is_ts_rank_then_emission_seq() {
        let rec = Recorder::new();
        {
            let _g = rec.install(1);
            // Two events at the same timestamp: emission order must hold.
            instant("comm", "first", 100, vec![]);
            instant("comm", "second", 100, vec![]);
        }
        {
            let _g = rec.install(0);
            instant("comm", "third", 100, vec![]);
        }
        let names: Vec<&str> = rec.events().iter().map(|e| e.name()).collect();
        // Rank 0 sorts before rank 1 at equal ts, even though it flushed
        // later; within rank 1 the emission order is preserved.
        assert_eq!(names, vec!["third", "first", "second"]);
    }

    #[test]
    fn reinstall_same_rank_replaces_snapshot() {
        let rec = Recorder::new();
        {
            let _g = rec.install(0);
            count("c", 1);
        }
        {
            let _g = rec.install(0);
            count("c", 5);
        }
        // Events accumulate, snapshots replace per rank.
        assert_eq!(rec.merged_metrics().counter("c"), 5);
        assert_eq!(rec.snapshots().len(), 1);
    }
}
