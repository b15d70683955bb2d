//! # dynmpi-obs — virtual-time observability for the Dyn-MPI reproduction
//!
//! Three pieces, usable independently:
//!
//! * **Tracing** ([`trace`]): spans and instants stamped with *virtual*
//!   nanoseconds (the simulator's clock, not wallclock). A thread-local
//!   scope installed per rank buffers events without cross-thread
//!   contention; everything is a no-op when no scope is installed.
//! * **Metrics** ([`metrics`]): counters and fixed-bucket
//!   histograms with atomic recording and plain-data snapshots whose merge
//!   is commutative and associative.
//! * **Exporters** ([`export`]): Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>) and a JSONL stream,
//!   plus a JSONL parser for offline analysis. The tiny [`json`] module
//!   backs both and is reused by the bench binaries for row output.
//!
//! The [`Recorder`] ties it together: one per traced run, cloned into each
//! rank's scope, collecting per-rank events and metric snapshots for export.
//!
//! Three readers turn the stream into reports: the profiler ([`analysis`],
//! after the run), the [`HealthMonitor`] ([`health`]), which folds each
//! flushed run into virtual-time windows, and the decision audit
//! ([`explain`]), which the monitor's report feeds. The
//! runtime's replicated decisions are folded once, into one decision log
//! per stream: the monitor keeps one and explain reads it, and the
//! profiler folds its own over the recording.
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
mod run;
pub mod trace;

use std::fmt;
use std::io::{self, Write as _};
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

pub use trace::TraceEvent;

pub use analysis::{
    analyze, BlameEntry, Buckets, CritSegment, CycleAudit, ProfileReport, RankAttribution, SegKind,
};
pub use explain::{ChainLink, DecisionCard, ExplainEngine, ExplainReport, FlightRecord, Outcome};
pub use export::parse_jsonl;
pub use health::{
    default_rules, Alert, AlertRule, HealthMonitor, HealthReport, HealthState, NodeHealth,
    RuleMetric, RuleOp, DEFAULT_WINDOW_NS,
};
pub use json::Json;
pub use metrics::{
    prometheus_text, Counter, HistSnapshot, Histogram, Registry, Snapshot, BYTE_BUCKETS,
};
pub use trace::{
    begin_cycle, comm_recv, comm_send, count, counter_handle, detach_scope, enabled, instant,
    observe, sched_span, span_begin, span_end, span_end_args, span_end_blocked,
    span_end_charge_rows, span_end_collective, span_end_cycle, Args, DetachedScope, EventSink, Msg,
    SchedState, ScopeGuard, CHUNK_BYTES,
};

use run::{Run, Walk};
use trace::View;

#[derive(Default)]
struct RecorderInner {
    /// Every run flushed so far; every read shares it.
    recording: Arc<Recording>,
    /// One metrics snapshot per rank (last flush wins per rank).
    snapshots: Vec<(usize, Snapshot)>,
    /// Subscribers; each flushed run is folded into those present then.
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
    /// Panics if the thread already has a scope installed, or if `rank`
    /// is not below [`MAX_RANKS`](trace::MAX_RANKS).
    pub fn install(&self, rank: usize) -> ScopeGuard {
        trace::install_scope(self.clone(), rank)
    }

    /// Register an [`EventSink`]: every run that flushes from now on, of
    /// any rank, is folded into it, one event at a time in the run's
    /// order.
    pub fn subscribe(&self, sink: Arc<dyn EventSink>) {
        self.locked().sinks.push(sink);
    }

    /// Stores `rank`'s flushed run and metrics, then folds the run into
    /// the sinks subscribed now, outside the lock.
    pub(crate) fn absorb(&self, rank: usize, run: Option<Run>, snapshot: Snapshot) {
        let run = run.map(Arc::new);
        let sinks = {
            let mut inner = self.locked();
            if let Some(run) = &run {
                let runs = [&inner.recording.runs[..], &[Arc::clone(run)]].concat();
                inner.recording = Arc::new(Recording {
                    runs,
                    ..Recording::default()
                });
            }
            inner.snapshots.retain(|(r, _)| *r != rank);
            inner.snapshots.push((rank, snapshot));
            inner.sinks.clone()
        };
        let Some(run) = run.filter(|_| !sinks.is_empty()) else {
            return;
        };
        for ev in Walk::new(std::slice::from_ref(&run)) {
            let ev = ev.event();
            for sink in &sinks {
                sink.on_event(&ev);
            }
        }
    }

    /// All flushed events, in the canonical trace order: a view of what
    /// was flushed by the time of the call, which later flushes leave as
    /// it is.
    ///
    /// **Ordering contract:** events are sorted by
    /// `(ts_ns, rank, emission seq)` — virtual timestamp first, rank as the
    /// cross-rank tie-break, and each rank's own emission order as the final
    /// stable tie-break (a span is "emitted" when it *closes*, so at equal
    /// timestamps an instant fired before a zero-length span's close
    /// precedes it). It is a *stable* sort by `(ts_ns, rank)` over append
    /// order: events with equal keys belong to one rank, and a rank's
    /// events are appended in the order it emitted them (a re-installed
    /// rank's later run lands behind its earlier one), so stability is
    /// the emission-seq tie-break. The order is total and deterministic:
    /// two runs of the same program produce the same sequence regardless of
    /// thread flush interleaving. Exporters ([`chrome_trace`](export::chrome_trace),
    /// [`jsonl`](export::jsonl)) and the [`analysis`] module consume this
    /// order as-is and never re-sort.
    pub fn events(&self) -> Events {
        Events(Arc::clone(&self.locked().recording))
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
        export::CHROME.to_string(self.events().0.walk())
    }

    /// JSONL stream of everything recorded so far.
    pub fn jsonl(&self) -> String {
        export::JSONL.to_string(self.events().0.walk())
    }

    /// Run the [`analysis`] pass over everything recorded so far.
    pub fn profile(&self) -> analysis::ProfileReport {
        analysis::analyze_iter(self.events().0.walk().map(View::event))
    }

    /// Stream the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_file(path.as_ref(), export::CHROME, self.events().0.walk())
    }

    /// Stream the JSONL events to `path`.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_file(path.as_ref(), export::JSONL, self.events().0.walk())
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

/// The recorder's flushed runs: they are its only storage.
#[derive(Default)]
struct Recording {
    /// Each flushed rank scope's events, sorted, in flush order.
    runs: Vec<Arc<Run>>,
    /// The canonical slice, built the first time a view of this recording
    /// is dereferenced.
    merged: OnceLock<Vec<TraceEvent>>,
}

impl Recording {
    fn len(&self) -> usize {
        self.runs.iter().map(|run| run.len()).sum()
    }

    /// Every event in the canonical order: typed ones decoded into their
    /// parts, generic ones borrowed.
    fn walk(&self) -> Walk<'_> {
        Walk::new(&self.runs)
    }
}

/// The events a [`Recorder`] had when [`Recorder::events`] was called, in
/// the canonical order. The view holds the recorder's own encoded runs:
/// its [`len`](Events::len) is a count, and the canonical slice it
/// dereferences to is decoded the first time any view of the same flushes
/// is dereferenced, then shared.
#[derive(Clone)]
pub struct Events(Arc<Recording>);

impl Events {
    /// The number of events, without building the slice.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.runs.is_empty()
    }
}

impl Deref for Events {
    type Target = [TraceEvent];

    fn deref(&self) -> &[TraceEvent] {
        self.0
            .merged
            .get_or_init(|| self.0.walk().map(|ev| ev.event().into_owned()).collect())
    }
}

impl fmt::Debug for Events {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.0.walk().map(View::event))
            .finish()
    }
}

impl PartialEq for Events {
    fn eq(&self, other: &Events) -> bool {
        self.len() == other.len()
            && (self.0.walk().map(View::event)).eq(other.0.walk().map(View::event))
    }
}

/// Creates `path` and streams `doc` over `events` into it.
fn write_file<'a>(
    path: &Path,
    doc: export::Doc,
    events: impl ExactSizeIterator<Item = View<'a>>,
) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    doc.write(|text| file.write_all(text.as_bytes()), events)
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
