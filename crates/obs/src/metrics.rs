//! Metrics registry: counters and fixed-bucket histograms.
//!
//! Recording is a single atomic RMW on a pre-registered handle; the registry
//! mutex is only touched when a metric is first named or a snapshot is
//! taken. Snapshots are plain data and merge commutatively/associatively, so
//! per-rank registries can be aggregated in any order with identical results.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Monotonic event counter. Overflow wraps modulo 2^64 (the semantics of
/// `fetch_add` on `AtomicU64`), matching `Snapshot::merge`'s wrapping sum.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram over `u64` samples (bytes, nanoseconds, counts).
///
/// Bucket `i` counts samples `<= bounds[i]`; one final implicit bucket
/// counts everything larger. Bounds are fixed at registration so per-rank
/// snapshots of the same metric always merge bucket-by-bucket.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<u64>,
    /// bounds.len() + 1 cells; the last is the overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Record one sample. Bucket choice: first bound `>= value`, else the
    /// overflow bucket.
    pub fn record(&self, value: u64) {
        let i = self.0.bounds.partition_point(|&b| b < value);
        self.0.counts[i].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            bounds: self.0.bounds.clone(),
            counts: self
                .0
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.0.sum.load(Ordering::Relaxed),
            count: self.0.count.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    hists: BTreeMap<String, Histogram>,
}

/// One rank's metrics. Cloning shares the underlying storage.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.locked();
        if let Some(c) = inner.counters.get(name) {
            return c.clone();
        }
        let c = Counter::default();
        inner.counters.insert(name.to_string(), c.clone());
        c
    }

    /// Get or create the histogram named `name` with the given bucket upper
    /// bounds. Panics if the name exists with different bounds.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.locked();
        if let Some(h) = inner.hists.get(name) {
            assert_eq!(
                h.bounds(),
                bounds,
                "histogram `{name}` re-registered with different bounds"
            );
            return h.clone();
        }
        let h = Histogram::new(bounds);
        inner.hists.insert(name.to_string(), h.clone());
        h
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.locked();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Plain-data histogram state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl HistSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Plain-data registry state; the unit of cross-rank aggregation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Fold `other` into `self`. Counters add (wrapping, like recording),
    /// histograms add bucket-wise. Both folds are commutative and
    /// associative, so merge order never matters.
    /// Panics if the same histogram name appears with different bounds.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            let e = self.counters.entry(k.clone()).or_insert(0);
            *e = e.wrapping_add(*v);
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
                Some(mine) => {
                    assert_eq!(
                        mine.bounds, h.bounds,
                        "histogram `{k}` merged with different bounds"
                    );
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a = a.wrapping_add(*b);
                    }
                    mine.sum = mine.sum.wrapping_add(h.sum);
                    mine.count = mine.count.wrapping_add(h.count);
                }
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Render as a JSON object (used by the bench binaries' metrics dumps).
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        );
        let hists = Json::Obj(
            self.hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::obj([
                            (
                                "bounds",
                                Json::Arr(h.bounds.iter().map(|&b| Json::UInt(b)).collect()),
                            ),
                            (
                                "counts",
                                Json::Arr(h.counts.iter().map(|&c| Json::UInt(c)).collect()),
                            ),
                            ("sum", Json::UInt(h.sum)),
                            ("count", Json::UInt(h.count)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([("counters", counters), ("histograms", hists)])
    }
}

/// Sanitize a metric name for Prometheus text exposition: `[a-zA-Z0-9_:]`
/// pass through, everything else (the registry's `.` separators, `-`)
/// becomes `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Unit a metric's samples are expressed in, as far as the exposition
/// layer can tell from its registry name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PromUnit {
    None,
    Bytes,
    /// Registry stores nanoseconds; exposition converts to base seconds.
    Seconds,
}

/// Exposition name for a registry metric, per the Prometheus naming
/// conventions: sanitized, with the unit moved to the canonical suffix
/// position — `sim.bytes_sent` → `sim_sent_bytes`, `lat.ns` →
/// `lat_seconds` (values converted from nanoseconds to base seconds).
/// Returns the renamed base name and the detected unit.
fn exposition_name(name: &str) -> (String, PromUnit) {
    let n = prom_name(name);
    if let Some(stripped) = n.strip_suffix("_ns") {
        return (format!("{stripped}_seconds"), PromUnit::Seconds);
    }
    if n.ends_with("_bytes") {
        return (n, PromUnit::Bytes);
    }
    if let Some(pos) = n.find("_bytes_") {
        // Move the embedded unit token to the suffix position.
        let mut moved = String::with_capacity(n.len());
        moved.push_str(&n[..pos]);
        moved.push_str(&n[pos + "_bytes".len()..]);
        moved.push_str("_bytes");
        return (moved, PromUnit::Bytes);
    }
    (n, PromUnit::None)
}

/// Render a [`Snapshot`] in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` and `# TYPE` lines per metric family,
/// unit-suffixed names (`_seconds`, `_bytes` — a clean rename, no alias
/// series) with counters additionally suffixed `_total`, nanosecond
/// metrics converted to base seconds, and histograms as **cumulative**
/// `_bucket{le="..."}` series plus the `+Inf` bucket, `_sum`, and
/// `_count`. Deterministic: snapshot maps are `BTreeMap`s, so output
/// order is the sorted registry name order.
pub fn prometheus_text(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let (n, unit) = exposition_name(name);
        let _ = writeln!(out, "# HELP {n}_total Dyn-MPI metric `{name}`.");
        let _ = writeln!(out, "# TYPE {n}_total counter");
        if unit == PromUnit::Seconds {
            let _ = writeln!(out, "{n}_total {}", secs(*v));
        } else {
            let _ = writeln!(out, "{n}_total {v}");
        }
    }
    for (name, h) in &snap.hists {
        let (n, unit) = exposition_name(name);
        let _ = writeln!(out, "# HELP {n} Dyn-MPI metric `{name}`.");
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cum = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            cum = cum.wrapping_add(c);
            match h.bounds.get(i) {
                Some(&b) if unit == PromUnit::Seconds => {
                    let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", secs(b));
                }
                Some(&b) => {
                    let _ = writeln!(out, "{n}_bucket{{le=\"{b}\"}} {cum}");
                }
                None => {
                    let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cum}");
                }
            }
        }
        if unit == PromUnit::Seconds {
            let _ = writeln!(out, "{n}_sum {}", secs(h.sum));
        } else {
            let _ = writeln!(out, "{n}_sum {}", h.sum);
        }
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    out
}

/// Power-of-two byte-size bucket bounds `1 KiB .. 16 MiB` — shared by the
/// transport message-size histograms so every rank's snapshot merges.
pub const BYTE_BUCKETS: [u64; 15] = [
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_wraps() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        // Overflow wraps modulo 2^64.
        let c2 = r.counter("wrap");
        c2.add(u64::MAX);
        c2.add(5);
        assert_eq!(c2.get(), 4);
        assert_eq!(r.snapshot().counter("wrap"), 4);
    }

    #[test]
    fn same_name_shares_storage() {
        let r = Registry::new();
        r.counter("shared").add(2);
        r.counter("shared").add(3);
        assert_eq!(r.snapshot().counter("shared"), 5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let r = Registry::new();
        let h = r.histogram("h", &[10, 100]);
        h.record(0); // -> bucket 0 (<=10)
        h.record(10); // boundary value lands in its own bucket
        h.record(11); // -> bucket 1 (<=100)
        h.record(100);
        h.record(101); // -> overflow bucket
        h.record(u64::MAX);
        let s = r.snapshot().hists["h"].clone();
        assert_eq!(s.counts, vec![2, 2, 2]);
        assert_eq!(s.count, 6);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(10 + 11 + 100 + 101)
                .wrapping_add(u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Registry::new().histogram("bad", &[5, 5]);
    }

    #[test]
    fn merge_is_order_independent_basic() {
        let mk = |c: u64| {
            let r = Registry::new();
            r.counter("c").add(c);
            r.histogram("h", &[8, 64]).record(c);
            r.snapshot()
        };
        let parts = [mk(1), mk(7), mk(100)];
        let mut fwd = Snapshot::default();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Snapshot::default();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.counter("c"), 108);
        assert_eq!(fwd.hists["h"].count, 3);
    }

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let r = Registry::new();
        r.counter("sim.msgs_sent").add(42);
        r.counter("sim.bytes_sent").add(1024);
        let h = r.histogram("lat.ns", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(5000);
        let text = prometheus_text(&r.snapshot());
        // Counters carry HELP/TYPE and a `_total` suffix.
        assert!(text.contains("# HELP sim_msgs_sent_total Dyn-MPI metric `sim.msgs_sent`.\n"));
        assert!(text.contains("# TYPE sim_msgs_sent_total counter\nsim_msgs_sent_total 42\n"));
        // Embedded unit tokens move to the canonical suffix position.
        assert!(text.contains("# TYPE sim_sent_bytes_total counter\nsim_sent_bytes_total 1024\n"));
        // A clean rename, no alias.
        assert!(!text.contains("sim_bytes_sent"));
        // Nanosecond histograms expose as `_seconds`, bounds and sum
        // converted; buckets are cumulative, ending in +Inf == count.
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.00000001\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.0000001\"} 2\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_seconds_sum 0.000005055\n"));
        assert!(text.contains("lat_seconds_count 3\n"));
        assert!(!text.contains("lat_ns"));
    }

    #[test]
    fn exposition_names_move_units_to_suffix() {
        assert_eq!(
            exposition_name("sim.bytes_sent"),
            ("sim_sent_bytes".to_string(), PromUnit::Bytes)
        );
        assert_eq!(
            exposition_name("comm.msg_bytes_recvd"),
            ("comm_msg_recvd_bytes".to_string(), PromUnit::Bytes)
        );
        assert_eq!(
            exposition_name("redist.bytes_sent"),
            ("redist_sent_bytes".to_string(), PromUnit::Bytes)
        );
        assert_eq!(
            exposition_name("lat.ns"),
            ("lat_seconds".to_string(), PromUnit::Seconds)
        );
        assert_eq!(
            exposition_name("sim.sched.quanta"),
            ("sim_sched_quanta".to_string(), PromUnit::None)
        );
    }

    #[test]
    fn snapshot_json_round_trips_exact_counters() {
        let r = Registry::new();
        r.counter("bytes").add(u64::MAX - 1);
        let j = r.snapshot().to_json();
        let back = crate::json::Json::parse(&j.to_string()).unwrap();
        assert_eq!(
            back.get("counters").unwrap().get("bytes").unwrap().as_u64(),
            Some(u64::MAX - 1)
        );
    }
}
