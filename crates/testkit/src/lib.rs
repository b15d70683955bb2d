//! Dependency-free test support for the Dyn-MPI workspace.
//!
//! Provides what the external crates `proptest`, `rand`, and
//! `criterion` used to supply, scoped down to exactly what this repo needs:
//!
//! * [`Rng`] — a seeded SplitMix64 generator with ranged helpers, so tests
//!   and data generators stay deterministic per seed.
//! * [`check`] / [`check_n`] — a property-check harness: run a closure over
//!   `n` generated cases and panic with the failing seed on the first
//!   counterexample, so failures are reproducible with `Rng::new(seed)`.
//! * [`bench`] — a tiny wall-clock micro-benchmark loop used by the
//!   `crates/bench/benches/*` binaries (which run with `harness = false`).
//! * [`sweep`] — a scoped worker pool that runs independent, deterministic
//!   simulation configurations concurrently and returns results in input
//!   order, so figure harnesses parallelize without reordering output.
//! * [`with_watchdog`] — runs a closure under a wall-clock limit, so a test
//!   of a wake-up path fails instead of hanging `cargo test`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Seeded RNG
// ---------------------------------------------------------------------------

/// SplitMix64 pseudo-random generator. Deterministic per seed, statistically
/// adequate for test-case generation (not cryptographic).
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit value (SplitMix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform `i64` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add(self.range_u64(0, (hi - lo) as u64) as i64)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        // 53 mantissa bits of the raw stream.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.f64_unit() * (hi - lo)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// A vector of `len` values from `gen`.
    pub fn vec<T>(&mut self, len: usize, mut gen: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..len).map(|_| gen(self)).collect()
    }

    /// A vector whose length is drawn from `[min_len, max_len)`.
    pub fn vec_in<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        gen: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let len = self.range_usize(min_len, max_len);
        self.vec(len, gen)
    }
}

// ---------------------------------------------------------------------------
// Property-check harness
// ---------------------------------------------------------------------------

/// Default number of cases per property, matching what the proptest-based
/// suites used before.
pub const DEFAULT_CASES: u32 = 64;

/// Run `prop` over [`DEFAULT_CASES`] seeded cases. Each case receives its own
/// [`Rng`]; if the property panics, the harness re-panics naming the case
/// seed so the failure can be replayed with `Rng::new(seed)`.
pub fn check(name: &str, prop: impl Fn(&mut Rng)) {
    check_n(name, DEFAULT_CASES, prop);
}

/// Like [`check`] but with an explicit case count.
pub fn check_n(name: &str, cases: u32, prop: impl Fn(&mut Rng)) {
    for case in 0..cases {
        // Stable per-(property, case) seed: hash the name into the stream so
        // distinct properties explore distinct inputs.
        let mut seed = 0xD6E8_FEB8_6659_FD93u64 ^ u64::from(case);
        for b in name.bytes() {
            seed = seed
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(u64::from(b));
        }
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut rng)));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property `{name}` failed on case {case} (seed {seed:#x}): {msg}");
        }
    }
}

// ---------------------------------------------------------------------------
// Micro-bench harness
// ---------------------------------------------------------------------------

/// One timed result from [`bench`].
#[derive(Clone, Debug)]
pub struct BenchResult {
    pub name: String,
    pub iters: u64,
    pub mean_ns: f64,
    pub min_ns: f64,
}

impl BenchResult {
    fn fmt_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} µs", ns / 1e3)
        } else {
            format!("{ns:.0} ns")
        }
    }

    /// Print a one-line summary in `name  mean (min)` form.
    pub fn report(&self) {
        println!(
            "{:<48} {:>12} /iter (min {:>12}, {} iters)",
            self.name,
            Self::fmt_ns(self.mean_ns),
            Self::fmt_ns(self.min_ns),
            self.iters
        );
    }
}

/// Time `f` with a warm-up pass and several measurement batches, returning
/// mean and best per-iteration wall time. Replacement for the criterion
/// harness: coarse, but stable enough to rank implementations.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    // Warm-up and batch sizing: aim for batches of at least ~2 ms.
    let mut iters_per_batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters_per_batch {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 2 || iters_per_batch >= 1 << 20 {
            break;
        }
        iters_per_batch *= 4;
    }

    const BATCHES: usize = 8;
    let mut total_ns = 0.0f64;
    let mut min_ns = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters_per_batch {
            std::hint::black_box(f());
        }
        let per_iter = start.elapsed().as_secs_f64() * 1e9 / iters_per_batch as f64;
        total_ns += per_iter;
        min_ns = min_ns.min(per_iter);
    }
    let res = BenchResult {
        name: name.to_string(),
        iters: iters_per_batch * BATCHES as u64,
        mean_ns: total_ns / BATCHES as f64,
        min_ns,
    };
    res.report();
    res
}

// ---------------------------------------------------------------------------
// Parallel sweep runner
// ---------------------------------------------------------------------------

/// The machine's available parallelism (1 if it cannot be determined) —
/// the default for `--threads` in the figure harnesses.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f(index, item)` for every item on a pool of `threads` scoped
/// workers and returns the results **in input order**.
///
/// Each invocation must be independent and deterministic (the contract the
/// simulator's `run_spmd` already gives): then the output is byte-for-byte
/// identical at any thread count, which the fig-harness determinism test
/// pins down. `threads <= 1` runs inline with no pool at all. A panicking
/// item propagates out of the sweep.
pub fn sweep<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let order: Vec<usize> = (0..items.len()).collect();
    sweep_in_order(items, &order, threads, f)
}

/// The claim order that longest-processing-time (LPT) list scheduling
/// uses: heaviest item first, ties broken by input index. Deterministic.
pub fn lpt_order(weights: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    // NaN weights count as lightest so the order stays total.
    let w = |i: usize| {
        if weights[i].is_nan() {
            f64::NEG_INFINITY
        } else {
            weights[i]
        }
    };
    order.sort_by(|&a, &b| w(b).total_cmp(&w(a)).then(a.cmp(&b)));
    order
}

/// [`sweep`] with a per-item cost estimate: workers claim items heaviest
/// first (LPT order), so one huge arm placed late in the input no longer
/// tail-blocks the pool while its siblings sit finished. Weights only
/// steer the claim order — results still come back in **input order** and
/// are bit-identical to `sweep`'s at any thread count. Weights need only
/// be roughly proportional to runtime (e.g. `ranks × iterations`).
pub fn sweep_weighted<T, R, F>(items: &[T], weights: &[f64], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert_eq!(items.len(), weights.len(), "one weight per item");
    sweep_in_order(items, &lpt_order(weights), threads, f)
}

fn sweep_in_order<T, R, F>(items: &[T], order: &[usize], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(items.len()))
            .map(|_| {
                s.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = order.get(k) else { return };
                    let r = f(i, &items[i]);
                    // A sibling worker may have panicked while we computed:
                    // tolerate the poisoned lock so our result still lands
                    // and the scope can unwind with the original payload.
                    slots.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(r);
                })
            })
            .collect();
        for w in workers {
            if let Err(e) = w.join() {
                std::panic::resume_unwind(e);
            }
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|r| r.expect("every sweep slot filled"))
        .collect()
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Runs `f` on a thread of its own and returns its result, or fails the
/// calling test with a message if `f` is still running after `secs`
/// seconds — a lost wake-up then shows as a failed test, not as a hung
/// `cargo test`. A panic in `f` is re-raised on the caller with its
/// original payload, so `#[should_panic(expected = ..)]` and
/// `catch_unwind` see through the watchdog. After a time-out the stuck
/// thread is left behind; the test process ends it on exit.
pub fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(Ok(v)) => v,
        Ok(Err(payload)) => std::panic::resume_unwind(payload),
        Err(_) => panic!("watchdog: still running after {secs} s (hung, or a lost wake-up)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_returns_the_value_and_reraises_the_payload() {
        assert_eq!(with_watchdog(5, || 6 * 7), 42);
        let err = std::panic::catch_unwind(|| with_watchdog(5, || std::panic::panic_any(7u32)))
            .expect_err("the inner panic must cross the watchdog");
        assert_eq!(err.downcast_ref::<u32>(), Some(&7));
    }

    #[test]
    #[should_panic(expected = "watchdog: still running after 1 s")]
    fn watchdog_fails_a_hung_closure() {
        with_watchdog(1, || std::thread::park_timeout(Duration::from_secs(30)));
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let u = r.range_usize(3, 17);
            assert!((3..17).contains(&u));
            let f = r.range_f64(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&f));
            let i = r.range_i64(-50, -3);
            assert!((-50..-3).contains(&i));
        }
    }

    #[test]
    fn check_reports_failing_seed() {
        let err = std::panic::catch_unwind(|| {
            check_n("always-fails", 4, |_| panic!("boom"));
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always-fails"));
        assert!(msg.contains("seed"));
        assert!(msg.contains("boom"));
    }

    #[test]
    fn f64_unit_in_range() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let x = r.f64_unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn sweep_returns_results_in_input_order() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8, 64] {
            let got = sweep(&items, threads, |i, &x| {
                assert_eq!(items[i], x);
                x * x
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn sweep_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(sweep(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(sweep(&[5u32], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn sweep_runs_every_index_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        sweep(&items, 7, |i, _| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sweep_propagates_worker_panics() {
        let items: Vec<u32> = (0..16).collect();
        let err = std::panic::catch_unwind(|| {
            sweep(&items, 4, |_, &x| {
                if x == 9 {
                    panic!("item nine exploded");
                }
                x
            });
        })
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("item nine"), "{msg}");
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn sweep_weighted_matches_sweep_results() {
        let items: Vec<u64> = (0..23).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        let weights: Vec<f64> = items.iter().map(|&x| (x % 7) as f64).collect();
        for threads in [1, 3, 16] {
            let got = sweep_weighted(&items, &weights, threads, |i, &x| {
                assert_eq!(items[i], x);
                x * 3
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    /// Greedy list-scheduling makespan on `threads` identical workers when
    /// items are claimed in `order` and item `i` takes `weights[i]` —
    /// exactly the pool's behavior if runtime tracks the weights.
    fn simulated_makespan(weights: &[f64], order: &[usize], threads: usize) -> f64 {
        let mut free = vec![0.0f64; threads];
        for &i in order {
            let w = free
                .iter_mut()
                .min_by(|a, b| a.partial_cmp(b).unwrap())
                .unwrap();
            *w += weights[i];
        }
        free.iter().fold(0.0f64, |a, &b| a.max(b))
    }

    #[test]
    fn lpt_order_avoids_tail_blocking_on_skewed_sweeps() {
        // The fig4 shape that motivated the fix: four light arms and one
        // huge arm listed last. Input-order claiming parks the huge arm
        // behind the light ones and tail-blocks the pool.
        let weights = [10.0, 10.0, 10.0, 10.0, 40.0];
        let threads = 2;
        let total: f64 = weights.iter().sum();
        let balanced = (total / threads as f64).max(40.0); // lower bound
        let input_order: Vec<usize> = (0..weights.len()).collect();
        let naive = simulated_makespan(&weights, &input_order, threads);
        let lpt = simulated_makespan(&weights, &lpt_order(&weights), threads);
        assert!(naive > 1.2 * balanced, "skew not skewed enough: {naive}");
        assert!(
            lpt <= 1.2 * balanced,
            "LPT makespan {lpt} exceeds 1.2 × balanced bound {balanced}"
        );
    }

    #[test]
    fn lpt_order_is_heaviest_first_with_index_ties() {
        assert_eq!(lpt_order(&[1.0, 5.0, 5.0, 0.5]), vec![1, 2, 0, 3]);
        assert_eq!(lpt_order(&[]), Vec::<usize>::new());
        assert_eq!(lpt_order(&[2.0, f64::NAN, 3.0]), vec![2, 0, 1]);
    }
}
