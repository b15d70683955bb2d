//! Profiler equivalence across advance modes: wait-state attribution must
//! be bit-identical between the fast path and `DYNMPI_SIM_STEPPED=1`.
//!
//! The fast path merges many scheduler slices into one `sched` span, so
//! the two modes record *different span streams* for the same run. The
//! spans carry exact `cpu`/`slices` attributes, and the analyzer
//! attributes from attribute sums rather than span counts — which is
//! precisely what makes the aggregation policy safe. These tests pin that
//! contract: same program, both modes, `analyze()` must produce equal
//! `ProfileReport`s (buckets, critical path, makespans) even though the
//! stepped run emits strictly more sched spans.

use dynmpi_obs::{analyze, ProfileReport, Recorder, TraceEvent};
use dynmpi_sim::{Cluster, LoadScript, NodeSpec, SimCtx};
use dynmpi_testkit::{check_n, Rng};

fn sched_span_count(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Sched { .. } | TraceEvent::Blocked { .. }))
        .count()
}

/// Runs `f` under one advance mode with a recorder attached and returns
/// the analyzed profile plus the raw sched span count.
fn profiled<R, F>(mk: &impl Fn() -> Cluster, stepped: bool, f: F) -> (ProfileReport, usize)
where
    R: Send + Default,
    F: Fn(&SimCtx) -> R + Send + Sync + Copy,
{
    let rec = Recorder::new();
    mk().with_stepped(stepped)
        .with_recorder(rec.clone())
        .run_spmd(f);
    let events = rec.events();
    (analyze(&events), sched_span_count(&events))
}

#[test]
fn ring_attribution_is_bit_identical_across_modes() {
    // Loaded ring exchange: compute long enough to span many scheduler
    // slices, plus blocked receives so every bucket except redist/runtime
    // is exercised.
    let mk = || {
        let script = LoadScript::dedicated()
            .at_time(0, dynmpi_sim::SimTime::from_millis(20), 2)
            .at_time(2, dynmpi_sim::SimTime::from_millis(55), 3)
            .at_time(3, dynmpi_sim::SimTime::from_millis(10), 1);
        Cluster::homogeneous(4, NodeSpec::with_speed(1e6)).with_script(script)
    };
    let f = |ctx: &SimCtx| {
        let r = ctx.rank();
        let n = ctx.nprocs();
        for i in 0..10 {
            ctx.advance(4e4 + (r as f64) * 2e3);
            ctx.send((r + 1) % n, 1, vec![(r * 16 + i) as u8; 512]);
            let _ = ctx.recv((r + n - 1) % n, 1);
        }
        ctx.now()
    };
    let (stepped, stepped_spans) = profiled(&mk, true, f);
    let (fast, fast_spans) = profiled(&mk, false, f);

    assert_eq!(stepped, fast, "profile reports diverged across modes");

    // The aggregation actually happened: stepped subdivides what fast
    // records as one span per advance, yet attribution above is equal.
    assert!(
        fast_spans < stepped_spans,
        "expected fast mode to merge sched spans ({fast_spans} vs {stepped_spans})"
    );

    // And the shared report is non-trivial: full coverage, real waits,
    // interference from the competing processes.
    assert!(fast.makespan_ns > 0);
    assert!(fast.min_coverage_pct() >= 95.0);
    for rank in &fast.ranks {
        assert_eq!(rank.buckets.total(), rank.makespan_ns);
    }
    assert!(fast.ranks.iter().any(|r| r.buckets.late_wait_ns > 0));
    assert!(fast.ranks.iter().any(|r| r.buckets.interference_ns > 0));
    assert!(!fast.critical_path.is_empty());
}

#[test]
fn random_programs_attribute_identically_across_modes() {
    // Property sweep mirroring `fast_path_equivalence`: random speeds,
    // load timelines, and work sizes — attribution must never depend on
    // which advance mode produced the trace.
    check_n("profile_stepped_vs_fast_random", 10, |rng: &mut Rng| {
        let n = rng.range_usize(2, 5);
        let speeds: Vec<f64> = (0..n).map(|_| rng.range_f64(3e5, 3e6)).collect();
        let mut script = LoadScript::dedicated();
        for node in 0..n {
            for _ in 0..rng.range_u64(0, 4) {
                script = script.at_time(
                    node,
                    dynmpi_sim::SimTime::from_micros(rng.range_u64(1, 300_000)),
                    rng.range_u32(0, 4),
                );
            }
        }
        let works: Vec<f64> = (0..n).map(|_| rng.range_f64(1e4, 3e5)).collect();
        let rounds = rng.range_u64(1, 5);
        let mk = || {
            Cluster::heterogeneous(speeds.iter().map(|&s| NodeSpec::with_speed(s)).collect())
                .with_script(script.clone())
        };
        let works = &works;
        let f = move |ctx: &SimCtx| {
            let r = ctx.rank();
            for _ in 0..rounds {
                ctx.advance(works[r]);
                ctx.send((r + 1) % n, 3, vec![r as u8; 64]);
                let _ = ctx.recv((r + n - 1) % n, 3);
            }
            ctx.now()
        };
        let (stepped, stepped_spans) = profiled(&mk, true, f);
        let (fast, fast_spans) = profiled(&mk, false, f);
        assert_eq!(stepped, fast, "profile reports diverged across modes");
        assert!(fast_spans <= stepped_spans);
        for rank in &fast.ranks {
            assert_eq!(rank.buckets.total(), rank.makespan_ns);
        }
    });
}
