//! Profiler properties and end-to-end attribution checks.
//!
//! Three property families on arbitrary traced programs:
//!   (a) the critical path never exceeds the makespan and never undercuts
//!       the busiest rank,
//!   (b) every rank's buckets sum exactly to its makespan (the attribution
//!       is exhaustive and exclusive — u64 arithmetic, no rounding slack),
//!   (c) span attributes round-trip through both the JSONL and Chrome
//!       exporters and their parsers.
//! Plus an integration test driving the full adaptive pipeline and
//! checking the profile a user would get from `--profile-out`.

use std::sync::Arc;

use dynmpi::DynMpiConfig;
use dynmpi_apps::harness::{run_sim_with, AppSpec, Experiment};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_obs::export::{chrome_trace, jsonl};
use dynmpi_obs::{
    analyze, parse_chrome_trace, parse_jsonl, Json, ProfileReport, Recorder, SegKind, TraceEvent,
};
use dynmpi_sim::{Cluster, LoadScript, NodeSpec, SimCtx, SimTime};
use dynmpi_testkit::{check_n, Rng};

/// Invariants every profile must satisfy, whatever program produced it.
fn assert_profile_invariants(report: &ProfileReport) {
    // (b) exhaustive, exclusive attribution: exact sum per rank.
    for rank in &report.ranks {
        assert_eq!(
            rank.buckets.total(),
            rank.makespan_ns,
            "rank {} buckets do not sum to its makespan",
            rank.rank
        );
        assert!(rank.busy_ns <= rank.makespan_ns);
        assert!(rank.makespan_ns <= report.makespan_ns);
    }

    // (a) critical path bounded by the makespan, at least the busiest rank.
    let cp = report.critical_path_ns();
    assert!(
        cp <= report.makespan_ns,
        "critical path {cp} exceeds makespan {}",
        report.makespan_ns
    );
    let max_busy = report.ranks.iter().map(|r| r.busy_ns).max().unwrap_or(0);
    assert!(
        cp >= max_busy,
        "critical path {cp} undercuts busiest rank {max_busy}"
    );

    // Stronger structural form of (a): the segments tile [0, makespan]
    // back-to-back with no gaps or overlaps.
    if !report.critical_path.is_empty() {
        let mut cursor = 0u64;
        for seg in &report.critical_path {
            assert_eq!(seg.start_ns, cursor, "gap/overlap in critical path");
            assert!(seg.end_ns >= seg.start_ns);
            cursor = seg.end_ns;
        }
        assert_eq!(cursor, report.makespan_ns, "critical path stops short");
    }
}

/// Records a deterministic ring program on a random loaded cluster. All
/// instrumentation args on such a trace are unsigned integers, so both
/// exporters must round-trip them exactly.
fn random_ring_trace(rng: &mut Rng) -> Arc<Vec<TraceEvent>> {
    let n = rng.range_usize(2, 5);
    let speeds: Vec<f64> = (0..n).map(|_| rng.range_f64(3e5, 3e6)).collect();
    let mut script = LoadScript::dedicated();
    for node in 0..n {
        for _ in 0..rng.range_u64(0, 3) {
            script = script.at_time(
                node,
                SimTime::from_micros(rng.range_u64(1, 200_000)),
                rng.range_u32(0, 4),
            );
        }
    }
    let works: Vec<f64> = (0..n).map(|_| rng.range_f64(1e4, 2e5)).collect();
    let rounds = rng.range_u64(1, 5);
    let rec = Recorder::new();
    let works = &works;
    Cluster::heterogeneous(speeds.iter().map(|&s| NodeSpec::with_speed(s)).collect())
        .with_script(script)
        .with_recorder(rec.clone())
        .run_spmd(move |ctx: &SimCtx| {
            let r = ctx.rank();
            for _ in 0..rounds {
                ctx.advance(works[r]);
                ctx.send((r + 1) % n, 7, vec![r as u8; 128]);
                let _ = ctx.recv((r + n - 1) % n, 7);
            }
        });
    rec.events()
}

#[test]
fn attribution_and_critical_path_invariants_hold_on_random_programs() {
    check_n("profiler_invariants_random", 12, |rng: &mut Rng| {
        let events = random_ring_trace(rng);
        assert!(!events.is_empty());
        let report = analyze(&events);
        assert!(report.makespan_ns > 0);
        assert_eq!(report.ranks.len(), {
            let mut ranks: Vec<usize> = events.iter().map(|e| e.rank()).collect();
            ranks.sort_unstable();
            ranks.dedup();
            ranks.len()
        });
        assert_profile_invariants(&report);
    });
}

#[test]
fn span_attributes_round_trip_through_jsonl_and_chrome() {
    check_n("profiler_roundtrip_random", 8, |rng: &mut Rng| {
        let events = random_ring_trace(rng);

        // (c) JSONL: full event-level fidelity, so the analyzer sees the
        // identical stream whether it runs in-process or on a trace file.
        let parsed = parse_jsonl(&jsonl(&events)).expect("exported JSONL must parse");
        assert_eq!(parsed, *events, "JSONL round-trip changed the events");
        assert_eq!(analyze(&parsed), analyze(&events));

        // (c) Chrome: args survive with order and values intact.
        let parsed = parse_chrome_trace(&chrome_trace(&events)).expect("chrome must parse");
        assert_eq!(parsed.len(), events.len());
        for (p, e) in parsed.iter().zip(events.iter()) {
            assert_eq!(p.ts_ns, e.ts_ns());
            assert_eq!(p.tid, e.rank() as u64);
            assert_eq!(p.name, e.name());
            let (TraceEvent::Complete { args, .. } | TraceEvent::Instant { args, .. }) = e;
            let args: Vec<_> = args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect();
            assert_eq!(p.args, args, "chrome round-trip changed span args");
        }
    });
}

#[test]
fn adaptive_run_profile_attributes_the_full_pipeline() {
    // The observability.rs scenario: external load at cycle 10 provokes
    // detection, grace measurement, balancing, and redistribution.
    let mut p = JacobiParams::small(128, 60);
    p.exercise_kernel = false;
    let exp = Experiment::new(AppSpec::Jacobi(p), 4)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_cfg(DynMpiConfig::default())
        .with_script(LoadScript::dedicated().at_cycle(0, 10, 2));
    let rec = Recorder::new();
    run_sim_with(&exp, Some(rec.clone()));

    let report = rec.profile();
    assert_profile_invariants(&report);

    // Acceptance bar: at least 95 % of every rank's makespan lands in a
    // named bucket (here the attribution is in fact exact, so 100 %).
    assert!(
        report.min_coverage_pct() >= 95.0,
        "coverage {:.2}% below bar",
        report.min_coverage_pct()
    );

    // The pipeline's cost shows up in the right buckets on every rank.
    for rank in &report.ranks {
        assert!(
            rank.buckets.runtime_ns > 0,
            "rank {} saw no runtime overhead",
            rank.rank
        );
    }
    assert!(report.ranks.iter().any(|r| r.buckets.redist_ns > 0));
    assert!(report.ranks.iter().any(|r| r.buckets.interference_ns > 0));

    // The critical path crosses ranks: at least one transfer segment.
    assert!(report
        .critical_path
        .iter()
        .any(|s| matches!(s.kind, SegKind::Transfer { src, dst, .. } if src != dst)));

    // At least one redistribution cycle was audited, with real movement
    // and a before/after imbalance pair.
    assert!(!report.cycles.is_empty(), "no adaptation-cycle audits");
    let audit = &report.cycles[0];
    assert!(audit.rows_moved > 0);
    assert!(audit.redist_seconds > 0.0);
    assert!(audit.imbalance_before.unwrap_or(0.0) >= 1.0);
    assert!(audit.imbalance_after.unwrap_or(0.0) >= 1.0);

    // The report a user writes with --profile-out parses back and carries
    // the documented schema.
    let json_text = report.to_json().to_string();
    let parsed = Json::parse(&json_text).expect("profile JSON must parse");
    for key in ["makespan_ns", "ranks", "critical_path", "cycles"] {
        assert!(parsed.get(key).is_some(), "profile JSON missing `{key}`");
    }
    assert_eq!(
        parsed.get("makespan_ns").and_then(Json::as_u64),
        Some(report.makespan_ns)
    );

    // Offline analysis of the written trace matches in-process analysis.
    let offline = parse_jsonl(&rec.jsonl()).expect("trace JSONL must parse");
    assert_eq!(analyze(&offline), report, "offline profile diverges");

    // And the human-readable rendering carries the headline numbers.
    let text = report.render_text();
    assert!(text.contains("makespan"));
    assert!(text.contains("critical path"));
    assert!(text.contains("redistribution audits"));
}
