//! End-to-end observability tests: attach a `Recorder` to a full adaptive
//! run on the virtual cluster, export the Chrome trace, read it back as
//! JSON, and
//! check the structural guarantees the exporters promise — plus exact
//! reconciliation of the metrics registry against the simulator's own
//! traffic accounting.

use dynmpi::DynMpiConfig;
use dynmpi_apps::harness::{run_sim_with, AppSpec, Experiment};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_obs::{Json, Recorder};
use dynmpi_sim::{LoadScript, NodeSpec};

const NODES: usize = 4;

/// An adaptive Jacobi run that provokes the whole pipeline: external load
/// appears at cycle 10 on node 0, so detection, grace measurement,
/// balancing and redistribution all fire.
fn recorded_run() -> (Recorder, dynmpi_apps::harness::SimRunResult) {
    let mut p = JacobiParams::small(128, 60);
    p.exercise_kernel = false;
    let exp = Experiment::new(AppSpec::Jacobi(p), NODES)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_cfg(DynMpiConfig::default())
        .with_script(LoadScript::dedicated().at_cycle(0, 10, 2));
    let rec = Recorder::new();
    let result = run_sim_with(&exp, Some(rec.clone()));
    (rec, result)
}

/// One event of the Chrome export, its times back in nanoseconds.
struct ChromeEvent {
    phase: String,
    cat: String,
    name: String,
    tid: u64,
    ts_ns: u64,
    dur_ns: u64,
}

/// The events of a Chrome document. Its `ts`/`dur` are fractional
/// microseconds: compare them as integer nanoseconds, or float error
/// shows as spurious overlaps.
fn chrome_events(text: &str) -> Vec<ChromeEvent> {
    let doc = Json::parse(text).expect("exported trace must parse back");
    let events = doc.get("traceEvents").and_then(Json::as_arr);
    let field = |ev: &Json, k: &str| ev.get(k).and_then(Json::as_str).unwrap().to_string();
    let ns = |ev: &Json, k: &str| {
        ev.get(k)
            .and_then(Json::as_f64)
            .map_or(0, |us| (us * 1e3).round() as u64)
    };
    (events.expect("a traceEvents array").iter())
        .map(|ev| ChromeEvent {
            phase: field(ev, "ph"),
            cat: field(ev, "cat"),
            name: field(ev, "name"),
            tid: ev.get("tid").and_then(Json::as_u64).unwrap(),
            ts_ns: ns(ev, "ts"),
            dur_ns: ns(ev, "dur"),
        })
        .collect()
}

/// Per-rank spans must be properly nested (any two overlap only by full
/// containment) and instants must carry monotone-safe timestamps.
fn assert_rank_spans_nest(rank: u64, spans: &[&ChromeEvent]) {
    // Sort by start time; equal starts put the longer (outer) span first.
    let mut sorted: Vec<&ChromeEvent> = spans.to_vec();
    sorted.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(b.dur_ns.cmp(&a.dur_ns)));
    let mut stack: Vec<u64> = Vec::new(); // open span end times
    for s in sorted {
        let end = s.ts_ns.checked_add(s.dur_ns).expect("span end overflows");
        while let Some(&top) = stack.last() {
            if top <= s.ts_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top) = stack.last() {
            assert!(
                end <= top,
                "rank {rank}: span {}/{} [{}, {}) crosses its parent's end {}",
                s.cat,
                s.name,
                s.ts_ns,
                end,
                top
            );
        }
        stack.push(end);
    }
}

#[test]
fn chrome_trace_round_trips_with_all_ranks_and_categories() {
    let (rec, _result) = recorded_run();

    let dir = std::env::temp_dir().join("dynmpi_obs_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    rec.write_chrome_trace(&path).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = chrome_events(&text);
    assert!(!parsed.is_empty());

    // Every rank contributed events.
    for rank in 0..NODES as u64 {
        assert!(
            parsed.iter().any(|e| e.tid == rank),
            "no events from rank {rank}"
        );
    }

    // The taxonomy's layers are all present: scheduler quanta, collective
    // communication, the runtime pipeline, and redistribution.
    for cat in ["sched", "comm", "runtime", "redist"] {
        assert!(
            parsed.iter().any(|e| e.cat == cat),
            "no `{cat}` events in trace"
        );
    }
    // ... including the named pipeline stages.
    for name in ["end_cycle", "finish_grace", "balance", "redistribute"] {
        assert!(
            parsed.iter().any(|e| e.phase == "X" && e.name == name),
            "no `{name}` span in trace"
        );
    }

    // Spans nest properly per rank, and all timestamps are in-range for
    // the run (virtual time starts at 0).
    for rank in 0..NODES as u64 {
        let spans: Vec<&ChromeEvent> = parsed
            .iter()
            .filter(|e| e.tid == rank && e.phase == "X")
            .collect();
        assert!(!spans.is_empty(), "rank {rank} has no spans");
        assert_rank_spans_nest(rank, &spans);
    }
}

#[test]
fn merged_metrics_reconcile_exactly_with_sim_report() {
    let (rec, result) = recorded_run();
    let merged = rec.merged_metrics();

    // The counters are recorded at the exact simulator accounting sites,
    // so the match with the SimReport totals is integer-exact.
    assert_eq!(
        merged.counter("sim.msgs_sent"),
        result.net_messages,
        "message counter does not reconcile with SimReport"
    );
    assert_eq!(
        merged.counter("sim.bytes_sent"),
        result.net_bytes,
        "byte counter does not reconcile with SimReport"
    );
    // Receives can trail sends (messages still in a mailbox when the run
    // finishes) but can never exceed them.
    assert!(merged.counter("sim.msgs_recvd") <= merged.counter("sim.msgs_sent"));
    assert!(merged.counter("sim.bytes_recvd") <= merged.counter("sim.bytes_sent"));
    assert!(merged.counter("sim.msgs_recvd") > 0);

    // Collectives were traced and the byte histograms saw the traffic.
    assert!(merged.counter("comm.coll.allreduce") > 0);
    let h = merged
        .hists
        .get("comm.msg_bytes_sent")
        .expect("sent-bytes histogram missing");
    assert!(h.count > 0);
    assert_eq!(h.counts.iter().sum::<u64>(), h.count);

    // Per-rank snapshots merge to the same totals whatever the order.
    let mut fwd = dynmpi_obs::Snapshot::default();
    let mut rev = dynmpi_obs::Snapshot::default();
    let snaps = rec.snapshots();
    assert_eq!(snaps.len(), NODES);
    for (_, s) in &snaps {
        fwd.merge(s);
    }
    for (_, s) in snaps.iter().rev() {
        rev.merge(s);
    }
    assert_eq!(fwd.counter("sim.msgs_sent"), rev.counter("sim.msgs_sent"));
    assert_eq!(
        fwd.counter("sim.bytes_sent"),
        merged.counter("sim.bytes_sent")
    );
}
