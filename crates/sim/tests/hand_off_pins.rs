//! Deterministic pins on what the engine pays per simulated message.
//!
//! `SimReport::hand_offs` counts turns given to a different thread — a park
//! and an unpark each, the host cost that dominates an engine-bound run.
//! With rank-local clocks only a blocking receive gives up the turn, so the
//! count sits at about one per message. A run is a pure function of its
//! inputs, counters included, so the bars below are exact integers
//! measured on these two programs plus at most 10 % headroom: a change
//! that reintroduces a yield per compute slice, send or receive charge
//! fails here, not on a noisy wall-clock bar.

use dynmpi_sim::{Cluster, LoadScript, NodeSpec, SimCtx, SimReport, SimTime};

fn run(n: usize, f: impl Fn(&SimCtx) + Send + Sync) -> SimReport {
    let script = LoadScript::dedicated()
        .at_time(1, SimTime::from_millis(3), 1)
        .at_time(n - 1, SimTime::from_millis(9), 2);
    Cluster::homogeneous(n, NodeSpec::with_speed(1e7))
        .with_script(script)
        .with_stepped(false)
        .run_spmd(f)
        .report
}

/// 16 ranks pass a token-sized message to the right neighbour every
/// iteration: 16 × 40 messages.
fn ring16(ctx: &SimCtx) {
    let (r, n) = (ctx.rank(), ctx.nprocs());
    for i in 0..40u8 {
        ctx.advance(2e3 + 50.0 * r as f64);
        ctx.send((r + 1) % n, 1, vec![i; 64]);
        let _ = ctx.recv((r + n - 1) % n, 1);
    }
}

/// 8 ranks exchange 2 KiB ghost rows with both neighbours (no wrap-around)
/// every iteration: 14 × 30 messages.
fn halo8(ctx: &SimCtx) {
    let (r, n) = (ctx.rank(), ctx.nprocs());
    for i in 0..30u8 {
        ctx.advance(8e3);
        let neighbours = [r.checked_sub(1), (r + 1 < n).then_some(r + 1)];
        for nb in neighbours.into_iter().flatten() {
            ctx.send(nb, 2, vec![i; 2048]);
        }
        for nb in neighbours.into_iter().flatten() {
            let _ = ctx.recv(nb, 2);
        }
        ctx.phase_cycle_completed();
    }
}

#[test]
fn hand_offs_per_message_stay_at_one() {
    // (program, messages, measured hand-offs → bar, measured queue entries → bar)
    for (name, n, program, msgs, max_hand_offs, max_events) in [
        ("ring16", 16, ring16 as fn(&SimCtx), 640, 700, 1370), // 671, 1313
        ("halo8", 8, halo8 as fn(&SimCtx), 420, 445, 895),     // 426, 857
    ] {
        let report = run(n, program);
        assert_eq!(report.net_messages, msgs, "{name}");
        assert!(
            report.hand_offs <= max_hand_offs,
            "{name}: {} hand-offs for {msgs} messages (bar {max_hand_offs}): \
             something other than a blocking receive gives up the turn again",
            report.hand_offs
        );
        // One landing and one wake-up per message, plus start and finish.
        assert!(
            report.engine_events <= max_events,
            "{name}: {} queue entries for {msgs} messages (bar {max_events})",
            report.engine_events
        );
        // The send charge and the receive charge of every message (and
        // every compute slice) moved the rank-local clock only.
        assert!(report.turn_bypasses > 2 * msgs, "{name}: {report:?}");
        // The counters are as deterministic as the virtual outputs.
        assert_eq!(report, run(n, program), "{name}");
    }
}
