//! Deterministic pins on what a blocked rank leaves in the engine's queue.
//!
//! A rank on a fail-stop node queues its crash-instant wake once, the
//! first time it blocks, and every later block relies on that one entry.
//! A timed receive whose match is already known to arrive by its deadline
//! queues no deadline, since the deadline could never fire. Both hold on
//! the fast engine and on the stepped oracle, and neither moves a virtual
//! time.

use dynmpi_sim::{Cluster, LoadScript, NodeSpec, SimDur, SimReport, SimTime};

/// Node 2's fail-stop instant: 40 ms.
const CRASH: SimTime = SimTime(40_000_000);

/// Three ranks; node 2 fail-stops at [`CRASH`]. Rank 0 sends rank 1 one
/// 4 KiB message (posted at 3 ms, arriving at ≈ 3.43 ms). Rank 1 catches
/// the engine up to 3.2 ms, so the message has landed but not arrived,
/// and then receives it, with a 10 ms deadline when `timed`. Rank 2 times
/// out `timeouts` times in a row on a message nobody sends, then waits
/// for it without a deadline until the crash kills it.
fn scenario(stepped: bool, timeouts: u32, timed: bool) -> SimReport {
    let script = LoadScript::dedicated().node_crash(CRASH, 2);
    Cluster::homogeneous(3, NodeSpec::with_speed(1e6))
        .with_script(script)
        .with_stepped(stepped)
        .run_spmd(|ctx| match ctx.rank() {
            0 => ctx.send(1, 7, vec![1; 4096]),
            1 => {
                ctx.sleep(SimDur::from_micros(3_200));
                assert!(!ctx.probe(Some(0), 7), "the message is still in flight");
                if timed {
                    let got = ctx.recv_timeout(Some(0), 7, SimDur::from_millis(10));
                    assert_eq!(got.expect("arrives before the deadline").1.len(), 4096);
                } else {
                    assert_eq!(ctx.recv(0, 7).len(), 4096);
                }
            }
            _ => {
                for _ in 0..timeouts {
                    let got = ctx.recv_timeout(Some(0), 9, SimDur::from_millis(5));
                    assert!(got.is_err(), "nobody sends tag 9");
                }
                ctx.recv(0, 9);
                unreachable!("only the crash ends this wait");
            }
        })
        .report
}

#[test]
fn blocked_ranks_queue_only_wakes_that_can_fire() {
    for stepped in [false, true] {
        let report = scenario(stepped, 3, true);
        let dead = &report.procs[2];
        assert!(dead.crashed, "stepped={stepped}");
        assert_eq!(dead.finish_time, CRASH, "stepped={stepped}");
        // Each further timeout queues its own deadline and nothing else:
        // the fail-stop wake from the first block serves every later one.
        // (From the first timeout on: a rank 2 that does not time out
        // at all blocks while ranks 0 and 1 still run, which changes more
        // than its own entries.)
        for timeouts in 1..5 {
            let (a, b) = (
                scenario(stepped, timeouts, true),
                scenario(stepped, timeouts + 1, true),
            );
            assert_eq!(b.engine_events - a.engine_events, 1, "stepped={stepped}");
            assert_eq!(b.stale_events, a.stale_events, "stepped={stepped}");
        }
        // A deadline behind a known arrival is not queued: the timed
        // receive costs the queue what the plain one does.
        let plain = scenario(stepped, 3, false);
        assert_eq!(
            plain.engine_events, report.engine_events,
            "stepped={stepped}"
        );
        assert_eq!(plain.virtual_outputs(), report.virtual_outputs());
    }
    let (fast, stepped) = (scenario(false, 3, true), scenario(true, 3, true));
    assert_eq!(fast.virtual_outputs(), stepped.virtual_outputs());
    // Every entry either engine queues is dispatched: none dies unpopped.
    assert_eq!((fast.engine_events, fast.stale_events), (12, 0));
    assert_eq!((stepped.engine_events, stepped.stale_events), (11, 0));
}
