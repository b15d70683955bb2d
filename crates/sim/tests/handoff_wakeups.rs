//! The wake-up paths of the targeted turn hand-off, each under a wall-clock
//! watchdog.
//!
//! A hand-off unparks exactly one rank thread, so every situation in which
//! *more* than the next owner must wake — or in which there is no next
//! owner at all — needs its own wake-up: a failed run has to unpark every
//! parked rank, a dying rank has to pass the turn on, a deadline has to
//! fire with nothing else queued. A mistake in any of them is a hang, not a
//! wrong answer, so each case runs inside `with_watchdog` and fails by
//! message instead. Every case runs at `--shards 1` and `2`, and once with
//! pid 0 in the critical role: rank 0 executes on the thread that called
//! `run_spmd`, not on a spawned one.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dynmpi_sim::{Cluster, LoadScript, NodeSpec, RecvTimeout, SimDur, SimTime};
use dynmpi_testkit::with_watchdog;

const WATCHDOG_SECS: u64 = 20;
const SHARDS: [usize; 2] = [1, 2];

/// Runs `f` under the watchdog, expecting it to panic; returns the message.
fn panic_message_of(f: impl FnOnce() + Send + 'static) -> String {
    let payload = with_watchdog(WATCHDOG_SECS, move || {
        catch_unwind(AssertUnwindSafe(f)).expect_err("the run must panic")
    });
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string")
}

/// The last runnable rank *returns* while another is still blocked on a
/// receive nobody will ever match: the deadlock is found by the returning
/// rank's `finish` (there is no `yield_turn` left to find it), and the
/// blocked rank — parked, and not the next owner of anything — must still
/// be woken to unwind with the diagnosis.
#[test]
fn deadlock_found_by_the_last_finisher_wakes_the_blocked_rank() {
    for shards in SHARDS {
        for blocked in [0usize, 3] {
            let msg = panic_message_of(move || {
                let c = Cluster::homogeneous(4, NodeSpec::with_speed(1e6)).with_shards(shards);
                c.run_spmd(|ctx| {
                    if ctx.rank() == blocked {
                        let _ = ctx.recv((blocked + 1) % 4, 99); // never sent
                    } else {
                        // Staggered returns: the last one finds the deadlock.
                        ctx.advance(1e3 * (1 + ctx.rank()) as f64);
                    }
                });
            });
            let at = format!("shards {shards}, blocked rank {blocked}: {msg}");
            assert!(msg.contains("simulation deadlock"), "{at}");
            assert!(
                msg.contains(&format!("ranks [{blocked}] blocked at recv")),
                "{at}"
            );
            assert!(msg.contains("tag=99"), "{at}");
        }
    }
}

/// A rank that computes and then blocks forever leaves the fast engine's
/// clock behind (its catch-up is folded into the block, and with no wake-up
/// candidate nothing is ever queued for it): the diagnosis must still name
/// the time the run is stuck at — the same message, to the byte, as the
/// stepped engine prints, whose clock did advance. Once the latest event is
/// a blocked receive's entry, once the return of the last finisher.
#[test]
fn deadlock_diagnosis_is_identical_in_fast_and_stepped_mode() {
    for shards in SHARDS {
        for (root_work, stuck_at) in [(2e3, "0.041"), (5e4, "0.050000s")] {
            let diagnose = |stepped: bool| {
                panic_message_of(move || {
                    Cluster::homogeneous(3, NodeSpec::with_speed(1e6))
                        .with_shards(shards)
                        .with_stepped(stepped)
                        .run_spmd(|ctx| match ctx.rank() {
                            0 => ctx.advance(root_work), // returns at 2 or 50 ms
                            1 => {
                                ctx.advance(7e3);
                                ctx.send(2, 4, vec![1]);
                                let _ = ctx.recv(0, 98); // never sent: stuck at ~9 ms
                            }
                            _ => {
                                // 7 ms + send CPU (2 ms) + flight + receive
                                // CPU (2 ms) + 30 ms: stuck at ~41 ms.
                                let _ = ctx.recv(1, 4);
                                ctx.sleep(SimDur::from_millis(30));
                                let _ = ctx.recv(0, 99); // never sent
                            }
                        });
                })
            };
            let (fast, stepped) = (diagnose(false), diagnose(true));
            assert_eq!(fast, stepped, "shards {shards}");
            assert!(fast.contains("ranks [1, 2] blocked at recv"), "{fast}");
            let at = format!("simulation deadlock at {stuck_at}");
            assert!(fast.contains(&at), "shards {shards}: {fast}");
        }
    }
}

/// One rank panics while the 63 others are parked in receives: every one
/// of them must be unparked to unwind, all threads must be joined (the run
/// returns), and the payload re-raised is the original one.
#[test]
fn panic_with_63_ranks_parked_reraises_the_original_payload() {
    for shards in SHARDS {
        for bad in [0usize, 37] {
            let msg = panic_message_of(move || {
                let c = Cluster::homogeneous(64, NodeSpec::with_speed(1e6)).with_shards(shards);
                c.run_spmd(|ctx| {
                    if ctx.rank() == bad {
                        // Let every other rank reach its receive first.
                        ctx.sleep(SimDur::from_millis(1));
                        panic!("boom from rank {bad}");
                    }
                    let _ = ctx.recv(bad, 1);
                });
            });
            assert_eq!(msg, format!("boom from rank {bad}"), "shards {shards}");
        }
    }
}

/// The next owner of the turn is a rank whose node has fail-stopped: it is
/// woken at its crash time, dies at that operation boundary, and has to
/// hand the turn onward itself — the survivors then run to completion.
#[test]
fn crash_of_the_next_owner_passes_the_turn_on() {
    for shards in SHARDS {
        for victim in [0usize, 2] {
            for blocked_in_recv in [false, true] {
                let out = with_watchdog(WATCHDOG_SECS, move || {
                    let script =
                        LoadScript::dedicated().node_crash(SimTime::from_millis(1), victim);
                    Cluster::homogeneous(4, NodeSpec::with_speed(1e6))
                        .with_script(script)
                        .with_shards(shards)
                        .run_spmd(|ctx| {
                            if ctx.rank() == victim {
                                if blocked_in_recv {
                                    // Woken only by the crash-time event.
                                    let _ = ctx.recv((victim + 1) % 4, 5);
                                } else {
                                    loop {
                                        ctx.advance(100.0); // 0.1 ms per turn
                                    }
                                }
                            }
                            // Survivors hand the turn to the victim at its
                            // crash time, then outlive it.
                            ctx.sleep(SimDur::from_millis(2));
                            let silent = ctx.recv_timeout(Some(victim), 6, SimDur::from_millis(1));
                            assert!(silent.is_err());
                            ctx.rank() + 10
                        })
                });
                let at = format!("shards {shards}, victim {victim}, in recv {blocked_in_recv}");
                for pid in 0..4 {
                    let p = &out.report.procs[pid];
                    assert_eq!(p.crashed, pid == victim, "{at}, pid {pid}");
                    let want = if pid == victim { 0 } else { pid + 10 };
                    assert_eq!(out.results[pid], want, "{at}, pid {pid}");
                }
                assert_eq!(
                    out.report.procs[victim].finish_time,
                    SimTime::from_millis(1),
                    "{at}"
                );
            }
        }
    }
}

/// Every rank sits in a `recv_timeout` and nobody sends: the deadlines are
/// the only live events in the whole engine, and each must wake its rank.
#[test]
fn recv_timeout_deadline_is_the_only_live_event() {
    for shards in SHARDS {
        let out = with_watchdog(WATCHDOG_SECS, move || {
            Cluster::homogeneous(4, NodeSpec::default())
                .with_shards(shards)
                .run_spmd(|ctx| {
                    let wait = SimDur::from_millis(5 + ctx.rank() as u64);
                    (ctx.recv_timeout(None, 7, wait).err(), ctx.now())
                })
        });
        for (pid, (got, woke)) in out.results.iter().enumerate() {
            assert_eq!(
                *got,
                Some(RecvTimeout { src: None, tag: 7 }),
                "shards {shards}"
            );
            assert_eq!(
                *woke,
                SimTime::from_millis(5 + pid as u64),
                "shards {shards}"
            );
        }
        assert_eq!(
            out.report.finish_time,
            SimTime::from_millis(8),
            "shards {shards}"
        );
    }
}

/// An "infinite" timeout (`f64::INFINITY` seconds arrives here as
/// `SimDur(u64::MAX)`) is no deadline at all: it must not wrap into the past
/// and fire at once, and no wake-up may be queued at `SimTime::MAX`, where
/// it would sit behind the window bound forever — a receive nobody answers
/// is then diagnosed as the deadlock it is instead of hanging the run.
#[test]
fn infinite_recv_timeout_is_no_deadline() {
    let forever = SimDur::from_secs_f64(f64::INFINITY);
    assert_eq!(forever, SimDur(u64::MAX));
    for shards in SHARDS {
        for stepped in [false, true] {
            let at = format!("shards {shards}, stepped {stepped}");
            let cluster = move || {
                Cluster::homogeneous(2, NodeSpec::default())
                    .with_shards(shards)
                    .with_stepped(stepped)
            };
            let out = with_watchdog(WATCHDOG_SECS, move || {
                cluster().run_spmd(|ctx| {
                    if ctx.rank() == 0 {
                        ctx.sleep(SimDur::from_millis(5));
                        ctx.send(1, 7, vec![42]);
                        return None;
                    }
                    ctx.sleep(SimDur::from_millis(1)); // a wrapped deadline is now in the past
                    Some(ctx.recv_timeout(Some(0), 7, forever))
                })
            });
            assert_eq!(out.results[1], Some(Ok((0, vec![42]))), "{at}");
            assert!(out.report.finish_time > SimTime::from_millis(5), "{at}");

            let msg = panic_message_of(move || {
                cluster().run_spmd(|ctx| {
                    if ctx.rank() == 1 {
                        let _ = ctx.recv_timeout(Some(0), 7, forever);
                    }
                });
            });
            assert!(msg.contains("simulation deadlock"), "{at}: {msg}");
        }
    }
}
