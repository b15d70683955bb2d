//! Property tests for the streaming health monitor (ISSUE 6 satellite):
//! per-window accumulations are u64-exact partitions of the event stream's
//! totals, and the full report — alerts included — is a pure function of
//! the event *set*, independent of delivery order.

use dynmpi_obs::trace::EventSink;
use dynmpi_obs::{HealthMonitor, Json, TraceEvent};
use dynmpi_testkit::{check_n, Rng};

fn random_event(rng: &mut Rng, nodes: usize) -> TraceEvent {
    let rank = rng.range_usize(0, nodes);
    let ts = rng.range_u64(0, 2_000);
    match rng.range_u64(0, 4) {
        0 => {
            let dur = rng.range_u64(1, 700);
            let cpu = rng.range_u64(0, dur + 1);
            let work = rng.range_u64(0, 1_000_000);
            TraceEvent::Complete {
                cat: "runtime",
                name: "charge_rows",
                rank,
                ts_ns: ts,
                dur_ns: dur,
                args: vec![
                    ("rows", Json::UInt(1)),
                    ("cpu_ns", Json::UInt(cpu)),
                    ("work_uflop", Json::UInt(work)),
                ],
            }
        }
        1 => TraceEvent::Complete {
            cat: "sched",
            name: "blocked",
            rank,
            ts_ns: ts,
            dur_ns: rng.range_u64(0, 900),
            args: vec![],
        },
        2 => TraceEvent::Instant {
            cat: "comm",
            name: "send",
            rank,
            ts_ns: ts,
            args: vec![
                ("peer", Json::UInt(rng.range_u64(0, nodes as u64))),
                ("seq", Json::UInt(rng.next_u64() % 1000)),
            ],
        },
        _ => {
            let late = rng.range_u64(0, 500);
            TraceEvent::Instant {
                cat: "comm",
                name: "recv",
                rank,
                ts_ns: ts,
                args: vec![
                    ("peer", Json::UInt(0)),
                    ("late_ns", Json::UInt(late)),
                    ("net_ns", Json::UInt(rng.range_u64(0, 300))),
                ],
            }
        }
    }
}

/// Window sums must equal the event-stream sums exactly (u64 arithmetic,
/// no rounding residue), whatever the window width — the same discipline
/// as the profiler's bucket tests.
#[test]
fn window_sums_are_exact_partitions() {
    check_n("health_window_sums_exact", 200, |rng| {
        let nodes = rng.range_usize(1, 5);
        let window = rng.range_u64(1, 600);
        let n_events = rng.range_u64(0, 80);
        let events: Vec<TraceEvent> = (0..n_events).map(|_| random_event(rng, nodes)).collect();

        // Expected stream totals, straight off the events.
        let mut exp_busy = 0u64;
        let mut exp_cpu = 0u64;
        let mut exp_work = 0u64;
        let mut exp_wait = 0u64;
        let mut exp_late = 0u64;
        let arg = |args: &[(&'static str, Json)], k: &str| {
            args.iter()
                .find(|(n, _)| *n == k)
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or(0)
        };
        for ev in &events {
            match ev {
                TraceEvent::Complete {
                    cat,
                    name,
                    dur_ns,
                    args,
                    ..
                } => {
                    if *cat == "runtime" && *name == "charge_rows" {
                        exp_busy += dur_ns;
                        exp_cpu += arg(args, "cpu_ns");
                        exp_work += arg(args, "work_uflop");
                    } else if *cat == "sched" && *name == "blocked" {
                        exp_wait += dur_ns;
                    }
                }
                TraceEvent::Instant {
                    cat, name, args, ..
                } => {
                    if *cat == "comm" && *name == "recv" {
                        exp_late += arg(args, "late_ns");
                    }
                }
            }
        }

        let mon = HealthMonitor::new(window);
        for ev in &events {
            mon.on_event(ev);
        }
        let report = mon.report();
        let sum = |f: &dyn Fn(&dynmpi_obs::NodeHealth) -> u64| -> u64 {
            report.windows.iter().flat_map(|w| &w.nodes).map(f).sum()
        };
        assert_eq!(sum(&|n| n.busy_ns), exp_busy);
        assert_eq!(sum(&|n| n.cpu_ns), exp_cpu);
        assert_eq!(sum(&|n| n.wait_ns), exp_wait);
        // work_uflop is not re-exposed per node directly, but eff_mflops is
        // derived from it; check via the JSONL-stable stats instead: total
        // queue depth conservation. Every send to a live node either stays
        // queued (final depth) or was received.
        let _ = exp_work;
        let total_sends: i64 = events
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Instant { cat, name, args, .. }
                    if *cat == "comm" && *name == "send"
                        && arg(args, "peer") < report.nodes as u64)
            })
            .count() as i64;
        let total_recvs: i64 = events
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Instant { cat, name, .. }
                    if *cat == "comm" && *name == "recv")
            })
            .count() as i64;
        if let Some(last) = report.windows.last() {
            let final_depth: i64 = last.nodes.iter().map(|n| n.queue_depth).sum();
            assert_eq!(final_depth, total_sends - total_recvs);
        }
        // late shares reconstruct the exact late totals per window width.
        let total_late: f64 = report
            .windows
            .iter()
            .flat_map(|w| &w.nodes)
            .map(|n| n.late_wait_share * window as f64)
            .sum();
        assert!((total_late - exp_late as f64).abs() < 1e-6 * (1.0 + exp_late as f64));
    });
}

/// The report — node stats, alert streaks, classifications, rendered
/// JSONL — must be byte-identical under any reordering of the event
/// stream, including events sharing a timestamp. (This is what makes
/// `--health-out` stable across `--threads 1` vs `8` and across engine
/// modes.)
#[test]
fn report_is_order_independent() {
    check_n("health_report_order_independent", 120, |rng| {
        let nodes = rng.range_usize(2, 5);
        let n_events = rng.range_u64(2, 60);
        let mut events: Vec<TraceEvent> = (0..n_events).map(|_| random_event(rng, nodes)).collect();
        // Force timestamp collisions so same-ts reordering is exercised.
        let collide = rng.range_u64(0, 2_000);
        let half = events.len() / 2;
        for ev in events.iter_mut().take(half) {
            if rng.chance(0.5) {
                match ev {
                    TraceEvent::Complete { ts_ns, .. } => *ts_ns = collide,
                    TraceEvent::Instant { ts_ns, .. } => *ts_ns = collide,
                }
            }
        }

        let window = rng.range_u64(50, 500);
        let feed = |events: &[TraceEvent]| {
            let mon = HealthMonitor::new(window);
            for ev in events {
                mon.on_event(ev);
            }
            mon.report()
        };
        let baseline = feed(&events);
        let jsonl = baseline.to_jsonl();
        for _ in 0..3 {
            // Fisher–Yates shuffle with the property RNG.
            for i in (1..events.len()).rev() {
                let j = rng.range_usize(0, i + 1);
                events.swap(i, j);
            }
            let shuffled = feed(&events);
            assert_eq!(shuffled, baseline);
            assert_eq!(shuffled.to_jsonl(), jsonl);
        }
    });
}

/// Sustain semantics: a rule with `sustain = N` fires exactly when the
/// comparison holds for the N-th consecutive window, and a healthy window
/// resets the streak.
#[test]
fn sustain_streaks_reset_on_recovery() {
    let charge = |rank: usize, w: u64, cpu: u64| TraceEvent::Complete {
        cat: "runtime",
        name: "charge_rows",
        rank,
        ts_ns: w * 100,
        dur_ns: 80,
        args: vec![("cpu_ns", Json::UInt(cpu)), ("work_uflop", Json::UInt(100))],
    };
    let mon = HealthMonitor::new(100);
    // Interference (cpu 40/busy 80 = 0.5 > 0.2, sustain 2) in windows
    // 0, 1 — fires at window 1 — then recovery in 2, then 3, 4 — fires
    // again at 4 after the streak reset.
    for (w, cpu) in [(0, 40), (1, 40), (2, 80), (3, 40), (4, 40)] {
        mon.on_event(&charge(0, w, cpu));
        mon.on_event(&charge(1, w, 80)); // healthy reference node
    }
    let report = mon.report();
    let fired: Vec<u64> = report
        .windows
        .iter()
        .flat_map(|w| w.alerts.iter().map(move |a| (w.index, a)))
        .filter(|(_, a)| a.rule == "interference" && a.node == 0)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(fired, vec![1, 4]);
}

// ---------------------------------------------------------------------------
// Removal timeline regressions (fail-stop extension)
// ---------------------------------------------------------------------------

/// A `charge_rows` span marking `rank` active across `[ts, ts+dur)`.
fn activity(rank: usize, ts: u64, dur: u64) -> TraceEvent {
    TraceEvent::Complete {
        cat: "runtime",
        name: "charge_rows",
        rank,
        ts_ns: ts,
        dur_ns: dur,
        args: vec![
            ("rows", Json::UInt(1)),
            ("cpu_ns", Json::UInt(dur)),
            ("work_uflop", Json::UInt(100)),
        ],
    }
}

/// A replicated runtime decision instant, as a survivor rank mirrors it.
fn decision(rank: usize, kind: &'static str, ts: u64, cycle: u64, node: u64) -> TraceEvent {
    TraceEvent::Instant {
        cat: "runtime",
        name: kind,
        rank,
        ts_ns: ts,
        args: vec![("cycle", Json::UInt(cycle)), ("node", Json::UInt(node))],
    }
}

/// Regression: once the runtime has confirmed a node dead, its ensuing
/// silence is the runtime's own decision doing its job — the silence rule
/// must NOT keep escalating it to `SuspectDead`, and the report must mark
/// the node removed. (Before the fix, confirmed deaths never entered the
/// removal timeline: a partitioned node whose self-evicted rank straggled
/// a few late events kept tripping the silence rule post-confirmation.)
#[test]
fn confirmed_dead_node_is_removed_and_stops_alerting() {
    let w = 100u64;
    let monitor = HealthMonitor::new(w);
    // Ranks 0 and 1: active every window through window 9.
    for widx in 0..10 {
        monitor.on_event(&activity(0, widx * w + 10, 50));
        monitor.on_event(&activity(1, widx * w + 10, 50));
    }
    // Rank 2: active through window 2, then goes quiet; one straggling
    // late event (the evicted rank's tail) keeps its activity horizon
    // open, which is what made the silence rule count windows 3..8.
    for widx in 0..3 {
        monitor.on_event(&activity(2, widx * w + 10, 50));
    }
    monitor.on_event(&activity(2, 9 * w + 10, 5));
    // The survivors confirm the death in window 3.
    monitor.on_event(&decision(0, "node-confirmed-dead", 3 * w + 20, 7, 2));

    let report = monitor.report();
    assert!(
        !report
            .alerts()
            .iter()
            .any(|a| a.node == 2 && a.ts_ns > 4 * w),
        "confirmed-dead node kept alerting: {:?}",
        report.alerts()
    );
    // Windows past the confirmation mark the node removed.
    assert!(report.windows[5].nodes[2].removed);
    assert!(!report.windows[2].nodes[2].removed);
    // The confirmation itself is on the decisions timeline.
    assert!(report
        .decisions()
        .iter()
        .any(|d| d.kind == "node-confirmed-dead" && d.cycle == 7));
}

/// Regression: a rejoin (or admission) clears the node's removal — its
/// health is tracked, and alertable, again. (Before the fix the removal
/// set was never cleared, so a node that returned and later went silent
/// could never be flagged.)
#[test]
fn rejoined_node_is_tracked_again() {
    let w = 100u64;
    let monitor = HealthMonitor::new(w);
    for widx in 0..16 {
        monitor.on_event(&activity(0, widx * w + 10, 50));
        monitor.on_event(&activity(1, widx * w + 10, 50));
    }
    // Rank 2: dropped in window 2, rejoins in window 6, active again in
    // windows 6..9, silent from 10 on with a straggling tail event.
    for widx in 0..3 {
        monitor.on_event(&activity(2, widx * w + 10, 50));
    }
    monitor.on_event(&TraceEvent::Instant {
        cat: "runtime",
        name: "nodes-dropped",
        rank: 0,
        ts_ns: 2 * w + 20,
        args: vec![
            ("cycle", Json::UInt(4)),
            ("nodes", Json::Arr(vec![Json::UInt(2)])),
        ],
    });
    monitor.on_event(&decision(0, "node-rejoined", 6 * w + 20, 11, 2));
    for widx in 6..10 {
        monitor.on_event(&activity(2, widx * w + 30, 50));
    }
    monitor.on_event(&activity(2, 15 * w + 10, 5));

    let report = monitor.report();
    // Removed while dropped, tracked again after the rejoin.
    assert!(report.windows[4].nodes[2].removed);
    assert!(!report.windows[8].nodes[2].removed);
    // The post-rejoin silence (windows 10..14) escalates again: the node
    // is back under the rules.
    assert!(
        report
            .alerts()
            .iter()
            .any(|a| a.node == 2 && a.ts_ns > 10 * w),
        "rejoined node's silence was never flagged: {:?}",
        report.alerts()
    );
}
