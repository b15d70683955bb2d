//! Property tests on the simulator's core guarantees: fair-share CPU
//! scheduling, monotone network delivery, and whole-run determinism under
//! arbitrary load scripts. Driven by the seeded `dynmpi_testkit` harness.

use dynmpi_sim::{
    Cluster, CpuSched, LoadScript, NetParams, Network, NodeSpec, OsParams, SimDur, SimTime,
};
use dynmpi_testkit::check;

/// Long computations get exactly a 1/(ncp+1) CPU share, whatever the
/// rotation hash does.
#[test]
fn cpu_share_matches_relative_power() {
    check("cpu_share_matches_relative_power", |rng| {
        let ncp = rng.range_u32(0, 5);
        let speed = rng.range_f64(1.0e5, 1.0e7);
        let work_secs = rng.range_f64(0.5, 3.0);
        let start_ms = rng.range_u64(0, 100);
        let s = CpuSched::new(NodeSpec::with_speed(speed), OsParams::default());
        let mut t = SimTime::from_millis(start_ms);
        let t0 = t;
        let mut left = s.work_to_ns(work_secs * speed);
        let mut cpu = SimDur::ZERO;
        for _ in 0..5_000_000u64 {
            let st = s.step_ns(t, ncp, None, left);
            cpu += st.cpu;
            left = left - st.cpu;
            t = st.end;
            if st.completed {
                break;
            }
        }
        assert_eq!(left, SimDur::ZERO);
        let cpu = cpu.as_secs_f64();
        let wall = (t - t0).as_secs_f64();
        let share = cpu / wall;
        let expect = 1.0 / f64::from(ncp + 1);
        // Within one scheduling round of exact fairness.
        assert!(
            (share - expect).abs() < 0.05 * expect + 0.02,
            "ncp={ncp}: share {share} vs {expect}"
        );
        assert!((cpu - work_secs).abs() < 1e-3, "cpu {cpu} vs {work_secs}");
    });
}

/// Per-pair network deliveries are monotone (FIFO) and never precede
/// latency + serialization.
#[test]
fn network_delivery_monotone_and_lower_bounded() {
    check("network_delivery_monotone", |rng| {
        let sizes = rng.vec_in(1, 40, |r| r.range_usize(0, 100_000));
        let src = rng.range_usize(0, 4);
        let dst = rng.range_usize(0, 4);
        let p = NetParams::ethernet_100mbps();
        let mut net = Network::new(4, p);
        let mut last = SimTime::ZERO;
        for (k, &bytes) in sizes.iter().enumerate() {
            let t = SimTime::from_micros(k as u64 * 50);
            let arr = net.deliver_at(src, dst, bytes, t);
            assert!(arr >= last, "FIFO violated");
            if src != dst {
                let min = t + Network::isolated_cost(&p, bytes);
                assert!(arr >= min, "arrived before physics allows");
            }
            last = arr;
        }
        assert_eq!(net.message_count(), sizes.len() as u64);
    });
}

/// Whole simulated runs are a pure function of their inputs, for any
/// load script.
#[test]
fn runs_are_deterministic_under_random_scripts() {
    check("runs_are_deterministic", |rng| {
        let changes = rng.vec_in(0, 6, |r| {
            (r.range_usize(0, 3), r.range_u64(1, 50), r.range_u32(0, 4))
        });
        let work = rng.range_f64(1.0e3, 1.0e5);
        let mk = || {
            let mut script = LoadScript::dedicated();
            for &(node, at_ms, ncp) in &changes {
                script = script.at_time(node, SimTime::from_millis(at_ms), ncp);
            }
            let c = Cluster::homogeneous(3, NodeSpec::with_speed(1e6)).with_script(script);
            let out = c.run_spmd(move |ctx| {
                let me = ctx.rank();
                let next = (me + 1) % 3;
                let prev = (me + 2) % 3;
                for i in 0..10u64 {
                    ctx.advance(work);
                    ctx.send(next, 1, vec![me as u8, i as u8]);
                    let _ = ctx.recv(prev, 1);
                }
                ctx.now()
            });
            (out.results, out.report.finish_time, out.report.net_bytes)
        };
        assert_eq!(mk(), mk());
    });
}

/// CPU accounting is conserved: exact cpu time equals requested work
/// over speed, independent of interleaved blocking.
#[test]
fn cpu_accounting_is_exact() {
    check("cpu_accounting_is_exact", |rng| {
        let bursts = rng.vec_in(1, 20, |r| r.range_f64(10.0, 5_000.0));
        let ncp = rng.range_u32(0, 3);
        let total: f64 = bursts.iter().sum();
        let script = LoadScript::dedicated().at_time(0, SimTime::ZERO, ncp);
        let c = Cluster::homogeneous(2, NodeSpec::with_speed(1e6)).with_script(script);
        let bursts2 = bursts.clone();
        let out = c.run_spmd(move |ctx| {
            if ctx.rank() == 0 {
                for (i, w) in bursts2.iter().enumerate() {
                    ctx.advance(*w);
                    ctx.send(1, 7, vec![i as u8]);
                    let _ = ctx.recv(1, 8);
                }
            } else {
                for (i, _) in bursts2.iter().enumerate() {
                    let _ = ctx.recv(0, 7);
                    ctx.send(0, 8, vec![i as u8]);
                }
            }
            ctx.cpu_time_exact().as_secs_f64()
        });
        // Rank 0's CPU = bursts plus per-message send/recv CPU costs.
        let n_msgs = bursts.len() as f64;
        let msg_cpu = n_msgs * (2.0 * 2_000.0 + 0.25 * 2.0) / 1e6;
        let expect = total / 1e6 + msg_cpu;
        assert!(
            (out.results[0] - expect).abs() < 1e-3,
            "cpu {} vs {}",
            out.results[0],
            expect
        );
    });
}
