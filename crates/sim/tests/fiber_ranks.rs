//! Pins on the one-thread design: every rank of a run is a fiber on the
//! thread that called `run_spmd`.
//!
//! What the ranks share with their caller — the thread and its
//! thread-locals — and what they must not: a tracing scope, and an unwind
//! that would suspend halfway.

use std::os::unix::process::ExitStatusExt;
use std::process::Command;

use dynmpi_obs::Recorder;
use dynmpi_sim::{Cluster, NodeSpec, SimDur};

#[test]
fn every_rank_runs_on_the_callers_thread() {
    let caller = std::thread::current().id();
    let out = Cluster::homogeneous(8, NodeSpec::default()).run_spmd(|ctx| {
        let (r, n) = (ctx.rank(), ctx.nprocs());
        // Hand the turn around the ring, so every rank suspends and is
        // resumed before it looks again.
        let before = std::thread::current().id() == caller;
        ctx.send((r + 1) % n, 1, vec![r as u8]);
        let _ = ctx.recv((r + n - 1) % n, 1);
        (before, std::thread::current().id() == caller)
    });
    assert!(out.report.hand_offs > 0);
    for (pid, same) in out.results.iter().enumerate() {
        assert_eq!(*same, (true, true), "rank {pid}");
    }
}

/// A caller that already holds a tracing scope keeps it across a recorded
/// run and across a bare one: its own events stay in its own recorder, the
/// ranks' go to the run's recorder (or nowhere), and neither sees the other.
#[test]
fn a_callers_tracing_scope_survives_runs_and_stays_its_own() {
    const CALLER: usize = 99;
    let mine = Recorder::new();
    let guard = mine.install(CALLER);
    dynmpi_obs::instant("test", "before", 1, vec![]);

    let run = Recorder::new();
    let program = |ctx: &dynmpi_sim::SimCtx| {
        let (r, n) = (ctx.rank(), ctx.nprocs());
        ctx.send((r + 1) % n, 1, vec![0; 64]);
        ctx.sleep(SimDur::from_millis(1));
        let _ = ctx.recv((r + n - 1) % n, 1);
        dynmpi_obs::instant("test", "rank", ctx.now().0, vec![]);
        dynmpi_obs::enabled()
    };
    let traced = Cluster::homogeneous(4, NodeSpec::default())
        .with_recorder(run.clone())
        .run_spmd(program);
    assert_eq!(traced.results, vec![true; 4], "every rank had its scope");
    assert!(dynmpi_obs::enabled(), "the caller's scope is back");
    dynmpi_obs::instant("test", "between", 2, vec![]);

    let bare = Cluster::homogeneous(4, NodeSpec::default()).run_spmd(program);
    assert_eq!(
        bare.results,
        vec![false; 4],
        "a bare run's ranks trace nothing"
    );
    dynmpi_obs::instant("test", "after", 3, vec![]);
    drop(guard);

    let own: Vec<_> = mine.events().iter().map(|e| (e.rank(), e.name())).collect();
    let want = [(CALLER, "before"), (CALLER, "between"), (CALLER, "after")];
    assert_eq!(own, want);

    let events = run.events();
    assert!(events.iter().all(|e| e.rank() < 4), "a caller event leaked");
    for rank in 0..4 {
        let named = |name| {
            let is = |e: &&dynmpi_obs::TraceEvent| e.rank() == rank && e.name() == name;
            events.iter().filter(is).count()
        };
        assert_eq!(named("rank"), 1, "rank {rank}");
        assert_eq!((named("send"), named("recv")), (1, 1), "rank {rank}");
    }
}

/// Fiber stacks are 2 MiB, what a spawned thread had: a rank can hold a
/// mebibyte of locals.
#[test]
fn a_rank_can_use_a_mebibyte_of_stack() {
    let out = Cluster::homogeneous(3, NodeSpec::default()).run_spmd(|ctx| {
        let mut buf = [0u8; 1 << 20];
        std::hint::black_box(&mut buf);
        buf.fill(ctx.rank() as u8 + 1);
        // Suspend with the array live, so another rank's stack is in use
        // meanwhile.
        ctx.sleep(SimDur::from_millis(1));
        let _ = ctx.recv_timeout(None, 1, SimDur::from_millis(1));
        std::hint::black_box(&buf)
            .iter()
            .map(|&b| u64::from(b))
            .sum::<u64>()
    });
    for (pid, sum) in out.results.iter().enumerate() {
        assert_eq!(*sum, (pid as u64 + 1) << 20, "rank {pid}");
    }
}

/// Set in the child process of the test below, which runs the program that
/// must abort.
const ABORT_CHILD: &str = "DYNMPI_SIM_FIBER_ABORT_CHILD";

/// An engine call that gives up the turn from a `Drop` while its rank
/// unwinds would suspend the unwind, and every other rank would then run
/// "while panicking" on the shared thread: the process aborts instead, and
/// says which rank did it.
#[test]
fn suspending_while_unwinding_aborts_naming_the_rank() {
    if std::env::var_os(ABORT_CHILD).is_some() {
        struct ReceiveOnDrop<'a>(&'a dynmpi_sim::SimCtx);
        impl Drop for ReceiveOnDrop<'_> {
            fn drop(&mut self) {
                let _ = self.0.recv(0, 7); // never sent: blocks, hands off
            }
        }
        Cluster::homogeneous(2, NodeSpec::default()).run_spmd(|ctx| {
            if ctx.rank() == 1 {
                let _guard = ReceiveOnDrop(ctx);
                panic!("unwinding rank 1");
            }
            ctx.sleep(SimDur::from_millis(1));
        });
        return;
    }
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "suspending_while_unwinding_aborts_naming_the_rank",
            "--test-threads=1",
            "--nocapture",
        ])
        .env(ABORT_CHILD, "1")
        .output()
        .expect("run the child");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.signal(), Some(6), "SIGABRT expected: {stderr}");
    assert!(
        stderr.contains("rank 1 gave up the turn while unwinding"),
        "{stderr}"
    );
}
