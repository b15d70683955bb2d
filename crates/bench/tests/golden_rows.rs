//! The figure rows as a pin: every deterministic figure runs in-process
//! with `--quick`, and its JSONL rows are byte-compared with the file
//! committed under `results/quick/`. Virtual time is deterministic, so the
//! rows are the same in debug and release builds and at any `--threads`;
//! a change that moves one either meant to (re-bless with the `cp` the
//! failure prints, and say why in the PR) or broke the model. Fresh rows
//! land in `target/golden-rows/<bin>/` so CI can upload them when this fails.

use std::path::{Path, PathBuf};

use dynmpi_bench::figures::{self, Figure, JsonRow};
use dynmpi_obs::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `fig` as its binary would with `--quick --threads 2` and returns
/// the rows it wrote. The files were blessed at `--threads 1`; two sweep
/// workers let the long figures use the CPU the short ones leave idle at
/// the end of the run (≈ 13 s instead of ≈ 21 s on 2 vCPUs).
fn quick_rows<R: JsonRow>(fig: &Figure<R>) -> String {
    let bin = fig.name;
    let out_dir = repo_root().join("target/golden-rows").join(bin);
    fig.run([
        "--quick",
        "--threads",
        "2",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    std::fs::read_to_string(out_dir.join(format!("{bin}.jsonl")))
        .unwrap_or_else(|e| panic!("{bin} wrote no rows: {e}"))
}

fn assert_golden<R: JsonRow>(fig: &Figure<R>) {
    let bin = fig.name;
    let fresh = quick_rows(fig);
    let golden_path = repo_root().join(format!("results/quick/{bin}.jsonl"));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden_path.display()));
    if fresh == golden {
        return;
    }
    let line = fresh
        .lines()
        .zip(golden.lines())
        .position(|(f, g)| f != g)
        .unwrap_or_else(|| fresh.lines().count().min(golden.lines().count()));
    panic!(
        "{bin} --quick no longer reproduces results/quick/{bin}.jsonl; first difference at line {}:\n\
         golden: {}\n\
         fresh:  {}\n\
         if the rows were meant to move, re-bless from the repository root with\n  \
         cp target/golden-rows/{bin}/{bin}.jsonl results/quick/{bin}.jsonl",
        line + 1,
        golden.lines().nth(line).unwrap_or("<end of file>"),
        fresh.lines().nth(line).unwrap_or("<end of file>"),
    );
}

// One test per figure, so the harness runs them side by side.
macro_rules! golden {
    ($($fig:ident),* $(,)?) => {$(
        #[test]
        fn $fig() {
            assert_golden(&figures::$fig::FIGURE);
        }
    )*};
}

golden!(
    fig4_overall,
    fig5_redist_points,
    fig6_node_removal,
    fig7_grace_period,
    fig8_node_arrival,
    fig9_node_crash,
    ablation_balancer,
    ablation_drop_mode,
    ablation_monitor,
    tab_microbench,
);

/// `fig3_alloc` times real allocations with `Instant`, so only its shape
/// is pinned: three dense magnitudes × two schemes plus two sparse rows,
/// each with the same fields in the same order.
#[test]
fn fig3_alloc() {
    let rows = quick_rows(&figures::fig3_alloc::FIGURE);
    assert_eq!(rows.lines().count(), 8, "fig3_alloc row count:\n{rows}");
    for line in rows.lines() {
        let Ok(Json::Obj(fields)) = Json::parse(line) else {
            panic!("fig3_alloc row is not a JSON object: {line}");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "figure",
                "kind",
                "rows_total",
                "rows_moved",
                "scheme",
                "micros",
                "bytes_allocated",
                "bytes_copied"
            ],
            "{line}"
        );
    }
}
