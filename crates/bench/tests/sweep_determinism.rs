//! Pins the contract the figure harnesses rely on: running the same
//! configuration sweep through `dynmpi_testkit::sweep` at any thread
//! count yields byte-identical JSONL rows. Runs the real quick fig4 sweep
//! (its Jacobi arms, three sims per item) at `--threads 1` and `8`.

use dynmpi_bench::figures::{fig4_overall, JsonRow};
use dynmpi_bench::BenchArgs;

fn sweep_jsonl(threads: &str) -> String {
    let fig = &fig4_overall::FIGURE;
    let args = BenchArgs::parse_from(
        fig.name,
        fig.honours,
        ["--quick", "--only", "jacobi", "--threads", threads],
    );
    (fig.rows)(&args, &args.instrumentation())
        .iter()
        .map(|row| format!("{}\n", row.to_json()))
        .collect()
}

#[test]
fn fig_sweep_rows_are_byte_identical_across_thread_counts() {
    let serial = sweep_jsonl("1");
    let par = sweep_jsonl("8");
    assert_eq!(serial, par, "JSONL rows differ between --threads 1 and 8");
    // Sanity: the sweep actually produced one row per configuration.
    assert_eq!(serial.lines().count(), 3);
}
