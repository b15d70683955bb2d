//! Ablation: `dmpi_ps` vs `vmstat` load measurement — [`dynmpi_bench::figures::ablation_monitor`].

fn main() {
    dynmpi_bench::figures::ablation_monitor::FIGURE.main();
}
