//! Ablation: physical vs logical node dropping — [`dynmpi_bench::figures::ablation_drop_mode`].

fn main() {
    dynmpi_bench::figures::ablation_drop_mode::FIGURE.main();
}
