//! Ablation: successive balancing vs relative power — [`dynmpi_bench::figures::ablation_balancer`].

fn main() {
    dynmpi_bench::figures::ablation_balancer::FIGURE.main();
}
