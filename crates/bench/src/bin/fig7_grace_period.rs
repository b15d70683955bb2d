//! Figure 7: grace-period length under nonuniform iterations — [`dynmpi_bench::figures::fig7_grace_period`].

fn main() {
    dynmpi_bench::figures::fig7_grace_period::FIGURE.main();
}
