//! Figure 5: multiple redistribution points — [`dynmpi_bench::figures::fig5_redist_points`].

fn main() {
    dynmpi_bench::figures::fig5_redist_points::FIGURE.main();
}
