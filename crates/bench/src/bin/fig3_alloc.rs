//! Figure 3 / §4.1: projection vs contiguous allocation — [`dynmpi_bench::figures::fig3_alloc`].

fn main() {
    dynmpi_bench::figures::fig3_alloc::FIGURE.main();
}
