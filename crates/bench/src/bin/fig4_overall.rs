//! Figure 4: overall results — [`dynmpi_bench::figures::fig4_overall`].

fn main() {
    dynmpi_bench::figures::fig4_overall::FIGURE.main();
}
