//! Figure 9 (extension): fail-stop node crash — [`dynmpi_bench::figures::fig9_node_crash`].

fn main() {
    dynmpi_bench::figures::fig9_node_crash::FIGURE.main();
}
