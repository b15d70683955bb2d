//! Figure 6: node removal — [`dynmpi_bench::figures::fig6_node_removal`].

fn main() {
    dynmpi_bench::figures::fig6_node_removal::FIGURE.main();
}
