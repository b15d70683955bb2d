//! Figure 8 (extension): true node arrival — [`dynmpi_bench::figures::fig8_node_arrival`].

fn main() {
    dynmpi_bench::figures::fig8_node_arrival::FIGURE.main();
}
