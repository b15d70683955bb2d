//! §4.3 micro-benchmark table — [`dynmpi_bench::figures::tab_microbench`].

fn main() {
    dynmpi_bench::figures::tab_microbench::FIGURE.main();
}
