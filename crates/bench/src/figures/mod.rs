//! The paper's evaluation (§5) as a library: one module per figure, table
//! or ablation. Each exposes its typed `Row`, `rows(&BenchArgs,
//! &Instrumentation) -> Vec<Row>` (the sweep), `print(&[Row])` (the table
//! and the paper-shape summary on stdout), and a `FIGURE` naming the
//! binary and the optional flags it honours. [`Figure::main`] is the whole
//! binary, so `src/bin/<name>.rs` is a shim over it; the golden-row and
//! sweep-determinism tests call the same functions in-process.

use std::path::Path;

use dynmpi_obs::Json;

use crate::{log_error, validate_out_path, write_rows, BenchArgs, Honours, Instrumentation};

/// Declares a figure's `Row` and its [`JsonRow`] form from one field
/// list: the JSON object carries the fields in declaration order.
macro_rules! row {
    ($($(#[$doc:meta])* $field:ident: $ty:ty,)*) => {
        /// One line of the figure's `<name>.jsonl`.
        #[derive(Clone, Debug, PartialEq)]
        pub struct Row {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl $crate::figures::JsonRow for Row {
            fn to_json(&self) -> dynmpi_obs::Json {
                use $crate::figures::Cell;
                dynmpi_obs::Json::obj([$((stringify!($field), self.$field.cell()),)*])
            }
        }
    };
}

pub mod ablation_balancer;
pub mod ablation_drop_mode;
pub mod ablation_monitor;
pub mod fig3_alloc;
pub mod fig4_overall;
pub mod fig5_redist_points;
pub mod fig6_node_removal;
pub mod fig7_grace_period;
pub mod fig8_node_arrival;
pub mod fig9_node_crash;
pub mod tab_microbench;

/// A figure row as one JSONL object.
pub trait JsonRow {
    fn to_json(&self) -> Json;
}

/// A row field's JSON value: integers as `UInt`, floats as `Num`.
pub(crate) trait Cell {
    fn cell(&self) -> Json;
}

/// Implements [`Cell`] for each type with the given conversion.
macro_rules! cell {
    ($($ty:ty => |$v:ident| $json:expr;)*) => {$(
        impl Cell for $ty {
            fn cell(&self) -> Json {
                let $v = *self;
                $json
            }
        }
    )*};
}

cell! {
    f64 => |v| Json::Num(v);
    u64 => |v| Json::UInt(v);
    u32 => |v| Json::UInt(u64::from(v));
    usize => |v| Json::UInt(v as u64);
    bool => |v| Json::Bool(v);
    &'static str => |v| Json::str(v);
}

/// A serial, uninstrumented table: no optional flag.
const PLAIN: Honours = Honours {
    only: false,
    shards: false,
    instrumentation: false,
};

/// A simulated sweep: `--shards` and the instrumentation flags.
const SIM: Honours = Honours {
    shards: true,
    instrumentation: true,
    ..PLAIN
};

/// A simulated sweep whose runs are not sharded: the instrumentation flags.
const UNSHARDED: Honours = Honours {
    shards: false,
    ..SIM
};

/// Steady-state cycle time after adaptation settled: the marginal rate
/// between a long and a short run of the same experiment, immune to
/// warm-up, grace periods and per-rank anchor shifts.
fn settled_cycle(short: f64, long: f64, extra_cycles: usize) -> f64 {
    (long - short) / extra_cycles as f64
}

/// One figure of the evaluation: its binary, the flags it honours, its
/// sweep and its printout.
pub struct Figure<R> {
    /// The binary's name, and the stem of its rows file
    /// `<--out>/<name>.jsonl`.
    pub name: &'static str,
    pub honours: Honours,
    pub rows: fn(&BenchArgs, &Instrumentation) -> Vec<R>,
    pub print: fn(&[R]),
}

impl<R: JsonRow> Figure<R> {
    /// The binary, on the process's command line.
    pub fn main(&self) {
        self.run(std::env::args().skip(1));
    }

    /// Parse → rows → print → write the rows → write the instrumentation
    /// outputs. A flag the figure would ignore, or an unwritable `--out`,
    /// exits 2 before anything is simulated.
    pub fn run<S: Into<String>>(&self, argv: impl IntoIterator<Item = S>) {
        let args = BenchArgs::parse_from(self.name, self.honours, argv);
        let rows_file = Path::new(&args.out_dir).join(format!("{}.jsonl", self.name));
        validate_out_path("--out", &rows_file.to_string_lossy());
        let inst = args.instrumentation();
        let rows = (self.rows)(&args, &inst);
        if rows.is_empty() {
            log_error!("--only matched no {} configuration", self.name);
            std::process::exit(2);
        }
        (self.print)(&rows);
        let json: Vec<Json> = rows.iter().map(JsonRow::to_json).collect();
        if let Err(e) = write_rows(&args.out_dir, self.name, &json) {
            log_error!("cannot write {}: {e}", rows_file.display());
            std::process::exit(1);
        }
        inst.finish();
    }
}
