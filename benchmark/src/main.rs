//! Host-cost benchmark of the Dyn-MPI reproduction.
//!
//! ```text
//! benchmark run       [--seed N] [--seconds S] [--workload W] [--record] [--bless]
//! benchmark trace     [--seed N] [--workload W]
//! benchmark selfcheck [--seed N] [--seconds S]
//! benchmark figures   [--record]
//! benchmark contract  --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` measures every workload end to end and per layer, checks every
//! repetition's outputs, prints every metric and writes `out/trace.json`
//! and `out/layers.json`. `trace` does the per-layer part only.
//! `selfcheck` runs the set twice and holds the pair to the benchmark's
//! own bounds. `contract` is what `BENCHMARK.json` names: one workload,
//! one JSON object on the last line. See `README.md`.

mod child;
mod figures;
mod host;
mod metrics;
mod probes;
mod reference;
mod runner;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;
use std::str::FromStr;

use dynmpi_obs::Json;

use metrics::{Value, Values, END_TO_END, PER_LAYER};
use suite::{Suite, SuiteAsk};
use workloads::Workload;

/// Default time budget of one workload's timed repetitions, seconds;
/// `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: f64 = 10.0;

/// `--name value` pairs and bare `--flags` after the subcommand.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        self.0
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value"))
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.value::<String>("--workload")? {
            None => Ok(None),
            Some(name) => Workload::parse(&name)
                .map(Some)
                .ok_or_else(|| format!("unknown workload {name}")),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        Ok(self.workload()?.map_or(Workload::ALL.to_vec(), |w| vec![w]))
    }
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_rep(args: &[String]) -> Result<ExitCode, String> {
    let workload = args
        .first()
        .and_then(|n| Workload::parse(n))
        .ok_or("rep needs a workload name")?;
    let flags = Flags(&args[1..]);
    let ok = child::run(&child::RepArgs {
        workload,
        seed: flags.value("--seed")?.unwrap_or(1),
        seconds: flags.value("--seconds")?.unwrap_or(RUN_SECONDS),
        spawned_at_ns: flags.value("--spawned-at-ns")?,
        traced: flags.has("--traced"),
        setup_only: flags.has("--setup-only"),
        cold_only: flags.has("--cold-only"),
        bless: flags.has("--bless"),
    });
    Ok(exit(ok))
}

fn write_out(suite: &Suite) -> bool {
    match suite.write_out() {
        Ok((trace, layers)) => {
            eprintln!(
                "benchmark: wrote {} and {}",
                trace.display(),
                layers.display()
            );
            true
        }
        Err(e) => {
            eprintln!("benchmark: cannot write trace files: {e}");
            false
        }
    }
}

fn cmd_run(flags: &Flags, end_to_end: bool) -> Result<ExitCode, String> {
    let suite = Suite::run(&SuiteAsk {
        seed: flags.value("--seed")?.unwrap_or(1),
        seconds: flags.value("--seconds")?.unwrap_or(RUN_SECONDS),
        workloads: flags.workloads()?,
        end_to_end,
        layers: true,
        bless: flags.has("--bless"),
        unresolve_unpinned: true,
    });
    suite.print();
    let mut ok = suite.ok() & write_out(&suite);
    if flags.has("--record") && ok {
        match suite::append_ledger(&suite.ledger_rows()) {
            Ok(path) => eprintln!("benchmark: appended to {}", path.display()),
            Err(e) => {
                eprintln!("benchmark: cannot append to the ledger: {e}");
                ok = false;
            }
        }
    }
    Ok(exit(ok))
}

/// Prints both sets' values per (metric, workload) and decides whether
/// the pair agrees within the benchmark's own bounds.
fn compare_sets(a: &Suite, b: &Suite) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "first", "second", "diff"
    );
    let mut exact_compared = 0;
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        for def in &END_TO_END {
            let (va, vb) = (wa.end_to_end.get(def.name), wb.end_to_end.get(def.name));
            let pair = va
                .copied()
                .and_then(Value::as_f64)
                .zip(vb.copied().and_then(Value::as_f64));
            let (diff, verdict) = match pair {
                None => (f64::NAN, "unresolved"),
                Some((x, y)) if def.exact => (
                    stats::rel_diff(x, y),
                    if x.to_bits() == y.to_bits() {
                        "identical"
                    } else {
                        "DIFFERS"
                    },
                ),
                Some((x, y)) => {
                    let d = stats::rel_diff(x, y);
                    let within = d.abs() <= def.bound || (y - x).abs() <= def.floor;
                    (
                        d,
                        if within {
                            "within bound"
                        } else {
                            "OUTSIDE BOUND"
                        },
                    )
                }
            };
            ok &= matches!(verdict, "identical" | "within bound");
            let show = |v: Option<&Value>| v.map_or("missing".to_string(), Value::to_string);
            println!(
                "{:<16} {:<16} {:>14} {:>14} {:>+8.2}%  {}",
                wa.workload.name(),
                def.name,
                show(va),
                show(vb),
                diff * 100.0,
                verdict
            );
        }
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let (va, vb) = (wa.per_layer.get(def.name), wb.per_layer.get(def.name));
            if va.is_none() && vb.is_none() {
                continue;
            }
            exact_compared += 1;
            if va != vb {
                ok = false;
                println!(
                    "{:<16} {:<40} {:?} vs {:?}  DIFFERS",
                    wa.workload.name(),
                    def.name,
                    va,
                    vb
                );
            }
        }
    }
    println!("exact per-layer metrics compared: {exact_compared}");
    ok
}

fn cmd_selfcheck(flags: &Flags) -> Result<ExitCode, String> {
    let ask = SuiteAsk {
        seed: flags.value("--seed")?.unwrap_or(1),
        seconds: flags.value("--seconds")?.unwrap_or(RUN_SECONDS),
        workloads: flags.workloads()?,
        end_to_end: true,
        layers: true,
        bless: false,
        unresolve_unpinned: true,
    };
    let first = Suite::run(&ask);
    let second = Suite::run(&ask);
    first.print();
    println!("\n== selfcheck: two sets of the same commit ==");
    let agree = compare_sets(&first, &second);
    for e in first.errors.iter().chain(&second.errors) {
        println!("FAILED: {e}");
    }
    let ok = agree && first.ok() && second.ok();
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(exit(ok))
}

/// The mode `BENCHMARK.json` names. Prints one JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics` as the last line.
fn cmd_contract(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.workload()?.ok_or("--workload is required")?;
    let seed: u64 = flags.value("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = flags.value("--seconds")?.ok_or("--seconds is required")?;
    let traced = match flags.value::<u8>("--trace")? {
        Some(0) => false,
        Some(1) => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };

    let suite = Suite::run(&SuiteAsk {
        seed,
        seconds,
        workloads: vec![workload],
        end_to_end: !traced,
        layers: traced,
        bless: false,
        unresolve_unpinned: false,
    });
    if suite.pinned_cpu.is_none() {
        eprintln!("benchmark: could not pin to one CPU; host times include scheduler noise");
    }
    if traced {
        write_out(&suite);
    }
    let w = &suite.workloads[0];
    let m = &w.measurement;
    let mut errors = suite.errors.clone();
    let (values, wanted): (Values, Vec<(&str, &str)>) = if traced {
        let mut values = suite.probes.clone();
        values.extend(w.per_layer.clone());
        (values, PER_LAYER.iter().map(|l| (l.name, l.unit)).collect())
    } else {
        (
            w.end_to_end.clone(),
            END_TO_END.iter().map(|e| (e.name, e.unit)).collect(),
        )
    };

    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        // The contract wants a number for every metric. One that this
        // host cannot measure (an unpinned arm on a one-CPU host) is
        // printed as 0 and named on standard error.
        let value = match values.get(name).copied() {
            Some(v @ (Value::Count(_) | Value::Num(_))) => v.to_json(),
            Some(Value::Unresolved) => {
                eprintln!("benchmark: {name} is unresolved on this host; printed as 0");
                Json::UInt(0)
            }
            None => {
                errors.push(format!("{name} was not measured"));
                continue;
            }
        };
        metrics.push((
            name.to_string(),
            Json::obj([("value", value), ("unit", Json::str(unit))]),
        ));
    }
    for e in &errors {
        eprintln!("benchmark: FAILED: {e}");
    }
    let correct = m.failed == 0 && errors.is_empty();
    println!("{}", contract_line(correct, m.attempted, m.failed, metrics));
    Ok(exit(correct))
}

/// The contract's result object: exactly these four keys.
fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted.max(1))),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args.get(1..).unwrap_or(&[]));
    match args.first().map(String::as_str) {
        Some("rep") => cmd_rep(&args[1..]),
        Some("probes") => Ok(exit(probes::run(flags.value("--seed")?.unwrap_or(1)))),
        Some("run") => cmd_run(&flags, true),
        Some("trace") => cmd_run(&flags, false),
        Some("selfcheck") => cmd_selfcheck(&flags),
        Some("figures") => figures::run(flags.has("--record")).map(exit),
        Some("figure") => {
            figures::run_one(args.get(1).ok_or("figure needs a binary path")?).map(exit)
        }
        Some("contract") => cmd_contract(&flags),
        _ => Err(
            "usage: benchmark run|trace|selfcheck|figures|contract [flags] (see README.md)"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_round_trips_with_exactly_four_keys() {
        let metric = Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("s"))]);
        let line = contract_line(true, 0, 0, vec![("wall_s".to_string(), metric)]);
        let back = Json::parse(&line.to_string()).expect("valid JSON");
        assert_eq!(back, line);
        let keys: Vec<&str> = back.to_map().unwrap().into_keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        // `attempted` is at least 1 even when the child never started.
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(1));
        let value = back.get("metrics").and_then(|m| m.get("wall_s"));
        assert_eq!(
            value.and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(1.2034)
        );
    }

    #[test]
    fn flags_parse_values_and_reject_junk() {
        let args: Vec<String> = ["--seed", "7", "--record", "--workload", "crash8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags(&args);
        assert_eq!(flags.value::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(flags.value::<u64>("--seconds"), Ok(None));
        assert!(flags.has("--record") && !flags.has("--bless"));
        assert_eq!(flags.workload(), Ok(Some(Workload::Crash8)));
        let bad: Vec<String> = ["--seed", "x"].iter().map(|s| s.to_string()).collect();
        assert!(Flags(&bad).value::<u64>("--seed").is_err());
    }
}
