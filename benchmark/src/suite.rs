//! One complete set of runs: every workload's child, the probes child,
//! and what is derived from several of them. Also the files a set leaves
//! behind: `out/trace.json`, `out/layers.json` and the ledger.

use std::io::Write;
use std::path::PathBuf;

use dynmpi_obs::Json;

use crate::host::{self, Fingerprint};
use crate::metrics::{
    unresolve_host_times, values_from_json, values_to_json, Scope, Value, Values, END_TO_END,
    PER_LAYER,
};
use crate::runner::{measure, spawn_child, Ask, Measurement};
use crate::spans::{self, Span};
use crate::workloads::Workload;

/// Time budget of the untraced repetitions when only per-layer metrics
/// are wanted: enough for the minimum repetition count.
pub const TRACE_SECONDS: f64 = 3.0;

/// Set-up-only process starts sampled per workload.
pub const SETUP_SAMPLES: usize = 40;

/// Probe value carrying the event count of the `adapt8` recording to the
/// parent, which needs it for `obs.rss_bytes_per_event`. Not a metric.
pub const AUX_ADAPT8_EVENTS: &str = "aux.adapt8_events";

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn ledger_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("history.jsonl")
}

/// What the probes child and the RSS pair measured: every per-layer
/// metric that is not read off the traced workload itself.
#[derive(Default)]
pub struct LayerPass {
    pub values: Values,
    pub spans: Vec<Span>,
    pub pinned: bool,
    pub errors: Vec<String>,
}

pub fn run_layer_pass(seed: u64) -> LayerPass {
    let mut pass = LayerPass::default();
    match spawn_child(&["probes".to_string(), "--seed".to_string(), seed.to_string()]) {
        Ok(out) => match out.line("probes") {
            Some(line) if out.exit_ok => {
                pass.pinned = line.get("pinned_cpu").and_then(Json::as_u64).is_some();
                pass.values = line
                    .get("metrics")
                    .and_then(values_from_json)
                    .unwrap_or_default();
                pass.spans = spans::from_json(line.get("spans"));
            }
            _ => pass.errors.push(if out.timed_out {
                "probes child exceeded the watchdog".to_string()
            } else {
                "probes child failed".to_string()
            }),
        },
        Err(e) => pass.errors.push(e),
    }

    // Memory per recorded event: two single-repetition children, one with
    // the sinks and exports, one bare, on the same inputs.
    let one_rep = Ask {
        cold_only: true,
        ..Ask::default()
    };
    let observed = measure(Workload::Adapt8Obs, seed, one_rep);
    let bare = measure(Workload::Adapt8Bare, seed, one_rep);
    pass.errors.extend(observed.errors.iter().cloned());
    pass.errors.extend(bare.errors.iter().cloned());
    let events = pass
        .values
        .remove(AUX_ADAPT8_EVENTS)
        .and_then(Value::as_f64)
        .filter(|n| *n > 0.0);
    let per_event = match (observed.peak_rss_kib, bare.peak_rss_kib, events) {
        (Some(o), Some(b), Some(n)) => Value::Num((o as f64 - b as f64) * 1024.0 / n),
        _ => Value::Unresolved,
    };
    pass.values
        .insert("obs.rss_bytes_per_event".to_string(), per_event);
    pass
}

/// One workload's share of a set.
pub struct WorkloadResult {
    pub workload: Workload,
    pub measurement: Measurement,
    /// End-to-end metrics (absent in a layers-only set).
    pub end_to_end: Values,
    /// Every per-layer metric that applies: read off this workload, or a
    /// differential whose home this workload is.
    pub per_layer: Values,
}

pub struct Suite {
    pub seed: u64,
    pub host: Fingerprint,
    /// The CPU the children pinned to; `None` if any could not pin.
    pub pinned_cpu: Option<usize>,
    pub workloads: Vec<WorkloadResult>,
    /// Micro-probe metrics, which belong to no workload, and differentials
    /// whose home workload is not in this set.
    pub probes: Values,
    pub spans: Vec<Span>,
    pub errors: Vec<String>,
}

pub struct SuiteAsk {
    pub seed: u64,
    pub seconds: f64,
    pub workloads: Vec<Workload>,
    /// Measure end-to-end metrics (full time budget, set-up samples).
    pub end_to_end: bool,
    /// Add the traced repetitions, the probes and the differentials.
    pub layers: bool,
    pub bless: bool,
    /// Report host-time metrics as unresolved when a child could not pin
    /// itself. The contract mode must print numbers and turns this off.
    pub unresolve_unpinned: bool,
}

impl Suite {
    pub fn run(ask: &SuiteAsk) -> Suite {
        let host = Fingerprint::read();
        let mut suite = Suite {
            seed: ask.seed,
            host,
            pinned_cpu: None,
            workloads: Vec::new(),
            probes: Values::new(),
            spans: Vec::new(),
            errors: Vec::new(),
        };
        let mut all_pinned = true;
        for &workload in &ask.workloads {
            eprintln!("benchmark: {} seed {} ...", workload.name(), ask.seed);
            let mut m = measure(
                workload,
                ask.seed,
                Ask {
                    seconds: if ask.end_to_end {
                        ask.seconds
                    } else {
                        TRACE_SECONDS.min(ask.seconds)
                    },
                    traced: ask.layers,
                    cold_only: false,
                    bless: ask.bless,
                    setup_samples: if ask.end_to_end { SETUP_SAMPLES } else { 0 },
                },
            );
            all_pinned &= m.pinned_cpu.is_some();
            suite.pinned_cpu = m.pinned_cpu;
            suite
                .errors
                .extend(m.errors.iter().map(|e| format!("{}: {e}", workload.name())));
            spans::merge(&mut suite.spans, std::mem::take(&mut m.spans));
            suite.workloads.push(WorkloadResult {
                workload,
                end_to_end: if ask.end_to_end {
                    m.end_to_end()
                } else {
                    Values::new()
                },
                per_layer: std::mem::take(&mut m.layer_metrics),
                measurement: m,
            });
        }
        if ask.layers {
            eprintln!("benchmark: probes and differential runs ...");
            let pass = run_layer_pass(ask.seed);
            all_pinned &= pass.pinned;
            suite
                .errors
                .extend(pass.errors.iter().map(|e| format!("probes: {e}")));
            spans::merge(&mut suite.spans, pass.spans);
            for def in PER_LAYER {
                let Some(value) = pass.values.get(def.name) else {
                    continue;
                };
                match def.scope {
                    // A differential belongs to its home workload's row;
                    // when that workload is not in this set it is listed
                    // with the probes.
                    Scope::Home(home) => {
                        match suite.workloads.iter_mut().find(|w| w.workload == home) {
                            Some(w) => w.per_layer.insert(def.name.to_string(), *value),
                            None => suite.probes.insert(def.name.to_string(), *value),
                        };
                    }
                    Scope::Probe => {
                        suite.probes.insert(def.name.to_string(), *value);
                    }
                    Scope::Workload => {}
                }
            }
        }
        if !all_pinned {
            suite.pinned_cpu = None;
        }
        if !all_pinned && ask.unresolve_unpinned {
            eprintln!(
                "benchmark: could not pin to one CPU; host-time metrics are reported as unresolved"
            );
            for w in &mut suite.workloads {
                unresolve_host_times(&mut w.end_to_end);
                unresolve_host_times(&mut w.per_layer);
            }
            unresolve_host_times(&mut suite.probes);
        }
        suite
    }

    pub fn reps_failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.measurement.failed).sum()
    }

    pub fn ok(&self) -> bool {
        self.reps_failed() == 0 && self.errors.is_empty()
    }

    fn header(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("seed", Json::UInt(self.seed)),
            ("host", self.host.to_json()),
            ("pinned_cpu", host::cpu_json(self.pinned_cpu)),
        ]
    }

    /// Prints every metric by name with unit, sample count and bound.
    pub fn print(&self) {
        let pin = self
            .pinned_cpu
            .map_or("not pinned".to_string(), |c| format!("pinned to CPU {c}"));
        println!(
            "host: {} x {} | kernel {} | {} | commit {} | seed {}",
            self.host.nproc,
            self.host.cpu_model,
            self.host.kernel,
            pin,
            self.host.commit,
            self.seed
        );
        if self.workloads.iter().any(|w| !w.end_to_end.is_empty()) {
            println!("\n== end-to-end ==");
            println!(
                "{:<16} {:<16} {:>14} {:<5} {:<6} {:>7}  bound",
                "workload", "metric", "value", "unit", "better", "samples"
            );
            for w in &self.workloads {
                let m = &w.measurement;
                for def in &END_TO_END {
                    let samples = match def.name {
                        "wall_s" => m.timed_walls().len(),
                        "setup_s" => m.setup_s.len(),
                        _ => 1,
                    };
                    let value = w
                        .end_to_end
                        .get(def.name)
                        .map_or("missing".to_string(), Value::to_string);
                    let bound = if def.exact {
                        "identical for one seed".to_string()
                    } else if def.floor > 0.0 {
                        format!("{:.0} % or {} {}", def.bound * 100.0, def.floor, def.unit)
                    } else {
                        format!("{:.0} %", def.bound * 100.0)
                    };
                    println!(
                        "{:<16} {:<16} {:>14} {:<5} {:<6} {:>7}  {}",
                        w.workload.name(),
                        def.name,
                        value,
                        def.unit,
                        def.better.name(),
                        samples,
                        bound
                    );
                }
                println!(
                    "{:<16} reps_attempted {} reps_failed {}",
                    w.workload.name(),
                    m.attempted,
                    m.failed
                );
            }
        }
        if self.workloads.iter().any(|w| !w.per_layer.is_empty()) {
            println!("\n== per-layer, by workload (exact = repeats bit for bit) ==");
            for w in &self.workloads {
                for def in PER_LAYER {
                    if let Some(v) = w.per_layer.get(def.name) {
                        println!(
                            "{:<16} {:<40} {:>16} {:<6} {:<6}{}",
                            w.workload.name(),
                            def.name,
                            v.to_string(),
                            def.unit,
                            def.better.name(),
                            if def.exact { " exact" } else { "" }
                        );
                    }
                }
            }
            println!("\n== per-layer, probes and other workloads' differentials ==");
            for def in PER_LAYER {
                if let Some(v) = self.probes.get(def.name) {
                    println!(
                        "{:<57} {:>16} {:<6} {}",
                        def.name,
                        v.to_string(),
                        def.unit,
                        def.better.name()
                    );
                }
            }
        }
        for e in &self.errors {
            println!("FAILED: {e}");
        }
    }

    /// Writes the spans as a Chrome trace and the per-layer metrics with
    /// span self times. Returns the two paths.
    pub fn write_out(&self) -> std::io::Result<(PathBuf, PathBuf)> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let trace = dir.join("trace.json");
        std::fs::write(&trace, format!("{}\n", spans::chrome_trace(&self.spans)))?;

        let self_ns = spans::self_times(&self.spans);
        let span_rows = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, own)| {
                let Json::Obj(mut fields) = s.to_json() else {
                    unreachable!("a span serializes to an object");
                };
                fields.push(("self_ns".to_string(), Json::UInt(*own)));
                Json::Obj(fields)
            })
            .collect();
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                (
                    w.workload.name().to_string(),
                    Json::obj([
                        ("end_to_end", values_to_json(&w.end_to_end)),
                        ("per_layer", values_to_json(&w.per_layer)),
                        ("reps_attempted", Json::UInt(w.measurement.attempted)),
                        ("reps_failed", Json::UInt(w.measurement.failed)),
                    ]),
                )
            })
            .collect();
        let units = PER_LAYER
            .iter()
            .map(|l| (l.name.to_string(), Json::str(l.unit)))
            .collect();
        let mut doc = self.header();
        doc.extend([
            ("workloads", Json::Obj(workloads)),
            ("probes", values_to_json(&self.probes)),
            ("units", Json::Obj(units)),
            ("spans", Json::Arr(span_rows)),
        ]);
        let layers = dir.join("layers.json");
        std::fs::write(&layers, format!("{}\n", Json::obj(doc)))?;
        Ok((trace, layers))
    }

    /// One ledger row per workload, plus one for the probes.
    pub fn ledger_rows(&self) -> Vec<Json> {
        let row = |name: &str, metrics: Values| {
            let mut fields = vec![("workload", Json::str(name))];
            fields.extend(self.header());
            fields.push(("metrics", values_to_json(&metrics)));
            Json::obj(fields)
        };
        let mut rows: Vec<Json> = self
            .workloads
            .iter()
            .map(|w| {
                let mut metrics = w.end_to_end.clone();
                metrics.extend(w.per_layer.clone());
                row(w.workload.name(), metrics)
            })
            .collect();
        if !self.probes.is_empty() {
            rows.push(row("probes", self.probes.clone()));
        }
        rows
    }
}

/// Appends `rows` to the ledger; never rewrites what is there.
pub fn append_ledger(rows: &[Json]) -> std::io::Result<PathBuf> {
    let path = ledger_path();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    f.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite_with(failed: u64) -> Suite {
        Suite {
            seed: 1,
            host: Fingerprint {
                nproc: 2,
                cpu_model: "test".to_string(),
                kernel: "test".to_string(),
                commit: "unknown".to_string(),
            },
            pinned_cpu: Some(1),
            workloads: vec![WorkloadResult {
                workload: Workload::Ring64,
                measurement: Measurement {
                    attempted: 4,
                    failed,
                    ..Measurement::default()
                },
                end_to_end: Values::from([("wall_s".to_string(), Value::Num(1.5))]),
                per_layer: Values::from([("sim.engine.events".to_string(), Value::Count(9))]),
            }],
            probes: Values::from([("sim.net.model_ns_per_msg".to_string(), Value::Num(14.0))]),
            spans: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// `run` exits with `ok()`: one failed repetition is a non-zero exit.
    #[test]
    fn a_failed_repetition_fails_the_set() {
        assert!(suite_with(0).ok());
        assert!(!suite_with(1).ok());
        let mut named = suite_with(0);
        named.errors.push("probes: probes child failed".to_string());
        assert!(!named.ok());
    }

    #[test]
    fn ledger_rows_carry_host_seed_and_all_metrics() {
        let rows = suite_with(0).ledger_rows();
        assert_eq!(rows.len(), 2);
        let text = rows[0].to_string();
        let back = Json::parse(&text).expect("a ledger row is valid JSON");
        assert_eq!(back.get("workload").and_then(Json::as_str), Some("ring64"));
        assert_eq!(back.get("seed").and_then(Json::as_u64), Some(1));
        assert_eq!(
            back.get("host")
                .and_then(|h| h.get("commit"))
                .and_then(Json::as_str),
            Some("unknown")
        );
        let metrics = back.get("metrics").and_then(values_from_json).unwrap();
        assert_eq!(metrics["wall_s"], Value::Num(1.5));
        assert_eq!(metrics["sim.engine.events"], Value::Count(9));
        assert_eq!(
            rows[1].get("workload").and_then(Json::as_str),
            Some("probes")
        );
    }
}
