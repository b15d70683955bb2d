//! Committed reference outputs, `reference/<workload>.seed<N>.json`.
//!
//! Seeds with a committed file are held to it; any other seed is held to
//! its own first repetition. Either way every repetition is compared.

use std::path::PathBuf;

use dynmpi_obs::Json;

use crate::workloads::{Observed, Workload};

pub fn path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{}.seed{seed}.json", workload.name()))
}

/// The committed reference for `(workload, seed)`, if there is one.
/// A file that exists but does not parse is an error, not a missing file.
pub fn load(workload: Workload, seed: u64) -> Result<Option<Json>, String> {
    let p = path(workload, seed);
    match std::fs::read_to_string(&p) {
        Ok(text) => Json::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e:?}", p.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", p.display())),
    }
}

pub fn bless(workload: Workload, seed: u64, observed: &Observed) -> Result<(), String> {
    let p = path(workload, seed);
    let write = || {
        std::fs::create_dir_all(p.parent().expect("reference path has a parent"))?;
        std::fs::write(&p, format!("{}\n", observed.to_json()))
    };
    write().map_err(|e| format!("{}: {e}", p.display()))
}

/// Path of the first place two documents differ, or `None` when equal.
pub fn first_difference(expected: &Json, got: &Json) -> Option<String> {
    fn walk(at: &str, expected: &Json, got: &Json) -> Option<String> {
        match (expected, got) {
            (Json::Obj(a), Json::Obj(b)) => {
                if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.0 != y.0) {
                    return Some(format!("{at}: keys differ"));
                }
                a.iter()
                    .zip(b)
                    .find_map(|(x, y)| walk(&format!("{at}.{}", x.0), &x.1, &y.1))
            }
            (Json::Arr(a), Json::Arr(b)) => {
                if a.len() != b.len() {
                    return Some(format!("{at}: {} items, expected {}", b.len(), a.len()));
                }
                a.iter()
                    .zip(b)
                    .enumerate()
                    .find_map(|(i, (x, y))| walk(&format!("{at}[{i}]"), x, y))
            }
            _ if expected == got => None,
            _ => Some(format!("{at}: got {got}, expected {expected}")),
        }
    }
    walk("$", expected, got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::RunOutputs;

    fn observed(makespan_ns: u64) -> Observed {
        Observed {
            runs: vec![RunOutputs {
                label: "run",
                makespan_ns,
                net_messages: 10,
                net_bytes: 5120,
                checksum_bits: Some(f64::to_bits(1.5)),
                event_kinds: vec!["load-change", "redistributed"],
            }],
            artifacts: vec![("chrome", u64::MAX - 1)],
        }
    }

    #[test]
    fn observed_round_trips_through_text_exactly() {
        let doc = observed(123_456_789).to_json();
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(first_difference(&back, &doc), None);
    }

    #[test]
    fn difference_names_the_field() {
        let a = observed(100).to_json();
        let b = observed(101).to_json();
        let d = first_difference(&a, &b).unwrap();
        assert!(d.starts_with("$.runs[0].makespan_ns"), "{d}");
        let mut short = observed(100);
        short.runs[0].event_kinds.pop();
        let d = first_difference(&a, &short.to_json()).unwrap();
        assert!(d.starts_with("$.runs[0].event_kinds"), "{d}");
    }
}
