//! Rules about what the source tree holds: forms that a design decision
//! removed must stay gone, and a definition that must stay single stays
//! single. Each row names the lines to look for (any of the literal
//! alternatives), where to look, how many matching lines the tree may
//! hold, and the DESIGN.md section that says why. A failure names every
//! offending file and line.

use std::path::{Path, PathBuf};

struct Rule {
    /// Literal alternatives: a line matches if it contains any of them.
    pattern: &'static [&'static str],
    /// Files or directories, relative to the repository root.
    paths: &'static [&'static str],
    /// The exact number of matching lines the tree holds.
    count: usize,
    /// The DESIGN.md section that the rule holds.
    section: &'static str,
    /// A line of the form the rule is there to catch.
    example: &'static str,
}

impl Rule {
    fn matches(&self, line: &str) -> bool {
        self.pattern.iter().any(|p| line.contains(p))
    }
}

const RULES: &[Rule] = &[
    // Apps make no raw `Transport` call: every in-phase exchange and the
    // cycle loop are the runtime's, so crash safety lives there.
    Rule {
        pattern: &["CommOps"],
        paths: &["crates/apps/src"],
        count: 0,
        section: "§5 Applications, §14 Fault model & recovery",
        example: "use dynmpi_comm::CommOps;",
    },
    // One judged run: the checksum tolerance is defined once, and the
    // apps' tests compare engines through `Engines::Both`.
    Rule {
        pattern: &["fn checksums_close"],
        paths: &["crates"],
        count: 1,
        section: "§5 Applications, §8 Testing strategy",
        example: "pub fn checksums_close(a: f64, b: f64) -> bool {",
    },
    Rule {
        pattern: &["with_stepped(true)"],
        paths: &["crates/apps/tests"],
        count: 0,
        section: "§5 Applications, §8 Testing strategy",
        example: "let cluster = Cluster::new(4).with_stepped(true);",
    },
    // A layout is a block: no cyclic distribution, no strided or
    // constant-bound section until a caller needs one.
    Rule {
        pattern: &["Cyclic", "fn strided", "Bound::Const", "fn fixed"],
        paths: &["crates/core/src"],
        count: 0,
        section: "§4 Core",
        example: "    Cyclic { block: usize },",
    },
    // Rows are ranges: every transfer leg, keep range and checkpoint
    // snapshot is one `Range<usize>`.
    Rule {
        pattern: &["RowSet"],
        paths: &["crates", "examples", "tests", "src"],
        count: 0,
        section: "§4 Core",
        example: "pub struct RowSet(Vec<usize>);",
    },
    // A recording is its encoded runs: each flushed rank scope is one
    // sorted varint stream, not blocks of whole events.
    Rule {
        pattern: &["BLOCK_EVENTS", "Vec<Vec<TraceEvent>>"],
        paths: &["crates/obs/src"],
        count: 0,
        section: "§10 Observability",
        example: "const BLOCK_EVENTS: usize = 4_096;",
    },
    // A receive scans only its sender's lane, not the whole box.
    Rule {
        pattern: &["pending: Vec<Envelope>"],
        paths: &["crates/sim/src/mailbox.rs"],
        count: 0,
        section: "§2 Substrate: dynmpi-sim",
        example: "    pending: Vec<Envelope>,",
    },
    // One event path: sinks fold each flushed run after the fact, so
    // there is no flush hook, no live progress, no redraw thread, and no
    // Chrome parser.
    Rule {
        pattern: &[
            "on_rank_flush",
            "fn progress",
            "watch_thread",
            "watch_stop",
            "parse_chrome_trace",
            "ParsedEvent",
        ],
        paths: &["crates"],
        count: 0,
        section: "§10 Observability, §11 Online monitoring & alerting",
        example: "    fn on_rank_flush(&self, _rank: usize) {}",
    },
];

fn files_under(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|entry| entry.expect("a directory entry").path())
            .collect();
        entries.sort();
        for entry in entries {
            files_under(&entry, out);
        }
    } else {
        out.push(path.to_path_buf());
    }
}

/// Every line under `rule.paths` that `rule` matches, as `file:line: text`.
/// This file is skipped: its table spells out every form it looks for.
fn offending_lines(root: &Path, rule: &Rule) -> Vec<String> {
    let this_file = root.join(file!());
    let mut files = Vec::new();
    for path in rule.paths {
        let path = root.join(path);
        assert!(path.exists(), "{}: no such path", path.display());
        files_under(&path, &mut files);
    }
    let mut found = Vec::new();
    for file in files.iter().filter(|f| **f != this_file) {
        let bytes = std::fs::read(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let text = String::from_utf8_lossy(&bytes);
        for (n, line) in text.lines().enumerate() {
            if rule.matches(line) {
                let name = file.strip_prefix(root).unwrap_or(file).display();
                found.push(format!("{name}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    found
}

#[test]
fn the_tree_keeps_its_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    for rule in RULES {
        let found = offending_lines(root, rule);
        if found.len() != rule.count {
            broken.push(format!(
                "`{}` in {:?}: {} matching lines, the rule allows exactly {} \
                 (DESIGN.md {}):\n  {}",
                rule.pattern.join("|"),
                rule.paths,
                found.len(),
                rule.count,
                rule.section,
                found.join("\n  "),
            ));
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn every_rule_catches_its_example() {
    for rule in RULES {
        assert!(
            rule.matches(rule.example),
            "`{}` misses its own example {:?}",
            rule.pattern.join("|"),
            rule.example
        );
    }
}
