//! The prose docs must not go stale: every repo path they name exists, every
//! `path:line` reference lies inside its file, and no name from the deleted
//! list below appears in them.
//!
//! Checked: `README.md`, `DESIGN.md`, `EXPERIMENTS.md`, `docs/*.md` and the
//! verify skill (`.claude/skills/verify/SKILL.md`). A path counts when it
//! starts at one of the repo's top-level directories (`crates/`, `tests/`,
//! …); paths with a glob or placeholder (`results/BENCH_*.json`,
//! `results/<dir>/`) are templates and are skipped. Under `results/` only
//! the committed files count — the goldens in `results/quick/` and the
//! `BENCH_*.json` reports — plus a figure output whose golden has the same
//! path under `results/quick/`, and the few outputs in [`GENERATED`], since
//! everything else there is written by a run.

use std::fs;
use std::path::{Path, PathBuf};

/// Names of deleted API, commands, options and benches. A change that
/// deletes one adds it here, so a doc that still names it fails.
const DELETED_NAMES: &[&str] = &[
    "with_workspace",
    "pattern_signature",
    "stamp_signature",
    "partition_signature",
    "cell_nodes",
    "with_sim",
    "timings_enabled",
    "diff_below",
    "history check",
    "TFET_BENCH_QUICK",
    "transient_with",
    "array_throughput",
];

/// Outputs that a run writes under `results/` and no golden names.
const GENERATED: &[&str] = &[
    // `tfet_obs::forensics::DEFAULT_DIR`
    "results/diagnostics/",
    // `examples/run_report.rs`
    "results/run_report.json",
    // `examples/trace_array.rs`
    "results/trace_array",
];

/// The repo's top-level directories: a path in the docs starts at one.
const ROOTS: &[&str] = &[
    ".claude/",
    "crates/",
    "docs/",
    "examples/",
    "perfbench/",
    "results/",
    "scripts/",
    "tests/",
    "vendor/",
];

/// A repo path named in a doc, with the line range it cites, if any.
#[derive(Debug, PartialEq)]
struct PathRef {
    path: String,
    lines: Option<(usize, usize)>,
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-')
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Parses `:N`, `:N-M` or `:N–M` at the start of `s`.
fn line_range(s: &str) -> Option<(usize, usize)> {
    fn digits(t: &str) -> Option<(usize, &str)> {
        let end = t.find(|c: char| !c.is_ascii_digit()).unwrap_or(t.len());
        t[..end].parse().ok().map(|n| (n, &t[end..]))
    }
    let (first, rest) = digits(s.strip_prefix(':')?)?;
    let last = rest
        .strip_prefix('-')
        .or_else(|| rest.strip_prefix('–'))
        .and_then(digits)
        .map_or(first, |(n, _)| n);
    Some((first, last))
}

/// Every repo path `line` names, templates skipped.
fn path_refs(line: &str) -> Vec<PathRef> {
    let mut refs = Vec::new();
    let mut from = 0;
    while from < line.len() {
        let Some((start, root)) = ROOTS
            .iter()
            .filter_map(|r| line[from..].find(r).map(|k| (from + k, r)))
            .min()
        else {
            break;
        };
        let boundary = line[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !is_path_char(c));
        let len = line[start..]
            .find(|c: char| !is_path_char(c))
            .unwrap_or(line.len() - start);
        from = start + len.max(root.len());
        let tail = &line[start + len..];
        if !boundary || tail.starts_with(['*', '<', '{']) {
            continue;
        }
        let path = line[start..start + len].trim_end_matches('.');
        refs.push(PathRef {
            path: path.to_string(),
            lines: line_range(tail),
        });
    }
    refs
}

/// Whether `text` names `name` as a whole word.
fn names(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(k, _)| {
        let before = text[..k].chars().next_back();
        let after = text[k + name.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the repo root")
        .to_path_buf()
}

/// Whether the repo path `path` exists in a checkout (see the module docs).
fn exists(root: &Path, path: &str) -> bool {
    let Some(rest) = path.strip_prefix("results/") else {
        return root.join(path).exists();
    };
    let committed = rest.is_empty()
        || rest.starts_with("quick")
        || (rest.starts_with("BENCH_") && rest.ends_with(".json"));
    if committed {
        return root.join(path).exists();
    }
    let golden = root.join("results/quick").join(rest).is_file();
    golden || GENERATED.iter().any(|g| path.starts_with(g))
}

/// The problems in one doc's `text`, each naming the doc and line.
fn problems(root: &Path, doc: &str, text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (k, line) in text.lines().enumerate() {
        let at = format!("{doc}:{}", k + 1);
        for r in path_refs(line) {
            if !exists(root, &r.path) {
                out.push(format!("{at}: `{}` does not exist", r.path));
                continue;
            }
            let Some((first, last)) = r.lines else {
                continue;
            };
            let len = fs::read_to_string(root.join(&r.path)).map_or(0, |s| s.lines().count());
            if first == 0 || last > len {
                out.push(format!(
                    "{at}: `{}:{first}` cites lines past its end ({len} lines)",
                    r.path
                ));
            }
        }
        for name in DELETED_NAMES {
            if names(line, name) {
                out.push(format!("{at}: names deleted `{name}`"));
            }
        }
    }
    out
}

fn docs(root: &Path) -> Vec<String> {
    let mut docs: Vec<String> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .map(String::from)
        .into();
    let mut extra: Vec<String> = fs::read_dir(root.join("docs"))
        .expect("docs/ is readable")
        .map(|e| {
            e.expect("docs/ entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|f| f.ends_with(".md"))
        .map(|f| format!("docs/{f}"))
        .collect();
    extra.sort();
    docs.extend(extra);
    docs.push(".claude/skills/verify/SKILL.md".into());
    docs
}

#[test]
fn docs_name_only_what_exists() {
    let root = repo_root();
    let mut all = Vec::new();
    for doc in docs(&root) {
        let text = fs::read_to_string(root.join(&doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        all.extend(problems(&root, &doc, &text));
    }
    assert!(all.is_empty(), "stale docs:\n{}", all.join("\n"));
}

/// The checker itself finds each kind of stale reference, and passes over
/// templates, prose and longer names that merely contain a deleted one.
#[test]
fn checker_finds_each_kind_of_stale_reference() {
    let root = repo_root();
    assert_eq!(
        path_refs("see `crates/obs/src/json.rs:12–40`, then tests/Cargo.toml."),
        [
            PathRef {
                path: "crates/obs/src/json.rs".into(),
                lines: Some((12, 40)),
            },
            PathRef {
                path: "tests/Cargo.toml".into(),
                lines: None,
            },
        ]
    );
    assert!(path_refs("`results/BENCH_*.json`, results/<dir>/a.csv, subtests/x").is_empty());
    let text = "\
        `crates/circuit/src/no_such_file.rs`\n\
        `tests/Cargo.toml:1000000`\n\
        `Circuit::transient_with`\n\
        `results/quick/array.csv`, `results/array.csv`, `results/diagnostics/x.json`\n\
        `results/figures/array.csv`\n\
        with_simulation and partition_signatures are other names\n";
    let found = problems(&root, "doc.md", text);
    assert_eq!(found.len(), 4, "{found:#?}");
    assert!(found[0].starts_with("doc.md:1: `crates/circuit/src/no_such_file.rs`"));
    assert!(found[1].starts_with("doc.md:2: `tests/Cargo.toml:1000000` cites"));
    assert_eq!(found[2], "doc.md:3: names deleted `transient_with`");
    assert!(found[3].starts_with("doc.md:5: `results/figures/array.csv`"));
}
