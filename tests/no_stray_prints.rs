//! Lint: library crates must not print, and the store must not panic.
//!
//! With `cadb_common::obs` in place, every library-side "interesting
//! number" has a structured home — a counter, gauge, histogram or span —
//! so a `println!`/`eprintln!` in a library crate is always a mistake:
//! either leftover debugging or telemetry that should be a metric. This
//! test walks every library source file in the workspace and fails on any
//! non-comment occurrence.
//!
//! Exempt by design: the `bench` crate (the `repro` binary and report
//! tables print on purpose), the vendored `shims` crates (external idiom,
//! not ours), and integration-test / benchmark / binary directories. A
//! deliberate exception in library code can carry `// lint: allow-print`
//! on the same line, with a comment nearby saying why.
//!
//! The other checks hold `crates/exec/src/store`, the codecs
//! (`crates/compression/src`), storage and shard builds
//! (`crates/storage/src`, `crates/shard/src`) and the planning/execution path
//! (`access_path.rs`, `exec/planner.rs`, `exec/query.rs`) to ROADMAP aim 3:
//! no reachable `unwrap`/`expect`/`unreachable!` on data-dependent paths.

use std::path::{Path, PathBuf};

/// Library source roots the lint walks: every workspace crate's `src`
/// except the exempt ones, plus the facade's own `src`.
fn library_roots() -> Vec<PathBuf> {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![ws.join("src")];
    let crates = ws.join("crates");
    let mut entries: Vec<_> = std::fs::read_dir(&crates)
        .expect("crates dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for dir in entries {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "bench" || name == "shims" {
            continue;
        }
        let src = dir.join("src");
        if src.is_dir() {
            roots.push(src);
        }
    }
    roots
}

fn rust_files(root: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(root)
        .unwrap_or_else(|e| panic!("read {}: {e}", root.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            // Binary/bench/test subtrees under src are user-facing and may
            // print.
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "bin" || name == "benches" || name == "tests" {
                continue;
            }
            rust_files(&p, out);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

/// `true` when the line's `println!`/`eprintln!` occurrence is inside a
/// line comment (`//` before the macro) — doc examples and prose mention
/// the macros legitimately.
fn only_in_comment(line: &str, needle: &str) -> bool {
    match (line.find(needle), line.find("//")) {
        (Some(m), Some(c)) => c < m,
        _ => false,
    }
}

#[test]
fn library_crates_do_not_print() {
    let mut files = Vec::new();
    for root in library_roots() {
        rust_files(&root, &mut files);
    }
    assert!(
        files.len() > 30,
        "lint walked too few files: {}",
        files.len()
    );
    let mut violations = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for (i, line) in text.lines().enumerate() {
            for needle in ["println!", "eprintln!"] {
                if line.contains(needle)
                    && !only_in_comment(line, needle)
                    && !line.contains("lint: allow-print")
                {
                    violations.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "library code must publish through cadb_common::obs, not print:\n{}",
        violations.join("\n")
    );
}

/// `.unwrap()`, `.expect(` and `unreachable!` occurrences in `files`
/// outside the `#[cfg(test)]` module that ends each file.
fn reachable_panics(files: &[PathBuf]) -> Vec<String> {
    let mut violations = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let library = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
        for (i, line) in library.enumerate() {
            for needle in [".unwrap()", ".expect(", "unreachable!"] {
                if line.contains(needle) && !only_in_comment(line, needle) {
                    violations.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
                }
            }
        }
    }
    violations
}

/// The store returns `Err`, it does not panic: no `.unwrap()`, `.expect(`
/// or `unreachable!` in `crates/exec/src/store/*.rs`. Its inputs — log
/// bytes, shard indexes, checkpoints — come from outside the program.
#[test]
fn store_has_no_reachable_panics() {
    let store = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/exec/src/store");
    let mut files = Vec::new();
    rust_files(&store, &mut files);
    assert!(files.len() >= 5, "lint walked too few files: {files:?}");
    let violations = reachable_panics(&files);
    assert!(
        violations.is_empty(),
        "store code must return errors, not panic:\n{}",
        violations.join("\n")
    );
}

/// Nor do the codecs: `crates/compression/src/*.rs` decode page bytes that
/// may be damaged, and must return `Err` for them.
#[test]
fn codecs_have_no_reachable_panics() {
    let codecs = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/compression/src");
    let mut files = Vec::new();
    rust_files(&codecs, &mut files);
    assert!(files.len() >= 10, "lint walked too few files: {files:?}");
    let violations = reachable_panics(&files);
    assert!(
        violations.is_empty(),
        "codec code must return errors, not panic:\n{}",
        violations.join("\n")
    );
}

/// Nor does the index and log substrate: `crates/storage/src` decodes leaf
/// pages and WAL segments that may be torn or damaged, and `crates/shard/src`
/// builds under a memory budget that may run out. Both return `Err`.
#[test]
fn storage_and_shard_have_no_reachable_panics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/storage/src"), &mut files);
    rust_files(&root.join("crates/shard/src"), &mut files);
    assert!(files.len() >= 6, "lint walked too few files: {files:?}");
    let violations = reachable_panics(&files);
    assert!(
        violations.is_empty(),
        "storage and shard code must return errors, not panic:\n{}",
        violations.join("\n")
    );
}

/// Neither do planning and execution: queries, configurations and — through
/// the public `execute_planned` — whole plans are caller-supplied.
#[test]
fn planner_and_executor_have_no_reachable_panics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = [
        "crates/engine/src/access_path.rs",
        "crates/exec/src/planner.rs",
        "crates/exec/src/query.rs",
    ]
    .map(|f| root.join(f));
    let violations = reachable_panics(&files);
    assert!(
        violations.is_empty(),
        "planning and execution must return errors, not panic:\n{}",
        violations.join("\n")
    );
}
