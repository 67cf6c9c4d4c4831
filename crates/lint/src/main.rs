//! vdx-lint: the workspace call-graph analysis pass (DESIGN.md §10, §14).
//!
//! Run from anywhere in the workspace (it takes no arguments):
//!
//! ```text
//! cargo run -p vdx-lint --release
//! ```
//!
//! Scans every `.rs` file under `crates/*/src` and the root `src/`,
//! lexes and parses it into an AST, links a workspace call graph, and
//! runs the two analyses that need one and that nothing else covers
//! (lock discipline, panic-path reachability). What a per-site check, a
//! type or a test can own belongs to clippy (`Cargo.toml`
//! `[workspace.lints.clippy]`), the type or `cargo test`; DESIGN.md §10
//! has the table, and §14 what these two are known to miss.
//!
//! Findings are subtracted against the per-analysis allowlists under
//! `lint/allow/`; allowlist entries that no longer match anything are
//! themselves errors (`stale-allowlist`). Everything is printed to
//! stdout; any finding left over exits non-zero.

mod ast;
mod callgraph;
mod dataflow;
mod parse;
mod report;
mod scan;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use callgraph::CallGraph;
use report::{Allowlist, Finding};
use scan::SourceFile;

/// A lexed workspace file plus the cargo package it belongs to.
struct WorkspaceSource {
    /// The lexed file.
    source: SourceFile,
    /// Cargo package name (`vdx-exchanged`, ...).
    crate_name: String,
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("vdx-lint: unexpected argument `{arg}` (vdx-lint takes no arguments)");
        return ExitCode::FAILURE;
    }
    let root = match workspace_root() {
        Some(r) => r,
        None => {
            eprintln!("vdx-lint: cannot locate the workspace root (no Cargo.toml found)");
            return ExitCode::FAILURE;
        }
    };
    let sources = match collect_workspace_files(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("vdx-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let findings = run_lint(&root, &sources);
    print_summary(&findings, sources.len());
    if findings.iter().any(|f| !f.allowed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The full analysis pipeline: parse, link, run the analyses,
/// subtract allowlists, flag stale allowlist entries. Returns findings
/// sorted by (file, line, col) with snippets filled in.
fn run_lint(root: &Path, sources: &[WorkspaceSource]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut parsed = Vec::new();
    for s in sources {
        match parse::parse_file(&s.source, &s.crate_name) {
            Ok(file) => parsed.push(file),
            Err(e) => findings.push(Finding {
                rule: "parse-error",
                file: s.source.rel_path.clone(),
                line: 1,
                col: 1,
                context: "*".to_string(),
                message: format!("vdx-lint cannot parse this file: {e}"),
                ..Finding::default()
            }),
        }
    }
    let g = CallGraph::build(&parsed);
    findings.extend(dataflow::analyze(&g, &dataflow::DfConfig::workspace()));

    let by_path: BTreeMap<&str, &SourceFile> = sources
        .iter()
        .map(|s| (s.source.rel_path.as_str(), &s.source))
        .collect();
    for f in findings.iter_mut().filter(|f| f.line > 0) {
        if let Some(sf) = by_path.get(f.file.as_str()) {
            f.snippet = sf.snippet(f.line);
        }
    }

    // Subtract the per-analysis allowlists, then report entries that
    // cover nothing as stale.
    let allow_dir = root.join("lint/allow");
    let mut allowlists: BTreeMap<&'static str, Allowlist> = BTreeMap::new();
    for f in &mut findings {
        let allow = allowlists
            .entry(f.rule)
            .or_insert_with_key(|rule| Allowlist::load(&allow_dir.join(format!("{rule}.txt"))));
        if allow.covers(f) {
            f.allowed = true;
        }
    }
    findings.extend(stale_allowlist_findings(&allow_dir, &findings));

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, a.kind).cmp(&(&b.file, b.line, b.col, b.rule, b.kind))
    });
    findings
}

/// One `stale-allowlist` finding per allowlist entry that covers no
/// current finding of its rule. Scans every `lint/allow/*.txt` so an
/// allowlist for a retired rule is reported whole.
fn stale_allowlist_findings(allow_dir: &Path, findings: &[Finding]) -> Vec<Finding> {
    let mut stale = Vec::new();
    let Ok(entries) = std::fs::read_dir(allow_dir) else {
        return stale;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    paths.sort();
    for path in paths {
        let Some(rule) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let of_rule: Vec<Finding> = findings
            .iter()
            .filter(|f| f.rule == rule)
            .cloned()
            .collect();
        let rel = format!("lint/allow/{rule}.txt");
        for entry in Allowlist::load(&path).stale_entries(&of_rule) {
            stale.push(Finding {
                rule: "stale-allowlist",
                file: rel.clone(),
                context: entry.clone(),
                message: format!(
                    "allowlist entry `{entry}` matches no current `{rule}` finding; \
                     the code it excused was fixed or moved — prune the entry"
                ),
                ..Finding::default()
            });
        }
    }
    stale
}

fn print_summary(findings: &[Finding], files: usize) {
    let violations: Vec<&Finding> = findings.iter().filter(|f| !f.allowed).collect();
    let allowed = findings.len() - violations.len();
    for f in &violations {
        let rule = if f.kind.is_empty() {
            f.rule.to_string()
        } else {
            format!("{}/{}", f.rule, f.kind)
        };
        println!("{}:{}: [{}] {}", f.file, f.line, rule, f.message);
        if !f.snippet.is_empty() {
            println!("    {}", f.snippet);
        }
        if !f.chain.is_empty() {
            println!("    chain: {}", f.chain.join(" -> "));
        }
        println!("    allowlist key: {}", f.key());
    }
    println!(
        "vdx-lint: {} files scanned, {} violation(s), {} allowlisted",
        files,
        violations.len(),
        allowed
    );
}

/// The workspace root: walk up from `CARGO_MANIFEST_DIR` (when run via
/// cargo) or the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
fn workspace_root() -> Option<PathBuf> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())?;
    let mut dir = start.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        dir = dir.parent()?;
    }
}

/// The `[package] name` of a Cargo manifest, without a TOML parser:
/// the first `name = "..."` line inside the `[package]` section.
fn package_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let l = line.trim();
        if l.starts_with('[') {
            in_package = l == "[package]";
            continue;
        }
        if in_package && l.starts_with("name") {
            let rest = l["name".len()..].trim_start();
            if let Some(v) = rest.strip_prefix('=') {
                return Some(v.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Collects and lexes every `.rs` source file of the workspace packages:
/// `crates/<name>/src/**` plus the root package's `src/**`.
fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<WorkspaceSource>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let pkg = entry?.path();
            let src = pkg.join("src");
            if src.is_dir() {
                let crate_name = package_name(&pkg.join("Cargo.toml")).unwrap_or_else(|| {
                    pkg.file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default()
                });
                collect_rs_files(root, &src, &crate_name, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        let crate_name = package_name(&root.join("Cargo.toml")).unwrap_or_default();
        collect_rs_files(root, &root_src, &crate_name, &mut files)?;
    }
    files.sort_by(|a, b| a.source.rel_path.cmp(&b.source.rel_path));
    Ok(files)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<WorkspaceSource>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(root, &path, crate_name, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&path)?;
            out.push(WorkspaceSource {
                source: SourceFile::parse(&rel, &src),
                crate_name: crate_name.to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod fixture_tests {
    //! The seeded-violation fixture: `fixtures/badcrate` contains at
    //! least one violation of every analysis; the lint must find them
    //! all at their exact spans (with call-chain witnesses where the
    //! analysis produces one), and must run clean over the real
    //! workspace (the same invocation `scripts/verify.sh` gates on).

    use super::*;
    use dataflow::{analyze, DfConfig};

    fn fixture_root() -> PathBuf {
        // CARGO_MANIFEST_DIR when run via cargo; relative to the
        // workspace root when the test binary is built directly.
        option_env!("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| workspace_root().expect("in workspace").join("crates/lint"))
            .join("fixtures/badcrate")
    }

    fn scan_fixture() -> Vec<WorkspaceSource> {
        let root = fixture_root();
        let mut files = Vec::new();
        collect_rs_files(&root, &root.join("src"), "badcrate", &mut files)
            .expect("fixture readable");
        files.sort_by(|a, b| a.source.rel_path.cmp(&b.source.rel_path));
        files
    }

    fn parse_fixture(sources: &[WorkspaceSource]) -> Vec<ast::File> {
        sources
            .iter()
            .map(|s| {
                parse::parse_file(&s.source, &s.crate_name)
                    .unwrap_or_else(|e| panic!("fixture {} parses: {e}", s.source.rel_path))
            })
            .collect()
    }

    /// The configuration the badcrate fixtures are written against
    /// (its own entry point).
    fn fixture_df_config() -> DfConfig {
        DfConfig {
            lock_crates: vec!["badcrate".to_string()],
            panic_roots: vec![("badcrate".to_string(), None, "entry".to_string())],
            index_panic_crates: vec!["badcrate".to_string()],
        }
    }

    fn fixture_df_findings() -> Vec<Finding> {
        let sources = scan_fixture();
        let parsed = parse_fixture(&sources);
        let g = CallGraph::build(&parsed);
        analyze(&g, &fixture_df_config())
    }

    #[test]
    fn fixture_trips_lock_discipline_at_exact_spans() {
        let f = fixture_df_findings();
        let locks: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == "lock-discipline" && f.file == "src/locks.rs")
            .collect();
        let blocking: Vec<&&Finding> = locks
            .iter()
            .filter(|f| f.kind == "blocking-under-lock")
            .collect();
        let [via_helper, direct, by_name] = blocking[..] else {
            panic!("three blocking-under-lock sites: {blocking:#?}");
        };
        assert_eq!(
            (via_helper.line, via_helper.col),
            (26, 12),
            "{via_helper:?}"
        );
        assert!(
            via_helper.chain.iter().any(|c| c.contains("Channel::push")),
            "witness must pass through Channel::push: {:?}",
            via_helper.chain
        );
        // ISSUE 21 row L2: a blocking receive directly under the guard.
        assert_eq!((direct.line, direct.col), (53, 20), "{direct:?}");
        assert!(direct.message.contains("`.recv_timeout()`"), "{direct:?}");
        // Row L1: a guard held across `shutdown()`, through the one
        // workspace method of that name that blocks.
        assert_eq!((by_name.line, by_name.col), (62, 29), "{by_name:?}");
        assert_eq!(
            by_name.chain,
            vec!["badcrate::Server::shutdown", "`.join()`"],
            "{by_name:?}"
        );
        let double = locks
            .iter()
            .find(|f| f.kind == "double-acquire")
            .expect("double-acquire");
        assert_eq!((double.line, double.col), (42, 28), "{double:?}");
        let inversions: Vec<&&Finding> = locks
            .iter()
            .filter(|f| f.kind == "order-inversion")
            .collect();
        assert_eq!(inversions.len(), 1, "one inversion site: {locks:#?}");
        let inv = inversions[0];
        assert_eq!((inv.line, inv.col), (32, 28), "{inv:?}");
        assert!(
            inv.message.contains("`slots`") && inv.message.contains("`stats`"),
            "inversion names both locks and cites the opposite site: {inv:?}"
        );
    }

    #[test]
    fn fixture_trips_panic_path_with_witness() {
        let f = fixture_df_findings();
        let panics: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == "panic-path" && f.file == "src/panics_reach.rs")
            .collect();
        let index = panics
            .iter()
            .find(|f| f.kind == "indexing")
            .expect("indexing");
        assert_eq!(index.line, 20, "{index:?}");
        assert_eq!(index.chain, vec!["badcrate::entry", "badcrate::step"]);
        // The lock-poisoning expect is sanctioned and `unwrap` is not
        // this analysis's: the one `expect` is the one two calls down.
        let rest: Vec<&&Finding> = panics.iter().filter(|f| f.kind != "indexing").collect();
        let [expect] = rest[..] else {
            panic!("one finding besides the index: {rest:#?}");
        };
        assert_eq!((expect.kind, expect.line, expect.col), ("expect", 25, 17));
        assert_eq!(
            expect.chain,
            vec!["badcrate::entry", "badcrate::step", "badcrate::announce"],
            "{expect:?}"
        );
        assert!(
            !panics.iter().any(|f| f.context == "not_reached"),
            "unreachable fns are out of scope: {panics:#?}"
        );
    }

    #[test]
    fn workspace_is_clean_modulo_allowlists() {
        let root = workspace_root().expect("workspace root");
        let sources = collect_workspace_files(&root).expect("workspace readable");
        assert!(sources.len() > 50, "expected the full workspace source set");
        let findings = run_lint(&root, &sources);
        let open: Vec<&Finding> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(
            open.is_empty(),
            "workspace has non-allowlisted lint violations: {open:#?}"
        );
    }
}
