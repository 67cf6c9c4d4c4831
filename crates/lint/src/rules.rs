//! The three VDX domain rules (DESIGN.md §10), re-expressed over the
//! parsed AST (the token-mask implementation predates the parser).
//!
//! 1. `raw-f64` — public APIs in money/bandwidth-bearing modules must not
//!    pass raw `f64` under a money/bandwidth name; those quantities ride
//!    the `vdx-core::units` newtypes.
//! 2. `no-panics` — no `unwrap()`/`panic!`-family macros in library-crate
//!    non-test code; `expect("invariant message")` is the sanctioned form.
//! 3. `event-schema` — every `obs::Event` variant appears in the
//!    DESIGN.md §7 journal-schema table.
//!
//! A bare wall-clock read is clippy's to deny (`clippy.toml`
//! `disallowed-methods`); whether one reaches an `Event` is
//! `determinism-taint`'s.
//!
//! The call-graph analyses (lock discipline, determinism taint,
//! panic-path reachability, unit escape) live in [`crate::dataflow`].

use crate::ast::{walk_block, Expr, File, Item, ItemKind, Span};
use crate::callgraph::CallGraph;
use crate::report::Finding;

/// Identifier fragments that mark a quantity as money or bandwidth.
const QUANTITY_KEYWORDS: &[&str] = &[
    "price",
    "cost",
    "revenue",
    "bill",
    "charge",
    "usd",
    "profit",
    "payment",
    "fee",
    "kbps",
    "gbps",
    "bandwidth",
    "traffic",
    "demand",
    "capacity",
    "volume",
];

/// `panic!`-family macro names forbidden by the no-panics rule.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Rule configuration: which files each rule covers.
#[derive(Debug)]
pub struct Config {
    /// Files (workspace-relative) whose public APIs rule 1 enforces; an
    /// entry ending in `/` covers the whole directory.
    pub enforced_apis: Vec<String>,
}

impl Config {
    /// The workspace policy from ISSUE/DESIGN: units in `cdn::{cost,
    /// bidding,capacity,contract}`, `broker::optimize`, all of
    /// `solver`, and `core::{accounting,exchange,transactions}`.
    pub fn workspace() -> Config {
        Config {
            enforced_apis: vec![
                "crates/cdn/src/cost.rs".into(),
                "crates/cdn/src/bidding.rs".into(),
                "crates/cdn/src/capacity.rs".into(),
                "crates/cdn/src/contract.rs".into(),
                "crates/broker/src/optimize.rs".into(),
                "crates/solver/src/".into(),
                "crates/core/src/accounting.rs".into(),
                "crates/core/src/exchange.rs".into(),
                "crates/core/src/transactions.rs".into(),
            ],
        }
    }

    fn api_enforced(&self, rel_path: &str) -> bool {
        self.enforced_apis
            .iter()
            .any(|e| rel_path == e || (e.ends_with('/') && rel_path.starts_with(e.as_str())))
    }
}

/// Runs every rule over `files` (with `g` built from the same slice)
/// and returns all findings, sorted by (file, line, col). Snippets are
/// left empty; the driver fills them from the lexed sources.
pub fn run_all(
    files: &[File],
    g: &CallGraph<'_>,
    cfg: &Config,
    design_md: Option<&str>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if cfg.api_enforced(&f.rel_path) {
            check_raw_f64(f, &mut findings);
        }
    }
    check_no_panics(g, &mut findings);
    if let Some(md) = design_md {
        if let Some(event_rs) = files
            .iter()
            .find(|f| f.rel_path == "crates/obs/src/event.rs")
        {
            check_event_schema(event_rs, md, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    findings
}

fn keyword_of(ident: &str) -> Option<&'static str> {
    let lower = ident.to_ascii_lowercase();
    QUANTITY_KEYWORDS
        .iter()
        .find(|k| lower.contains(*k))
        .copied()
}

fn finding(rule: &'static str, file: &str, span: Span, context: &str, message: String) -> Finding {
    Finding {
        rule,
        kind: String::new(),
        file: file.to_string(),
        line: span.line,
        col: span.col,
        context: context.to_string(),
        message,
        snippet: String::new(),
        chain: Vec::new(),
        allowed: false,
    }
}

/// Pre-order walk over non-test items, descending into mods, impls,
/// and traits.
fn walk_items<'a>(items: &'a [Item], visit: &mut dyn FnMut(&'a Item)) {
    for item in items {
        if item.is_test_only() {
            continue;
        }
        visit(item);
        match &item.kind {
            ItemKind::Impl { items, .. } | ItemKind::Trait { items, .. } => {
                walk_items(items, visit);
            }
            ItemKind::Mod {
                items: Some(items), ..
            } => walk_items(items, visit),
            _ => {}
        }
    }
}

/// Rule 1: raw `f64` under a money/bandwidth name in a public signature.
pub fn check_raw_f64(f: &File, out: &mut Vec<Finding>) {
    walk_items(&f.items, &mut |item| match &item.kind {
        ItemKind::Fn(def) if item.vis.is_pub() => {
            for p in &def.params {
                let Some(pname) = p.name() else { continue };
                if p.ty.iter().any(|t| t == "f64") {
                    if let Some(kw) = keyword_of(pname) {
                        out.push(finding(
                            "raw-f64",
                            &f.rel_path,
                            p.span,
                            &def.name,
                            format!(
                                "parameter `{pname}` of pub fn `{}` passes a {kw}-like quantity \
                                 as raw f64; use a vdx-core::units newtype",
                                def.name
                            ),
                        ));
                    }
                }
            }
            if def.ret.iter().any(|t| t == "f64") {
                if let Some(kw) = keyword_of(&def.name) {
                    out.push(finding(
                        "raw-f64",
                        &f.rel_path,
                        def.span,
                        &def.name,
                        format!(
                            "pub fn `{}` returns a {kw}-like quantity as raw f64; \
                             use a vdx-core::units newtype",
                            def.name
                        ),
                    ));
                }
            }
        }
        ItemKind::Const { name, ty, .. } | ItemKind::Static { name, ty, .. }
            if item.vis.is_pub() && ty.iter().any(|t| t == "f64") =>
        {
            if let Some(kw) = keyword_of(name) {
                out.push(finding(
                    "raw-f64",
                    &f.rel_path,
                    item.span,
                    name,
                    format!(
                        "pub constant `{name}` stores a {kw}-like quantity as raw f64; \
                         use a vdx-core::units newtype"
                    ),
                ));
            }
        }
        ItemKind::Struct { fields, .. } => {
            for fld in fields {
                if fld.vis.is_pub() && fld.ty.iter().any(|t| t == "f64") {
                    if let Some(kw) = keyword_of(&fld.name) {
                        out.push(finding(
                            "raw-f64",
                            &f.rel_path,
                            fld.span,
                            &fld.name,
                            format!(
                                "pub field `{}` stores a {kw}-like quantity as raw f64; \
                                 use a vdx-core::units newtype",
                                fld.name
                            ),
                        ));
                    }
                }
            }
        }
        _ => {}
    });
}

/// The panic-family construct a macro token stream smuggles in, if any:
/// a nested `.unwrap()` or `panic!`/`todo!`/`unimplemented!`.
fn panic_in_tokens(tokens: &[String]) -> Option<String> {
    let unwrap = tokens
        .windows(4)
        .any(|w| w[0] == "." && w[1] == "unwrap" && w[2] == "(" && w[3] == ")");
    if unwrap {
        return Some(".unwrap()".to_string());
    }
    tokens.windows(2).find_map(|w| {
        (PANIC_MACROS.contains(&w[0].as_str()) && w[1] == "!").then(|| format!("{}!", w[0]))
    })
}

/// Rule 3: `unwrap()` / `panic!`-family macros in library non-test code.
pub fn check_no_panics(g: &CallGraph<'_>, out: &mut Vec<Finding>) {
    for node in &g.fns {
        if node.is_test || node.is_bin {
            continue;
        }
        let Some(body) = &node.def.body else { continue };
        walk_block(body, &mut |e| {
            let hit = match e {
                Expr::MethodCall {
                    method, args, span, ..
                } if method == "unwrap" && args.is_empty() => {
                    Some((".unwrap()".to_string(), *span))
                }
                Expr::MacroCall {
                    segs, tokens, span, ..
                } => {
                    let own = segs
                        .last()
                        .filter(|s| PANIC_MACROS.contains(&s.as_str()))
                        .map(|s| format!("{s}!"));
                    own.or_else(|| panic_in_tokens(tokens)).map(|c| (c, *span))
                }
                _ => None,
            };
            if let Some((what, span)) = hit {
                out.push(finding(
                    "no-panics",
                    node.file,
                    span,
                    node.name,
                    format!(
                        "`{what}` in library non-test code; return a typed error or use \
                         expect(\"<invariant>\") stating why this cannot fail"
                    ),
                ));
            }
        });
    }
}

/// Rule 4, forward half: every `Event` variant appears in the DESIGN.md
/// §7 table. Reverse half: every tag documented under a "journal schema"
/// heading still has an `Event` variant behind it (stale docs).
pub fn check_event_schema(event_rs: &File, design_md: &str, out: &mut Vec<Finding>) {
    let variants = event_variants(event_rs);
    let documented = documented_tags(design_md);
    for (name, span) in &variants {
        let tag = camel_to_snake(name);
        if !documented.contains(&tag) {
            out.push(finding(
                "event-schema",
                &event_rs.rel_path,
                *span,
                name,
                format!(
                    "Event::{name} (journal tag `{tag}`) is missing from the DESIGN.md §7 \
                     journal-schema table"
                ),
            ));
        }
    }
    // Reverse: only tables under a heading that mentions "journal
    // schema" are event tables; other backticked first cells (CLI
    // flags, module names) are none of this rule's business.
    let variant_tags: Vec<String> = variants
        .iter()
        .map(|(name, _)| camel_to_snake(name))
        .collect();
    if variant_tags.is_empty() {
        return;
    }
    for (tag, line) in journal_schema_tags(design_md) {
        if !variant_tags.contains(&tag) {
            let mut f = finding(
                "event-schema",
                "DESIGN.md",
                Span { line, col: 1 },
                &tag,
                format!(
                    "journal tag `{tag}` is documented in a DESIGN.md journal-schema table \
                     but no Event variant serializes to it; drop the stale row or restore \
                     the variant"
                ),
            );
            f.snippet = design_md
                .lines()
                .nth(line.saturating_sub(1))
                .map(|l| l.trim().to_string())
                .unwrap_or_default();
            out.push(f);
        }
    }
}

/// Extracts `(variant name, span)` pairs from `pub enum Event { ... }`.
fn event_variants(f: &File) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    walk_items(&f.items, &mut |item| {
        if let ItemKind::Enum { name, variants } = &item.kind {
            if name == "Event" && item.vis.is_pub() {
                out.extend(variants.iter().map(|v| (v.name.clone(), v.span)));
            }
        }
    });
    out
}

/// Backtick-quoted tags from DESIGN.md table rows (`| `tag` | ... |`).
fn documented_tags(design_md: &str) -> Vec<String> {
    let mut tags = Vec::new();
    for line in design_md.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let Some(first_cell) = line.trim_start_matches('|').split('|').next() else {
            continue;
        };
        let cell = first_cell.trim();
        if let Some(tag) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
            tags.push(tag.to_string());
        }
    }
    tags
}

/// Backtick-quoted first-cell tags (with their 1-based line) from table
/// rows inside sections whose heading mentions "journal schema"
/// (case-insensitive). A section runs from its heading to the next
/// heading of any level.
fn journal_schema_tags(design_md: &str) -> Vec<(String, usize)> {
    let mut tags = Vec::new();
    let mut in_schema_section = false;
    for (idx, raw) in design_md.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') {
            in_schema_section = line.to_ascii_lowercase().contains("journal schema");
            continue;
        }
        if !in_schema_section || !line.starts_with('|') {
            continue;
        }
        let Some(first_cell) = line.trim_start_matches('|').split('|').next() else {
            continue;
        };
        let cell = first_cell.trim();
        if let Some(tag) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
            tags.push((tag.to_string(), idx + 1));
        }
    }
    tags
}

/// `RunHeader` → `run_header` (the journal's tag convention).
fn camel_to_snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::scan::SourceFile;

    fn parse(path: &str, src: &str) -> File {
        let sf = SourceFile::parse(path, src);
        parse_file(&sf, "vdx-test", false).expect("test fixture parses")
    }

    fn graph_findings(
        path: &str,
        src: &str,
        check: fn(&CallGraph<'_>, &mut Vec<Finding>),
    ) -> Vec<Finding> {
        let files = [parse(path, src)];
        let g = CallGraph::build(&files);
        let mut out = Vec::new();
        check(&g, &mut out);
        out
    }

    #[test]
    fn raw_f64_flags_money_params_fields_and_returns() {
        let src = "pub fn charge(price_per_mb: f64) -> f64 { price_per_mb }\n\
                   pub fn total_cost(x: u32) -> f64 { 0.0 }\n\
                   pub struct A { pub capacity_kbps: f64, pub score: f64 }\n\
                   pub const BASE_PRICE: f64 = 1.0;";
        let mut out = Vec::new();
        check_raw_f64(&parse("crates/cdn/src/cost.rs", src), &mut out);
        let contexts: Vec<&str> = out.iter().map(|f| f.context.as_str()).collect();
        // `charge` is flagged twice: once for the parameter, once for
        // the money-named return type.
        assert_eq!(
            contexts,
            vec![
                "charge",
                "charge",
                "total_cost",
                "capacity_kbps",
                "BASE_PRICE"
            ],
            "{out:#?}"
        );
    }

    #[test]
    fn raw_f64_ignores_dimensionless_and_private_items() {
        let src = "pub struct S;\n\
                   impl S { pub fn objective(&self) -> f64 { 0.0 } }\n\
                   fn charge(price: f64) -> f64 { price }\n\
                   pub struct B { pub ratio: f64 }";
        let mut out = Vec::new();
        check_raw_f64(&parse("crates/solver/src/gap.rs", src), &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn no_panics_flags_unwrap_and_panic_family() {
        let src = "fn a(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn b() { panic!(\"boom\"); }\n\
                   fn c() { todo!() }\n\
                   fn m() { assert!(X.lock().unwrap().is_empty()); }\n\
                   fn ok(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                   fn ok2(x: Option<u32>) -> u32 { x.expect(\"invariant: caller checked\") }\n\
                   #[cfg(test)]\nmod tests { fn t() { None::<u32>.unwrap(); } }";
        let out = graph_findings("crates/cdn/src/y.rs", src, check_no_panics);
        let ctx: Vec<&str> = out.iter().map(|f| f.context.as_str()).collect();
        assert_eq!(ctx, vec!["a", "b", "c", "m"], "{out:#?}");
    }

    #[test]
    fn event_schema_reports_undocumented_variants() {
        let src = "#[derive(Serialize)]\n#[serde(tag = \"ev\")]\npub enum Event {\n\
                   RunHeader { schema: u32 },\n\
                   RoundStarted { round: u64 },\n\
                   SecretEvent { x: u32 },\n}";
        let md = "| `ev` tag | Emitted by |\n|---|---|\n\
                  | `run_header` | repro |\n| `round_started` | core |\n";
        let mut out = Vec::new();
        check_event_schema(&parse("crates/obs/src/event.rs", src), md, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].context, "SecretEvent");
        assert!(out[0].message.contains("`secret_event`"));
    }

    #[test]
    fn event_schema_reports_stale_documented_tags() {
        let src = "pub enum Event {\n\
                   RunHeader { schema: u32 },\n\
                   RoundStarted { round: u64 },\n}";
        // `ghost_event` sits in a journal-schema section and must be
        // flagged; `--seed` sits in an unrelated table and must not.
        let md = "## 7. Journal schema (v3)\n\n\
                  | `ev` tag | Emitted by |\n|---|---|\n\
                  | `run_header` | repro |\n\
                  | `round_started` | core |\n\
                  | `ghost_event` | nobody |\n\n\
                  ## 8. CLI flags\n\n\
                  | flag | meaning |\n|---|---|\n| `--seed` | master seed |\n";
        let mut out = Vec::new();
        check_event_schema(&parse("crates/obs/src/event.rs", src), md, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].file, "DESIGN.md");
        assert_eq!(out[0].context, "ghost_event");
        assert_eq!(out[0].line, 7);
        assert!(out[0].snippet.contains("ghost_event"));
    }

    #[test]
    fn camel_to_snake_matches_serde() {
        assert_eq!(camel_to_snake("RunHeader"), "run_header");
        assert_eq!(camel_to_snake("CdnOutage"), "cdn_outage");
        assert_eq!(camel_to_snake("WireDrops"), "wire_drops");
    }
}
