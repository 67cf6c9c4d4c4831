//! Findings, allowlists, the machine-readable JSON report (schema 2),
//! and baseline diffing.
//!
//! Allowlist format (one file per rule under `lint/allow/`): `#` comment
//! lines, blank lines, and one key per entry. A key is
//! `<workspace-relative path>:<context>` for the legacy token rules
//! (context = enclosing function or item name), or
//! `<workspace-relative path>:<context>:<kind>` for the dataflow
//! analyses (`lock-discipline`, `determinism-taint`, `panic-path`,
//! `unit-escape`), where `kind` names the specific finding class
//! (`blocking-under-lock`, `unwrap`, `raw-arith`, ...). `path:*` allows
//! a whole file. Keys deliberately avoid line numbers so entries
//! survive unrelated edits. Entries that no longer match any finding
//! are themselves reported as `stale-allowlist` errors.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`raw-f64`, `no-panics`, `event-schema`,
    /// `lock-discipline`, `determinism-taint`, `panic-path`,
    /// `unit-escape`, `stale-allowlist`).
    pub rule: &'static str,
    /// Finding kind within a dataflow analysis (empty for the legacy
    /// token rules, which have exactly one kind each).
    pub kind: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (0 when the rule only resolves lines).
    pub col: usize,
    /// Allowlist context (enclosing fn or item name; see module docs).
    pub context: String,
    /// Human-readable description.
    pub message: String,
    /// Trimmed source line.
    pub snippet: String,
    /// Call-chain witness, outermost first (dataflow analyses only).
    pub chain: Vec<String>,
    /// True when an allowlist entry covers this finding.
    pub allowed: bool,
}

impl Finding {
    /// The allowlist key that would suppress this finding.
    pub fn key(&self) -> String {
        if self.kind.is_empty() {
            format!("{}:{}", self.file, self.context)
        } else {
            format!("{}:{}:{}", self.file, self.context, self.kind)
        }
    }

    /// Identity used by `--diff`: stable across line-number churn.
    pub fn diff_key(&self) -> String {
        format!("{}|{}", self.rule, self.key())
    }
}

/// A parsed allowlist: the set of permitted keys.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: BTreeSet<String>,
}

impl Allowlist {
    /// Parses allowlist text (see module docs for the format).
    pub fn parse(text: &str) -> Allowlist {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        Allowlist { entries }
    }

    /// Loads `path`, treating a missing file as an empty allowlist.
    pub fn load(path: &Path) -> Allowlist {
        match std::fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Allowlist::default(),
        }
    }

    /// True when `finding` is covered by an entry (exact key or
    /// whole-file `path:*`).
    pub fn covers(&self, finding: &Finding) -> bool {
        self.entries.contains(&finding.key())
            || self.entries.contains(&format!("{}:*", finding.file))
    }

    /// Entries that cover none of `findings`: stale keys that should be
    /// pruned (the code they excused has been fixed or removed).
    pub fn stale_entries(&self, findings: &[Finding]) -> Vec<String> {
        let keys: BTreeSet<String> = findings.iter().map(Finding::key).collect();
        let files: BTreeSet<&str> = findings.iter().map(|f| f.file.as_str()).collect();
        self.entries
            .iter()
            .filter(|e| {
                if let Some(file) = e.strip_suffix(":*") {
                    !files.contains(file)
                } else {
                    !keys.contains(*e)
                }
            })
            .cloned()
            .collect()
    }

    /// Entry count (for the report summary).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report consumed by `scripts/verify.sh`
/// and CI tooling. Schema 2: each finding carries `kind`, `col`, and a
/// `chain` witness array; one finding per line (the `--diff` parser
/// relies on that layout).
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let violations = findings.iter().filter(|f| !f.allowed).count();
    let allowed = findings.len() - violations;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 2,\n");
    let _ = writeln!(out, "  \"files_scanned\": {files_scanned},");
    let _ = writeln!(out, "  \"violations\": {violations},");
    let _ = writeln!(out, "  \"allowlisted\": {allowed},");
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let chain = f
            .chain
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            out,
            "    {{\"rule\": \"{}\", \"kind\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"col\": {}, \"context\": \"{}\", \"allowed\": {}, \"message\": \"{}\", \
             \"snippet\": \"{}\", \"chain\": [{}]}}",
            json_escape(f.rule),
            json_escape(&f.kind),
            json_escape(&f.file),
            f.line,
            f.col,
            json_escape(&f.context),
            f.allowed,
            json_escape(&f.message),
            json_escape(&f.snippet),
            chain,
        );
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts the string value of `"key": "..."` from a single-line JSON
/// finding object. Handles the escapes `json_escape` produces.
fn field_of(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let v = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Parses the diff identities (`rule|key`) out of a previously written
/// vdx-lint report. Line-oriented on purpose: `render_json` emits one
/// finding per line, and staying dependency-free rules out a full JSON
/// parser. Reports from other tools are not supported.
pub fn baseline_keys(report: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for line in report.lines() {
        let line = line.trim_start();
        if !line.starts_with("{\"rule\":") {
            continue;
        }
        let (Some(rule), Some(file), Some(context)) = (
            field_of(line, "rule"),
            field_of(line, "file"),
            field_of(line, "context"),
        ) else {
            continue;
        };
        // Schema-1 reports have no "kind" field; treat it as empty.
        let kind = field_of(line, "kind").unwrap_or_default();
        let key = if kind.is_empty() {
            format!("{rule}|{file}:{context}")
        } else {
            format!("{rule}|{file}:{context}:{kind}")
        };
        keys.insert(key);
    }
    keys
}

/// The outcome of comparing the current findings against a baseline
/// report: findings not present in the baseline, and baseline entries
/// no longer found.
pub struct Diff {
    pub new: Vec<String>,
    pub fixed: Vec<String>,
}

/// Compares current findings (allowed or not) against a baseline
/// report's findings by diff identity.
pub fn diff_against(findings: &[Finding], baseline: &str) -> Diff {
    let base = baseline_keys(baseline);
    let current: BTreeSet<String> = findings.iter().map(Finding::diff_key).collect();
    Diff {
        new: current.difference(&base).cloned().collect(),
        fixed: base.difference(&current).cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, context: &str) -> Finding {
        Finding {
            rule: "no-panics",
            kind: String::new(),
            file: file.to_string(),
            line: 3,
            col: 0,
            context: context.to_string(),
            message: "m".to_string(),
            snippet: "s".to_string(),
            chain: Vec::new(),
            allowed: false,
        }
    }

    fn df_finding(file: &str, context: &str, kind: &str) -> Finding {
        let mut f = finding(file, context);
        f.rule = "lock-discipline";
        f.kind = kind.to_string();
        f.col = 9;
        f.chain = vec!["a::f".to_string(), "b::g".to_string()];
        f
    }

    #[test]
    fn allowlist_matches_exact_and_wildcard_keys() {
        let a = Allowlist::parse("# comment\n\ncrates/x/src/a.rs:f\ncrates/y/src/b.rs:*\n");
        assert_eq!(a.len(), 2);
        assert!(a.covers(&finding("crates/x/src/a.rs", "f")));
        assert!(!a.covers(&finding("crates/x/src/a.rs", "g")));
        assert!(a.covers(&finding("crates/y/src/b.rs", "anything")));
    }

    #[test]
    fn allowlist_matches_kinded_keys() {
        let a = Allowlist::parse("crates/x/src/a.rs:f:blocking-under-lock\n");
        assert!(a.covers(&df_finding("crates/x/src/a.rs", "f", "blocking-under-lock")));
        assert!(!a.covers(&df_finding("crates/x/src/a.rs", "f", "order-inversion")));
        // A kinded entry never covers the kindless legacy key.
        assert!(!a.covers(&finding("crates/x/src/a.rs", "f")));
    }

    #[test]
    fn stale_entries_are_reported() {
        let a = Allowlist::parse(
            "crates/x/src/a.rs:f\ncrates/x/src/a.rs:gone\ncrates/z/src/c.rs:*\n\
             crates/w/src/d.rs:*\n",
        );
        let findings = [
            finding("crates/x/src/a.rs", "f"),
            finding("crates/w/src/d.rs", "h"),
        ];
        let stale = a.stale_entries(&findings);
        assert_eq!(stale, vec!["crates/x/src/a.rs:gone", "crates/z/src/c.rs:*"]);
    }

    #[test]
    fn json_report_counts_and_escapes() {
        let mut f = finding("a.rs", "f");
        f.snippet = "say \"hi\"\\".to_string();
        let mut g = df_finding("b.rs", "g", "order-inversion");
        g.allowed = true;
        let json = render_json(&[f, g], 7);
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"files_scanned\": 7"));
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"allowlisted\": 1"));
        assert!(json.contains("say \\\"hi\\\"\\\\"));
        assert!(json.contains("\"chain\": [\"a::f\", \"b::g\"]"));
        assert!(json.contains("\"kind\": \"order-inversion\""));
    }

    #[test]
    fn diff_round_trips_through_rendered_report() {
        let old = [finding("a.rs", "f"), df_finding("b.rs", "g", "unwrap")];
        let baseline = render_json(&old, 2);
        let now = [finding("a.rs", "f"), df_finding("c.rs", "h", "raw-arith")];
        let d = diff_against(&now, &baseline);
        assert_eq!(d.new, vec!["lock-discipline|c.rs:h:raw-arith"]);
        assert_eq!(d.fixed, vec!["lock-discipline|b.rs:g:unwrap"]);
    }

    #[test]
    fn diff_reads_schema_one_reports() {
        let baseline = "{\n  \"findings\": [\n    {\"rule\": \"no-panics\", \"file\": \"a.rs\", \
                        \"line\": 3, \"context\": \"f\", \"allowed\": false, \"message\": \"m\", \
                        \"snippet\": \"s\"}\n  ]\n}\n";
        let keys = baseline_keys(baseline);
        assert!(keys.contains("no-panics|a.rs:f"));
    }
}
