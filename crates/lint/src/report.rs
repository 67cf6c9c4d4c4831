//! Findings and allowlists.
//!
//! Allowlist format (one file per rule under `lint/allow/`): `#`
//! comment lines, blank lines, and one key per entry. A key is
//! `<workspace-relative path>:<context>:<kind>`, where `context` is the
//! enclosing function and `kind` names the specific finding class
//! (`blocking-under-lock`, `order-inversion`, `double-acquire`).
//! `path:*` allows a whole file. Keys deliberately avoid line numbers so entries
//! survive unrelated edits. Entries that no longer match any finding
//! are themselves reported as `stale-allowlist` errors.

use std::collections::BTreeSet;
use std::path::Path;

/// One finding of one analysis.
#[derive(Debug, Clone, Default)]
pub struct Finding {
    /// Analysis identifier (`lock-discipline`) or the pipeline's own
    /// `parse-error` / `stale-allowlist`.
    pub rule: &'static str,
    /// Finding kind within the analysis (`blocking-under-lock`,
    /// `order-inversion`, `double-acquire`); empty for the pipeline's own
    /// findings.
    pub kind: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Allowlist context (enclosing fn name; see module docs).
    pub context: String,
    /// Human-readable description.
    pub message: String,
    /// Trimmed source line; the driver fills it in.
    pub snippet: String,
    /// Call chain (`caller -> ... -> blocking call` fn ids), when the
    /// finding is interprocedural.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, context: &str) -> Finding {
        Finding {
            rule: "parse-error",
            file: file.to_string(),
            line: 3,
            context: context.to_string(),
            ..Finding::default()
        }
    }

    fn df_finding(file: &str, context: &str, kind: &'static str) -> Finding {
        Finding {
            rule: "lock-discipline",
            kind,
            ..finding(file, context)
        }
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
        // A kinded entry never covers a kindless key.
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
}
