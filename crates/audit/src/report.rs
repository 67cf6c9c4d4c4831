//! The full cross-run report: every query in [`crate::query::ALL_QUERIES`],
//! rendered in order. Queries with no rows render a `(no rows)` note
//! instead of disappearing, so the report's shape is stable.

use crate::query::{self, ALL_QUERIES};
use crate::render::render_query;
use crate::store::Store;

/// Renders the whole report for a store.
pub fn report(store: &Store) -> String {
    let mut out = format!("audit: {} run(s) loaded\n\n", store.runs().len());
    for (i, kind) in ALL_QUERIES.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_query(&query::run(store, *kind)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fixture_set, golden_journal, temp_dir, write_fixture};

    #[test]
    fn report_answers_cross_run_queries_from_two_same_seed_journals() {
        let dir = temp_dir("report");
        write_fixture(&dir, "a.jsonl", &golden_journal("commit-aaa", 0.0));
        write_fixture(&dir, "b.jsonl", &golden_journal("commit-bbb", 10.0));
        let store = Store::load(&[&dir]).expect("directory loads");

        let text = report(&store);
        // Acceptance: at least 4 cross-run queries answered with rows.
        let answered = [
            "== runs ==",
            "== objective-delta",
            "== hotspots",
            "== fault-league",
            "== wall-trend",
        ];
        for title in answered {
            let section = text
                .split("== ")
                .find(|s| format!("== {s}").starts_with(title))
                .unwrap_or_else(|| panic!("missing section {title}"));
            assert!(
                !section.contains("(no rows)"),
                "section {title} should have rows:\n{section}"
            );
        }
        // No bench report loaded, so table3-delta is honestly empty.
        assert!(text.contains("== table3-delta"));
        assert!(text.contains("commit-aaa") && text.contains("commit-bbb"));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// `report` over the fixture set, byte for byte. The text descends
    /// from the on-disk columnar store the in-memory fold replaced, which
    /// is what makes it an oracle rather than a snapshot of this code.
    const GOLDEN: &str = include_str!("../tests/golden_report.txt");

    #[test]
    fn report_reproduces_the_columnar_store_byte_for_byte() {
        let dir = temp_dir("report-golden");
        let store = Store::load(&fixture_set(&dir)).expect("fixture set loads");
        assert_eq!(report(&store), GOLDEN);
        // Every query has rows on this set, so none of the eight is
        // pinned only as a `(no rows)` note.
        assert!(!GOLDEN.contains("(no rows)"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
