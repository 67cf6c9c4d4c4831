//! Plain-text rendering of query results in a fixed-width,
//! right-aligned table idiom — diffable and greppable, no colours.
//! `vdx-sim`'s experiment reports re-export [`render_table`] and [`fmt`],
//! so both render through this one copy.

use crate::query::QueryResult;

/// Renders a fixed-width table. Every row must have `headers.len()`
/// cells.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Renders one query result; an empty result renders its title with a
/// `(no rows)` note, so reports never silently omit a query.
pub fn render_query(result: &QueryResult) -> String {
    if result.rows.is_empty() {
        return format!("== {} ==\n(no rows)\n", result.title);
    }
    let headers: Vec<&str> = result.headers.iter().map(String::as_str).collect();
    render_table(&result.title, &headers, &result.rows)
}

/// Formats a float compactly (3 significant-ish decimals, fixed).
pub fn fmt(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let out = render_table(
            "T",
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        assert!(out.contains("== T =="));
        let lines: Vec<&str> = out.lines().collect();
        // Header and rows align right on the same width.
        assert_eq!(lines[1].len(), lines[4].len());
        assert!(lines[4].ends_with("22"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        render_table("T", &["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn empty_query_renders_a_note() {
        let out = render_query(&QueryResult {
            title: "empty".into(),
            headers: vec!["a".into()],
            rows: Vec::new(),
        });
        assert!(out.contains("(no rows)"));
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(123.456), "123");
        assert_eq!(fmt(12.345), "12.35");
        assert_eq!(fmt(0.12345), "0.1235");
    }
}
