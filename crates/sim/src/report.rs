//! Plain-text rendering of experiment results: fixed-width tables and
//! simple series listings, shared by the `repro` binary, the examples and
//! the benches. No dependencies, no colours — output is meant to be
//! diffable and greppable.

// One fixed-width table idiom for experiment reports and audit queries:
// the implementation lives in `vdx-audit`, which `vdx-sim` depends on.
pub use vdx_audit::render::{fmt, render_table};

/// Renders an `(x, y)` series with a caption.
pub fn render_series(title: &str, x_label: &str, y_label: &str, points: &[(f64, f64)]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(x, y)| vec![format!("{x:.2}"), format!("{y:.3}")])
        .collect();
    render_table(title, &[x_label, y_label], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_rendering() {
        let out = render_series("S", "x", "y", &[(1.0, 2.0), (3.0, 4.5)]);
        assert!(out.contains("1.00"));
        assert!(out.contains("4.500"));
    }
}
