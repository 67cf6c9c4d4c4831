//! Country cost views — the data behind the paper's Fig 3.
//!
//! Fig 3 plots "average cost per byte serving clients geolocated in various
//! countries relative to the average" for the 20 countries with the highest
//! traffic volume. The world generator already gives each country a
//! `cost_index` (1.0 = average); this module derives the figure's view:
//! pick the top-`k` countries by request volume and report their relative
//! costs as percentages.

use crate::broker::BrokerTrace;
use std::collections::BTreeMap;
use vdx_geo::{CountryId, World};

/// One row of the Fig 3 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryCostRow {
    /// The country.
    pub country: CountryId,
    /// Anonymised code.
    pub code: String,
    /// Requests observed from this country in the trace.
    pub requests: u64,
    /// Cost per byte relative to the global average, in percent
    /// (100 = average).
    pub cost_vs_avg_pct: f64,
}

/// Computes the Fig 3 view: the `top_k` countries by traffic volume with
/// their cost-vs-average percentages, ordered by descending requests.
pub fn top_country_costs(world: &World, trace: &BrokerTrace, top_k: usize) -> Vec<CountryCostRow> {
    let mut requests: BTreeMap<CountryId, u64> = BTreeMap::new();
    for s in trace.sessions() {
        *requests.entry(world.city(s.city).country).or_insert(0) += 1;
    }
    let mut rows: Vec<CountryCostRow> = requests
        .into_iter()
        .map(|(country, req)| {
            let c = world.country(country);
            CountryCostRow {
                country,
                code: c.code.clone(),
                requests: req,
                cost_vs_avg_pct: 100.0 * c.cost_index,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.requests.cmp(&a.requests).then(a.country.cmp(&b.country)));
    rows.truncate(top_k);
    rows
}

/// The min→max disparity of the given rows' costs (paper: up to ~30×).
pub fn cost_disparity(rows: &[CountryCostRow]) -> Option<f64> {
    let max = rows
        .iter()
        .map(|r| r.cost_vs_avg_pct)
        .fold(f64::NAN, f64::max);
    let min = rows
        .iter()
        .map(|r| r.cost_vs_avg_pct)
        .fold(f64::NAN, f64::min);
    if rows.is_empty() || min <= 0.0 {
        None
    } else {
        Some(max / min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerTraceConfig;
    use vdx_geo::WorldConfig;

    fn setup() -> (World, BrokerTrace) {
        let world = World::generate(&WorldConfig::default(), 5);
        let trace = BrokerTrace::generate(&world, &BrokerTraceConfig::default(), 5);
        (world, trace)
    }

    #[test]
    fn top20_is_sorted_and_sized() {
        let (world, trace) = setup();
        let rows = top_country_costs(&world, &trace, 20);
        assert_eq!(rows.len(), 20);
        for pair in rows.windows(2) {
            assert!(pair[0].requests >= pair[1].requests);
        }
    }

    #[test]
    fn disparity_is_large_like_fig3() {
        let (world, trace) = setup();
        let rows = top_country_costs(&world, &trace, 20);
        let disparity = cost_disparity(&rows).expect("rows present");
        assert!(disparity > 5.0, "disparity {disparity}");
        assert!(disparity < 300.0, "disparity {disparity}");
    }

    #[test]
    fn empty_rows_have_no_disparity() {
        assert!(cost_disparity(&[]).is_none());
    }
}
