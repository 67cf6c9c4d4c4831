//! Coarse geographic regions.
//!
//! The paper (§2.1, §3.2) emphasises that today's CDN pricing is flat-rate
//! per *continent-scale region*, while internal costs vary per country by up
//! to ~30× (its Fig 3) and per region by the CloudFlare-published ratios
//! (Europe 1×, North America 1.5×, Asia 7×, Latin America 17×, Australia
//! 21×). Regions are therefore first-class here: they anchor both coordinate
//! generation and the baseline bandwidth-cost multipliers that
//! `vdx-cdn::cost` perturbs per country.

/// A continent-scale geographic region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Europe (the CloudFlare cost baseline).
    Europe,
    /// North America.
    NorthAmerica,
    /// Asia.
    Asia,
    /// Latin America.
    LatinAmerica,
    /// Oceania / Australia.
    Oceania,
    /// Africa and the Middle East (not in the CloudFlare list; modelled at
    /// the high end, between Latin America and Oceania).
    Africa,
}

impl Region {
    /// All regions, in a fixed order used by generators.
    pub const ALL: [Region; 6] = [
        Region::Europe,
        Region::NorthAmerica,
        Region::Asia,
        Region::LatinAmerica,
        Region::Oceania,
        Region::Africa,
    ];

    /// Baseline bandwidth-cost multiplier relative to Europe, from the
    /// CloudFlare figures quoted in §3.2 of the paper.
    pub fn bandwidth_cost_multiplier(&self) -> f64 {
        match self {
            Region::Europe => 1.0,
            Region::NorthAmerica => 1.5,
            Region::Asia => 7.0,
            Region::LatinAmerica => 17.0,
            Region::Oceania => 21.0,
            Region::Africa => 19.0,
        }
    }

    /// Rough share of global demand originating in the region. Used by the
    /// world generator to size per-region country and city counts. Sums to 1.
    pub fn demand_share(&self) -> f64 {
        match self {
            Region::Europe => 0.28,
            Region::NorthAmerica => 0.30,
            Region::Asia => 0.24,
            Region::LatinAmerica => 0.10,
            Region::Oceania => 0.03,
            Region::Africa => 0.05,
        }
    }

    /// A latitude/longitude bounding box `(lat_min, lat_max, lon_min,
    /// lon_max)` used to place synthetic country centres. Boxes are coarse
    /// (and deliberately disjoint) — they only need to produce plausible
    /// intra- vs. inter-region distances.
    pub fn bounding_box(&self) -> (f64, f64, f64, f64) {
        match self {
            Region::Europe => (36.0, 60.0, -10.0, 30.0),
            Region::NorthAmerica => (25.0, 50.0, -125.0, -70.0),
            Region::Asia => (5.0, 45.0, 65.0, 140.0),
            Region::LatinAmerica => (-35.0, 20.0, -110.0, -35.0),
            Region::Oceania => (-43.0, -12.0, 113.0, 178.0),
            Region::Africa => (-30.0, 30.0, -15.0, 50.0),
        }
    }

    /// Stable short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Region::Europe => "EU",
            Region::NorthAmerica => "NA",
            Region::Asia => "AS",
            Region::LatinAmerica => "LA",
            Region::Oceania => "OC",
            Region::Africa => "AF",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_shares_sum_to_one() {
        let total: f64 = Region::ALL.iter().map(|r| r.demand_share()).sum();
        assert!((total - 1.0).abs() < 1e-9, "got {total}");
    }

    #[test]
    fn europe_is_cheapest() {
        for r in Region::ALL {
            assert!(r.bandwidth_cost_multiplier() >= Region::Europe.bandwidth_cost_multiplier());
        }
    }

    #[test]
    fn multiplier_spread_matches_cloudflare_range() {
        let max = Region::ALL
            .iter()
            .map(|r| r.bandwidth_cost_multiplier())
            .fold(f64::MIN, f64::max);
        assert!((max - 21.0).abs() < 1e-9);
    }

    #[test]
    fn bounding_boxes_are_well_formed() {
        for r in Region::ALL {
            let (lat0, lat1, lon0, lon1) = r.bounding_box();
            assert!(lat0 < lat1, "{r:?}");
            assert!(lon0 < lon1, "{r:?}");
            assert!((-90.0..=90.0).contains(&lat0) && (-90.0..=90.0).contains(&lat1));
            assert!((-180.0..=180.0).contains(&lon0) && (-180.0..=180.0).contains(&lon1));
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Region::ALL.iter().map(|r| r.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), Region::ALL.len());
    }
}
