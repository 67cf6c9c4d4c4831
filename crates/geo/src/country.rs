//! Countries: the granularity at which the paper reports costs and profits.
//!
//! Figures 3, 7 and 13–15 of the paper are all *per-country* plots; the
//! cost-disparity argument (§3.2) is fundamentally about countries sharing a
//! flat-rate price while having wildly different internal costs. A
//! [`Country`] therefore carries its own `cost_index` — cost per byte
//! relative to the global average — generated to match the paper's observed
//! ~30× spread (see `vdx-cdn::cost` for how clusters perturb it).

use crate::{GeoPoint, Region};

/// Index of a country within a [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryId(pub u32);

impl CountryId {
    /// The country's position in `World::countries()`.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CountryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{:02}", self.0)
    }
}

/// A synthetic country.
#[derive(Debug, Clone)]
pub struct Country {
    /// Stable id; equals the country's index in the world's country list.
    pub id: CountryId,
    /// Anonymised code ("C00", "C01", …), mirroring the paper's anonymised
    /// country axes.
    pub code: String,
    /// Region the country belongs to.
    pub region: Region,
    /// Geographic centre; cities scatter around it.
    pub center: GeoPoint,
    /// Relative demand weight (how much client traffic originates here).
    /// Positive; not normalised.
    pub demand_weight: f64,
    /// Average cost per byte served from this country, relative to the global
    /// average (1.0 = average). This is the quantity plotted in the paper's
    /// Fig 3, where the top-20 countries span roughly 0.15×–4× the average
    /// (a ~30× disparity).
    pub cost_index: f64,
}

impl Country {
    /// Returns true if serving from this country costs more than the global
    /// average.
    pub fn is_expensive(&self) -> bool {
        self.cost_index > 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(CountryId(3).to_string(), "C03");
        assert_eq!(CountryId(12).to_string(), "C12");
    }

    #[test]
    fn expensive_flag() {
        let mk = |ci: f64| Country {
            id: CountryId(0),
            code: "C00".into(),
            region: Region::Europe,
            center: GeoPoint::new(48.0, 8.0),
            demand_weight: 1.0,
            cost_index: ci,
        };
        assert!(mk(2.0).is_expensive());
        assert!(!mk(0.5).is_expensive());
    }
}
