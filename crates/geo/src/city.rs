//! Cities: the granularity at which clients and clusters are placed.
//!
//! The paper's broker trace records the *city* of every client session, and
//! Fig 5 sorts CDN usage by "# of requests per city"; city sizes follow a
//! power law (§3.1). Cities are also where CDN clusters live — a cluster is
//! "in" a city, and the data-path distance metric of Table 3 / Fig 17 is the
//! great-circle distance between a client's city and its serving cluster's
//! city.

use crate::{CountryId, GeoPoint};

/// Index of a city within a [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CityId(pub u32);

impl CityId {
    /// The city's position in `World::cities()`.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "city{:04}", self.0)
    }
}

/// A synthetic city.
#[derive(Debug, Clone)]
pub struct City {
    /// Stable id; equals the city's index in the world's city list.
    pub id: CityId,
    /// Country the city belongs to.
    pub country: CountryId,
    /// Location on the globe.
    pub location: GeoPoint,
    /// Relative population / demand weight. City weights within a world
    /// follow a power law (Pareto), matching the paper's trace statistics.
    pub population_weight: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(CityId(7).to_string(), "city0007");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(CityId(1) < CityId(2));
        assert_eq!(CityId(5).index(), 5);
    }
}
