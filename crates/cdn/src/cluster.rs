//! Clusters: the unit of delivery, pricing, and capacity.
//!
//! A cluster lives in a city, costs a certain number of dollars per bit to
//! serve from (bandwidth + co-location, following the paper's Akamai cost
//! breakdown in §2.1), and has a provisioned capacity in kbit/s. Cluster
//! ids are globally unique across the whole fleet so that broker-side data
//! structures can be flat arrays.

use vdx_geo::CityId;
use vdx_units::{Kbps, UsdPerGb};

/// Globally unique cluster id (index into the fleet's flat cluster list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// Index into the fleet-wide cluster list.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cl{:04}", self.0)
    }
}

/// Identifier of a CDN within the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CdnId(pub u32);

impl CdnId {
    /// Index into the fleet's CDN list.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CdnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CDN {}", self.0 + 1)
    }
}

/// A CDN cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Globally unique id.
    pub id: ClusterId,
    /// Owning CDN.
    pub cdn: CdnId,
    /// City the cluster is deployed in.
    pub city: CityId,
    /// Bandwidth cost per unit of traffic delivered (relative units;
    /// the global demand-weighted average country is ~1.0).
    pub bandwidth_cost: UsdPerGb,
    /// Co-location (space/energy) cost, same units.
    pub colo_cost: UsdPerGb,
    /// Provisioned capacity. Zero until capacity planning runs.
    pub capacity_kbps: Kbps,
}

impl Cluster {
    /// Total internal cost per unit of traffic delivered from this cluster.
    pub fn cost_per_mb(&self) -> UsdPerGb {
        self.bandwidth_cost + self.colo_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ClusterId(7).to_string(), "cl0007");
        assert_eq!(CdnId(0).to_string(), "CDN 1");
        assert_eq!(CdnId(13).to_string(), "CDN 14");
    }

    #[test]
    fn cost_is_sum_of_components() {
        let c = Cluster {
            id: ClusterId(0),
            cdn: CdnId(0),
            city: CityId(0),
            bandwidth_cost: UsdPerGb::per_megabit(1.5),
            colo_cost: UsdPerGb::per_megabit(0.5),
            capacity_kbps: Kbps::ZERO,
        };
        assert_eq!(c.cost_per_mb(), UsdPerGb::per_megabit(2.0));
    }
}
