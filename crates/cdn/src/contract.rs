//! Flat-rate CDN–CP contracts.
//!
//! §5.1 of the paper: "A CDN's contract price is the average price per bit
//! for the CDN if it was individually offered to all clients", and §7.1
//! pins the operative definition down — "CDN 1 has an expensive flat-rate
//! price (**i.e., median cluster cost**)". The *unweighted* median over a
//! CDN's clusters is the definition that produces the paper's economics:
//! a highly distributed CDN's median is pulled up by its many
//! remote/expensive clusters, so brokers avoid it in cheap metros and only
//! send it the traffic nobody else can serve — which comes from clusters
//! costing *more* than the median, i.e. a loss (the Fig 6 toy example and
//! the Fig 10 ratios). A single-cluster CDN's median is exactly its cost,
//! so with the §7.1 markup of 1.2 it always profits (Fig 16).

use crate::cluster::CdnId;
use crate::deploy::Fleet;
use vdx_units::{Margin, UsdPerGb};

/// The paper's markup factor on contract prices (§7.1).
pub const DEFAULT_MARKUP: Margin = Margin::literal(1.2);

/// A flat-rate CDN–CP contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contract {
    /// The CDN under contract.
    pub cdn: CdnId,
    /// Flat unit price: the CDN's median cluster cost.
    pub base_price_per_mb: UsdPerGb,
    /// Markup factor applied when the CP is billed.
    pub markup: Margin,
}

impl Contract {
    /// What the CP actually pays per unit of traffic.
    pub fn billed_price_per_mb(&self) -> UsdPerGb {
        self.base_price_per_mb * self.markup
    }
}

/// Negotiates a flat-rate contract for `cdn`: the base price is the
/// unweighted median of the CDN's per-cluster costs (see module docs).
/// Returns a zero-price contract for a cluster-less CDN.
pub fn negotiate_contract(fleet: &Fleet, cdn: CdnId, markup: Margin) -> Contract {
    let mut costs: Vec<UsdPerGb> = fleet.clusters_of(cdn).map(|c| c.cost_per_mb()).collect();
    let base = if costs.is_empty() {
        UsdPerGb::ZERO
    } else {
        costs.sort_by(UsdPerGb::total_cmp);
        let n = costs.len();
        if n % 2 == 1 {
            costs[n / 2]
        } else {
            costs[n / 2 - 1].midpoint(costs[n / 2])
        }
    };
    Contract {
        cdn,
        base_price_per_mb: base,
        markup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterId};
    use crate::deploy::{Cdn, DeploymentModel, Fleet};
    use vdx_geo::CityId;
    use vdx_units::Kbps;

    fn fleet_with_costs(costs: &[f64]) -> Fleet {
        let clusters: Vec<Cluster> = costs
            .iter()
            .enumerate()
            .map(|(i, &cost)| Cluster {
                id: ClusterId(i as u32),
                cdn: CdnId(0),
                city: CityId(i as u32),
                bandwidth_cost: UsdPerGb::per_megabit(cost),
                colo_cost: UsdPerGb::ZERO,
                capacity_kbps: Kbps::ZERO,
            })
            .collect();
        Fleet {
            cdns: vec![Cdn {
                id: CdnId(0),
                model: DeploymentModel::Centralized { sites: costs.len() },
                clusters: clusters.iter().map(|c| c.id).collect(),
            }],
            clusters,
        }
    }

    #[test]
    fn contract_price_is_median_cluster_cost() {
        let fleet = fleet_with_costs(&[1.0, 10.0, 3.0]);
        let c = negotiate_contract(&fleet, CdnId(0), DEFAULT_MARKUP);
        assert_eq!(c.base_price_per_mb, UsdPerGb::per_megabit(3.0));
        assert!((c.billed_price_per_mb().as_per_megabit() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn even_cluster_count_averages_middle_pair() {
        let fleet = fleet_with_costs(&[1.0, 2.0, 4.0, 10.0]);
        let c = negotiate_contract(&fleet, CdnId(0), DEFAULT_MARKUP);
        assert_eq!(c.base_price_per_mb, UsdPerGb::per_megabit(3.0));
    }

    #[test]
    fn single_cluster_cdn_price_equals_its_cost() {
        // §7.2's key mechanism: "the cost of their single cluster is always
        // equal to their contract price … and thus they profit."
        let fleet = fleet_with_costs(&[2.5]);
        let c = negotiate_contract(&fleet, CdnId(0), DEFAULT_MARKUP);
        assert_eq!(c.base_price_per_mb, UsdPerGb::per_megabit(2.5));
    }

    #[test]
    fn remote_clusters_inflate_a_distributed_cdns_price() {
        // The §7.1 mechanism: the same cheap metro clusters, with a tail of
        // expensive remote ones, produce a higher flat price.
        let metro_only = negotiate_contract(
            &fleet_with_costs(&[1.0, 1.1, 1.2]),
            CdnId(0),
            Margin::new(1.2),
        );
        let distributed = negotiate_contract(
            &fleet_with_costs(&[1.0, 1.1, 1.2, 4.0, 6.0, 9.0, 12.0]),
            CdnId(0),
            Margin::new(1.2),
        );
        assert!(distributed.base_price_per_mb > metro_only.base_price_per_mb);
    }

    #[test]
    fn clusterless_cdn_gets_zero_price() {
        let mut fleet = fleet_with_costs(&[1.0]);
        fleet.cdns[0].clusters.clear();
        let c = negotiate_contract(&fleet, CdnId(0), DEFAULT_MARKUP);
        assert_eq!(c.base_price_per_mb, UsdPerGb::ZERO);
    }
}
