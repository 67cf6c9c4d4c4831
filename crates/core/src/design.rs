//! The design space of CDN–broker decision interfaces (§4.2, Table 2).
//!
//! Every design runs the same seven-step Decision Protocol and differs only
//! in *Share* (does the broker send client data to CDNs?), *Matching*
//! (single- or multi-cluster), and *Announce* (which of cost, performance,
//! capacity the CDNs reveal). Table 2 also records which of the §3
//! requirements each design meets: Cluster-level Optimization (CO), Dynamic
//! Cluster Pricing (DCP), and Traffic Predictability (TP).

use vdx_cdn::MatchingConfig;

/// How strongly a design provides a requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provision {
    /// Not provided.
    No,
    /// Weakly provided (Marketplace's single-round bidding).
    Weak,
    /// Strongly provided (Transactions' multi-round commit).
    Strong,
}

/// A CDN–broker decision interface design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Today's world: single-cluster matching, flat-rate prices, nothing
    /// announced.
    Brokered,
    /// CDNs offer `k` candidate clusters; performance announced, flat-rate
    /// prices. The paper evaluates k = 2 and k = 100.
    Multicluster(usize),
    /// Single-cluster matching but per-cluster dynamic prices announced.
    DynamicPricing,
    /// Multicluster + DynamicPricing: multi-cluster matching with cost and
    /// performance announced, but no capacity info.
    DynamicMulticluster,
    /// DynamicMulticluster + capacity announcements — but CDNs bid without
    /// knowing which clients the broker controls, so capacity can be
    /// overbooked by background traffic.
    BestLookup,
    /// The VDX marketplace: brokers Share client data, CDNs bid per-cluster
    /// with cost, performance and (residual) capacity.
    Marketplace,
    /// Marketplace plus multi-round all-CDN commit. Impractical (§4.2) but
    /// included for completeness; it matches Marketplace in a single-broker
    /// simulation.
    Transactions,
    /// Upper bound: the broker sees every CDN's full internal state.
    Omniscient,
}

impl Design {
    /// The designs evaluated in the paper's Table 3, in its row order.
    pub const TABLE3: [Design; 8] = [
        Design::Brokered,
        Design::Multicluster(2),
        Design::Multicluster(100),
        Design::DynamicPricing,
        Design::DynamicMulticluster,
        Design::BestLookup,
        Design::Marketplace,
        Design::Omniscient,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Design::Brokered => "Brokered".into(),
            Design::Multicluster(k) => format!("Multicluster ({k})"),
            Design::DynamicPricing => "DynamicPricing".into(),
            Design::DynamicMulticluster => "DynamicMulticluster".into(),
            Design::BestLookup => "BestLookup".into(),
            Design::Marketplace => "Marketplace".into(),
            Design::Transactions => "Transactions".into(),
            Design::Omniscient => "Omniscient".into(),
        }
    }

    /// Parses a design name, case-insensitively: the command-line
    /// spellings (`brokered`, `multicluster:K`, `dynamic-pricing`,
    /// `dynamic-multicluster`, `best-lookup`, `marketplace`,
    /// `transactions`, `omniscient`; bare `multicluster` means k = 2) and
    /// every [`Design::name`] spelling.
    pub fn parse(s: &str) -> Option<Design> {
        let lower = s.to_ascii_lowercase();
        if let Some(k) = lower.strip_prefix("multicluster") {
            let k = k
                .strip_prefix(':')
                .or_else(|| k.strip_prefix(" (").and_then(|k| k.strip_suffix(')')));
            return match k {
                Some(k) => k.parse::<usize>().ok().map(Design::Multicluster),
                None if lower == "multicluster" => Some(Design::Multicluster(2)),
                None => None,
            };
        }
        match lower.as_str() {
            "brokered" => Some(Design::Brokered),
            "dynamic-pricing" | "dynamicpricing" => Some(Design::DynamicPricing),
            "dynamic-multicluster" | "dynamicmulticluster" => Some(Design::DynamicMulticluster),
            "best-lookup" | "bestlookup" => Some(Design::BestLookup),
            "marketplace" => Some(Design::Marketplace),
            "transactions" => Some(Design::Transactions),
            "omniscient" => Some(Design::Omniscient),
            _ => None,
        }
    }

    /// Whether the broker Shares client (meta-)data with CDNs before
    /// matching (Table 2's "Share" column).
    pub fn shares_clients(&self) -> bool {
        matches!(
            self,
            Design::Marketplace | Design::Transactions | Design::Omniscient
        )
    }

    /// Number of candidate clusters each CDN may offer per client group
    /// (Table 2's "Matching" column). `usize::MAX` = unrestricted.
    pub fn max_candidates(&self) -> usize {
        match self {
            Design::Brokered | Design::DynamicPricing => 1,
            Design::Multicluster(k) => (*k).max(1),
            Design::DynamicMulticluster | Design::BestLookup => 100,
            Design::Marketplace | Design::Transactions => 100,
            Design::Omniscient => usize::MAX,
        }
    }

    /// The matching rule a round of this design runs, the pure round and
    /// every CDN agent alike: the paper's 2× score cutoff truncated to
    /// [`Design::max_candidates`] bids, or no cutoff at all for Omniscient
    /// (the broker sees every cluster).
    pub fn matching(&self) -> MatchingConfig {
        if *self == Design::Omniscient {
            MatchingConfig::unrestricted()
        } else {
            MatchingConfig::default().with_max_candidates(self.max_candidates())
        }
    }

    /// Whether per-cluster prices are announced (otherwise the broker only
    /// knows flat contract prices).
    pub fn announces_cost(&self) -> bool {
        !matches!(self, Design::Brokered | Design::Multicluster(_))
    }

    /// Whether per-cluster capacities are announced (otherwise the broker
    /// estimates the per-CDN median, §5.1).
    pub fn announces_capacity(&self) -> bool {
        matches!(
            self,
            Design::BestLookup | Design::Marketplace | Design::Transactions | Design::Omniscient
        )
    }

    /// Whether announced capacity is *residual* (net of the CDN's other
    /// commitments). Only designs that receive client data can allocate
    /// capacity to this broker properly (§4.2's BestLookup-vs-Marketplace
    /// distinction).
    pub fn capacity_is_residual(&self) -> bool {
        self.shares_clients() && self.announces_capacity()
    }

    /// Whether a round of this design consults live per-round information
    /// from CDNs (dynamic prices and/or capacities) — i.e. whether the
    /// exchange must actually deliver messages for the round to proceed.
    /// Flat-information designs (Brokered, Multicluster) decide purely
    /// from pre-negotiated contract data the broker already holds, so
    /// they are immune to exchange faults (DESIGN.md §9).
    pub fn uses_exchange(&self) -> bool {
        self.announces_cost() || self.announces_capacity()
    }

    /// Cluster-level Optimization (requirement 1, §3.3).
    pub fn cluster_level_optimization(&self) -> bool {
        self.max_candidates() > 1
    }

    /// Dynamic Cluster Pricing (requirement 2, §3.2).
    pub fn dynamic_cluster_pricing(&self) -> bool {
        self.announces_cost()
    }

    /// Traffic Predictability (requirement 3, §3.2).
    pub fn traffic_predictability(&self) -> Provision {
        match self {
            Design::Marketplace => Provision::Weak,
            Design::Transactions => Provision::Strong,
            Design::Omniscient => Provision::Weak,
            _ => Provision::No,
        }
    }

    /// Whether the design is practically deployable (§4.2 rules out
    /// Transactions: "CDNs may never all approve the mapping").
    pub fn is_practical(&self) -> bool {
        !matches!(self, Design::Transactions | Design::Omniscient)
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_share_column() {
        assert!(!Design::Brokered.shares_clients());
        assert!(!Design::BestLookup.shares_clients());
        assert!(Design::Marketplace.shares_clients());
        assert!(Design::Transactions.shares_clients());
    }

    #[test]
    fn table2_matching_column() {
        assert_eq!(Design::Brokered.max_candidates(), 1);
        assert_eq!(Design::DynamicPricing.max_candidates(), 1);
        assert_eq!(Design::Multicluster(2).max_candidates(), 2);
        assert_eq!(Design::Multicluster(100).max_candidates(), 100);
        assert!(Design::Marketplace.max_candidates() > 1);
    }

    #[test]
    fn table2_announce_column() {
        assert!(!Design::Brokered.announces_cost());
        assert!(!Design::Multicluster(2).announces_cost());
        assert!(Design::DynamicPricing.announces_cost());
        assert!(!Design::DynamicPricing.announces_capacity());
        assert!(!Design::DynamicMulticluster.announces_capacity());
        assert!(Design::BestLookup.announces_capacity());
        assert!(Design::Marketplace.announces_capacity());
    }

    #[test]
    fn requirements_matrix_matches_table2() {
        // CO: only multi-cluster designs.
        assert!(!Design::Brokered.cluster_level_optimization());
        assert!(Design::Multicluster(2).cluster_level_optimization());
        assert!(!Design::DynamicPricing.cluster_level_optimization());
        assert!(Design::Marketplace.cluster_level_optimization());
        // DCP.
        assert!(!Design::Multicluster(100).dynamic_cluster_pricing());
        assert!(Design::DynamicMulticluster.dynamic_cluster_pricing());
        // TP.
        assert_eq!(Design::Brokered.traffic_predictability(), Provision::No);
        assert_eq!(Design::BestLookup.traffic_predictability(), Provision::No);
        assert_eq!(
            Design::Marketplace.traffic_predictability(),
            Provision::Weak
        );
        assert_eq!(
            Design::Transactions.traffic_predictability(),
            Provision::Strong
        );
    }

    #[test]
    fn flat_information_designs_do_not_need_the_exchange() {
        assert!(!Design::Brokered.uses_exchange());
        assert!(!Design::Multicluster(2).uses_exchange());
        assert!(!Design::Multicluster(100).uses_exchange());
        assert!(Design::DynamicPricing.uses_exchange());
        assert!(Design::DynamicMulticluster.uses_exchange());
        assert!(Design::BestLookup.uses_exchange());
        assert!(Design::Marketplace.uses_exchange());
        assert!(Design::Omniscient.uses_exchange());
    }

    #[test]
    fn only_marketplace_like_designs_get_residual_capacity() {
        assert!(!Design::BestLookup.capacity_is_residual());
        assert!(Design::Marketplace.capacity_is_residual());
        assert!(Design::Omniscient.capacity_is_residual());
    }

    #[test]
    fn practicality_judgement() {
        assert!(Design::Marketplace.is_practical());
        assert!(!Design::Transactions.is_practical());
        assert!(!Design::Omniscient.is_practical());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Design::Multicluster(2).name(), "Multicluster (2)");
        assert_eq!(Design::Marketplace.to_string(), "Marketplace");
        for d in Design::TABLE3.into_iter().chain([Design::Transactions]) {
            assert_eq!(Design::parse(&d.name()), Some(d), "{}", d.name());
        }
        assert_eq!(
            Design::parse("multicluster:7"),
            Some(Design::Multicluster(7))
        );
        assert_eq!(Design::parse("Multicluster"), Some(Design::Multicluster(2)));
        assert_eq!(Design::parse("best-lookup"), Some(Design::BestLookup));
        assert_eq!(Design::parse("multicluster:x"), None);
        assert_eq!(Design::parse("multiclusters"), None);
        assert_eq!(Design::parse("vdx"), None);
    }

    #[test]
    fn table3_row_order() {
        assert_eq!(Design::TABLE3.len(), 8);
        assert_eq!(Design::TABLE3[0], Design::Brokered);
        assert_eq!(Design::TABLE3[7], Design::Omniscient);
    }
}
