//! The Gather step: client sessions → client groups.
//!
//! The Decision Protocol operates on aggregated client (meta-)data — the
//! Share format of §6.1 is `[share_id, location, isp, content_id,
//! data_size, client_count]`. Grouping by **(city, bitrate rung)** keeps
//! the optimization tractable at CDN scale (the paper's broker handles 3M
//! concurrent clients; per-client ILPs would be absurd) while preserving
//! everything the decision depends on: scores are per-city, and the cost
//! term of Fig 9 is per-bitrate — a 3 Mbit/s client and a 235 kbit/s
//! client in the same city genuinely belong on different points of the
//! cost/performance trade-off.
//!
//! §5.1 also simulates "an additional 3× this amount of clients as
//! background traffic … not optimized by this broker";
//! [`synth_background`] generates it with the same city distribution.

use std::collections::BTreeMap;
use vdx_geo::CityId;
use vdx_rand::StdRng;
use vdx_trace::SessionRecord;
use vdx_units::Kbps;

/// Identifier of a client group within one Decision Protocol round. This is
/// the `share_id` of the paper's Share message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl GroupId {
    /// Index into the round's group list.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A group of same-bitrate clients in one city, the broker's optimization
/// unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientGroup {
    /// Group id (index within the round).
    pub id: GroupId,
    /// The clients' city.
    pub city: CityId,
    /// The group's bitrate rung, kbit/s.
    pub bitrate_kbps: u32,
    /// Aggregate steady-state demand (sessions × bitrate).
    pub demand_kbps: Kbps,
    /// Number of client sessions aggregated.
    pub sessions: u32,
}

/// Aggregates sessions into (city, bitrate) groups, ordered by city id then
/// bitrate.
pub fn gather_groups(sessions: &[SessionRecord]) -> Vec<ClientGroup> {
    let mut per_key: BTreeMap<(CityId, u32), u32> = BTreeMap::new();
    for s in sessions {
        *per_key.entry((s.city, s.bitrate_kbps)).or_insert(0) += 1;
    }
    per_key
        .into_iter()
        .enumerate()
        .map(|(i, ((city, bitrate_kbps), count))| ClientGroup {
            id: GroupId(i as u32),
            city,
            bitrate_kbps,
            demand_kbps: Kbps::new(bitrate_kbps as f64 * count as f64),
            sessions: count,
        })
        .collect()
}

/// Synthesizes background (non-broker) demand: `multiple ×` the brokered
/// demand, spread over the same cities proportionally to their brokered
/// demand with ±25 % deterministic noise. Returns per-city background
/// rates aligned with `groups`.
pub fn synth_background(groups: &[ClientGroup], multiple: f64, seed: u64) -> Vec<Kbps> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBAC6_0000);
    groups
        .iter()
        .map(|g| {
            let noise = 1.0 + rng.gen_range(-0.25..0.25);
            Kbps::new((g.demand_kbps.as_f64() * multiple * noise).max(0.0))
        })
        .collect()
}

/// Demand points `(city, rate)` for capacity planning / contracts, with
/// background folded in (`background[i]` aligned with `groups[i]`).
pub fn demand_points(groups: &[ClientGroup], background: &[Kbps]) -> Vec<(CityId, Kbps)> {
    groups
        .iter()
        .enumerate()
        .map(|(i, g)| {
            (
                g.city,
                g.demand_kbps + background.get(i).copied().unwrap_or(Kbps::ZERO),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdx_geo::{World, WorldConfig};
    use vdx_trace::{BrokerTrace, BrokerTraceConfig};

    fn sessions() -> Vec<SessionRecord> {
        let world = World::generate(&WorldConfig::default(), 3);
        BrokerTrace::generate(&world, &BrokerTraceConfig::small(), 3)
            .sessions()
            .to_vec()
    }

    #[test]
    fn groups_cover_every_session() {
        let sessions = sessions();
        let groups = gather_groups(&sessions);
        let total_sessions: u32 = groups.iter().map(|g| g.sessions).sum();
        assert_eq!(total_sessions as usize, sessions.len());
        let total_kbps: f64 = groups.iter().map(|g| g.demand_kbps.as_f64()).sum();
        let expect: f64 = sessions.iter().map(|s| s.bitrate_kbps as f64).sum();
        assert!((total_kbps - expect).abs() < 1e-6);
    }

    #[test]
    fn group_ids_are_dense_and_keys_unique() {
        let groups = gather_groups(&sessions());
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g.id.index(), i);
            assert_eq!(
                g.demand_kbps,
                Kbps::new(g.bitrate_kbps as f64 * g.sessions as f64)
            );
        }
        let mut keys: Vec<(CityId, u32)> =
            groups.iter().map(|g| (g.city, g.bitrate_kbps)).collect();
        let n = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), n, "one group per (city, bitrate)");
    }

    #[test]
    fn background_is_roughly_3x() {
        let groups = gather_groups(&sessions());
        let bg = synth_background(&groups, 3.0, 7);
        assert_eq!(bg.len(), groups.len());
        let total_bg: f64 = bg.iter().map(|b| b.as_f64()).sum();
        let total_fg: f64 = groups.iter().map(|g| g.demand_kbps.as_f64()).sum();
        let ratio = total_bg / total_fg;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
        // Per-city noise stays within the documented band.
        for (g, b) in groups.iter().zip(&bg) {
            let r = b.as_f64() / g.demand_kbps.as_f64();
            assert!((2.2..3.8).contains(&r), "per-city ratio {r}");
        }
    }

    #[test]
    fn background_is_deterministic() {
        let groups = gather_groups(&sessions());
        assert_eq!(
            synth_background(&groups, 3.0, 7),
            synth_background(&groups, 3.0, 7)
        );
        assert_ne!(
            synth_background(&groups, 3.0, 7),
            synth_background(&groups, 3.0, 8)
        );
    }

    #[test]
    fn demand_points_fold_background() {
        let groups = gather_groups(&sessions());
        let bg = synth_background(&groups, 3.0, 7);
        let pts = demand_points(&groups, &bg);
        assert_eq!(pts.len(), groups.len());
        assert!((pts[0].1 - (groups[0].demand_kbps + bg[0])).as_f64().abs() < 1e-9);
    }

    #[test]
    fn empty_sessions_give_empty_groups() {
        assert!(gather_groups(&[]).is_empty());
    }
}
