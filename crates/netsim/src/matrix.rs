//! [`ScoreMatrix`]: a dense, precomputed client-city × site-city score
//! table.
//!
//! Every consumer of [`NetModel::score`] in a scenario — capacity
//! planning, background placement, and each Decision Protocol round —
//! asks for the same (client city, cluster city) pairs over and over.
//! Each query recomputes haversine distance, route inflation, and the
//! deterministic pairwise jitter hashes from scratch. A scenario instead
//! builds one [`ScoreMatrix`] over its cluster cities and answers every
//! subsequent query with an O(1) table lookup.
//!
//! The fill runs on the calling thread, once per scenario build. Rows
//! are independent (scores are pure functions of `(seed, city pair)`, see
//! the crate docs), so it could fan out; at full scale that was worth
//! about 30 ms per build on two cores, which did not pay for a thread
//! pool.

use crate::path::NetModel;
use crate::score::Score;
use vdx_geo::{CityId, World};

/// A dense `[client city][site city]` score table with O(1) lookup.
///
/// Rows cover *every* city of the world (any city can host clients);
/// columns cover only the site cities passed to [`ScoreMatrix::build`]
/// (deduplicated — CDNs co-locate, so many clusters share a city).
#[derive(Debug, Clone)]
pub struct ScoreMatrix {
    /// `site_col[city.index()]` is `1 + column` when that city is a site,
    /// 0 when it is not.
    site_col: Vec<u32>,
    /// Number of distinct site columns.
    cols: usize,
    /// Row-major scores: `scores[client.index() * cols + column]`.
    scores: Vec<Score>,
}

impl ScoreMatrix {
    /// Precomputes `net.score(world, client, site)` for every world city ×
    /// every distinct city in `sites`. Duplicate sites share a column.
    pub fn build(net: &NetModel, world: &World, sites: &[CityId]) -> ScoreMatrix {
        let n_cities = world.cities().len();
        let mut site_col = vec![0u32; n_cities];
        let mut columns: Vec<CityId> = Vec::new();
        for &site in sites {
            let slot = &mut site_col[site.index()];
            if *slot == 0 {
                columns.push(site);
                *slot = columns.len() as u32;
            }
        }
        let cols = columns.len();
        let mut scores = vec![Score(0.0); n_cities * cols];
        if cols > 0 {
            for (city, row) in world.cities().iter().zip(scores.chunks_mut(cols)) {
                for (slot, &site) in row.iter_mut().zip(&columns) {
                    *slot = net.score(world, city.id, site);
                }
            }
        }
        ScoreMatrix {
            site_col,
            cols,
            scores,
        }
    }

    /// Number of distinct site columns in the table.
    pub fn sites(&self) -> usize {
        self.cols
    }

    /// True when the table has no site columns at all.
    pub fn is_empty(&self) -> bool {
        self.cols == 0
    }

    /// The precomputed score, or `None` when `site` was not in the build
    /// set (or either city is outside the world the table was built for).
    pub fn get(&self, client: CityId, site: CityId) -> Option<Score> {
        let col = *self.site_col.get(site.index())?;
        if col == 0 {
            return None;
        }
        self.scores
            .get(client.index() * self.cols + (col as usize - 1))
            .copied()
    }

    /// O(1) lookup for a pair known to be in the table.
    ///
    /// # Panics
    ///
    /// Panics when `site` was not in the build set; callers holding
    /// arbitrary pairs should use [`ScoreMatrix::get`] with a fallback.
    // A matrix built over a different fleet than the one queried is an
    // API-contract violation, and the message needs the offending ids,
    // which `expect` cannot format. Callers in this workspace always
    // build the matrix from the fleet they query.
    #[allow(clippy::panic)]
    pub fn score_of(&self, client: CityId, site: CityId) -> Score {
        self.get(client, site)
            .unwrap_or_else(|| panic!("({client:?}, {site:?}) is not in the score matrix"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::NetModelConfig;
    use vdx_geo::WorldConfig;

    fn setup() -> (World, NetModel) {
        let world = World::generate(
            &WorldConfig {
                countries: 8,
                cities: 40,
                ..Default::default()
            },
            7,
        );
        let net = NetModel::new(NetModelConfig::default(), 7);
        (world, net)
    }

    #[test]
    fn matrix_matches_the_net_model_for_every_pair() {
        let (world, net) = setup();
        // Every third city is a site — clients still cover all cities.
        let sites: Vec<CityId> = world.cities().iter().step_by(3).map(|c| c.id).collect();
        let matrix = ScoreMatrix::build(&net, &world, &sites);
        assert_eq!(matrix.sites(), sites.len());
        for client in world.cities() {
            for &site in &sites {
                assert_eq!(
                    matrix.score_of(client.id, site),
                    net.score(&world, client.id, site),
                    "({:?}, {site:?})",
                    client.id
                );
            }
        }
    }

    #[test]
    fn duplicate_sites_share_a_column() {
        let (world, net) = setup();
        let matrix = ScoreMatrix::build(&net, &world, &[CityId(1), CityId(1), CityId(3)]);
        assert_eq!(matrix.sites(), 2);
        assert_eq!(
            matrix.score_of(CityId(0), CityId(1)),
            net.score(&world, CityId(0), CityId(1))
        );
    }

    #[test]
    fn absent_sites_are_none() {
        let (world, net) = setup();
        let matrix = ScoreMatrix::build(&net, &world, &[CityId(1)]);
        assert!(matrix.get(CityId(0), CityId(2)).is_none());
        assert!(matrix.get(CityId(0), CityId(1)).is_some());
    }

    #[test]
    fn empty_site_set_builds_an_empty_table() {
        let (world, net) = setup();
        let matrix = ScoreMatrix::build(&net, &world, &[]);
        assert!(matrix.is_empty());
        assert!(matrix.get(CityId(0), CityId(0)).is_none());
    }
}
