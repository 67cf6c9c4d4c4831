//! Broker session trace: records and synthesis.
//!
//! The real trace (§3.1 of the paper) covers "roughly an hour of off-peak
//! requests (33.4K total) for one content provider (a music video streaming
//! website)" with "an entry for each client session containing the request
//! arrival time, which video was requested, the average bitrate, session
//! duration, the client city and AS, the initial CDN contacted, and the
//! current CDN delivering the video". [`SessionRecord`] carries exactly
//! those fields (plus the full mid-stream switch history, which the paper's
//! Fig 4 statistic implies the real trace also has).
//!
//! The generator reproduces each published property; the module tests hold
//! it to them:
//!
//! | Property (paper) | Mechanism here |
//! |---|---|
//! | Zipf video popularity | [`crate::stats::Zipf`] over video ids |
//! | Power-law city sizes | city choice ∝ `population_weight` (Pareto) |
//! | ~78 % abandon almost immediately | abandon flag; 1–10 s durations |
//! | Bimodal bitrate (lowest/highest peaks) | three-component mixture over the ladder |
//! | ~40 % of active sessions moved, varying ~20–60 % (Fig 4) | sinusoidal move probability over arrival time, applied to non-abandoned sessions |
//! | CDN A favoured in small cities, B/C flat (Fig 5) | A's weight gains a small-city boost |
//! | Strong per-country CDN skew (Fig 7) | per-country preference weights with heavy mass near zero |

use crate::stats::{WeightedIndex, Zipf};
use std::collections::BTreeMap;
use vdx_geo::{CityId, CountryId, World};
use vdx_rand::StdRng;

/// Identifier of a session within a [`BrokerTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u32);

/// The CDNs visible in the broker trace. The paper anonymises them as "A"
/// (many locations), "B" and "C" (few large locations), and aggregates the
/// rest as "other".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CdnLabel {
    /// Highly distributed CDN.
    A,
    /// Centralized CDN.
    B,
    /// Centralized CDN.
    C,
    /// All remaining (smaller) CDNs.
    Other,
}

impl CdnLabel {
    /// All labels in display order.
    pub const ALL: [CdnLabel; 4] = [CdnLabel::A, CdnLabel::B, CdnLabel::C, CdnLabel::Other];

    /// Index into per-label arrays.
    pub fn index(&self) -> usize {
        match self {
            CdnLabel::A => 0,
            CdnLabel::B => 1,
            CdnLabel::C => 2,
            CdnLabel::Other => 3,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            CdnLabel::A => "CDN A",
            CdnLabel::B => "CDN B",
            CdnLabel::C => "CDN C",
            CdnLabel::Other => "other",
        }
    }
}

/// One client video session, mirroring the fields of the paper's trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Session id (index into the trace).
    pub id: SessionId,
    /// Request arrival time, seconds from trace start.
    pub arrival_s: f64,
    /// Requested video id (Zipf-popular).
    pub video: u32,
    /// Average bitrate of the session in kbit/s.
    pub bitrate_kbps: u32,
    /// Session duration in seconds.
    pub duration_s: f64,
    /// Client city.
    pub city: CityId,
    /// Client autonomous system number (synthetic).
    pub asn: u32,
    /// CDN the broker first assigned the client to.
    pub initial_cdn: CdnLabel,
    /// Mid-stream CDN switches as `(absolute time, new CDN)`, ascending.
    pub switches: Vec<(f64, CdnLabel)>,
}

impl SessionRecord {
    /// The CDN currently delivering the video (after all switches).
    pub fn current_cdn(&self) -> CdnLabel {
        self.switches
            .last()
            .map(|(_, c)| *c)
            .unwrap_or(self.initial_cdn)
    }

    /// Session end time.
    pub fn end_s(&self) -> f64 {
        self.arrival_s + self.duration_s
    }

    /// Whether the session overlaps the interval `[t0, t1)`.
    pub fn active_in(&self, t0: f64, t1: f64) -> bool {
        self.arrival_s < t1 && self.end_s() > t0
    }

    /// Whether the broker ever moved this session between CDNs.
    pub fn was_moved(&self) -> bool {
        !self.switches.is_empty()
    }

    /// Whether the client abandoned almost immediately (the paper counts
    /// ~78 % of sessions in this class).
    pub fn abandoned(&self, threshold_s: f64) -> bool {
        self.duration_s < threshold_s
    }

    /// Bits delivered over the session's lifetime.
    pub fn bits(&self) -> f64 {
        self.bitrate_kbps as f64 * 1000.0 * self.duration_s
    }
}

/// Configuration for [`BrokerTrace::generate`]. Defaults reproduce the
/// paper's trace scale and statistics.
#[derive(Debug, Clone)]
pub struct BrokerTraceConfig {
    /// Number of sessions (paper: 33.4 K).
    pub sessions: usize,
    /// Trace length in seconds (paper: "roughly an hour").
    pub trace_duration_s: f64,
    /// Size of the video catalogue.
    pub videos: usize,
    /// Zipf exponent for video popularity.
    pub zipf_exponent: f64,
    /// Fraction of sessions that abandon almost immediately (paper: ~78 %).
    pub abandon_fraction: f64,
    /// Abandoned sessions last `1..abandon_max_s` seconds.
    pub abandon_max_s: f64,
    /// Median duration (seconds) of watched (non-abandoned) sessions.
    pub watch_median_s: f64,
    /// Lognormal sigma of watched durations.
    pub watch_sigma: f64,
    /// The bitrate ladder in kbit/s (music-video rungs).
    pub bitrate_ladder_kbps: Vec<u32>,
    /// Probability mass on the lowest rung (bimodal peak #1).
    pub bitrate_low_peak: f64,
    /// Probability mass on the highest rung (bimodal peak #2).
    pub bitrate_high_peak: f64,
    /// Mean mid-stream move probability for non-abandoned sessions
    /// (Fig 4 average: ~0.4).
    pub move_base: f64,
    /// Amplitude of the sinusoidal variation of the move probability
    /// (Fig 4 range: ~0.2–0.6).
    pub move_amplitude: f64,
    /// Period of the variation, seconds.
    pub move_period_s: f64,
    /// Small-city boost for CDN A's selection weight (Fig 5): A's weight is
    /// multiplied by `1 + boost / (1 + population_weight)`.
    pub cdn_a_small_city_boost: f64,
}

impl Default for BrokerTraceConfig {
    fn default() -> Self {
        BrokerTraceConfig {
            sessions: 33_400,
            trace_duration_s: 3_600.0,
            videos: 4_000,
            zipf_exponent: 0.9,
            abandon_fraction: 0.78,
            abandon_max_s: 10.0,
            watch_median_s: 180.0,
            watch_sigma: 0.8,
            bitrate_ladder_kbps: vec![235, 375, 560, 750, 1050, 1750, 2350, 3000],
            bitrate_low_peak: 0.35,
            bitrate_high_peak: 0.35,
            move_base: 0.40,
            move_amplitude: 0.28,
            move_period_s: 1_500.0,
            cdn_a_small_city_boost: 6.0,
        }
    }
}

impl BrokerTraceConfig {
    /// A small configuration for fast tests and doc examples.
    pub fn small() -> Self {
        BrokerTraceConfig {
            sessions: 2_000,
            videos: 400,
            ..Default::default()
        }
    }
}

/// A synthetic broker trace over a [`World`].
#[derive(Debug, Clone)]
pub struct BrokerTrace {
    config: BrokerTraceConfig,
    sessions: Vec<SessionRecord>,
}

/// Per-country CDN preference weights (see module docs).
struct CountryPrefs {
    /// Base weights for `[A, B, C, Other]` before the city-size boost.
    base: [f64; 4],
}

impl BrokerTrace {
    /// Generates a trace deterministically from the world, config and seed.
    ///
    /// # Panics
    /// Panics if `config.sessions == 0`, the ladder is empty, or the peak
    /// masses exceed 1.
    pub fn generate(world: &World, config: &BrokerTraceConfig, seed: u64) -> BrokerTrace {
        assert!(config.sessions > 0, "trace needs sessions");
        assert!(
            !config.bitrate_ladder_kbps.is_empty(),
            "bitrate ladder empty"
        );
        assert!(
            config.bitrate_low_peak + config.bitrate_high_peak <= 1.0,
            "bitrate peak masses exceed 1"
        );
        let mut rng = StdRng::seed_from_u64(seed);

        let zipf = Zipf::new(config.videos.max(1), config.zipf_exponent);
        let city_weights: Vec<f64> = world.cities().iter().map(|c| c.population_weight).collect();
        let city_picker = WeightedIndex::new(&city_weights);
        let prefs = country_prefs(world, &mut rng);

        let mut sessions = Vec::with_capacity(config.sessions);
        for i in 0..config.sessions {
            let id = SessionId(i as u32);
            let arrival = rng.gen_range(0.0..config.trace_duration_s);
            let video = zipf.sample(&mut rng) as u32;
            let city_idx = city_picker.sample(&mut rng);
            let city = world.cities()[city_idx].id;
            let country = world.cities()[city_idx].country;

            let bitrate = sample_bitrate(config, &mut rng);
            let abandoned = rng.gen_bool(config.abandon_fraction);
            let duration = if abandoned {
                rng.gen_range(1.0..config.abandon_max_s)
            } else {
                sample_lognormal(&mut rng, config.watch_median_s.ln(), config.watch_sigma)
            };

            let pop = world.cities()[city_idx].population_weight;
            let initial_cdn = sample_cdn(&prefs[country.index()], pop, config, &mut rng, None);

            let mut switches = Vec::new();
            if !abandoned && duration > 30.0 {
                let p = move_probability(config, arrival);
                if rng.gen_bool(p) {
                    let t = arrival + rng.gen_range(5.0..duration.min(1_800.0));
                    let next = sample_cdn(
                        &prefs[country.index()],
                        pop,
                        config,
                        &mut rng,
                        Some(initial_cdn),
                    );
                    switches.push((t, next));
                    // Long sessions occasionally move a second time.
                    if duration > 600.0 && rng.gen_bool(p / 2.0) {
                        let t2 = t + rng.gen_range(5.0..(duration - (t - arrival)).max(6.0));
                        let next2 =
                            sample_cdn(&prefs[country.index()], pop, config, &mut rng, Some(next));
                        switches.push((t2, next2));
                    }
                }
            }

            sessions.push(SessionRecord {
                id,
                arrival_s: arrival,
                video,
                bitrate_kbps: bitrate,
                duration_s: duration,
                city,
                asn: 64_512 + (city.0 % 1_024) * 4 + rng.gen_range(0..4),
                initial_cdn,
                switches,
            });
        }
        sessions.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("finite"));
        for (i, s) in sessions.iter_mut().enumerate() {
            s.id = SessionId(i as u32);
        }
        BrokerTrace {
            config: config.clone(),
            sessions,
        }
    }

    /// The sessions, ordered by arrival time.
    pub fn sessions(&self) -> &[SessionRecord] {
        &self.sessions
    }

    /// Generation configuration.
    pub fn config(&self) -> &BrokerTraceConfig {
        &self.config
    }

    /// Request counts per city, descending by count.
    pub fn requests_per_city(&self) -> Vec<(CityId, u64)> {
        let mut counts: BTreeMap<CityId, u64> = BTreeMap::new();
        for s in &self.sessions {
            *counts.entry(s.city).or_insert(0) += 1;
        }
        let mut v: Vec<(CityId, u64)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// For each city: `(requests, usage share per CdnLabel)` based on the
    /// session's *current* CDN — the Fig 5 data set.
    pub fn usage_by_city(&self) -> Vec<(CityId, u64, [f64; 4])> {
        let mut counts: BTreeMap<CityId, [u64; 5]> = BTreeMap::new();
        for s in &self.sessions {
            let e = counts.entry(s.city).or_insert([0; 5]);
            e[s.current_cdn().index()] += 1;
            e[4] += 1;
        }
        counts
            .into_iter()
            .map(|(city, c)| {
                let total = c[4] as f64;
                (city, c[4], [0, 1, 2, 3].map(|i| c[i] as f64 / total))
            })
            .collect()
    }

    /// For each country: `(requests, usage share per CdnLabel)` — the
    /// Fig 7 data set.
    pub fn usage_by_country(&self, world: &World) -> Vec<(CountryId, u64, [f64; 4])> {
        let mut counts: BTreeMap<CountryId, [u64; 5]> = BTreeMap::new();
        for s in &self.sessions {
            let country = world.city(s.city).country;
            let e = counts.entry(country).or_insert([0; 5]);
            e[s.current_cdn().index()] += 1;
            e[4] += 1;
        }
        counts
            .into_iter()
            .map(|(country, c)| {
                let total = c[4] as f64;
                (country, c[4], [0, 1, 2, 3].map(|i| c[i] as f64 / total))
            })
            .collect()
    }

    /// Fig 4's time series: for consecutive `bin_s` intervals, the
    /// percentage of sessions active in the bin that were moved between
    /// CDNs at some point in their lifetime. Bins with no active sessions
    /// report 0.
    pub fn moved_sessions_series(&self, bin_s: f64) -> Vec<(f64, f64)> {
        assert!(bin_s > 0.0, "bin width must be positive");
        let bins = (self.config.trace_duration_s / bin_s).ceil() as usize;
        let mut series = Vec::with_capacity(bins);
        for b in 0..bins {
            let t0 = b as f64 * bin_s;
            let t1 = t0 + bin_s;
            let mut active = 0u64;
            let mut moved = 0u64;
            for s in &self.sessions {
                if s.active_in(t0, t1) {
                    active += 1;
                    if s.was_moved() {
                        moved += 1;
                    }
                }
            }
            let pct = if active == 0 {
                0.0
            } else {
                100.0 * moved as f64 / active as f64
            };
            series.push((t0, pct));
        }
        series
    }

    /// Fraction of sessions that abandoned (duration below the config's
    /// abandon ceiling).
    pub fn abandon_rate(&self) -> f64 {
        let n = self
            .sessions
            .iter()
            .filter(|s| s.abandoned(self.config.abandon_max_s))
            .count();
        n as f64 / self.sessions.len().max(1) as f64
    }

    /// Per-video request counts (for Zipf checks).
    pub fn video_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.config.videos];
        for s in &self.sessions {
            counts[s.video as usize] += 1;
        }
        counts
    }
}

/// Move probability at arrival time `t`, clamped to a sane band.
fn move_probability(config: &BrokerTraceConfig, t: f64) -> f64 {
    let phase = std::f64::consts::TAU * t / config.move_period_s;
    (config.move_base + config.move_amplitude * phase.sin()).clamp(0.02, 0.98)
}

/// Draws per-country CDN preference weights. B and C get weights that are
/// often tiny and sometimes dominant (cubed uniforms — heavy mass near 0),
/// reproducing Fig 7's extremes; A and Other get steadier weights.
fn country_prefs(world: &World, rng: &mut StdRng) -> Vec<CountryPrefs> {
    world
        .countries()
        .iter()
        .map(|_| {
            let a = 0.25 + 0.5 * rng.gen_range(0.0..1.0f64);
            let b = rng.gen_range(0.0..1.0f64).powi(3) * 2.0;
            let c = rng.gen_range(0.0..1.0f64).powi(3) * 2.0;
            let other = 0.05 + 0.15 * rng.gen_range(0.0..1.0f64);
            CountryPrefs {
                base: [a, b, c, other],
            }
        })
        .collect()
}

/// Samples a CDN for a session in a city of population weight `pop`,
/// optionally excluding the CDN the session is currently on.
fn sample_cdn(
    prefs: &CountryPrefs,
    pop: f64,
    config: &BrokerTraceConfig,
    rng: &mut StdRng,
    exclude: Option<CdnLabel>,
) -> CdnLabel {
    let boost = 1.0 + config.cdn_a_small_city_boost / (1.0 + pop);
    let mut w = prefs.base;
    w[0] *= boost;
    if let Some(e) = exclude {
        w[e.index()] = 0.0;
    }
    if w.iter().sum::<f64>() <= 0.0 {
        // Everything excluded/zero: fall back to "other".
        return CdnLabel::Other;
    }
    let picker = WeightedIndex::new(&w);
    CdnLabel::ALL[picker.sample(rng)]
}

fn sample_bitrate(config: &BrokerTraceConfig, rng: &mut StdRng) -> u32 {
    let ladder = &config.bitrate_ladder_kbps;
    let u: f64 = rng.gen_range(0.0..1.0);
    if u < config.bitrate_low_peak {
        ladder[0]
    } else if u < config.bitrate_low_peak + config.bitrate_high_peak {
        *ladder.last().expect("non-empty ladder")
    } else if ladder.len() > 2 {
        ladder[rng.gen_range(1..ladder.len() - 1)]
    } else {
        ladder[0]
    }
}

fn sample_lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mu + sigma * normal).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use vdx_geo::WorldConfig;

    fn setup() -> (World, BrokerTrace) {
        let world = World::generate(&WorldConfig::default(), 5);
        let trace = BrokerTrace::generate(&world, &BrokerTraceConfig::default(), 5);
        (world, trace)
    }

    #[test]
    fn trace_is_deterministic() {
        let world = World::generate(&WorldConfig::default(), 5);
        let a = BrokerTrace::generate(&world, &BrokerTraceConfig::small(), 9);
        let b = BrokerTrace::generate(&world, &BrokerTraceConfig::small(), 9);
        assert_eq!(a.sessions(), b.sessions());
    }

    #[test]
    fn session_count_and_window() {
        let (_, trace) = setup();
        assert_eq!(trace.sessions().len(), 33_400);
        for s in trace.sessions() {
            assert!((0.0..3_600.0).contains(&s.arrival_s));
            assert!(s.duration_s > 0.0);
        }
    }

    #[test]
    fn abandonment_matches_paper() {
        let (_, trace) = setup();
        let rate = trace.abandon_rate();
        assert!((0.74..0.82).contains(&rate), "abandon rate {rate}");
    }

    #[test]
    fn video_popularity_is_zipf() {
        let (_, trace) = setup();
        let counts = trace.video_counts();
        let est = stats::estimate_zipf_exponent(&counts).expect("estimable");
        assert!((0.5..1.4).contains(&est), "zipf exponent {est}");
        assert!(stats::head_mass_share(&counts, 0.05) > 0.3);
    }

    #[test]
    fn city_sizes_are_heavy_tailed() {
        let (_, trace) = setup();
        let counts: Vec<u64> = trace.requests_per_city().iter().map(|(_, c)| *c).collect();
        assert!(stats::head_mass_share(&counts, 0.1) > 0.4);
    }

    #[test]
    fn bitrates_are_bimodal() {
        let (_, trace) = setup();
        let rates: Vec<f64> = trace
            .sessions()
            .iter()
            .map(|s| s.bitrate_kbps as f64)
            .collect();
        assert!(stats::edge_mass_share(&rates, 8) > 0.6);
        // Both extremes individually popular.
        let low = trace
            .sessions()
            .iter()
            .filter(|s| s.bitrate_kbps == 235)
            .count();
        let high = trace
            .sessions()
            .iter()
            .filter(|s| s.bitrate_kbps == 3000)
            .count();
        assert!(low as f64 / 33_400.0 > 0.25);
        assert!(high as f64 / 33_400.0 > 0.25);
    }

    #[test]
    fn moved_series_matches_fig4_shape() {
        let (_, trace) = setup();
        let series = trace.moved_sessions_series(5.0);
        assert_eq!(series.len(), 720);
        let values: Vec<f64> = series.iter().map(|(_, p)| *p).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((28.0..52.0).contains(&mean), "mean moved {mean}%");
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        assert!(max > 50.0, "max {max}");
        assert!(min < 30.0, "min {min}");
    }

    #[test]
    fn switches_are_within_session_and_change_cdn() {
        let (_, trace) = setup();
        for s in trace.sessions() {
            let mut prev_cdn = s.initial_cdn;
            let mut prev_t = s.arrival_s;
            for &(t, c) in &s.switches {
                assert!(t >= prev_t, "switch times ascend");
                assert_ne!(c, prev_cdn, "switch changes CDN");
                prev_cdn = c;
                prev_t = t;
            }
        }
        assert!(trace.sessions().iter().any(|s| s.was_moved()));
    }

    #[test]
    fn cdn_a_favoured_in_small_cities() {
        let (_, trace) = setup();
        let usage = trace.usage_by_city();
        // Split cities into small (<= 5 requests) and large (>= 50).
        let mut small = (0.0, 0u64);
        let mut large = (0.0, 0u64);
        for (_, req, shares) in &usage {
            if *req <= 5 {
                small.0 += shares[CdnLabel::A.index()] * *req as f64;
                small.1 += req;
            } else if *req >= 50 {
                large.0 += shares[CdnLabel::A.index()] * *req as f64;
                large.1 += req;
            }
        }
        assert!(small.1 > 0 && large.1 > 0);
        let small_share = small.0 / small.1 as f64;
        let large_share = large.0 / large.1 as f64;
        assert!(
            small_share > large_share + 0.05,
            "A small-city {small_share:.3} vs large-city {large_share:.3}"
        );
    }

    #[test]
    fn country_usage_varies_strongly() {
        let (world, trace) = setup();
        let usage = trace.usage_by_country(&world);
        let big: Vec<_> = usage.iter().filter(|(_, req, _)| *req >= 100).collect();
        assert!(
            big.len() >= 10,
            "only {} countries with >=100 requests",
            big.len()
        );
        // Fig 7: B's share should range from near-zero to dominant.
        let b_shares: Vec<f64> = big.iter().map(|(_, _, s)| s[CdnLabel::B.index()]).collect();
        let max = b_shares.iter().copied().fold(f64::MIN, f64::max);
        let min = b_shares.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            max - min > 0.3,
            "B share range [{min:.2}, {max:.2}] too flat"
        );
    }

    #[test]
    fn current_cdn_tracks_switches() {
        let mut rec = SessionRecord {
            id: SessionId(0),
            arrival_s: 0.0,
            video: 0,
            bitrate_kbps: 3000,
            duration_s: 100.0,
            city: CityId(0),
            asn: 64_512,
            initial_cdn: CdnLabel::A,
            switches: vec![],
        };
        assert_eq!(rec.current_cdn(), CdnLabel::A);
        rec.switches.push((50.0, CdnLabel::B));
        assert_eq!(rec.current_cdn(), CdnLabel::B);
        assert!(rec.was_moved());
        assert!(rec.active_in(99.0, 150.0));
        assert!(!rec.active_in(100.0, 150.0));
    }

    #[test]
    fn bits_accounting() {
        let rec = SessionRecord {
            id: SessionId(0),
            arrival_s: 0.0,
            video: 0,
            bitrate_kbps: 1000,
            duration_s: 10.0,
            city: CityId(0),
            asn: 64_512,
            initial_cdn: CdnLabel::A,
            switches: vec![],
        };
        assert_eq!(rec.bits(), 10_000_000.0);
    }
}
