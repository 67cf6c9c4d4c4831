//! One module per table/figure of the paper's evaluation.
//!
//! Each module exposes a `run(&Scenario) -> …Result` function returning
//! serializable data and a `render(&…Result) -> String` producing the
//! plain-text table/series the `repro` binary prints. The mapping from
//! paper artefact to module:
//!
//! | Paper | Module |
//! |---|---|
//! | Fig 3 (per-country cost vs. average) | [`fig3`] |
//! | Fig 4 (sessions moved mid-stream) | [`fig4`] |
//! | Fig 5 (CDN usage vs. city size) | [`fig5`] |
//! | Table 1 (alternative clusters) | [`table1`] |
//! | Fig 7 (CDN usage per country) | [`fig7`] |
//! | Table 3 (design comparison) | [`table3`] |
//! | Figs 10–15 (ratios/traffic/profit per CDN & country) | [`fig10_15`] |
//! | Fig 16 (200 city-centric CDNs) | [`fig16`] |
//! | Fig 17 (cost/performance trade-off) | [`fig17`] |
//! | Fig 18 (bid count sweep) | [`fig18`] |
//! | §6.3 predictability dynamics (extension) | [`ext_stability`] |
//! | §8 hybrid pricing (extension) | [`ext_hybrid`] |
//! | measurement-noise sensitivity (extension) | [`ext_noise`] |
//! | fault campaigns / graceful degradation (extension) | [`ext_faults`] |
//! | Fig 9's ILP: heuristic vs. a dual bound on the optimum | [`gap`] |

pub mod ext_faults;
pub mod ext_hybrid;
pub mod ext_noise;
pub mod ext_stability;
pub mod fig10_15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod gap;
pub mod table1;
pub mod table3;
