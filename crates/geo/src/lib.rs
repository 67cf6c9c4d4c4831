//! # vdx-geo — world model substrate for VDX
//!
//! The CoNEXT'17 VDX evaluation is a *data-driven* simulation over real-world
//! client cities, CDN cluster sites, and countries. Those data sets are
//! proprietary, so this crate provides the synthetic equivalent: a
//! deterministic, seedable world generator producing countries grouped into
//! geographic regions, cities with power-law populations (as observed in the
//! paper's broker trace), and great-circle geometry between any two points.
//!
//! Everything downstream — client locations in `vdx-trace`, latency models
//! in `vdx-netsim`, cluster placement in `vdx-cdn` — is built on the
//! types in this crate.
//!
//! ## Design notes
//!
//! * **Determinism.** All generation is driven by an explicit `u64` seed via
//!   [`vdx_rand::StdRng`]; the same seed always yields the same world.
//! * **Plain data.** Entities are simple `struct`s with public fields,
//!   addressed by small copyable id types ([`CountryId`], [`CityId`]); the
//!   [`World`] owns flat `Vec`s indexed by those ids. No interior mutability,
//!   no lifetimes in the public API.
//!
//! ## Example
//!
//! ```
//! use vdx_geo::{World, WorldConfig};
//!
//! let world = World::generate(&WorldConfig::default(), 42);
//! let a = world.cities()[0].location;
//! let b = world.cities()[1].location;
//! assert!(a.distance_km(b) > 0.0);
//! assert!(world.countries().len() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod city;
pub mod coord;
pub mod country;
pub mod region;
pub mod world;

pub use city::{City, CityId};
pub use coord::GeoPoint;
pub use country::{Country, CountryId};
pub use region::Region;
pub use world::{World, WorldConfig};
