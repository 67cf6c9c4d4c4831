//! Stand-in for `serde`, written for the benchmark because the sandbox has
//! no crates.io mirror.
//!
//! The vdx crates derive `Serialize`/`Deserialize` on their data types but
//! nothing the benchmark runs serialises through them, so the traits here
//! are markers and the derives emit empty impls. The matching `serde_json`
//! stand-in returns an error from every call rather than pretend.

pub use serde_derive::{Deserialize, Serialize};

/// Marker for types the published crate could serialise.
pub trait Serialize {}

/// Marker for types the published crate could deserialise.
pub trait Deserialize<'de>: Sized {}

/// Deserialisation helpers.
pub mod de {
    /// A type deserialisable from any lifetime.
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> super::Deserialize<'de> {}
}
