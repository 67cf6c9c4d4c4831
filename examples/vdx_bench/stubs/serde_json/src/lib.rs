//! Stand-in for `serde_json`, written for the benchmark because the sandbox
//! has no crates.io mirror.
//!
//! `to_string` and `from_str` exist so the vdx crates compile, and always
//! return [`Error`]: the benchmark runs no path that reads or writes JSON
//! through serde (journals use the no-op and in-memory probes), and a call
//! that did would fail loudly instead of producing made-up output.

use std::fmt;

/// The only error this stand-in produces.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stand-in: JSON through serde is not available in the benchmark build")
    }
}

impl std::error::Error for Error {}

/// Result alias matching the published crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Always fails; see the crate docs.
pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error)
}

/// Always fails; see the crate docs.
pub fn from_str<'a, T: serde::Deserialize<'a>>(_json: &'a str) -> Result<T> {
    Err(Error)
}
