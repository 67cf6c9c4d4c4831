//! Stand-in for `parking_lot`, written for the benchmark because the
//! sandbox has no crates.io mirror: `Mutex` over `std::sync::Mutex` with
//! the published crate's infallible `lock`.

use std::sync::{Mutex as StdMutex, MutexGuard as StdGuard};

/// A mutual-exclusion lock whose `lock` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

/// The guard `Mutex::lock` returns.
pub type MutexGuard<'a, T> = StdGuard<'a, T>;

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(StdMutex::new(value))
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held. `parking_lot` has no poisoning, so a
    /// lock whose holder panicked is handed over as it is.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}
