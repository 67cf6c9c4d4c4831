//! Dimension-typed quantities for the VDX economy.
//!
//! Every quantity that crosses a public API in the pricing, capacity, and
//! settlement paths is wrapped in a newtype so the compiler rejects unit
//! confusion (adding a price to a bandwidth, charging a margin as money).
//! The inner fields are private, so outside this crate the only way to a
//! raw number is a named accessor (`as_f64`, `as_mbps`, `as_per_megabit`);
//! nothing checks what is done with it afterwards (DESIGN.md §10).
//!
//! # Stored quanta
//!
//! The wrappers are transparent views over the exact `f64` values the
//! economy has always journaled:
//!
//! * [`Kbps`] stores kilobits per second.
//! * [`Gb`] stores **megabits** — the settlement quantum the ledger has
//!   used since the seed (`mbps = demand_kbps / 1000`).
//! * [`UsdPerGb`] stores **dollars per megabit**, matching [`Gb`].
//! * [`Usd`] stores dollars.
//! * [`Margin`] is a dimensionless price multiplier.
//!
//! The type names record the *dimension* (traffic volume, unit price);
//! constructors and accessors are scale-explicit (`per_megabit`,
//! `as_per_megabit`, `as_mbps`) so no call site ever guesses. The stored
//! quantum is deliberately not rescaled to base-10 gigabits: journal
//! byte-identity with pre-units runs is a hard requirement, and
//! `(x / 1000.0) * 1000.0` is not an f64 identity.
//!
//! # Checked arithmetic
//!
//! Constructors and arithmetic carry `debug_assert!` guards against
//! non-finite values and (where the domain demands it) negative results.
//! The checks compile out of release builds, so hot paths are untouched.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! base_impls {
    ($ty:ident, $unit:literal) => {
        impl $ty {
            /// The zero quantity.
            pub const ZERO: $ty = $ty(0.0);

            /// Raw numeric value in the stored quantum (see module docs).
            #[inline]
            pub fn as_f64(self) -> f64 {
                self.0
            }

            /// True when the underlying value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Total order over the underlying values (IEEE `total_cmp`),
            /// usable as a sort key without `partial_cmp().unwrap()`.
            #[inline]
            pub fn total_cmp(&self, other: &Self) -> Ordering {
                self.0.total_cmp(&other.0)
            }

            /// The smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                $ty(self.0.min(other.0))
            }

            /// The larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                $ty(self.0.max(other.0))
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

macro_rules! additive_impls {
    ($ty:ident) => {
        impl Add for $ty {
            type Output = $ty;
            #[inline]
            fn add(self, rhs: $ty) -> $ty {
                let out = $ty(self.0 + rhs.0);
                debug_assert!(out.0.is_finite(), "overflowed {}", stringify!($ty));
                out
            }
        }

        impl AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, rhs: $ty) {
                *self = *self + rhs;
            }
        }

        impl Sub for $ty {
            type Output = $ty;
            #[inline]
            fn sub(self, rhs: $ty) -> $ty {
                let out = $ty(self.0 - rhs.0);
                debug_assert!(out.0.is_finite(), "overflowed {}", stringify!($ty));
                out
            }
        }

        impl SubAssign for $ty {
            #[inline]
            fn sub_assign(&mut self, rhs: $ty) {
                *self = *self - rhs;
            }
        }

        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                iter.fold($ty::ZERO, |acc, x| acc + x)
            }
        }

        impl<'a> Sum<&'a $ty> for $ty {
            fn sum<I: Iterator<Item = &'a $ty>>(iter: I) -> $ty {
                iter.fold($ty::ZERO, |acc, x| acc + *x)
            }
        }

        impl Mul<f64> for $ty {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: f64) -> $ty {
                debug_assert!(rhs.is_finite(), "scaling {} by non-finite", stringify!($ty));
                $ty(self.0 * rhs)
            }
        }

        impl Div<f64> for $ty {
            type Output = $ty;
            #[inline]
            fn div(self, rhs: f64) -> $ty {
                debug_assert!(rhs != 0.0, "dividing {} by zero", stringify!($ty));
                $ty(self.0 / rhs)
            }
        }
    };
}

/// Throughput in kilobits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Kbps(f64);

base_impls!(Kbps, "kbit/s");
additive_impls!(Kbps);

impl Kbps {
    /// Wrap a raw kilobit-per-second value.
    #[inline]
    pub fn new(kbps: f64) -> Kbps {
        debug_assert!(kbps.is_finite(), "non-finite Kbps");
        Kbps(kbps)
    }

    /// The same throughput in megabits per second.
    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.0 / 1000.0
    }

    /// Traffic volume delivered by sustaining this rate over the economy's
    /// unit accounting window (stored in megabits; see module docs).
    #[inline]
    pub fn volume(self) -> Gb {
        Gb(self.0 / 1000.0)
    }

    /// Midpoint of two rates (median over an even-sized set).
    #[inline]
    pub fn midpoint(self, other: Kbps) -> Kbps {
        Kbps((self.0 + other.0) / 2.0)
    }

    /// `self - rhs`, floored at zero — headroom-style subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Kbps) -> Kbps {
        Kbps((self.0 - rhs.0).max(0.0))
    }
}

/// Traffic volume. Stored in **megabits**, the ledger's historical
/// settlement quantum; [`Kbps::volume`] is its one constructor.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Gb(f64);

base_impls!(Gb, "Mb");
additive_impls!(Gb);

/// Money in US dollars.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Usd(f64);

base_impls!(Usd, "USD");
additive_impls!(Usd);

impl Usd {
    /// Wrap a raw dollar amount.
    #[inline]
    pub fn new(dollars: f64) -> Usd {
        debug_assert!(dollars.is_finite(), "non-finite Usd");
        Usd(dollars)
    }

    /// `self / other` as a dimensionless ratio (e.g. price-to-cost).
    /// Division by zero yields infinity, matching raw division.
    #[inline]
    pub fn ratio_to(self, other: Usd) -> f64 {
        self.0 / other.0
    }
}

impl Neg for Usd {
    type Output = Usd;
    #[inline]
    fn neg(self) -> Usd {
        Usd(-self.0)
    }
}

/// Unit price of traffic. Stored in **dollars per megabit**, matching the
/// [`Gb`] quantum, so `price.charge(volume)` reproduces the ledger's
/// historical `price_per_mb * mbps` product bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct UsdPerGb(f64);

base_impls!(UsdPerGb, "USD/Mb");

impl UsdPerGb {
    /// Wrap a price expressed in dollars per megabit.
    #[inline]
    pub fn per_megabit(price: f64) -> UsdPerGb {
        debug_assert!(price.is_finite(), "non-finite price");
        UsdPerGb(price)
    }

    /// The stored price in dollars per megabit.
    #[inline]
    pub fn as_per_megabit(self) -> f64 {
        self.0
    }

    /// Midpoint of two prices (median over an even-sized set).
    #[inline]
    pub fn midpoint(self, other: UsdPerGb) -> UsdPerGb {
        UsdPerGb((self.0 + other.0) / 2.0)
    }

    /// The money owed for delivering `volume` at this price.
    #[inline]
    pub fn charge(self, volume: Gb) -> Usd {
        let out = Usd(self.0 * volume.0);
        debug_assert!(out.is_finite(), "non-finite charge");
        out
    }
}

impl Add for UsdPerGb {
    type Output = UsdPerGb;
    #[inline]
    fn add(self, rhs: UsdPerGb) -> UsdPerGb {
        UsdPerGb(self.0 + rhs.0)
    }
}

impl Sub for UsdPerGb {
    type Output = UsdPerGb;
    #[inline]
    fn sub(self, rhs: UsdPerGb) -> UsdPerGb {
        UsdPerGb(self.0 - rhs.0)
    }
}

impl Mul<Margin> for UsdPerGb {
    type Output = UsdPerGb;
    #[inline]
    fn mul(self, rhs: Margin) -> UsdPerGb {
        let out = UsdPerGb(self.0 * rhs.0);
        debug_assert!(out.0.is_finite(), "non-finite marked-up price");
        out
    }
}

/// Dimensionless multiplicative markup applied to a unit price
/// (`1.0` = sell at cost).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Margin(f64);

base_impls!(Margin, "x");

impl Margin {
    /// Sell-at-cost: multiply a price by `UNIT` and it is unchanged.
    pub const UNIT: Margin = Margin(1.0);

    /// Wrap a raw multiplier.
    #[inline]
    pub fn new(factor: f64) -> Margin {
        debug_assert!(factor.is_finite(), "non-finite margin");
        Margin(factor)
    }

    /// `new` usable in `const` contexts (skips the finiteness debug-check,
    /// which is not const-evaluable on our MSRV).
    pub const fn literal(factor: f64) -> Margin {
        Margin(factor)
    }

    /// Scale the multiplier itself (e.g. decay toward cost).
    #[inline]
    pub fn scale(self, factor: f64) -> Margin {
        debug_assert!(factor.is_finite(), "non-finite margin scale");
        Margin(self.0 * factor)
    }
}

impl Default for Margin {
    fn default() -> Margin {
        Margin::UNIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_matches_raw_product() {
        // The settlement path computed `price_per_mb * (kbps / 1000.0)`
        // before the newtypes existed; the typed path must be bit-identical.
        for &(price, kbps) in &[(0.003, 1234.5), (0.1, 7.0), (1.7e-3, 98765.4321)] {
            let raw = price * (kbps / 1000.0);
            let typed = UsdPerGb::per_megabit(price).charge(Kbps::new(kbps).volume());
            assert_eq!(raw.to_bits(), typed.as_f64().to_bits());
        }
    }

    #[test]
    fn markup_matches_raw_product() {
        let raw = 0.0042_f64 * 1.2;
        let typed = UsdPerGb::per_megabit(0.0042) * Margin::new(1.2);
        assert_eq!(raw.to_bits(), typed.as_per_megabit().to_bits());
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let head = Kbps::new(100.0).saturating_sub(Kbps::new(250.0));
        assert_eq!(head, Kbps::ZERO);
    }

    #[test]
    fn totals_and_ordering() {
        let total: Kbps = [Kbps::new(1.0), Kbps::new(2.5)].iter().sum();
        assert_eq!(total.as_f64(), 3.5);
        assert_eq!(Kbps::new(2.0).max(Kbps::new(3.0)), Kbps::new(3.0));
        assert!(Usd::new(1.0) < Usd::new(2.0));
        assert_eq!(
            Usd::new(1.0).total_cmp(&Usd::new(2.0)),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn ratio_and_fraction_match_raw_division() {
        assert_eq!(Usd::new(6.0).ratio_to(Usd::new(4.0)), 1.5);
    }
}
