//! # rv-numeric — exact arithmetic substrate
//!
//! Arbitrary-precision signed integers ([`Int`]) and rationals ([`Ratio`])
//! used for all *temporal* bookkeeping in the `plane-rendezvous`
//! reproduction of *Almost Universal Anonymous Rendezvous in the Plane*
//! (SPAA 2020).
//!
//! ## Why this exists
//!
//! Algorithm 1 of the paper waits `2^(15·i²)` local time units in phase `i`
//! (line 14). Already at phase 2 that is `2^60`; at phase 3, `2^135`. A
//! simulator keeping absolute time in `f64` silently loses *every*
//! unit-scale event ordering after such a wait (the ULP of `2^135` is
//! `2^82`), and the paper's correctness claims (Claims 3.8–3.10) are
//! precisely statements about those orderings. Times must be exact:
//!
//! ```
//! use rv_numeric::Ratio;
//!
//! let giant_wait = Ratio::pow2(135);        // 2^(15·3²)
//! let after_tick = &giant_wait + &Ratio::frac(1, 3);
//! assert!(after_tick > giant_wait);          // exact ordering…
//! assert_eq!(after_tick.to_f64(), giant_wait.to_f64()); // …f64 loses it
//! ```
//!
//! ## Design
//!
//! * [`Int`] keeps an `i128` inline and spills to little-endian `u64` limbs
//!   only on overflow — the small-int optimisation; in this workload the
//!   big path is rare (giant waits and their products).
//! * [`Ratio`] is a normalized fraction of [`Int`]s with cross-reduction on
//!   multiply, exact `f64` import (every finite double is dyadic), and a
//!   saturating export to `f64` for geometry.
//! * Division is bitwise restoring long division: simple, obviously
//!   correct, and cold (normalisation uses a shift-based binary GCD).
//!
//! Precision policy: time is exact, space is not. Geometry deliberately
//! stays in `f64`, because the paper's claims are about the orderings of
//! events in time; the exactness budget is spent there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod int;
mod mag;
mod ratio;

pub use int::Int;
pub use ratio::{Ratio, TickScale};

/// Convenience: builds `p/q` as a [`Ratio`].
///
/// ```
/// use rv_numeric::ratio;
/// assert_eq!(ratio(2, 4), ratio(1, 2)); // normalized
/// ```
pub fn ratio(p: i64, q: i64) -> Ratio {
    Ratio::frac(p, q)
}

/// Convenience: builds the integer `v` as a [`Ratio`].
pub fn int(v: i64) -> Ratio {
    Ratio::from_int(v)
}
