//! # rv-baselines — literature procedures and dedicated algorithms
//!
//! Everything the paper *uses as a subroutine or compares against*:
//!
//! * [`linear_cow_walk`] / [`planar_cow_walk`] — Algorithms 3 and 2 of the
//!   paper (the search walks `AlmostUniversalRV` is built from), plus the
//!   classic unbounded cow-path search \[10\].
//! * [`cgkk`] — reconstruction of the procedure from \[18\] (PODC 2019)
//!   with the exact contract stated in Section 2 of the paper.
//! * [`latecomers`] — reconstruction of GATHER(2) from \[38\] (ICDCN 2020).
//! * [`beeline`] / [`canonical_march`] — the dedicated boundary-set
//!   algorithms from the constructive proofs of Lemmas 3.8 and 3.9.
//!
//! The `cgkk` and `latecomers` module docs hold the substitution notes and
//! correctness sketches of the two reconstructions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cgkk;
mod cow;
mod dedicated;
mod latecomers;

pub use cgkk::{cgkk, cgkk_wait};
pub use cow::{cow_path_search, lcw_duration, linear_cow_walk, pcw_duration, planar_cow_walk};
pub use dedicated::{beeline, canonical_march};
pub use latecomers::{latecomers, latecomers_phase_duration};
