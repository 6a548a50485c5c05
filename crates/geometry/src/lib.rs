//! # rv-geometry — planar geometry substrate
//!
//! Vectors, exact angles (rational multiples of π), private coordinate
//! frames with chirality, lines/projections, and the closest-approach
//! solver — everything geometric the SPAA 2020 rendezvous reproduction
//! needs.
//!
//! Precision policy (the `rv_numeric` crate docs give the time side):
//! *directions and frame compositions
//! are exact* (angles are rationals `q` with value `q·π`, and the paper's
//! `Rot(jπ/2^i)` systems compose exactly); *coordinates are `f64`*, with
//! exact unit vectors on the four cardinal directions so that axis-aligned
//! walks accumulate no drift.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod angle;
mod approach;
mod frame;
mod line;
mod vec2;

pub use angle::{Angle, Compass};
pub use approach::{first_within, min_dist_on_interval, IntervalApproach};
pub use frame::{Chirality, Orientation, Similarity};
pub use line::Line;
pub use vec2::Vec2;
