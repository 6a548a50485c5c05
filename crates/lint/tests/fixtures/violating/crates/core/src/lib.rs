//! Violating fixture: the core-shaped root keeping a deny/allow split
//! that only the roots in `deny_unsafe_roots` may use.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod parallel;
pub mod wire;
