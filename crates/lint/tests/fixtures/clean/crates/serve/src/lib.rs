//! Clean fixture: the rv-serve-shaped root with the deny/allow split.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod signal;
