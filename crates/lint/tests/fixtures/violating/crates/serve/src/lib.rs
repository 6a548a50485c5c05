//! Violating fixture: the serve-shaped root missing both the deny and
//! the module-scoped allow.

pub mod signal;
