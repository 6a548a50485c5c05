//! Violating fixture: `unsafe` in the allowlisted file but with no
//! `SAFETY:` comment anywhere near it.

/// Reads the first item with no safety documentation.
pub fn read_first(items: &[u32]) -> u32 {
    unsafe { *items.as_ptr() }
}
