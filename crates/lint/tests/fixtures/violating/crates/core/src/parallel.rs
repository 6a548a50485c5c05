//! Violating fixture: `unsafe` in rv-core's parallel map, which is not
//! allowlisted (even WITH a SAFETY comment).

/// Should be safe code.
pub fn read_first(items: &[u32]) -> u32 {
    // SAFETY: bounds irrelevant — this file may not use unsafe at all.
    unsafe { *items.as_ptr() }
}
