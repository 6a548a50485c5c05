//! Violating fixture: `unsafe` outside the allowlist (even WITH a
//! SAFETY comment, the file itself is not allowed to contain it).

/// Should live in the allowlisted module, not here.
pub fn read_first(items: &[u32]) -> u32 {
    // SAFETY: bounds irrelevant — this file may not use unsafe at all.
    unsafe { *items.as_ptr() }
}
