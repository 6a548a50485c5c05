//! Magnitude (unsigned, little-endian limb) arithmetic.
//!
//! These helpers back the big path of [`crate::Int`]. A magnitude is a
//! `Vec<u64>` of little-endian limbs with **no trailing zero limbs**; the
//! empty vector represents zero. All functions preserve that invariant on
//! their outputs.

use std::cmp::Ordering;

/// Removes trailing zero limbs so that the canonical-form invariant holds.
#[inline]
pub fn trim(mag: &mut Vec<u64>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

/// Builds a magnitude from a `u128`.
#[inline]
pub fn from_u128(v: u128) -> Vec<u64> {
    let lo = v as u64;
    let hi = (v >> 64) as u64;
    let mut mag = vec![lo, hi];
    trim(&mut mag);
    mag
}

/// Converts back to `u128` when the value fits.
#[inline]
pub fn to_u128(mag: &[u64]) -> Option<u128> {
    match mag.len() {
        0 => Some(0),
        1 => Some(mag[0] as u128),
        2 => Some((mag[0] as u128) | ((mag[1] as u128) << 64)),
        _ => None,
    }
}

/// Number of significant bits (0 for zero).
#[inline]
pub fn bits(mag: &[u64]) -> u64 {
    match mag.last() {
        None => 0,
        Some(&top) => (mag.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
    }
}

/// Lexicographic-from-the-top magnitude comparison.
pub fn cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => {}
            non_eq => return non_eq,
        }
    }
    Ordering::Equal
}

/// `a + b`.
pub fn add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &limb) in long.iter().enumerate() {
        let s = short.get(i).copied().unwrap_or(0);
        let (x, c1) = limb.overflowing_add(s);
        let (x, c2) = x.overflowing_add(carry);
        carry = (c1 as u64) + (c2 as u64);
        out.push(x);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a - b`; requires `a >= b` (checked with a debug assertion).
pub fn sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(cmp(a, b) != Ordering::Less, "mag::sub underflow");
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &limb) in a.iter().enumerate() {
        let s = b.get(i).copied().unwrap_or(0);
        let (x, b1) = limb.overflowing_sub(s);
        let (x, b2) = x.overflowing_sub(borrow);
        borrow = (b1 as u64) + (b2 as u64);
        out.push(x);
    }
    debug_assert_eq!(borrow, 0);
    trim(&mut out);
    out
}

/// `a - b` as a `u128`, or `None` when it does not fit; requires
/// `a >= b`. Allocation-free, for differences of nearby big values.
pub fn sub_to_u128(a: &[u64], b: &[u64]) -> Option<u128> {
    debug_assert!(cmp(a, b) != Ordering::Less, "mag::sub_to_u128 underflow");
    let mut low = 0u128;
    let mut borrow = 0u64;
    for (i, &limb) in a.iter().enumerate() {
        let s = b.get(i).copied().unwrap_or(0);
        let (x, b1) = limb.overflowing_sub(s);
        let (x, b2) = x.overflowing_sub(borrow);
        borrow = (b1 as u64) + (b2 as u64);
        match i {
            0 => low = x as u128,
            1 => low |= (x as u128) << 64,
            _ if x != 0 => return None,
            _ => {}
        }
    }
    debug_assert_eq!(borrow, 0);
    Some(low)
}

/// Schoolbook multiplication with `u128` partial products.
pub fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

/// `a << n` for an arbitrary bit count.
pub fn shl(a: &[u64], n: u64) -> Vec<u64> {
    if a.is_empty() {
        return Vec::new();
    }
    let limb_shift = (n / 64) as usize;
    let bit_shift = (n % 64) as u32;
    let mut out = vec![0u64; limb_shift];
    if bit_shift == 0 {
        out.extend_from_slice(a);
    } else {
        let mut carry = 0u64;
        for &limb in a {
            out.push((limb << bit_shift) | carry);
            carry = limb >> (64 - bit_shift);
        }
        if carry != 0 {
            out.push(carry);
        }
    }
    trim(&mut out);
    out
}

/// `a >> n` (floor) for an arbitrary bit count.
pub fn shr(a: &[u64], n: u64) -> Vec<u64> {
    let limb_shift = (n / 64) as usize;
    if limb_shift >= a.len() {
        return Vec::new();
    }
    let bit_shift = (n % 64) as u32;
    let src = &a[limb_shift..];
    let mut out = Vec::with_capacity(src.len());
    if bit_shift == 0 {
        out.extend_from_slice(src);
    } else {
        for i in 0..src.len() {
            let hi = src.get(i + 1).copied().unwrap_or(0);
            out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
        }
    }
    trim(&mut out);
    out
}

/// Reads the bit at position `i` (little-endian bit order).
#[inline]
pub fn bit(a: &[u64], i: u64) -> bool {
    let limb = (i / 64) as usize;
    match a.get(limb) {
        Some(&w) => (w >> (i % 64)) & 1 == 1,
        None => false,
    }
}

/// Number of trailing zero bits; `None` for zero.
pub fn trailing_zeros(a: &[u64]) -> Option<u64> {
    for (i, &w) in a.iter().enumerate() {
        if w != 0 {
            return Some(i as u64 * 64 + w.trailing_zeros() as u64);
        }
    }
    None
}

/// Restoring binary long division: returns `(quotient, remainder)`.
///
/// Division is rare on the hot paths (rationals are normalised with a
/// shift-based binary GCD), so the simple `O(bits · limbs)` algorithm is the
/// right trade-off over a Knuth-D implementation.
pub fn divrem(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!b.is_empty(), "division by zero magnitude");
    match cmp(a, b) {
        Ordering::Less => return (Vec::new(), a.to_vec()),
        Ordering::Equal => return (vec![1], Vec::new()),
        Ordering::Greater => {}
    }
    // Single-limb divisor fast path.
    if b.len() == 1 {
        let d = b[0] as u128;
        let mut q = vec![0u64; a.len()];
        let mut rem = 0u128;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | a[i] as u128;
            q[i] = (cur / d) as u64;
            rem = cur % d;
        }
        trim(&mut q);
        let r = from_u128(rem);
        return (q, r);
    }
    let a_bits = bits(a);
    let b_bits = bits(b);
    let mut rem: Vec<u64> = Vec::new();
    let mut quot = vec![0u64; a.len()];
    let mut i = a_bits;
    while i > 0 {
        i -= 1;
        // rem = (rem << 1) | bit_i(a)
        rem = shl(&rem, 1);
        if bit(a, i) {
            if rem.is_empty() {
                rem.push(1);
            } else {
                rem[0] |= 1;
            }
        }
        if bits(&rem) >= b_bits && cmp(&rem, b) != Ordering::Less {
            rem = sub(&rem, b);
            let limb = (i / 64) as usize;
            quot[limb] |= 1u64 << (i % 64);
        }
    }
    trim(&mut quot);
    (quot, rem)
}

/// Binary (Stein) GCD on magnitudes.
pub fn gcd(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() {
        return b.to_vec();
    }
    if b.is_empty() {
        return a.to_vec();
    }
    let za = trailing_zeros(a).unwrap();
    let zb = trailing_zeros(b).unwrap();
    let shift = za.min(zb);
    let mut u = shr(a, za);
    let mut v = shr(b, zb);
    loop {
        match cmp(&u, &v) {
            Ordering::Equal => break,
            Ordering::Less => std::mem::swap(&mut u, &mut v),
            Ordering::Greater => {}
        }
        u = sub(&u, &v);
        let z = trailing_zeros(&u).unwrap();
        u = shr(&u, z);
    }
    shl(&u, shift)
}

/// Correctly-rounded-ish conversion to `f64`: top 128 bits as the mantissa
/// source, then scaled by the discarded bit count. Saturates to
/// `f64::INFINITY` above the representable range.
pub fn to_f64(mag: &[u64]) -> f64 {
    let nbits = bits(mag);
    if nbits == 0 {
        return 0.0;
    }
    if nbits <= 128 {
        return to_u128(mag).unwrap() as f64;
    }
    let drop = nbits - 128;
    let top = shr(mag, drop);
    let top_val = to_u128(&top).unwrap() as f64;
    if drop > 1023 {
        // Even the scale factor alone overflows; the product certainly does.
        return f64::INFINITY;
    }
    top_val * 2f64.powi(drop as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: u128) -> Vec<u64> {
        from_u128(v)
    }

    #[test]
    fn roundtrip_u128() {
        for v in [0u128, 1, 42, u64::MAX as u128, u128::MAX, 1 << 100] {
            assert_eq!(to_u128(&from_u128(v)), Some(v));
        }
    }

    #[test]
    fn add_small_values() {
        assert_eq!(to_u128(&add(&m(3), &m(5))), Some(8));
        assert_eq!(to_u128(&add(&m(0), &m(5))), Some(5));
        assert_eq!(
            to_u128(&add(&m(u64::MAX as u128), &m(1))),
            Some(u64::MAX as u128 + 1)
        );
    }

    #[test]
    fn add_carries_past_u128() {
        let s = add(&m(u128::MAX), &m(1));
        assert_eq!(s, vec![0, 0, 1]);
    }

    #[test]
    fn sub_basics() {
        assert_eq!(to_u128(&sub(&m(8), &m(5))), Some(3));
        assert_eq!(sub(&m(5), &m(5)), Vec::<u64>::new());
        assert_eq!(
            to_u128(&sub(&m(u64::MAX as u128 + 1), &m(1))),
            Some(u64::MAX as u128)
        );
    }

    #[test]
    fn mul_basics() {
        assert_eq!(to_u128(&mul(&m(6), &m(7))), Some(42));
        assert_eq!(mul(&m(0), &m(7)), Vec::<u64>::new());
        let big = mul(&m(u128::MAX), &m(u128::MAX));
        // (2^128-1)^2 = 2^256 - 2^129 + 1
        assert_eq!(bits(&big), 256);
    }

    #[test]
    fn shifts_are_inverse() {
        let v = m(0xdead_beef_cafe_babe_u128);
        for n in [0u64, 1, 13, 64, 65, 128, 200] {
            assert_eq!(shr(&shl(&v, n), n), v);
        }
    }

    #[test]
    fn shr_floors() {
        assert_eq!(to_u128(&shr(&m(7), 1)), Some(3));
        assert_eq!(shr(&m(1), 1), Vec::<u64>::new());
        assert_eq!(shr(&m(1), 1000), Vec::<u64>::new());
    }

    #[test]
    fn bits_counts() {
        assert_eq!(bits(&m(0)), 0);
        assert_eq!(bits(&m(1)), 1);
        assert_eq!(bits(&m(255)), 8);
        assert_eq!(bits(&m(256)), 9);
        assert_eq!(bits(&shl(&m(1), 500)), 501);
    }

    #[test]
    fn divrem_small() {
        let (q, r) = divrem(&m(100), &m(7));
        assert_eq!(to_u128(&q), Some(14));
        assert_eq!(to_u128(&r), Some(2));
        let (q, r) = divrem(&m(5), &m(7));
        assert_eq!(q, Vec::<u64>::new());
        assert_eq!(to_u128(&r), Some(5));
    }

    #[test]
    fn divrem_multi_limb() {
        let a = shl(&m(1), 300); // 2^300
        let b = m(1_000_000_007);
        let (q, r) = divrem(&a, &b);
        // check a == q*b + r and r < b
        let back = add(&mul(&q, &b), &r);
        assert_eq!(back, a);
        assert_eq!(cmp(&r, &b), Ordering::Less);
    }

    #[test]
    fn gcd_matches_euclid() {
        let cases: &[(u128, u128)] = &[
            (12, 18),
            (0, 5),
            (5, 0),
            (1, 1),
            (1 << 100, 1 << 60),
            (270, 192),
            (u128::MAX, 3),
        ];
        fn euclid(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        for &(a, b) in cases {
            assert_eq!(
                to_u128(&gcd(&from_u128(a), &from_u128(b))),
                Some(euclid(a, b)),
                "gcd({a},{b})"
            );
        }
    }

    #[test]
    fn to_f64_values() {
        assert_eq!(to_f64(&m(0)), 0.0);
        assert_eq!(to_f64(&m(12345)), 12345.0);
        let big = shl(&m(1), 300);
        assert_eq!(to_f64(&big), 2f64.powi(300));
        let huge = shl(&m(1), 2000);
        assert_eq!(to_f64(&huge), f64::INFINITY);
    }

    #[test]
    fn trailing_zeros_works() {
        assert_eq!(trailing_zeros(&m(0)), None);
        assert_eq!(trailing_zeros(&m(1)), Some(0));
        assert_eq!(trailing_zeros(&m(8)), Some(3));
        assert_eq!(trailing_zeros(&shl(&m(1), 130)), Some(130));
    }
}
