//! Differential property tests for `Ratio`'s allocation-free paths:
//! `Ratio::new`'s reduction, `cmp_ref`, `min_ref`, the i128 kernels behind
//! `+ − *` and `+= −= *=` (and the `Int` path on `Big` dyadics), and the
//! projections `to_f64` and `TickScale::diff_to_f64` (the tick offset
//! `(Ta − Tb)/S` the engine projects, over `S` the common denominator of
//! both operands times an odd factor `σ`). Results must agree *exactly*
//! (value and canonical form, or `f64` bits) on every operand mix: both
//! inline (`i128`) components, dyadic `k/2^e` operands up to `e = 126`,
//! numerators near ±2^127 and ±2^63, big operands, and the promotion
//! boundary where an i128 result spills to limbs.
//!
//! The arithmetic reference is built from `Int` operations only
//! (`Ratio::new(a·d + c·b, b·d)`, whose reduction is itself checked
//! against `Int::gcd`), so it shares no code with the kernels it checks;
//! the projection reference is the canonical
//! `Ratio::new(Ta − Tb, S).to_f64()`. Anything that diverges here is a
//! silent ordering or rounding bug on the solver's per-event path.

use proptest::prelude::*;
use rv_numeric::{Int, Ratio, TickScale};
use std::cmp::Ordering;

/// Operands spanning the small path, the big path, and the i128→Big
/// promotion boundary (values within a few ULPs of `i128::MAX`).
fn int_strategy() -> impl Strategy<Value = Int> {
    prop_oneof![
        any::<i64>().prop_map(|v| Int::from(v as i128)),
        any::<i128>().prop_map(Int::from),
        // Straddle the promotion boundary: i128::MAX − k and its
        // neighbourhood, so sums/products land on either side of it.
        (0i128..1024).prop_map(|k| Int::from(i128::MAX - k)),
        (0i128..1024).prop_map(|k| Int::from(i128::MIN + k)),
        // Guaranteed big path: shifted far past 128 bits.
        (any::<i64>(), 120u64..300).prop_map(|(v, s)| Int::from(v as i128).shl(s)),
        (any::<i128>(), 1u64..160, any::<i64>())
            .prop_map(|(v, s, w)| &Int::from(v).shl(s) + &Int::from(w as i128)),
    ]
}

fn ratio_strategy() -> impl Strategy<Value = Ratio> {
    (
        int_strategy(),
        int_strategy().prop_filter("nonzero", |d| !d.is_zero()),
    )
        .prop_map(|(n, d)| Ratio::new(n, d))
}

/// Numerators for the kernel tests: machine-sized, full-width, and
/// within 1024 of ±2^127.
fn numer_strategy() -> impl Strategy<Value = i128> {
    prop_oneof![
        any::<i64>().prop_map(i128::from),
        any::<i128>(),
        (0i128..1024).prop_map(|k| i128::MAX - k),
        (0i128..1024).prop_map(|k| i128::MIN + k),
    ]
}

/// Dyadic `n / 2^e` for every `e` an i128 denominator holds (0–126),
/// with `e` often near 53 (agent B's clocks) so that two operands share
/// an exponent and their sum must be reduced. An odd numerator keeps the
/// full `2^e` after normalisation.
fn dyadic_strategy() -> impl Strategy<Value = Ratio> {
    let exp = prop_oneof![0u64..=126, 50u64..=55];
    (numer_strategy(), exp, any::<bool>()).prop_map(|(n, e, odd)| {
        let n = if odd { n | 1 } else { n };
        Ratio::new(Int::from(n), Int::pow2(e))
    })
}

/// Dyadic `n / 2^e` with a numerator or denominator past i128 (exact AUR
/// times past the 23k-th instruction, and wider), which `+ − *` take
/// through the `Int` path.
fn big_dyadic_strategy() -> impl Strategy<Value = Ratio> {
    let exp = prop_oneof![0u64..=8, 120u64..=300];
    (int_strategy(), exp).prop_map(|(n, e)| Ratio::new(n, Int::pow2(e)))
}

/// Operands for the kernel tests: mostly dyadic (the clock case), mixed
/// with general small, near-overflow and big ratios.
fn kernel_strategy() -> impl Strategy<Value = Ratio> {
    prop_oneof![
        3 => dyadic_strategy(),
        1 => (numer_strategy(), 1i128..1 << 40)
            .prop_map(|(n, d)| Ratio::new(Int::from(n), Int::from(d))),
        1 => ratio_strategy(),
    ]
}

/// `a/b + c/d` from `Int` operations only.
fn int_add(x: &Ratio, y: &Ratio) -> Ratio {
    Ratio::new(
        &(x.numer() * y.denom()) + &(y.numer() * x.denom()),
        x.denom() * y.denom(),
    )
}

/// `a/b − c/d` from `Int` operations only.
fn int_sub(x: &Ratio, y: &Ratio) -> Ratio {
    Ratio::new(
        &(x.numer() * y.denom()) - &(y.numer() * x.denom()),
        x.denom() * y.denom(),
    )
}

/// `(a/b)·(c/d)` from `Int` operations only.
fn int_mul(x: &Ratio, y: &Ratio) -> Ratio {
    Ratio::new(x.numer() * y.numer(), x.denom() * y.denom())
}

/// True iff `x` uses `Int`'s canonical representation: `Small` whenever
/// the value fits in i128.
fn int_canonical(x: &Int) -> bool {
    match x {
        Int::Small(_) => true,
        Int::Big { neg, mag } => {
            let is_min = *neg && mag[..] == [0, 1 << 63];
            mag.last().is_some_and(|&l| l != 0) && x.bits() >= 128 && !is_min
        }
    }
}

/// Asserts `got` equals `want` and is in lowest terms with a positive
/// denominator and canonical components (zero is `0/1`).
fn assert_canonical(op: &str, got: &Ratio, want: &Ratio) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, want, "{} value", op);
    prop_assert!(got.denom().is_positive(), "{} denominator {:?}", op, got);
    prop_assert!(
        got.numer().gcd(got.denom()) == Int::ONE,
        "{} not in lowest terms: {:?}",
        op,
        got
    );
    prop_assert!(
        int_canonical(got.numer()) && int_canonical(got.denom()),
        "{} non-canonical Int: {:?}",
        op,
        got
    );
    Ok(())
}

/// Every binary and in-place arithmetic form against the `Int` reference.
fn assert_kernels(a: &Ratio, b: &Ratio) -> Result<(), TestCaseError> {
    let (sum, diff, prod) = (int_add(a, b), int_sub(a, b), int_mul(a, b));
    assert_canonical("+", &(a + b), &sum)?;
    assert_canonical("-", &(a - b), &diff)?;
    assert_canonical("*", &(a * b), &prod)?;
    let mut acc = a.clone();
    acc += b;
    assert_canonical("+=", &acc, &sum)?;
    let mut acc = a.clone();
    acc -= b;
    assert_canonical("-=", &acc, &diff)?;
    let mut acc = a.clone();
    acc *= b;
    assert_canonical("*=", &acc, &prod)
}

/// `x.to_f64()` from `Int` projections only, for components of at most
/// 500 bits (wider ones are rescaled before dividing).
fn int_to_f64(x: &Ratio) -> Option<f64> {
    (x.numer().bits() <= 500 && x.denom().bits() <= 500)
        .then(|| x.numer().to_f64() / x.denom().to_f64())
}

/// Clock values `a` and `b` in units of `1/σ` as ticks over `S = D·σ`,
/// `D` their denominators' lcm, and `S`: `(Ta − Tb)/S = (a − b)/σ`.
fn ticks(a: &Ratio, b: &Ratio, sigma: u32) -> (Int, Int, Int) {
    let d = a.denom().lcm(b.denom());
    let tick = |x: &Ratio| x.numer() * &d.div_rem(x.denom()).0;
    (tick(a), tick(b), &d * &Int::from(u64::from(sigma)))
}

/// `TickScale::new(s).diff_to_f64(ta, tb)` against `Ratio::new(ta − tb,
/// s).to_f64()`, bit for bit; returns the projection.
fn assert_tick_projection(ta: &Int, tb: &Int, s: &Int) -> Result<f64, TestCaseError> {
    let got = TickScale::new(s.clone()).diff_to_f64(ta, tb);
    let want = Ratio::new(ta - tb, s.clone()).to_f64();
    prop_assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "diff_to_f64({:?}, {:?}, {:?})",
        ta,
        tb,
        s
    );
    Ok(got)
}

/// The tick projection of `a − b` against the built difference, and
/// `to_f64` against the `Int` projections, bit for bit.
fn assert_projections(a: &Ratio, b: &Ratio) -> Result<(), TestCaseError> {
    let diff = a - b;
    let (ta, tb, s) = ticks(a, b, 1);
    let got = assert_tick_projection(&ta, &tb, &s)?;
    prop_assert_eq!(
        got.to_bits(),
        diff.to_f64().to_bits(),
        "ticks of {:?} − {:?}",
        a,
        b
    );
    for x in [a, b, &diff] {
        if let Some(want) = int_to_f64(x) {
            prop_assert_eq!(x.to_f64().to_bits(), want.to_bits(), "to_f64({:?})", x);
        }
    }
    Ok(())
}

/// The tick projection of `(a − b)/σ` against the built quotient and
/// against its `Int`-only projection, bit for bit.
fn assert_scaled_projection(a: &Ratio, b: &Ratio, sigma: u32) -> Result<(), TestCaseError> {
    let diff = a - b;
    let quotient = Ratio::new(
        diff.numer().clone(),
        diff.denom() * &Int::from(u64::from(sigma)),
    );
    let (ta, tb, s) = ticks(a, b, sigma);
    let got = assert_tick_projection(&ta, &tb, &s)?.to_bits();
    prop_assert_eq!(
        got,
        (&diff / &Ratio::from_int(u64::from(sigma)))
            .to_f64()
            .to_bits(),
        "ticks of ({:?} − {:?})/{}",
        a,
        b,
        sigma
    );
    if let Some(want) = int_to_f64(&quotient) {
        prop_assert_eq!(
            got,
            want.to_bits(),
            "Int-only ({:?} − {:?})/{}",
            a,
            b,
            sigma
        );
    }
    Ok(())
}

/// Time scales: 1, small odd factors (the generator's clock rates), any
/// odd scale up to 2^16, and arbitrary ones.
fn sigma_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(1u32),
        prop_oneof![Just(3u32), Just(5), Just(7), Just(9), Just(11), Just(3465)],
        (0u32..1 << 15).prop_map(|k| 2 * k + 1),
        1u32..=u32::MAX,
    ]
}

/// Tick scales `S = 2^E·σ`: `E` anywhere up to 126 and often near it,
/// `σ` odd up to 2^16, and scales past i128 or with a wide odd part,
/// which take the fallback.
fn tick_scale_strategy() -> impl Strategy<Value = Int> {
    prop_oneof![
        (0u64..=126, 0u32..1 << 15).prop_map(|(e, k)| {
            let odd = Int::from(u64::from(2 * k + 1));
            let s = &Int::pow2(e) * &odd;
            if s.to_i128().is_some() {
                s
            } else {
                Int::pow2(e)
            }
        }),
        (100u64..=126).prop_map(Int::pow2),
        (0u64..=60).prop_map(|e| &Int::pow2(e) * &Int::from((1i128 << 61) - 1)),
        (127u64..=200, 0u32..8).prop_map(|(e, k)| &Int::pow2(e) * &Int::from(u64::from(2 * k + 1))),
    ]
}

/// Dyadic pairs whose aligned difference `N` lies within `2^55` of zero
/// (the engine's within-segment offsets), so both sides of the `2^53`
/// guard are hit.
fn narrow_dyadic_pair() -> impl Strategy<Value = (Ratio, Ratio)> {
    let exp = prop_oneof![0u64..=126, 30u64..=60];
    (numer_strategy(), -(1i128 << 55)..1i128 << 55, exp).prop_map(|(n, k, e)| {
        let n = n.clamp(i128::MIN + (1 << 56), i128::MAX - (1 << 56));
        let b = Ratio::new(Int::from(n), Int::pow2(e));
        let a = Ratio::new(Int::from(n + k), Int::pow2(e));
        (a, b)
    })
}

/// The definitional comparison via the allocating subtraction path:
/// a/b vs c/d has the sign of a/b − c/d.
fn cmp_reference(lhs: &Ratio, rhs: &Ratio) -> Ordering {
    let diff = lhs - rhs;
    if diff.is_zero() {
        Ordering::Equal
    } else if diff.is_negative() {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// `n/d` in lowest terms with a positive denominator, from `Int::gcd`
/// and `Int::div_rem` alone: the reference for `Ratio::new`.
fn reduced(n: &Int, d: &Int) -> (Int, Int) {
    if n.is_zero() {
        return (Int::ZERO, Int::ONE);
    }
    let g = n.gcd(d);
    let (n, d) = (n.div_rem(&g).0, d.div_rem(&g).0);
    if d.is_negative() {
        (-&n, -&d)
    } else {
        (n, d)
    }
}

/// Nonzero denominators: any `Int`, and `±2^e` inline and past i128.
fn denom_strategy() -> impl Strategy<Value = Int> {
    prop_oneof![
        int_strategy().prop_filter("nonzero", |d| !d.is_zero()),
        (0u64..200, any::<bool>()).prop_map(|(e, neg)| {
            let d = Int::pow2(e);
            if neg {
                -&d
            } else {
                d
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn new_matches_gcd_reduction(n in int_strategy(), d in denom_strategy()) {
        let r = Ratio::new(n.clone(), d.clone());
        let (num, den) = reduced(&n, &d);
        prop_assert_eq!((r.numer(), r.denom()), (&num, &den), "{}/{}", n, d);
    }

    #[test]
    fn cmp_ref_matches_cross_multiplication(a in ratio_strategy(), b in ratio_strategy()) {
        prop_assert_eq!(a.cmp_ref(&b), cmp_reference(&a, &b));
        // Antisymmetry through the same fast paths.
        prop_assert_eq!(b.cmp_ref(&a), cmp_reference(&a, &b).reverse());
        prop_assert_eq!(a.cmp_ref(&a), Ordering::Equal);
    }

    #[test]
    fn min_ref_matches_value_min(a in ratio_strategy(), b in ratio_strategy()) {
        let by_ref = a.min_ref(&b).clone();
        let by_val = a.clone().min(b.clone());
        prop_assert_eq!(&by_ref, &by_val);
        // Tie-breaking must match `std::cmp::min`: first argument wins.
        if a == b {
            prop_assert!(std::ptr::eq(a.min_ref(&b), &a));
        }
    }

    #[test]
    fn add_assign_matches_add(a in ratio_strategy(), b in ratio_strategy()) {
        let reference = &a + &b;
        let mut acc = a;
        acc += &b;
        prop_assert_eq!(&acc, &reference);
        // Normal form must be identical too, not just the value class.
        prop_assert_eq!(acc.to_f64().to_bits(), reference.to_f64().to_bits());
    }

    #[test]
    fn sub_assign_matches_sub(a in ratio_strategy(), b in ratio_strategy()) {
        let reference = &a - &b;
        let mut acc = a;
        acc -= &b;
        prop_assert_eq!(&acc, &reference);
    }

    #[test]
    fn mul_assign_matches_mul(a in ratio_strategy(), b in ratio_strategy()) {
        let reference = &a * &b;
        let mut acc = a;
        acc *= &b;
        prop_assert_eq!(&acc, &reference);
        prop_assert_eq!(acc.to_f64().to_bits(), reference.to_f64().to_bits());
    }

    #[test]
    fn assign_chain_stays_normalized(a in ratio_strategy(), b in ratio_strategy(), c in ratio_strategy()) {
        // A chain of in-place ops must land on the same canonical Ratio
        // as the equivalent expression tree (lowest terms are unique, so
        // Eq on the struct is bytewise canonical-form equality).
        let mut acc = a.clone();
        acc += &b;
        acc *= &c;
        acc -= &b;
        let reference = &(&(&a + &b) * &c) - &b;
        prop_assert_eq!(acc, reference);
    }

    #[test]
    fn kernels_match_int_reference(a in kernel_strategy(), b in kernel_strategy()) {
        assert_kernels(&a, &b)?;
        assert_kernels(&b, &a)?;
    }

    #[test]
    fn dyadic_kernels_match_int_reference(a in dyadic_strategy(), b in dyadic_strategy()) {
        assert_kernels(&a, &b)?;
    }

    #[test]
    fn big_dyadic_kernels_match_int_reference(
        a in big_dyadic_strategy(),
        b in prop_oneof![big_dyadic_strategy(), dyadic_strategy()],
    ) {
        assert_kernels(&a, &b)?;
        assert_kernels(&b, &a)?;
    }

    #[test]
    fn tick_projections_match_canonical_bits(
        tb in int_strategy(),
        k in prop_oneof![any::<i64>().prop_map(Int::from), int_strategy()],
        s in tick_scale_strategy(),
    ) {
        // `ta` a small or arbitrary distance from `tb`: near ticks (the
        // engine's offsets, also between two `Big` clocks) and far ones.
        let ta = &tb + &k;
        assert_tick_projection(&ta, &tb, &s)?;
        assert_tick_projection(&tb, &ta, &s)?;
    }

    #[test]
    fn projections_match_reference_bits(a in kernel_strategy(), b in kernel_strategy()) {
        assert_projections(&a, &b)?;
        assert_projections(&b, &a)?;
        assert_projections(&a, &a)?;
    }

    #[test]
    fn dyadic_projections_match_reference_bits(a in dyadic_strategy(), b in dyadic_strategy()) {
        assert_projections(&a, &b)?;
    }

    #[test]
    fn scaled_projections_match_reference_bits(
        a in kernel_strategy(),
        b in kernel_strategy(),
        sigma in sigma_strategy(),
    ) {
        assert_scaled_projection(&a, &b, sigma)?;
        assert_scaled_projection(&b, &a, sigma)?;
        assert_scaled_projection(&a, &a, sigma)?;
    }

    #[test]
    fn narrow_scaled_projections_match_reference_bits(
        (a, b) in narrow_dyadic_pair(),
        sigma in sigma_strategy(),
    ) {
        assert_scaled_projection(&a, &b, sigma)?;
        assert_scaled_projection(&b, &a, sigma)?;
    }
}

#[test]
fn cmp_ref_promotion_boundary_exact() {
    // i128::MAX / 1 vs (i128::MAX + 1) / 1: the right side lives on the
    // Big path, one ULP above the small path's ceiling. The bit-length
    // shortcut must NOT fire (gap < 2 bits); the fallback must decide.
    let small_max = Ratio::new(Int::from(i128::MAX), Int::ONE);
    let just_big = Ratio::new(&Int::from(i128::MAX) + &Int::ONE, Int::ONE);
    assert_eq!(small_max.cmp_ref(&just_big), Ordering::Less);
    assert_eq!(just_big.cmp_ref(&small_max), Ordering::Greater);

    // Equal values expressed with big components: 2^140/2 vs 2^139.
    let a = Ratio::new(Int::ONE.shl(140), Int::from(2));
    let b = Ratio::new(Int::ONE.shl(139), Int::ONE);
    assert_eq!(a.cmp_ref(&b), Ordering::Equal);

    // Mixed magnitude where bit-gap decides: 2^200 vs 3/2.
    let giant = Ratio::new(Int::ONE.shl(200), Int::ONE);
    let tiny = Ratio::new(Int::from(3), Int::from(2));
    assert_eq!(giant.cmp_ref(&tiny), Ordering::Greater);
    assert_eq!(tiny.cmp_ref(&giant), Ordering::Less);
    let neg_giant = Ratio::new(-&Int::ONE.shl(200), Int::ONE);
    assert_eq!(neg_giant.cmp_ref(&tiny), Ordering::Less);
    assert_eq!(
        neg_giant.cmp_ref(&Ratio::new(Int::from(-3), Int::from(2))),
        Ordering::Less
    );
}

#[test]
fn assign_overflow_falls_back_to_big() {
    // Small-path `+=` must hand off to the allocating path when the
    // cross products overflow i128, and land on the identical canonical
    // value.
    let a = Ratio::new(Int::from(i128::MAX - 1), Int::from(3));
    let b = Ratio::new(Int::from(i128::MAX - 5), Int::from(7));
    let reference = &a + &b;
    let mut acc = a;
    acc += &b;
    assert_eq!(acc, reference);

    let c = Ratio::new(Int::from(i128::MAX / 2), Int::from(5));
    let reference_mul = &acc * &c;
    acc *= &c;
    assert_eq!(acc, reference_mul);
}

#[test]
fn dyadic_kernel_edges_match_int_reference() {
    let dy = |n: i128, e: u64| Ratio::new(Int::from(n), Int::pow2(e));
    let cases = [
        // Sums that cancel to an integer or to zero.
        (dy(1, 126), dy(-1, 126)),
        (dy(3, 1), dy(1, 1)),
        (dy(1, 126), dy(i128::MAX, 126)),
        // Alignment shifts that overflow i128.
        (dy(1, 0), dy(1, 126)),
        (dy(i128::MAX, 0), dy(1, 1)),
        (dy(i128::MIN, 0), dy(1, 126)),
        (dy(i128::MIN, 0), dy(i128::MIN, 0)),
        // Products whose denominator passes 2^126.
        (dy(1, 64), dy(1, 63)),
        (dy(3, 100), dy(5, 30)),
        // Products that cross-reduce to an integer.
        (dy(1 << 100, 0), dy(1, 100)),
        // Dyadic against non-dyadic and big operands.
        (dy(7, 53), Ratio::frac(1, 3)),
        (dy(7, 53), Ratio::new(Int::ONE, Int::pow2(200))),
        (dy(-5, 9), Ratio::new(Int::ONE.shl(130), Int::ONE)),
    ];
    for (a, b) in &cases {
        if let Err(e) = assert_kernels(a, b).and_then(|()| assert_kernels(b, a)) {
            panic!("{a:?} ∘ {b:?}: {e:?}");
        }
    }
}

#[test]
fn projection_edges_match_reference_bits() {
    let dy = |n: i128, e: u64| Ratio::new(Int::from(n), Int::pow2(e));
    let p63 = 1i128 << 63;
    let numerators = [
        0,
        1,
        -1,
        3,
        -7,
        // Around ±2^63, where the conversion switches from i64 to i128.
        p63 - 1,
        p63,
        p63 + 1,
        -p63 + 1,
        -p63,
        -p63 - 1,
        // Near ±2^127: aligned differences overflow and fall back.
        i128::MAX,
        i128::MAX - 2,
        i128::MIN,
        i128::MIN + 1,
    ];
    let mut operands = Vec::new();
    for e in 0..=126 {
        for &n in &numerators {
            operands.push(dy(n, e));
        }
    }
    // The engine's equal operands: the difference is `+0.0`.
    for a in &operands {
        let (ta, tb, s) = ticks(a, a, 1);
        assert_eq!(
            TickScale::new(s).diff_to_f64(&ta, &tb).to_bits(),
            0.0f64.to_bits(),
            "{a:?} − itself"
        );
    }
    let others = [
        Ratio::frac(1, 3),
        Ratio::frac(-5, 7),
        Ratio::new(Int::from(i128::MAX), Int::from(3)),
        Ratio::new(Int::ONE, Int::pow2(200)),
        Ratio::new(Int::ONE.shl(130), Int::ONE),
        Ratio::new(-&Int::ONE.shl(140), Int::from(3)),
    ];
    // Every pair of dyadics sharing or straddling an exponent, and each
    // dyadic against non-dyadic and big operands.
    for (i, a) in operands.iter().enumerate() {
        let nearby = operands[i.saturating_sub(2 * numerators.len())..]
            .iter()
            .take(4 * numerators.len());
        for b in nearby.chain(&others) {
            if let Err(e) = assert_projections(a, b).and_then(|()| assert_projections(b, a)) {
                panic!("{a:?} − {b:?}: {e:?}");
            }
        }
    }
    for (a, b) in others.iter().zip(others.iter().rev()) {
        if let Err(e) = assert_projections(a, b) {
            panic!("{a:?} − {b:?}: {e:?}");
        }
    }
}

#[test]
fn scaled_projection_edges_match_reference_bits() {
    let dy = |n: i128, e: u64| Ratio::new(Int::from(n), Int::pow2(e));
    let p53 = 1i128 << 53;
    // Aligned differences on both sides of the 2^53 guard, where a
    // double-rounding shortcut would first differ, and far past it.
    let diffs = [
        0,
        1,
        -1,
        3,
        p53 - 1,
        p53,
        p53 + 1,
        p53 + 3,
        -(p53 - 1),
        -p53,
        -(p53 + 1),
        3 * p53 + 5,
        i128::MAX,
        i128::MIN + 1,
    ];
    let bases = [0i128, 1, -7, 1 << 60, -(1 << 70) + 1];
    let mut sigmas: Vec<u32> = (0..1u32 << 15).map(|k| 2 * k + 1).collect();
    sigmas.extend([2, 6, 12, 1 << 20, (1 << 31) - 1, u32::MAX]);
    let others = [
        Ratio::frac(1, 3),
        Ratio::frac(-5, 7),
        Ratio::new(Int::from(i128::MAX), Int::from(3)),
        Ratio::new(Int::ONE, Int::pow2(200)),
        Ratio::new(Int::ONE.shl(130), Int::ONE),
        Ratio::new(-&Int::ONE.shl(140), Int::from(3)),
    ];
    let check = |a: &Ratio, b: &Ratio, sigma: u32| {
        if let Err(e) = assert_scaled_projection(a, b, sigma) {
            panic!("({a:?} − {b:?})/{sigma}: {e:?}");
        }
    };
    for e in 0..=126u64 {
        // Every exponent with a few scales; the full odd range below.
        for &sigma in [1, 3, 5, 11, 3465, 65_535, u32::MAX].iter() {
            for &base in &bases {
                for &n in &diffs {
                    let (Some(top), b) = (base.checked_add(n), dy(base, e)) else {
                        continue;
                    };
                    check(&dy(top, e), &b, sigma);
                    // Straddling exponents: `b` over a smaller power of two.
                    check(&dy(top, e), &dy(base, e / 2), sigma);
                }
            }
            for o in &others {
                check(&dy(p53 + 1, e), o, sigma);
                check(o, &dy(-3, e), sigma);
            }
        }
    }
    // Every odd scale up to 2^16, and a few even and huge ones, at the
    // guard.
    for &sigma in &sigmas {
        for n in [p53 - 1, p53, p53 + 1] {
            check(&dy(n, 40), &Ratio::zero(), sigma);
        }
    }
    for (a, b) in others.iter().zip(others.iter().rev()) {
        check(a, b, 3);
    }
}

#[test]
fn tick_projection_edges_match_canonical_bits() {
    let check = |ta: &Int, tb: &Int, s: &Int| {
        if let Err(e) = assert_tick_projection(ta, tb, s) {
            panic!("({ta:?} − {tb:?})/{s:?}: {e:?}");
        }
    };
    let p53 = 1i128 << 53;
    // Differences around 2^53, shifted by trailing zeros that the scale's
    // power of two reduces away (or does not), over odd σ and `E` up to
    // 126.
    let cores = [p53 - 1, p53, p53 + 1, p53 + 3, 3 * p53 + 5, -(p53 + 1)];
    let sigmas = [1i128, 3, 5, 11, 3465, 65_535];
    for e in (0..=126u32).step_by(7).chain(118..=126) {
        for &sigma in &sigmas {
            let Some(s) = (1i128 << e).checked_mul(sigma) else {
                continue;
            };
            let s = Int::from(s);
            for &core in &cores {
                for t in [0u32, 1, 5, 30, 60, 70] {
                    let Some(n) = core.checked_mul(1 << t) else {
                        continue;
                    };
                    for base in [0i128, 7, -(1 << 100)] {
                        let Some(top) = base.checked_add(n) else {
                            continue;
                        };
                        check(&Int::from(top), &Int::from(base), &s);
                    }
                }
            }
        }
    }
    // Every odd σ up to 2^16 at the 2^53 guard, with and without a power
    // of two in the scale.
    for k in 0..1i128 << 15 {
        let sigma = 2 * k + 1;
        for e in [0, 40, 110] {
            let s = Int::from(sigma << e);
            for n in [p53 - 1, p53, p53 + 1, (p53 + 1) << 3] {
                check(&Int::from(n), &Int::ZERO, &s);
            }
        }
    }
    // `Big` ticks whose difference is small, on both signs and across the
    // i128 boundary.
    let big = Int::pow2(200);
    let max = Int::from(i128::MAX);
    for s in [
        Int::ONE,
        Int::from(3),
        Int::pow2(5),
        Int::from(3i128 << 120),
    ] {
        for k in [0i64, 1, -1, 1 << 40, -(1 << 53) - 1] {
            let near = &big + &Int::from(k);
            check(&near, &big, &s);
            check(&big, &near, &s);
            check(&-&near, &-&big, &s);
            let edge = &max + &Int::from(k);
            check(&edge, &max, &s);
            check(&max, &edge, &s);
        }
        check(&big, &-&big, &s);
        check(&Int::ZERO, &-&(&max + &Int::ONE), &s);
    }
    // Scales that take the fallback: past i128, or an odd part wider
    // than 53 bits.
    for s in [
        Int::pow2(127),
        &Int::pow2(140) * &Int::from(3),
        Int::from((1i128 << 61) - 1),
        Int::from(((1i128 << 61) - 1) << 40),
    ] {
        for n in [1i128, -3, p53 + 1, i128::MAX] {
            check(&Int::from(n), &Int::ZERO, &s);
            check(&(&big + &Int::from(n)), &big, &s);
        }
    }
}

#[test]
fn big_dyadic_kernel_edges_match_int_reference() {
    let dy = |n: Int, e: u64| Ratio::new(n, Int::pow2(e));
    let big = Int::pow2(200);
    let cases = [
        // A `Big` exact time plus a short duration.
        (dy(&big + &Int::from(3), 5), dy(Int::from(1), 5)),
        (dy(&big + &Int::ONE, 2), dy(Int::from(3), 5)),
        (dy(big.clone(), 0), dy(Int::from(-1), 3)),
        // Sums that cancel to zero, to an integer, or back into i128.
        (dy(big.clone(), 4), dy(-&big, 4)),
        (dy(&big + &Int::ONE, 1), dy(Int::ONE, 1)),
        (dy(&big + &Int::from(5), 0), dy(-&big, 0)),
        // Denominators past i128.
        (dy(Int::ONE, 140), dy(Int::ONE, 140)),
        (dy(Int::from(3), 300), dy(big.clone(), 2)),
    ];
    for (a, b) in &cases {
        if let Err(e) = assert_kernels(a, b).and_then(|()| assert_kernels(b, a)) {
            panic!("{a:?} ∘ {b:?}: {e:?}");
        }
    }
}
