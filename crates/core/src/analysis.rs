//! Worst-case phase bounds from the paper's correctness proofs.
//!
//! The proofs of Lemmas 3.2–3.5 are constructive: for each instance type
//! they exhibit an explicit phase index `i` by which `AlmostUniversalRV`
//! must have achieved rendezvous. This module evaluates those formulas so
//! experiments can compare the paper's worst-case predictions against the
//! phases actually observed in simulation (experiment **T7**), and so
//! users can size budgets.
//!
//! The bounds are *sufficient* phase indices — meetings routinely happen
//! much earlier (often through a block belonging to a different type).

use crate::aur::{phase_duration, MAX_PHASE};
use rv_baselines::{cgkk_wait, latecomers_phase_duration, pcw_duration};
use rv_geometry::Similarity;
use rv_model::{classify, Classification, Instance};
use rv_numeric::Ratio;

/// End of phase `i` on agent A's clock (cumulative local duration of
/// phases `1..=i`; agent A's local time is absolute time).
pub fn cumulative_phase_end(i: u32) -> Ratio {
    let mut acc = Ratio::zero();
    for k in 1..=i {
        acc += &phase_duration(k);
    }
    acc
}

/// The phase in which absolute time `t` falls for agent A (1-based);
/// saturates at [`MAX_PHASE`].
pub fn phase_of_time(t: &Ratio) -> u32 {
    let mut acc = Ratio::zero();
    for k in 1..=MAX_PHASE {
        acc += &phase_duration(k);
        if *t <= acc {
            return k;
        }
    }
    MAX_PHASE
}

/// Lemma 3.2 (type 1): the phase `i = σ + ω` by which the canonical-line
/// mechanism guarantees rendezvous. Returns `None` unless the instance is
/// type 1.
pub fn type1_phase_bound(inst: &Instance) -> Option<u32> {
    if classify(inst) != Classification::Type1 {
        return None;
    }
    let r = inst.r.to_f64();
    let t = inst.t.to_f64();
    let proj = inst.proj_dist();
    let e = t - proj + r;
    debug_assert!(e > 0.0);
    let m = r.min(e);
    let dist = inst.initial_dist();
    // σ = ⌈log₂(t + r + e + √(x²+y²) + 8/m + π/asin(m / 16(t+r+e+1)))⌉
    let asin_arg = (m / (16.0 * (t + r + e + 1.0))).min(1.0);
    let sigma_inner = t + r + e + dist + 8.0 / m + std::f64::consts::PI / asin_arg.asin();
    let sigma = sigma_inner.log2().ceil().max(1.0);
    // ω = ⌈log₂(π / acos((proj − r + e/2)/t))⌉ when the argument is
    // positive, 1 otherwise.
    let omega = {
        let num = proj - r + e / 2.0;
        if num > 0.0 && t > 0.0 {
            let acos_arg = (num / t).clamp(-1.0, 1.0);
            let a = acos_arg.acos();
            if a > 0.0 {
                (std::f64::consts::PI / a).log2().ceil().max(1.0)
            } else {
                return Some(MAX_PHASE);
            }
        } else {
            1.0
        }
    };
    Some(((sigma + omega) as u32).clamp(1, MAX_PHASE))
}

/// Lemma 3.3 (type 2): `i = ⌈log₂(t + Δ)⌉` where `Δ` is the solo meeting
/// time of `Latecomers` on the instance, estimated from the sliding-window
/// analysis of the reconstruction (`rv-baselines`' `latecomers` module
/// docs): the meeting happens in
/// the first Latecomers phase `k` with `2^k ≥ t` and `π·t/2^k` below the
/// feasibility slack.
pub fn type2_phase_bound(inst: &Instance) -> Option<u32> {
    if classify(inst) != Classification::Type2 {
        return None;
    }
    let r = inst.r.to_f64();
    let t = inst.t.to_f64();
    let dist = inst.initial_dist();
    let slack = (t + r - dist).max(f64::MIN_POSITIVE);
    let mut k = 1u32;
    while k < MAX_PHASE && ((1u64 << k) as f64) < t.max(std::f64::consts::PI * t / slack) {
        k += 1;
    }
    // Δ ≤ cumulative Latecomers time through phase k.
    let mut delta = Ratio::zero();
    for j in 1..=k {
        delta += &latecomers_phase_duration(j);
    }
    let horizon = delta.to_f64() + t;
    Some((horizon.log2().ceil().max(1.0) as u32).clamp(1, MAX_PHASE))
}

/// Lemma 3.4 (type 3): `i = ⌈log₂(τ_X/(τ_Y−τ_X) + τ_Y/τ_X + u_X/r +
/// d/u_X + t)⌉` where `X` is the faster-clock agent.
pub fn type3_phase_bound(inst: &Instance) -> Option<u32> {
    if classify(inst) != Classification::Type3 {
        return None;
    }
    let tau = inst.tau.to_f64();
    let (tau_x, tau_y, u_x) = if tau > 1.0 {
        // A has the faster clock (τ_A = 1 < τ); its length unit is 1.
        (1.0, tau, 1.0)
    } else {
        (tau, 1.0, tau * inst.v.to_f64())
    };
    let r = inst.r.to_f64();
    let d = inst.initial_dist();
    let t = inst.t.to_f64();
    let inner = tau_x / (tau_y - tau_x) + tau_y / tau_x + u_x / r + d / u_x + t;
    Some((inner.log2().ceil().max(1.0) as u32).clamp(1, MAX_PHASE))
}

/// Lemma 3.5 (type 4): `i = ⌈log₂(t + Δ + 4(v+1)/r)⌉` where `Δ` is the
/// meeting time of the solo `CGKK` execution on `h(I)`, estimated from the
/// similarity-fixed-point analysis of the reconstruction (`rv-baselines`'
/// `cgkk` module docs):
/// the sweep of phase `k*` meets once `2^k ≥ |c|` and
/// `(1+τv)·√2·2^(−k) ≤ r/2`.
pub fn type4_phase_bound(inst: &Instance) -> Option<u32> {
    if classify(inst) != Classification::Type4 {
        return None;
    }
    let h = inst.h_image();
    let scale = (&h.tau * &h.v).to_f64();
    let sim = Similarity {
        orient: rv_geometry::Orientation {
            phi: h.phi.clone(),
            chi: h.chi,
        },
        scale,
        origin: h.displacement(),
    };
    let c = sim.fixed_point()?;
    let r_half = h.r.to_f64();
    let need_reach = c.norm().log2().ceil().max(1.0);
    let need_res = ((1.0 + scale) * std::f64::consts::SQRT_2 / r_half)
        .log2()
        .ceil()
        .max(1.0);
    let k_star = (need_reach.max(need_res) as u32).clamp(1, MAX_PHASE);
    // Δ ≤ cumulative CGKK local time through phase k*.
    let mut delta = Ratio::zero();
    for k in 1..=k_star {
        delta += &(&pcw_duration(k) * &Ratio::from_int(2));
        delta += &cgkk_wait(k);
    }
    let inner = inst.t.to_f64() + delta.to_f64() + 4.0 * (inst.v.to_f64() + 1.0) / inst.r.to_f64();
    Some((inner.log2().ceil().max(1.0) as u32).clamp(1, MAX_PHASE))
}

/// The applicable worst-case phase bound for any AUR-guaranteed instance.
pub fn phase_bound(inst: &Instance) -> Option<u32> {
    match classify(inst) {
        Classification::Trivial => Some(1),
        Classification::Type1 => type1_phase_bound(inst),
        Classification::Type2 => type2_phase_bound(inst),
        Classification::Type3 => type3_phase_bound(inst),
        Classification::Type4 => type4_phase_bound(inst),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_geometry::Chirality;
    use rv_model::Angle;
    use rv_numeric::ratio;

    #[test]
    fn cumulative_phase_ends_are_increasing() {
        let mut prev = Ratio::zero();
        for i in 1..=3 {
            let end = cumulative_phase_end(i);
            assert!(end > prev);
            prev = end;
        }
    }

    #[test]
    fn phase_of_time_inverts_cumulative() {
        for i in 1..=3u32 {
            let end = cumulative_phase_end(i);
            assert_eq!(phase_of_time(&end), i);
            let just_after = &end + &ratio(1, 1);
            assert_eq!(phase_of_time(&just_after), i + 1);
        }
        assert_eq!(phase_of_time(&Ratio::zero()), 1);
    }

    #[test]
    fn type3_bound_grows_as_tau_approaches_one() {
        let at = |p: i64, q: i64| {
            let inst = Instance::builder()
                .position(ratio(3, 1), ratio(0, 1))
                .tau(ratio(p, q))
                .build()
                .unwrap();
            type3_phase_bound(&inst).unwrap()
        };
        assert!(at(2, 1) <= at(9, 8));
        assert!(at(9, 8) <= at(33, 32));
    }

    #[test]
    fn type4_bound_grows_as_phi_shrinks() {
        let at = |k: i64| {
            let inst = Instance::builder()
                .position(ratio(4, 1), ratio(0, 1))
                .phi(Angle::pi_frac(1, k))
                .build()
                .unwrap();
            type4_phase_bound(&inst).unwrap()
        };
        assert!(at(2) <= at(8));
        assert!(at(8) <= at(32));
    }

    #[test]
    fn type1_bound_is_finite_for_generous_slack() {
        let inst = Instance::builder()
            .position(ratio(3, 1), ratio(1, 1))
            .chirality(Chirality::Minus)
            .delay(ratio(5, 1))
            .build()
            .unwrap();
        let b = type1_phase_bound(&inst).unwrap();
        assert!((1..=MAX_PHASE).contains(&b));
    }

    #[test]
    fn bounds_are_none_off_type() {
        let t3 = Instance::builder()
            .position(ratio(3, 1), ratio(0, 1))
            .tau(ratio(2, 1))
            .build()
            .unwrap();
        assert!(type1_phase_bound(&t3).is_none());
        assert!(type2_phase_bound(&t3).is_none());
        assert!(type4_phase_bound(&t3).is_none());
        assert_eq!(phase_bound(&t3), type3_phase_bound(&t3));
    }

    #[test]
    fn dispatcher_covers_all_guaranteed_classes() {
        let cases = [
            Instance::builder()
                .position(ratio(3, 1), ratio(1, 1))
                .chirality(Chirality::Minus)
                .delay(ratio(5, 1))
                .build()
                .unwrap(),
            Instance::builder()
                .position(ratio(3, 1), ratio(0, 1))
                .delay(ratio(3, 1))
                .build()
                .unwrap(),
            Instance::builder()
                .position(ratio(3, 1), ratio(0, 1))
                .tau(ratio(2, 1))
                .build()
                .unwrap(),
            Instance::builder()
                .position(ratio(3, 1), ratio(0, 1))
                .speed(ratio(2, 1))
                .build()
                .unwrap(),
        ];
        for inst in cases {
            assert!(phase_bound(&inst).is_some(), "{inst}");
        }
    }

    #[test]
    fn boundary_instances_have_no_bound() {
        let s1 = Instance::builder()
            .position(ratio(5, 1), ratio(0, 1))
            .delay(ratio(4, 1))
            .build()
            .unwrap();
        assert!(phase_bound(&s1).is_none());
    }
}
