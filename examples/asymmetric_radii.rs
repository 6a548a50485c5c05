//! Section 5 extension: agents with different visibility radii.
//!
//! The far-sighted agent (radius `r1`) sees first and freezes; rendezvous
//! completes when the other agent closes to its own radius `r2 < r1`.
//! This example walks one instance through progressively harsher radius
//! asymmetry and reports when/where each agent stops.
//!
//! ```text
//! cargo run --release --example asymmetric_radii
//! ```

use plane_rendezvous::core::almost_universal_rv;
use plane_rendezvous::prelude::*;

fn main() {
    // A type-3 instance (B's clock runs 3× slower): AUR's calibrated-wait
    // mechanism lets the fast agent sweep while the slow one idles.
    let inst = Instance::builder()
        .position(ratio(3, 1), ratio(2, 1))
        .r(ratio(2, 1))
        .tau(ratio(3, 1))
        .build()
        .unwrap();
    println!("instance: {inst}  [{}]", classify(&inst));
    println!();

    let budget = Budget::default().segments(4_000_000);
    for (num, den) in [(1i64, 1i64), (1, 2), (1, 4), (1, 8)] {
        let r_a = inst.r.clone();
        let r_b = &inst.r * &ratio(num, den);
        let aur =
            FixedPair::symmetric("aur", |_| almost_universal_rv()).visibility(Visibility::Fixed {
                a: r_a.clone(),
                b: r_b.clone(),
            });
        let report = aur.solve(&inst, &budget);
        print!("r_A = {r_a}, r_B = {r_b}: ");
        match report.meeting() {
            Some(m) => println!(
                "rendezvous at t = {:.3}, final distance {:.4} (≤ r_B), A at {:?}, B at {:?}",
                m.time.to_f64(),
                m.dist,
                m.pos_a,
                m.pos_b
            ),
            None => println!(
                "no rendezvous within budget; closest approach {:.4}",
                report.min_dist
            ),
        }
    }

    println!();
    println!("Note (paper, Section 5): all positive results survive with r");
    println!("replaced by the larger radius r1 in the validity conditions —");
    println!("the far-sighted agent stops on first sight, and the per-phase");
    println!("search procedures of AlmostUniversalRV bring the other agent");
    println!("within its own (smaller) radius.");
}
