//! Golden reproduction digests: the bytes of every table and figure
//! `experiments --quick` writes, pinned across commits.
//!
//! Each test runs one experiment id through [`run_one`] at
//! [`Scale::quick`] into its own temp dir, then hashes (FNV-1a, 64-bit)
//! every file the run wrote, in name order (name, then bytes), followed
//! by the markdown section of each output, which is what the binary
//! copies into `summary.md`. `record_digest` pins the campaign layer's
//! wire bytes; this suite pins what the reproduction reports on top of
//! it: tables, CSVs, stats JSON and SVG plots.
//!
//! The cheap ids run in every `cargo test`; the heavy ones (a few
//! seconds each in a debug build) are `#[ignore]`d and run in release
//! with `--include-ignored` (CI's "Reproduction digests" step).
//!
//! Directions other than quarter turns take `cos`/`sin` from the
//! platform's libm, whose last bit may differ between platforms, so the
//! constants are asserted on x86_64 Linux (the CI runner) only; elsewhere
//! the suite still runs every experiment and prints the digests.

use rv_experiments::exp::run_one;
use rv_experiments::report::Ctx;
use rv_experiments::workloads::Scale;

/// Incremental 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs `id` at quick scale into a fresh temp dir and checks the digest
/// of its artifacts and sections against `want`.
fn check(id: &str, want: u64) {
    let dir = std::env::temp_dir().join(format!("rv_repro_{id}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = Ctx::new(&dir, Scale::quick());
    let outputs = run_one(id, &ctx);

    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{id}: reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    names.sort();
    let mut h = Fnv::new();
    for name in &names {
        let bytes = std::fs::read(dir.join(name)).expect("read artifact");
        h.write(name.as_encoded_bytes());
        h.write(&bytes);
    }
    for output in &outputs {
        h.write(output.section().as_bytes());
    }
    let _ = std::fs::remove_dir_all(&dir);

    let got = h.0;
    println!("{id} ({} files): {got:016x}", names.len());
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_eq!(got, want, "{id}: digest {got:016x}, pinned {want:016x}");
    }
}

macro_rules! pinned {
    ($($(#[$attr:meta])* $name:ident: $id:literal => $want:literal;)*) => {
        $(
            #[test]
            $(#[$attr])*
            fn $name() {
                check($id, $want);
            }
        )*
    };
}

pinned! {
    #[ignore = "heavy: run in release with --include-ignored"]
    t1_feasibility: "t1" => 0x7272_ff52_ca82_5623;
    #[ignore = "heavy: run in release with --include-ignored"]
    t2_aur_coverage: "t2" => 0x37c2_46d8_c5a2_6702;
    t3_exceptions: "t3" => 0x9e2f_7a71_c698_253c;
    #[ignore = "heavy: run in release with --include-ignored"]
    t4_asymmetric_radii: "t4" => 0x664a_f20b_9536_8d33;
    t5_cgkk_contract: "t5" => 0xa823_5742_0fa2_27b1;
    #[ignore = "heavy: run in release with --include-ignored"]
    t6_latecomers_contract: "t6" => 0xfdeb_3d4b_229a_d21c;
    t7_phase_bounds: "t7" => 0x3a72_bb9f_683b_487e;
    f1_canonical_line: "f1" => 0x7b21_9539_3937_709d;
    f2_rot_systems: "f2" => 0x4d60_ea68_1b57_99ba;
    f3_claim_3_1: "f3" => 0x26f9_4629_3651_c41c;
    f4_projection_dynamics: "f4" => 0xe06d_4c39_2e02_86c1;
    f5_march_cases: "f5" => 0xccfe_66f7_163e_886a;
    f6_delay_sweep: "f6" => 0x9821_3f20_6e17_ea80;
    f7_tau_sweep: "f7" => 0x7e3a_89f7_1855_993c;
    #[ignore = "heavy: run in release with --include-ignored"]
    f8_phi_sweep: "f8" => 0x6dee_1abf_4bf8_2db7;
    #[ignore = "heavy: run in release with --include-ignored"]
    f9_boundary_gap: "f9" => 0x1896_84da_ca13_f401;
    f10_baseline_vs_aur: "f10" => 0xa703_1ce2_354a_2c77;
}
