//! Smoke tests: the cheap experiments must run end-to-end at a tiny scale
//! and produce their declared artifacts. `reproduction_digest.rs` runs
//! every id and pins the bytes it writes; the statistically meaningful
//! runs live in the `experiments` binary. These tests only guard the
//! plumbing.

use rv_experiments::exp::{run_one, ALL_IDS};
use rv_experiments::report::Ctx;
use rv_experiments::workloads::Scale;
use std::path::PathBuf;

fn tiny_scale() -> Scale {
    Scale {
        per_family: 6,
        success_segments: 60_000,
        failure_segments: 8_000,
    }
}

fn tmp_ctx(tag: &str) -> (Ctx, PathBuf) {
    let dir = std::env::temp_dir().join(format!("rv_exp_smoke_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (Ctx::new(&dir, tiny_scale()), dir)
}

fn assert_artifacts(ctx: &Ctx, id: &str) {
    for output in run_one(id, ctx) {
        assert_eq!(output.id, id);
        assert!(!output.markdown.is_empty());
        for artifact in &output.artifacts {
            let path = ctx.out_dir.join(artifact);
            let meta = std::fs::metadata(&path)
                .unwrap_or_else(|e| panic!("{id}: missing artifact {artifact}: {e}"));
            assert!(meta.len() > 0, "{id}: empty artifact {artifact}");
        }
        // Sections render without panicking.
        let section = output.section();
        assert!(section.starts_with("## "));
    }
}

// The geometry figures are cheap; run them unconditionally.
#[test]
fn geometry_figures_produce_artifacts() {
    let (ctx, dir) = tmp_ctx("figs");
    for id in ["f1", "f2", "f3"] {
        assert_artifacts(&ctx, id);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn f5_march_cases_produce_artifacts() {
    let (ctx, dir) = tmp_ctx("f5");
    assert_artifacts(&ctx, "f5");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn all_ids_are_known() {
    // The registry must accept every listed id (checked lazily to avoid
    // running the heavy ones here).
    assert!(ALL_IDS.contains(&"t1"));
    assert!(ALL_IDS.contains(&"t7"));
    assert!(ALL_IDS.contains(&"f10"));
    assert_eq!(ALL_IDS.len(), 17);
}
