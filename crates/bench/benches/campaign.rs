//! B7 — the per-layer hot path and the campaign engine's building
//! blocks: the `hotpath/` rows `bench-guard` watches, parallel-map
//! overhead, and the shard gather codec. End-to-end campaign throughput
//! is `rvbench`'s job (`BENCHMARK.json`), not this suite's.
//!
//! Unlike the other suites this one has a hand-written `main`: after the
//! criterion groups run it exports `target/BENCH_campaign.json` (median /
//! mean / min ns per iteration for every benchmark, plus the fingerprint
//! of the machine that measured them).

use criterion::{black_box, Criterion};
use rv_core::batch::{mix_seed, RunRecord};
use rv_core::{
    compiled_aur, json, par_map, wire, Aur, Budget, FixedPair, Solver, StatsAccumulator,
};
use rv_model::{generate_seeded, Classification, Instance, TargetClass};
use rv_numeric::{ratio, Int, Ratio};
use rv_sim::{BudgetReason, Outcome};
use rv_trajectory::Motion;

fn bench_par_map(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_map");
    // Cheap closure: measures the map's own overhead (the old
    // implementation took a global lock per item here).
    let items: Vec<u64> = (0..100_000).collect();
    g.bench_function("cheap_100k", |b| {
        b.iter(|| par_map(0, items.len(), |i| mix_seed(items[i], 1)))
    });
    // Skewed closure: chunk stealing must keep all cores busy.
    let skewed: Vec<u64> = (0..512).collect();
    g.bench_function("skewed_512", |b| {
        b.iter(|| {
            par_map(0, skewed.len(), |i| {
                let x = skewed[i];
                let spin = if x.is_multiple_of(64) { 20_000 } else { 500 };
                let mut acc = x;
                for k in 0..spin {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                acc
            })
        })
    });
    g.finish();
}

/// Per-layer micro-rows for the solver hot path: the exact-rational
/// primitives (`Ratio` add/mul/cmp, `Int` gcd), the kinematic compiler
/// stepping the compiled AUR program, whole engine runs that exhaust
/// their budget, and the accumulator fold. Together they show *where* the
/// time of an AUR campaign lives, so a perf PR can prove which layer
/// moved.
fn bench_hotpath(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");

    // Mixed operand pool: mostly small rationals (the steady state), plus
    // a few giant-wait-scale values so the big-int paths are represented
    // the way an AUR clock past `2^(15·9)` represents them.
    let vals: Vec<Ratio> = (1..=64i64)
        .map(|k| {
            if k % 8 == 0 {
                &Ratio::pow2(140 + k) + &ratio(k, 3)
            } else {
                ratio(3 * k + 1, (k % 7) + 1)
            }
        })
        .collect();
    g.bench_function("ratio_add_64", |b| {
        b.iter(|| {
            let mut acc = Ratio::zero();
            for v in &vals {
                acc += v;
            }
            black_box(acc)
        })
    });
    g.bench_function("ratio_mul_64", |b| {
        b.iter(|| {
            let mut last = Ratio::zero();
            for v in &vals {
                last = v * v;
            }
            black_box(last)
        })
    });
    g.bench_function("ratio_cmp_64", |b| {
        b.iter(|| {
            let mut below = 0usize;
            for w in vals.windows(2) {
                if w[0] < w[1] {
                    below += 1;
                }
            }
            black_box(below)
        })
    });
    // Agent B's clock step on dyadic times (53-bit denominators, as on
    // the benchmark's AUR sweep): `end = clock + dur·τ`, then the engine's
    // `(end − start).to_f64()` offset.
    let wake = Ratio::new(Int::from((1i64 << 53) - 5), Int::pow2(53));
    let durs: Vec<Ratio> = (0..64i64).map(|k| Ratio::pow2(k % 12 - 6)).collect();
    let tau = ratio(3, 4);
    g.bench_function("ratio_clock_dyadic_64", |b| {
        b.iter(|| {
            let mut clock = wake.clone();
            let mut span = 0.0;
            for dur in &durs {
                let end = &clock + &(dur * &tau);
                span += (&end - &clock).to_f64();
                clock = end;
            }
            black_box((clock, span))
        })
    });
    g.bench_function("int_gcd_64", |b| {
        let ints: Vec<Int> = (1..=64i64)
            .map(|k| Int::from(k * 2 * 3 * 5 * 7 * 11 + (k % 5)))
            .collect();
        b.iter(|| {
            let mut acc = Int::from(0i64);
            for w in ints.windows(2) {
                acc = w[0].gcd(&w[1]);
            }
            black_box(acc)
        })
    });

    // The kinematic compiler on what `Aur::solve` steps: agent B of a
    // τ = 2 instance over the first 4096 segments of the shared
    // `AlmostUniversalRV` step tape, mapping direction ids through its
    // direction table, through the `Iterator` view (exact `Ratio` times
    // built from the tick clock).
    let inst = Instance::builder()
        .position(ratio(2, 1), ratio(1, 2))
        .r(ratio(2, 1))
        .tau(ratio(2, 1))
        .build()
        .expect("valid type-3 instance");
    g.bench_function("kinematics_4k", |b| {
        let attrs = inst.agent_b();
        b.iter(|| {
            let mut m = Motion::new(attrs.clone(), compiled_aur().tape());
            let mut x = 0.0;
            for _ in 0..4096 {
                x = m.next().map_or(x, |s| s.from.x);
            }
            black_box(x)
        })
    });

    // Whole AUR runs that exhaust their budget, on the first instance of
    // `t1`'s infeasible-shift family (Theorem 3.1: it never meets). At
    // 20k segments (`sweep_aur`'s budget) every clock fits in i128; at
    // 200k (`t1`'s failure budget) the clocks leave i128 after about 46k
    // segments.
    let class = TargetClass::InfeasibleShift;
    let infeasible = generate_seeded(mix_seed(0x71_0000 + class.expected() as u64, 0), class);
    for segments in [20_000u64, 200_000] {
        let budget = Budget::default().segments(segments);
        let report = Aur.solve(&infeasible, &budget);
        assert!(
            matches!(report.outcome, Outcome::Budget(BudgetReason::Segments)),
            "the {segments}-segment row must exhaust its segment budget"
        );
        g.bench_function(format!("aur_exhaust_{}k", segments / 1000), |b| {
            b.iter(|| black_box(Aur.solve(&infeasible, &budget)).segments)
        });
    }

    // Latecomers (the GATHER(2) baseline of `t6` and `f10`), lowered on
    // the fly, on `t6`'s first geometry woken at 9/10 of its boundary
    // delay, which it cannot meet (Lemma 3.8): a fifth of `t6`'s
    // 200k-segment failure budget. Phase k plays 2^k directions, so the
    // run interns about 8k of them through the directory's hash index.
    let base = Instance::builder()
        .position(ratio(3, 1), ratio(1, 1))
        .r(ratio(1, 2))
        .build()
        .expect("valid instance");
    let boundary = base.initial_dist() - base.r.to_f64();
    let late = Instance {
        t: &Ratio::from_f64_exact(boundary).expect("finite") * &ratio(9, 10),
        ..base
    };
    let latecomers = FixedPair::symmetric("latecomers", |_| rv_baselines::latecomers());
    let budget = Budget::default().segments(40_000);
    let report = latecomers.solve(&late, &budget);
    assert!(
        matches!(report.outcome, Outcome::Budget(BudgetReason::Segments)),
        "the Latecomers row must exhaust its segment budget"
    );
    g.bench_function("latecomers_exhaust_40k", |b| {
        b.iter(|| black_box(latecomers.solve(&late, &budget)).segments)
    });

    // The accumulator fold: push 4096 synthetic records and finish.
    let records: Vec<RunRecord> = (0..4096u64)
        .map(|i| RunRecord {
            class: Classification::Type3,
            feasible: true,
            met: i % 3 != 0,
            time: (i % 3 != 0).then_some(i as f64 / 7.0),
            segments: i * 13 % 997,
            min_dist: (i % 31) as f64 / 8.0,
            radius: 2.0,
        })
        .collect();
    g.bench_function("stats_push_finish_4k", |b| {
        b.iter(|| {
            let mut acc = StatsAccumulator::new();
            for r in &records {
                acc.push(r);
            }
            black_box(acc.finish()).n
        })
    });
    g.finish();
}

/// The gather half of the cross-process shard protocol: decode the
/// record lines the workers shipped, fold each unit's records, merge the
/// unit accumulators, finish. Encoding one record line is benched too —
/// it is the per-record egress cost.
fn bench_shard_gather(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_gather");
    // Synthetic record stream: 1024 records over 4 units of 256, encoded
    // as the record lines a worker would emit.
    let records: Vec<RunRecord> = (0..1024u64)
        .map(|i| RunRecord {
            class: Classification::Type3,
            feasible: true,
            met: i % 3 != 0,
            time: (i % 3 != 0).then_some(i as f64 / 7.0),
            segments: i * 13 % 997,
            min_dist: (i % 31) as f64 / 8.0,
            radius: 2.0,
        })
        .collect();
    let lines: Vec<String> = records
        .iter()
        .enumerate()
        .map(|(i, r)| wire::encode_record(i, r))
        .collect();

    g.bench_function("decode_fold_merge_finish_4x256", |b| {
        b.iter(|| {
            let merged = lines
                .chunks(lines.len() / 4)
                .map(|unit| {
                    let recs: Vec<RunRecord> = unit
                        .iter()
                        .map(|l| wire::decode_record(l).expect("bench line").1)
                        .collect();
                    StatsAccumulator::of(&recs)
                })
                .fold(StatsAccumulator::new(), StatsAccumulator::merge);
            black_box(merged.finish()).n
        })
    });
    g.bench_function("encode_record_line", |b| {
        b.iter(|| black_box(wire::encode_record(512, &records[512])).len())
    });
    g.finish();
}

/// The shape of the machine that measured: available parallelism, CPU
/// model and `rustc -V`. `bench-guard` compares raw medians only between
/// artifacts with equal fingerprints.
fn machine_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let version = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_default();
    format!("{cpus} x {model} | {version}")
}

/// Renders the recorded measurements as the `BENCH_campaign.json`
/// artifact (strict JSON, schema-versioned like the experiment stats).
fn results_json(c: &Criterion) -> String {
    let mut out = format!(
        "{{\n  \"schema\": 2,\n  \"bench\": \"campaign\",\n  \"machine\": {},\n  \"results\": [\n",
        json::string(&machine_fingerprint())
    );
    let results = c.results();
    for (k, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}}}",
            json::string(&r.id),
            json::f64(r.median_ns),
            json::f64(r.mean_ns),
            json::f64(r.min_ns)
        ));
        if k + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut criterion = Criterion::default();
    bench_par_map(&mut criterion);
    bench_hotpath(&mut criterion);
    bench_shard_gather(&mut criterion);

    // Bench binaries run with CWD = the package dir; anchor the artifact
    // to the *workspace* target dir so it has a stable home.
    let out = format!(
        "{}/../../target/BENCH_campaign.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, results_json(&criterion)) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
