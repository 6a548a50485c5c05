//! Infeasible-heavy campaigns through the unit surface: the
//! `Recommendation { feasible: false }` path must stay visible all the
//! way to gathered stats (`infeasible == n`), and every wire artifact a
//! worker emits for such a campaign must be valid schema-3 JSON. Also
//! proves the *in-process* scatter/gather differential over the session
//! wire: encode campaign_spec → decode, then per unit encode task →
//! decode → execute → encode records and unit_done → decode → fold the
//! records → merge is byte-identical to the single-process run (the
//! worker-process version
//! lives in `rv-experiments`' `executor_differential` suite, next to the
//! `rv-shard` binary).

use rv_core::shard::{plan_units, CampaignSpec, SolverSpec, UnitDone, UnitTask};
use rv_core::stream::VecSink;
use rv_core::wire::{self, Line, Value};
use rv_core::{CampaignStats, StatsAccumulator};
use rv_model::TargetClass;
use std::sync::Arc;

fn all_infeasible() -> CampaignSpec {
    CampaignSpec::new(
        SolverSpec::Dedicated,
        vec![TargetClass::InfeasibleShift, TargetClass::InfeasibleMirror],
        20_000,
    )
}

fn assert_byte_identical(a: &CampaignStats, b: &CampaignStats, ctx: &str) {
    assert_eq!(a, b, "{ctx}");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}");
    assert_eq!(a.to_json(), b.to_json(), "{ctx}");
}

#[test]
fn all_infeasible_campaign_counts_every_run_as_infeasible() {
    let n = 12;
    let report = all_infeasible().run_local(0xBAD5EED, n);
    assert_eq!(report.stats.n, n);
    assert_eq!(
        report.stats.infeasible, n,
        "every run must surface feasible: false"
    );
    assert_eq!(report.stats.met, 0, "Theorem 3.1: no algorithm can meet");
    for rec in &report.records {
        assert!(!rec.feasible);
        assert!(!rec.met);
        assert_eq!(rec.time, None);
    }
    // The aggregate keeps the per-class breakdown to the infeasible slot.
    assert_eq!(report.stats.per_class.len(), 1);
    assert_eq!(report.stats.per_class[0].n, n);
    assert_eq!(report.stats.per_class[0].met, 0);
    assert_eq!(report.stats.per_class[0].median_time, None);
}

#[test]
fn all_infeasible_campaign_emits_valid_schema_3_wire_lines() {
    let n = 8;
    let spec = all_infeasible();
    let report = spec.run_local(7, n);

    // Every record line a worker would stream is strict JSON with the
    // schema-3 header, and decodes back to the record bit-for-bit.
    let mut decoded = Vec::new();
    for (i, rec) in report.records.iter().enumerate() {
        let line = wire::encode_record(i, rec);
        let v = Value::parse(&line).expect("record line must be strict JSON");
        assert_eq!(v.get("schema"), Some(&Value::Num("3")));
        let (i2, rec2) = wire::decode_record(&line).unwrap();
        assert_eq!((i2, &rec2), (i, rec));
        decoded.push(rec2);
    }

    // The driver folds the decoded records into the local stats; the
    // unit_done line that closes the unit is valid too, and so is the
    // campaign_report line that carries the per-class rows.
    let stats = StatsAccumulator::of(&decoded).finish();
    assert_byte_identical(&stats, &report.stats, "driver-side fold");
    assert_eq!(stats.infeasible, n);
    let done_line = wire::encode_unit_done(&UnitDone {
        task_id: 0,
        start: 0,
    });
    Value::parse(&done_line).expect("unit_done line must be strict JSON");
    let report_line = wire::encode_campaign_report(&stats);
    Value::parse(&report_line).expect("campaign_report line must be strict JSON");
    let back = wire::decode_campaign_report(&report_line).unwrap();
    assert_byte_identical(&back, &stats, "campaign_report");

    // And the schema-2 artifact JSON (null for the degenerate quantiles
    // of a campaign that never meets) parses strictly as well.
    let artifact = report.stats.to_json();
    Value::parse(&artifact).expect("stats artifact must be strict JSON");
    assert!(artifact.contains("\"median_time\": null"));
    assert!(artifact.contains(&format!("\"infeasible\": {n}")));
}

#[test]
fn in_process_scatter_gather_over_the_wire_is_byte_identical() {
    // Mixed workload (feasible + infeasible) so the merged per-class
    // breakdown is non-trivial.
    let spec = CampaignSpec::new(
        SolverSpec::Dedicated,
        vec![
            TargetClass::Type3,
            TargetClass::S1,
            TargetClass::InfeasibleShift,
        ],
        30_000,
    );
    let seed = 0xD1FF;
    let n = 15;
    let local = spec.run_local(seed, n);
    assert!(local.stats.met > 0, "workload must exercise real runs");
    assert!(
        local.stats.infeasible > 0,
        "workload must include infeasible"
    );

    // The session opener, as a worker would receive it.
    let (session, session_seed) =
        match wire::decode_line(&wire::encode_campaign_spec(&spec, seed)).unwrap() {
            Line::CampaignSpec { spec, seed } => (spec, seed),
            other => panic!("wrong kind: {other:?}"),
        };
    assert_eq!((&session, session_seed), (&spec, seed));

    for shards in [1usize, 2, 4] {
        let mut seen = Vec::new();
        let mut merged = StatsAccumulator::new();
        for (k, range) in plan_units(n, n.div_ceil(shards)).into_iter().enumerate() {
            // Full wire trip in both directions, as the session protocol
            // would do it.
            let sent = UnitTask {
                task_id: k as u32,
                attempt: 0,
                range,
            };
            let task = match wire::decode_line(&wire::encode_task(&sent)).unwrap() {
                Line::Task(t) => t,
                other => panic!("wrong kind: {other:?}"),
            };
            assert_eq!(task, sent);
            let sink = Arc::new(VecSink::new());
            session.run_range(session_seed, task.range.clone(), sink.clone(), 0);
            let mut lines: Vec<String> = sink
                .take()
                .iter()
                .map(|(i, rec)| wire::encode_record(*i, rec))
                .collect();
            lines.push(wire::encode_unit_done(&UnitDone {
                task_id: task.task_id,
                start: task.range.start,
            }));
            // The driver side: decode the unit's answer, check the
            // unit_done identity, and fold the records it holds.
            let mut records = Vec::new();
            for line in &lines {
                match wire::decode_line(line).unwrap() {
                    Line::Record { index, record } => records.push((index, record)),
                    Line::UnitDone(done) => {
                        assert_eq!(
                            done,
                            UnitDone {
                                task_id: sent.task_id,
                                start: sent.range.start
                            }
                        );
                    }
                    other => panic!("wrong kind: {other:?}"),
                }
            }
            records.sort_by_key(|(i, _)| *i);
            assert_eq!(records.len(), sent.range.len());
            merged = merged.merge(StatsAccumulator::of(records.iter().map(|(_, r)| r)));
            seen.extend(records);
        }
        assert_byte_identical(&merged.finish(), &local.stats, &format!("{shards} shards"));

        // The streamed records cover 0..n exactly once with globally
        // correct indices, matching the single-process records.
        assert_eq!(seen.len(), n, "{shards} shards");
        for (expect, (idx, rec)) in seen.iter().enumerate() {
            assert_eq!(*idx, expect);
            assert_eq!(rec, &local.records[*idx], "{shards} shards, index {idx}");
        }
    }
}
