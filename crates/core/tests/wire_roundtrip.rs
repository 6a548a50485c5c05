//! The wire-format proof obligations: for every schema-3 wire type,
//! `encode → decode → encode` is a *fixed point* (byte-identical second
//! encoding, structurally identical decode), and the decoder is *total* —
//! truncated, corrupted, wrong-schema, mis-kinded, or adversarially
//! nested input produces a typed [`WireError`], never a panic.
//!
//! Case counts are capped for CI-friendly wall time; override with
//! `PROPTEST_CASES` for a deep run.

use proptest::collection::vec;
use proptest::prelude::*;
use rv_core::batch::{RunRecord, StatsAccumulator};
use rv_core::shard::{CampaignSpec, SolverSpec, UnitDone, UnitTask, UnitTelemetry};
use rv_core::wire::{self, Line, Value, WireError, MAX_DEPTH};
use rv_model::{Classification, TargetClass};

const CLASSES: [Classification; 8] = [
    Classification::Trivial,
    Classification::Type1,
    Classification::Type2,
    Classification::Type3,
    Classification::Type4,
    Classification::ExceptionS1,
    Classification::ExceptionS2,
    Classification::Infeasible,
];

/// Synthetic records over coarse grids (ties on purpose) plus the
/// non-finite specials the sentinel encoding must carry losslessly.
fn record_strategy() -> impl Strategy<Value = RunRecord> {
    (
        0usize..CLASSES.len(),
        any::<bool>(),
        prop_oneof![
            Just(None),
            (0i64..200).prop_map(|g| Some(g as f64 / 8.0)),
            Just(Some(f64::NAN)),
            Just(Some(f64::INFINITY)),
        ],
        any::<u64>(),
        prop_oneof![
            (0i64..100).prop_map(|g| g as f64 / 16.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
        ],
        prop_oneof![(1i64..8).prop_map(|g| g as f64), Just(0.0)],
    )
        .prop_map(|(class_idx, met, time, segments, min_dist, radius)| {
            let class = CLASSES[class_idx];
            RunRecord {
                class,
                feasible: class.feasible(),
                met,
                time,
                segments,
                min_dist,
                radius,
            }
        })
}

fn campaign_strategy() -> impl Strategy<Value = CampaignSpec> {
    let all = TargetClass::all();
    (any::<bool>(), vec(0usize..all.len(), 1..5), any::<u64>()).prop_map(
        move |(aur, class_idx, segments)| CampaignSpec {
            solver: if aur {
                SolverSpec::Aur
            } else {
                SolverSpec::Dedicated
            },
            classes: class_idx.into_iter().map(|i| all[i]).collect(),
            segments,
        },
    )
}

/// Bitwise record equality: `PartialEq` conflates NaN (`NaN != NaN`) and
/// `-0.0 == 0.0`, so compare through the Debug rendering, which
/// distinguishes both.
fn assert_records_bitwise_eq(a: &RunRecord, b: &RunRecord) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn record_encoding_is_a_fixed_point(index in any::<usize>(), rec in record_strategy()) {
        let line = wire::encode_record(index, &rec);
        let (index2, rec2) = wire::decode_record(&line).expect("own encoding must decode");
        prop_assert_eq!(index2, index);
        assert_records_bitwise_eq(&rec2, &rec);
        prop_assert_eq!(wire::encode_record(index2, &rec2), line, "second encode must be byte-identical");
        // The generic line dispatcher agrees.
        match wire::decode_line(&line).unwrap() {
            Line::Record { index: i, record } => {
                prop_assert_eq!(i, index);
                assert_records_bitwise_eq(&record, &rec);
            }
            other => prop_assert!(false, "wrong kind: {:?}", other),
        }
    }

    #[test]
    fn accumulator_encoding_is_a_fixed_point(records in vec(record_strategy(), 0..50)) {
        // No accumulator crosses the wire: a driver folds the records it
        // decoded. That fold must finish into the same stats, down to the
        // report bytes, as the fold of the records the worker encoded.
        let mut decoded = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let (_, rec) = wire::decode_record(&wire::encode_record(i, r))
                .expect("own encoding must decode");
            decoded.push(rec);
        }
        let a = StatsAccumulator::of(&records).finish();
        let b = StatsAccumulator::of(&decoded).finish();
        prop_assert_eq!(format!("{b:?}"), format!("{a:?}"));
        prop_assert_eq!(b.to_json(), a.to_json());
        prop_assert_eq!(wire::encode_campaign_report(&b), wire::encode_campaign_report(&a));
    }

    #[test]
    fn acc_lines_are_typed_retired_refusals(records in vec(record_strategy(), 0..30)) {
        // The retired standalone accumulator line, in the shape its
        // encoder wrote: a typed refusal naming the kind.
        let times: Vec<String> = records
            .iter()
            .filter_map(|r| r.time)
            .map(wire::float)
            .collect();
        let segments: Vec<String> = records.iter().map(|r| r.segments.to_string()).collect();
        let line = format!(
            "{{\"schema\": 3, \"kind\": \"acc\", \"acc\": {{\"n\": {}, \"met\": 0, \
             \"infeasible\": 0, \"times\": [{}], \"segments\": [{}], \"min_ratio\": \"inf\", \
             \"buckets\": []}}}}",
            records.len(),
            times.join(", "),
            segments.join(", "),
        );
        prop_assert!(Value::parse(&line).is_ok(), "{}", line);
        let err = wire::decode_line(&line).unwrap_err();
        prop_assert_eq!(&err, &WireError::Retired { kind: "acc" }, "{}", line);
        prop_assert!(err.to_string().contains("acc"), "{}", err);
    }

    #[test]
    fn class_stats_lines_are_typed_retired_refusals(
        class_idx in 0usize..CLASSES.len(),
        n in any::<usize>(),
        met in any::<usize>(),
        median in prop_oneof![
            Just(None),
            (0i64..100).prop_map(|g| Some(g as f64 / 4.0)),
            Just(Some(f64::NAN)),
        ],
    ) {
        // The retired per-class line, in the shape its encoder wrote.
        let line = format!(
            "{{\"schema\": 3, \"kind\": \"class_stats\", \"class\": \"{}\", \"n\": {n}, \
             \"met\": {met}, \"median_time\": {}}}",
            CLASSES[class_idx].name(),
            wire::opt_float(median),
        );
        prop_assert!(Value::parse(&line).is_ok(), "{}", line);
        let err = wire::decode_line(&line).unwrap_err();
        prop_assert_eq!(&err, &WireError::Retired { kind: "class_stats" }, "{}", line);
        prop_assert!(err.to_string().contains("class_stats"), "{}", err);
        // A retired kind with a wrong schema is still a schema error first.
        let old_schema = line.replace("\"schema\": 3", "\"schema\": 2");
        let schema_err = matches!(wire::decode_line(&old_schema), Err(WireError::Schema { .. }));
        prop_assert!(schema_err);
    }

    #[test]
    fn shard_spec_lines_are_typed_retired_refusals(
        campaign in campaign_strategy(),
        seed in any::<u64>(),
        start in 0usize..1_000_000,
        len in 0usize..1_000_000,
        shard_id in any::<u32>(),
    ) {
        // The retired one-shot work order, byte-for-byte as its drivers
        // emitted it: decoding is a typed refusal naming the kind, never
        // a panic and never a silent misparse as a session opener.
        let line = wire::encode_campaign_spec(&campaign, seed).replace(
            "\"kind\": \"campaign_spec\", \"seed\"",
            &format!(
                "\"kind\": \"shard_spec\", \"shard_id\": {shard_id}, \"seed\""
            ),
        ).replace(
            ", \"campaign\"",
            &format!(", \"start\": {start}, \"end\": {}, \"campaign\"", start + len),
        );
        let err = wire::decode_line(&line).unwrap_err();
        prop_assert_eq!(&err, &WireError::Retired { kind: "shard_spec" }, "{}", line);
        prop_assert!(err.to_string().contains("shard_spec"), "{}", err);
        let kind_err = matches!(
            wire::decode_campaign_spec(&line),
            Err(WireError::Kind { .. })
        );
        prop_assert!(kind_err);
        // A retired kind with a wrong schema is still a schema error first.
        let old_schema = line.replace("\"schema\": 3", "\"schema\": 2");
        let schema_err = matches!(
            wire::decode_line(&old_schema),
            Err(WireError::Schema { .. })
        );
        prop_assert!(schema_err);
    }

    #[test]
    fn shard_result_lines_are_typed_retired_refusals(
        shard_id in any::<u32>(),
        start in any::<usize>(),
    ) {
        // The retired one-shot answer's header: a typed refusal, never a
        // misparse as a unit answer.
        let line = wire::encode_unit_done(&UnitDone { task_id: shard_id, start })
            .replace("\"unit_done\", \"task_id\"", "\"shard_result\", \"shard_id\"");
        let err = wire::decode_line(&line).unwrap_err();
        prop_assert_eq!(&err, &WireError::Retired { kind: "shard_result" }, "{}", line);
        prop_assert!(err.to_string().contains("shard_result"), "{}", err);
        let kind_err = matches!(wire::decode_unit_done(&line), Err(WireError::Kind { .. }));
        prop_assert!(kind_err);
    }

    #[test]
    fn campaign_spec_encoding_is_a_fixed_point(
        campaign in campaign_strategy(),
        seed in any::<u64>(),
    ) {
        let line = wire::encode_campaign_spec(&campaign, seed);
        let (campaign2, seed2) = wire::decode_campaign_spec(&line).expect("own encoding must decode");
        prop_assert_eq!(&campaign2, &campaign);
        prop_assert_eq!(seed2, seed);
        prop_assert_eq!(wire::encode_campaign_spec(&campaign2, seed2), line);
        match wire::decode_line(&line).unwrap() {
            Line::CampaignSpec { spec, seed: s } => {
                prop_assert_eq!(&spec, &campaign);
                prop_assert_eq!(s, seed);
            }
            other => prop_assert!(false, "wrong kind: {:?}", other),
        }
    }

    #[test]
    fn task_encoding_is_a_fixed_point(
        task_id in any::<u32>(),
        attempt in any::<u32>(),
        start in 0usize..1_000_000,
        len in 0usize..1_000_000,
    ) {
        let task = UnitTask { task_id, attempt, range: start..start + len };
        let line = wire::encode_task(&task);
        let task2 = wire::decode_task(&line).expect("own encoding must decode");
        prop_assert_eq!(&task2, &task);
        prop_assert_eq!(wire::encode_task(&task2), line);
        prop_assert_eq!(wire::decode_line(&line).unwrap(), Line::Task(task));
    }

    #[test]
    fn unit_telemetry_encoding_is_a_fixed_point(
        task_id in any::<u32>(),
        attempt in any::<u32>(),
        wall_ns in any::<u64>(),
    ) {
        let t = UnitTelemetry { task_id, attempt, wall_ns };
        let line = wire::encode_unit_telemetry(&t);
        let t2 = wire::decode_unit_telemetry(&line).expect("own encoding must decode");
        prop_assert_eq!(&t2, &t);
        prop_assert_eq!(wire::encode_unit_telemetry(&t2), line);
        prop_assert_eq!(wire::decode_line(&line).unwrap(), Line::UnitTelemetry(t));
    }

    #[test]
    fn unit_done_encoding_is_a_fixed_point(
        task_id in any::<u32>(),
        start in any::<usize>(),
    ) {
        let done = UnitDone { task_id, start };
        let line = wire::encode_unit_done(&done);
        let done2 = wire::decode_unit_done(&line).expect("own encoding must decode");
        prop_assert_eq!(&done2, &done);
        prop_assert_eq!(wire::encode_unit_done(&done2), line);
        prop_assert_eq!(wire::decode_line(&line).unwrap(), Line::UnitDone(done));
    }

    // ---- decoder totality ------------------------------------------------

    #[test]
    fn decoder_never_panics_on_junk(junk in vec(any::<char>(), 0..120)) {
        let text: String = junk.into_iter().collect();
        // Any outcome is fine; panicking is not.
        let _ = Value::parse(&text);
        let _ = wire::decode_line(&text);
        let _ = wire::decode_record(&text);
        let _ = wire::decode_campaign_spec(&text);
        let _ = wire::decode_task(&text);
        let _ = wire::decode_unit_telemetry(&text);
        let _ = wire::decode_unit_done(&text);
    }

    #[test]
    fn every_truncation_of_a_valid_line_is_a_typed_error(
        rec in record_strategy(),
        index in 0usize..1000,
    ) {
        let line = wire::encode_record(index, &rec);
        for cut in 0..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            let prefix = &line[..cut];
            let err = wire::decode_record(prefix).expect_err("strict prefix cannot decode");
            // A cut mid-value truncates; a cut between tokens leaves a
            // structurally incomplete object — both are typed, not panics.
            prop_assert!(
                matches!(err, WireError::Truncated { .. } | WireError::Syntax { .. }),
                "unexpected error for cut {}: {:?}", cut, err
            );
        }
    }

    #[test]
    fn single_byte_corruption_never_panics(
        rec in record_strategy(),
        pos_seed in any::<usize>(),
        replacement in any::<char>(),
    ) {
        let line = wire::encode_record(7, &rec);
        let chars: Vec<char> = line.chars().collect();
        let pos = pos_seed % chars.len();
        let mutated: String = chars
            .iter()
            .enumerate()
            .map(|(i, &c)| if i == pos { replacement } else { c })
            .collect();
        let _ = wire::decode_record(&mutated); // may or may not decode; must not panic
        let _ = wire::decode_line(&mutated);
    }
}

#[test]
fn wrong_schema_is_rejected_with_a_schema_error() {
    let rec = RunRecord {
        class: Classification::Type3,
        feasible: true,
        met: true,
        time: Some(1.5),
        segments: 12,
        min_dist: 0.5,
        radius: 1.0,
    };
    let line = wire::encode_record(0, &rec);
    for schema in ["2", "4", "0", "-1", "\"3\"", "null"] {
        let mutated = line.replace("\"schema\": 3", &format!("\"schema\": {schema}"));
        let err = wire::decode_record(&mutated).expect_err("foreign schema must be rejected");
        assert!(matches!(err, WireError::Schema { .. }), "{schema}: {err:?}");
        assert!(
            matches!(wire::decode_line(&mutated), Err(WireError::Schema { .. })),
            "{schema}"
        );
    }
    let headerless = line.replace("\"schema\": 3, ", "");
    assert_eq!(
        wire::decode_record(&headerless),
        Err(WireError::Schema {
            found: "missing".into()
        })
    );
}

#[test]
fn missing_and_mistyped_fields_are_field_errors() {
    let rec = RunRecord {
        class: Classification::Type1,
        feasible: true,
        met: false,
        time: None,
        segments: 3,
        min_dist: 2.0,
        radius: 1.0,
    };
    let line = wire::encode_record(5, &rec);
    let missing = line.replace("\"met\": false, ", "");
    assert!(matches!(
        wire::decode_record(&missing),
        Err(WireError::Field { field: "met", .. })
    ));
    let mistyped = line.replace("\"segments\": 3", "\"segments\": -3");
    assert!(matches!(
        wire::decode_record(&mistyped),
        Err(WireError::Field {
            field: "segments",
            ..
        })
    ));
    let fractional = line.replace("\"index\": 5", "\"index\": 5.5");
    assert!(matches!(
        wire::decode_record(&fractional),
        Err(WireError::Field { field: "index", .. })
    ));
    let bad_class = line.replace("type 1", "type 99");
    assert!(matches!(
        wire::decode_record(&bad_class),
        Err(WireError::Field { field: "class", .. })
    ));
}

#[test]
fn adversarial_nesting_is_depth_limited_not_a_stack_overflow() {
    for text in [
        "[".repeat(10_000),
        "{\"a\":".repeat(10_000),
        format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        ),
    ] {
        let err = Value::parse(&text).expect_err("too deep");
        assert!(matches!(err, WireError::TooDeep { .. }), "{err:?}");
    }
    // Exactly at the limit still parses.
    let ok = format!(
        "{}1{}",
        "[".repeat(MAX_DEPTH - 1),
        "]".repeat(MAX_DEPTH - 1)
    );
    assert!(Value::parse(&ok).is_ok());
}

#[test]
fn empty_class_lists_are_rejected_not_panicking() {
    let spec = CampaignSpec::new(SolverSpec::Aur, vec![TargetClass::Type3], 1000);
    let line = wire::encode_campaign_spec(&spec, 1);
    let empty = line.replace("[\"type3\"]", "[]");
    assert!(matches!(
        wire::decode_campaign_spec(&empty),
        Err(WireError::Field {
            field: "classes",
            ..
        })
    ));
    // Task lines reject inverted ranges.
    let task = UnitTask {
        task_id: 0,
        attempt: 0,
        range: 0..4,
    };
    let inverted =
        wire::encode_task(&task).replace("\"start\": 0, \"end\": 4", "\"start\": 4, \"end\": 0");
    assert!(matches!(
        wire::decode_task(&inverted),
        Err(WireError::Field { field: "end", .. })
    ));
}

#[test]
fn oversized_shard_ids_are_field_errors_not_truncations() {
    // Regression: `as u32` would have decoded 2^32 as unit 0, letting a
    // corrupted unit_done impersonate unit 0 past the gather check.
    let task = UnitTask {
        task_id: 0,
        attempt: 0,
        range: 0..4,
    };
    let line = wire::encode_task(&task).replace("\"task_id\": 0", "\"task_id\": 4294967296");
    assert!(matches!(
        wire::decode_task(&line),
        Err(WireError::Field {
            field: "task_id",
            ..
        })
    ));
    let done = UnitDone {
        task_id: 0,
        start: 0,
    };
    let line = wire::encode_unit_done(&done).replace("\"task_id\": 0", "\"task_id\": 4294967296");
    assert!(matches!(
        wire::decode_unit_done(&line),
        Err(WireError::Field {
            field: "task_id",
            ..
        })
    ));
}

#[test]
fn legacy_unit_done_with_an_acc_field_decodes_to_its_identity() {
    // A `unit_done` line as older builds wrote it, folded accumulator
    // and all: the `acc` field is ignored, never read or checked.
    let legacy = "{\"schema\": 3, \"kind\": \"unit_done\", \"task_id\": 4, \"start\": 512, \
         \"acc\": {\"n\": 2, \"met\": 1, \"infeasible\": 0, \"times\": [1.5], \
         \"segments\": [42, 7], \"min_ratio\": \"inf\", \"buckets\": [[0, 0, []], \
         [0, 0, []], [0, 0, []], [2, 1, [1.5]], [0, 0, []], [0, 0, []], [0, 0, []], [0, 0, []]]}}";
    let want = UnitDone {
        task_id: 4,
        start: 512,
    };
    assert_eq!(wire::decode_unit_done(legacy), Ok(want.clone()));
    assert_eq!(wire::decode_line(legacy), Ok(Line::UnitDone(want.clone())));
    // An `acc` that contradicts everything is just as ignored.
    let contradicting = legacy.replace("\"n\": 2", "\"n\": 9000");
    assert_eq!(wire::decode_unit_done(&contradicting), Ok(want));
}

/// A valid record line the error corpus below mutates.
const CORPUS_BASE: &str = "{\"schema\": 3, \"kind\": \"record\", \"index\": 7, \
     \"class\": \"type 3\", \"feasible\": true, \"met\": true, \"time\": 1.5, \
     \"segments\": 12, \"min_dist\": 0.5, \"radius\": 1}";

fn corpus_line(from: &str, to: &str) -> String {
    assert!(
        CORPUS_BASE.contains(from),
        "corpus edit {from:?} must apply"
    );
    CORPUS_BASE.replacen(from, to, 1)
}

/// `CORPUS_BASE` cut right after `marker`, then `tail`: a truncated line.
fn cut_after(marker: &str, tail: &str) -> String {
    let at = CORPUS_BASE.find(marker).expect("corpus marker") + marker.len();
    format!("{}{tail}", &CORPUS_BASE[..at])
}

fn field_err(field: &'static str, what: &str) -> WireError {
    WireError::Field {
        field,
        what: what.into(),
    }
}

/// A decoder under test, returning the error it must raise.
type Decoder = fn(&str) -> WireError;

fn record_err(line: &str) -> WireError {
    wire::decode_record(line).expect_err("corpus lines are malformed")
}

fn line_err(line: &str) -> WireError {
    wire::decode_line(line).expect_err("corpus lines are malformed")
}

#[test]
fn error_corpus_identity_is_pinned() {
    assert_eq!(
        wire::encode_record(
            7,
            &RunRecord {
                class: Classification::Type3,
                feasible: true,
                met: true,
                time: Some(1.5),
                segments: 12,
                min_dist: 0.5,
                radius: 1.0,
            }
        ),
        CORPUS_BASE
    );
    // (label, malformed line, decoder, the exact error it must raise);
    // every expected value was computed by the owned-tree decoder.
    let cases: [(&str, String, Decoder, WireError); 31] = [
        (
            "escaped unknown class",
            corpus_line("\"type 3\"", "\"type \\\"3\\\"\""),
            record_err,
            field_err("class", "unknown classification \"type \\\"3\\\"\""),
        ),
        (
            "escaped key, mistyped value",
            corpus_line("\"feasible\": true", "\"fe\\u0061sible\": \"yes\""),
            record_err,
            field_err("feasible", "expected bool, found Str(\"yes\")"),
        ),
        (
            "mistyped bool, escaped text",
            corpus_line("\"met\": true", "\"met\": \"a\\\"b\\u00e9\\n\""),
            record_err,
            field_err("met", "expected bool, found Str(\"a\\\"bé\\n\")"),
        ),
        (
            "mistyped float, array",
            corpus_line("\"time\": 1.5", "\"time\": [1.5, null]"),
            record_err,
            field_err("time", "expected float, found Arr([Num(\"1.5\"), Null])"),
        ),
        (
            "mistyped number, object",
            corpus_line("\"segments\": 12", "\"segments\": {\"a\": -1e3}"),
            record_err,
            field_err(
                "segments",
                "expected number, found Obj([(\"a\", Num(\"-1e3\"))])",
            ),
        ),
        (
            "mistyped usize",
            corpus_line("\"index\": 7", "\"index\": 7.5"),
            record_err,
            field_err("index", "expected usize, found \"7.5\""),
        ),
        (
            "unknown float sentinel",
            corpus_line("\"min_dist\": 0.5", "\"min_dist\": \"-nan\""),
            record_err,
            field_err("min_dist", "expected float sentinel, found \"-nan\""),
        ),
        (
            "raw control byte",
            corpus_line("\"type 3\"", "\"type\u{1}3\""),
            record_err,
            WireError::Syntax {
                offset: 58,
                what: "raw control character in string",
            },
        ),
        (
            "raw control byte after an escape",
            corpus_line("\"type 3\"", "\"ty\\tpe\u{1f}\""),
            record_err,
            WireError::Syntax {
                offset: 60,
                what: "raw control character in string",
            },
        ),
        (
            "raw control byte after a multi-byte char",
            corpus_line("\"type 3\"", "\"t\u{ff}pe\n\""),
            record_err,
            WireError::Syntax {
                offset: 59,
                what: "raw control character in string",
            },
        ),
        (
            "raw control byte in a key",
            corpus_line("\"class\"", "\"cl\u{7}ass\""),
            record_err,
            WireError::Syntax {
                offset: 47,
                what: "raw control character in string",
            },
        ),
        (
            "lone high surrogate",
            corpus_line("\"type 3\"", "\"\\ud83d\""),
            record_err,
            WireError::Syntax {
                offset: 54,
                what: "lone high surrogate",
            },
        ),
        (
            "high surrogate, other escape",
            corpus_line("\"type 3\"", "\"\\ud83d\\n\""),
            record_err,
            WireError::Syntax {
                offset: 54,
                what: "lone high surrogate",
            },
        ),
        (
            "invalid surrogate pair",
            corpus_line("\"type 3\"", "\"\\ud83d\\u0041\""),
            record_err,
            WireError::Syntax {
                offset: 54,
                what: "invalid surrogate pair",
            },
        ),
        (
            "lone low surrogate",
            corpus_line("\"type 3\"", "\"\\udc00\""),
            record_err,
            WireError::Syntax {
                offset: 54,
                what: "invalid unicode escape",
            },
        ),
        (
            "bad hex digit",
            corpus_line("\"type 3\"", "\"\\u00zz\""),
            record_err,
            WireError::Syntax {
                offset: 58,
                what: "invalid \\u escape",
            },
        ),
        (
            "invalid escape",
            corpus_line("\"type 3\"", "\"type\\x3\""),
            record_err,
            WireError::Syntax {
                offset: 59,
                what: "invalid escape",
            },
        ),
        (
            "truncated inside a string",
            cut_after("\"class\": ", "\"typ"),
            record_err,
            WireError::Truncated { offset: 57 },
        ),
        (
            "truncated after a backslash",
            cut_after("\"class\": ", "\"type\\"),
            record_err,
            WireError::Truncated { offset: 59 },
        ),
        (
            "truncated inside a \\u escape",
            cut_after("\"class\": ", "\"\\u00"),
            record_err,
            WireError::Truncated { offset: 58 },
        ),
        (
            "truncated after a minus",
            cut_after("\"index\": ", "-"),
            record_err,
            WireError::Truncated { offset: 42 },
        ),
        (
            "truncated inside a fraction",
            cut_after("\"time\": ", "1."),
            record_err,
            WireError::Truncated { offset: 104 },
        ),
        (
            "truncated inside an exponent",
            cut_after("\"time\": ", "1e+"),
            record_err,
            WireError::Truncated { offset: 105 },
        ),
        (
            "leading zero",
            corpus_line("\"index\": 7", "\"index\": 07"),
            record_err,
            WireError::Syntax {
                offset: 41,
                what: "leading zero",
            },
        ),
        (
            "trailing data",
            format!("{CORPUS_BASE} x"),
            record_err,
            WireError::Trailing { offset: 153 },
        ),
        (
            "unknown class",
            corpus_line("\"type 3\"", "\"type 9\""),
            record_err,
            field_err("class", "unknown classification \"type 9\""),
        ),
        (
            "wrong kind",
            corpus_line("\"record\"", "\"acc\""),
            record_err,
            WireError::Kind {
                found: "acc".into(),
            },
        ),
        (
            "unknown kind",
            corpus_line("\"record\"", "\"rec\\u006frds\""),
            line_err,
            WireError::Kind {
                found: "records".into(),
            },
        ),
        (
            "retired kind",
            corpus_line("\"record\"", "\"shard_result\""),
            line_err,
            WireError::Retired {
                kind: "shard_result",
            },
        ),
        (
            "wrong schema",
            corpus_line("\"schema\": 3", "\"schema\": 3.0"),
            line_err,
            WireError::Schema {
                found: "3.0".into(),
            },
        ),
        (
            "string schema",
            corpus_line("\"schema\": 3", "\"schema\": \"3\""),
            line_err,
            WireError::Schema {
                found: "Str(\"3\")".into(),
            },
        ),
    ];
    for (label, line, decode, want) in cases {
        assert_eq!(decode(&line), want, "{label}: {line:?}");
    }
}
