//! Minimal hand-rolled JSON value rendering (the offline dependency set
//! has no serde). Used by the `to_json` methods on the batch types and by
//! the experiment artifact emitters; output is strict JSON (non-finite
//! floats become `null`, strings are escaped).

use std::fmt::Write as _;

/// Renders `s` as a JSON string literal (escaped, quoted).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal (escaped, quoted).
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a float as a JSON number, or `null` when non-finite.
pub fn f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display is valid JSON for finite f64.
        // rv-lint: allow(determinism) — this IS the canonical float
        // encoder the rule points everyone else at; `{}` on a finite
        // f64 is shortest-roundtrip and platform-independent.
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Renders an optional float as a JSON number or `null`.
pub fn opt_f64(v: Option<f64>) -> String {
    v.map(f64).unwrap_or_else(|| "null".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn floats_follow_strict_json() {
        assert_eq!(f64(1.5), "1.5");
        assert_eq!(f64(f64::INFINITY), "null");
        assert_eq!(f64(f64::NEG_INFINITY), "null");
        assert_eq!(f64(f64::NAN), "null");
        assert_eq!(f64(-0.0), "-0");
        assert_eq!(opt_f64(None), "null");
        assert_eq!(opt_f64(Some(0.25)), "0.25");
        assert_eq!(opt_f64(Some(f64::NAN)), "null");
    }

    #[test]
    fn degenerate_quantiles_never_emit_bare_non_finite_tokens() {
        // Regression: degenerate runs can push NaN/inf into the quantile
        // pools (a 0-radius ratio gives min_dist/r = inf or NaN; a NaN
        // meeting time sorts to the top via total_cmp and becomes
        // max_time). The artifact JSON must stay strict — `null`, never a
        // bare `NaN`/`inf` token, which JSON parsers reject.
        use crate::batch::{CampaignStats, RunRecord};
        use rv_model::Classification;
        let weird = RunRecord {
            class: Classification::Type3,
            feasible: true,
            met: true,
            time: Some(f64::NAN),
            segments: 10,
            min_dist: 1.0,
            radius: 0.0, // min_dist_over_r = inf
        };
        let stats = CampaignStats::of(std::slice::from_ref(&weird));
        for json in [stats.to_json(), weird.to_json()] {
            assert!(!json.contains("NaN"), "bare NaN leaked: {json}");
            assert!(!json.contains(": inf"), "bare inf leaked: {json}");
            // And it must actually parse as strict JSON.
            crate::wire::Value::parse(&json).expect("artifact must be strict JSON");
        }
        assert!(stats.to_json().contains("\"max_time\": null"));
        assert!(stats.to_json().contains("\"min_dist_over_r\": null"));
    }
}
