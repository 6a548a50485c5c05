//! Schema-3 wire format: one JSON object per line, hand-rolled both ways
//! (the offline dependency set has no serde), deterministic byte-for-byte.
//!
//! Every line is a single-line JSON object with a fixed key order and two
//! header fields: `"schema": 3` and a `"kind"` tag naming the payload.
//! The encodable kinds are
//!
//! | kind             | payload                                          |
//! |------------------|--------------------------------------------------|
//! | `record`         | one [`RunRecord`] plus its campaign index        |
//! | `campaign_spec`  | a [`CampaignSpec`] + seed (opens a pool session) |
//! | `task`           | a [`UnitTask`] (one pool work unit)              |
//! | `unit_telemetry` | a [`UnitTelemetry`] (per-unit wall time)         |
//! | `unit_done`      | a [`UnitDone`] (id and start: the unit's end)    |
//! | `request`        | a [`CampaignRequest`] (campaign-service ask)     |
//! | `campaign_report`| a [`CampaignStats`] summary (service answer)     |
//! | `error`          | an [`ErrorLine`] (typed service failure)         |
//!
//! The `campaign_spec`/`task`/`unit_telemetry`/`unit_done` kinds form the
//! worker session protocol of [`crate::exec::PoolExecutor`] (spec once,
//! then a task/answer stream — see `WIRE.md` for the session grammar).
//! No line carries folded statistics between processes: every reader
//! that holds a unit's records folds its [`crate::StatsAccumulator`]
//! from them. The retired kinds — the old one-shot worker protocol's two
//! and the standalone `acc` and `class_stats` lines — decode to a typed
//! [`WireError::Retired`] (`WIRE.md`, "Retired kinds"). The last three
//! kinds belong to the TCP campaign service (`rv-serve`): a client sends
//! `campaign_spec` + `request`, the server answers with streamed
//! `record`s and a final `campaign_report`, or an `error` line.
//!
//! Numbers are lossless: `u64`/`usize` are emitted as decimal integers and
//! re-parsed from the raw lexeme (never through `f64`), finite floats use
//! Rust's shortest-roundtrip `Display` (which re-parses to the identical
//! bits), and non-finite floats — which strict JSON cannot carry as bare
//! tokens — use the string sentinels `"inf"`, `"-inf"`, `"nan"`. Encoding
//! is therefore a *fixed point*: `encode(decode(encode(x))) == encode(x)`,
//! the property `wire_roundtrip` pins for every kind.
//!
//! Decoding is total: any input — truncated, corrupted, mis-typed, deeper
//! than [`MAX_DEPTH`], or from a different schema version — produces a
//! typed [`WireError`], never a panic. That makes the format safe to read
//! from subprocess pipes and untrusted files.
//!
//! Decoding borrows from the line instead of copying it, validating while
//! it scans (the principle of simdjson: Langdale & Lemire, "Parsing
//! Gigabytes of JSON per Second", 2019). A parsed [`Value`] keeps number
//! lexemes, keys and strings as slices of the input; only a string that
//! carries an escape is unescaped into an owned copy. Each object reserves
//! room for the widest payload in one allocation, so decoding a record
//! line allocates once. Encoders append to a single `String` (see
//! [`push_float`]), so encoding a record line allocates only its output.
//!
//! The normative specification — the full line grammar, the
//! `"inf"`/`"-inf"`/`"nan"` sentinels, and the worker stdin/stdout
//! protocol the executors drive (see [`crate::exec`]) — lives in
//! `WIRE.md` at the repository root.

use crate::batch::{CampaignStats, ClassStats, RunRecord, CLASS_ORDER};
use crate::json;
use crate::shard::{
    CampaignRequest, CampaignSpec, SolverSpec, TransportSpec, UnitDone, UnitTask, UnitTelemetry,
};
use rv_model::{Classification, TargetClass};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// The wire schema version emitted and accepted by this module.
pub const SCHEMA: u64 = 3;

/// `SCHEMA` as the number lexeme a decoded header must carry, so header
/// checks compare without formatting (pinned to `SCHEMA` by a unit test).
const SCHEMA_LEXEME: &str = "3";

/// Maximum JSON nesting depth the decoder accepts (guards the recursive
/// parser against stack exhaustion on adversarial input).
pub const MAX_DEPTH: usize = 64;

/// Pairs every parsed object reserves up front: the widest object any
/// kind encodes (a `campaign_report`'s stats, 11 keys), so a line of any
/// kind fills each object's pair buffer without growing it.
const OBJECT_PAIRS: usize = 11;

/// Bytes `encode_record` reserves: a record line with typical floats fits,
/// so the line is the encoder's only allocation.
const RECORD_LINE: usize = 256;

/// Typed decoding failure. Every malformed input maps to one of these —
/// the decoder has no panicking paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended in the middle of a JSON value.
    Truncated {
        /// Byte offset where the input ran out.
        offset: usize,
    },
    /// Structurally invalid JSON.
    Syntax {
        /// Byte offset of the offending character.
        offset: usize,
        /// What the parser expected or rejected.
        what: &'static str,
    },
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset where the limit tripped.
        offset: usize,
    },
    /// A complete JSON value was followed by more non-whitespace input.
    Trailing {
        /// Byte offset of the first trailing character.
        offset: usize,
    },
    /// The `"schema"` header is missing or names a different version.
    Schema {
        /// The schema value found (rendered), or `"missing"`.
        found: String,
    },
    /// The `"kind"` header is missing or names an unexpected payload.
    Kind {
        /// The kind found, or `"missing"`.
        found: String,
    },
    /// The `"kind"` header names a kind this schema no longer speaks:
    /// the one-shot worker protocol's work order and answer (replaced by
    /// sessions), and the standalone accumulator and per-class stats
    /// lines (stats are folded from records) — see `WIRE.md`, "Retired
    /// kinds".
    Retired {
        /// The retired kind.
        kind: &'static str,
    },
    /// A payload field is missing or has the wrong type/value.
    Field {
        /// The field name (dotted path for nested payloads).
        field: &'static str,
        /// What was wrong with it.
        what: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { offset } => write!(f, "truncated input at byte {offset}"),
            WireError::Syntax { offset, what } => write!(f, "bad JSON at byte {offset}: {what}"),
            WireError::TooDeep { offset } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {offset}")
            }
            WireError::Trailing { offset } => {
                write!(f, "trailing data after JSON value at byte {offset}")
            }
            WireError::Schema { found } => {
                write!(f, "wire schema mismatch: expected {SCHEMA}, found {found}")
            }
            WireError::Kind { found } => write!(f, "unexpected wire kind: {found}"),
            WireError::Retired { kind } => {
                write!(f, "retired wire kind {kind:?}")
            }
            WireError::Field { field, what } => write!(f, "field {field:?}: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A parsed JSON value, borrowing from the text it was parsed from.
/// Number lexemes are kept verbatim ([`Value::Num`] is the raw token) so
/// integers up to `u64::MAX` survive decoding without a lossy trip
/// through `f64`. Strings and keys borrow the input unless they carry an
/// escape, which is unescaped into an owned copy; either way the derived
/// `Debug` prints the unescaped text.
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw lexeme (e.g. `"-12.5e3"`).
    Num(&'a str),
    /// A string (unescaped).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, as key/value pairs in document order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Parses exactly one JSON value spanning the whole input
    /// (surrounding whitespace allowed, trailing data rejected).
    pub fn parse(text: &'a str) -> Result<Value<'a>, WireError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(WireError::Trailing { offset: p.pos });
        }
        Ok(v)
    }

    /// Looks up a key in an object (`None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, WireError> {
        if depth >= MAX_DEPTH {
            return Err(WireError::TooDeep { offset: self.pos });
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(WireError::Truncated { offset: self.pos }),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(WireError::Syntax {
                offset: self.pos,
                what: "expected a JSON value",
            }),
        }
    }

    fn literal(&mut self, lit: &'static str, val: Value<'a>) -> Result<Value<'a>, WireError> {
        let rest = &self.bytes[self.pos..];
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else if lit.as_bytes().starts_with(rest) {
            Err(WireError::Truncated {
                offset: self.bytes.len(),
            })
        } else {
            Err(WireError::Syntax {
                offset: self.pos,
                what: "invalid literal",
            })
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.bytes.get(self.pos) {
                None => return Err(WireError::Truncated { offset: self.pos }),
                Some(&c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(&c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(&c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                Some(_) => {
                    return Err(WireError::Syntax {
                        offset: self.pos,
                        what: "invalid \\u escape",
                    })
                }
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    /// A string starting at the opening quote under `pos`: borrowed from
    /// the input when it holds no escape and no control byte, else
    /// [`Parser::unescape`]d.
    fn string(&mut self) -> Result<Cow<'a, str>, WireError> {
        let open = self.pos;
        let mut end = open + 1;
        while let Some(&c) = self.bytes.get(end) {
            match c {
                b'"' => {
                    // Both ends sit on ASCII quotes, so the slice is on
                    // char boundaries; `get` keeps that unchecked claim
                    // from ever panicking.
                    if let Some(s) = self.text.get(open + 1..end) {
                        self.pos = end + 1;
                        return Ok(Cow::Borrowed(s));
                    }
                    break;
                }
                b'\\' => break,
                c if c < 0x20 => break,
                _ => end += 1,
            }
        }
        // An escape, a raw control byte or the end of the input: rescan
        // from the opening quote, so every error keeps its offset.
        self.unescape().map(Cow::Owned)
    }

    /// The unescaping string loop, from the opening quote under `pos`.
    fn unescape(&mut self) -> Result<String, WireError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(WireError::Truncated { offset: self.pos }),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = match self.bytes.get(self.pos) {
                        None => return Err(WireError::Truncated { offset: self.pos }),
                        Some(c) => *c,
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let start = self.pos - 2;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a low one must follow.
                                if self.bytes.get(self.pos) != Some(&b'\\') {
                                    if self.pos >= self.bytes.len() {
                                        return Err(WireError::Truncated { offset: self.pos });
                                    }
                                    return Err(WireError::Syntax {
                                        offset: start,
                                        what: "lone high surrogate",
                                    });
                                }
                                if self.bytes.get(self.pos + 1) != Some(&b'u') {
                                    return Err(WireError::Syntax {
                                        offset: start,
                                        what: "lone high surrogate",
                                    });
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(WireError::Syntax {
                                        offset: start,
                                        what: "invalid surrogate pair",
                                    });
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(ch) => out.push(ch),
                                None => {
                                    return Err(WireError::Syntax {
                                        offset: start,
                                        what: "invalid unicode escape",
                                    })
                                }
                            }
                        }
                        _ => {
                            return Err(WireError::Syntax {
                                offset: self.pos - 1,
                                what: "invalid escape",
                            })
                        }
                    }
                }
                Some(c) if *c < 0x20 => {
                    return Err(WireError::Syntax {
                        offset: self.pos,
                        what: "raw control character in string",
                    })
                }
                Some(_) => {
                    // Input is a &str, so pos always sits on a char
                    // boundary; if that invariant ever broke it would be
                    // a parser bug, surfaced here as a typed error
                    // rather than a panic.
                    let ch = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next());
                    let ch = match ch {
                        Some(ch) => ch,
                        None => {
                            return Err(WireError::Syntax {
                                offset: self.pos,
                                what: "malformed utf-8 sequence",
                            })
                        }
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value<'a>, WireError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return if self.pos >= self.bytes.len() {
                Err(WireError::Truncated { offset: self.pos })
            } else {
                Err(WireError::Syntax {
                    offset: self.pos,
                    what: "expected digits",
                })
            };
        }
        // Strict JSON: no leading zeros ("0" itself is fine).
        if int_digits > 1 && self.bytes[self.pos - int_digits] == b'0' {
            return Err(WireError::Syntax {
                offset: self.pos - int_digits,
                what: "leading zero",
            });
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return if self.pos >= self.bytes.len() {
                    Err(WireError::Truncated { offset: self.pos })
                } else {
                    Err(WireError::Syntax {
                        offset: self.pos,
                        what: "expected fraction digits",
                    })
                };
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return if self.pos >= self.bytes.len() {
                    Err(WireError::Truncated { offset: self.pos })
                } else {
                    Err(WireError::Syntax {
                        offset: self.pos,
                        what: "expected exponent digits",
                    })
                };
            }
        }
        Ok(Value::Num(&self.text[start..self.pos]))
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, WireError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                None => return Err(WireError::Truncated { offset: self.pos }),
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                Some(_) => {
                    return Err(WireError::Syntax {
                        offset: self.pos,
                        what: "expected ',' or ']'",
                    })
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value<'a>, WireError> {
        self.pos += 1; // '{'
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(Vec::new()));
        }
        let mut pairs = Vec::with_capacity(OBJECT_PAIRS);
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                None => return Err(WireError::Truncated { offset: self.pos }),
                Some(b'"') => {}
                Some(_) => {
                    return Err(WireError::Syntax {
                        offset: self.pos,
                        what: "expected object key",
                    })
                }
            }
            let key = self.string()?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                None => return Err(WireError::Truncated { offset: self.pos }),
                Some(b':') => self.pos += 1,
                Some(_) => {
                    return Err(WireError::Syntax {
                        offset: self.pos,
                        what: "expected ':'",
                    })
                }
            }
            pairs.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                None => return Err(WireError::Truncated { offset: self.pos }),
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                Some(_) => {
                    return Err(WireError::Syntax {
                        offset: self.pos,
                        what: "expected ',' or '}'",
                    })
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lossless float / integer helpers
// ---------------------------------------------------------------------------

/// Appends an `f64` as a wire token: finite values as shortest-roundtrip
/// JSON numbers, non-finite values as the string sentinels `"inf"`,
/// `"-inf"`, `"nan"` (strict JSON has no tokens for them; the sentinels
/// keep the encoding lossless where the schema-2 artifact form
/// [`json::f64`] collapses them to `null`).
pub fn push_float(out: &mut String, v: f64) {
    if v.is_finite() {
        // rv-lint: allow(determinism) — this IS a canonical float encoder:
        // `{}` on a finite f64 is Rust's shortest-roundtrip Grisu/Ryū
        // rendering, identical on every platform, and all wire output
        // funnels through here.
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// [`push_float`] into a fresh `String`.
pub fn float(v: f64) -> String {
    let mut out = String::new();
    push_float(&mut out, v);
    out
}

/// Appends an optional `f64`: `null` for `None`, else [`push_float`].
fn push_opt_float(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_float(out, v),
        None => out.push_str("null"),
    }
}

/// Renders an optional `f64`: `null` for `None`, else [`float`]. The
/// sentinels keep `Some(NAN)` distinguishable from `None`.
pub fn opt_float(v: Option<f64>) -> String {
    let mut out = String::new();
    push_opt_float(&mut out, v);
    out
}

fn field<'v, 'a>(obj: &'v Value<'a>, name: &'static str) -> Result<&'v Value<'a>, WireError> {
    obj.get(name).ok_or_else(|| WireError::Field {
        field: name,
        what: "missing".into(),
    })
}

fn get_bool(obj: &Value<'_>, name: &'static str) -> Result<bool, WireError> {
    match field(obj, name)? {
        Value::Bool(b) => Ok(*b),
        other => Err(WireError::Field {
            field: name,
            what: format!("expected bool, found {other:?}"),
        }),
    }
}

fn get_u64(obj: &Value<'_>, name: &'static str) -> Result<u64, WireError> {
    match field(obj, name)? {
        Value::Num(raw) => raw.parse().map_err(|_| WireError::Field {
            field: name,
            what: format!("expected u64, found {raw:?}"),
        }),
        other => Err(WireError::Field {
            field: name,
            what: format!("expected number, found {other:?}"),
        }),
    }
}

fn get_u32(obj: &Value<'_>, name: &'static str) -> Result<u32, WireError> {
    let wide = get_u64(obj, name)?;
    u32::try_from(wide).map_err(|_| WireError::Field {
        field: name,
        what: format!("{wide} exceeds u32"),
    })
}

fn get_usize(obj: &Value<'_>, name: &'static str) -> Result<usize, WireError> {
    match field(obj, name)? {
        Value::Num(raw) => raw.parse().map_err(|_| WireError::Field {
            field: name,
            what: format!("expected usize, found {raw:?}"),
        }),
        other => Err(WireError::Field {
            field: name,
            what: format!("expected number, found {other:?}"),
        }),
    }
}

fn get_str<'v>(obj: &'v Value<'_>, name: &'static str) -> Result<&'v str, WireError> {
    match field(obj, name)? {
        Value::Str(s) => Ok(s),
        other => Err(WireError::Field {
            field: name,
            what: format!("expected string, found {other:?}"),
        }),
    }
}

fn float_of(v: &Value<'_>, name: &'static str) -> Result<f64, WireError> {
    match v {
        Value::Num(raw) => raw.parse().map_err(|_| WireError::Field {
            field: name,
            what: format!("unparseable number {raw:?}"),
        }),
        Value::Str(s) => match s.as_ref() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(WireError::Field {
                field: name,
                what: format!("expected float sentinel, found {other:?}"),
            }),
        },
        other => Err(WireError::Field {
            field: name,
            what: format!("expected float, found {other:?}"),
        }),
    }
}

fn get_f64(obj: &Value<'_>, name: &'static str) -> Result<f64, WireError> {
    float_of(field(obj, name)?, name)
}

fn get_opt_f64(obj: &Value<'_>, name: &'static str) -> Result<Option<f64>, WireError> {
    match field(obj, name)? {
        Value::Null => Ok(None),
        other => float_of(other, name).map(Some),
    }
}

fn get_arr<'v, 'a>(obj: &'v Value<'a>, name: &'static str) -> Result<&'v [Value<'a>], WireError> {
    match field(obj, name)? {
        Value::Arr(items) => Ok(items),
        other => Err(WireError::Field {
            field: name,
            what: format!("expected array, found {other:?}"),
        }),
    }
}

fn get_classification(obj: &Value<'_>, name: &'static str) -> Result<Classification, WireError> {
    let s = get_str(obj, name)?;
    let found = CLASS_ORDER.into_iter().find(|c| c.name() == s);
    found.ok_or_else(|| WireError::Field {
        field: name,
        what: format!("unknown classification {s:?}"),
    })
}

/// Parses a line as a JSON object and checks the `"schema"`/`"kind"`
/// headers, returning the object for payload extraction.
fn header<'a>(line: &'a str, kind: &'static str) -> Result<Value<'a>, WireError> {
    let v = parse_headed(line)?;
    let found = get_str(&v, "kind")?;
    if found != kind {
        return Err(WireError::Kind {
            found: found.to_string(),
        });
    }
    Ok(v)
}

/// Parses a line and checks only the schema header (any kind).
fn parse_headed(line: &str) -> Result<Value<'_>, WireError> {
    let v = Value::parse(line)?;
    match v.get("schema") {
        Some(Value::Num(raw)) if *raw == SCHEMA_LEXEME => {}
        Some(other) => {
            let found = match other {
                Value::Num(raw) => raw.to_string(),
                other => format!("{other:?}"),
            };
            return Err(WireError::Schema { found });
        }
        None => {
            return Err(WireError::Schema {
                found: "missing".into(),
            })
        }
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// RunRecord
// ---------------------------------------------------------------------------

/// Encodes one campaign record (with its global campaign index) as a
/// `kind: "record"` line.
pub fn encode_record(index: usize, rec: &RunRecord) -> String {
    let mut out = String::with_capacity(RECORD_LINE);
    push_record(&mut out, index, rec);
    out
}

/// Appends [`encode_record`]'s line (without a newline) to `out`.
pub(crate) fn push_record(out: &mut String, index: usize, rec: &RunRecord) {
    let _ = write!(
        out,
        "{{\"schema\": {SCHEMA}, \"kind\": \"record\", \"index\": {index}, \"class\": "
    );
    json::push_string(out, rec.class.name());
    let _ = write!(
        out,
        ", \"feasible\": {}, \"met\": {}, \"time\": ",
        rec.feasible, rec.met
    );
    push_opt_float(out, rec.time);
    let _ = write!(out, ", \"segments\": {}, \"min_dist\": ", rec.segments);
    push_float(out, rec.min_dist);
    out.push_str(", \"radius\": ");
    push_float(out, rec.radius);
    out.push('}');
}

fn record_of(v: &Value<'_>) -> Result<(usize, RunRecord), WireError> {
    Ok((
        get_usize(v, "index")?,
        RunRecord {
            class: get_classification(v, "class")?,
            feasible: get_bool(v, "feasible")?,
            met: get_bool(v, "met")?,
            time: get_opt_f64(v, "time")?,
            segments: get_u64(v, "segments")?,
            min_dist: get_f64(v, "min_dist")?,
            radius: get_f64(v, "radius")?,
        },
    ))
}

/// Decodes a `kind: "record"` line back into `(index, record)`.
pub fn decode_record(line: &str) -> Result<(usize, RunRecord), WireError> {
    record_of(&header(line, "record")?)
}

// ---------------------------------------------------------------------------
// Campaign bodies
// ---------------------------------------------------------------------------

fn campaign_body(spec: &CampaignSpec) -> String {
    let classes: Vec<String> = spec
        .classes
        .iter()
        .map(|c| json::string(c.name()))
        .collect();
    format!(
        "{{\"solver\": {}, \"segments\": {}, \"classes\": [{}]}}",
        json::string(spec.solver.name()),
        spec.segments,
        classes.join(", "),
    )
}

fn campaign_of(v: &Value<'_>) -> Result<CampaignSpec, WireError> {
    let solver_name = get_str(v, "solver")?;
    let solver = SolverSpec::from_name(solver_name).map_err(|e| WireError::Field {
        field: "solver",
        what: e.to_string(),
    })?;
    let classes = get_arr(v, "classes")?
        .iter()
        .map(|item| match item {
            Value::Str(s) => TargetClass::from_name(s).ok_or_else(|| WireError::Field {
                field: "classes",
                what: format!("unknown target class {s:?}"),
            }),
            other => Err(WireError::Field {
                field: "classes",
                what: format!("expected string, found {other:?}"),
            }),
        })
        .collect::<Result<Vec<TargetClass>, WireError>>()?;
    if classes.is_empty() {
        return Err(WireError::Field {
            field: "classes",
            what: "must be non-empty".into(),
        });
    }
    Ok(CampaignSpec {
        solver,
        segments: get_u64(v, "segments")?,
        classes,
    })
}

// ---------------------------------------------------------------------------
// Pool session: CampaignSpec / UnitTask / UnitTelemetry / UnitDone
// ---------------------------------------------------------------------------

/// Encodes the session opener of the persistent-worker protocol — the
/// campaign spec plus seed a pool driver writes once per worker session
/// (every subsequent `task` line executes against it).
pub fn encode_campaign_spec(spec: &CampaignSpec, seed: u64) -> String {
    format!(
        "{{\"schema\": {SCHEMA}, \"kind\": \"campaign_spec\", \"seed\": {seed}, \
         \"campaign\": {}}}",
        campaign_body(spec),
    )
}

/// Decodes a `kind: "campaign_spec"` line back into `(spec, seed)`.
pub fn decode_campaign_spec(line: &str) -> Result<(CampaignSpec, u64), WireError> {
    campaign_spec_of(&header(line, "campaign_spec")?)
}

fn campaign_spec_of(v: &Value<'_>) -> Result<(CampaignSpec, u64), WireError> {
    Ok((campaign_of(field(v, "campaign")?)?, get_u64(v, "seed")?))
}

/// Encodes one pool work unit as a `kind: "task"` line — what the driver
/// writes to a session worker for each unit it steals off the queue.
pub fn encode_task(task: &UnitTask) -> String {
    format!(
        "{{\"schema\": {SCHEMA}, \"kind\": \"task\", \"task_id\": {}, \
         \"attempt\": {}, \"start\": {}, \"end\": {}}}",
        task.task_id, task.attempt, task.range.start, task.range.end,
    )
}

/// Decodes a `kind: "task"` line.
pub fn decode_task(line: &str) -> Result<UnitTask, WireError> {
    task_of(&header(line, "task")?)
}

fn task_of(v: &Value<'_>) -> Result<UnitTask, WireError> {
    let start = get_usize(v, "start")?;
    let end = get_usize(v, "end")?;
    if end < start {
        return Err(WireError::Field {
            field: "end",
            what: format!("range end {end} before start {start}"),
        });
    }
    Ok(UnitTask {
        task_id: get_u32(v, "task_id")?,
        attempt: get_u32(v, "attempt")?,
        range: start..end,
    })
}

/// Encodes a per-unit telemetry report as a `kind: "unit_telemetry"`
/// line — wall time and attempt count, a side channel that never feeds
/// the campaign report.
pub fn encode_unit_telemetry(t: &UnitTelemetry) -> String {
    format!(
        "{{\"schema\": {SCHEMA}, \"kind\": \"unit_telemetry\", \"task_id\": {}, \
         \"attempt\": {}, \"wall_ns\": {}}}",
        t.task_id, t.attempt, t.wall_ns,
    )
}

/// Decodes a `kind: "unit_telemetry"` line.
pub fn decode_unit_telemetry(line: &str) -> Result<UnitTelemetry, WireError> {
    unit_telemetry_of(&header(line, "unit_telemetry")?)
}

fn unit_telemetry_of(v: &Value<'_>) -> Result<UnitTelemetry, WireError> {
    Ok(UnitTelemetry {
        task_id: get_u32(v, "task_id")?,
        attempt: get_u32(v, "attempt")?,
        wall_ns: get_u64(v, "wall_ns")?,
    })
}

/// Encodes a unit's end marker as a `kind: "unit_done"` line — the last
/// line a session worker writes for each unit.
pub fn encode_unit_done(done: &UnitDone) -> String {
    let mut out = String::new();
    push_unit_done(&mut out, done.task_id, done.start);
    out
}

/// Appends [`encode_unit_done`]'s line (without a newline) for the unit
/// `task_id` starting at `start` to `out`.
pub(crate) fn push_unit_done(out: &mut String, task_id: u32, start: usize) {
    let _ = write!(
        out,
        "{{\"schema\": {SCHEMA}, \"kind\": \"unit_done\", \"task_id\": {task_id}, \
         \"start\": {start}}}"
    );
}

/// Decodes a `kind: "unit_done"` line. Any other key is ignored: lines
/// from older builds carry the unit's folded accumulator as `acc`, which
/// the reader never needs — it folds the unit's records itself.
pub fn decode_unit_done(line: &str) -> Result<UnitDone, WireError> {
    unit_done_of(&header(line, "unit_done")?)
}

fn unit_done_of(v: &Value<'_>) -> Result<UnitDone, WireError> {
    Ok(UnitDone {
        task_id: get_u32(v, "task_id")?,
        start: get_usize(v, "start")?,
    })
}

// ---------------------------------------------------------------------------
// Campaign service: CampaignRequest / CampaignStats / ErrorLine
// ---------------------------------------------------------------------------

/// Encodes a campaign-service request as a `kind: "request"` line — what
/// a client sends right after the `campaign_spec` line that opens (or
/// re-keys) a service session.
pub fn encode_request(req: &CampaignRequest) -> String {
    let cache = match &req.cache {
        Some(name) => json::string(name),
        None => "null".to_string(),
    };
    format!(
        "{{\"schema\": {SCHEMA}, \"kind\": \"request\", \"n\": {}, \
         \"transport\": {}, \"workers\": {}, \"unit\": {}, \"retries\": {}, \
         \"cache\": {}}}",
        req.n,
        json::string(req.transport.name()),
        req.workers,
        req.unit,
        req.retries,
        cache,
    )
}

/// Decodes a `kind: "request"` line. `cache` may be a string (an
/// opaque cache name the *server* resolves under its configured root —
/// never a filesystem path), `null`, or absent entirely (requests from
/// pre-cache clients) — the last two both mean "uncached". Name
/// validation is the server's job, not the decoder's: the wire layer
/// stays a pure codec.
pub fn decode_request(line: &str) -> Result<CampaignRequest, WireError> {
    request_of(&header(line, "request")?)
}

fn request_of(v: &Value<'_>) -> Result<CampaignRequest, WireError> {
    let transport =
        TransportSpec::from_name(get_str(v, "transport")?).map_err(|e| WireError::Field {
            field: "transport",
            what: e.to_string(),
        })?;
    let cache = match v.get("cache") {
        None | Some(Value::Null) => None,
        Some(Value::Str(name)) => Some(name.to_string()),
        Some(other) => {
            return Err(WireError::Field {
                field: "cache",
                what: format!("expected string or null, found {other:?}"),
            })
        }
    };
    Ok(CampaignRequest {
        n: get_usize(v, "n")?,
        transport,
        workers: get_usize(v, "workers")?,
        unit: get_usize(v, "unit")?,
        retries: get_u32(v, "retries")?,
        cache,
    })
}

/// Reads one per-class breakdown row of a `campaign_report`'s
/// `per_class` array.
fn class_stats_of(v: &Value<'_>) -> Result<ClassStats, WireError> {
    Ok(ClassStats {
        class: get_classification(v, "class")?,
        n: get_usize(v, "n")?,
        met: get_usize(v, "met")?,
        median_time: get_opt_f64(v, "median_time")?,
    })
}

fn stats_of(v: &Value<'_>) -> Result<CampaignStats, WireError> {
    let per_class = get_arr(v, "per_class")?
        .iter()
        .map(class_stats_of)
        .collect::<Result<Vec<ClassStats>, WireError>>()?;
    let stats = CampaignStats {
        n: get_usize(v, "n")?,
        met: get_usize(v, "met")?,
        infeasible: get_usize(v, "infeasible")?,
        median_time: get_opt_f64(v, "median_time")?,
        p90_time: get_opt_f64(v, "p90_time")?,
        max_time: get_opt_f64(v, "max_time")?,
        median_segments: get_u64(v, "median_segments")?,
        p90_segments: get_u64(v, "p90_segments")?,
        max_segments: get_u64(v, "max_segments")?,
        min_dist_over_r: get_f64(v, "min_dist_over_r")?,
        per_class,
    };
    // A corrupted-but-well-formed report must not silently misreport
    // its own counts.
    let inconsistent = stats.met > stats.n
        || stats.infeasible > stats.n
        || stats.per_class.iter().map(|cs| cs.n).sum::<usize>() > stats.n
        || stats.per_class.iter().any(|cs| cs.met > cs.n);
    if inconsistent {
        return Err(WireError::Field {
            field: "stats",
            what: "internally inconsistent report (counts do not reconcile)".into(),
        });
    }
    Ok(stats)
}

/// Encodes a finished campaign's summary statistics as a
/// `kind: "campaign_report"` line — the last line a campaign server
/// writes for a successful request. The float sentinels keep the payload
/// lossless (e.g. `min_dist_over_r` is `inf` for an empty campaign), so
/// the decoded [`CampaignStats`] renders the byte-identical
/// [`CampaignStats::to_json`] artifact client-side.
pub fn encode_campaign_report(stats: &CampaignStats) -> String {
    format!(
        "{{\"schema\": {SCHEMA}, \"kind\": \"campaign_report\", \"stats\": {}}}",
        stats.json_with(float, opt_float),
    )
}

/// Decodes a `kind: "campaign_report"` line.
pub fn decode_campaign_report(line: &str) -> Result<CampaignStats, WireError> {
    campaign_report_of(&header(line, "campaign_report")?)
}

fn campaign_report_of(v: &Value<'_>) -> Result<CampaignStats, WireError> {
    stats_of(field(v, "stats")?)
}

/// Machine-readable category of a campaign-service failure. The code is
/// what clients and tests dispatch on; the accompanying message is for
/// humans only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The server is at its concurrent-campaign limit; retry later.
    Busy,
    /// A line failed schema-3 decoding ([`WireError`] detail in the
    /// message).
    Wire,
    /// The line sequence violated the session grammar (e.g. missing
    /// `request` line, binary junk, truncated final line).
    Protocol,
    /// A partial line stalled past the server's read timeout
    /// (slow-loris defense).
    Timeout,
    /// A line exceeded the server's size cap before its newline arrived.
    Oversized,
    /// Campaign execution failed ([`crate::exec::ExecError`] detail in
    /// the message).
    Exec,
    /// The server is draining for shutdown and admits no new campaigns.
    Shutdown,
    /// The request named a transport this server cannot provide (e.g.
    /// `pool` with no worker binary configured).
    Unsupported,
}

impl ErrorCode {
    /// Every valid wire name, in declaration order.
    pub const NAMES: [&'static str; 8] = [
        "busy",
        "wire",
        "protocol",
        "timeout",
        "oversized",
        "exec",
        "shutdown",
        "unsupported",
    ];

    /// Stable wire name (round-trips through [`ErrorCode::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Wire => "wire",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Exec => "exec",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Unsupported => "unsupported",
        }
    }

    /// Parses a wire name back (exact match; codes are lowercase).
    pub fn from_name(name: &str) -> Option<ErrorCode> {
        match name {
            "busy" => Some(ErrorCode::Busy),
            "wire" => Some(ErrorCode::Wire),
            "protocol" => Some(ErrorCode::Protocol),
            "timeout" => Some(ErrorCode::Timeout),
            "oversized" => Some(ErrorCode::Oversized),
            "exec" => Some(ErrorCode::Exec),
            "shutdown" => Some(ErrorCode::Shutdown),
            "unsupported" => Some(ErrorCode::Unsupported),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed campaign-service failure: the terminal line of a session that
/// cannot (or may not) continue. Always followed by the server closing
/// the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorLine {
    /// What went wrong, as a closed machine-readable set.
    pub code: ErrorCode,
    /// Human-readable detail (never needed for dispatch).
    pub message: String,
}

impl ErrorLine {
    /// Builds an error line from a code and anything displayable.
    pub fn new(code: ErrorCode, message: impl fmt::Display) -> ErrorLine {
        ErrorLine {
            code,
            message: message.to_string(),
        }
    }
}

impl fmt::Display for ErrorLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

impl std::error::Error for ErrorLine {}

/// Encodes a typed service failure as a `kind: "error"` line.
pub fn encode_error(err: &ErrorLine) -> String {
    format!(
        "{{\"schema\": {SCHEMA}, \"kind\": \"error\", \"code\": {}, \"message\": {}}}",
        json::string(err.code.name()),
        json::string(&err.message),
    )
}

/// Decodes a `kind: "error"` line.
pub fn decode_error(line: &str) -> Result<ErrorLine, WireError> {
    error_of(&header(line, "error")?)
}

fn error_of(v: &Value<'_>) -> Result<ErrorLine, WireError> {
    let code_name = get_str(v, "code")?;
    let code = ErrorCode::from_name(code_name).ok_or_else(|| WireError::Field {
        field: "code",
        what: format!("unknown error code {code_name:?}"),
    })?;
    Ok(ErrorLine {
        code,
        message: get_str(v, "message")?.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Stream dispatch
// ---------------------------------------------------------------------------

/// One decoded wire line, dispatched on its `"kind"` header. This is what
/// stream consumers (the pool driver reading worker stdout)
/// use; the per-kind decoders are for callers that already know the kind.
#[derive(Clone, Debug, PartialEq)]
pub enum Line {
    /// A streamed campaign record with its global index.
    Record {
        /// Global campaign index of the record.
        index: usize,
        /// The record itself.
        record: RunRecord,
    },
    /// A pool session opener: campaign spec plus seed.
    CampaignSpec {
        /// The campaign every subsequent task executes against.
        spec: CampaignSpec,
        /// The campaign seed.
        seed: u64,
    },
    /// One pool work unit.
    Task(UnitTask),
    /// A unit's telemetry report.
    UnitTelemetry(UnitTelemetry),
    /// A unit's gathered output.
    UnitDone(UnitDone),
    /// A campaign-service request (follows a session's `campaign_spec`).
    Request(CampaignRequest),
    /// A finished campaign's summary statistics.
    CampaignReport(CampaignStats),
    /// A typed campaign-service failure.
    Error(ErrorLine),
}

/// Decodes any schema-3 line by its `"kind"` header. The line is parsed
/// once; each kind's payload is read off the parsed value by the same
/// helper its per-kind decoder uses.
pub fn decode_line(line: &str) -> Result<Line, WireError> {
    let v = parse_headed(line)?;
    match get_str(&v, "kind")? {
        "record" => record_of(&v).map(|(index, record)| Line::Record { index, record }),
        "shard_spec" => Err(WireError::Retired { kind: "shard_spec" }),
        "shard_result" => Err(WireError::Retired {
            kind: "shard_result",
        }),
        "acc" => Err(WireError::Retired { kind: "acc" }),
        "class_stats" => Err(WireError::Retired {
            kind: "class_stats",
        }),
        "campaign_spec" => {
            campaign_spec_of(&v).map(|(spec, seed)| Line::CampaignSpec { spec, seed })
        }
        "task" => task_of(&v).map(Line::Task),
        "unit_telemetry" => unit_telemetry_of(&v).map(Line::UnitTelemetry),
        "unit_done" => unit_done_of(&v).map(Line::UnitDone),
        "request" => request_of(&v).map(Line::Request),
        "campaign_report" => campaign_report_of(&v).map(Line::CampaignReport),
        "error" => error_of(&v).map(Line::Error),
        other => Err(WireError::Kind {
            found: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_parses_scalars_and_containers() {
        assert_eq!(Value::parse("null"), Ok(Value::Null));
        assert_eq!(Value::parse(" true "), Ok(Value::Bool(true)));
        assert_eq!(Value::parse("-12.5e3"), Ok(Value::Num("-12.5e3")));
        assert_eq!(Value::parse("\"a\\nb\""), Ok(Value::Str("a\nb".into())));
        assert_eq!(
            Value::parse("[1, \"x\"]"),
            Ok(Value::Arr(vec![Value::Num("1"), Value::Str("x".into())]))
        );
        let obj = Value::parse("{\"k\": [true, null]}").unwrap();
        assert_eq!(
            obj.get("k"),
            Some(&Value::Arr(vec![Value::Bool(true), Value::Null]))
        );
    }

    #[test]
    fn value_preserves_u64_max_exactly() {
        let raw = u64::MAX.to_string();
        match Value::parse(&raw).unwrap() {
            Value::Num(lexeme) => assert_eq!(lexeme, raw),
            other => panic!("expected Num, got {other:?}"),
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Value::parse("\"\\u0041\""), Ok(Value::Str("A".into())));
        // Surrogate pair: U+1F600.
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\""),
            Ok(Value::Str("\u{1F600}".into()))
        );
        assert!(matches!(
            Value::parse("\"\\ud83d\""),
            Err(WireError::Syntax { .. })
        ));
    }

    #[test]
    fn parser_rejects_malformed_input_with_typed_errors() {
        assert!(matches!(Value::parse(""), Err(WireError::Truncated { .. })));
        assert!(matches!(
            Value::parse("{\"a\": "),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            Value::parse("tru"),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(Value::parse("{]"), Err(WireError::Syntax { .. })));
        assert!(matches!(Value::parse("01"), Err(WireError::Syntax { .. })));
        assert!(matches!(
            Value::parse("1 2"),
            Err(WireError::Trailing { .. })
        ));
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(matches!(
            Value::parse(&deep),
            Err(WireError::TooDeep { .. })
        ));
    }

    #[test]
    fn float_sentinels_round_trip() {
        assert_eq!(float(1.5), "1.5");
        assert_eq!(float(f64::INFINITY), "\"inf\"");
        assert_eq!(float(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(float(f64::NAN), "\"nan\"");
        assert_eq!(opt_float(None), "null");
        let v = Value::parse("\"-inf\"").unwrap();
        assert_eq!(float_of(&v, "x"), Ok(f64::NEG_INFINITY));
    }

    #[test]
    fn request_round_trips() {
        let req = CampaignRequest {
            n: 4096,
            transport: TransportSpec::Pool,
            workers: 6,
            unit: 128,
            retries: 2,
            cache: Some("sweep-cache".into()),
        };
        let line = encode_request(&req);
        assert_eq!(decode_request(&line), Ok(req.clone()));
        assert_eq!(decode_line(&line), Ok(Line::Request(req)));
        // A retired transport name is as unknown as any other.
        for unknown in ["carrier-pigeon", "subprocess"] {
            let bad = line.replace("\"pool\"", &format!("\"{unknown}\""));
            assert!(
                matches!(
                    decode_request(&bad),
                    Err(WireError::Field {
                        field: "transport",
                        ..
                    })
                ),
                "{unknown}"
            );
        }

        // `cache` is the one optional field: null and absent both mean
        // uncached, anything but a string is a typed field error.
        let uncached = CampaignRequest {
            cache: None,
            ..decode_request(&line).unwrap()
        };
        let null_line = encode_request(&uncached);
        assert!(null_line.contains("\"cache\": null"));
        assert_eq!(decode_request(&null_line), Ok(uncached.clone()));
        let absent = null_line.replace(", \"cache\": null", "");
        assert_eq!(decode_request(&absent), Ok(uncached));
        let bad_cache = null_line.replace("\"cache\": null", "\"cache\": 7");
        assert!(matches!(
            decode_request(&bad_cache),
            Err(WireError::Field { field: "cache", .. })
        ));
    }

    #[test]
    fn transport_names_round_trip() {
        for name in TransportSpec::NAMES {
            let t = TransportSpec::from_name(name).unwrap();
            assert_eq!(t.name(), name);
        }
        assert_eq!(
            TransportSpec::from_name("Pool"),
            Ok(TransportSpec::Pool),
            "names are case-insensitive like SolverSpec"
        );
        for unknown in ["tokio", "subprocess", "command"] {
            let err = TransportSpec::from_name(unknown).unwrap_err();
            assert_eq!(err.given, unknown);
            assert!(err.to_string().contains("(valid: local, pool)"), "{err}");
        }
    }

    #[test]
    fn campaign_report_round_trips_including_non_finite_stats() {
        use rv_model::TargetClass;
        // A real empty campaign has min_dist_over_r == inf — exactly the
        // value the schema-2 artifact form cannot carry.
        let empty = CampaignSpec::new(SolverSpec::Aur, vec![TargetClass::Type3], 1_000)
            .run_local(7, 0)
            .stats;
        assert!(empty.min_dist_over_r.is_infinite());
        for stats in [
            empty,
            CampaignSpec::new(
                SolverSpec::Aur,
                vec![TargetClass::Type3, TargetClass::S1],
                2_000,
            )
            .run_local(11, 16)
            .stats,
        ] {
            let line = encode_campaign_report(&stats);
            let back = decode_campaign_report(&line).expect("own encoding must decode");
            assert_eq!(format!("{back:?}"), format!("{stats:?}"));
            assert_eq!(encode_campaign_report(&back), line, "fixed point");
            assert_eq!(back.to_json(), stats.to_json(), "artifact byte-identity");
        }
    }

    #[test]
    fn stats_json_and_report_bytes_are_pinned() {
        // The empty campaign's `inf` ratio and the NaN meeting time are
        // where the artifact (`null`) and wire (sentinel) encoders differ.
        let rec = |class, feasible, time: Option<f64>, segments, min_dist, radius| RunRecord {
            class,
            feasible,
            met: time.is_some(),
            time,
            segments,
            min_dist,
            radius,
        };
        let empty = CampaignStats::of(&[]);
        let populated = CampaignStats::of(&[
            rec(Classification::Type3, true, Some(2.5), 10, 1.0, 2.0),
            rec(Classification::Type3, true, None, 40, 3.0, 2.0),
            rec(Classification::Type1, true, Some(0.75), 7, 0.5, 1.0),
            rec(
                Classification::ExceptionS1,
                true,
                Some(f64::NAN),
                3,
                2.0,
                1.0,
            ),
            rec(Classification::Infeasible, false, None, 100, 4.0, 1.0),
        ]);
        for (got, want) in [
            (
                empty.to_json(),
                r#"{"n": 0, "met": 0, "infeasible": 0, "median_time": null, "p90_time": null, "max_time": null, "median_segments": 0, "p90_segments": 0, "max_segments": 0, "min_dist_over_r": null, "per_class": []}"#,
            ),
            (
                encode_campaign_report(&empty),
                r#"{"schema": 3, "kind": "campaign_report", "stats": {"n": 0, "met": 0, "infeasible": 0, "median_time": null, "p90_time": null, "max_time": null, "median_segments": 0, "p90_segments": 0, "max_segments": 0, "min_dist_over_r": "inf", "per_class": []}}"#,
            ),
            (
                populated.to_json(),
                r#"{"n": 5, "met": 3, "infeasible": 1, "median_time": 2.5, "p90_time": null, "max_time": null, "median_segments": 10, "p90_segments": 100, "max_segments": 100, "min_dist_over_r": 0.5, "per_class": [{"class": "type 1", "n": 1, "met": 1, "median_time": 0.75}, {"class": "type 3", "n": 2, "met": 1, "median_time": 2.5}, {"class": "exception S1", "n": 1, "met": 1, "median_time": null}, {"class": "infeasible", "n": 1, "met": 0, "median_time": null}]}"#,
            ),
            (
                encode_campaign_report(&populated),
                r#"{"schema": 3, "kind": "campaign_report", "stats": {"n": 5, "met": 3, "infeasible": 1, "median_time": 2.5, "p90_time": "nan", "max_time": "nan", "median_segments": 10, "p90_segments": 100, "max_segments": 100, "min_dist_over_r": 0.5, "per_class": [{"class": "type 1", "n": 1, "met": 1, "median_time": 0.75}, {"class": "type 3", "n": 2, "met": 1, "median_time": 2.5}, {"class": "exception S1", "n": 1, "met": 1, "median_time": "nan"}, {"class": "infeasible", "n": 1, "met": 0, "median_time": null}]}}"#,
            ),
            (
                populated.per_class[2].to_json(),
                r#"{"class": "exception S1", "n": 1, "met": 1, "median_time": null}"#,
            ),
        ] {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn campaign_report_rejects_inconsistent_counts() {
        let stats = CampaignSpec::new(SolverSpec::Aur, vec![rv_model::TargetClass::Type3], 1_000)
            .run_local(3, 8)
            .stats;
        let line = encode_campaign_report(&stats);
        let bad = line.replacen("\"met\": ", "\"met\": 9", 1);
        assert!(matches!(
            decode_campaign_report(&bad),
            Err(WireError::Field { .. })
        ));
    }

    #[test]
    fn error_lines_round_trip() {
        for code in [
            ErrorCode::Busy,
            ErrorCode::Wire,
            ErrorCode::Protocol,
            ErrorCode::Timeout,
            ErrorCode::Oversized,
            ErrorCode::Exec,
            ErrorCode::Shutdown,
            ErrorCode::Unsupported,
        ] {
            assert_eq!(ErrorCode::from_name(code.name()), Some(code));
            let err = ErrorLine::new(code, "quote \" and newline \n survive");
            let line = encode_error(&err);
            assert_eq!(decode_error(&line), Ok(err.clone()));
            assert_eq!(decode_line(&line), Ok(Line::Error(err)));
        }
        assert_eq!(ErrorCode::from_name("panic"), None);
    }

    #[test]
    fn schema_lexeme_is_schema() {
        assert_eq!(SCHEMA_LEXEME, SCHEMA.to_string());
    }

    #[test]
    fn schema_and_kind_headers_are_enforced() {
        let line = encode_unit_telemetry(&UnitTelemetry {
            task_id: 3,
            attempt: 2,
            wall_ns: 125,
        });
        assert!(decode_unit_telemetry(&line).is_ok());
        let wrong_schema = line.replace("\"schema\": 3", "\"schema\": 2");
        assert_eq!(
            decode_unit_telemetry(&wrong_schema),
            Err(WireError::Schema { found: "2".into() })
        );
        let wrong_kind = line.replace("unit_telemetry", "bogus");
        assert_eq!(
            decode_unit_telemetry(&wrong_kind),
            Err(WireError::Kind {
                found: "bogus".into()
            })
        );
        assert_eq!(
            decode_line(&wrong_kind),
            Err(WireError::Kind {
                found: "bogus".into()
            })
        );
    }
}
