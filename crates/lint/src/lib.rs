//! `rv-lint` — workspace static analysis for the rendezvous stack.
//!
//! The stack's headline guarantees (a panic-free wire parser,
//! byte-identical campaign results across executor backends, a single
//! audited `unsafe` module) are contracts on the *source*, not just on
//! test outcomes. This crate machine-checks them with three rule
//! families over a comment/string-aware line scan:
//!
//! - **`panic`** — no `unwrap()` / `expect()` / `panic!` / `todo!` /
//!   `unimplemented!` / `unreachable!` in the panic-free zones (the
//!   wire parser, shard planner, JSON encoder, and worker protocol
//!   loops). Proven-unreachable cases carry an inline waiver:
//!   `// rv-lint: allow(panic) — <justification>`.
//! - **`unsafe`** — `unsafe` only in allowlisted files (today just
//!   `serve/signal.rs`), every site immediately preceded by a
//!   `// SAFETY:` comment, and every other crate root carrying
//!   `#![forbid(unsafe_code)]` (the crate with the audited unsafe module,
//!   `rv-serve` with `signal`, gets `#![deny(unsafe_code)]` plus a
//!   module-scoped `#[allow]` instead).
//! - **`determinism`** — no `HashMap`/`HashSet`, no `Instant::now` /
//!   `SystemTime::now`, and no direct `{}`-formatting of
//!   float-typed values in the report-feeding modules; canonical float
//!   encoding must go through the `json.rs` helpers (which are
//!   themselves the waived canonical sites).
//! - **`hot`** — no `.clone()`, `into_owned`, `Vec::new()`, or
//!   `.collect()` in the designated hot modules (the sim engine loop, the
//!   kinematic compiler, the compiled-program cache, and the AUR block
//!   builders): per-event allocation and value copying is exactly what
//!   the profile-guided pass removed, and this rule keeps it out. Sites
//!   that provably run once per process (e.g. inside the compiled-program
//!   cache fill) carry `// rv-lint: allow(hot) — <justification>`.
//!
//! Waivers are fail-closed: a waiver without a justification does not
//! suppress anything and instead adds a `waiver` finding of its own.
//!
//! Everything here is plain `std`; the scanner is hand-rolled because
//! the offline vendor set has no `syn` — and none is needed for
//! line-granular token rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scanner;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use scanner::Line;

/// Rule family names, as printed in findings and named in waivers.
pub mod rules {
    /// Banned panicking construct in a panic-free zone.
    pub const PANIC: &str = "panic";
    /// `unsafe` outside the allowlist or without a `SAFETY:` comment.
    pub const UNSAFE: &str = "unsafe";
    /// Nondeterministic construct in a report-feeding module.
    pub const DETERMINISM: &str = "determinism";
    /// Per-event allocation or value copy in a designated hot module.
    pub const HOT: &str = "hot";
    /// Missing `#![forbid(unsafe_code)]` (or the `rv-core` deny/allow
    /// split) at a crate root.
    pub const FORBID: &str = "forbid";
    /// Malformed waiver (missing justification or unknown rule name).
    pub const WAIVER: &str = "waiver";
}

/// One lint finding, printed as `file:line: rule: message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule family (one of the names in [`rules`]).
    pub rule: &'static str,
    /// Human-readable description with the expected remedy.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which files each rule family applies to. Paths are workspace-relative
/// with forward slashes.
#[derive(Clone, Debug)]
pub struct Config {
    /// Files where panicking constructs are banned.
    pub panic_zone: Vec<String>,
    /// Files where `unsafe` is permitted (with `SAFETY:` comments).
    pub unsafe_allow: Vec<String>,
    /// Files where nondeterministic constructs are banned.
    pub determinism_zone: Vec<String>,
    /// Hot modules where `.clone()` / `Vec::new()` / `.collect()` are
    /// banned (the allocation-free solver inner loop).
    pub hot_zone: Vec<String>,
    /// Crate roots that scope `unsafe` down with deny + module allow
    /// instead of a blanket forbid: `(crate root path, module name)`
    /// pairs, the module being the one carrying the
    /// `#[allow(unsafe_code)]`.
    pub deny_unsafe_roots: Vec<(String, String)>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            panic_zone: vec![
                "crates/core/src/wire.rs".into(),
                "crates/core/src/shard.rs".into(),
                "crates/core/src/json.rs".into(),
                "crates/core/src/exec.rs".into(),
                // Every cache read must be total: corrupt entries come
                // back as typed CacheError values, never as a panic.
                "crates/core/src/cache.rs".into(),
                "crates/experiments/src/bin/rv_shard.rs".into(),
                // The whole campaign server: hostile input must come
                // back as typed error lines, never as a worker panic.
                "crates/serve/src/lib.rs".into(),
                "crates/serve/src/signal.rs".into(),
                "crates/serve/src/bin/rv_serve.rs".into(),
            ],
            unsafe_allow: vec!["crates/serve/src/signal.rs".into()],
            determinism_zone: vec![
                "crates/core/src/batch.rs".into(),
                "crates/core/src/solver.rs".into(),
                "crates/core/src/wire.rs".into(),
                "crates/core/src/json.rs".into(),
            ],
            hot_zone: vec![
                "crates/sim/src/engine.rs".into(),
                "crates/trajectory/src/kinematics.rs".into(),
                "crates/trajectory/src/compiled.rs".into(),
                "crates/core/src/aur.rs".into(),
            ],
            deny_unsafe_roots: vec![("crates/serve/src/lib.rs".into(), "signal".into())],
        }
    }
}

impl Config {
    fn in_panic_zone(&self, rel: &str) -> bool {
        self.panic_zone.iter().any(|p| p == rel)
    }
    fn unsafe_allowed(&self, rel: &str) -> bool {
        self.unsafe_allow.iter().any(|p| p == rel)
    }
    fn in_determinism_zone(&self, rel: &str) -> bool {
        self.determinism_zone.iter().any(|p| p == rel)
    }
    fn in_hot_zone(&self, rel: &str) -> bool {
        self.hot_zone.iter().any(|p| p == rel)
    }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Finds `name` in `code` as a standalone word whose next non-match char
/// is `follow` (e.g. `unwrap` + `(`, `panic` + `!`). `follow == '\0'`
/// means "any non-identifier character or end of line".
fn word_followed_by(code: &str, name: &str, follow: char) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(name) {
        let at = start + pos;
        let before_ok = code[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let after = code[at + name.len()..].chars().next();
        let after_ok = if follow == '\0' {
            after.is_none_or(|c| !is_ident_char(c))
        } else {
            after == Some(follow)
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + name.len();
    }
    false
}

/// `.unwrap(`-style method calls.
fn has_call(code: &str, name: &str) -> bool {
    word_followed_by(code, name, '(')
}

/// `panic!`-style macro invocations.
fn has_macro(code: &str, name: &str) -> bool {
    word_followed_by(code, name, '!')
}

/// Bare word (e.g. `unsafe`, `HashMap`).
fn has_word(code: &str, name: &str) -> bool {
    word_followed_by(code, name, '\0')
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

enum WaiverState {
    /// No waiver near the finding.
    None,
    /// A well-formed waiver for this rule: suppress the finding.
    Ok,
    /// A waiver for this rule with no justification text: fail closed.
    MissingJustification(usize),
}

/// Looks for `rv-lint: allow(<rule>)` in a comment on the finding's own
/// line or on the run of pure-comment lines immediately above it.
fn waiver_for(lines: &[Line], idx: usize, rule: &str) -> WaiverState {
    if let Some(state) = parse_waiver(&lines[idx].comment, rule, idx) {
        return state;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let code = l.code.trim();
        if !code.is_empty() && !code.starts_with("#[") {
            break;
        }
        if let Some(state) = parse_waiver(&l.comment, rule, j) {
            return state;
        }
        if code.is_empty() && l.comment.is_empty() && l.raw.trim().is_empty() && j + 1 < idx {
            // Stop at the second blank line so waivers stay adjacent.
            break;
        }
    }
    WaiverState::None
}

/// Parses one comment for a waiver naming `rule`. Returns `None` when
/// the comment has no waiver for this rule.
fn parse_waiver(comment: &str, rule: &str, line_idx: usize) -> Option<WaiverState> {
    let tag = comment.find("rv-lint:")?;
    let rest = comment[tag + "rv-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    if rest[..close].trim() != rule {
        return None;
    }
    let justification = rest[close + 1..]
        .trim_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | ','));
    if justification.is_empty() {
        Some(WaiverState::MissingJustification(line_idx))
    } else {
        Some(WaiverState::Ok)
    }
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

/// Precomputed per-line context: brace depth and `#[cfg(test)]` scope.
struct FileMap {
    lines: Vec<Line>,
    /// True for lines inside a `#[cfg(test)]` item (tests are exempt
    /// from every rule — they are allowed to panic and to time things).
    in_test: Vec<bool>,
    /// Brace depth after each line (used for fn-scope tracking).
    depth_after: Vec<usize>,
    /// Brace depth before each line.
    depth_before: Vec<usize>,
}

fn map_file(source: &str) -> FileMap {
    let lines = scanner::split(source);
    let n = lines.len();
    let mut in_test = vec![false; n];
    let mut depth_after = vec![0usize; n];
    let mut depth_before = vec![0usize; n];
    let mut depth = 0usize;
    let mut test_depth: Option<usize> = None;
    let mut pending_test_attr = false;
    for (i, line) in lines.iter().enumerate() {
        depth_before[i] = depth;
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        depth_after[i] = depth;
        if let Some(d) = test_depth {
            in_test[i] = true;
            if depth <= d {
                test_depth = None;
            }
        } else {
            let code = line.code.trim();
            if pending_test_attr
                && (has_word(code, "mod") || has_word(code, "fn") || has_word(code, "impl"))
            {
                test_depth = Some(depth_before[i]);
                in_test[i] = true;
                pending_test_attr = false;
                if depth <= depth_before[i] && code.contains('{') {
                    test_depth = None;
                }
            }
            if code.contains("#[cfg(test)]") {
                pending_test_attr = true;
                in_test[i] = true;
            }
        }
    }
    FileMap {
        lines,
        in_test,
        depth_after,
        depth_before,
    }
}

/// A float-typed fn parameter in scope (for the `{}`-formatting rule).
struct FloatScope {
    names: Vec<String>,
    depth: usize,
    opened: bool,
}

/// Extracts parameter names typed `f64`/`f32` from a single-line fn
/// signature fragment. Handles `v: f64`, `mut v: f64`, `v: &f64`;
/// wrapped types like `Option<f64>` deliberately do not match.
fn float_params(sig: &str) -> Vec<String> {
    let mut out = Vec::new();
    for seg in sig.split([',', '(']) {
        let seg = seg.trim();
        let Some((lhs, rhs)) = seg.split_once(':') else {
            continue;
        };
        let rhs = rhs.trim().trim_start_matches('&');
        if !(rhs.starts_with("f64") || rhs.starts_with("f32")) {
            continue;
        }
        let after = rhs.chars().nth(3);
        if after.is_some_and(is_ident_char) {
            continue;
        }
        let name = lhs.trim().trim_start_matches("mut ").trim();
        if !name.is_empty() && name.chars().all(is_ident_char) {
            out.push(name.to_string());
        }
    }
    out
}

const FMT_MACROS: [&str; 8] = [
    "format",
    "write",
    "writeln",
    "print",
    "println",
    "eprint",
    "eprintln",
    "format_args",
];

const PANIC_CALLS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// Runs every applicable rule over one file. `rel_path` selects the
/// zones; `source` is the file text.
pub fn scan_file(rel_path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let map = map_file(source);
    let mut findings = Vec::new();
    let mut float_scopes: Vec<FloatScope> = Vec::new();

    let push_with_waiver = |findings: &mut Vec<Finding>,
                            map: &FileMap,
                            idx: usize,
                            rule: &'static str,
                            msg: String| {
        match waiver_for(&map.lines, idx, rule) {
            WaiverState::Ok => {}
            WaiverState::None => findings.push(Finding {
                file: rel_path.to_string(),
                line: idx + 1,
                rule,
                message: msg,
            }),
            WaiverState::MissingJustification(widx) => {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule,
                    message: msg,
                });
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: widx + 1,
                    rule: rules::WAIVER,
                    message: format!(
                        "waiver for `{rule}` has no justification; write \
                             `// rv-lint: allow({rule}) — <why this cannot fire>`"
                    ),
                });
            }
        }
    };

    for idx in 0..map.lines.len() {
        let code = map.lines[idx].code.as_str();
        if map.in_test[idx] {
            continue;
        }

        // --- panic-free zones -------------------------------------------
        if cfg.in_panic_zone(rel_path) {
            for call in PANIC_CALLS {
                if has_call(code, call) {
                    push_with_waiver(
                        &mut findings,
                        &map,
                        idx,
                        rules::PANIC,
                        format!(
                            "`.{call}()` in a panic-free zone; return a typed error \
                             or add `// rv-lint: allow(panic) — <justification>`"
                        ),
                    );
                }
            }
            for mac in PANIC_MACROS {
                if has_macro(code, mac) {
                    push_with_waiver(
                        &mut findings,
                        &map,
                        idx,
                        rules::PANIC,
                        format!(
                            "`{mac}!` in a panic-free zone; return a typed error \
                             or add `// rv-lint: allow(panic) — <justification>`"
                        ),
                    );
                }
            }
        }

        // --- unsafe hygiene ---------------------------------------------
        if has_word(code, "unsafe") {
            if !cfg.unsafe_allowed(rel_path) {
                push_with_waiver(
                    &mut findings,
                    &map,
                    idx,
                    rules::UNSAFE,
                    format!(
                        "`unsafe` outside the allowlist ({}); move the unsafe core \
                         there or extend the allowlist deliberately",
                        cfg.unsafe_allow.join(", ")
                    ),
                );
            } else if !safety_comment_above(&map.lines, idx) {
                push_with_waiver(
                    &mut findings,
                    &map,
                    idx,
                    rules::UNSAFE,
                    "`unsafe` without an immediately preceding `// SAFETY:` comment \
                     stating the invariant that makes it sound"
                        .to_string(),
                );
            }
        }

        // --- determinism zones ------------------------------------------
        if cfg.in_determinism_zone(rel_path) {
            for ty in ["HashMap", "HashSet"] {
                if has_word(code, ty) {
                    push_with_waiver(
                        &mut findings,
                        &map,
                        idx,
                        rules::DETERMINISM,
                        format!(
                            "`{ty}` in a report-feeding module: iteration order is \
                             nondeterministic; use BTreeMap/BTreeSet"
                        ),
                    );
                }
            }
            for clock in ["Instant::now", "SystemTime::now"] {
                if code.contains(clock) {
                    push_with_waiver(
                        &mut findings,
                        &map,
                        idx,
                        rules::DETERMINISM,
                        format!(
                            "`{clock}()` in a report-feeding module: wall-clock reads \
                             are nondeterministic; route timing through telemetry"
                        ),
                    );
                }
            }

            // Track fn scopes with float-typed params, then flag direct
            // `{}`-formatting of those params.
            if has_word(code, "fn") && code.contains('(') {
                let mut sig = String::new();
                let mut j = idx;
                while j < map.lines.len() {
                    sig.push_str(&map.lines[j].code);
                    sig.push(' ');
                    if sig.contains(')') {
                        break;
                    }
                    j += 1;
                }
                let names = float_params(&sig);
                if !names.is_empty() {
                    float_scopes.push(FloatScope {
                        names,
                        depth: map.depth_before[idx],
                        opened: false,
                    });
                }
            }
            let is_fmt_line = FMT_MACROS.iter().any(|m| has_macro(code, m));
            if is_fmt_line {
                let raw = map.lines[idx].raw.as_str();
                let mut flagged = false;
                for scope in &float_scopes {
                    for name in &scope.names {
                        let inline = raw.contains(&format!("{{{name}}}"))
                            || raw.contains(&format!("{{{name}:"));
                        let positional = raw.contains("{}") && has_word(code, name);
                        if inline || positional {
                            push_with_waiver(
                                &mut findings,
                                &map,
                                idx,
                                rules::DETERMINISM,
                                format!(
                                    "float `{name}` formatted directly with `{{}}`; \
                                     canonical float encoding must go through the \
                                     json.rs helpers"
                                ),
                            );
                            flagged = true;
                            break;
                        }
                    }
                    if flagged {
                        break;
                    }
                }
            }
        }

        // --- hot zones --------------------------------------------------
        if cfg.in_hot_zone(rel_path) {
            if has_call(code, "clone") || has_word(code, "into_owned") {
                push_with_waiver(
                    &mut findings,
                    &map,
                    idx,
                    rules::HOT,
                    "`.clone()` or `into_owned` in a hot-path module: exact-arithmetic clones \
                     heap-allocate once values outgrow i128; borrow, move, or \
                     take() instead, or add \
                     `// rv-lint: allow(hot) — <justification>`"
                        .to_string(),
                );
            }
            if has_call(code, "Vec::new") || has_macro(code, "vec") {
                push_with_waiver(
                    &mut findings,
                    &map,
                    idx,
                    rules::HOT,
                    "vector construction in a hot-path module: per-event \
                     allocation; hoist the buffer out of the loop or add \
                     `// rv-lint: allow(hot) — <justification>`"
                        .to_string(),
                );
            }
            if has_call(code, "collect") {
                push_with_waiver(
                    &mut findings,
                    &map,
                    idx,
                    rules::HOT,
                    "`.collect()` in a hot-path module: materializes per event; \
                     iterate lazily or add \
                     `// rv-lint: allow(hot) — <justification>`"
                        .to_string(),
                );
            }
        }

        // Close float scopes whose body has ended.
        for scope in &mut float_scopes {
            if map.depth_after[idx] > scope.depth {
                scope.opened = true;
            }
        }
        let depth_now = map.depth_after[idx];
        float_scopes.retain(|s| !(s.opened && depth_now <= s.depth));
    }
    findings
}

/// Whether an `unsafe` at `idx` is covered by a `SAFETY:` comment — on
/// the same line, or on the run of comment/attribute/blank lines
/// immediately above (a rustdoc `# Safety` section also counts for
/// `unsafe fn` declarations).
fn safety_comment_above(lines: &[Line], idx: usize) -> bool {
    let covers = |c: &str| c.contains("SAFETY:") || c.contains("# Safety");
    if covers(&lines[idx].comment) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if covers(&l.comment) {
            return true;
        }
        let code = l.code.trim();
        if !code.is_empty() && !code.starts_with("#[") && !code.starts_with("#![") {
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Crate-root attribute checks
// ---------------------------------------------------------------------------

/// Checks one crate root for the required unsafe-code attribute.
fn check_crate_root(rel: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let lines = scanner::split(source);
    let code_has = |needle: &str| lines.iter().any(|l| l.code.contains(needle));
    let mut findings = Vec::new();
    let deny_pair = cfg
        .deny_unsafe_roots
        .iter()
        .find(|(root, _)| root == rel)
        .map(|(_, module)| module.as_str());
    if let Some(unsafe_module) = deny_pair {
        if !code_has("#![deny(unsafe_code)]") {
            findings.push(Finding {
                file: rel.to_string(),
                line: 1,
                rule: rules::FORBID,
                message: "crate root must carry `#![deny(unsafe_code)]` (with a \
                          module-scoped `#[allow(unsafe_code)]` on the unsafe core)"
                    .to_string(),
            });
        }
        // The allow must sit in the attribute run right above `mod <unsafe_module>;`.
        let mod_decl = format!("mod {unsafe_module};");
        for (i, l) in lines.iter().enumerate() {
            if !l.code.contains(&mod_decl) {
                continue;
            }
            let mut covered = l.code.contains("#[allow(unsafe_code)]");
            let mut j = i;
            while !covered && j > 0 {
                j -= 1;
                let code = lines[j].code.trim();
                if code.contains("#[allow(unsafe_code)]") {
                    covered = true;
                } else if !code.is_empty() && !code.starts_with("#[") {
                    break;
                }
            }
            if !covered {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: i + 1,
                    rule: rules::FORBID,
                    message: format!(
                        "`mod {unsafe_module}` must carry `#[allow(unsafe_code)]` so the \
                         deny at the crate root scopes the unsafe core precisely"
                    ),
                });
            }
        }
    } else if !code_has("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            file: rel.to_string(),
            line: 1,
            rule: rules::FORBID,
            message: "crate root missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
    findings
}

// ---------------------------------------------------------------------------
// Tree walk
// ---------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn rel_str(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scans a workspace tree rooted at `root`: every `.rs` file under
/// `crates/*/src` plus the umbrella `src/`, with crate-root attribute
/// checks for each `lib.rs`. Returns findings sorted by (file, line)
/// and the number of files scanned.
pub fn scan_tree(root: &Path, cfg: &Config) -> io::Result<(Vec<Finding>, usize)> {
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a directory", root.display()),
        ));
    }
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let src = crate_dir.join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut files)?;
            }
        }
    }
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        collect_rs_files(&umbrella, &mut files)?;
    }

    let mut findings = Vec::new();
    let scanned = files.len();
    for path in &files {
        let rel = rel_str(root, path);
        let source = fs::read_to_string(path)?;
        findings.extend(scan_file(&rel, &source, cfg));
        let is_crate_root = rel.ends_with("/src/lib.rs") || rel == "src/lib.rs";
        if is_crate_root {
            findings.extend(check_crate_root(&rel, &source, cfg));
        }
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok((findings, scanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::default()
    }

    const WIRE: &str = "crates/core/src/wire.rs";

    #[test]
    fn unwrap_in_panic_zone_fires() {
        let f = scan_file(WIRE, "fn f() { x.unwrap(); }\n", &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::PANIC);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_or_does_not_fire() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); e.expect_err(\"x\"); }\n";
        assert!(scan_file(WIRE, src, &cfg()).is_empty());
    }

    #[test]
    fn panic_tokens_in_strings_and_comments_do_not_fire() {
        let src = "// a panic! here is fine, as is .unwrap()\nfn f() { let s = \"panic! unwrap( todo!\"; }\n";
        assert!(scan_file(WIRE, src, &cfg()).is_empty());
    }

    #[test]
    fn waiver_with_justification_suppresses() {
        let src = "fn f() {\n    // rv-lint: allow(panic) — lock poisoning is unreachable here\n    x.unwrap();\n}\n";
        assert!(scan_file(WIRE, src, &cfg()).is_empty());
    }

    #[test]
    fn waiver_without_justification_fails_closed() {
        let src = "fn f() {\n    // rv-lint: allow(panic)\n    x.unwrap();\n}\n";
        let f = scan_file(WIRE, src, &cfg());
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.rule == rules::PANIC));
        assert!(f.iter().any(|x| x.rule == rules::WAIVER));
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let src =
            "fn f() {\n    // rv-lint: allow(determinism) — wrong family\n    x.unwrap();\n}\n";
        let f = scan_file(WIRE, src, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::PANIC);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); panic!(\"boom\"); }\n}\n";
        assert!(scan_file(WIRE, src, &cfg()).is_empty());
    }

    #[test]
    fn unsafe_outside_allowlist_fires() {
        let src = "fn f() { unsafe { g() } }\n";
        let f = scan_file("crates/core/src/stream.rs", src, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::UNSAFE);
        // rv-core has no unsafe module: `unsafe` in its parallel map is
        // outside the allowlist even with a SAFETY comment.
        let covered = "// SAFETY: regions are disjoint by construction.\nunsafe { ptr.write(v) }\n";
        let f = scan_file("crates/core/src/parallel.rs", covered, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::UNSAFE);
        assert!(f[0].message.contains("allowlist"));
    }

    #[test]
    fn unsafe_with_safety_comment_in_allowlisted_file_is_clean() {
        let src = "// SAFETY: regions are disjoint by construction.\nunsafe { ptr.write(v) }\n";
        assert!(scan_file("crates/serve/src/signal.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_fires_even_in_allowlisted_file() {
        let src = "fn f() { unsafe { g() } }\n";
        let f = scan_file("crates/serve/src/signal.rs", src, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::UNSAFE);
        assert!(f[0].message.contains("SAFETY"));
    }

    #[test]
    fn rustdoc_safety_section_covers_unsafe_fn() {
        let src = "/// Writes without bounds checks.\n///\n/// # Safety\n///\n/// `i` must be in bounds.\npub unsafe fn write(i: usize) {}\n";
        assert!(scan_file("crates/serve/src/signal.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn hashmap_in_determinism_zone_fires() {
        let src = "use std::collections::HashMap;\n";
        let f = scan_file("crates/core/src/batch.rs", src, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::DETERMINISM);
    }

    const HOT: &str = "crates/sim/src/engine.rs";

    #[test]
    fn clone_in_hot_zone_fires() {
        let src = "fn f() { let x = cur.clone(); }\n";
        let f = scan_file(HOT, src, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::HOT);
        // Same line outside a hot zone is fine.
        assert!(scan_file("crates/core/src/exec.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn into_owned_in_hot_zone_fires() {
        for src in [
            "fn f() { let i = cow.into_owned(); }\n",
            "fn f() { it.map(Cow::into_owned) }\n",
        ] {
            let f = scan_file("crates/trajectory/src/compiled.rs", src, &cfg());
            assert_eq!(f.len(), 1, "src: {src}");
            assert_eq!(f[0].rule, rules::HOT);
        }
    }

    #[test]
    fn vec_and_collect_in_hot_zone_fire() {
        let vec_new = "fn f() { let v: Vec<u8> = Vec::new(); }\n";
        let vec_macro = "fn f() { let v = vec![1, 2]; }\n";
        let collect = "fn f() { let v: Vec<u8> = it.collect(); }\n";
        for src in [vec_new, vec_macro, collect] {
            let f = scan_file(HOT, src, &cfg());
            assert_eq!(f.len(), 1, "src: {src}");
            assert_eq!(f[0].rule, rules::HOT);
        }
    }

    #[test]
    fn hot_waiver_with_justification_suppresses() {
        let src = "fn f() {\n    // rv-lint: allow(hot) — freeze path, runs at most once per run\n    let x = cur.clone();\n}\n";
        assert!(scan_file(HOT, src, &cfg()).is_empty());
    }

    #[test]
    fn hot_waiver_without_justification_fails_closed() {
        let src = "fn f() {\n    // rv-lint: allow(hot)\n    let x = cur.clone();\n}\n";
        let f = scan_file(HOT, src, &cfg());
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.rule == rules::HOT));
        assert!(f.iter().any(|x| x.rule == rules::WAIVER));
    }

    #[test]
    fn hot_zone_test_code_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v: Vec<u8> = it.collect(); let c = x.clone(); }\n}\n";
        assert!(scan_file(HOT, src, &cfg()).is_empty());
    }

    #[test]
    fn instant_now_fires_in_zone_but_not_outside() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(scan_file("crates/core/src/solver.rs", src, &cfg()).len(), 1);
        assert!(scan_file("crates/core/src/exec.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn float_format_fires_inline_and_positional() {
        let inline = "pub fn f64(v: f64) -> String {\n    format!(\"{v}\")\n}\n";
        let positional = "pub fn f64(v: f64) -> String {\n    format!(\"{}\", v)\n}\n";
        for src in [inline, positional] {
            let f = scan_file("crates/core/src/json.rs", src, &cfg());
            assert_eq!(f.len(), 1, "src: {src}");
            assert_eq!(f[0].rule, rules::DETERMINISM);
        }
    }

    #[test]
    fn float_format_does_not_fire_for_non_float_params_or_out_of_scope() {
        let other = "pub fn name(v: u64) -> String {\n    format!(\"{v}\")\n}\n";
        assert!(scan_file("crates/core/src/json.rs", other, &cfg()).is_empty());
        let out_of_scope =
            "pub fn f(v: f64) -> f64 {\n    v\n}\npub fn g(n: u32) -> String {\n    format!(\"{n}\")\n}\n";
        assert!(scan_file("crates/core/src/json.rs", out_of_scope, &cfg()).is_empty());
        let wrapped = "pub fn f(v: Option<f64>) -> String {\n    format!(\"{v:?}\")\n}\n";
        assert!(scan_file("crates/core/src/json.rs", wrapped, &cfg()).is_empty());
    }

    #[test]
    fn crate_root_missing_forbid_fires() {
        let f = check_crate_root("crates/geometry/src/lib.rs", "pub mod vec2;\n", &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::FORBID);
    }

    #[test]
    fn core_root_needs_forbid_not_deny_plus_module_allow() {
        let bad = "pub mod parallel;\n";
        let f = check_crate_root("crates/core/src/lib.rs", bad, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::FORBID);
        // The deny + module-allow split is reserved for the roots in
        // `deny_unsafe_roots`; rv-core is no longer one of them.
        let deny_allow = "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\npub mod parallel;\n";
        let f = check_crate_root("crates/core/src/lib.rs", deny_allow, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::FORBID);
        assert!(f[0].message.contains("forbid(unsafe_code)"));
        let good = "#![forbid(unsafe_code)]\npub mod parallel;\n";
        assert!(check_crate_root("crates/core/src/lib.rs", good, &cfg()).is_empty());
    }

    #[test]
    fn serve_root_needs_deny_plus_signal_module_allow() {
        // The one deny/allow pair: rv-serve's crate root with its
        // `signal` module. The module name is part of the pair.
        let bad = "#![deny(unsafe_code)]\npub mod signal;\n";
        let f = check_crate_root("crates/serve/src/lib.rs", bad, &cfg());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("mod signal"));
        let good = "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\npub mod signal;\n";
        assert!(check_crate_root("crates/serve/src/lib.rs", good, &cfg()).is_empty());
        // A blanket-forbid crate is still fine and unaffected.
        let forbid = "#![forbid(unsafe_code)]\npub mod bench;\n";
        assert!(check_crate_root("crates/bench/src/lib.rs", forbid, &cfg()).is_empty());
    }

    #[test]
    fn findings_display_as_file_line_rule_message() {
        let f = Finding {
            file: "crates/core/src/wire.rs".into(),
            line: 42,
            rule: rules::PANIC,
            message: "boom".into(),
        };
        assert_eq!(f.to_string(), "crates/core/src/wire.rs:42: panic: boom");
    }
}
