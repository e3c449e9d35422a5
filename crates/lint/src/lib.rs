//! `sidco-lint`: the workspace's own source lint pass.
//!
//! Seven rules encode conventions this codebase has converged on and that
//! rustc/clippy cannot enforce (run as `cargo run -p sidco-lint`; CI gates on
//! a clean pass):
//!
//! 1. **`unwrap-invariant`** — no `.unwrap()` / `.expect(…)` in non-test
//!    code without justification. An `.expect` whose message mentions
//!    `poisoned` is the documented lock-poisoning convention and passes;
//!    anything else needs an `// INVARIANT: …` comment on the line or just
//!    above it stating why the failure is impossible.
//! 2. **`dist-cast-guard`** — float→integer `as` casts in `crates/dist`
//!    (the simulator computes byte counts and chunk sizes from float rates)
//!    must go through a guarded helper or carry an `// INVARIANT:` comment
//!    bounding the value — `as` silently saturates NaN to 0 and truncates,
//!    which turned real modelling bugs into silent zeros before
//!    `projected_payload_bytes` established the guarded pattern.
//! 3. **`sim-wallclock`** — no `Instant::now` / `SystemTime` in
//!    `crates/dist`, and none of `sidco-trace`'s real-clock surface either
//!    (`real_now` / `real_span` / `Lane::Real` / `RealSpanGuard`): simulated
//!    time is the only clock there, and the `VirtualClock` facade is the one
//!    sanctioned way to carry it into traces. Wall-clock reads make runs
//!    nondeterministic.
//! 4. **`ordering-justification`** — every explicit atomic
//!    `Ordering::…` choice carries a nearby comment justifying it
//!    (mentioning the ordering, the fence/lock pairing, or that the value is
//!    a pure observation).
//! 5. **`safety-comment`** — every `unsafe` block or function has a
//!    `// SAFETY: …` comment just above it.
//! 6. **`dead-pub`** — every `pub fn/struct/enum/trait/const/static/type`
//!    declared in the non-test code of `src/` and `crates/*/src/` is reached
//!    from the workspace's live non-test code: the library crates,
//!    `examples/`, the `src/bin` targets and the `sidco-perf` package.
//!    Comments, strings, `tests/` and `#[cfg(test)]` regions do not count,
//!    so an item whose only callers are tests is flagged. A test oracle or
//!    fixture stays with `// lint: test-only <reason>` on the line just
//!    above its declaration; a marker without a reason does not count.
//!    `vendor/` is skipped (its stubs mirror external crates and cannot call
//!    ours), and so are the `sidco-perf` package's own items, which rustc
//!    already checks as binary code. A `pub fn` declared in an `impl X` body
//!    is a method, and only a call (`.name(` or `.name::<`, for any owner) or
//!    a path (`X::name`, or `Self::name` inside an `impl X`) reaches it; bare
//!    words, field accesses, `name:` bindings, `name::` module paths and
//!    `use` items do not, so a field, local or module that shares its name
//!    cannot hide it. Every other item is reached by any occurrence of its
//!    name but its own declaration and the self type of an `impl X` or
//!    `impl T for X` header, so a type that only its own impls name is
//!    flagged; a name that collides with another item's hides both. The
//!    rule is a fixpoint over item bodies: a use inside a marked item, or
//!    inside an item already judged dead, reaches nothing, so an item that
//!    only a test oracle or dead code uses is flagged, and each round frees
//!    the next link of a dead call chain until a round finds nothing new.
//! 7. **`dead-field`** — every named field of a `pub struct` that rule 6
//!    judges is read by live non-test code (rustc already reports a private
//!    struct's field that nothing reads): a `.name` that no call,
//!    turbofish or assignment operator (`=`, `+=`, …) follows, or the name
//!    inside a struct pattern (`let S { name, .. } = s`, a match arm, a
//!    `for`, closure or parameter pattern, a `matches!` call). A
//!    struct-literal initialiser and an assignment write, they do not read;
//!    nor do derived impls (`Debug`, `PartialEq`). Fields are matched by name
//!    across all structs, so two fields that share a name hide each other.
//!    A field takes the same reasoned marker as rule 6, and the fields of a
//!    marked or dead struct are not judged one by one.
//!
//! Rules 6 and 7 may each miss dead code, but they flag only what no live
//! non-test code reaches; they are the rules that span files:
//! [`scan_sources`] reads that code once, then judges each declaration. A
//! scan rooted at a subtree judges them against that subtree only.
//!
//! Each run also reports the workspace's non-test library lines (the files
//! rule 6 checks, minus their `#[cfg(test)]` regions), the figure a PR that
//! deletes code is measured by, and the reasoned `lint: test-only` markers
//! that keep an item or a field.
//!
//! The scanner is deliberately *textual*, not syntactic: it strips string
//! literals and comments with a small state machine (so rule patterns inside
//! strings or docs don't fire), tracks `#[cfg(test)]` regions by brace
//! depth, and classifies whole files as test code by path (`tests/`,
//! `benches/`, `examples/`; rules 6 and 7 count `examples/` as callers). That
//! keeps it dependency-free and fast — the cost is that it lints the written
//! convention, not the AST; the few heuristics are documented on [`strip`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One line of source split into the three channels the rules care about.
#[derive(Debug, Default, Clone)]
pub struct StrippedLine {
    /// Code with string-literal contents and comments removed.
    pub code: String,
    /// Contents of comments on this line (line, block, and doc comments).
    pub comment: String,
    /// Contents of string literals on this line.
    pub strings: String,
}

#[derive(Clone, Copy)]
enum State {
    Code,
    /// Nested block-comment depth (Rust block comments nest).
    Block(u32),
    Line,
    Str,
    /// Raw string, with the number of `#`s that close it.
    RawStr(u32),
    Char,
}

/// Splits `source` into per-line code/comment/string channels.
///
/// Heuristics (documented limitations of the textual approach):
/// * A `'` starts a char literal only when followed by an escape or by
///   `X'` — otherwise it is treated as a lifetime.
/// * Raw strings support any number of `#`s; raw identifiers (`r#match`) are
///   recognised by the missing quote.
pub fn strip(source: &str) -> Vec<StrippedLine> {
    let mut lines = Vec::new();
    let mut current = StrippedLine::default();
    let mut state = State::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(state, State::Line) {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut current));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        state = State::Line;
                        i += 2;
                        continue;
                    }
                    '/' if next == Some('*') => {
                        state = State::Block(1);
                        i += 2;
                        continue;
                    }
                    '"' => {
                        current.code.push('"');
                        state = State::Str;
                    }
                    'r' | 'b' => {
                        // Possible raw/byte string start: r", br", r#", …
                        let mut j = i + 1;
                        if c == 'b' && chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let prev_ident =
                            i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                        if !prev_ident && chars.get(j) == Some(&'"') && (c == 'r' || j > i + 1) {
                            for &cc in &chars[i..=j] {
                                current.code.push(cc);
                            }
                            state = State::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                        current.code.push(c);
                    }
                    '\'' => {
                        // Char literal vs lifetime.
                        let is_char = matches!(
                            (next, chars.get(i + 2).copied()),
                            (Some('\\'), _) | (Some(_), Some('\''))
                        );
                        current.code.push('\'');
                        if is_char {
                            state = State::Char;
                        }
                    }
                    _ => current.code.push(c),
                }
            }
            State::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::Block(depth + 1);
                    i += 2;
                    continue;
                }
                current.comment.push(c);
            }
            State::Line => current.comment.push(c),
            State::Str => match c {
                '\\' => {
                    if let Some(&esc) = chars.get(i + 1) {
                        if esc != '\n' {
                            current.strings.push(esc);
                        }
                        i += 2;
                        continue;
                    }
                }
                '"' => {
                    current.code.push('"');
                    state = State::Code;
                }
                _ => current.strings.push(c),
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    let closes = (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                    if closes {
                        current.code.push('"');
                        for _ in 0..hashes {
                            current.code.push('#');
                        }
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                current.strings.push(c);
            }
            State::Char => {
                if c == '\\' {
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    current.code.push('\'');
                    state = State::Code;
                }
            }
        }
        i += 1;
    }
    lines.push(current);
    lines
}

/// Marks the lines covered by `#[cfg(test)]` items (the attribute line
/// through the close of the item's brace block, or through the `;` of a
/// braceless item).
pub fn test_region_mask(lines: &[StrippedLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut region: Option<i64> = None; // brace depth once inside a region
    let mut armed = false; // attribute seen, item body not yet entered
    for (idx, line) in lines.iter().enumerate() {
        if region.is_none() && !armed && line.code.contains("#[cfg(test)") {
            armed = true;
        }
        if armed || region.is_some() {
            mask[idx] = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if armed {
                        armed = false;
                        region = Some(1);
                    } else if let Some(depth) = region.as_mut() {
                        *depth += 1;
                    }
                }
                '}' => {
                    if let Some(depth) = region.as_mut() {
                        *depth -= 1;
                        if *depth == 0 {
                            region = None;
                        }
                    }
                }
                ';' if armed => {
                    // `#[cfg(test)] use …;` — a braceless item.
                    armed = false;
                }
                _ => {}
            }
        }
    }
    mask
}

/// What the rules need to know about the file being scanned.
#[derive(Debug, Clone)]
struct FileContext {
    /// Workspace-relative path, used in diagnostics.
    path: String,
    /// Whole file is test/bench/example code (by path) — rules 1 and 4 are
    /// about production code and skip such files entirely.
    is_test_file: bool,
    /// File belongs to `crates/dist` (the simulator) — enables rules 2 and 3.
    is_dist: bool,
    /// Non-test library source (`src/`, `crates/*/src/`, minus the
    /// `sidco-perf` package) — rules 6 and 7 check its `pub` items and
    /// struct fields, and its non-test lines are the reported line count.
    is_library: bool,
    /// Code whose identifiers count as uses for rules 6 and 7: everything
    /// outside `tests/`, `benches/` and `vendor/`, with `examples/` included.
    is_caller: bool,
}

/// The benchmark package: its own `[workspace]`, and binary code, so rustc
/// reports its dead items itself.
const PERF_PACKAGE: &str = "crates/bench/src/bin/sidco-perf/";

impl FileContext {
    /// Classifies a workspace-relative path.
    fn classify(path: &str) -> Self {
        let in_dir = |names: &[&str]| {
            Path::new(path)
                .components()
                .any(|c| c.as_os_str().to_str().is_some_and(|c| names.contains(&c)))
        };
        let is_test_file = in_dir(&["tests", "benches", "examples"]);
        let is_caller = !in_dir(&["tests", "benches"]) && !path.starts_with("vendor/");
        let in_src = path.starts_with("src/")
            || (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"));
        Self {
            path: path.to_string(),
            is_test_file,
            is_dist: path.contains("crates/dist/"),
            is_library: in_src && !is_test_file && !path.starts_with(PERF_PACKAGE),
            is_caller,
        }
    }
}

/// One finding: file, 1-based line, rule id, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (e.g. `unwrap-invariant`).
    pub rule: &'static str,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Does any comment in `lines[lo..=hi]` contain `needle`?
fn comment_window(lines: &[StrippedLine], hi: usize, span: usize, needle: &str) -> bool {
    let lo = hi.saturating_sub(span);
    lines[lo..=hi].iter().any(|l| l.comment.contains(needle))
}

/// Case-insensitive keyword search over the comment window.
fn comment_window_any(lines: &[StrippedLine], hi: usize, span: usize, keys: &[&str]) -> bool {
    let lo = hi.saturating_sub(span);
    lines[lo..=hi].iter().any(|l| {
        let lower = l.comment.to_lowercase();
        keys.iter().any(|k| lower.contains(k))
    })
}

/// `needle` present in `code` at a word boundary on both sides.
fn word_in(code: &str, needle: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let left_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let right_ok =
            end == code.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

const INVARIANT_TAG: &str = "INVARIANT:";
const SAFETY_TAG: &str = "SAFETY:";
/// How far above a flagged line a justification comment may sit.
const INVARIANT_SPAN: usize = 3;
const SAFETY_SPAN: usize = 6;
const ORDERING_SPAN: usize = 6;

/// Words any of which justify an explicit atomic `Ordering` choice when they
/// appear in a nearby comment (case-insensitive). Deliberately generous: the
/// rule exists to force *a* stated reason, not to grade it.
const ORDERING_KEYS: &[&str] = &[
    "order", "relax", "seqcst", "acquire", "release", "acqrel", "fence", "atomic", "synchron",
    "lock", "observ", "race", "monoton",
];

const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

const FLOAT_MARKERS: &[&str] = &["f64", "f32", ".ceil()", ".floor()", ".round()", ".trunc()"];

/// Does the code contain a float literal (`digit . digit`)? Tuple indexing
/// (`x.0`) and ranges (`0..n`) don't match — the dot must sit between two
/// digits.
fn has_float_literal(code: &str) -> bool {
    let bytes = code.as_bytes();
    bytes
        .windows(3)
        .any(|w| w[1] == b'.' && w[0].is_ascii_digit() && w[2].is_ascii_digit())
}
const INT_CASTS: &[&str] = &[
    "as usize", "as u64", "as u32", "as u16", "as u8", "as isize", "as i64", "as i32",
];

/// Runs the per-file rules 1–5 over one stripped file and returns its
/// violations in line order.
fn scan_file(ctx: &FileContext, lines: &[StrippedLine], mask: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut violation = |line: usize, rule: &'static str, message: String| {
        out.push(Violation {
            file: ctx.path.clone(),
            line: line + 1,
            rule,
            message,
        });
    };
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        let in_test = ctx.is_test_file || mask[i];

        // Rule 1: unwrap/expect in production code.
        if !in_test {
            let has_invariant = comment_window(lines, i, INVARIANT_SPAN, INVARIANT_TAG);
            if code.contains(".unwrap()") && !has_invariant {
                violation(
                    i,
                    "unwrap-invariant",
                    "`.unwrap()` in non-test code — use `.expect(\"… poisoned\")` for lock \
                     poisoning, or add an `// INVARIANT:` comment stating why this cannot fail"
                        .to_string(),
                );
            }
            if code.contains(".expect(") && !has_invariant {
                // The message may sit on this line or wrap onto the next.
                let text: String = lines[i..(i + 3).min(lines.len())]
                    .iter()
                    .map(|l| l.strings.as_str())
                    .collect();
                if !text.contains("poisoned") {
                    violation(
                        i,
                        "unwrap-invariant",
                        "`.expect(…)` in non-test code without the lock-poisoning convention — \
                         mention `poisoned` in the message or add an `// INVARIANT:` comment"
                            .to_string(),
                    );
                }
            }
        }

        // Rule 2: float→int casts in the simulator.
        if ctx.is_dist
            && !in_test
            && INT_CASTS.iter().any(|c| code.contains(c))
            && (FLOAT_MARKERS.iter().any(|m| code.contains(m)) || has_float_literal(code))
            && !comment_window(lines, i, INVARIANT_SPAN, INVARIANT_TAG)
        {
            violation(
                i,
                "dist-cast-guard",
                "float→integer `as` cast in crates/dist — route through a guarded helper \
                 (see `projected_payload_bytes`) or add an `// INVARIANT:` comment bounding \
                 the value (`as` saturates NaN to 0 and truncates silently)"
                    .to_string(),
            );
        }

        // Rule 3: wall-clock reads in the simulator — direct std reads and
        // sidco-trace's real-clock recording surface alike.
        if ctx.is_dist && !in_test {
            let std_clock = code.contains("Instant::now") || word_in(code, "SystemTime");
            let trace_clock = ["real_now", "real_span", "RealSpanGuard"]
                .iter()
                .any(|t| word_in(code, t))
                || code.contains("Lane::Real");
            if std_clock || trace_clock {
                violation(
                    i,
                    "sim-wallclock",
                    "wall-clock read in crates/dist — the simulator's virtual clock is the \
                     only time source (trace model time through `sidco_trace::VirtualClock`, \
                     never `real_now`/`real_span`/`Lane::Real`); wall-clock reads make runs \
                     nondeterministic"
                        .to_string(),
                );
            }
        }

        // Rule 4: atomic ordering choices must be justified.
        if !in_test
            && ATOMIC_ORDERINGS.iter().any(|o| code.contains(o))
            && !comment_window_any(lines, i, ORDERING_SPAN, ORDERING_KEYS)
        {
            violation(
                i,
                "ordering-justification",
                "explicit atomic `Ordering` without a nearby justification comment — state \
                 what the ordering pairs with (fence, lock, release/acquire edge) or that \
                 the value is a pure observation"
                    .to_string(),
            );
        }

        // Rule 5: unsafe needs a SAFETY comment (test code included — an
        // unsound test is still unsound).
        if word_in(code, "unsafe") && !comment_window(lines, i, SAFETY_SPAN, SAFETY_TAG) {
            violation(
                i,
                "safety-comment",
                "`unsafe` without a `// SAFETY:` comment just above it".to_string(),
            );
        }
    }
    out
}

/// Item keywords rule 6 checks after `pub`.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// The marker that keeps a `pub` item only tests name, or a field only tests
/// read; a reason must follow.
const TEST_ONLY_TAG: &str = "lint: test-only";

/// The `(keyword, name)` of the `pub` item this code line declares, if any.
/// Qualifiers (`const fn`, `unsafe`, `async`, `extern "C"`, `static mut`)
/// are skipped; `pub(crate)` items, `pub` fields, modules and re-exports are
/// not what rule 6 checks.
fn pub_item(code: &str) -> Option<(&'static str, &str)> {
    let mut words = tokens(code)
        .into_iter()
        .filter(|token| is_ident(token))
        .skip_while(|w| *w != "pub")
        .skip(1)
        .peekable();
    let keyword = loop {
        match words.next()? {
            "unsafe" | "async" | "extern" => {}
            "const" if matches!(words.peek(), Some(&("fn" | "unsafe" | "async" | "extern"))) => {}
            word => break word,
        }
    };
    let keyword = *ITEM_KEYWORDS.iter().find(|k| **k == keyword)?;
    let name = match words.next()? {
        "mut" if keyword == "static" => words.next()?,
        name => name,
    };
    Some((keyword, name))
}

/// Whether this code line opens an `impl` block header.
fn starts_impl(code: &str) -> bool {
    let code = code.trim_start();
    let code = code.strip_prefix("unsafe ").unwrap_or(code).trim_start();
    code.strip_prefix("impl")
        .is_some_and(|rest| rest.is_empty() || rest.starts_with(['<', ' ']))
}

/// The type an `impl` header (its text up to the `{`) adds methods to: the
/// last identifier of the self type, after a top-level `for` if there is
/// one, with generics and the `where` clause dropped.
fn impl_owner(header: &str) -> Option<String> {
    let mut angle = 0usize;
    let words: Vec<&str> = tokens(header)
        .into_iter()
        .filter(|token| match *token {
            "<" => {
                angle += 1;
                false
            }
            ">" => {
                angle = angle.saturating_sub(1);
                false
            }
            token => angle == 0 && is_ident(token),
        })
        .skip_while(|w| *w != "impl")
        .skip(1)
        .take_while(|w| *w != "where")
        .collect();
    let self_type = match words.iter().position(|w| *w == "for") {
        Some(at) => &words[at + 1..],
        None => &words[..],
    };
    self_type.last().map(|w| w.to_string())
}

/// Operators of more than one character, longest first, told apart from
/// their prefixes (`=` from `==` and `=>`, `.` from `..`, `:` from `::`).
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// The operators after which a field is written, not read.
const ASSIGNMENTS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>=",
];

/// Keywords that start an item or a statement: none of them sits between a
/// struct pattern and the `=`, `=>`, `|`, `if` or `in` after it.
const STATEMENT_KEYWORDS: &[&str] = &[
    "fn", "pub", "impl", "struct", "enum", "const", "static", "mod", "use", "trait", "type", "let",
    "return", "match", "loop", "while", "#",
];

/// The tokens of one line of stripped code: identifiers, number literals
/// (`1.5` is one token, `0..n` three), the [`OPERATORS`] and single
/// punctuation characters.
fn tokens(code: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = code.trim_start();
    while let Some(c) = rest.chars().next() {
        let len = if c.is_alphanumeric() || c == '_' {
            let number = c.is_ascii_digit();
            let mut chars = rest.char_indices().peekable();
            let mut end = rest.len();
            while let Some((at, ch)) = chars.next() {
                let digit_next = chars.peek().is_some_and(|(_, n)| n.is_ascii_digit());
                if !(ch.is_alphanumeric() || ch == '_' || (number && ch == '.' && digit_next)) {
                    end = at;
                    break;
                }
            }
            end
        } else {
            OPERATORS
                .iter()
                .find(|op| rest.starts_with(*op))
                .map_or(c.len_utf8(), |op| op.len())
        };
        out.push(&rest[..len]);
        rest = rest[len..].trim_start();
    }
    out
}

/// An identifier token (keywords included).
fn is_ident(token: &str) -> bool {
    token.starts_with(|c: char| c.is_alphabetic() || c == '_')
}

/// A token that can end the path of a struct literal or pattern (`Foo`,
/// `Self`, an enum variant): an identifier that starts upper-case.
fn is_type_name(token: &str) -> bool {
    token.starts_with(char::is_uppercase)
}

/// The named field this code line of a struct body declares, if any:
/// `name: Type`, after an optional visibility.
fn field_decl(code: &str) -> Option<&str> {
    let toks = tokens(code);
    let at = match toks.as_slice() {
        ["pub", "(", ..] => toks.iter().position(|t| *t == ")")? + 1,
        ["pub", ..] => 1,
        _ => 0,
    };
    let name = *toks.get(at)?;
    (is_ident(name) && toks.get(at + 1) == Some(&":")).then_some(name)
}

/// The nesting of one file at a point, followed line by line: the open
/// `impl` bodies (whose `pub fn`s are methods) and the open judged items
/// (whose bodies hold the uses they make, and a struct's its fields).
#[derive(Default)]
struct Outline {
    /// Brace depth of the code read so far.
    depth: i64,
    /// Parenthesis and bracket depth: a `;` inside them ends no item.
    parens: i64,
    /// Each open `impl` body's owner type and the depth inside its braces.
    impls: Vec<(String, i64)>,
    /// The text of an `impl` header whose `{` has not been read yet.
    impl_header: Option<String>,
    /// Each open judged item, the depth it was declared at, and whether its
    /// `{` has been read.
    items: Vec<(usize, i64, bool)>,
}

impl Outline {
    /// The owner of the innermost `impl` body open before the current line.
    fn owner(&self) -> Option<&str> {
        self.impls.last().map(|(owner, _)| owner.as_str())
    }

    /// The innermost judged item open at the current line.
    fn item(&self) -> Option<usize> {
        self.items.last().map(|&(item, _, _)| item)
    }

    /// The judged item whose braces hold the current line directly.
    fn body(&self) -> Option<usize> {
        self.items
            .last()
            .filter(|&&(_, d, entered)| entered && d + 1 == self.depth)
            .map(|&(item, _, _)| item)
    }

    /// Opens the judged item the current line declares. It closes with its
    /// brace block, or at a `;` outside brackets if no block comes first.
    fn open_item(&mut self, item: usize) {
        self.items.push((item, self.depth, false));
    }

    /// Whether the current line is part of an `impl` header.
    fn in_impl_header(&self, code: &str) -> bool {
        self.impl_header.is_some() || starts_impl(code)
    }

    /// Reads one line of stripped code, and returns the self type of the
    /// `impl` header whose `{` it holds, if any.
    fn advance(&mut self, code: &str) -> Option<String> {
        let mut header_owner = None;
        if self.impl_header.is_none() && starts_impl(code) {
            self.impl_header = Some(String::new());
        }
        if let Some(header) = self.impl_header.as_mut() {
            header.push_str(code);
            header.push(' ');
            // A header holds no braces, so its `{` opens one level deeper
            // than the line starts at.
            if let Some(at) = header.find('{') {
                header_owner = impl_owner(&header[..at]);
                self.impls
                    .extend(header_owner.clone().map(|owner| (owner, self.depth + 1)));
                self.impl_header = None;
            }
        }
        for c in code.chars() {
            let depth = self.depth;
            match c {
                '{' => {
                    self.depth += 1;
                    if let Some(item) = self.items.last_mut() {
                        item.2 |= item.1 == depth;
                    }
                }
                '}' => {
                    self.depth -= 1;
                    let depth = self.depth;
                    self.impls.retain(|(_, d)| *d <= depth);
                    self.items
                        .retain(|&(_, d, entered)| d < depth || (d == depth && !entered));
                }
                '(' | '[' => self.parens += 1,
                ')' | ']' => self.parens -= 1,
                ';' if self.parens == 0 => {
                    self.items.retain(|&(_, d, entered)| entered || d != depth);
                }
                _ => {}
            }
        }
        header_owner
    }
}

/// Where non-test code names each key: the judged items whose bodies hold a
/// use, and `None` for a use outside every judged item.
type Sites<K> = HashMap<K, Vec<Option<usize>>>;

/// Records a use of `key` inside the judged item `at`.
fn note<K: std::hash::Hash + Eq>(sites: &mut Sites<K>, key: K, at: Option<usize>) {
    let at_list = sites.entry(key).or_default();
    if at_list.last() != Some(&at) {
        at_list.push(at);
    }
}

/// Is one of these uses outside every item that is `out`?
fn live(sites: Option<&Vec<Option<usize>>>, out: &[bool]) -> bool {
    sites.is_some_and(|at| at.iter().any(|item| item.is_none_or(|i| !out[i])))
}

/// A declaration rules 6 and 7 judge: a `pub` item of library code, or a
/// named field (`keyword` "field") of a `pub struct` among them.
struct Item {
    path: String,
    /// 1-based line of the declaration.
    line: usize,
    keyword: &'static str,
    name: String,
    /// The `impl` type of a method; `None` for every other item.
    owner: Option<String>,
    /// The judged item whose body declares this one: a field's struct.
    parent: Option<usize>,
    /// Carries a reasoned `lint: test-only` marker.
    marked: bool,
}

/// How non-test code reaches items and fields, by the judged item each use
/// sits in.
#[derive(Default)]
struct Uses {
    /// Every identifier but a judged declaration's own name: how items
    /// other than methods are reached.
    words: Sites<String>,
    /// Method names called as `.name(` or `.name::<`.
    calls: Sites<String>,
    /// `(owner, name)` pairs named by path as `Owner::name` or `Self::name`.
    paths: Sites<(String, String)>,
    /// Field names read.
    reads: Sites<String>,
}

impl Uses {
    /// Records the method uses of one line's tokens; `Self` stands for
    /// `self_owner`. A path followed by `::` (other than a turbofish) names a
    /// module, not a method.
    fn record_methods(&mut self, toks: &[&str], self_owner: Option<&str>, at: Option<usize>) {
        for (i, &name) in toks.iter().enumerate().skip(1) {
            let after = |k: usize| toks.get(i + k).copied().unwrap_or("");
            let turbofish = after(1) == "::" && after(2) == "<";
            if !is_ident(name) {
                continue;
            }
            if toks[i - 1] == "." {
                if after(1) == "(" || turbofish {
                    note(&mut self.calls, name.to_string(), at);
                }
            } else if toks[i - 1] == "::" && (after(1) != "::" || turbofish) {
                // The owner is the path segment before the `::`, past the
                // generic arguments it may end in (`a::B::<T>::name`).
                let mut end = i - 1;
                if end > 0 && toks[end - 1] == ">" {
                    let mut depth = 0i32;
                    for j in (0..end).rev() {
                        match toks[j] {
                            ">" => depth += 1,
                            "<" => depth -= 1,
                            _ => {}
                        }
                        if depth == 0 {
                            end = j - usize::from(j > 0 && toks[j - 1] == "::");
                            break;
                        }
                    }
                }
                let owner = end.checked_sub(1).map(|k| toks[k]);
                let owner = if owner == Some("Self") {
                    self_owner
                } else {
                    owner
                };
                if let Some(owner) = owner.filter(|o| o.starts_with(char::is_alphabetic)) {
                    note(&mut self.paths, (owner.to_string(), name.to_string()), at);
                }
            }
        }
    }

    /// Records the field reads of one file's non-test tokens, each paired
    /// with the judged item it sits in: a `.name` that no call, turbofish or
    /// assignment operator follows, and every identifier inside a struct
    /// pattern or a `matches!` call.
    fn record_reads(&mut self, toks: &[(&str, Option<usize>)]) {
        for (i, &(token, _)) in toks.iter().enumerate() {
            let next = |k: usize| toks.get(i + k).map_or("", |t| t.0);
            if token == "." && is_ident(next(1)) {
                let after = next(2);
                if !(after == "(" || after == "::" || ASSIGNMENTS.contains(&after)) {
                    note(&mut self.reads, next(1).to_string(), toks[i + 1].1);
                }
            }
            let before = |k: usize| i.checked_sub(k).map_or("", |at| toks[at].0);
            let group = token == "{" && is_type_name(before(1));
            let macro_call = token == "(" && before(1) == "!" && before(2) == "matches";
            if group || macro_call {
                let close = closing(toks, i);
                if macro_call || is_pattern(toks, i, close) {
                    for &(word, at) in &toks[i + 1..close] {
                        if is_ident(word) {
                            note(&mut self.reads, word.to_string(), at);
                        }
                    }
                }
            }
        }
    }

    /// Does a use outside every item that is `out` reach `item`?
    fn reach(&self, item: &Item, out: &[bool]) -> bool {
        match (item.keyword, &item.owner) {
            ("field", _) => live(self.reads.get(&item.name), out),
            (_, Some(owner)) => {
                live(self.calls.get(&item.name), out)
                    || live(self.paths.get(&(owner.clone(), item.name.clone())), out)
            }
            _ => live(self.words.get(&item.name), out),
        }
    }
}

/// The index of the bracket that closes the one at `open`, or the end.
fn closing(toks: &[(&str, Option<usize>)], open: usize) -> usize {
    let mut depth = 0usize;
    for (at, &(token, _)) in toks.iter().enumerate().skip(open) {
        match token {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return at;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Is the struct group `Path { … }` at `toks[open..=close]` a pattern rather
/// than a literal? It is when its fields end in a rest `..`, when a `:`
/// follows it (a parameter), or when `=`, `=>`, `|`, `if` or `in` follows it
/// before its statement ends, outside any comma-separated list the group is
/// one element of (a match arm's `X => Foo { a },` is followed by the next
/// arm's `=>`, but inside the arm list).
fn is_pattern(toks: &[(&str, Option<usize>)], open: usize, close: usize) -> bool {
    let at = |k: usize| toks.get(k).map_or("", |t| t.0);
    if (close > open + 1 && at(close - 1) == "..") || at(close + 1) == ":" {
        return true;
    }
    let (mut depth, mut nested) = (0i64, 0usize);
    // The bracket depth of the list the group is an element of.
    let mut listed: Option<i64> = None;
    for k in close + 1..toks.len() {
        let token = at(k);
        if nested > 0 {
            match token {
                "{" => nested += 1,
                "}" => nested -= 1,
                _ => {}
            }
            continue;
        }
        match token {
            "{" if is_type_name(at(k - 1)) => nested = 1,
            "{" | "}" => return false,
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                listed = listed.filter(|l| depth >= *l);
            }
            ";" if depth <= 0 => return false,
            "," if depth <= 0 && listed.is_none() => listed = Some(depth),
            "=" | "=>" | "|" | "if" | "in" if depth <= 0 && listed.is_none() => return true,
            _ if STATEMENT_KEYWORDS.contains(&token) => return false,
            _ => {}
        }
    }
    false
}

/// Does this comment carry the test-only marker with a reason after it?
fn test_only_marker(comment: &str) -> bool {
    comment
        .trim()
        .strip_prefix(TEST_ONLY_TAG)
        .is_some_and(|reason| reason.starts_with(char::is_whitespace) && !reason.trim().is_empty())
}

/// What one lint run found.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Every rule's findings, sorted by file then line.
    pub violations: Vec<Violation>,
    /// Non-test lines of the library files: `src/` and `crates/*/src/`,
    /// minus the `sidco-perf` package and test files.
    pub library_lines: usize,
    /// Reasoned `lint: test-only` markers that keep a `pub` item or a field.
    pub test_only_markers: usize,
}

/// Runs every rule over `(workspace-relative path, source)` pairs. Rules 1–5
/// judge each file alone. Rules 6 and 7 read all the callers' code once,
/// noting which judged item each use sits in, then judge each library `pub`
/// item and struct field against the uses that sit in live code.
pub fn scan_sources(files: &[(String, String)]) -> Scan {
    let mut violations = Vec::new();
    let mut library_lines = 0;
    let mut uses = Uses::default();
    let mut items: Vec<Item> = Vec::new();
    for (path, source) in files {
        let ctx = FileContext::classify(path);
        let lines = strip(source);
        let mask = test_region_mask(&lines);
        violations.extend(scan_file(&ctx, &lines, &mask));
        let mut outline = Outline::default();
        let mut in_use = false;
        // The words of an `impl` header read so far. The header's self type
        // is no use of that type, and is known only at the header's `{`, so
        // its words wait until then.
        let mut header_words = Vec::new();
        // The non-test tokens, each with the judged item it sits in.
        let mut toks = Vec::new();
        // `strip` yields one empty line past a trailing newline.
        let real_lines = source.lines().count();
        for (i, line) in lines.iter().enumerate().take(real_lines) {
            let code = &line.code;
            let owner = outline.owner().map(str::to_string);
            let declared = if !ctx.is_library || mask[i] {
                None
            } else if let Some((keyword, name)) = pub_item(code) {
                // A `fn` in an `impl` body opened on an earlier line (as
                // rustfmt lays every body out) is a method; every other item
                // is judged by its name's word count.
                let method = owner.clone().filter(|_| keyword == "fn");
                Some((keyword, name, method, outline.item()))
            } else {
                let fields = outline.body().filter(|&s| items[s].keyword == "struct");
                fields.and_then(|s| Some(("field", field_decl(code)?, None, Some(s))))
            };
            // A declaration does not name itself.
            let mut own_name = declared.as_ref().map(|&(_, name, _, _)| name);
            if let Some((keyword, name, owner, parent)) = declared {
                items.push(Item {
                    path: path.clone(),
                    line: i + 1,
                    keyword,
                    name: name.to_string(),
                    owner,
                    parent,
                    marked: i > 0 && test_only_marker(&lines[i - 1].comment),
                });
                if keyword != "field" {
                    outline.open_item(items.len() - 1);
                }
            }
            let at = outline.item();
            let in_header = outline.in_impl_header(code);
            let header_owner = outline.advance(code);
            if mask[i] {
                continue;
            }
            library_lines += usize::from(ctx.is_library);
            if !ctx.is_caller {
                continue;
            }
            let line_toks = tokens(code);
            let mut body_from = 0;
            if in_header {
                let open = line_toks.iter().position(|token| *token == "{");
                body_from = open.map_or(line_toks.len(), |open| open + 1);
                let head = line_toks[..body_from]
                    .iter()
                    .filter(|token| is_ident(token));
                header_words.extend(head.map(|&word| (word, at)));
                if open.is_some() {
                    for (word, at) in header_words.drain(..) {
                        if header_owner.as_deref() != Some(word) {
                            note(&mut uses.words, word.to_string(), at);
                        }
                    }
                }
            }
            for &word in line_toks[body_from..]
                .iter()
                .filter(|token| is_ident(token))
            {
                if own_name == Some(word) {
                    own_name = None;
                } else {
                    note(&mut uses.words, word.to_string(), at);
                }
            }
            // A `use` item, which may span lines, reaches no method.
            let trimmed = code.trim_start();
            in_use |= ["use ", "pub use ", "pub(crate) use "]
                .iter()
                .any(|u| trimmed.starts_with(u));
            if !in_use {
                uses.record_methods(&line_toks, owner.as_deref(), at);
            }
            in_use &= !code.contains(';');
            toks.extend(line_toks.into_iter().map(|token| (token, at)));
        }
        uses.record_reads(&toks);
    }
    // Rule 6 to a fixpoint: an item is out when it is marked, judged dead or
    // declared inside an item that is out, and a use inside an out item
    // reaches nothing. Each round judges the items still in against the uses
    // left; it ends when a round finds no new dead item. Rule 7 then judges
    // the fields of the structs still in.
    let mut dead = vec![false; items.len()];
    let mut out = vec![false; items.len()];
    for fields in [false, true] {
        loop {
            for (i, item) in items.iter().enumerate() {
                out[i] = item.marked || dead[i] || item.parent.is_some_and(|p| out[p]);
            }
            let fresh: Vec<usize> = (0..items.len())
                .filter(|&i| (items[i].keyword == "field") == fields)
                .filter(|&i| !out[i] && !uses.reach(&items[i], &out))
                .collect();
            if fresh.is_empty() {
                break;
            }
            for i in fresh {
                dead[i] = true;
            }
        }
    }
    for (item, _) in items.iter().zip(&dead).filter(|(_, dead)| **dead) {
        let (rule, what) = match item.parent.filter(|_| item.keyword == "field") {
            Some(s) => (
                "dead-field",
                format!("`{}::{}` is read", items[s].name, item.name),
            ),
            None => (
                "dead-pub",
                format!("`pub {} {}` is named", item.keyword, item.name),
            ),
        };
        violations.push(Violation {
            file: item.path.clone(),
            line: item.line,
            rule,
            message: format!(
                "{what} nowhere in live non-test code but its declaration — delete it, or \
                 keep a test oracle, fixture or test-only field with `// {TEST_ONLY_TAG} \
                 <reason>` on the line above"
            ),
        });
    }
    violations.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Scan {
        violations,
        library_lines,
        test_only_markers: items.iter().filter(|item| item.marked).count(),
    }
}

/// Recursively collects the `.rs` files under `root`, skipping build output
/// and VCS metadata, in sorted order (stable diagnostics).
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scans every `.rs` file under `root` (see [`scan_sources`]).
pub fn scan_workspace(root: &Path) -> std::io::Result<Scan> {
    let mut files = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(scan_sources(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(files: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(path, src)| (path.to_string(), src.to_string()))
            .collect();
        scan_sources(&files).violations
    }

    fn rules(path: &str, src: &str) -> Vec<&'static str> {
        scan(&[(path, src)]).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn stripper_separates_code_comments_and_strings() {
        let src = "let x = \"a // not comment\"; // real: .unwrap()\nlet y = 'a';";
        let lines = strip(src);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].code.contains("let x = \"\";"));
        assert!(lines[0].comment.contains("real: .unwrap()"));
        assert!(lines[0].strings.contains("a // not comment"));
        assert!(lines[1].code.contains("let y = '';"));
    }

    #[test]
    fn stripper_handles_raw_strings_block_comments_and_lifetimes() {
        let src = "let r = r#\"as usize .unwrap()\"#; /* outer /* nested */ still */ fn f<'a>(x: &'a str) {}";
        let lines = strip(src);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].strings.contains("as usize .unwrap()"));
        assert!(lines[0].comment.contains("nested"));
        assert!(lines[0].comment.contains("still"));
        assert!(lines[0].code.contains("fn f<'a>(x: &'a str) {}"));
    }

    #[test]
    fn cfg_test_regions_are_masked_by_brace_depth() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}";
        let lines = strip(src);
        let mask = test_region_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn unwrap_rule_fires_and_is_suppressed() {
        let bad = "fn f() { x.unwrap(); }";
        assert_eq!(rules("crates/x/src/a.rs", bad), vec!["unwrap-invariant"]);
        let invariant = "// INVARIANT: x was just inserted above\nfn f() { x.unwrap(); }";
        assert!(rules("crates/x/src/a.rs", invariant).is_empty());
        let poisoned = "fn f() { m.lock().expect(\"state poisoned\"); }";
        assert!(rules("crates/x/src/a.rs", poisoned).is_empty());
        let bare_expect = "fn f() { x.expect(\"always works\"); }";
        assert_eq!(
            rules("crates/x/src/a.rs", bare_expect),
            vec!["unwrap-invariant"]
        );
        // Test code by path or region is exempt.
        assert!(rules("crates/x/tests/a.rs", bad).is_empty());
        let in_test_mod = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}";
        assert!(rules("crates/x/src/a.rs", in_test_mod).is_empty());
        // unwrap_or_else is not unwrap.
        assert!(rules("crates/x/src/a.rs", "fn f() { x.unwrap_or_else(g); }").is_empty());
    }

    #[test]
    fn expect_message_may_wrap_to_the_next_line() {
        let wrapped = "fn f() {\n m.lock().expect(\n  \"sleep lock poisoned\",\n ); }";
        assert!(rules("crates/x/src/a.rs", wrapped).is_empty());
    }

    #[test]
    fn dist_cast_rule_is_scoped_to_dist_and_float_sources() {
        let bad = "let n = (bytes as f64 / rate).ceil() as usize;";
        assert_eq!(rules("crates/dist/src/a.rs", bad), vec!["dist-cast-guard"]);
        // Same code outside crates/dist: not this rule's business.
        assert!(rules("crates/core/src/a.rs", bad).is_empty());
        // Integer-to-integer casts in dist are fine.
        assert!(rules("crates/dist/src/a.rs", "let n = k as usize;").is_empty());
        // Bare float literals count as float sources too.
        assert_eq!(
            rules(
                "crates/dist/src/a.rs",
                "let n = (2.0 * delta * d) as usize;"
            ),
            vec!["dist-cast-guard"]
        );
        // …but tuple indexing and ranges are not float literals.
        assert!(rules("crates/dist/src/a.rs", "let n = pair.0 as usize;").is_empty());
        let guarded = "// INVARIANT: rate >= 1.0, so the quotient fits usize\nlet n = (bytes as f64 / rate).ceil() as usize;";
        assert!(rules("crates/dist/src/a.rs", guarded).is_empty());
    }

    #[test]
    fn wallclock_rule_fires_only_in_dist() {
        let bad = "let t = std::time::Instant::now();";
        assert_eq!(rules("crates/dist/src/a.rs", bad), vec!["sim-wallclock"]);
        assert!(rules("crates/bench/src/a.rs", bad).is_empty());
        assert_eq!(
            rules("crates/dist/src/a.rs", "let t = SystemTime::now();"),
            vec!["sim-wallclock"]
        );
        // Word boundary: `SystemTimeLike` is not `SystemTime`.
        assert!(rules("crates/dist/src/a.rs", "struct SystemTimeLike;").is_empty());
        // The trace crate's real-clock surface is banned in dist too…
        for bad in [
            "let g = sink.real_span(\"x\");",
            "let t = sink.real_now();",
            "let track = sink.track(\"t\", Lane::Real);",
            "fn f(g: RealSpanGuard) {}",
        ] {
            assert_eq!(
                rules("crates/dist/src/a.rs", bad),
                vec!["sim-wallclock"],
                "{bad}"
            );
            assert!(rules("crates/runtime/src/a.rs", bad).is_empty(), "{bad}");
        }
        // …while the virtual facade is the sanctioned clock.
        assert!(rules(
            "crates/dist/src/a.rs",
            "let mut clock = VirtualClock::new(0.0); let t = sink.track(\"s\", Lane::Virtual);"
        )
        .is_empty());
    }

    #[test]
    fn ordering_rule_wants_a_nearby_justification() {
        let bad = "fn f() { c.fetch_add(1, Ordering::Relaxed); }";
        assert_eq!(
            rules("crates/x/src/a.rs", bad),
            vec!["ordering-justification"]
        );
        let good = "// Relaxed: pure observation, nothing is inferred from the value\nfn f() { c.fetch_add(1, Ordering::Relaxed); }";
        assert!(rules("crates/x/src/a.rs", good).is_empty());
        // Plain `Ordering` imports and `cmp::Ordering` uses don't fire.
        assert!(rules("crates/x/src/a.rs", "use std::sync::atomic::Ordering;").is_empty());
        assert!(rules(
            "crates/x/src/a.rs",
            "fn f() -> Ordering { Ordering::Equal }"
        )
        .is_empty());
    }

    #[test]
    fn safety_rule_requires_a_safety_comment() {
        let bad = "fn f() { unsafe { g() } }";
        assert_eq!(rules("crates/x/src/a.rs", bad), vec!["safety-comment"]);
        let good = "// SAFETY: g has no preconditions on this platform\nfn f() { unsafe { g() } }";
        assert!(rules("crates/x/src/a.rs", good).is_empty());
        // `unsafe_code` (the lint name) is not the keyword `unsafe`.
        assert!(rules("crates/x/src/a.rs", "#![forbid(unsafe_code)]").is_empty());
        // Unsafe in tests still needs a SAFETY comment.
        assert_eq!(rules("crates/x/tests/a.rs", bad), vec!["safety-comment"]);
    }

    /// The `dead-pub` findings of a scan, as `(file, line)`.
    fn dead(files: &[(&str, &str)]) -> Vec<(String, usize)> {
        scan(files)
            .into_iter()
            .filter(|v| v.rule == "dead-pub")
            .map(|v| (v.file, v.line))
            .collect()
    }

    const LONE: (&str, &str) = ("crates/a/src/lib.rs", "fn f() {}\npub fn lone() {}\n");

    #[test]
    fn dead_pub_flags_a_lone_declaration() {
        assert_eq!(dead(&[LONE]), vec![("crates/a/src/lib.rs".to_string(), 2)]);
        assert_eq!(rules(LONE.0, LONE.1), vec!["dead-pub"]);
        // The facade crate's `src/` is library code too.
        assert_eq!(dead(&[("src/lib.rs", LONE.1)]).len(), 1);
    }

    #[test]
    fn dead_pub_is_cleared_by_any_non_test_caller() {
        for caller in [
            "crates/b/src/lib.rs",
            "crates/a/src/other.rs",
            "crates/bench/src/bin/tool.rs",
            "examples/demo.rs",
            "crates/bench/src/bin/sidco-perf/src/main.rs",
        ] {
            let uses = (caller, "fn g() { a::lone(); }");
            assert!(dead(&[LONE, uses]).is_empty(), "{caller}");
        }
    }

    #[test]
    fn dead_pub_ignores_tests_comments_and_strings() {
        for (path, src) in [
            ("tests/a.rs", "fn t() { a::lone(); }"),
            ("crates/b/tests/a.rs", "fn t() { a::lone(); }"),
            ("crates/b/benches/a.rs", "fn t() { a::lone(); }"),
            (
                "crates/b/src/lib.rs",
                "#[cfg(test)]\nmod tests {\n fn t() { lone(); }\n}",
            ),
            (
                "crates/b/src/lib.rs",
                "// lone() is called from …\n/// [`lone`]\nfn g() {}",
            ),
            ("crates/b/src/lib.rs", "fn g() { h(\"lone\"); }"),
            ("vendor/stub/src/lib.rs", "fn g() { lone(); }"),
        ] {
            assert_eq!(dead(&[LONE, (path, src)]).len(), 1, "{path}: {src}");
        }
    }

    #[test]
    fn dead_pub_needs_a_reasoned_test_only_marker() {
        let marked = "/// Doc.\n// lint: test-only oracle of tests/a.rs\npub fn lone() {}";
        assert!(dead(&[("crates/a/src/lib.rs", marked)]).is_empty());
        for unreasoned in [
            "// lint: test-only\npub fn lone() {}",
            "// lint: test-only   \npub fn lone() {}",
            "// lint: test-onlyish reason\npub fn lone() {}",
            // The marker must sit on the line just above the declaration.
            "// lint: test-only oracle\n\npub fn lone() {}",
        ] {
            assert_eq!(
                dead(&[("crates/a/src/lib.rs", unreasoned)]).len(),
                1,
                "{unreasoned}"
            );
        }
    }

    #[test]
    fn dead_pub_skips_vendor_and_the_benchmark_package() {
        assert!(dead(&[("vendor/rand/src/lib.rs", LONE.1)]).is_empty());
        assert!(dead(&[("crates/bench/src/bin/sidco-perf/src/run.rs", LONE.1)]).is_empty());
        // Test files and test regions declare nothing the rule checks.
        assert!(dead(&[("crates/a/tests/util.rs", LONE.1)]).is_empty());
        assert!(dead(&[("crates/a/src/lib.rs", "#[cfg(test)]\npub fn t() {}")]).is_empty());
    }

    #[test]
    fn dead_pub_parses_item_kinds_and_qualifiers() {
        for (src, name) in [
            ("pub struct Lone;", Some(("struct", "Lone"))),
            ("pub enum Lone {}", Some(("enum", "Lone"))),
            ("pub unsafe trait Lone {}", Some(("trait", "Lone"))),
            ("pub const LONE: u8 = 0;", Some(("const", "LONE"))),
            ("pub const fn lone() {}", Some(("fn", "lone"))),
            ("pub async unsafe fn lone() {}", Some(("fn", "lone"))),
            ("pub extern \"\" fn lone() {}", Some(("fn", "lone"))),
            ("pub static mut LONE: u8 = 0;", Some(("static", "LONE"))),
            ("pub type Lone = u8;", Some(("type", "Lone"))),
            ("    pub fn lone(&self) {}", Some(("fn", "lone"))),
            ("pub(crate) fn lone() {}", None),
            ("pub lone: u8,", None),
            ("pub mod lone;", None),
            ("pub use a::lone;", None),
        ] {
            assert_eq!(pub_item(src), name, "{src}");
        }
    }

    #[test]
    fn dead_pub_flags_same_name_declarations_that_nothing_calls() {
        let two = "pub fn new() {}\nimpl A { pub fn lone() {} }\nimpl B { pub fn lone() {} }";
        assert_eq!(dead(&[("crates/a/src/lib.rs", two)]).len(), 3);
        let called = ("crates/b/src/lib.rs", "fn g() { A::lone(); A::new(); }");
        assert!(dead(&[("crates/a/src/lib.rs", two), called]).is_empty());
    }

    /// Two owners of a method `make`, at lines 4 (`A`) and 10 (`B`).
    const MAKERS: (&str, &str) = (
        "crates/a/src/lib.rs",
        "pub struct A;\npub struct B<T>(T);\nimpl A {\n    pub fn make(&self) {}\n}\nimpl<T: Clone> B<T>\nwhere\n    T: Copy,\n{\n    pub fn make() {}\n}\nfn g(a: A, b: B<u8>) {}\n",
    );

    /// The `dead-pub` lines of `MAKERS` plus one caller file.
    fn dead_makers(caller: &str) -> Vec<usize> {
        dead(&[MAKERS, ("crates/b/src/lib.rs", caller)])
            .into_iter()
            .map(|(_, line)| line)
            .collect()
    }

    #[test]
    fn dead_pub_flags_a_method_only_tests_call_even_when_its_name_is_shared() {
        assert_eq!(dead_makers(""), vec![4, 10]);
        let shared = "mod make {}\nstruct S {\n    make: u8,\n}\nuse a::A::make;\nfn h(s: S) -> u8 {\n    let make = s.make;\n    make::f();\n    make\n}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        A.make();\n        A::make(&A);\n    }\n}\n";
        assert_eq!(dead_makers(shared), vec![4, 10]);
    }

    #[test]
    fn dead_pub_method_is_cleared_by_a_non_test_call() {
        assert!(dead_makers("fn h(a: &A) {\n    a.make();\n}").is_empty());
        assert!(dead_makers("fn h(a: &A) {\n    a.make::<u8>();\n}").is_empty());
        // A range is not a receiver.
        assert_eq!(dead_makers("fn h() {\n    0..make(1);\n}"), vec![4, 10]);
    }

    #[test]
    fn dead_pub_method_paths_clear_only_their_owner() {
        assert_eq!(dead_makers("fn h() {\n    A::make(&A);\n}"), vec![10]);
        assert_eq!(dead_makers("fn h() {\n    a::B::<u8>::make();\n}"), vec![4]);
        assert_eq!(dead_makers("fn h() {\n    ::a::A::make(&A);\n}"), vec![10]);
        // A path from the crate root names no owner.
        assert_eq!(dead_makers("fn h() {\n    ::make(1);\n}"), vec![4, 10]);
        // A method passed as a fn value is reached by its path too.
        assert_eq!(
            dead_makers("fn h(v: &[A]) {\n    v.iter().for_each(A::make);\n}"),
            vec![10]
        );
    }

    #[test]
    fn dead_pub_self_path_clears_its_own_impl() {
        let own = "pub struct A;\npub struct B;\nimpl A {\n    pub fn make() {}\n    pub fn go() {\n        Self::make();\n    }\n}\nimpl B {\n    pub fn make() {}\n}\nfn g() {\n    A::go();\n    let _ = B;\n}\n";
        assert_eq!(
            dead(&[("crates/a/src/lib.rs", own)]),
            vec![("crates/a/src/lib.rs".to_string(), 10)]
        );
    }

    #[test]
    fn dead_pub_judges_free_functions_by_their_word_count() {
        assert_eq!(dead(&[LONE]).len(), 1);
        // Every non-test spelling of a free function's name counts, as it
        // always has: a binding, a field, a module path and a `use` item.
        for caller in [
            "fn h() {\n    let lone = 1;\n}",
            "fn h(s: S) {\n    s.lone;\n}",
            "fn h() {\n    lone::f();\n}",
            "use a::lone;",
        ] {
            assert!(
                dead(&[LONE, ("crates/b/src/lib.rs", caller)]).is_empty(),
                "{caller}"
            );
        }
    }

    #[test]
    fn dead_pub_impl_headers_do_not_name_their_self_type() {
        // `Lone` is named only as the self type of its own `impl` headers,
        // one of them spread over several lines, so it is dead. The trait it
        // implements and the type in a header's generic arguments are named.
        let src = "pub struct Lone;\npub trait Shown {}\npub struct Arg;\nimpl Lone {\n    fn f(&self) {}\n}\nimpl Shown for Lone {}\nimpl From<Arg> for Lone\nwhere\n    Arg: Copy,\n{\n    fn from(_: Arg) -> Self {\n        Self\n    }\n}\n";
        let lib = ("crates/a/src/lib.rs", src);
        assert_eq!(dead(&[lib]), vec![("crates/a/src/lib.rs".to_string(), 1)]);
        // Any use outside a header still reaches it.
        for caller in ["fn g(_: Lone) {}", "impl Shown for Vec<Lone> {}"] {
            assert!(
                dead(&[lib, ("crates/b/src/lib.rs", caller)]).is_empty(),
                "{caller}"
            );
        }
    }

    /// The `(rule, line)` of every rule-6 and rule-7 finding of a scan.
    fn dead_code(files: &[(&str, &str)]) -> Vec<(&'static str, usize)> {
        scan(files)
            .into_iter()
            .filter(|v| v.rule.starts_with("dead-"))
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn dead_pub_flags_an_item_only_a_marked_item_uses() {
        let src = "// lint: test-only oracle of tests/a.rs\npub fn oracle(s: &S) {\n    helper();\n    s.peek();\n}\npub struct S;\nimpl S {\n    pub fn peek(&self) {}\n}\npub fn helper() {}\nfn g(_: S) {}\n";
        let lib = ("crates/a/src/lib.rs", src);
        assert_eq!(dead_code(&[lib]), vec![("dead-pub", 8), ("dead-pub", 10)]);
        let live = (
            "crates/b/src/lib.rs",
            "fn h(s: &a::S) {\n    a::helper();\n    s.peek();\n}",
        );
        assert!(dead_code(&[lib, live]).is_empty());
    }

    #[test]
    fn dead_pub_flags_every_link_of_a_dead_chain() {
        // `a` calls `b`, `b` calls `c` and the method `S::d`; nothing calls
        // `a`. Each round frees the next link.
        let src = "pub fn a() {\n    b();\n}\npub fn b() {\n    c();\n    S.d();\n}\npub fn c() {}\npub struct S;\nimpl S {\n    pub fn d(&self) {}\n}\nfn g(_: S) {}\n";
        assert_eq!(
            dead_code(&[("crates/a/src/lib.rs", src)]),
            vec![
                ("dead-pub", 1),
                ("dead-pub", 4),
                ("dead-pub", 8),
                ("dead-pub", 11)
            ]
        );
        let calls_a = ("examples/e.rs", "fn main() {\n    x::a();\n}");
        assert!(dead_code(&[("crates/a/src/lib.rs", src), calls_a]).is_empty());
    }

    #[test]
    fn dead_pub_item_bodies_end_at_their_brace_or_semicolon() {
        // The use in `g` sits after each dead item's body has closed, so it
        // reaches `helper`.
        for dead_item in [
            "pub fn gone() {\n}",
            "pub const GONE: [u8; 2] = [0, 1];\n",
            "pub struct Gone<T>\nwhere\n    T: Copy,\n{\n    f: T,\n}",
            "pub type Gone = fn(u8) -> u8;\n",
        ] {
            let src = format!("{dead_item}\nfn g() {{\n    helper();\n}}\npub fn helper() {{}}\n");
            assert_eq!(
                dead_code(&[("crates/a/src/lib.rs", &src)]),
                vec![("dead-pub", 1)],
                "{dead_item}"
            );
        }
    }

    /// A live struct with four fields, at lines 2 to 5.
    const FIELDS: (&str, &str) = (
        "crates/a/src/lib.rs",
        "pub struct S {\n    pub a: u8,\n    pub(crate) b: u8,\n    c: u8,\n    pub d: Vec<u8>,\n}\nfn g(_: S) {}\n",
    );

    /// The `dead-field` lines of `FIELDS` plus one caller file.
    fn dead_fields(caller: &str) -> Vec<usize> {
        dead_code(&[FIELDS, ("crates/b/src/lib.rs", caller)])
            .into_iter()
            .map(|(_, line)| line)
            .collect()
    }

    #[test]
    fn dead_field_counts_writes_as_no_reads() {
        assert_eq!(dead_fields(""), vec![2, 3, 4, 5]);
        // An initialiser, an assignment and a compound assignment write;
        // a method called on a field reads it.
        let writes = "fn make(c: u8) -> S {\n    let mut s = S { a: 1, b: 2, c, d: Vec::new() };\n    s.a = 3;\n    s.b += 1;\n    s.c <<= 1;\n    s.d.push(1);\n    s\n}\n";
        assert_eq!(dead_fields(writes), vec![2, 3, 4]);
        // A method that shares a field's name does not read it.
        assert_eq!(
            dead_fields("fn f(s: &S) {\n    s.a();\n}"),
            vec![2, 3, 4, 5]
        );
        for literal in [
            "fn f(x: u8) -> S {\n    S { a: x, b: x, c: x, d: vec![] }\n}",
            "fn f(k: u8) -> S {\n    match k {\n        0 => S { a, b, c, d },\n        _ => S { a: 1, b: 1, c: 1, d },\n    }\n}",
            "fn f() {\n    let p = (S { a, b, c, d }, 1);\n    h(S { a, b, c, d }, |x| x, y);\n}",
            "fn f() -> Vec<S> {\n    vec![S { a, b, c, d }; 2]\n}",
        ] {
            assert_eq!(dead_fields(literal), vec![2, 3, 4, 5], "{literal}");
        }
    }

    #[test]
    fn dead_field_is_cleared_by_a_read_or_a_destructuring_pattern() {
        for read in [
            "fn f(s: &S) -> u8 {\n    s.a\n}",
            "fn f(s: &S) -> bool {\n    s.a == 1 && g(&s.a)\n}",
            "fn f(s: &S) -> u8 {\n    let S { a, .. } = s;\n    *a\n}",
            "fn f(s: S) -> u8 {\n    match s {\n        S {\n            a,\n            b: 0,\n            c: _,\n            d: _,\n        } => a,\n        _ => 0,\n    }\n}",
            "fn f(p: (S, u8)) -> u8 {\n    let (S { a, b, c, d }, _) = p;\n    a\n}",
            "fn f(v: &[S]) {\n    for S { a, b, c, d } in v {}\n}",
            "fn f(s: &S) -> bool {\n    matches!(s, S { a: 1, b: 2, c: 3, d: _ })\n}",
            "fn f(S { a, b, c, d }: S) {}",
            "fn f(v: Vec<S>) {\n    v.into_iter().for_each(|S { a, b, c, d }| drop(a));\n}",
            "fn f(s: Option<S>) {\n    if let Some(S { a, b, c, d }) = s {}\n}",
        ] {
            assert!(!dead_fields(read).contains(&2), "{read}");
        }
    }

    #[test]
    fn dead_field_reads_count_only_in_live_non_test_code() {
        for (path, src) in [
            (
                "crates/b/src/lib.rs",
                "#[cfg(test)]\nmod tests {\n    fn t(s: &S) -> u8 {\n        s.a\n    }\n}",
            ),
            ("tests/t.rs", "fn t(s: &S) -> u8 {\n    s.a\n}"),
            (
                "crates/b/src/lib.rs",
                "// lint: test-only oracle of tests/t.rs\npub fn peek(s: &S) -> u8 {\n    s.a\n}",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn gone(s: &S) -> u8 {\n    s.a\n}",
            ),
        ] {
            assert!(
                dead_code(&[FIELDS, (path, src)]).contains(&("dead-field", 2)),
                "{src}"
            );
        }
        // The benchmark package reads library fields too.
        let perf = (
            "crates/bench/src/bin/sidco-perf/src/main.rs",
            "fn f(s: &S) -> u8 {\n    s.a\n}",
        );
        assert!(!dead_code(&[FIELDS, perf]).contains(&("dead-field", 2)));
    }

    #[test]
    fn dead_field_needs_a_reasoned_marker_and_a_live_struct() {
        let marked = "pub struct S {\n    // lint: test-only checked by tests/t.rs\n    pub a: u8,\n    // lint: test-only\n    pub b: u8,\n}\nfn g(_: S) {}\n";
        assert_eq!(
            dead_code(&[("crates/a/src/lib.rs", marked)]),
            vec![("dead-field", 5)]
        );
        // A dead or marked struct's fields are not judged one by one; tuple
        // and unit structs have no named fields, and rustc judges a private
        // struct's.
        for src in [
            "pub struct Gone {\n    pub x: u8,\n}\n",
            "// lint: test-only fixture of tests/t.rs\npub struct Kept {\n    pub x: u8,\n}\n",
            "pub struct T(pub u8);\npub struct U;\nstruct P {\n    x: u8,\n}\nfn g(_: T, _: U, _: P) {}\n",
        ] {
            assert!(
                !dead_code(&[("crates/a/src/lib.rs", src)])
                    .iter()
                    .any(|(rule, _)| *rule == "dead-field"),
                "{src}"
            );
        }
        // A `where` clause declares no field.
        let bounded =
            "pub struct W<T>\nwhere\n    T: Copy,\n{\n    pub w: T,\n}\nfn g(_: W<u8>) {}\n";
        assert_eq!(
            dead_code(&[("crates/a/src/lib.rs", bounded)]),
            vec![("dead-field", 5)]
        );
    }

    #[test]
    fn markers_that_keep_an_item_or_a_field_are_counted() {
        let src = "// lint: test-only oracle\npub fn a() {}\npub struct S {\n    // lint: test-only data\n    pub f: u8,\n}\n// lint: test-only but nothing below\n\nfn g(_: S) {}\n";
        let files = [("crates/a/src/lib.rs".to_string(), src.to_string())];
        assert_eq!(scan_sources(&files).test_only_markers, 2);
    }

    #[test]
    fn tokens_keep_the_operators_the_rules_tell_apart() {
        assert_eq!(
            tokens("a.b += 1.5..x::<T>(|y| y) => c == d"),
            vec![
                "a", ".", "b", "+=", "1.5", "..", "x", "::", "<", "T", ">", "(", "|", "y", "|",
                "y", ")", "=>", "c", "==", "d"
            ]
        );
        assert_eq!(
            tokens("t.0.name <<= 2"),
            vec!["t", ".", "0", ".", "name", "<<=", "2"]
        );
    }

    #[test]
    fn library_lines_skip_test_code_and_the_benchmark_package() {
        let files: Vec<(String, String)> = [
            (
                "crates/a/src/lib.rs",
                "fn a() {}\n\n#[cfg(test)]\nmod tests {\n}\nfn b() {}\n",
            ),
            ("src/lib.rs", "fn c() {}"),
            ("crates/a/tests/t.rs", "fn t() {}\n"),
            ("examples/e.rs", "fn e() {}\n"),
            (
                "crates/bench/src/bin/sidco-perf/src/main.rs",
                "fn main() {}\n",
            ),
            ("vendor/rand/src/lib.rs", "fn r() {}\n"),
        ]
        .iter()
        .map(|(path, src)| (path.to_string(), src.to_string()))
        .collect();
        // `fn a`, the blank line and `fn b`, plus `fn c`.
        assert_eq!(scan_sources(&files).library_lines, 4);
    }

    #[test]
    fn violations_format_as_file_line_rule() {
        let v = scan(&[("crates/x/src/a.rs", "fn f() { x.unwrap(); }")]);
        assert_eq!(v.len(), 1);
        let shown = v[0].to_string();
        assert!(
            shown.starts_with("crates/x/src/a.rs:1: [unwrap-invariant]"),
            "got: {shown}"
        );
    }

    #[test]
    fn the_whole_workspace_is_clean() {
        // The gate CI enforces, in unit-test form: every rule passes on every
        // workspace source file (the binary does the same walk).
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root exists");
        let violations = scan_workspace(root)
            .expect("workspace scan reads all sources")
            .violations;
        assert!(
            violations.is_empty(),
            "sidco-lint found {} violation(s):\n{}",
            violations.len(),
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
