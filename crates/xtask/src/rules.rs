//! The mlvc-lint rule set.
//!
//! Each rule pattern-matches the blanked code lines produced by
//! [`crate::scan`] and is scoped to the crates where its invariant lives
//! (see DESIGN.md "Static analysis & invariants"):
//!
//! * `no-truncating-cast` — `as u32/u64/usize/i64` in the on-disk-format
//!   crates (`ssd`, `log`, `graph`, `recover`, `obs`, `serve`, `mutate`)
//!   silently truncates or sign-extends a page offset, record count, or
//!   vertex id once a dataset outgrows the type; use `try_from` or the
//!   crate's checked helpers.
//! * `no-panic-in-lib` — `unwrap()/expect()/panic!` in library code tears
//!   the multi-log if it fires mid-flush; return an error instead.
//! * `no-magic-layout-literal` — byte-layout numbers (`16 * 1024` pages,
//!   the 16-byte update record) may appear only in their defining module;
//!   everywhere else they silently de-sync from the on-disk format.
//! * `no-wallclock-in-sim` — the SSD emulator and cost model advance a
//!   virtual clock; host time in that crate breaks the determinism every
//!   figure depends on.
//! * `no-lock-across-par` — a `Mutex`/`RwLock` guard held across a
//!   `mlvc_par`/rayon fan-out or an `ssd.` I/O call serializes the very
//!   work being fanned out (or deadlocks on re-entry).
//! * `no-raw-thread-spawn` — all parallelism must route through
//!   `mlvc-par` (`scope`/`par_*`): a raw `std::thread` spawn is invisible
//!   to the `race-detect` vector clocks, so its accesses can race without
//!   a report.
//! * `no-shared-mut-capture-in-par` — closures handed to a `par_*`
//!   fan-out may not capture `&mut` state declared outside the closure or
//!   interior-mutable cells; shared state crossing the fan-out belongs in
//!   `mlvc_ssd::sync` primitives or `Tracked` cells the detector audits.
//! * `no-relaxed-ordering-outside-obs` — relaxed atomics are sanctioned
//!   only in the `RelaxedCounter` statistics type, whose operations carry
//!   reasoned waivers (the rule keeps the name it had when the obs crate
//!   also held atomics); anywhere else the missing ordering is a
//!   correctness bug the detector cannot model.
//! * `fn-too-long` — a non-test function of an engine crate (`core`,
//!   `graphchi`, `grafboost`) longer than [`MAX_FN_LINES`] lines. The
//!   engine's superstep driver once grew to 874 lines one "block at the
//!   boundary" at a time; a stage that needs more room belongs in its own
//!   method or file.

use crate::scan::Scanned;

/// Longest a non-test function in an engine crate may be, counted from the
/// line of its `fn` keyword through the line of its closing brace.
pub const MAX_FN_LINES: usize = 150;

/// The crates `fn-too-long` covers: MultiLogVC and the two baselines.
const ENGINE_CRATES: [&str; 3] =
    ["crates/core/src/", "crates/graphchi/src/", "crates/grafboost/src/"];

/// All rule names, in diagnostic order.
pub const RULES: [&str; 9] = [
    "no-truncating-cast",
    "no-panic-in-lib",
    "no-magic-layout-literal",
    "no-wallclock-in-sim",
    "no-lock-across-par",
    "no-raw-thread-spawn",
    "no-shared-mut-capture-in-par",
    "no-relaxed-ordering-outside-obs",
    "fn-too-long",
];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// One waiver directive (the lint's comment-based allow escape hatch) and
/// how many diagnostics it actually suppressed in this file.
/// `suppressed == 0` means the waiver is stale: the code it excused no
/// longer trips the rule.
#[derive(Debug, Clone)]
pub struct WaiverUse {
    /// 1-indexed line of the directive.
    pub line: usize,
    /// Rule names the directive waives.
    pub rules: Vec<String>,
    /// The `-- <reason>` text (empty for reasonless directives, which are
    /// themselves violations).
    pub reason: String,
    /// Diagnostics this directive suppressed.
    pub suppressed: usize,
}

/// Is `path` (workspace-relative, `/`-separated) inside one of the
/// on-disk-format crates' library sources? `crates/obs` qualifies because
/// its counters mirror on-disk quantities exactly — a truncating cast or a
/// re-derived layout literal there silently corrupts the accounting the
/// tests pin bit-for-bit. `crates/serve` qualifies because its protocol
/// decoder turns untrusted JSON numbers into byte budgets and its rollup
/// re-emits per-tenant device counters — the same corrupt-silently risk.
/// `crates/mutate` qualifies because it owns an on-device page format of
/// its own (the mutation-log record layout) and rewrites CSR extents
/// during a merge — a truncating cast there corrupts the stored graph.
fn in_format_crates(path: &str) -> bool {
    [
        "crates/ssd/src/",
        "crates/log/src/",
        "crates/graph/src/",
        "crates/recover/src/",
        "crates/obs/src/",
        "crates/serve/src/",
        "crates/mutate/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
}

/// Library code for the panic rule: every crate's `src/` plus the root
/// facade, minus the bench harness and this tool (host-side code where a
/// panic aborts one run, not a multi-gigabyte flush).
fn in_panic_scope(path: &str) -> bool {
    let lib = (path.starts_with("crates/") && path.contains("/src/"))
        || (path.starts_with("src/") && path.ends_with(".rs"));
    lib && !path.starts_with("crates/bench/") && !path.starts_with("crates/xtask/")
}

/// Scope of the concurrency rules (`no-raw-thread-spawn`,
/// `no-shared-mut-capture-in-par`): library code including the root facade
/// (`src/lib.rs`, `src/bin/mlvc.rs`), minus `mlvc-par` itself — the one
/// crate allowed to touch `std::thread`, since it *is* the instrumented
/// runtime everything else must route through.
fn in_concurrency_scope(path: &str) -> bool {
    in_panic_scope(path) && !path.starts_with("crates/par/src/")
}

/// Match `ident` at `pos` in `code` with word boundaries on both sides.
fn word_at(code: &str, pos: usize, ident: &str) -> bool {
    if !code[pos..].starts_with(ident) {
        return false;
    }
    let before_ok = pos == 0
        || !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after = pos + ident.len();
    let after_ok = !code[after..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// Find every word-boundary occurrence of `ident` in `code`.
fn find_words<'a>(code: &'a str, ident: &'a str) -> impl Iterator<Item = usize> + 'a {
    code.match_indices(ident)
        .map(|(i, _)| i)
        .filter(move |&i| word_at(code, i, ident))
}

/// Run every rule over one scanned file.
pub fn check_file(path: &str, scanned: &Scanned) -> Vec<Diagnostic> {
    check_file_with_waivers(path, scanned).0
}

/// Like [`check_file`], but also reports every `allow()` directive in the
/// file with its suppression count, for `lint --report-waivers`.
pub fn check_file_with_waivers(path: &str, scanned: &Scanned) -> (Vec<Diagnostic>, Vec<WaiverUse>) {
    let mut out = Vec::new();
    let diag = |out: &mut Vec<Diagnostic>, line: usize, rule: &'static str, message: String| {
        out.push(Diagnostic { file: path.to_string(), line, rule, message });
    };

    // no-lock-across-par needs cross-line state.
    struct Guard {
        name: String,
        depth: i64,
        line: usize,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;

    for (idx, l) in scanned.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = l.code.as_str();

        // ---- no-truncating-cast -------------------------------------
        if !l.in_test && in_format_crates(path) {
            for target in ["u32", "u64", "usize", "i64"] {
                for pos in find_words(code, "as") {
                    let rest = code[pos + 2..].trim_start();
                    if rest.starts_with(target)
                        && word_at(rest, 0, target)
                        && !rest[target.len()..].trim_start().starts_with("::")
                    {
                        diag(
                            &mut out,
                            lineno,
                            "no-truncating-cast",
                            format!(
                                "`as {target}` cast in an on-disk-format crate; \
                                 use `try_from`/checked helpers"
                            ),
                        );
                    }
                }
            }
        }

        // ---- no-panic-in-lib ----------------------------------------
        if !l.in_test && in_panic_scope(path) {
            for (needle, what) in
                [(".unwrap()", "unwrap()"), (".expect(", "expect()"), ("panic!", "panic!")]
            {
                let mut hits = code.matches(needle).count();
                // `core::panic!`-style paths still match; `#[should_panic]`
                // cannot appear outside test code, which is already exempt.
                if needle == "panic!" {
                    hits = find_words(code, "panic")
                        .filter(|&i| code[i + 5..].starts_with('!'))
                        .count();
                }
                for _ in 0..hits {
                    diag(
                        &mut out,
                        lineno,
                        "no-panic-in-lib",
                        format!("{what} in library code; return an error instead"),
                    );
                }
            }
        }

        // ---- no-magic-layout-literal --------------------------------
        if !l.in_test && in_format_crates(path) {
            let page_defining = path == "crates/ssd/src/lib.rs";
            if !page_defining {
                let squashed: String = code.split_whitespace().collect::<Vec<_>>().join(" ");
                if find_words(&squashed, "16384").next().is_some()
                    || squashed.contains("16 * 1024")
                    || squashed.contains("16*1024")
                {
                    diag(
                        &mut out,
                        lineno,
                        "no-magic-layout-literal",
                        "page-size literal outside its defining module; \
                         use `DEFAULT_PAGE_SIZE`/`SsdConfig::page_size`"
                            .to_string(),
                    );
                }
            }
            let record_defining =
                path == "crates/log/src/update.rs" || path == "crates/graph/src/stored.rs";
            if !record_defining
                && (code.contains("BYTES") || code.contains("bytes"))
                && find_words(code, "16").next().is_some()
            {
                diag(
                    &mut out,
                    lineno,
                    "no-magic-layout-literal",
                    "update-record byte literal outside its defining module; \
                     use `UPDATE_BYTES` (in memory) or `mlvc_log::page` (on a log page)"
                        .to_string(),
                );
            }
        }

        // ---- no-wallclock-in-sim ------------------------------------
        if path.starts_with("crates/ssd/src/") {
            for needle in ["Instant::now", "SystemTime", "thread::sleep"] {
                if code.contains(needle) {
                    diag(
                        &mut out,
                        lineno,
                        "no-wallclock-in-sim",
                        format!("{needle} in the SSD simulator; use the virtual clock"),
                    );
                }
            }
        }

        // ---- no-lock-across-par -------------------------------------
        if !l.in_test && in_panic_scope(path) {
            // 1. Released guards: `drop(name)`.
            guards.retain(|g| !code.contains(format!("drop({})", g.name).as_str()));

            // 2. Fan-out or I/O with a live guard?
            let fans_out = [
                "par_map",
                "par_map_with",
                "par_map2",
                "par_chunk_map",
                "par_sort_by_u32_key",
                "par_iter",
                "rayon::",
            ]
            .iter()
            .any(|n| code.contains(n))
                || find_words(code, "ssd").any(|i| code[i + 3..].starts_with('.'));
            if fans_out {
                for g in &guards {
                    diag(
                        &mut out,
                        lineno,
                        "no-lock-across-par",
                        format!(
                            "guard `{}` (line {}) is live across a parallel/I/O call",
                            g.name, g.line
                        ),
                    );
                }
            }

            // 3. Track depth; pop guards whose scope closed; record a new
            //    guard binding at the depth where its `let` actually sits.
            let binding = guard_binding(code);
            let let_pos = binding.as_ref().map(|(_, p)| *p).unwrap_or(usize::MAX);
            let mut depth_at_let = depth;
            for (ci, ch) in code.char_indices() {
                if ci == let_pos {
                    depth_at_let = depth;
                }
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        guards.retain(|g| g.depth <= depth);
                    }
                    _ => {}
                }
            }
            if let Some((name, _)) = binding {
                if depth_at_let <= depth {
                    guards.push(Guard { name, depth: depth_at_let, line: lineno });
                }
            }
        }

        // ---- no-raw-thread-spawn ------------------------------------
        if !l.in_test && in_concurrency_scope(path) {
            for needle in ["thread::spawn", "thread::scope", "thread::Builder"] {
                for _ in 0..code.matches(needle).count() {
                    diag(
                        &mut out,
                        lineno,
                        "no-raw-thread-spawn",
                        format!(
                            "{needle} bypasses the instrumented runtime; \
                             route parallelism through `mlvc_par` \
                             (`scope`/`par_*`) so race-detect sees it"
                        ),
                    );
                }
            }
        }

        // ---- no-relaxed-ordering-outside-obs ------------------------
        if !l.in_test && in_panic_scope(path) {
            for _ in find_words(code, "Relaxed") {
                diag(
                    &mut out,
                    lineno,
                    "no-relaxed-ordering-outside-obs",
                    "`Ordering::Relaxed` outside `mlvc_ssd::RelaxedCounter`; \
                     use `SeqCst` or that sanctioned counter"
                        .to_string(),
                );
            }
        }
    }

    // ---- no-shared-mut-capture-in-par (span-based) ------------------
    if in_concurrency_scope(path) {
        check_par_captures(path, scanned, &mut out);
    }

    // ---- fn-too-long (span-based) -----------------------------------
    if ENGINE_CRATES.iter().any(|c| path.starts_with(c)) {
        check_fn_lengths(path, scanned, &mut out);
    }

    // ---- allow() escape hatch ---------------------------------------
    let mut suppressed = vec![false; out.len()];
    let mut waivers: Vec<WaiverUse> = Vec::new();
    for d in &scanned.allows {
        if d.reason.is_empty() {
            out.push(Diagnostic {
                file: path.to_string(),
                line: d.line,
                rule: "lint-allow",
                message: "allow() without a `-- <reason>`; every allow must say why".to_string(),
            });
            suppressed.push(false);
            waivers.push(WaiverUse {
                line: d.line,
                rules: d.rules.clone(),
                reason: String::new(),
                suppressed: 0,
            });
            continue;
        }
        for r in &d.rules {
            if !RULES.contains(&r.as_str()) {
                out.push(Diagnostic {
                    file: path.to_string(),
                    line: d.line,
                    rule: "lint-allow",
                    message: format!("allow() names unknown rule `{r}`"),
                });
                suppressed.push(false);
            }
        }
        let mut uses = 0;
        for (k, v) in out.iter().enumerate() {
            if (v.line == d.line || v.line == d.line + 1)
                && d.rules.iter().any(|r| r == v.rule)
            {
                suppressed[k] = true;
                uses += 1;
            }
        }
        waivers.push(WaiverUse {
            line: d.line,
            rules: d.rules.clone(),
            reason: d.reason.clone(),
            suppressed: uses,
        });
    }
    let diags = out
        .iter()
        .zip(&suppressed)
        .filter(|(_, &s)| !s)
        .map(|(d, _)| d.clone())
        .collect();
    (diags, waivers)
}

/// Span-based scan for `fn-too-long`: match every non-test `fn` item to
/// the braces of its body and flag the ones spanning more than
/// [`MAX_FN_LINES`] lines, at the line of the `fn` keyword (so a waiver
/// goes above the signature). Bodiless declarations (`fn f();`) and `fn(..)`
/// pointer types are not functions; nested functions are measured on their
/// own and count toward their parent.
fn check_fn_lengths(path: &str, scanned: &Scanned, out: &mut Vec<Diagnostic>) {
    // Functions whose end is not yet seen: (line of `fn`, brace depth the
    // body closes at — `None` until its `{` opens).
    let mut open: Vec<(usize, Option<i64>)> = Vec::new();
    let (mut braces, mut parens) = (0i64, 0i64);
    for (idx, l) in scanned.lines.iter().enumerate() {
        let code = l.code.as_str();
        let starts: Vec<usize> = find_words(code, "fn")
            .filter(|&p| code[p + 2..].trim_start().chars().next().is_some_and(|c| ident_char(&c)))
            .collect();
        for (ci, ch) in code.char_indices() {
            if !l.in_test && starts.contains(&ci) {
                open.push((idx + 1, None));
            }
            match ch {
                '(' | '[' => parens += 1,
                ')' | ']' => parens -= 1,
                '{' => {
                    if let Some((_, body @ None)) = open.last_mut() {
                        *body = Some(braces);
                    }
                    braces += 1;
                }
                '}' => {
                    braces -= 1;
                    if let Some(&(start, Some(body))) = open.last() {
                        if body == braces {
                            open.pop();
                            let len = idx + 2 - start;
                            if len > MAX_FN_LINES {
                                out.push(Diagnostic {
                                    file: path.to_string(),
                                    line: start,
                                    rule: "fn-too-long",
                                    message: format!(
                                        "function spans {len} lines (limit {MAX_FN_LINES}); \
                                         split it along its stages"
                                    ),
                                });
                            }
                        }
                    }
                }
                // `;` outside any `(..)`/`[..; n]` ends a bodiless signature.
                ';' if parens == 0 => {
                    if let Some((_, None)) = open.last() {
                        open.pop();
                    }
                }
                _ => {}
            }
        }
    }
}

/// Span-based scan for `no-shared-mut-capture-in-par`: find each `par_*`
/// call, narrow to the closure argument (everything from the first `|`
/// inside the call's parentheses — text before it is the data argument, so
/// the `&mut updates` slice handed to a sort is not a capture), then flag
/// `&mut` borrows of names not bound inside the closure plus
/// interior-mutability escape hatches. `let mut` locals and closure
/// parameters are private to one worker and stay exempt.
fn check_par_captures(path: &str, scanned: &Scanned, out: &mut Vec<Diagnostic>) {
    const FAN_OUTS: [&str; 5] = [
        "par_map",
        "par_map_with",
        "par_map2",
        "par_chunk_map",
        "par_sort_by_u32_key",
    ];
    for (idx, l) in scanned.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for needle in FAN_OUTS {
            for pos in find_words(&l.code, needle) {
                let rest = &l.code[pos + needle.len()..];
                let Some(open) = rest.find('(') else { continue };
                if !rest[..open].trim().is_empty() {
                    continue; // mention, not a call
                }
                let span = call_span(scanned, idx, pos + needle.len() + open);
                audit_closure_span(path, &span, out);
            }
        }
    }
}

/// Collect the code inside a call's parentheses as (1-indexed line, text)
/// segments, starting at the `(` found at (`line`, `col`). Strings and
/// comments are already blanked by the scanner, so paren depth is honest.
fn call_span(scanned: &Scanned, line: usize, col: usize) -> Vec<(usize, String)> {
    let mut segs = Vec::new();
    let mut depth: i64 = 0;
    for (li, l) in scanned.lines.iter().enumerate().skip(line) {
        let code = l.code.as_str();
        let from = if li == line { col } else { 0 };
        let mut seg_start = from;
        let mut close = None;
        for (ci, ch) in code[from..].char_indices() {
            match ch {
                '(' => {
                    depth += 1;
                    if depth == 1 {
                        seg_start = from + ci + 1;
                    }
                }
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(from + ci);
                        break;
                    }
                }
                _ => {}
            }
        }
        let end = close.unwrap_or(code.len());
        if seg_start <= end {
            segs.push((li + 1, code[seg_start..end].to_string()));
        }
        if close.is_some() {
            break;
        }
    }
    segs
}

fn ident_char(c: &char) -> bool {
    c.is_alphanumeric() || *c == '_'
}

/// Audit one fan-out call span: names bound by the closure (params and
/// `let mut` locals) are worker-private; any other `&mut` borrow or
/// interior-mutable cell inside the closure is shared state the detector
/// cannot order across workers.
fn audit_closure_span(path: &str, span: &[(usize, String)], out: &mut Vec<Diagnostic>) {
    // Narrow to the closure argument: from the first `|` onwards.
    let mut closure: Vec<(usize, String)> = Vec::new();
    for (lineno, text) in span {
        if !closure.is_empty() {
            closure.push((*lineno, text.clone()));
        } else if let Some(b) = text.find('|') {
            closure.push((*lineno, text[b..].to_string()));
        }
    }
    let Some((_, head)) = closure.first() else { return };

    // Bindings private to one worker: the parameter list (`|a, (b, c)|`)
    // and every `let mut` local in the body.
    let mut declared: Vec<String> = Vec::new();
    let params = head[1..].split('|').next().unwrap_or("");
    let mut cur = String::new();
    for c in params.chars() {
        if ident_char(&c) {
            cur.push(c);
        } else if !cur.is_empty() {
            declared.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        declared.push(cur);
    }
    for (_, text) in &closure {
        let mut rest = text.as_str();
        while let Some(p) = rest.find("let mut ") {
            rest = &rest[p + "let mut ".len()..];
            let name: String = rest.chars().take_while(ident_char).collect();
            if !name.is_empty() {
                declared.push(name);
            }
        }
    }

    for (lineno, text) in &closure {
        for (p, _) in text.match_indices("&mut ") {
            let name: String =
                text[p + "&mut ".len()..].trim_start().chars().take_while(ident_char).collect();
            if name.is_empty() || name == "mut" || declared.contains(&name) {
                continue;
            }
            out.push(Diagnostic {
                file: path.to_string(),
                line: *lineno,
                rule: "no-shared-mut-capture-in-par",
                message: format!(
                    "closure in a `par_*` fan-out borrows `&mut {name}` from outside; \
                     move the state into the closure or behind `mlvc_ssd::sync`"
                ),
            });
        }
        for needle in ["RefCell", "UnsafeCell", ".borrow_mut(", "static mut"] {
            for _ in 0..text.matches(needle).count() {
                out.push(Diagnostic {
                    file: path.to_string(),
                    line: *lineno,
                    rule: "no-shared-mut-capture-in-par",
                    message: format!(
                        "interior-mutable `{needle}` inside a `par_*` closure; the race \
                         detector cannot audit it — use `mlvc_ssd::sync` or `Tracked`"
                    ),
                });
            }
        }
        for _ in find_words(text, "Cell") {
            out.push(Diagnostic {
                file: path.to_string(),
                line: *lineno,
                rule: "no-shared-mut-capture-in-par",
                message: "interior-mutable `Cell` inside a `par_*` closure; the race \
                          detector cannot audit it — use `mlvc_ssd::sync` or `Tracked`"
                    .to_string(),
            });
        }
    }
}

/// Detect a lock-guard `let` binding; returns (bound name, byte offset of
/// the `let` keyword).
fn guard_binding(code: &str) -> Option<(String, usize)> {
    let let_pos = find_words(code, "let").next()?;
    let locks = [".lock()", ".read()", ".write()"]
        .iter()
        .any(|n| code[let_pos..].contains(n));
    if !locks {
        return None;
    }
    let after_let = code[let_pos + 3..].trim_start();
    let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let).trim_start();
    let name: String = after_mut
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty() && name != "_").then_some((name, let_pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(path, &scan(src))
    }

    #[test]
    fn cast_rule_only_fires_in_format_crates() {
        let src = "fn f(x: u64) -> usize { x as usize }\n";
        assert_eq!(lint("crates/ssd/src/device.rs", src).len(), 1);
        assert_eq!(lint("crates/mutate/src/log.rs", src).len(), 1);
        assert_eq!(lint("crates/core/src/engine.rs", src).len(), 0);
    }

    #[test]
    fn cast_rule_skips_test_code_and_paths() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(x: u64) -> usize { x as usize }\n}\n";
        assert!(lint("crates/log/src/update.rs", src).is_empty());
        // `as usize::...` path syntax is not a cast (not that it parses, but
        // the scanner must not false-positive on `usize::MAX` after `as`).
        assert!(lint("crates/log/src/a.rs", "let x = usize::MAX;").is_empty());
    }

    #[test]
    fn panic_rule_counts_each_occurrence() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); }\n";
        let d = lint("crates/core/src/engine.rs", src);
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|d| d.rule == "no-panic-in-lib"));
        // unwrap_or_else and expected() must not match.
        let ok = "fn f() { a.unwrap_or_else(|| 1); expected(); }\n";
        assert!(lint("crates/core/src/engine.rs", ok).is_empty());
    }

    #[test]
    fn panic_rule_exempts_bench_xtask_and_tests_dirs() {
        let src = "fn f() { a.unwrap(); }\n";
        assert!(lint("crates/bench/src/harness.rs", src).is_empty());
        assert!(lint("crates/xtask/src/main.rs", src).is_empty());
        assert!(lint("tests/properties.rs", src).is_empty());
        assert!(lint("crates/log/benches/multilog.rs", src).is_empty());
    }

    #[test]
    fn layout_rule_fires_outside_defining_module() {
        assert_eq!(lint("crates/log/src/multilog.rs", "let p = 16 * 1024;\n").len(), 1);
        assert_eq!(lint("crates/log/src/multilog.rs", "let p = 16384;\n").len(), 1);
        assert!(lint("crates/ssd/src/lib.rs", "pub const DEFAULT_PAGE_SIZE: usize = 16 * 1024;\n").is_empty());
        // Bare 16 needs byte-layout vocabulary on the line.
        assert_eq!(lint("crates/log/src/multilog.rs", "let bytes = n * 16;\n").len(), 1);
        assert!(lint("crates/log/src/multilog.rs", "for i in 0..16 {\n").is_empty());
        assert!(lint("crates/log/src/update.rs", "let bytes = 16;\n").is_empty());
    }

    #[test]
    fn wallclock_rule_scoped_to_ssd() {
        let src = "let t = Instant::now();\n";
        assert_eq!(lint("crates/ssd/src/cost.rs", src).len(), 1);
        assert!(lint("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn lock_across_par_detected_and_released_by_drop() {
        let src = "fn f() {\n let g = m.lock();\n let r = par_map(&xs, |x| x);\n}\n";
        let d = lint("crates/apps/src/kcore.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-lock-across-par");
        assert_eq!(d[0].line, 3);

        let ok = "fn f() {\n let g = m.lock();\n drop(g);\n let r = par_map(&xs, |x| x);\n}\n";
        assert!(lint("crates/apps/src/kcore.rs", ok).is_empty());

        let scoped = "fn f() {\n { let g = m.lock(); }\n ssd.read_batch(&reqs);\n}\n";
        assert!(lint("crates/apps/src/kcore.rs", scoped).is_empty());
    }

    #[test]
    fn allow_suppresses_same_and_next_line_and_needs_reason() {
        let same = "fn f() { a.unwrap(); } // mlvc-lint: allow(no-panic-in-lib) -- demo\n";
        assert!(lint("crates/core/src/engine.rs", same).is_empty());

        let above = "// mlvc-lint: allow(no-panic-in-lib) -- demo\nfn f() { a.unwrap(); }\n";
        assert!(lint("crates/core/src/engine.rs", above).is_empty());

        let bare = "fn f() { a.unwrap(); } // mlvc-lint: allow(no-panic-in-lib)\n";
        let d = lint("crates/core/src/engine.rs", bare);
        assert!(d.iter().any(|d| d.rule == "lint-allow"));
        assert!(d.iter().any(|d| d.rule == "no-panic-in-lib"), "reasonless allow must not suppress");

        let unknown = "// mlvc-lint: allow(no-such-rule) -- x\nfn g() {}\n";
        let d = lint("crates/core/src/engine.rs", unknown);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lint-allow");
    }

    #[test]
    fn raw_thread_rule_exempts_par_and_tests_covers_root_facade() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let d = lint("crates/core/src/engine.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-raw-thread-spawn");
        assert!(lint("crates/par/src/lib.rs", src).is_empty(), "mlvc-par is the runtime");
        assert_eq!(lint("src/lib.rs", src).len(), 1, "root facade is covered");

        let test_src = "#[cfg(test)]\nmod tests {\n fn f() { std::thread::scope(|s| {}); }\n}\n";
        assert!(lint("crates/core/src/engine.rs", test_src).is_empty());
    }

    #[test]
    fn relaxed_rule_covers_obs_and_root_facade() {
        let src = "x.fetch_add(1, Ordering::Relaxed);\n";
        let d = lint("crates/log/src/multilog.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-relaxed-ordering-outside-obs");
        assert_eq!(lint("crates/obs/src/lib.rs", src).len(), 1, "obs holds no atomic");
        assert_eq!(lint("src/bin/mlvc.rs", src).len(), 1, "root facade is covered");
        // `RelaxedCounter` the type name must not trip the word match.
        assert!(lint("crates/log/src/multilog.rs", "use mlvc_ssd::RelaxedCounter;\n").is_empty());
    }

    #[test]
    fn capture_rule_flags_outer_mut_but_not_worker_locals() {
        let bad = "fn f() {\n let mut total = 0;\n par_map(&xs, |x| {\n  add(&mut total);\n  x\n });\n}\n";
        let d = lint("crates/apps/src/kcore.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-shared-mut-capture-in-par");
        assert_eq!(d[0].line, 4);

        let ok = "fn f() {\n par_map(&xs, |x| {\n  let mut acc = 0;\n  add(&mut acc);\n  acc + x\n });\n}\n";
        assert!(lint("crates/apps/src/kcore.rs", ok).is_empty());

        // par_map_with's worker state is a closure parameter: private.
        let with =
            "fn f() { par_map_with(&xs, &mut sinks, |x, sink| { push(&mut sink.buf, x); 0 }); }\n";
        assert!(lint("crates/apps/src/kcore.rs", with).is_empty());
        let with_bad =
            "fn f() { par_map_with(&xs, &mut sinks, |x, sink| { push(&mut shared, x); 0 }); }\n";
        assert_eq!(lint("crates/apps/src/kcore.rs", with_bad).len(), 1);
        // par_map2's combiner parameter is worker-private.
        let comb = "fn f() { par_map2(&xs, mk, |x, comb| { use_both(x, &mut comb.scratch); 0 }); }\n";
        assert!(lint("crates/apps/src/kcore.rs", comb).is_empty());
    }

    #[test]
    fn capture_rule_exempts_sort_slice_arg_and_flags_cells() {
        // The `&mut` slice handed to a sort is the data argument, not a capture.
        let sort = "fn f() { par_sort_by_u32_key(&mut updates, |u| u.dest); }\n";
        assert!(lint("crates/log/src/fusion.rs", sort).is_empty());

        let cell = "fn f() { par_map(&xs, |x| cache.borrow_mut().insert(x)); }\n";
        let d = lint("crates/apps/src/kcore.rs", cell);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-shared-mut-capture-in-par");

        let refcell = "fn f() { par_chunk_map(&xs, 4, |c| RefCell::new(c.len())); }\n";
        assert_eq!(lint("crates/apps/src/kcore.rs", refcell).len(), 1);
    }

    #[test]
    fn waiver_report_counts_suppressions() {
        let src = "fn f() { a.unwrap(); } // mlvc-lint: allow(no-panic-in-lib) -- demo\n\
                   fn g() {} // mlvc-lint: allow(no-panic-in-lib) -- stale\n";
        let (d, w) = check_file_with_waivers("crates/core/src/engine.rs", &scan(src));
        assert!(d.is_empty());
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].suppressed, 1);
        assert_eq!(w[1].suppressed, 0, "waiver with nothing to suppress is stale");
        assert_eq!(w[0].rules, vec!["no-panic-in-lib".to_string()]);
        assert_eq!(w[1].reason, "stale");
    }

    #[test]
    fn fn_length_rule_measures_fn_line_through_closing_brace() {
        let func = |name: &str, body_lines: usize| {
            format!("fn {name}(x: [u8; 4]) -> u64 {{\n{}}}\n", "    step();\n".repeat(body_lines))
        };
        // Signature + 148 body lines + closing brace = 150: at the limit.
        assert!(lint("crates/core/src/engine.rs", &func("fits", 148)).is_empty());
        let src = format!("{}{}", func("fits", 148), func("too_long", 149));
        let d = lint("crates/core/src/engine.rs", &src);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("fn-too-long", 151));
        // Scoped to the engine crates; test code, bodiless declarations and
        // `fn` pointer types are exempt; a waiver above the signature works.
        assert_eq!(lint("crates/grafboost/src/engine.rs", &src).len(), 1);
        assert!(lint("crates/log/src/multilog.rs", &src).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{}}}\n", func("long_test", 200));
        assert!(lint("crates/core/src/engine.rs", &in_test).is_empty());
        let decls = format!(
            "trait T {{ fn decl(&self); }}\ntype F = fn(u64) -> u64;\n{}",
            "const X: u64 = 0;\n".repeat(200)
        );
        assert!(lint("crates/core/src/api.rs", &decls).is_empty());
        let waived = format!("// mlvc-lint: allow(fn-too-long) -- demo\n{}", func("waived", 149));
        assert!(lint("crates/core/src/engine.rs", &waived).is_empty());
    }
}
