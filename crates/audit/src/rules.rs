//! The six contract rules, the per-file driver, and the suppression
//! machinery.
//!
//! Every detector works on the token stream from [`crate::lexer`], so
//! prose, doc examples, and string literals never trip a rule. Each
//! finding carries the rule id, a one-line message, and a fix hint.
//!
//! Suppression is deliberately narrow: an allow comment (docs/AUDIT.md
//! gives the exact syntax) must start the comment it lives in, must
//! name a real rule, must give a reason, and must sit on the flagged
//! line or the line directly above it. Stale and malformed allows are
//! themselves findings, so suppressions cannot rot.

use crate::lexer::{is_float_zero, lex, Lexed, Token, TokenKind};
use crate::Finding;

/// Static description of one rule, used by `--format json`, the CLI
/// usage text, and docs generation.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule id, as used in `audit:allow(<id>)`.
    pub id: &'static str,
    /// One-line statement of the contract the rule enforces.
    pub summary: &'static str,
    /// One-line fix hint attached to every finding of this rule.
    pub hint: &'static str,
}

/// All rules, in catalogue order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "clock-discipline",
        summary: "SystemTime::now/Instant::now are forbidden outside the timing chokepoints",
        hint: "route timing through mocc_bench::timing; only vetted chokepoints may read the clock",
    },
    Rule {
        id: "no-randomized-containers",
        summary: "HashMap/HashSet are forbidden: iteration order is process-randomized",
        hint: "use BTreeMap/BTreeSet or an index-keyed Vec so iteration order is deterministic",
    },
    Rule {
        id: "unsafe-hygiene",
        summary:
            "every unsafe block/fn needs an adjacent SAFETY comment; every crate root forbids unsafe",
        hint: "state the invariant in a `// SAFETY:` comment directly above the unsafe code",
    },
    Rule {
        id: "float-determinism",
        summary: "no mul_add, partial_cmp().unwrap(), or fold(0.0, max/min) NaN-masking patterns",
        hint: "use total_cmp-based comparisons; write a*b+c explicitly instead of mul_add",
    },
    Rule {
        id: "env-discipline",
        summary: "std::env::var only inside annotated strict-parse helpers",
        hint: "read the environment in one strict-parse helper and annotate that line explicitly",
    },
    Rule {
        id: "vendoring-audit",
        summary: "every dependency must be a path dep into vendor/ or a workspace crate",
        hint: "vendor the crate under vendor/ and point a path dependency at it",
    },
    Rule {
        id: "allow-syntax",
        summary: "allow comments must be well-formed, name a real rule, and suppress something",
        hint: "write the marker as described in docs/AUDIT.md, with a rule id and a reason",
    },
];

/// Looks a rule up by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Files allowed to read the monotonic/system clock without an inline
/// allow: the single timing chokepoint in `mocc-bench`.
pub const CLOCK_FILE_ALLOWLIST: &[&str] = &["crates/bench/src/timing.rs"];

fn finding(path: &str, line: u32, rule_id: &'static str, message: String) -> Finding {
    let rule = rule_by_id(rule_id).expect("known rule id");
    Finding {
        file: path.to_string(),
        line,
        rule: rule.id,
        message,
        hint: rule.hint.to_string(),
    }
}

/// Audits one Rust source file. `path` is the workspace-relative path
/// with `/` separators; it decides whether the clock allowlist
/// applies. Returns findings after suppression processing (so a
/// malformed or stale allow in `src` shows up here too).
pub fn audit_source(path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let mut findings = Vec::new();
    detect_tokens(path, &lexed, &mut findings);
    detect_unsafe(path, &lexed, &mut findings);
    let comments: Vec<(u32, String)> = lexed
        .comments
        .iter()
        .map(|c| (c.line + c.text.matches('\n').count() as u32, c.text.clone()))
        .collect();
    apply_allows(path, &comments, findings)
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.is_punct(c))
}

/// `::` at positions `i`, `i + 1`.
fn path_sep_at(toks: &[Token], i: usize) -> bool {
    punct_at(toks, i, ':') && punct_at(toks, i + 1, ':')
}

/// Given the index of an opening `(`, returns the index one past its
/// matching `)`.
fn after_close(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
    }
    None
}

/// Token-pattern detectors for the clock, container, float, and env
/// rules.
fn detect_tokens(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let clock_allowed = CLOCK_FILE_ALLOWLIST.contains(&path);
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let Some(name) = ident_at(toks, i) else {
            continue;
        };
        let line = toks[i].line;
        match name {
            "Instant" | "SystemTime"
                if !clock_allowed
                    && path_sep_at(toks, i + 1)
                    && ident_at(toks, i + 3) == Some("now") =>
            {
                out.push(finding(
                    path,
                    line,
                    "clock-discipline",
                    format!("{name}::now() read outside the timing allowlist"),
                ));
            }
            "HashMap" | "HashSet" => {
                out.push(finding(
                    path,
                    line,
                    "no-randomized-containers",
                    format!("{name} has process-randomized iteration order"),
                ));
            }
            "mul_add" => {
                out.push(finding(
                    path,
                    line,
                    "float-determinism",
                    "mul_add contracts to a fused multiply-add and diverges across targets"
                        .to_string(),
                ));
            }
            "partial_cmp" if punct_at(toks, i + 1, '(') => {
                if let Some(after) = after_close(toks, i + 1) {
                    if punct_at(toks, after, '.')
                        && matches!(ident_at(toks, after + 1), Some("unwrap" | "expect"))
                    {
                        out.push(finding(
                            path,
                            line,
                            "float-determinism",
                            "partial_cmp().unwrap() panics on NaN; use total_cmp".to_string(),
                        ));
                    }
                }
            }
            "fold" if punct_at(toks, i + 1, '(') => {
                let mut j = i + 2;
                if punct_at(toks, j, '-') {
                    j += 1;
                }
                let zero = matches!(
                    toks.get(j).map(|t| &t.kind),
                    Some(TokenKind::Num(n)) if is_float_zero(n)
                );
                if zero {
                    if let Some(end) = after_close(toks, i + 1) {
                        let args = &toks[j + 1..end - 1];
                        if args.iter().any(|t| t.is_ident("max") || t.is_ident("min")) {
                            out.push(finding(
                                path,
                                line,
                                "float-determinism",
                                "fold(0.0, max/min) silently masks NaN".to_string(),
                            ));
                        }
                    }
                }
            }
            // `env!("...")` reads at compile time and is fine, hence
            // the `!` exclusion in the guard.
            "env"
                if !punct_at(toks, i + 1, '!')
                    && path_sep_at(toks, i + 1)
                    && matches!(
                        ident_at(toks, i + 3),
                        Some("var" | "var_os" | "vars" | "vars_os")
                    ) =>
            {
                out.push(finding(
                    path,
                    line,
                    "env-discipline",
                    format!(
                        "env::{}() outside an annotated strict-parse helper",
                        ident_at(toks, i + 3).expect("matched above")
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// The SAFETY-adjacency half of unsafe-hygiene: each `unsafe` token
/// must have a comment containing "SAFETY" on the same line or in the
/// contiguous block of comment/attribute lines directly above it
/// (which accepts both `// SAFETY:` and `/// # Safety` doc sections).
fn detect_unsafe(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    // (start, end, contains-SAFETY) spans for every comment.
    let spans: Vec<(u32, u32, bool)> = lexed
        .comments
        .iter()
        .map(|c| {
            let end = c.line + c.text.matches('\n').count() as u32;
            (c.line, end, c.text.to_ascii_uppercase().contains("SAFETY"))
        })
        .collect();
    let comment_at = |line: u32| -> Option<bool> {
        spans
            .iter()
            .find(|(s, e, _)| *s <= line && line <= *e)
            .map(|(_, _, saf)| *saf)
    };
    // Lines whose first token is `#` start an attribute; the walk may
    // step over them (e.g. `#[inline]` between the SAFETY doc
    // and the fn).
    let mut first_tok_hash: std::collections::BTreeMap<u32, bool> = Default::default();
    for t in &lexed.tokens {
        first_tok_hash.entry(t.line).or_insert(t.is_punct('#'));
    }

    let mut flagged: Vec<u32> = Vec::new();
    for t in &lexed.tokens {
        if !t.is_ident("unsafe") || flagged.contains(&t.line) {
            continue;
        }
        let mut ok = comment_at(t.line) == Some(true);
        let mut cur = t.line.saturating_sub(1);
        while !ok && cur > 0 {
            match comment_at(cur) {
                Some(true) => ok = true,
                Some(false) => cur -= 1,
                None if first_tok_hash.get(&cur) == Some(&true) => cur -= 1,
                None => break,
            }
        }
        if !ok {
            flagged.push(t.line);
            out.push(finding(
                path,
                t.line,
                "unsafe-hygiene",
                "unsafe without an adjacent SAFETY comment".to_string(),
            ));
        }
    }
}

/// The crate-root half of unsafe-hygiene: every crate must carry
/// `#![forbid(unsafe_code)]`. Not suppressible: fix it by adding the
/// attribute.
pub fn check_crate_root(path: &str, src: &str, crate_name: &str) -> Vec<Finding> {
    if has_inner_attr(&lex(src).tokens, "forbid", "unsafe_code") {
        return Vec::new();
    }
    vec![finding(
        path,
        1,
        "unsafe-hygiene",
        format!("crate root of {crate_name} is missing #![forbid(unsafe_code)]"),
    )]
}

/// Scans for the inner attribute `#![<lint>(<arg>)]` anywhere in the
/// token stream (crate roots keep them at the top, but position does
/// not matter for the check).
fn has_inner_attr(toks: &[Token], lint: &str, arg: &str) -> bool {
    (0..toks.len()).any(|i| {
        punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '!')
            && punct_at(toks, i + 2, '[')
            && ident_at(toks, i + 3) == Some(lint)
            && punct_at(toks, i + 4, '(')
            && ident_at(toks, i + 5) == Some(arg)
    })
}

// ---------------------------------------------------------------------------
// Suppression
// ---------------------------------------------------------------------------

struct Allow {
    line: u32,
    rule: String,
    used: bool,
}

enum AllowParse {
    Allow(Allow),
    Malformed(&'static str),
    NotAllow,
}

/// Parses one comment as a potential allow marker. The marker must
/// start the comment body (after `/`, `*`, `!`, or `#` delimiters),
/// so prose *describing* the syntax never parses as a suppression.
fn parse_allow(line: u32, text: &str) -> AllowParse {
    let body = text.trim_start_matches(['/', '*', '!', '#']).trim_start();
    let Some(rest) = body.strip_prefix("audit:allow") else {
        return AllowParse::NotAllow;
    };
    let Some(rest) = rest.strip_prefix('(') else {
        return AllowParse::Malformed("expected `(` directly after the allow marker");
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Malformed("unclosed rule id");
    };
    let rule = &rest[..close];
    if rule_by_id(rule).is_none() || rule == "allow-syntax" {
        return AllowParse::Malformed("unknown rule id");
    }
    let after = &rest[close + 1..];
    let Some(reason) = after.strip_prefix(':') else {
        return AllowParse::Malformed("missing `: <reason>` after the rule id");
    };
    if reason.trim().is_empty() {
        return AllowParse::Malformed("empty reason");
    }
    AllowParse::Allow(Allow {
        line,
        rule: rule.to_string(),
        used: false,
    })
}

/// Applies allow comments to raw findings: a well-formed allow on the
/// flagged line or the line directly above suppresses every finding of
/// its rule there. Malformed and stale (unused) allows become
/// `allow-syntax` findings, so suppressions stay auditable. Used by
/// both the Rust and the manifest passes — `comments` is
/// `(effective line, text)`.
pub(crate) fn apply_allows(
    path: &str,
    comments: &[(u32, String)],
    mut findings: Vec<Finding>,
) -> Vec<Finding> {
    let mut allows = Vec::new();
    for (line, text) in comments {
        match parse_allow(*line, text) {
            AllowParse::Allow(a) => allows.push(a),
            AllowParse::Malformed(why) => findings.push(finding(
                path,
                *line,
                "allow-syntax",
                format!("malformed allow marker: {why}"),
            )),
            AllowParse::NotAllow => {}
        }
    }
    findings.retain(|f| {
        let hit = allows
            .iter_mut()
            .find(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line));
        match hit {
            Some(a) => {
                a.used = true;
                false
            }
            None => true,
        }
    });
    for a in &allows {
        if !a.used {
            findings.push(finding(
                path,
                a.line,
                "allow-syntax",
                format!(
                    "stale allow for {}: nothing to suppress on this or the next line",
                    a.rule
                ),
            ));
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str) -> Vec<&'static str> {
        audit_source("crates/x/src/lib.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn clock_rule_fires_and_allowlist_file_is_exempt() {
        let src = "fn t() { let _ = std::time::Instant::now(); }";
        assert_eq!(rules_of(src), vec!["clock-discipline"]);
        assert!(audit_source("crates/bench/src/timing.rs", src).is_empty());
    }

    #[test]
    fn container_rule_fires_on_use_and_on_type() {
        let src = "use std::collections::BTreeMap;\nfn f(m: &std::collections::HashMap<u8, u8>) {}";
        let fs = audit_source("crates/x/src/lib.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "no-randomized-containers");
        assert_eq!(fs[0].line, 2);
    }

    #[test]
    fn float_rule_catches_the_three_patterns() {
        assert_eq!(
            rules_of("fn f(a: f64) -> f64 { a.mul_add(2.0, 1.0) }"),
            vec!["float-determinism"]
        );
        assert_eq!(
            rules_of("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"),
            vec!["float-determinism"]
        );
        assert_eq!(
            rules_of("fn f(v: &[f64]) -> f64 { v.iter().copied().fold(0.0, f64::max) }"),
            vec!["float-determinism"]
        );
        // total_cmp, plain folds, and identity-seeded folds are fine.
        assert!(rules_of("fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }").is_empty());
        assert!(rules_of("fn f(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }").is_empty());
        assert!(
            rules_of("fn f(v: &[f32]) -> f32 { v.iter().copied().fold(f32::MIN, f32::max) }")
                .is_empty()
        );
    }

    #[test]
    fn env_rule_fires_on_var_but_not_the_macro() {
        assert_eq!(
            rules_of("fn f() { let _ = std::env::var(\"X\"); }"),
            vec!["env-discipline"]
        );
        assert!(rules_of("fn f() -> &'static str { env!(\"CARGO_PKG_NAME\") }").is_empty());
        assert!(rules_of("fn f() { let _: Vec<String> = std::env::args().collect(); }").is_empty());
    }

    #[test]
    fn unsafe_rule_accepts_adjacent_safety_and_doc_safety_sections() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(rules_of(bad), vec!["unsafe-hygiene"]);
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}";
        assert!(rules_of(good).is_empty());
        let doc = "/// # Safety\n/// p must be valid.\n#[inline]\npub unsafe fn g(p: *const u8) -> u8 { *p }";
        assert!(rules_of(doc).is_empty());
    }

    #[test]
    fn allow_suppresses_adjacent_line_and_stale_allow_is_flagged() {
        let allowed =
            "// audit:allow(no-randomized-containers): test of the allow machinery\nuse std::collections::HashMap;\nfn f(_: HashMap<u8, u8>) {}";
        // The allow covers line 2; the second use on line 3 still fires.
        let fs = audit_source("crates/x/src/lib.rs", allowed);
        assert_eq!(fs.len(), 1);
        assert_eq!((fs[0].rule, fs[0].line), ("no-randomized-containers", 3));

        let stale = "// audit:allow(clock-discipline): nothing here reads a clock\nfn f() {}";
        let fs = audit_source("crates/x/src/lib.rs", stale);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "allow-syntax");

        let malformed = "// audit:allow(no-such-rule): reason\nfn f() {}";
        let fs = audit_source("crates/x/src/lib.rs", malformed);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("unknown rule id"));

        let no_reason =
            "fn f() { let _ = std::env::var(\"X\"); } // audit:allow(env-discipline):\n";
        let fs = audit_source("crates/x/src/lib.rs", no_reason);
        assert!(fs.iter().any(|f| f.rule == "allow-syntax"));
    }

    #[test]
    fn crate_root_attribute_requirements() {
        let plain = "pub fn f() {}";
        let fs = check_crate_root("crates/x/src/lib.rs", plain, "mocc-x");
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("forbid(unsafe_code)"));
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}";
        assert!(check_crate_root("crates/x/src/lib.rs", ok, "mocc-x").is_empty());
        // A weaker lint is not a substitute, whatever the crate.
        let deny = "#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}";
        assert_eq!(
            check_crate_root("crates/nn/src/lib.rs", deny, "mocc-nn").len(),
            1
        );
    }
}
