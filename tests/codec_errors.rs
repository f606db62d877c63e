//! The exact error text of a malformed ledger line, which only a
//! ledger scan reads: no command prints it, so it is checked in process.
//! The texts a user sees from `mocc validate`, `mocc run` and a
//! daemon's `{"ok":false,"error":…}` line are rows of the hostile-input
//! corpus, `tests/hostile.rs`.

use mocc::store::LedgerEntry;

/// `(document, the Display of its error)` for rows that must fail, or
/// `"ok"` for rows that must parse; every mismatch is reported at once.
fn check(rows: &[(String, &str)], read: impl Fn(&str) -> String) {
    let wrong: Vec<String> = rows
        .iter()
        .filter_map(|(doc, want)| {
            let got = read(doc);
            (got != *want).then(|| format!("{doc}\n  want {want}\n  got  {got}"))
        })
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn ledger_lines_fail_with_pinned_messages() {
    let hit = format!(r#"{{"event":"hit","key":"{}","ts":5}}"#, "ab".repeat(32));
    let rows: Vec<(String, &str)> = vec![
        (hit.clone(), "ok"),
        (
            hit.replace('{', r#"{"content":null,"#),
            "expected string, got Null",
        ),
        (
            hit.replace(r#""ts":5"#, r#""ts":"5""#),
            r#"LedgerEntry.ts: expected u64, got Str("5")"#,
        ),
        (
            "[]".to_string(),
            "expected ledger entry object, got Arr([])",
        ),
    ];
    check(&rows, |line| {
        match serde_json::from_str::<LedgerEntry>(line) {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string(),
        }
    });
}
