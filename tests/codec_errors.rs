//! The exact error text of every malformed document a user can hand
//! the workspace: spec files, replay traces, ledger lines and `mocc
//! serve` request lines.
//!
//! These messages are what `mocc validate`, `mocc run`, a daemon's
//! `{"ok":false,"error":…}` line and a ledger scan report. Each row
//! pins one message literal, so a codec change that moves a text shows
//! here as a failed row, not as a surprise in someone's terminal.

use mocc::eval::{ExperimentSpec, SweepRunner};
use mocc::store::{LedgerEntry, ResultStore};
use mocc_bench::serve::Server;

/// A sweep document: the required keys, then `extra` spliced in last.
/// A key in `extra` that is already there repeats it, and the last of a
/// repeated key wins.
fn sweep(extra: &str) -> String {
    format!(
        r#"{{"kind":"sweep","name":"e","scheme":"cubic","bandwidth_mbps":[10],"owd_ms":[20],"queue_pkts":[100],"duration_s":2,"seed":1{extra}}}"#
    )
}

/// A competition document, built as [`sweep`] is.
fn competition(extra: &str) -> String {
    format!(
        r#"{{"kind":"competition","name":"e","mixes":["duel:cubic+bbr"],"bandwidth_mbps":[10],"owd_ms":[20],"queue_pkts":[100],"duration_s":2,"seed":1{extra}}}"#
    )
}

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

fn spec_error(doc: &str) -> String {
    match ExperimentSpec::from_json(doc) {
        Ok(_) => "ok".to_string(),
        Err(e) => e.to_string(),
    }
}

const SWEEP_KEYS: &str = "kind, name, bandwidth_mbps, owd_ms, queue_pkts, duration_s, \
                          mss_bytes, seed, agent_mi, policy, scheme, loss, shapes, loads";
const COMPETITION_KEYS: &str = "kind, name, bandwidth_mbps, owd_ms, queue_pkts, duration_s, \
                                mss_bytes, seed, agent_mi, policy, mixes, tcp_baseline, \
                                fair_jain, fair_sustain_s";

#[test]
fn spec_documents_fail_with_pinned_messages() {
    let deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
    let unknown = |key: &str, known: &str| {
        format!(
            "spec does not parse: ExperimentSpec: unknown field `{key}` (known fields: {known})"
        )
    };
    let (sweep_mixes, sweep_colour) = (unknown("mixes", SWEEP_KEYS), unknown("colour", SWEEP_KEYS));
    let competition_scheme = unknown("scheme", COMPETITION_KEYS);
    let bogus_kind = unknown("loads", COMPETITION_KEYS);
    let bogus_scheme = unknown("scheme", COMPETITION_KEYS);
    let rows: Vec<(String, &str)> = vec![
        (sweep(""), "ok"),
        (competition(""), "ok"),
        // A wrong-typed value for each kind of field.
        (
            sweep(r#","duration_s":"x""#),
            r#"spec does not parse: ExperimentSpec.duration_s: expected u64, got Str("x")"#,
        ),
        (
            sweep(r#","bandwidth_mbps":["x"]"#),
            r#"spec does not parse: ExperimentSpec.bandwidth_mbps: expected f64, got Str("x")"#,
        ),
        (
            sweep(r#","seed":-1"#),
            "spec does not parse: ExperimentSpec.seed: expected u64, got I64(-1)",
        ),
        (
            sweep(r#","mss_bytes":1e10"#),
            "spec does not parse: ExperimentSpec.mss_bytes: u32 out of range: 10000000000",
        ),
        (
            sweep(r#","seed":[1,{"a":null}]"#),
            r#"spec does not parse: ExperimentSpec.seed: expected u64, got Arr([U64(1), Obj({"a": Null})])"#,
        ),
        (
            sweep(r#","agent_mi":1"#),
            "spec does not parse: ExperimentSpec.agent_mi: expected bool, got U64(1)",
        ),
        // Numbers follow RFC 8259: no leading zero, and a digit after
        // `.` and after the exponent mark and its sign.
        (
            sweep(r#","bandwidth_mbps":[10.]"#),
            "spec does not parse: bad number `10.`",
        ),
        (
            sweep(r#","owd_ms":[020]"#),
            "spec does not parse: bad number `020`",
        ),
        (
            sweep(r#","owd_ms":[-01]"#),
            "spec does not parse: bad number `-01`",
        ),
        (
            sweep(r#","bandwidth_mbps":[1.e5]"#),
            "spec does not parse: bad number `1.e5`",
        ),
        (
            sweep(r#","bandwidth_mbps":[1e]"#),
            "spec does not parse: bad number `1e`",
        ),
        (
            sweep(r#","bandwidth_mbps":[1E+]"#),
            "spec does not parse: bad number `1E+`",
        ),
        (
            sweep(r#","bandwidth_mbps":[-]"#),
            "spec does not parse: bad number `-`",
        ),
        (
            sweep(r#","bandwidth_mbps":[1.5.2]"#),
            "spec does not parse: bad number `1.5.2`",
        ),
        (
            sweep(r#","bandwidth_mbps":[0,0.5,10,1e1,1E+1,2.5e-1,-0.0e0]"#),
            "ok",
        ),
        (sweep(r#","owd_ms":[0,20,100]"#), "ok"),
        (
            sweep(r#","name":5"#),
            "spec does not parse: ExperimentSpec.name: expected string, got U64(5)",
        ),
        (
            sweep(r#","scheme":5"#),
            "spec does not parse: ExperimentSpec.scheme: expected scheme label string, got U64(5)",
        ),
        (
            sweep(r#","shapes":[5]"#),
            "spec does not parse: ExperimentSpec.shapes: expected trace-shape label string, got U64(5)",
        ),
        (
            sweep(r#","shapes":["wobble"]"#),
            "spec does not parse: ExperimentSpec.shapes: invalid spec: unknown trace shape \"wobble\": \
             expected `constant`, `square:<period_s>`, `osc:<steps>x<dwell_s>`, or `replay:<path>`",
        ),
        (
            sweep(r#","loads":[true]"#),
            "spec does not parse: ExperimentSpec.loads: expected flow-load label string, got Bool(true)",
        ),
        (
            competition(r#","mixes":[null]"#),
            "spec does not parse: ExperimentSpec.mixes: expected contender-mix label string, got Null",
        ),
        (
            competition(r#","tcp_baseline":1"#),
            "spec does not parse: ExperimentSpec.tcp_baseline: expected scheme label string, got U64(1)",
        ),
        (
            sweep(r#","owd_ms":20"#),
            "spec does not parse: ExperimentSpec.owd_ms: expected array, got U64(20)",
        ),
        (
            sweep(r#","policy":[]"#),
            "spec does not parse: ExperimentSpec.policy: expected object for PolicySpec",
        ),
        (
            sweep(r#","policy":"fast""#),
            "spec does not parse: ExperimentSpec.policy: expected object for PolicySpec",
        ),
        (
            sweep(r#","policy":{"seed":"x"}"#),
            r#"spec does not parse: ExperimentSpec.policy: PolicySpec.seed: expected u64, got Str("x")"#,
        ),
        (
            sweep(r#","policy":{"preference":3}"#),
            "spec does not parse: ExperimentSpec.policy: PolicySpec.preference: expected preference \
             label string, got U64(3)",
        ),
        (
            sweep(r#","policy":{"bacth":3}"#),
            "spec does not parse: ExperimentSpec.policy: PolicySpec: unknown field `bacth` (known \
             fields: path, seed, config, preference, initial_rate_frac, batch, fast_math)",
        ),
        // An unknown key under each kind; the other kind's keys are
        // unknown too, and a wrong-typed unknown key is still unknown.
        (sweep(r#","mixes":5"#), &sweep_mixes),
        (sweep(r#","colour":"red","mixes":[]"#), &sweep_colour),
        (competition(r#","scheme":"cubic""#), &competition_scheme),
        // A missing and a bad `kind`.
        (
            sweep("").replace(r#""kind":"sweep","#, ""),
            "spec does not parse: ExperimentSpec: missing field `kind`",
        ),
        (
            sweep(r#","kind":5"#),
            "spec does not parse: ExperimentSpec.kind: expected string, got U64(5)",
        ),
        (
            sweep(r#","kind":"bogus","loads":["steady:1"]"#),
            &bogus_kind,
        ),
        (sweep(r#","kind":"bogus""#), &bogus_scheme),
        (
            sweep(r#","kind":"bogus""#).replace(r#""scheme":"cubic","#, ""),
            "spec does not parse: ExperimentSpec.kind: expected \"sweep\" or \"competition\", got \"bogus\"",
        ),
        // A missing `name`, a present `null` where absence has a
        // default, and a present `null` float (the non-finite encoding).
        (
            sweep("").replace(r#""name":"e","#, ""),
            "spec does not parse: ExperimentSpec: missing field `name`",
        ),
        (
            sweep(r#","mss_bytes":null"#),
            "spec does not parse: ExperimentSpec.mss_bytes: expected u32, got Null",
        ),
        (competition(r#","fair_jain":null"#), "ok"),
        (sweep(r#","policy":null"#), "ok"),
        // Nesting past the parser's bound, inside and as the document.
        (
            sweep(&format!(r#","bandwidth_mbps":{deep}"#)),
            "spec does not parse: nesting deeper than 128 at byte 267",
        ),
        (
            deep.clone(),
            "spec does not parse: nesting deeper than 128 at byte 128",
        ),
        // Documents that are not objects, or not JSON.
        (
            "[]".to_string(),
            "spec does not parse: expected experiment object, got Arr([])",
        ),
        (
            "\"sweep\"".to_string(),
            "spec does not parse: expected experiment object, got Str(\"sweep\")",
        ),
        (
            sweep("").replace("[20]", "[20,]"),
            "spec does not parse: unexpected character at byte 79",
        ),
        (
            format!("{} x", sweep("")),
            "spec does not parse: trailing characters at byte 124",
        ),
        (
            sweep("")[..40].to_string(),
            "spec does not parse: unterminated string",
        ),
        (
            sweep("")[..8].to_string(),
            "spec does not parse: unexpected end of input at byte 8",
        ),
    ];
    check(&rows, spec_error);
}

/// A replay trace file's errors come from `validate`, which loads it.
#[test]
fn replay_trace_files_fail_with_pinned_messages() {
    let dir = std::env::temp_dir().join(format!("mocc-codec-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let rows: Vec<(&str, &str)> = vec![
        (
            r#"{"description":{"any":["json"]},"samples":[[0,5],[1.5,10]]}"#,
            "ok",
        ),
        (r#"{"samples":[[0,5]],"description":7}"#, "ok"),
        (
            "[[0,5]]",
            "spec does not parse: trace file <trace>: expected object for TraceFile",
        ),
        (
            r#"{"samples":[[0,5]],"note":"x","extra":1}"#,
            "spec does not parse: trace file <trace>: TraceFile: unknown field `note` (known fields: description, samples)",
        ),
        (
            r#"{"description":"x"}"#,
            "spec does not parse: trace file <trace>: TraceFile: missing field `samples`",
        ),
        (
            r#"{"samples":{"0":5}}"#,
            r#"spec does not parse: trace file <trace>: TraceFile.samples: expected array, got Obj({"0": U64(5)})"#,
        ),
        (
            r#"{"samples":[[0,5],[1,"x"]]}"#,
            r#"spec does not parse: trace file <trace>: TraceFile.samples: expected f64, got Str("x")"#,
        ),
        (
            r#"{"samples":[[0,5,1]]}"#,
            "spec does not parse: trace file <trace>: TraceFile.samples: tuple array too long",
        ),
        (
            r#"{"samples":[[0,null]]}"#,
            "invalid spec: trace file <trace>: sample 0: rate NaN must be finite and > 0",
        ),
        (
            r#"{"samples":[[0,5],[0,6]]}"#,
            "invalid spec: trace file <trace>: samples 0 and 1: time 0 is not after 0 on the \
             simulator's nanosecond clock; sample times must be strictly increasing",
        ),
        (
            r#"{"samples":[[0,5]"#,
            "spec does not parse: trace file <trace>: bad array at byte 17",
        ),
    ];
    let rows: Vec<(String, &str)> = rows
        .into_iter()
        .enumerate()
        .map(|(i, (body, want))| {
            let path = dir.join(format!("trace{i}.json"));
            std::fs::write(&path, body).expect("write trace");
            (path.display().to_string(), want)
        })
        .collect();
    check(&rows, |path| {
        let doc = sweep(&format!(r#","shapes":["replay:{path}"]"#));
        match ExperimentSpec::from_json(&doc)
            .expect("spec parses")
            .validate()
        {
            Ok(()) => "ok".to_string(),
            Err(e) => e.to_string().replace(path, "<trace>"),
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn serve_request_lines_fail_with_pinned_messages() {
    let dir = std::env::temp_dir().join(format!("mocc-codec-errors-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("store opens");
    let runner = SweepRunner::with_threads(1);
    fn clock() -> u64 {
        1
    }
    let server = Server {
        runner: &runner,
        store: &store,
        clock,
    };
    let respond = |line: &str| {
        let mut out = Vec::new();
        server
            .session(format!("{line}\n").as_bytes(), &mut out)
            .expect("in-memory transport");
        String::from_utf8(out)
            .expect("UTF-8")
            .trim_end()
            .to_string()
    };
    let invalid = sweep(r#","duration_s":0"#);
    let error = |msg: &str| {
        format!(
            r#"{{"error":{},"ok":false}}"#,
            serde_json::to_string(msg).unwrap()
        )
    };
    let one_of = error("run needs exactly one of `spec` (inline) or `path`");
    let needs_op = error("request needs a string `op` field");
    let rows: Vec<(String, String)> = vec![
        (
            r#"{"op":"ping"}"#.to_string(),
            r#"{"ok":true,"op":"ping"}"#.to_string(),
        ),
        (
            "not json".to_string(),
            error("bad request JSON: unexpected character at byte 0"),
        ),
        (
            r#"{"op":"ping"} {}"#.to_string(),
            error("bad request JSON: trailing characters at byte 14"),
        ),
        (
            r#"{"op":"ping","x":[1,}"#.to_string(),
            error("bad request JSON: unexpected character at byte 20"),
        ),
        ("[1,2]".to_string(), error("request must be a JSON object")),
        (
            "\"ping\"".to_string(),
            error("request must be a JSON object"),
        ),
        ("{}".to_string(), needs_op.clone()),
        (r#"{"op":42}"#.to_string(), needs_op.clone()),
        (r#"{"op":null}"#.to_string(), needs_op.clone()),
        (
            format!(r#"{{"op":"run","spec":{invalid},"path":"x.json"}}"#),
            one_of.clone(),
        ),
        (r#"{"op":"run","path":7}"#.to_string(), one_of.clone()),
        (r#"{"op":"run"}"#.to_string(), one_of),
        (
            format!(r#"{{"spec":{invalid},"op":"run"}}"#),
            error("invalid spec: duration_s must be >= 1"),
        ),
        (
            r#"{"spec":{"kind":5},"op":"run"}"#.to_string(),
            error("bad spec: ExperimentSpec.kind: expected string, got U64(5)"),
        ),
        (
            r#"{"op":"run","spec":[1]}"#.to_string(),
            error("bad spec: expected experiment object, got Arr([U64(1)])"),
        ),
        (
            format!(
                r#"{{"op":"run","spec":{}}}"#,
                sweep("").replace("[10]", "[10.]").replace("[20]", "[020]")
            ),
            error("bad request JSON: bad number `10.`"),
        ),
        (
            format!(
                r#"{{"op":"run","spec":{}}}"#,
                sweep("").replace("[20]", "[020]")
            ),
            error("bad request JSON: bad number `020`"),
        ),
        (
            r#"{"op":"ping","x":[0,-0,0.5,1e1,1E+1,2.5e-1]}"#.to_string(),
            r#"{"ok":true,"op":"ping"}"#.to_string(),
        ),
        (
            r#"{"op":"ping","x":01}"#.to_string(),
            error("bad request JSON: bad number `01`"),
        ),
        (
            r#"{"op":"nonsense","op":"ping"}"#.to_string(),
            r#"{"ok":true,"op":"ping"}"#.to_string(),
        ),
        (r#"{"op":"ping","op":7}"#.to_string(), needs_op),
        (
            r#"{"op":"nonsense"}"#.to_string(),
            error("unknown op \"nonsense\""),
        ),
        (
            r#"{"op":"stats","spec":[1,}"#.to_string(),
            error("bad request JSON: unexpected character at byte 24"),
        ),
    ];
    let rows: Vec<(String, &str)> = rows.iter().map(|(l, w)| (l.clone(), w.as_str())).collect();
    check(&rows, respond);
    let _ = std::fs::remove_dir_all(&dir);
}
