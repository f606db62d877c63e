//! The hostile-input corpus: every document, file and command line
//! found to crash, hang or mislead the `mocc` CLI is one row here, and
//! one oracle judges every row (docs/SPECS.md, "Hostile inputs").
//!
//! A row holds the files it needs, the command lines ("surfaces") it
//! goes through and its pinned text. Each surface runs in a child of
//! this test binary, one at a time, under `ulimit -v` and a deadline,
//! so a regression that allocates without end or waits forever fails
//! the row instead of the machine or the suite. The oracle, for a
//! refused input:
//!
//! - exit status 1 and no `panicked` on stderr;
//! - exactly one `error: ` line, preceded only by `[mocc] ` progress
//!   lines and followed by nothing but the usage text; `validate` names
//!   the file on the line before its count, and that line reads as the
//!   error line;
//! - the pinned text in the error line (the whole line when the pin
//!   starts with `error: `);
//! - nothing on stdout, and no `--out` file, zoo or hunt output; a
//!   store the command opened holds no ledger line, and a row that is
//!   refused before any work (`untouched`) leaves its directory as it
//!   found it and prints nothing before the error line;
//! - through `serve`, exit 0, a `{"error":…,"ok":false}` line holding
//!   the text, then `{"ok":true,"op":"ping"}`.
//!
//! This target has no libtest harness (`harness = false`): started as
//! `hostile --as-mocc ARGS…` it is the `mocc` CLI
//! (`mocc_bench::cli::main`); otherwise it runs the corpus and prints
//! one libtest-style line per row. Name filters, `--skip`, `--exact`
//! and `--list` work as they do for libtest.

use mocc::core::{agent_from_policy, train_spec, MoccAgent, TrainOptions, TrainSpec};
use mocc::eval::PolicySpec;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The first argument that makes this binary the `mocc` CLI.
const AS_MOCC: &str = "--as-mocc";
/// Address space of each child, in KiB (1 GiB).
const MEMORY_KIB: u64 = 1 << 20;
/// How long one child may take.
const DEADLINE: Duration = Duration::from_secs(20);
const PING: &str = r#"{"ok":true,"op":"ping"}"#;
/// The first line of the usage text, which follows a misused command's
/// error line.
const USAGE: &str = "mocc — run declarative MOCC experiment specs (docs/SPECS.md)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(AS_MOCC) {
        return mocc_bench::cli::main(&args[1..]);
    }
    run_corpus(&args)
}

// ---- the row model ------------------------------------------------------

/// A file a row makes in its directory before any surface runs.
enum Make {
    Text(String),
    /// A sparse file of this many bytes: no disk, and no reader may
    /// take it.
    Sparse(u64),
    Fifo,
    Link(&'static str),
    Dir,
    /// A saved model: the edit of a fresh (`false`) or a trained
    /// (`true`) agent.
    Model(bool, Edit),
    /// The trained run's checkpoint file of this name, one Adam moment
    /// short.
    ShortMoments(&'static str),
}

/// Writes an agent as a saved model, edited.
type Edit = fn(MoccAgent) -> String;

/// A command line, or a `serve` session.
enum Surface {
    Cli(Vec<String>),
    /// `serve --cache-dir {store}` reading this request line (`None`:
    /// `{"op":"run","spec":<spec.json>}`), then a ping.
    Serve(Option<String>),
}

enum Verdict {
    /// Refused with this text.
    Refused(String),
    /// `validate` accepts it and prints this text.
    Accepted(String),
    /// `serve` answers exactly this line.
    Answered(String),
}

struct Case {
    name: String,
    files: Vec<(&'static str, Make)>,
    env: Vec<(&'static str, &'static str)>,
    surfaces: Vec<Surface>,
    verdict: Verdict,
    untouched: bool,
}

impl Case {
    /// A row refused with `want` through `surfaces`; an empty surface
    /// is [`SERVE`].
    fn new(name: impl Into<String>, surfaces: &[&[&str]], want: &str) -> Case {
        let surface = |argv: &&[&str]| match argv {
            [] => Surface::Serve(None),
            _ => Surface::Cli(argv.iter().map(|a| a.to_string()).collect()),
        };
        Case {
            name: name.into(),
            files: Vec::new(),
            env: Vec::new(),
            surfaces: surfaces.iter().map(surface).collect(),
            verdict: Verdict::Refused(want.to_string()),
            untouched: false,
        }
    }

    /// A document at `{spec}`; a `want` that starts with `ok ` is what
    /// `validate` prints when it accepts the document.
    fn spec(name: impl Into<String>, doc: String, surfaces: &[&[&str]], want: &str) -> Case {
        let mut case = Case::new(name, surfaces, want).with("spec.json", Make::Text(doc));
        if want.starts_with("ok ") {
            case.verdict = Verdict::Accepted(want.to_string());
        }
        case
    }

    fn with(mut self, file: &'static str, make: Make) -> Case {
        self.files.push((file, make));
        self
    }

    fn env(mut self, key: &'static str, value: &'static str) -> Case {
        self.env.push((key, value));
        self
    }

    fn untouched(mut self) -> Case {
        self.untouched = true;
        self
    }
}

// Surfaces. `{spec}`, `{out}`, `{zoo}`, `{hunt}`, `{store}`, `{trace}`
// and `{model}` are files of the row's directory, `{dir}` the
// directory itself.
const VALIDATE: &[&str] = &["validate", "{spec}"];
const RUN: &[&str] = &["run", "{spec}", "--out", "{out}"];
const RUN_1: &[&str] = &["run", "{spec}", "--threads", "1", "--out", "{out}"];
const RUN_CACHED: &[&str] = &["run", "{spec}", "--cache-dir", "{store}", "--out", "{out}"];
const TRAIN: &[&str] = &["train", "{spec}", "--zoo", "{zoo}"];
const HUNT: &[&str] = &["hunt", "{spec}", "--budget", "1", "--out-dir", "{hunt}"];
/// `serve` with the row's spec as an inline `run` request.
const SERVE: &[&str] = &[];

const SWEEP_CUBIC: &str = "examples/specs/sweep_cubic.json";
const COMPETITION_MOCC: &str = "examples/specs/competition_mocc.json";
const HUNT_SMOKE: &str = "examples/specs/hunt_smoke.json";
const TRAIN_SMOKE: &str = "examples/specs/train_smoke.json";

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

/// The shipped spec at `path` with `from` replaced by `to`.
fn shipped(path: &str, from: &str, to: &str) -> String {
    let text = std::fs::read_to_string(path).expect("shipped spec");
    assert!(text.contains(from), "{path} lost {from}");
    text.replace(from, to)
}

/// `want` as the whole error line of a command on `{spec}`; an `ok …`
/// acceptance stays as it is.
fn whole(want: &str) -> String {
    match want.starts_with("ok ") {
        true => want.to_string(),
        false => format!("error: {{spec}}: {want}"),
    }
}

/// A row name made of `text`'s letters and digits.
fn slug(prefix: &str, text: &str) -> String {
    let mut name = format!("{prefix}::");
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            name.push(c.to_ascii_lowercase());
        } else if !name.ends_with(['_', ':']) {
            name.push('_');
        }
    }
    name.trim_end_matches('_').chars().take(60).collect()
}

// ---- the corpus ---------------------------------------------------------

fn corpus() -> Vec<Case> {
    let mut rows = Vec::new();
    documents(&mut rows);
    trace_files(&mut rows);
    serve_requests(&mut rows);
    sizes(&mut rows);
    files(&mut rows);
    models_and_checkpoints(&mut rows);
    command_lines(&mut rows);
    // A name made from text can be empty or repeat; number the repeats.
    let mut seen = std::collections::BTreeSet::new();
    for case in &mut rows {
        if case.name.ends_with(':') {
            case.name.push_str("empty");
        }
        let base = case.name.clone();
        for n in 2.. {
            if seen.insert(case.name.clone()) {
                break;
            }
            case.name = format!("{base}_{n}");
        }
    }
    rows
}

const SWEEP_KEYS: &str = "kind, name, bandwidth_mbps, owd_ms, queue_pkts, duration_s, \
                          mss_bytes, seed, agent_mi, policy, scheme, loss, shapes, loads";
const COMPETITION_KEYS: &str = "kind, name, bandwidth_mbps, owd_ms, queue_pkts, duration_s, \
                                mss_bytes, seed, agent_mi, policy, mixes, tcp_baseline, \
                                fair_jain, fair_sustain_s";

/// Documents that do not parse, or parse to the wrong types, through
/// `validate`; and the near misses it must accept.
#[rustfmt::skip]
fn documents(rows: &mut Vec<Case>) {
    let (s, c) = (sweep, competition);
    let deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
    let unknown = |key: &str, known: &str| {
        format!("spec does not parse: ExperimentSpec: unknown field `{key}` (known fields: {known})")
    };
    let (sweep_mixes, sweep_colour) = (unknown("mixes", SWEEP_KEYS), unknown("colour", SWEEP_KEYS));
    let (competition_scheme, competition_loads) = (unknown("scheme", COMPETITION_KEYS), unknown("loads", COMPETITION_KEYS));
    let table: Vec<(String, &str)> = vec![
        (s(""), "ok (1 cells, baseline-only)"),
        (c(""), "ok (1 cells, baseline-only)"),
        // A wrong-typed value for each kind of field.
        (s(r#","duration_s":"x""#), r#"spec does not parse: ExperimentSpec.duration_s: expected u64, got Str("x")"#),
        (s(r#","bandwidth_mbps":["x"]"#), r#"spec does not parse: ExperimentSpec.bandwidth_mbps[0]: expected f64, got Str("x")"#),
        (s(r#","seed":-1"#), "spec does not parse: ExperimentSpec.seed: expected u64, got I64(-1)"),
        (s(r#","mss_bytes":1e10"#), "spec does not parse: ExperimentSpec.mss_bytes: u32 out of range: 10000000000"),
        (s(r#","seed":[1,{"a":null}]"#), r#"spec does not parse: ExperimentSpec.seed: expected u64, got Arr([U64(1), Obj({"a": Null})])"#),
        (s(r#","agent_mi":1"#), "spec does not parse: ExperimentSpec.agent_mi: expected bool, got U64(1)"),
        // Numbers follow RFC 8259: no leading zero, and a digit after
        // `.` and after the exponent mark and its sign.
        (s(r#","bandwidth_mbps":[10.]"#), "spec does not parse: bad number `10.` at byte 141"),
        (s(r#","owd_ms":[020]"#), "spec does not parse: bad number `020` at byte 133"),
        (s(r#","owd_ms":[-01]"#), "spec does not parse: bad number `-01` at byte 133"),
        (s(r#","bandwidth_mbps":[1.e5]"#), "spec does not parse: bad number `1.e5` at byte 141"),
        (s(r#","bandwidth_mbps":[1e]"#), "spec does not parse: bad number `1e` at byte 141"),
        (s(r#","bandwidth_mbps":[1E+]"#), "spec does not parse: bad number `1E+` at byte 141"),
        (s(r#","bandwidth_mbps":[-]"#), "spec does not parse: bad number `-` at byte 141"),
        (s(r#","bandwidth_mbps":[1.5.2]"#), "spec does not parse: bad number `1.5.2` at byte 141"),
        // Every number here parses; `validate` then refuses the zero.
        (s(r#","bandwidth_mbps":[0,0.5,10,1e1,1E+1,2.5e-1,-0.0e0]"#), "invalid spec: bandwidth_mbps value 0 must be finite and > 0"),
        (s(r#","owd_ms":[0,20,100]"#), "ok (3 cells, baseline-only)"),
        (s(r#","name":5"#), "spec does not parse: ExperimentSpec.name: expected string, got U64(5)"),
        (s(r#","scheme":5"#), "spec does not parse: ExperimentSpec.scheme: expected scheme label string, got U64(5)"),
        (s(r#","shapes":[5]"#), "spec does not parse: ExperimentSpec.shapes[0]: expected trace-shape label string, got U64(5)"),
        (s(r#","shapes":["wobble"]"#), "spec does not parse: ExperimentSpec.shapes[0]: invalid spec: unknown trace shape \"wobble\": expected `constant`, `square:<period_s>`, `osc:<steps>x<dwell_s>`, or `replay:<path>`"),
        (s(r#","loads":[true]"#), "spec does not parse: ExperimentSpec.loads[0]: expected flow-load label string, got Bool(true)"),
        (c(r#","mixes":[null]"#), "spec does not parse: ExperimentSpec.mixes[0]: expected contender-mix label string, got Null"),
        (c(r#","tcp_baseline":1"#), "spec does not parse: ExperimentSpec.tcp_baseline: expected scheme label string, got U64(1)"),
        (s(r#","owd_ms":20"#), "spec does not parse: ExperimentSpec.owd_ms: expected array, got U64(20)"),
        (s(r#","policy":[]"#), "spec does not parse: ExperimentSpec.policy: expected object for PolicySpec"),
        (s(r#","policy":"fast""#), "spec does not parse: ExperimentSpec.policy: expected object for PolicySpec"),
        (s(r#","policy":{"seed":"x"}"#), r#"spec does not parse: ExperimentSpec.policy: PolicySpec.seed: expected u64, got Str("x")"#),
        (s(r#","policy":{"preference":3}"#), "spec does not parse: ExperimentSpec.policy: PolicySpec.preference: expected preference label string, got U64(3)"),
        (s(r#","policy":{"bacth":3}"#), "spec does not parse: ExperimentSpec.policy: PolicySpec: unknown field `bacth` (known fields: path, seed, config, preference, initial_rate_frac, batch, fast_math)"),
        // An unknown key under each kind; the other kind's keys are
        // unknown too, and a wrong-typed unknown key is still unknown.
        (s(r#","mixes":5"#), &sweep_mixes),
        (s(r#","colour":"red","mixes":[]"#), &sweep_colour),
        (c(r#","scheme":"cubic""#), &competition_scheme),
        // A missing and a bad `kind`.
        (s("").replace(r#""kind":"sweep","#, ""), "spec does not parse: ExperimentSpec: missing field `kind`"),
        (s(r#","kind":5"#), "spec does not parse: ExperimentSpec.kind: expected string, got U64(5)"),
        (s(r#","kind":"bogus","loads":["steady:1"]"#), &competition_loads),
        (s(r#","kind":"bogus""#), &competition_scheme),
        (s(r#","kind":"bogus""#).replace(r#""scheme":"cubic","#, ""), "spec does not parse: ExperimentSpec.kind: expected \"sweep\" or \"competition\", got \"bogus\""),
        // A missing `name`, a present `null` where absence has a
        // default, and a present `null` float (the non-finite encoding,
        // which `validate` then refuses).
        (s("").replace(r#""name":"e","#, ""), "spec does not parse: ExperimentSpec: missing field `name`"),
        (s(r#","mss_bytes":null"#), "spec does not parse: ExperimentSpec.mss_bytes: expected u32, got Null"),
        (c(r#","fair_jain":null"#), "invalid spec: fair_jain NaN must be in [0, 1]"),
        (s(r#","policy":null"#), "ok (1 cells, baseline-only)"),
        // Nesting past the parser's bound, inside and as the document.
        (s(&format!(r#","bandwidth_mbps":{deep}"#)), "spec does not parse: nesting deeper than 128 at byte 267"),
        (deep.clone(), "spec does not parse: nesting deeper than 128 at byte 128"),
        // Documents that are not objects, or not JSON; an empty one ends
        // where its value should start.
        ("[]".into(), "spec does not parse: expected experiment object, got Arr([])"),
        ("\"sweep\"".into(), "spec does not parse: expected experiment object, got Str(\"sweep\")"),
        (s("").replace("[20]", "[20,]"), "spec does not parse: unexpected character at byte 79"),
        (format!("{} x", s("")), "spec does not parse: trailing characters at byte 124"),
        (s("")[..40].to_string(), "spec does not parse: unterminated string"),
        (s("")[..8].to_string(), "spec does not parse: unexpected end of input at byte 8"),
        (String::new(), "spec does not parse: unexpected end of input at byte 0"),
    ];
    let base = s("");
    for (doc, want) in table {
        let name = slug("spec", doc.strip_prefix(&base[..base.len() - 1]).unwrap_or(&doc));
        rows.push(Case::spec(name, doc, &[VALIDATE], &whole(want)));
    }
    rows.push(Case::spec("spec::numbers_10_and_020", s("").replace("[10]", "[10.]").replace("[20]", "[020]"), &[VALIDATE], &whole("spec does not parse: bad number `10.` at byte 62")));
    rows.push(Case::spec("spec::empty_run", String::new(), &[RUN], &whole("spec does not parse: unexpected end of input at byte 0")));
    // 300 000 unclosed brackets overflowed the parser's stack (exit 134).
    rows.push(Case::spec("spec::deep_300000", "[".repeat(300_000), &[VALIDATE, RUN], &whole("spec does not parse: nesting deeper than 128 at byte 128")));
}

/// Replay trace files, which `validate` loads.
#[rustfmt::skip]
fn trace_files(rows: &mut Vec<Case>) {
    let table: &[(&str, &str)] = &[
        (r#"{"description":{"any":["json"]},"samples":[[0,5],[1.5,10]]}"#, "ok (1 cells, baseline-only)"),
        (r#"{"samples":[[0,5]],"description":7}"#, "ok (1 cells, baseline-only)"),
        ("[[0,5]]", "spec does not parse: trace file {trace}: expected object for TraceFile"),
        (r#"{"samples":[[0,5]],"note":"x","extra":1}"#, "spec does not parse: trace file {trace}: TraceFile: unknown field `note` (known fields: description, samples)"),
        (r#"{"description":"x"}"#, "spec does not parse: trace file {trace}: TraceFile: missing field `samples`"),
        (r#"{"samples":{"0":5}}"#, r#"spec does not parse: trace file {trace}: TraceFile.samples: expected array, got Obj({"0": U64(5)})"#),
        (r#"{"samples":[[0,5],[1,"x"]]}"#, r#"spec does not parse: trace file {trace}: TraceFile.samples[1][1]: expected f64, got Str("x")"#),
        (r#"{"samples":[[0,5,1]]}"#, "spec does not parse: trace file {trace}: TraceFile.samples[0]: tuple array too long"),
        (r#"{"samples":[[0,null]]}"#, "invalid spec: trace file {trace}: sample 0: rate NaN must be finite and > 0"),
        (r#"{"samples":[[0,5],[0,6]]}"#, "invalid spec: trace file {trace}: samples 0 and 1: time 0 is not after 0 on the simulator's nanosecond clock; sample times must be strictly increasing"),
        (r#"{"samples":[[0,5]"#, "spec does not parse: trace file {trace}: bad array at byte 17"),
    ];
    for &(body, want) in table {
        let doc = sweep(r#","shapes":["replay:{trace}"]"#);
        rows.push(Case::spec(slug("trace", body), doc, &[VALIDATE], &whole(want)).with("trace.json", Make::Text(body.into())));
    }
}

/// `mocc serve` request lines and the exact line each is answered with.
#[rustfmt::skip]
fn serve_requests(rows: &mut Vec<Case>) {
    let invalid = sweep(r#","duration_s":0"#);
    let run = |spec: String| format!(r#"{{"op":"run","spec":{spec}}}"#);
    let error = |msg: &str| format!(r#"{{"error":{},"ok":false}}"#, serde_json::to_string(msg).unwrap());
    let one_of = error("run needs exactly one of `spec` (inline) or `path`");
    let needs_op = error("request needs a string `op` field");
    let table: Vec<(String, String)> = vec![
        (r#"{"op":"ping"}"#.into(), PING.into()),
        ("not json".into(), error("bad request JSON: unexpected character at byte 0")),
        (r#"{"op":"ping"} {}"#.into(), error("bad request JSON: trailing characters at byte 14")),
        (r#"{"op":"ping","x":[1,}"#.into(), error("bad request JSON: unexpected character at byte 20")),
        ("[1,2]".into(), error("request must be a JSON object")),
        ("\"ping\"".into(), error("request must be a JSON object")),
        ("{}".into(), needs_op.clone()),
        (r#"{"op":42}"#.into(), needs_op.clone()),
        (r#"{"op":null}"#.into(), needs_op.clone()),
        (format!(r#"{{"op":"run","spec":{invalid},"path":"x.json"}}"#), one_of.clone()),
        (r#"{"op":"run","path":7}"#.into(), one_of.clone()),
        (r#"{"op":"run"}"#.into(), one_of),
        (format!(r#"{{"spec":{invalid},"op":"run"}}"#), error("invalid spec: duration_s must be >= 1")),
        (r#"{"spec":{"kind":5},"op":"run"}"#.into(), error("bad spec: ExperimentSpec.kind: expected string, got U64(5)")),
        (r#"{"op":"run","spec":[1]}"#.into(), error("bad spec: expected experiment object, got Arr([U64(1)])")),
        (run(sweep("").replace("[10]", "[10.]").replace("[20]", "[020]")), error("bad request JSON: bad number `10.` at byte 81")),
        (run(sweep("").replace("[20]", "[020]")), error("bad request JSON: bad number `020` at byte 95")),
        (r#"{"op":"ping","x":[0,-0,0.5,1e1,1E+1,2.5e-1]}"#.into(), PING.into()),
        (r#"{"op":"ping","x":01}"#.into(), error("bad request JSON: bad number `01` at byte 17")),
        (r#"{"op":"nonsense","op":"ping"}"#.into(), PING.into()),
        (r#"{"op":"ping","op":7}"#.into(), needs_op),
        (r#"{"op":"nonsense"}"#.into(), error("unknown op \"nonsense\"")),
        (r#"{"op":"stats","spec":[1,}"#.into(), error("bad request JSON: unexpected character at byte 24")),
    ];
    for (line, want) in table {
        let mut case = Case::new(slug("serve", &line), &[], "");
        (case.surfaces, case.verdict) = (vec![Surface::Serve(Some(line))], Verdict::Answered(want));
        rows.push(case);
    }
}

/// Documents of a few bytes that asked for more than memory holds, or
/// for more than the simulator's clock can count.
#[rustfmt::skip]
fn sizes(rows: &mut Vec<Case>) {
    // Delays and durations beyond the u64 nanosecond clock wrapped to
    // an all-zero report, exit 0, memoised under `--cache-dir`.
    for (field, from, to, value) in [("owd_ms", "[10,40]", "[10000000000000]", "10000000000000"), ("duration_s", "8", "18446744073", "18446744073")] {
        let doc = shipped(SWEEP_CUBIC, &format!("\"{field}\":{from}"), &format!("\"{field}\":{to}"));
        let want = format!("invalid spec: {field} value {value} does not fit the simulator clock");
        rows.push(Case::spec(format!("sizes::clock_{field}"), doc, &[VALIDATE, RUN, RUN_CACHED], &want));
    }
    // Flow counts past what a cell may hold panicked `run` (capacity
    // overflow) or aborted it and a daemon allocating the flows; a
    // hostile incast panicked `validate` itself.
    let big = u64::MAX;
    for (name, doc) in [
        ("steady", sweep(&format!(r#","loads":["steady:{big}"]"#))),
        ("onoff", sweep(&format!(r#","loads":["onoff:{big}"]"#))),
        ("incast", competition(&format!(r#","mixes":["incast:cubic:{big}x0.5"],"duration_s":20"#))),
    ] {
        rows.push(Case::spec(format!("sizes::flows_{name}"), doc, &[VALIDATE, RUN, SERVE], "a cell holds at most 1024 flows"));
    }
    // Four 100-value axes are 10^8 cells; six 2 000-value axes wrap the
    // flow count. Both aborted `run` and a daemon.
    let axes = |n: usize, loads_and_shapes: bool| {
        let values = |f: &dyn Fn(usize) -> String| (1..=n).map(f).collect::<Vec<_>>().join(",");
        let extra = match loads_and_shapes {
            true => format!(r#","shapes":[{}],"loads":[{}]"#, values(&|_| "\"constant\"".into()), values(&|_| "\"steady:1\"".into())),
            false => String::new(),
        };
        format!(
            r#"{{"kind":"sweep","name":"h","scheme":"cubic","bandwidth_mbps":[{}],"owd_ms":[{}],"queue_pkts":[{}],"loss":[{}],"duration_s":2,"seed":1{extra}}}"#,
            values(&|v| format!("{v}.0")), values(&|v| v.to_string()), values(&|v| v.to_string()), values(&|v| format!("{}", (v - 1) as f64 / n as f64)),
        )
    };
    rows.push(Case::spec("sizes::cells_100_axes", axes(100, false), &[VALIDATE, RUN, RUN_1, SERVE],
        "invalid spec: the experiment expands to 100000000 cells holding 100000000 flows; a run holds at most 262144"));
    rows.push(Case::spec("sizes::flows_wrap_2000_axes", axes(2000, true), &[VALIDATE, RUN], "more than usize::MAX flows"));
    // A 10^9 Mbps link is 8·10^10 packets/s: a paced sender's gap
    // rounded to 0 ns and `run` aborted on a 3 GiB queue.
    let huge = r#"{"kind":"sweep","name":"huge","scheme":"mocc","bandwidth_mbps":[1e9],"owd_ms":[20],"queue_pkts":[100],"duration_s":5,"seed":1,"policy":{}}"#;
    rows.push(Case::spec("sizes::rate_1e9_mbps", huge.into(), &[VALIDATE, SERVE], "invalid spec: bandwidth_mbps value 1000000000 "));
    // A generated trace allocates its steps per cell: an 800 GB cycle,
    // a 2 GiB step list, and 5·10^8 steps from a step the clock can
    // still count.
    for (shape, want) in [
        ("osc:100000000000x1", "a ramp of 100000000000 steps; a generated trace holds at most 1000000"),
        ("square:1e-9", "a step of 1e-9 s; the simulator's nanosecond clock needs at least 2e-9 s"),
        ("square:2e-9", "emits 500000000 steps over duration_s 1; a generated trace holds at most 1000000"),
        ("osc:1x2e-9", "emits 500000000 steps over duration_s 1; a generated trace holds at most 1000000"),
    ] {
        let doc = sweep(&format!(r#","duration_s":1,"shapes":["{shape}"]"#));
        rows.push(Case::spec(slug("sizes::shape", shape), doc, &[VALIDATE, RUN_1, SERVE], want));
    }
    // A train spec's schedule and rollout sizes are counted with
    // checked arithmetic against named caps before anything is built.
    let big = big.to_string();
    for (knob, value, want) in [
        ("boot_iters", "100000000000", "the schedule exceeds"),
        ("boot_iters", &big, "the schedule exceeds"),
        ("traverse_cycles", &big, "the schedule exceeds"),
        ("traverse_iters", &big, "the schedule exceeds"),
        ("omega_step", "4294967296", "omega_step 4294967296"),
        ("omega_step", "800", "omega_step 800"),
        ("rollout_steps", &big, "rollout_steps must be <="),
        ("episode_mis", &big, "episode_mis must be <="),
    ] {
        let doc = format!(r#"{{"kind":"train","name":"h","seed":1,"{knob}":{value}}}"#);
        rows.push(Case::spec(format!("sizes::train_{knob}_{value}"), doc, &[VALIDATE, TRAIN], want));
    }
}

/// Files no reader may take whole: huge, endless, a FIFO, and a store
/// ledger that is not a regular file.
#[rustfmt::skip]
fn files(rows: &mut Vec<Case>) {
    let replay = sweep(r#","shapes":["replay:{trace}"]"#);
    for (gib, surfaces) in [(4u64, &[VALIDATE, RUN][..]), (3, &[VALIDATE][..])] {
        let want = format!("{} bytes, over the 67108864-byte cap", gib << 30);
        rows.push(Case::spec(format!("files::trace_{gib}_gib"), replay.clone(), surfaces, &want).with("trace.json", Make::Sparse(gib << 30)));
    }
    let model = shipped(COMPETITION_MOCC, r#""path":null"#, r#""path":"{model}""#);
    rows.push(Case::spec("files::model_3_gib", model, &[RUN], "{model}: 3221225472 bytes, over the 67108864-byte cap").with("model.json", Make::Sparse(3 << 30)));
    rows.push(Case::spec("files::trace_dev_zero", sweep(r#","shapes":["replay:/dev/zero"]"#), &[VALIDATE, RUN], "trace file /dev/zero: "));
    rows.push(Case::new("files::spec_dev_zero", &[&["validate", "/dev/zero"], &["run", "/dev/zero", "--out", "{out}"]],
        "error: /dev/zero: spec does not parse: unexpected end of input at byte 0"));
    // A FIFO's open waits for a writer forever; it reads as empty.
    rows.push(Case::new("files::spec_fifo", &[VALIDATE, RUN], &whole("spec does not parse: unexpected end of input at byte 0")).with("spec.json", Make::Fifo));
    rows.push(Case::spec("files::trace_fifo", replay, &[VALIDATE, RUN], &whole("spec does not parse: trace file {trace}: unexpected end of input at byte 0")).with("trace.json", Make::Fifo));
    // The ledger is read whole: a FIFO blocked every command that
    // opens the store, and /dev/zero read until allocation failed.
    for (kind, ledger) in [("fifo", Make::Fifo), ("dev_zero", Make::Link("/dev/zero"))] {
        let surfaces: &[&[&str]] = &[
            &["cache", "stats", "--cache-dir", "{store}"],
            &["cache", "verify", "--cache-dir", "{store}"],
            &["cache", "gc", "--cache-dir", "{store}"],
            &["run", SWEEP_CUBIC, "--out", "{out}", "--cache-dir", "{store}"],
            &["serve", "--cache-dir", "{store}"],
        ];
        let case = Case::new(format!("files::ledger_{kind}"), surfaces, "error: {store}/ledger.jsonl: the store's ledger is not a regular file");
        rows.push(case.with("store", Make::Dir).with("store/objects", Make::Dir).with("store/ledger.jsonl", ledger));
    }
}

/// Saved models whose config disagrees with their networks, or whose
/// networks disagree with themselves, panicked the decoder or a worker
/// at the first forward pass; a checkpoint with a short Adam moment
/// panicked the first update after `--resume`.
#[rustfmt::skip]
fn models_and_checkpoints(rows: &mut Vec<Case>) {
    fn history(n: usize, a: MoccAgent) -> String {
        a.to_json().replace("\"history\":10", &format!("\"history\":{n}"))
    }
    let spec = shipped(COMPETITION_MOCC, r#""path":null"#, r#""path":"{model}""#);
    let no_layers: Edit = |mut a| { a.ppo.policy.net.main.layers.clear(); a.to_json() };
    let short_policy: Edit = |mut a| { a.ppo.policy.net.main.layers[0].w.data.pop(); a.to_json() };
    let short_value: Edit = |mut a| { a.ppo.value.pn.layers[0].w.data.pop(); a.to_json() };
    let models: &[(&str, bool, Edit, &str)] = &[
        ("history_5", false, |a| history(5, a), "error: {spec}: {model}: cfg.history 5 means 18 observation inputs, but the policy network takes 33"),
        ("history_0", false, |a| history(0, a), "error: {spec}: {model}: cfg.history is 0; it must be >= 1"),
        ("no_layers", false, no_layers, "error: {spec}: {model}: policy.main has no layers"),
        ("short_value_weights", false, short_value, "error: {spec}: {model}: value.pn layer 0: a 3x16 weight matrix holds 47 values"),
        ("trained_history_5", true, |a| history(5, a), "cfg.history 5 means 18 observation inputs"),
        ("trained_no_layers", true, no_layers, "{model}: policy.main has no layers"),
        ("trained_short_policy_weights", true, short_policy, "{model}: policy.main layer 0: a 46x64 weight matrix holds 2943 values"),
        ("trained_short_value_weights", true, short_value, "{model}: value.pn layer 0: a 3x16 weight matrix holds 47 values"),
    ];
    for &(name, trained, edit, want) in models {
        rows.push(Case::spec(format!("model::{name}"), spec.clone(), &[RUN], want).with("model.json", Make::Model(trained, edit)));
    }
    let resume: &[&str] = &["train", TRAIN_SMOKE, "--zoo", "{zoo}", "--resume", "{dir}/ck"];
    rows.push(Case::new("checkpoint::short_adam_moments", &[resume], "ppo.opt_v.m[0] holds 2943 values for a tensor of 2944")
        .with("ck", Make::Dir)
        .with("ck/checkpoint.json", Make::ShortMoments("checkpoint.json"))
        .with("ck/checkpoint.prev.json", Make::ShortMoments("checkpoint.prev.json")));
    // `policy.fast_math` named the approximate inference tier, which is
    // gone: `true` is an invalid spec for every reader of a spec.
    for (path, surfaces) in [(COMPETITION_MOCC, &[VALIDATE, RUN, RUN_CACHED, SERVE][..]), (HUNT_SMOKE, &[VALIDATE, RUN, RUN_CACHED, HUNT, SERVE][..])] {
        let doc = shipped(path, "\"fast_math\":false", "\"fast_math\":true");
        rows.push(Case::spec(slug("model::fast_math_true", path), doc, surfaces, "policy.fast_math must be false"));
    }
}

/// Flags and environment the CLI refuses before it reads a document.
#[rustfmt::skip]
fn command_lines(rows: &mut Vec<Case>) {
    // A flag that exists but belongs to another subcommand names the
    // flag and the subcommand, and says what the subcommand takes.
    let takes = "it takes only --zoo, --resume, --out, --max-iters";
    let train_seed = format!("`mocc train` does not take --seed: {takes}");
    let flags: &[(&[&str], &str)] = &[
        (&["run", SWEEP_CUBIC, "--out", "{out}", "--seed", "5"], "`mocc run` does not take --seed"),
        (&["run", SWEEP_CUBIC, "--out", "{out}", "--zoo", "/nonexistent"], "`mocc run` does not take --zoo"),
        (&["run", SWEEP_CUBIC, "--out", "{out}", "--max-iters", "3"], "`mocc run` does not take --max-iters"),
        (&["run", SWEEP_CUBIC, "--out", "{out}", "--budget", "3"], "`mocc run` does not take --budget"),
        (&["train", TRAIN_SMOKE, "--zoo", "{zoo}", "--seed", "9"], &train_seed),
        (&["train", TRAIN_SMOKE, "--seed", "9"], &train_seed),
        (&["train", TRAIN_SMOKE, "--zoo", "{zoo}", "--budget", "3"], "`mocc train` does not take --budget"),
        (&["train", TRAIN_SMOKE, "--zoo", "{zoo}", "--threads", "2"], "`mocc train` does not take --threads"),
        (&["hunt", SWEEP_CUBIC, "--out", "{out}"], "`mocc hunt` does not take --out"),
        (&["validate", SWEEP_CUBIC, "--rule", "x"], "`mocc validate` does not take --rule: it takes no options"),
        (&["validate", SWEEP_CUBIC, "--threads", "2"], "`mocc validate` does not take --threads: it takes no options"),
        (&["cache", "stats", "--cache-dir", "{store}", "--threads", "3"], "`mocc cache` does not take --threads"),
        (&["serve", "--cache-dir", "{store}", "--out", "{out}"], "`mocc serve` does not take --out"),
        (&["audit", "--threads", "2"], "`mocc audit` does not take --threads"),
        // Flags no subcommand has: `--batch` selected lockstep
        // inference, `--fast-math` the approximate tier.
        (&["run", COMPETITION_MOCC, "--out", "{out}", "--batch", "4"], "error: unknown option \"--batch\""),
        (&["run", COMPETITION_MOCC, "--batch", "4"], "error: unknown option \"--batch\""),
        (&["run", COMPETITION_MOCC, "--out", "{out}", "--fast-math"], "error: unknown option \"--fast-math\""),
        (&["run", COMPETITION_MOCC, "--fast-math"], "error: unknown option \"--fast-math\""),
        (&["serve", "--cache-dir", "{store}", "--fast-math"], "error: unknown option \"--fast-math\""),
    ];
    for &(argv, want) in flags {
        let words: Vec<&str> = argv.iter().copied().filter(|a| !a.contains(['/', '{'])).collect();
        rows.push(Case::new(slug("flags", &words.join(" ")), &[argv], want).untouched());
    }
    // A malformed `MOCC_SWEEP_THREADS` is reported like a bad
    // `--threads`, before anything is opened.
    let threads: &[&[&str]] = &[&["run", SWEEP_CUBIC], &["hunt", HUNT_SMOKE, "--budget", "1"], &["serve", "--cache-dir", "{store}"]];
    rows.push(Case::new("env::sweep_threads_abc", threads, "error: MOCC_SWEEP_THREADS=\"abc\" is not a positive integer; unset it for auto-detection or set N >= 1")
        .env("MOCC_SWEEP_THREADS", "abc")
        .untouched());
    // A cache root that cannot be created is `<path>: <reason>`.
    rows.push(Case::new("env::cache_root_under_a_file", &[&["cache", "stats"], &["run", SWEEP_CUBIC, "--cache"], &["serve"]], "error: {dir}/file/cache: Not a directory (os error 20)")
        .with("file", Make::Text("x".into()))
        .env("MOCC_CACHE_DIR", "{dir}/file/cache"));
}

// ---- the one oracle -----------------------------------------------------

/// Expands a row's placeholders against its directory.
fn expand(text: &str, dir: &Path) -> String {
    let files = [
        ("{spec}", "{dir}/spec.json"),
        ("{out}", "{dir}/out.json"),
        ("{zoo}", "{dir}/zoo"),
        ("{hunt}", "{dir}/hunt"),
        ("{store}", "{dir}/store"),
        ("{trace}", "{dir}/trace.json"),
        ("{model}", "{dir}/model.json"),
    ];
    let text = files
        .iter()
        .fold(text.to_string(), |t, (from, to)| t.replace(from, to));
    text.replace("{dir}", dir.to_str().expect("UTF-8 temp path"))
}

/// What the corpus builds once: a fresh and a trained agent, and the
/// trained run's checkpoints.
struct Fixtures {
    fresh: MoccAgent,
    trained: MoccAgent,
    checkpoints: PathBuf,
}

/// Trains `train_smoke` for four iterations (two checkpoints) the first
/// time a row needs it.
fn fixtures(root: &Path) -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let checkpoints = root.join("trained-checkpoints");
        let spec = TrainSpec::load(Path::new(TRAIN_SMOKE)).expect("train_smoke loads");
        let opts = TrainOptions {
            checkpoint_dir: Some(checkpoints.clone()),
            max_iters: Some(4),
            ..TrainOptions::default()
        };
        Fixtures {
            fresh: agent_from_policy(&PolicySpec::default()).expect("fresh agent"),
            trained: train_spec(&spec, &opts).expect("train_smoke trains").agent,
            checkpoints,
        }
    })
}

/// Makes `file` of the row directory `dir`.
fn make(dir: &Path, file: &str, what: &Make, root: &Path) {
    let path = &dir.join(file);
    match what {
        Make::Text(text) => std::fs::write(path, expand(text, dir)).unwrap(),
        Make::Sparse(len) => std::fs::File::create(path).unwrap().set_len(*len).unwrap(),
        Make::Dir => std::fs::create_dir_all(path).unwrap(),
        Make::Link(target) => std::os::unix::fs::symlink(target, path).unwrap(),
        Make::Fifo => {
            let status = Command::new("mkfifo").arg(path).status().unwrap();
            assert!(status.success(), "mkfifo {}", path.display());
        }
        Make::Model(trained, edit) => {
            let fx = fixtures(root);
            let agent = if *trained { &fx.trained } else { &fx.fresh };
            std::fs::write(path, edit(agent.clone())).unwrap();
        }
        Make::ShortMoments(name) => {
            let text = std::fs::read_to_string(fixtures(root).checkpoints.join(name)).unwrap();
            let mut ck: Value = serde_json::from_str(&text).unwrap();
            let mut at = &mut ck;
            for key in ["agent", "ppo", "opt_v", "m"] {
                let Value::Obj(map) = at else {
                    panic!("no {key}")
                };
                at = map.get_mut(key).expect("a checkpoint key");
            }
            let Value::Arr(moments) = at else {
                panic!("Adam moments are arrays")
            };
            let Value::Arr(first) = &mut moments[0] else {
                panic!("an Adam moment is an array")
            };
            first.pop();
            std::fs::write(path, serde_json::to_string(&ck).unwrap()).unwrap();
        }
    }
}

/// Every path under `dir`, with the length of each regular file; links
/// and special files are listed, never followed or opened.
fn listing(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            let meta = std::fs::symlink_metadata(&path).unwrap();
            if meta.is_dir() {
                todo.push(path.clone());
            }
            let len = if meta.is_file() { meta.len() } else { 0 };
            out.push((path.strip_prefix(dir).unwrap().to_path_buf(), len));
        }
    }
    out.sort();
    out
}

/// One finished child: exit code (`None` for a signal or the
/// deadline), stdout, stderr.
struct Ran {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Runs this binary as `mocc argv…` in the repository root, under the
/// memory cap and the deadline.
fn child(argv: &[String], env: &[(&str, String)], stdin: Option<&Path>, io: &Path) -> Ran {
    let (out, err) = (io.join("stdout"), io.join("stderr"));
    let mut cmd = Command::new("sh");
    cmd.args([
        "-c",
        &format!("ulimit -v {MEMORY_KIB} && exec \"$0\" \"$@\""),
    ])
    .arg(std::env::current_exe().expect("the test binary"))
    .arg(AS_MOCC)
    .args(argv)
    .envs(env.iter().map(|(k, v)| (k, v)))
    .current_dir(env!("CARGO_MANIFEST_DIR"))
    .stdin(match stdin {
        Some(path) => Stdio::from(std::fs::File::open(path).unwrap()),
        None => Stdio::null(),
    })
    .stdout(std::fs::File::create(&out).unwrap())
    .stderr(std::fs::File::create(&err).unwrap());
    let mut child = cmd.spawn().expect("the child starts");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if started.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let read = |p: &Path| String::from_utf8_lossy(&std::fs::read(p).unwrap()).into_owned();
    Ran {
        code: status.and_then(|s| s.code()),
        stdout: read(&out),
        stderr: read(&err)
            + if status.is_none() {
                "\n(killed at the deadline)"
            } else {
                ""
            },
    }
}

/// Runs every surface of `case` and returns what the oracle found
/// wrong, if anything.
fn judge(case: &Case, root: &Path) -> Result<(), String> {
    let dir = root.join("cases").join(case.name.replace("::", "-"));
    let io = root.join("io");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::create_dir_all(&io).unwrap();
    for (file, what) in &case.files {
        make(&dir, file, what, root);
    }
    let env: Vec<(&str, String)> = case
        .env
        .iter()
        .map(|(k, v)| (*k, expand(v, &dir)))
        .collect();
    let verdict = match &case.verdict {
        Verdict::Refused(want) => Verdict::Refused(expand(want, &dir)),
        Verdict::Accepted(want) => Verdict::Accepted(want.clone()),
        Verdict::Answered(want) => Verdict::Answered(want.clone()),
    };
    for surface in &case.surfaces {
        let before = listing(&dir);
        let (argv, stdin): (Vec<String>, _) = match surface {
            Surface::Cli(argv) => (argv.iter().map(|a| expand(a, &dir)).collect(), None),
            Surface::Serve(line) => {
                let request = match line {
                    Some(line) => line.clone(),
                    None => {
                        let spec = std::fs::read_to_string(dir.join("spec.json")).unwrap();
                        format!(r#"{{"op":"run","spec":{}}}"#, spec.trim())
                    }
                };
                let stdin = io.join("stdin");
                std::fs::write(&stdin, format!("{request}\n{{\"op\":\"ping\"}}\n")).unwrap();
                let argv = ["serve", "--cache-dir", "{store}"];
                (argv.iter().map(|a| expand(a, &dir)).collect(), Some(stdin))
            }
        };
        let ran = child(&argv, &env, stdin.as_deref(), &io);
        match surface {
            Surface::Serve(_) => judge_serve(&ran, &verdict),
            Surface::Cli(_) => judge_cli(&ran, &verdict, &argv[0], case.untouched),
        }
        .and_then(|()| judge_files(&before, &listing(&dir), case.untouched))
        .map_err(|why| {
            format!(
                "mocc {}\n  {why}\n  exit {:?}\n  stdout: {}\n  stderr: {}",
                argv.join(" "),
                ran.code,
                ran.stdout.trim_end(),
                ran.stderr.trim_end()
            )
        })?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn judge_cli(ran: &Ran, verdict: &Verdict, command: &str, untouched: bool) -> Result<(), String> {
    let want = match verdict {
        Verdict::Refused(want) => want,
        Verdict::Accepted(want) => {
            let accepted = ran.code == Some(0) && ran.stderr.is_empty();
            return match accepted && ran.stdout.contains(want.as_str()) {
                true => Ok(()),
                false => Err(format!("want exit 0 and `{want}` on stdout")),
            };
        }
        Verdict::Answered(_) => unreachable!("only `serve` answers"),
    };
    if ran.code != Some(1) || ran.stderr.contains("panicked") || !ran.stdout.is_empty() {
        return Err("want exit status 1, no panic and nothing on stdout".into());
    }
    let lines: Vec<&str> = ran.stderr.lines().collect();
    let errors: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("error: "))
        .collect();
    let &[at] = errors.as_slice() else {
        return Err(format!("want one `error: ` line, got {}", errors.len()));
    };
    // Only the usage text may follow it, after a blank line.
    if !matches!(&lines[at + 1..], [] | ["", USAGE, ..]) {
        return Err("want the `error: ` line last, or before the usage text".into());
    }
    // `validate` names the file on its own line, then counts; that line
    // reads as the error line of every other command.
    let (index, text) = match command == "validate" && lines[at] == "error: 1 of 1 specs invalid" {
        true => {
            let i = at
                .checked_sub(1)
                .ok_or("want the file's line before the count")?;
            (i, format!("error: {}", lines[i]))
        }
        false => (at, lines[at].to_string()),
    };
    let progress = lines[..index]
        .iter()
        .take_while(|l| l.starts_with("[mocc] "))
        .count();
    if progress != index || (untouched && index > 0) {
        return Err("want nothing but `[mocc] ` progress lines before the message".into());
    }
    let pinned = match want.starts_with("error: ") {
        true => text == *want,
        false => text.contains(want.as_str()),
    };
    match pinned {
        true => Ok(()),
        false => Err(format!("want `{want}` in the message line")),
    }
}

fn judge_serve(ran: &Ran, verdict: &Verdict) -> Result<(), String> {
    if ran.code != Some(0) || ran.stderr.contains("panicked") || ran.stderr.contains("error: ") {
        return Err("want a daemon that answers and exits 0".into());
    }
    let lines: Vec<&str> = ran.stdout.lines().collect();
    let [answer, ping] = lines.as_slice() else {
        return Err("want two response lines".into());
    };
    let answered = match verdict {
        Verdict::Answered(want) => answer == want,
        Verdict::Refused(want) => {
            let text = serde_json::to_string(want.as_str()).unwrap();
            answer.starts_with(r#"{"error":""#)
                && answer.ends_with(r#"","ok":false}"#)
                && answer.contains(&text[1..text.len() - 1])
        }
        Verdict::Accepted(_) => unreachable!("`serve` rows are refused or answered"),
    };
    match answered && *ping == PING {
        true => Ok(()),
        false => Err("want the pinned answer, then the ping's".into()),
    }
}

/// Nothing may appear but an empty store that the command opened; an
/// `untouched` row leaves its directory as it was.
fn judge_files(
    before: &[(PathBuf, u64)],
    after: &[(PathBuf, u64)],
    untouched: bool,
) -> Result<(), String> {
    let store = ["store", "store/objects", "store/ledger.jsonl"].map(PathBuf::from);
    if let Some((path, _)) = after
        .iter()
        .find(|e| !before.contains(e) && (untouched || e.1 != 0 || !store.contains(&e.0)))
    {
        return Err(format!("the command wrote {}", path.display()));
    }
    match before.iter().find(|e| !after.contains(e)) {
        Some((path, _)) => Err(format!("the command removed or changed {}", path.display())),
        None => Ok(()),
    }
}

// ---- the harness --------------------------------------------------------

fn run_corpus(args: &[String]) -> ExitCode {
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let (mut exact, mut list, mut ignored) = (false, false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--exact" => exact = true,
            "--list" => list = true,
            "--ignored" => ignored = true,
            "--skip" => skips.extend(it.next().map(String::as_str)),
            "--test-threads" | "--format" | "--color" | "--logfile" | "-Z" => {
                it.next();
            }
            flag if flag.starts_with('-') => {}
            filter => filters.push(filter),
        }
    }
    let hit = |name: &str, f: &&str| match exact {
        true => name == *f,
        false => name.contains(f),
    };
    let wanted = |name: &str| {
        !ignored
            && (filters.is_empty() || filters.iter().any(|f| hit(name, f)))
            && !skips.iter().any(|f| hit(name, f))
    };
    let all = corpus();
    let filtered_out = all.len();
    let rows: Vec<Case> = all.into_iter().filter(|c| wanted(&c.name)).collect();
    let filtered_out = filtered_out - rows.len();
    if list {
        rows.iter().for_each(|case| println!("{}: test", case.name));
        println!("{} tests, 0 benchmarks", rows.len());
        return ExitCode::SUCCESS;
    }
    let root = std::env::temp_dir().join(format!("mocc-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let started = Instant::now();
    println!("\nrunning {} tests", rows.len());
    let mut failures = Vec::new();
    for case in &rows {
        let result = judge(case, &root);
        println!(
            "test {} ... {}",
            case.name,
            if result.is_ok() { "ok" } else { "FAILED" }
        );
        if let Err(why) = result {
            failures.push((&case.name, why));
        }
    }
    for (name, why) in &failures {
        println!("\n---- {name} ----\n{why}");
    }
    if !failures.is_empty() {
        println!("\nfailures:");
        failures.iter().for_each(|(name, _)| println!("    {name}"));
    }
    let _ = std::fs::remove_dir_all(&root);
    let verdict = if failures.is_empty() { "ok" } else { "FAILED" };
    println!(
        "\ntest result: {verdict}. {} passed; {} failed; 0 ignored; 0 measured; {filtered_out} filtered out; finished in {:.2}s\n",
        rows.len() - failures.len(),
        failures.len(),
        started.elapsed().as_secs_f64()
    );
    match failures.is_empty() {
        true => ExitCode::SUCCESS,
        false => ExitCode::FAILURE,
    }
}
