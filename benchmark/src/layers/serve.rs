//! Replay of one `mocc serve` session: what `serve_one` in
//! `crates/bench/src/bin/mocc.rs` does with each request line, from
//! the same public functions, one span per request.
//!
//! The serve loop itself lives in the binary, so the latencies a client
//! sees (`serve.*`) are taken from real daemon sessions; the replay
//! shows where the daemon's time goes, and its reports must equal the
//! daemon's byte for byte.

use super::cache::{self, cached_sweep};
use super::sweep::{self, SimCounts};
use super::*;
use crate::gen::{Request, ServePlan};
use crate::workloads::Serve;
use mocc_eval::ExperimentSpec;
use mocc_store::{sha256_hex, ResultStore};
use serde::{Deserialize, Serialize, Value};

/// Primed daemon sessions per traced run: four give the 20 `stats`
/// samples a median needs (ten beyond it) and twice the 1000 hit
/// samples a 99th percentile needs.
const SESSIONS: usize = 4;

fn response(fields: Vec<(&str, Value)>) -> String {
    let obj = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    serde_json::to_string(&Value::Obj(obj)).expect("response serializes")
}

/// Serves every request of `plan` against a fresh store in `dir`.
/// Returns the report of each distinct spec, as the daemon would send
/// it.
fn session(t: &mut Tracer, counts: &mut SimCounts, plan: &ServePlan, dir: &Path) -> Vec<String> {
    t.span("replay", crate::trace::HARNESS, None, |t| {
        let store = t.span("store.open_empty", STORE, None, |_| {
            ResultStore::open(dir).expect("store directory opens")
        });
        let mut reports = vec![String::new(); plan.specs];
        for (request, line) in &plan.requests {
            t.span("request", BENCH_CLI, None, |t| {
                let parsed: Value = t.leaf("bench.cli.request_parse", BENCH_CLI, || {
                    serde_json::from_str(line).expect("generated request parses")
                });
                let Value::Obj(parsed) = parsed else {
                    unreachable!("generated requests are objects");
                };
                match request {
                    Request::Ping => {
                        response(vec![
                            ("ok", Value::Bool(true)),
                            ("op", Value::Str("ping".into())),
                        ]);
                    }
                    Request::Stats => {
                        let s = t
                            .leaf("store.stats", STORE, || store.stats())
                            .expect("ledger reads");
                        response(vec![
                            ("hits", s.hits.to_value()),
                            ("keys", s.keys.to_value()),
                            ("misses", s.misses.to_value()),
                            ("objects", s.objects.to_value()),
                            ("ok", Value::Bool(true)),
                            ("puts", s.puts.to_value()),
                        ]);
                    }
                    Request::Miss { spec } | Request::Hit { spec } => {
                        let exp = t.span("eval.spec.parse", EVAL_SPEC, None, |_| {
                            ExperimentSpec::from_value(&parsed["spec"])
                                .expect("generated spec parses")
                        });
                        t.set_doc(&sha256_hex(exp.to_canonical_json().as_bytes()));
                        let (report, (hits, misses)) = cached_sweep(t, counts, &exp, &store);
                        let n = exp.cell_count() as u64;
                        let json = t.span_over("eval.report.encode", EVAL_REPORT, n, None, |_| {
                            report.to_canonical_json()
                        });
                        // The daemon parses the canonical report back
                        // into a value to embed it in the response.
                        let sent = t.leaf("bench.cli.response", BENCH_CLI, || {
                            let report: Value =
                                serde_json::from_str(&json).expect("canonical report parses");
                            response(vec![
                                ("hits", hits.to_value()),
                                ("misses", misses.to_value()),
                                ("ok", Value::Bool(true)),
                                ("report", report),
                            ])
                        });
                        std::hint::black_box(sent);
                        if matches!(request, Request::Miss { .. }) {
                            reports[*spec] = json;
                        }
                    }
                }
            });
        }
        reports
    })
}

/// The traced side of `serve_session`.
pub fn run(
    mocc: &Mocc,
    work: &Path,
    threads: usize,
    seed: u64,
    m: &mut Metrics,
    checks: &mut Checks,
) -> io::Result<Passes> {
    let plan = gen::serve_session(seed);
    let dir = |name: &str| subdir(work, name);

    // Real sessions first — one priming session for the miss
    // latencies, then primed ones for the hit latencies — whose
    // reports are the byte reference.
    let mut real = Serve::new(seed);
    real.prime(mocc, &dir("daemon")?, checks)?;
    let mut digest = String::new();
    for i in 1..=SESSIONS {
        (_, digest) = real.session(mocc, threads, i, checks)?;
    }
    let percentile = |xs: &[f64], p: f64| stats::percentile(xs, p).unwrap_or(0.0);
    m.set("serve.hit_p50_ms", percentile(&real.latencies.hit_ms, 0.5));
    m.set("serve.hit_p99_ms", percentile(&real.latencies.hit_ms, 0.99));
    m.set(
        "serve.miss_p50_ms",
        percentile(&real.latencies.miss_ms, 0.5),
    );
    m.set("serve.stats_ms", percentile(&real.latencies.stats_ms, 0.5));
    println!(
        "serve_session latency samples: {} hits and {} stats over {SESSIONS} primed sessions, \
         {} misses in the priming session (a percentile is reported only with ten samples \
         beyond it, else 0)",
        real.latencies.hit_ms.len(),
        real.latencies.stats_ms.len(),
        real.latencies.miss_ms.len()
    );

    let mut tracer = Tracer::new(true);
    let mut counts = SimCounts::default();
    let traced_dir = dir("traced")?;
    let (traced_s, traced) = timed(|| session(&mut tracer, &mut counts, &plan, &traced_dir));
    let mut untraced_counts = SimCounts::default();
    let untraced_dir = dir("untraced")?;
    let (untraced_s, untraced) = timed(|| {
        session(
            &mut Tracer::new(false),
            &mut untraced_counts,
            &plan,
            &untraced_dir,
        )
    });

    let mut faults = Vec::new();
    // The daemon's reports went through one more parse and print than
    // the replay's canonical text; canonical JSON is a fixed point of
    // that, so the strings must still be equal.
    for (what, reports) in [("traced", &traced), ("untraced", &untraced)] {
        if *reports != real.reports {
            faults.push(format!("{what} replay's reports differ from the daemon's"));
        }
    }
    if counts != untraced_counts {
        faults.push(format!("{counts:?} traced, {untraced_counts:?} untraced"));
    }
    checks.operation("replay of one serve session", faults);

    sweep::span_metrics(&tracer, counts, m);
    sweep::encode_metric(&tracer, m);
    cache::store_span_metrics(&tracer, m);
    cache::store_metrics(&ResultStore::open(&traced_dir)?, m)?;

    Ok(Passes {
        tracer,
        traced_s,
        untraced_s,
        digest,
    })
}
