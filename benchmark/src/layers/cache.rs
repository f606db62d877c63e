//! Replay of `mocc run --cache-dir` (and of the cached path `mocc
//! serve` shares with it): what `SweepRunner::run_cached` does for a
//! registry sweep, at one thread, one span per step.

use super::sweep::{self, SimCounts};
use super::*;
use crate::workloads::{self, CACHE_HIT_PASSES};
use mocc_eval::{
    sweep_cell_key, CellReport, ExperimentSpec, SchemeRegistry, SweepReport, Workload,
};
use mocc_store::{sha256_hex, ResultStore};

/// Ledger timestamp of the replays; the CLI passes the wall clock, the
/// value never reaches a report.
pub const TS: u64 = 1_700_000_000;

/// Serves what the store has and simulates the rest, as
/// `mocc_eval::cache::cached_cell_reports` does: all reads first, then
/// the missing cells, then their write-back. Returns the report and
/// the `(hits, misses)` of the pass.
pub fn cached_sweep(
    t: &mut Tracer,
    counts: &mut SimCounts,
    exp: &ExperimentSpec,
    store: &ResultStore,
) -> (SweepReport, (u64, u64)) {
    let registry = SchemeRegistry::builtin();
    t.span("eval.spec.validate", EVAL_SPEC, None, |_| {
        exp.validate().expect("generated document validates")
    });
    let Workload::Sweep(w) = &exp.workload else {
        unreachable!("cached replays are registry sweeps");
    };
    let n = exp.cell_count() as u64;
    let (spec, cells) = t.span_over("eval.spec.expand", EVAL_SPEC, n, None, |_| {
        let spec = exp.to_sweep_spec().expect("sweep lowers");
        let cells = spec.expand();
        (spec, cells)
    });
    let keys: Vec<String> = t.span_over("eval.cache.key", EVAL_CACHE, n, None, |_| {
        cells
            .iter()
            .map(|c| sweep_cell_key(c, w.scheme.label(), &spec, None))
            .collect()
    });
    let mut reports: Vec<Option<CellReport>> = cells
        .iter()
        .zip(&keys)
        .map(|(cell, key)| {
            let blob = t.leaf("store.get", STORE, || store.get(key, TS))?;
            t.leaf("eval.report.decode", EVAL_REPORT, || {
                let report: CellReport = serde_json::from_str(&blob).ok()?;
                let canonical = serde_json::to_string(&report).expect("report serializes");
                (canonical == blob && report.index == cell.index).then_some(report)
            })
        })
        .collect();
    let missing: Vec<usize> = (0..cells.len()).filter(|&i| reports[i].is_none()).collect();
    let computed: Vec<CellReport> = missing
        .iter()
        .map(|&i| sweep::sweep_cell(t, counts, &cells[i], &registry, &w.scheme))
        .collect();
    for (&i, report) in missing.iter().zip(computed) {
        let blob = t.leaf("eval.report.encode_cell", EVAL_REPORT, || {
            serde_json::to_string(&report).expect("report serializes")
        });
        // Best effort, as in the library: a full disk costs the cache,
        // never the run.
        let _ = t.leaf("store.put", STORE, || store.put(&keys[i], &blob, TS));
        reports[i] = Some(report);
    }
    let hits = n - missing.len() as u64;
    let report = t.span("eval.report.assemble", EVAL_REPORT, None, |_| {
        let cells = reports.into_iter().map(|r| r.expect("every cell resolved"));
        SweepReport::new(&exp.name, exp.seed, exp.duration_s, cells.collect())
    });
    (report, (hits, missing.len() as u64))
}

/// One cycle — a fill pass and [`CACHE_HIT_PASSES`] hit passes, each
/// opening the store as a new process would — into the empty directory
/// `dir`. Returns each pass's report and `(hits, misses)`.
fn cycle(
    t: &mut Tracer,
    counts: &mut SimCounts,
    json: &str,
    dir: &Path,
) -> Vec<(String, (u64, u64))> {
    t.span("replay", crate::trace::HARNESS, None, |t| {
        t.set_doc(&sha256_hex(json.as_bytes()));
        (0..=CACHE_HIT_PASSES)
            .map(|pass| {
                let exp = t.span("eval.spec.parse", EVAL_SPEC, None, |_| {
                    ExperimentSpec::from_json(json).expect("generated document parses")
                });
                let open = if pass == 0 {
                    "store.open_empty"
                } else {
                    "store.open"
                };
                let store = t.span(open, STORE, None, |_| {
                    ResultStore::open(dir).expect("store directory opens")
                });
                let (report, outcome) = cached_sweep(t, counts, &exp, &store);
                let n = exp.cell_count() as u64;
                let json = t.span_over("eval.report.encode", EVAL_REPORT, n, None, |_| {
                    report.to_canonical_json()
                });
                (json, outcome)
            })
            .collect()
    })
}

/// The `store.*` metrics that come from spans.
pub fn store_span_metrics(t: &Tracer, m: &mut Metrics) {
    m.per_item("store.open_ms", t, "store.open", 1e6);
    m.per_item("store.put_us", t, "store.put", 1e3);
    m.per_item("store.get_us", t, "store.get", 1e3);
    m.per_item("eval.cache.key_us_per_cell", t, "eval.cache.key", 1e3);
    m.per_item(
        "eval.report.decode_us_per_cell",
        t,
        "eval.report.decode",
        1e3,
    );
}

/// The `store.*` metrics measured on a filled store: the exact ledger
/// counts, and the cost of `stats` (linear in the ledger), `verify`
/// and the digest.
pub fn store_metrics(store: &ResultStore, m: &mut Metrics) -> io::Result<()> {
    let (stats_s, stats) = timed(|| store.stats());
    let stats = stats?;
    m.set("store.puts", stats.puts as f64);
    m.set("store.hits", stats.hits as f64);
    m.set("store.misses", stats.misses as f64);
    m.set("store.bytes_written", stats.object_bytes as f64);
    let lines = stats.puts + stats.hits + stats.misses;
    m.set(
        "store.stats_ms_per_10k_lines",
        stats_s * 1e3 * 1e4 / lines as f64,
    );
    let (verify_s, verify) = timed(|| store.verify());
    let verify = verify?;
    if !verify.is_clean() {
        return Err(io::Error::other("replay left a damaged store"));
    }
    m.set(
        "store.verify_us_per_object",
        verify_s * 1e6 / verify.objects_checked as f64,
    );
    let buffer = vec![0x5au8; 1 << 20];
    let s = per_call(20, || {
        std::hint::black_box(mocc_store::sha256(std::hint::black_box(&buffer)));
    });
    m.set("store.sha256_mb_per_s", 1.0 / s);
    Ok(())
}

/// The traced side of `cache_cycle`.
pub fn run(
    mocc: &Mocc,
    work: &Path,
    threads: usize,
    seed: u64,
    m: &mut Metrics,
    checks: &mut Checks,
) -> io::Result<Passes> {
    let doc = gen::cache_cycle(seed);
    let dir = |name: &str| subdir(work, name);
    let mut tracer = Tracer::new(true);
    let mut counts = SimCounts::default();
    let traced_dir = dir("traced")?;
    let (traced_s, traced) = timed(|| cycle(&mut tracer, &mut counts, &doc.json, &traced_dir));
    let mut untraced_counts = SimCounts::default();
    let untraced_dir = dir("untraced")?;
    let (untraced_s, untraced) = timed(|| {
        cycle(
            &mut Tracer::new(false),
            &mut untraced_counts,
            &doc.json,
            &untraced_dir,
        )
    });

    // The library entry point behind `mocc run --cache-dir`: one fill
    // and one hit pass give the reference bytes.
    let exp = ExperimentSpec::from_json(&doc.json).expect("generated document parses");
    let library = ResultStore::open(dir("library")?)?;
    let runner = mocc_eval::SweepRunner::with_threads(1);
    let reference: Vec<String> = (0..2)
        .map(|_| {
            mocc_core::run_experiment_cached(&runner, &exp, &library, TS)
                .expect("generated document runs")
                .0
                .to_canonical_json()
        })
        .collect();
    let mut faults = Vec::new();
    if reference[0] != reference[1] {
        faults.push("library hit pass differs from its fill pass".to_string());
    }
    for (what, passes) in [("traced", &traced), ("untraced", &untraced)] {
        for (pass, (report, outcome)) in passes.iter().enumerate() {
            let want = if pass == 0 {
                (0, doc.units)
            } else {
                (doc.units, 0)
            };
            if *report != reference[0] {
                faults.push(format!(
                    "{what} pass {pass} differs from run_experiment_cached"
                ));
            }
            if *outcome != want {
                faults.push(format!(
                    "{what} pass {pass}: (hits, misses) {outcome:?}, want {want:?}"
                ));
            }
        }
    }
    if counts != untraced_counts {
        faults.push(format!("{counts:?} traced, {untraced_counts:?} untraced"));
    }
    checks.operation("replay of one cache cycle", faults);

    sweep::span_metrics(&tracer, counts, m);
    sweep::encode_metric(&tracer, m);
    store_span_metrics(&tracer, m);
    store_metrics(&ResultStore::open(&traced_dir)?, m)?;

    // One real cycle on the binary, for the two rates a user sees. The
    // fill pass runs at one thread, as in the end-to-end runs.
    let env = workloads::Env {
        mocc: mocc.clone(),
        work: work.to_path_buf(),
        threads,
        seed,
    };
    let cycle = workloads::cache_cycle_on_binary(&env, checks)?;
    m.set(
        "cache.fill_cells_per_s",
        doc.units as f64 / cycle.fill.wall_s,
    );
    let hit_s: Vec<f64> = cycle.passes.iter().map(|c| c.wall_s).collect();
    m.set(
        "cache.hit_cells_per_s",
        doc.units as f64 / stats::median(&hit_s),
    );

    Ok(Passes {
        tracer,
        traced_s,
        untraced_s,
        digest: sha256_hex(reference[0].as_bytes()),
    })
}
