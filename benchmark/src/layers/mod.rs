//! The per-layer side of the benchmark: a traced run replays a
//! workload's generated inputs *in process*, at one thread, through
//! each layer's public functions, with a span around every call
//! (`trace`). Layers are named after the crates and modules they are:
//!
//! | layer | code |
//! |---|---|
//! | `bench.cli` | `crates/bench/src/bin/mocc.rs` (process start, serve loop) |
//! | `eval.spec` / `eval.cache` / `eval.report` / `eval.runner` / `eval.competition` | `crates/eval/src/*.rs` |
//! | `store` | `crates/store` |
//! | `netsim.sim` | `crates/netsim/src/sim.rs` |
//! | `cc` | `crates/cc` |
//! | `nn` | `crates/nn` |
//! | `core.batch_eval` / `core.trainer` / `core.zoo` | `crates/core/src/*.rs` |
//! | `rl` | `crates/rl` |
//!
//! Every replay is made three times: traced; untraced (the same code
//! with the tracer off — the difference is the tracing overhead); and
//! through the library entry point the CLI calls, whose output bytes
//! are the check that the replay did what the program does.
//!
//! A layer a workload never enters reads 0 in that workload's traced
//! run. Those zeros are the "should not move" predictions of
//! benchmark/README.md in data form.

mod cache;
mod serve;
mod sweep;
mod train;

use crate::child::Mocc;
use crate::gen;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::Checks;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

pub const BENCH_CLI: &str = "bench.cli";
pub const EVAL_SPEC: &str = "eval.spec";
pub const EVAL_CACHE: &str = "eval.cache";
pub const EVAL_REPORT: &str = "eval.report";
pub const EVAL_RUNNER: &str = "eval.runner";
pub const EVAL_COMPETITION: &str = "eval.competition";
pub const STORE: &str = "store";
pub const NETSIM_SIM: &str = "netsim.sim";
pub const CC: &str = "cc";
pub const NN: &str = "nn";
pub const CORE_BATCH_EVAL: &str = "core.batch_eval";
pub const RL: &str = "rl";
pub const CORE_TRAINER: &str = "core.trainer";
pub const CORE_ZOO: &str = "core.zoo";

/// The layers, in the order their `<layer>.self_ms` metrics appear.
const LAYERS: [&str; 14] = [
    BENCH_CLI,
    EVAL_SPEC,
    EVAL_CACHE,
    EVAL_REPORT,
    EVAL_RUNNER,
    EVAL_COMPETITION,
    STORE,
    NETSIM_SIM,
    CC,
    NN,
    CORE_BATCH_EVAL,
    RL,
    CORE_TRAINER,
    CORE_ZOO,
];

/// The per-layer metrics, as `BENCHMARK.json` names them. Metrics
/// whose unit is `count` or `bytes` are exact: they repeat bit for bit
/// for a given `--seed`, whatever the machine.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("bench.cli.self_ms", "ms"),
    ("eval.spec.self_ms", "ms"),
    ("eval.cache.self_ms", "ms"),
    ("eval.report.self_ms", "ms"),
    ("eval.runner.self_ms", "ms"),
    ("eval.competition.self_ms", "ms"),
    ("store.self_ms", "ms"),
    ("netsim.sim.self_ms", "ms"),
    ("cc.self_ms", "ms"),
    ("nn.self_ms", "ms"),
    ("core.batch_eval.self_ms", "ms"),
    ("rl.self_ms", "ms"),
    ("core.trainer.self_ms", "ms"),
    ("core.zoo.self_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.stats_ms", "ms"),
    ("cache.fill_cells_per_s", "1/s"),
    ("cache.hit_cells_per_s", "1/s"),
    ("eval.spec.parse_us", "us"),
    ("eval.spec.expand_us_per_cell", "us"),
    ("eval.spec.trace_load_ms", "ms"),
    ("eval.cache.key_us_per_cell", "us"),
    ("eval.report.reduce_us_per_cell", "us"),
    ("eval.report.encode_us_per_cell", "us"),
    ("eval.report.decode_us_per_cell", "us"),
    ("eval.runner.overhead_us_per_cell", "us"),
    ("eval.runner.parallel_efficiency", "ratio"),
    ("eval.competition.cell_ms", "ms"),
    ("eval.competition.reduce_us_per_cell", "us"),
    ("store.open_ms", "ms"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("store.sha256_mb_per_s", "MB/s"),
    ("store.stats_ms_per_10k_lines", "ms"),
    ("store.verify_us_per_object", "us"),
    ("store.puts", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes_written", "bytes"),
    ("netsim.sim.events", "count"),
    ("netsim.sim.mis", "count"),
    ("netsim.sim.events_per_sim_s", "1/s"),
    ("netsim.sim.ns_per_event", "ns"),
    ("netsim.sim.build_us_per_cell", "us"),
    ("netsim.sim.result_us_per_cell", "us"),
    ("netsim.sim.max_cell_share", "ratio"),
    ("cc.calls_per_event", "ratio"),
    ("cc.cubic.ns_per_call", "ns"),
    ("cc.bbr.ns_per_call", "ns"),
    ("cc.copa.ns_per_call", "ns"),
    ("cc.vegas.ns_per_call", "ns"),
    ("cc.pcc-vivace.ns_per_call", "ns"),
    ("nn.forward_ns_b1", "ns"),
    ("nn.forward_ns_b32", "ns"),
    ("nn.backward_us_per_batch", "us"),
    ("nn.adam_ns_per_param", "ns"),
    ("core.batch_eval.ms_per_cell_b1", "ms"),
    ("core.batch_eval.ms_per_cell_b32", "ms"),
    ("core.agent_build_ms", "ms"),
    ("core.policy_digest_ms", "ms"),
    ("rl.rollout_steps_per_s", "1/s"),
    ("rl.env_step_us", "us"),
    ("rl.gae_us_per_1k_steps", "us"),
    ("rl.ppo_update_ms", "ms"),
    ("core.trainer.iteration_ms", "ms"),
    ("core.trainer.checkpoint_write_ms", "ms"),
    ("core.trainer.checkpoint_load_ms", "ms"),
    ("core.trainer.checkpoint_bytes", "bytes"),
    ("core.zoo.save_ms", "ms"),
    ("core.zoo.final_eval_ms", "ms"),
];

/// What a traced run hands back.
pub struct Traced {
    /// Every metric of [`PER_LAYER`], in that order.
    pub metrics: Vec<(String, &'static str, f64)>,
    pub checks: Checks,
    /// SHA-256 over the replay's outputs; equals the end-to-end run's
    /// digest for the same seed.
    pub digest: String,
    pub trace_json: String,
}

/// The metric values a traced run has measured so far; what it never
/// sets stays 0.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// # Panics
    ///
    /// Panics on a name [`PER_LAYER`] does not list: a typo here would
    /// otherwise drop a measurement silently.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Busy time per work item of the spans called `span`, in units of
    /// `ns_per_unit` nanoseconds; left at 0 when no such span ran.
    pub fn per_item(&mut self, name: &'static str, t: &Tracer, span: &str, ns_per_unit: f64) {
        let (busy_ns, items) = t.total(span);
        if items > 0 {
            self.set(name, busy_ns as f64 / items as f64 / ns_per_unit);
        }
    }
}

/// Seconds `f` takes.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Seconds per call of `f`, over `n` back-to-back calls.
pub fn per_call(n: usize, mut f: impl FnMut()) -> f64 {
    timed(|| (0..n).for_each(|_| f())).0 / n as f64
}

/// Creates and returns the directory `work/name`.
pub fn subdir(work: &Path, name: &str) -> io::Result<std::path::PathBuf> {
    let dir = work.join(name);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// What the three passes of a replay produced.
pub struct Passes {
    pub tracer: Tracer,
    /// Wall seconds of the traced and of the untraced replay.
    pub traced_s: f64,
    pub untraced_s: f64,
    pub digest: String,
}

/// `cli.startup_ms`: the floor under every child process — exec,
/// dynamic linking, argument parsing, building the scheme registry.
fn cli_startup_ms(mocc: &Mocc, work: &Path) -> io::Result<f64> {
    let log = work.join("list-schemes");
    let walls: Vec<f64> = (0..20)
        .map(|_| Ok(mocc.run(&["list-schemes"], &log)?.wall_s * 1e3))
        .collect::<io::Result<_>>()?;
    Ok(stats::median(&walls))
}

/// Runs the traced side of one workload.
pub fn run(
    workload: &str,
    mocc: &Mocc,
    work: &Path,
    threads: usize,
    seed: u64,
) -> io::Result<Traced> {
    // `replay:` trace paths in the documents are relative to the root.
    std::env::set_current_dir(&mocc.root)?;
    std::fs::create_dir_all(work)?;
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    m.set("cli.startup_ms", cli_startup_ms(mocc, work)?);
    let passes = match workload {
        "cache_cycle" => cache::run(mocc, work, threads, seed, &mut m, &mut checks)?,
        "train_offline" => train::run(work, seed, &mut m, &mut checks)?,
        "serve_session" => serve::run(mocc, work, threads, seed, &mut m, &mut checks)?,
        sweep => {
            let docs = gen::sweep_docs(sweep, seed)
                .ok_or_else(|| io::Error::other(format!("unknown workload {sweep:?}")))?;
            sweep::run(&docs, threads, &mut m, &mut checks)?
        }
    };
    std::fs::remove_dir_all(work)?;

    let t = &passes.tracer;
    m.set("trace.attributed_share", t.attributed_share());
    m.set(
        "trace.overhead_share",
        (passes.traced_s - passes.untraced_s) / passes.untraced_s,
    );
    let self_ns = t.layer_self_ns();
    for (layer, (name, _)) in LAYERS.iter().zip(&PER_LAYER[2..]) {
        debug_assert_eq!(*name, format!("{layer}.self_ms"));
        m.set(name, self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6);
    }
    Ok(Traced {
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    *unit,
                    m.0.get(name).copied().unwrap_or(0.0),
                )
            })
            .collect(),
        checks,
        digest: passes.digest,
        trace_json: t.to_json(workload, seed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_cover_every_layer() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (layer, (name, unit)) in LAYERS.iter().zip(&PER_LAYER[2..]) {
            assert_eq!(*name, format!("{layer}.self_ms"));
            assert_eq!(*unit, "ms");
        }
    }
}
