//! Fixed-workload performance measurement for the CI perf gate.
//!
//! [`measure`] runs a frozen, seeded workload over the inference and
//! simulation hot paths and reduces it to a [`PerfReport`] of
//! throughput metrics. The *work* is pinned — `MOCC_BENCH_FIXED_ITERS`
//! fixes every repetition count — so two runs on the same machine do
//! the same arithmetic; wall-clock variation between machines is
//! absorbed by the tolerance band in [`check`].
//!
//! The report serializes to canonical JSON (sorted keys, three-decimal
//! floats) and is written to `BENCH_perf.json` by the `perf` binary —
//! the artifact that seeds the repository's performance trajectory.

use crate::timing::Stopwatch;
use mocc_core::{MoccAgent, MoccConfig, Preference};
use mocc_eval::{ExperimentSpec, FlowLoad, SchemeSpec, SweepRunner, SweepSpec, TraceShape};
use mocc_netsim::{Scenario, Simulator};
use mocc_nn::{Activation, Mlp};
use mocc_rl::ppo::{Ppo, PpoConfig};
use mocc_rl::{collect_rollouts_batched_tier, BatchRolloutScratch, Env, Rollout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::hint::black_box;

// The env name and its strict parser are criterion's: the bench smoke
// and the perf gate must always read MOCC_BENCH_FIXED_ITERS the same
// way.
pub use criterion::{parse_fixed_iters, FIXED_ITERS_ENV};

/// Environment variable for the regression tolerance used by `--check`
/// (a fraction in (0, 1]; a throughput metric may not fall below
/// `tolerance × baseline`).
pub const TOLERANCE_ENV: &str = "MOCC_PERF_TOLERANCE";

/// Observation dimensionality of the policy-shaped benchmark MLP
/// (3 preference + 10 history intervals × 3 statistics).
const OBS_DIM: usize = 33;

/// Parses a `MOCC_PERF_TOLERANCE` value (default 0.5 when unset): a
/// fraction in (0, 1].
pub fn parse_tolerance(raw: Option<&str>) -> Result<f64, String> {
    match raw {
        None => Ok(0.5),
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t > 0.0 && t <= 1.0 => Ok(t),
            _ => Err(format!(
                "{TOLERANCE_ENV}={v:?} is not a fraction in (0, 1]; \
                 e.g. 0.5 fails metrics below 50% of baseline"
            )),
        },
    }
}

/// Reads `MOCC_BENCH_FIXED_ITERS` from the environment.
///
/// # Panics
///
/// Panics with a clear message on unparsable or zero values.
pub fn fixed_iters() -> Option<u64> {
    // audit:allow(env-discipline): strict-parse helper — the one reader of MOCC_BENCH_FIXED_ITERS
    let raw = std::env::var(FIXED_ITERS_ENV).ok();
    parse_fixed_iters(raw.as_deref()).unwrap_or_else(|msg| panic!("{msg}"))
}

/// Reads `MOCC_PERF_TOLERANCE` from the environment (default 0.5).
///
/// # Panics
///
/// Panics on values outside (0, 1].
pub fn tolerance() -> f64 {
    // audit:allow(env-discipline): strict-parse helper — the one reader of MOCC_PERF_TOLERANCE
    let raw = std::env::var(TOLERANCE_ENV).ok();
    parse_tolerance(raw.as_deref()).unwrap_or_else(|msg| panic!("{msg}"))
}

/// The measured hot-path metrics. Throughputs are "higher is better";
/// the `forward_ns_*` latencies are "lower is better".
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PerfReport {
    /// The pinned repetition count (0 when adaptive defaults were used).
    pub fixed_iters: u64,
    /// Worker threads used for the sweep metrics.
    pub threads: u64,
    /// Nanoseconds per observation row, scalar forward (batch 1).
    pub forward_ns_b1: f64,
    /// Nanoseconds per observation row at batch 32.
    pub forward_ns_b32: f64,
    /// Nanoseconds per observation row at batch 256.
    pub forward_ns_b256: f64,
    /// Nanoseconds per row, fast-math tier (batch 1). See
    /// `mocc_nn::simd`: approximate tanh, vector backends.
    pub forward_fast_ns_b1: f64,
    /// Nanoseconds per row, fast-math tier at batch 256.
    pub forward_fast_ns_b256: f64,
    /// Discrete events processed per second on the fixed scenario.
    pub sim_steps_per_sec: f64,
    /// Cells per second on the frozen 64-cell reference sweep (cubic).
    pub sweep_cells_per_sec: f64,
    /// Cells per second for MOCC policy inference across a 16-cell
    /// matrix.
    pub mocc_cells_per_sec: f64,
    /// Environment transitions per second collecting training rollouts
    /// with per-env scalar forwards (the historical path).
    pub rollout_scalar_steps_per_sec: f64,
    /// Environment transitions per second collecting the same rollouts
    /// through the lockstep batched collector (16 envs, one batched
    /// actor + critic forward per monitor round).
    pub rollout_batched_steps_per_sec: f64,
}

impl PerfReport {
    /// Canonical JSON: sorted keys, compact, three-decimal floats.
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string(self).expect("report serialization is infallible")
    }

    /// Parses a report (baseline fixtures, archived runs).
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Rounds to three decimals — canonical precision for perf metrics.
fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// The frozen 64-cell reference sweep (identical to the byte-identity
/// spec in `tests/golden_sweep.rs`; frozen — the perf baseline depends
/// on it).
pub fn reference_sweep() -> SweepSpec {
    SweepSpec {
        bandwidth_mbps: vec![2.0, 4.0],
        owd_ms: vec![10, 30],
        queue_pkts: vec![50, 200],
        loss: vec![0.0, 0.01],
        shapes: vec![TraceShape::Constant, TraceShape::Square { period_s: 2.0 }],
        loads: vec![FlowLoad::Steady(1), FlowLoad::Steady(2)],
        duration_s: 4,
        mss_bytes: 1500,
        seed: 11,
        agent_mi: false,
    }
}

/// The frozen 16-cell matrix used for the MOCC policy-inference metric.
pub fn mocc_sweep() -> SweepSpec {
    SweepSpec {
        bandwidth_mbps: vec![4.0, 8.0],
        owd_ms: vec![10, 30],
        queue_pkts: vec![100],
        loss: vec![0.0, 0.01],
        shapes: vec![TraceShape::Constant, TraceShape::Square { period_s: 2.0 }],
        loads: vec![FlowLoad::Steady(1)],
        duration_s: 4,
        mss_bytes: 1500,
        seed: 23,
        agent_mi: true,
    }
}

/// The policy-shaped MLP (33 → 64 → 32 → 1, the paper's trunk sizes)
/// used for the forward-latency metrics.
fn bench_mlp() -> Mlp {
    let mut rng = StdRng::seed_from_u64(97);
    Mlp::new(
        &[OBS_DIM, 64, 32, 1],
        Activation::Tanh,
        Activation::Linear,
        &mut rng,
    )
}

/// Deterministic observation rows for the forward benchmarks.
fn obs_rows(n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(131);
    (0..n * OBS_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Times `f` over `reps` repetitions and returns the best (smallest)
/// wall-clock seconds of a single repetition.
fn best_of<F: FnMut()>(reps: u64, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Stopwatch::start();
        f();
        best = best.min(t.elapsed_secs());
    }
    best
}

fn forward_ns(batch: usize, iters: u64, tier: mocc_nn::ForwardTier) -> f64 {
    let mlp = bench_mlp();
    let data = obs_rows(batch);
    let mut scratch = mocc_nn::MlpScratch::default();
    let batch_m = mocc_nn::Matrix::from_vec(batch, OBS_DIM, data.clone());
    let mut out = mocc_nn::Matrix::zeros(0, 0);
    // Warm-up sizes the scratch buffers once, outside the timed region.
    mlp.forward_batch_into_tier(&batch_m, &mut out, &mut scratch, tier);
    let secs = best_of(3, || {
        for _ in 0..iters {
            if batch == 1 {
                black_box(mlp.forward_into_tier(black_box(&data), &mut scratch, tier));
            } else {
                mlp.forward_batch_into_tier(black_box(&batch_m), &mut out, &mut scratch, tier);
                black_box(out.data.last());
            }
        }
    });
    secs * 1e9 / (iters as f64 * batch as f64)
}

fn sim_steps_per_sec(reps: u64) -> f64 {
    let mut steps_per_run = 0u64;
    let secs = best_of(reps, || {
        let sc = Scenario::single(10e6, 20, 500, 0.0, 10);
        let mut sim = Simulator::new(sc, vec![Box::new(mocc_netsim::cc::Aimd::new())]);
        let mut steps = 0u64;
        while sim.process_next().is_some() {
            steps += 1;
        }
        black_box(sim.result().flows[0].total_acked);
        steps_per_run = steps;
    });
    steps_per_run as f64 / secs
}

fn sweep_cells_per_sec(threads: usize, reps: u64) -> f64 {
    let cubic = SchemeSpec::parse("cubic").expect("built-in label");
    let exp = ExperimentSpec::from_sweep("cubic", cubic, &reference_sweep());
    let cells = exp.cell_count() as f64;
    let runner = SweepRunner::with_threads(threads);
    let secs = best_of(reps, || {
        let report = runner.run(&exp).expect("the reference sweep is valid");
        black_box(report.summary.mean_utility);
    });
    cells / secs
}

fn mocc_cells_per_sec(threads: usize, reps: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
    let spec = mocc_sweep();
    let cells = spec.cell_count() as f64;
    let eval = mocc_core::BatchMoccEvaluator::new(&agent, Preference::throughput(), 0.3);
    let runner = SweepRunner::with_threads(threads);
    let secs = best_of(reps, || {
        let (report, _) = runner.run_cells(&spec, "mocc-batched", &eval, None);
        black_box(report.summary.mean_utility);
    });
    cells / secs
}

/// Lockstep environments driven by the rollout-collection metrics.
const ROLLOUT_ENVS: usize = 16;

/// A cheap synthetic [`Env`] for the rollout metrics: a policy-shaped
/// observation computed from a step counter, near-zero per-step cost.
/// Using it instead of the full `MoccEnv` makes the scalar/batched
/// ratio measure the *collector* (forward passes and bookkeeping), not
/// the simulator.
struct SyntheticEnv {
    t: u32,
    phase: u32,
    obs: Vec<f32>,
}

impl SyntheticEnv {
    fn new(phase: u32) -> Self {
        SyntheticEnv {
            t: 0,
            phase,
            obs: vec![0.0; OBS_DIM],
        }
    }

    fn fill(&mut self) -> Vec<f32> {
        // A few multiply-adds per element — varied, bounded, and far
        // cheaper than the forwards under measurement (a libm `sin`
        // per element would cost as much as a tanh and dilute the
        // collector comparison with env cost).
        let x = self.t.wrapping_add(self.phase) as f32 * 0.37;
        let mut v = x - x.floor() - 0.5;
        for o in self.obs.iter_mut() {
            v = 1.7 * v * (1.0 - v.abs());
            *o = v;
        }
        self.obs.clone()
    }
}

impl Env for SyntheticEnv {
    fn obs_dim(&self) -> usize {
        OBS_DIM
    }

    fn reset(&mut self) -> Vec<f32> {
        self.t = 0;
        self.fill()
    }

    fn step(&mut self, action: f32) -> (Vec<f32>, f32, bool) {
        self.t += 1;
        let done = self.t % 200 == 0;
        (self.fill(), -action.abs(), done)
    }
}

/// Transitions per second collecting rollouts over [`ROLLOUT_ENVS`]
/// synthetic environments with policy-shaped actor/critic networks —
/// either the historical per-env scalar loop (bit-exact scalar
/// kernels, exactly what `Ppo::collect_rollout` runs), or the lockstep
/// batched collector as the batched training pipeline configures it
/// (`collect_rollouts_batched_tier` on the fast inference tier). Same
/// seeds, same envs, same step budget either way: the ratio is the
/// rollout-engine speedup a training run sees when it moves from the
/// per-env loop to the batched pipeline.
fn rollout_steps_per_sec(batched: bool, iters: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(41);
    let ppo = Ppo::new(OBS_DIM, &[64, 32], PpoConfig::default(), &mut rng);
    let steps = (iters as usize / ROLLOUT_ENVS).max(8);
    let total = (steps * ROLLOUT_ENVS) as f64;
    let secs = if batched {
        let mut scratch = BatchRolloutScratch::default();
        best_of(3, || {
            let mut envs: Vec<SyntheticEnv> = (0..ROLLOUT_ENVS)
                .map(|i| SyntheticEnv::new(i as u32 * 37))
                .collect();
            let mut refs: Vec<&mut dyn Env> = envs.iter_mut().map(|e| e as &mut dyn Env).collect();
            let mut rng = StdRng::seed_from_u64(43);
            let rollouts = collect_rollouts_batched_tier(
                &ppo.policy,
                &ppo.value,
                &mut refs,
                steps,
                &mut rng,
                &mut scratch,
                mocc_nn::ForwardTier::Fast,
            );
            black_box(rollouts.len());
        })
    } else {
        best_of(3, || {
            let mut rng = StdRng::seed_from_u64(43);
            let mut collected = 0usize;
            for i in 0..ROLLOUT_ENVS {
                let mut env = SyntheticEnv::new(i as u32 * 37);
                let mut rollout = Rollout::new(OBS_DIM);
                let mut obs = env.reset();
                for _ in 0..steps {
                    let (a, logp) = ppo.policy.act(&obs, &mut rng);
                    let v = ppo.value.forward(&obs)[0];
                    let (next, r, done) = env.step(a);
                    rollout.push(&obs, a, logp, r, v, done);
                    obs = if done { env.reset() } else { next };
                }
                rollout.last_value = ppo.value.forward(&obs)[0];
                collected += rollout.len();
            }
            black_box(collected);
        })
    };
    total / secs
}

/// Runs the whole fixed workload. See the module docs.
pub fn measure() -> PerfReport {
    let fixed = fixed_iters();
    // Exactly what the operator configured (MOCC_SWEEP_THREADS or
    // auto-detection) — no silent cap; the count is recorded in the
    // report and `check` refuses to compare mismatched workloads.
    let threads = SweepRunner::auto().threads();
    // Iteration counts: pinned by MOCC_BENCH_FIXED_ITERS, otherwise
    // sized to give stable timings in a few seconds total.
    let (i1, i32_, i256) = match fixed {
        Some(n) => (n, n, n),
        None => (100_000, 10_000, 2_000),
    };
    // Each timing is best-of-`reps`: the minimum estimates the noise
    // floor, so more repetitions make the adaptive numbers robust to
    // transient machine load.
    let reps = fixed.map(|n| n.min(3)).unwrap_or(5);
    use mocc_nn::ForwardTier::{Fast, Scalar};
    PerfReport {
        fixed_iters: fixed.unwrap_or(0),
        threads: threads as u64,
        forward_ns_b1: round3(forward_ns(1, i1, Scalar)),
        forward_ns_b32: round3(forward_ns(32, i32_, Scalar)),
        forward_ns_b256: round3(forward_ns(256, i256, Scalar)),
        forward_fast_ns_b1: round3(forward_ns(1, i1, Fast)),
        forward_fast_ns_b256: round3(forward_ns(256, i256, Fast)),
        sim_steps_per_sec: round3(sim_steps_per_sec(reps)),
        sweep_cells_per_sec: round3(sweep_cells_per_sec(threads, reps)),
        mocc_cells_per_sec: round3(mocc_cells_per_sec(threads, reps)),
        rollout_scalar_steps_per_sec: round3(rollout_steps_per_sec(false, i256)),
        rollout_batched_steps_per_sec: round3(rollout_steps_per_sec(true, i256)),
    }
}

/// Compares `got` against a `baseline` with tolerance `tol` in (0, 1].
/// Throughput metrics fail when below `tol × baseline`; latency metrics
/// fail when above `baseline / tol`. Returns human-readable per-metric
/// lines on success, or the failing comparisons.
///
/// The comparison refuses mismatched *workloads* up front: the run and
/// the baseline must record the same `fixed_iters` and `threads`, or
/// every ratio would compare different work and the gate would pass or
/// fail on configuration, not performance.
pub fn check(
    got: &PerfReport,
    baseline: &PerfReport,
    tol: f64,
) -> Result<Vec<String>, Vec<String>> {
    if got.fixed_iters != baseline.fixed_iters || got.threads != baseline.threads {
        return Err(vec![format!(
            "workload mismatch: run has fixed_iters={} threads={} but baseline has \
             fixed_iters={} threads={}; set {FIXED_ITERS_ENV}/{} to match the baseline \
             (or regenerate it, see docs/PERFORMANCE.md)",
            got.fixed_iters,
            got.threads,
            baseline.fixed_iters,
            baseline.threads,
            mocc_eval::THREADS_ENV,
        )]);
    }
    // (name, measured, baseline, higher_is_better)
    let metrics: [(&str, f64, f64, bool); 10] = [
        (
            "forward_ns_b1",
            got.forward_ns_b1,
            baseline.forward_ns_b1,
            false,
        ),
        (
            "forward_ns_b32",
            got.forward_ns_b32,
            baseline.forward_ns_b32,
            false,
        ),
        (
            "forward_ns_b256",
            got.forward_ns_b256,
            baseline.forward_ns_b256,
            false,
        ),
        (
            "forward_fast_ns_b1",
            got.forward_fast_ns_b1,
            baseline.forward_fast_ns_b1,
            false,
        ),
        (
            "forward_fast_ns_b256",
            got.forward_fast_ns_b256,
            baseline.forward_fast_ns_b256,
            false,
        ),
        (
            "sim_steps_per_sec",
            got.sim_steps_per_sec,
            baseline.sim_steps_per_sec,
            true,
        ),
        (
            "sweep_cells_per_sec",
            got.sweep_cells_per_sec,
            baseline.sweep_cells_per_sec,
            true,
        ),
        (
            "mocc_cells_per_sec",
            got.mocc_cells_per_sec,
            baseline.mocc_cells_per_sec,
            true,
        ),
        (
            "rollout_scalar_steps_per_sec",
            got.rollout_scalar_steps_per_sec,
            baseline.rollout_scalar_steps_per_sec,
            true,
        ),
        (
            "rollout_batched_steps_per_sec",
            got.rollout_batched_steps_per_sec,
            baseline.rollout_batched_steps_per_sec,
            true,
        ),
    ];
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for (name, g, b, higher) in metrics {
        let ratio = if b > 0.0 { g / b } else { f64::INFINITY };
        let ok = if higher { g >= tol * b } else { g <= b / tol };
        let verdict = if ok { "ok" } else { "FAIL" };
        let line = format!("{name}: {g} vs baseline {b} (ratio {ratio:.2}) {verdict}");
        if ok {
            lines.push(line);
        } else {
            failures.push(line);
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(v: f64) -> PerfReport {
        PerfReport {
            fixed_iters: 0,
            threads: 4,
            forward_ns_b1: v,
            forward_ns_b32: v,
            forward_ns_b256: v,
            forward_fast_ns_b1: v,
            forward_fast_ns_b256: v,
            sim_steps_per_sec: v,
            sweep_cells_per_sec: v,
            mocc_cells_per_sec: v,
            rollout_scalar_steps_per_sec: v,
            rollout_batched_steps_per_sec: v,
        }
    }

    #[test]
    fn report_json_round_trips() {
        let r = report(123.456);
        let json = r.to_canonical_json();
        let back = PerfReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_canonical_json(), json);
        // Keys are sorted in canonical form.
        let a = json.find("\"fixed_iters\"").unwrap();
        let b = json.find("\"forward_ns_b1\"").unwrap();
        let c = json.find("\"threads\"").unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn check_rejects_mismatched_workloads() {
        let base = report(100.0);
        let mut other_iters = report(100.0);
        other_iters.fixed_iters = 2000;
        let err = check(&other_iters, &base, 0.5).unwrap_err();
        assert!(err[0].contains("workload mismatch"), "{err:?}");
        let mut other_threads = report(100.0);
        other_threads.threads = 8;
        let err = check(&other_threads, &base, 0.5).unwrap_err();
        assert!(err[0].contains("workload mismatch"), "{err:?}");
    }

    #[test]
    fn check_passes_identical_and_fails_regression() {
        let base = report(100.0);
        assert!(check(&base, &base, 0.5).is_ok());
        // Throughputs halved AND latencies doubled: everything fails.
        let mut bad = report(100.0);
        bad.sweep_cells_per_sec = 49.0;
        bad.forward_ns_b1 = 201.0;
        let failures = check(&bad, &base, 0.5).unwrap_err();
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().any(|f| f.contains("sweep_cells_per_sec")));
        assert!(failures.iter().any(|f| f.contains("forward_ns_b1")));
        // Improvements never fail.
        let mut good = report(100.0);
        good.sweep_cells_per_sec = 500.0;
        good.forward_ns_b1 = 10.0;
        assert!(check(&good, &base, 0.5).is_ok());
    }

    #[test]
    fn frozen_specs_have_expected_cell_counts() {
        assert_eq!(reference_sweep().cell_count(), 64);
        assert_eq!(mocc_sweep().cell_count(), 16);
    }

    #[test]
    fn env_parsing_is_strict() {
        assert_eq!(parse_fixed_iters(None), Ok(None));
        assert_eq!(parse_fixed_iters(Some("2")), Ok(Some(2)));
        for bad in ["0", "-1", "many", "2.5", ""] {
            let err = parse_fixed_iters(Some(bad)).unwrap_err();
            assert!(err.contains(FIXED_ITERS_ENV), "{err}");
        }
        assert_eq!(parse_tolerance(None), Ok(0.5));
        assert_eq!(parse_tolerance(Some("0.8")), Ok(0.8));
        for bad in ["0", "1.5", "-0.2", "half", ""] {
            let err = parse_tolerance(Some(bad)).unwrap_err();
            assert!(err.contains(TOLERANCE_ENV), "{err}");
        }
    }
}
