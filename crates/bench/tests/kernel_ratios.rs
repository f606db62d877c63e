//! The kernel speed ratios that no other test and no `benchmark/`
//! workload checks (docs/PERFORMANCE.md). Both concern `mocc train`
//! only — evaluation (`mocc run`, `mocc serve`) forwards one row per
//! monitor interval and steps no simulators in lockstep.
//!
//! 1. **Tier** (asserted, ≥ 2×): the fast-math tier forwards a 256-row
//!    batch faster per row than the scalar tier. Isolates the tanh
//!    kernel; nothing else differs between the two sides.
//! 2. **Lockstep alone** (printed, not asserted): the training
//!    collector (`collect_rollouts_batched_tier`, what `mocc train`
//!    runs) over 16 envs in one call against sixteen calls of one env
//!    each — same tier, same scratch, same step budget. Only the number
//!    of rows per forward differs. It gates nothing because
//!    `batch_envs` is a semantic training knob (it is in the
//!    `TrainSpec` digest and changes how experience is split), not a
//!    speed setting to be tuned.
//!
//! A third ratio used to compare the collector with a per-env,
//! scalar-tier, allocating act/value/step loop; that loop went with
//! the row kernel it ran on (docs/PERFORMANCE.md, "Why there is one
//! inference kernel"), and a ratio against code nobody can run gates
//! nothing.
//!
//! A ratio of two timings taken in one process on one machine needs no
//! baseline file and no tolerance: both sides run alternately, so they
//! see the same machine weather, and each side's time is its best of
//! three. Timing assertions do not belong in an ordinary `cargo test`,
//! so the test is `#[ignore]`d and meaningful in release mode only:
//!
//! ```text
//! cargo test --release -p mocc-bench --test kernel_ratios -- --ignored --nocapture
//! ```

use mocc_bench::timing::Stopwatch;
use mocc_nn::{Activation, ForwardTier, Matrix, Mlp, MlpScratch};
use mocc_rl::ppo::{Ppo, PpoConfig};
use mocc_rl::{collect_rollouts_batched_tier, BatchRolloutScratch, Env};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Observation width of the policy-shaped networks (3 preference +
/// 10 history intervals × 3 statistics).
const OBS_DIM: usize = 33;
/// Batched forwards per timing, and environment steps per timing.
const ITERS: usize = 2000;
/// Lockstep environments of the rollout comparison.
const ROLLOUT_ENVS: usize = 16;

/// Wall time of `work(false)` over wall time of `work(true)`, each the
/// best of three alternated runs.
fn speedup(mut work: impl FnMut(bool)) -> f64 {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        for fast in [false, true] {
            let t = Stopwatch::start();
            work(fast);
            best[fast as usize] = best[fast as usize].min(t.elapsed_secs());
        }
    }
    best[0] / best[1]
}

/// Scalar over fast tier on the paper's 33-64-32-1 trunk at batch 256.
fn forward_speedup() -> f64 {
    let mut rng = StdRng::seed_from_u64(97);
    let mlp = Mlp::new(
        &[OBS_DIM, 64, 32, 1],
        Activation::Tanh,
        Activation::Linear,
        &mut rng,
    );
    let data = (0..256 * OBS_DIM)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let rows = Matrix::from_vec(256, OBS_DIM, data);
    let mut out = Matrix::zeros(0, 0);
    let mut scratch = MlpScratch::default();
    speedup(|fast| {
        let tier = if fast {
            ForwardTier::Fast
        } else {
            ForwardTier::Scalar
        };
        for _ in 0..ITERS {
            mlp.forward_batch_into_tier(black_box(&rows), &mut out, &mut scratch, tier);
            black_box(out.data.last());
        }
    })
}

/// A policy-shaped observation computed from a step counter at a few
/// multiply-adds per element, so the comparison measures the collector
/// (forwards and bookkeeping) and not an environment.
struct SyntheticEnv {
    t: u32,
    phase: u32,
}

impl SyntheticEnv {
    fn obs(&self) -> Vec<f32> {
        let x = self.t.wrapping_add(self.phase) as f32 * 0.37;
        let mut v = x - x.floor() - 0.5;
        (0..OBS_DIM)
            .map(|_| {
                v = 1.7 * v * (1.0 - v.abs());
                v
            })
            .collect()
    }
}

impl Env for SyntheticEnv {
    fn obs_dim(&self) -> usize {
        OBS_DIM
    }

    fn reset(&mut self) -> Vec<f32> {
        self.t = 0;
        self.obs()
    }

    fn step(&mut self, action: f32) -> (Vec<f32>, f32, bool) {
        self.t += 1;
        (self.obs(), -action.abs(), self.t % 200 == 0)
    }
}

/// The environments of the rollout comparison, phases staggered so no
/// two see the same observations.
fn rollout_envs() -> Vec<SyntheticEnv> {
    (0..ROLLOUT_ENVS as u32)
        .map(|i| SyntheticEnv {
            t: 0,
            phase: i * 37,
        })
        .collect()
}

/// What both sides of the rollout comparison share: the networks, the
/// step budget per env and the collector's reusable scratch.
struct RolloutBench {
    ppo: Ppo,
    steps: usize,
    scratch: BatchRolloutScratch<Mlp>,
}

impl RolloutBench {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(41);
        RolloutBench {
            ppo: Ppo::new(OBS_DIM, &[64, 32], PpoConfig::default(), &mut rng),
            steps: ITERS / ROLLOUT_ENVS,
            scratch: BatchRolloutScratch::default(),
        }
    }

    /// `envs` through the fast-tier lockstep collector (what
    /// `mocc train` runs), `per_call` at a time.
    fn collect_fast(&mut self, envs: &mut [SyntheticEnv], per_call: usize, rng: &mut StdRng) {
        let mut refs: Vec<&mut dyn Env> = envs.iter_mut().map(|e| e as &mut dyn Env).collect();
        for group in refs.chunks_mut(per_call) {
            let rollouts = collect_rollouts_batched_tier(
                &self.ppo.policy,
                &self.ppo.value,
                group,
                self.steps,
                rng,
                &mut self.scratch,
                ForwardTier::Fast,
            );
            black_box(rollouts.len());
        }
    }
}

/// Lockstep and nothing else: the fast-tier collector called once per
/// env (sixteen one-row forwards per step) over the same collector
/// called once for all sixteen (one sixteen-row forward per step) —
/// same tier, same scratch, same networks and step budget.
fn lockstep_speedup() -> f64 {
    let mut bench = RolloutBench::new();
    speedup(|lockstep| {
        let per_call = if lockstep { ROLLOUT_ENVS } else { 1 };
        let mut rng = StdRng::seed_from_u64(43);
        bench.collect_fast(&mut rollout_envs(), per_call, &mut rng);
    })
}

#[test]
#[ignore = "timing assertions: run in release mode, see the module docs"]
fn fast_tier_and_batched_rollouts_keep_their_speedups() {
    let (forward, lockstep) = (forward_speedup(), lockstep_speedup());
    println!("1. forward b256: fast tier {forward:.2}x scalar tier (gate 2x)");
    println!(
        "2. lockstep alone, fast tier, same scratch: one call of 16 envs \
         {lockstep:.2}x sixteen calls of one env (no gate)"
    );
    assert!(
        forward >= 2.0,
        "fast tier forwards a 256-row batch only {forward:.2}x the scalar tier (mocc train only)"
    );
}
