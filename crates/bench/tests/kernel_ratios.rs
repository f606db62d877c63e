//! The kernel speed ratios that no other test and no `benchmark/`
//! workload checks (docs/PERFORMANCE.md). All concern `mocc train`
//! above all — evaluation (`mocc run`, `mocc serve`) forwards one row
//! per monitor interval and steps no simulators in lockstep.
//!
//! 1. **Exact tanh** (asserted, ≥ 1.4×): `exact_tanh_slice`, the exact
//!    tier's eight-lane kernel, over a per-element `f32::tanh` loop on
//!    the same 16 384 pre-activations. Both write the same bits (the
//!    `simd` module's tests); the learner's forward pays this ratio on
//!    every hidden unit.
//! 2. **Tier** (asserted, ≥ 1.5×): the fast tier, which training
//!    rollouts over more than one env run, forwards a 256-row batch
//!    faster per row than the scalar tier. Isolates the
//!    tanh kernel; nothing else differs between the two sides. It read
//!    about 3.4× while the scalar tier called libm per element, and
//!    about 1.9× once it ran the exact kernel.
//! 3. **Lockstep alone** (printed, not asserted): the training
//!    collector (`collect_rollouts_batched_tier`, what `mocc train`
//!    runs) over 16 envs in one call against sixteen calls of one env
//!    each — same tier, same scratch, same step budget. Only the number
//!    of rows per forward differs. It gates nothing because
//!    `batch_envs` is a semantic training knob (it is in the
//!    `TrainSpec` digest and changes how experience is split), not a
//!    speed setting to be tuned.
//!
//! A ratio against a per-env, scalar-tier, allocating act/value/step
//! loop went with the row kernel it ran on (docs/PERFORMANCE.md, "Why
//! there is one inference kernel"), and a ratio against code nobody
//! can run gates nothing.
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
use mocc_nn::{exact_tanh_slice, Activation, ForwardTier, Matrix, Mlp, MlpScratch};
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

/// Best wall time of `work(false)` and of `work(true)` over three
/// alternated runs each.
fn best_secs(mut work: impl FnMut(bool)) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        for fast in [false, true] {
            let t = Stopwatch::start();
            work(fast);
            best[fast as usize] = best[fast as usize].min(t.elapsed_secs());
        }
    }
    best
}

/// Wall time of `work(false)` over wall time of `work(true)`.
fn speedup(work: impl FnMut(bool)) -> f64 {
    let [slow, fast] = best_secs(work);
    slow / fast
}

/// Nanoseconds per element of a per-element `f32::tanh` loop and of
/// `exact_tanh_slice`, on 16 384 values uniform in ±2 (the span of
/// trained hidden pre-activations).
fn exact_tanh_ns() -> [f64; 2] {
    const N: usize = 256 * 64;
    let mut rng = StdRng::seed_from_u64(96);
    let input: Vec<f32> = (0..N).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let mut buf = input.clone();
    let reps = ITERS / 8;
    best_secs(|kernel| {
        for _ in 0..reps {
            buf.copy_from_slice(black_box(&input));
            if kernel {
                exact_tanh_slice(&mut buf);
            } else {
                buf.iter_mut().for_each(|x| *x = x.tanh());
            }
            black_box(buf.last());
        }
    })
    .map(|secs| secs * 1e9 / (reps * N) as f64)
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
fn exact_and_fast_tanh_and_batched_rollouts_keep_their_speedups() {
    let ([libm_ns, kernel_ns], forward, lockstep) =
        (exact_tanh_ns(), forward_speedup(), lockstep_speedup());
    let tanh = libm_ns / kernel_ns;
    println!(
        "1. exact tanh: eight-lane kernel {kernel_ns:.1} ns/element, per-element f32::tanh \
         {libm_ns:.1} ns: {tanh:.2}x (gate 1.4x)"
    );
    println!("2. forward b256: fast tier {forward:.2}x scalar tier (gate 1.5x)");
    println!(
        "3. lockstep alone, fast tier, same scratch: one call of 16 envs \
         {lockstep:.2}x sixteen calls of one env (no gate)"
    );
    assert!(
        tanh >= 1.4,
        "the exact tanh kernel is only {tanh:.2}x a per-element f32::tanh loop"
    );
    assert!(
        forward >= 1.5,
        "fast tier forwards a 256-row batch only {forward:.2}x the scalar tier (mocc train only)"
    );
}
