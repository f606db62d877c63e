//! MOCC hyperparameters (Table 2 of the paper) and training-scale knobs.

use mocc_rl::PpoConfig;
use serde::{Deserialize, Serialize};

/// All tunables of the MOCC agent and its training pipeline.
///
/// The learning parameters mirror Table 2 (γ = 0.99, lr = 1e-3,
/// α = 0.025, η = 10, ω = 36). The *scale* parameters (rollout length,
/// iteration counts) default to a reduced but honest budget so the full
/// pipeline — bootstrapping, fast traversal, online adaptation — runs
/// in minutes on one machine instead of the paper's multi-hour GPU
/// training; `crates/bench/tests/fixtures/figures/` records what every
/// figure measured at that scale.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MoccConfig {
    /// History length η: how many monitor intervals of statistics are
    /// stacked into the state (Table 2: 10).
    pub history: usize,
    /// Action scale α in the rate update of Eq. 1 (Table 2: 0.025).
    pub action_scale: f64,
    /// Clamp on the raw policy action before Eq. 1.
    pub action_clip: f64,
    /// Discount factor γ (Table 2: 0.99).
    pub gamma: f32,
    /// Learning rate for Adam (Table 2: 0.001).
    pub lr: f32,
    /// Simplex step denominator for landmark objectives; `10` yields
    /// the paper's ω = 36 interior lattice points (§6.5 sweeps
    /// {4, 5, 6, 10, 20} → ω ∈ {3, 6, 10, 36, 171}).
    pub omega_step: usize,
    /// Width of the preference sub-network's feature output (Fig. 3).
    pub pn_features: usize,
    /// Hidden sizes of the actor/critic trunk (§5: 64 and 32 tanh).
    pub hidden: [usize; 2],
    /// Environment steps (monitor intervals) per PPO rollout.
    pub rollout_steps: usize,
    /// Episode length in monitor intervals.
    pub episode_mis: usize,
    /// PPO iterations per bootstrap objective (phase 1 of §4.2).
    pub boot_iters: usize,
    /// PPO iterations per landmark visit in fast traversal (phase 2);
    /// the paper trains each neighbor "only for a few steps".
    pub traverse_iters: usize,
    /// Full cycles over the landmark trajectory in fast traversal.
    pub traverse_cycles: usize,
    /// Parallel rollout workers (the Ray/RLlib substitute; 1 = serial).
    pub parallel_envs: usize,
    /// Initial entropy coefficient. The paper decays β from 1 to 0.1
    /// over 1000 iterations on rewards scaled to ~1000; our per-step
    /// rewards live in [0, 1], so the coefficient is scaled down by the
    /// same factor to preserve the exploration/exploitation balance.
    pub entropy_start: f32,
    /// Final entropy coefficient after decay.
    pub entropy_end: f32,
    /// Iterations over which the entropy coefficient decays linearly.
    pub entropy_decay_iters: usize,
}

impl Default for MoccConfig {
    fn default() -> Self {
        MoccConfig {
            history: 10,
            action_scale: 0.025,
            action_clip: 2.0,
            gamma: 0.99,
            lr: 1e-3,
            omega_step: 10,
            pn_features: 16,
            hidden: [64, 32],
            rollout_steps: 400,
            episode_mis: 400,
            boot_iters: 250,
            traverse_iters: 3,
            traverse_cycles: 8,
            parallel_envs: 1,
            entropy_start: 1e-2,
            entropy_end: 5e-4,
            entropy_decay_iters: 800,
        }
    }
}

impl MoccConfig {
    /// A fast configuration for unit tests and CI: small rollouts and
    /// iteration counts, same architecture.
    pub fn fast() -> Self {
        MoccConfig {
            rollout_steps: 120,
            episode_mis: 120,
            boot_iters: 25,
            traverse_iters: 1,
            traverse_cycles: 1,
            ..Default::default()
        }
    }

    /// Observation dimensionality: preference (3) ⊕ η × (l, p, q).
    pub fn obs_dim(&self) -> usize {
        3 + 3 * self.history
    }

    /// The Eq. 1 multiplicative rate update: clamps the policy mean to
    /// `±action_clip`, scales by `action_scale`, and applies it to
    /// `rate_bps` (symmetric: `×(1 + αa)` up, `÷(1 − αa)` down),
    /// bounded to [10 kbps, 1 Gbps]. The single implementation behind
    /// every deployed and sweep-evaluated controller.
    pub fn apply_action(&self, rate_bps: f64, mean: f32) -> f64 {
        self.scale_rate(rate_bps, mean).clamp(1e4, 1e9)
    }

    /// Eq. 1 before any bound on the resulting rate — the step
    /// [`MoccConfig::apply_action`] bounds for deployment and the
    /// training environment bounds by its episode's link capacity.
    pub(crate) fn scale_rate(&self, rate_bps: f64, mean: f32) -> f64 {
        let a = (mean as f64).clamp(-self.action_clip, self.action_clip);
        let alpha = self.action_scale;
        if a >= 0.0 {
            rate_bps * (1.0 + alpha * a)
        } else {
            rate_bps / (1.0 - alpha * a)
        }
    }

    /// The PPO hyperparameters of a fresh MOCC or Aurora learner: γ and
    /// one learning rate for actor and critic from this config, the
    /// entropy coefficient at its schedule's start, the rest PPO's
    /// defaults.
    pub(crate) fn ppo_config(&self) -> PpoConfig {
        PpoConfig {
            gamma: self.gamma,
            lr: self.lr,
            value_lr: self.lr,
            entropy_coef: self.entropy_start,
            ..Default::default()
        }
    }

    /// Entropy coefficient at training iteration `iter` (linear decay,
    /// §5: "decay from 1 to 0.1 over 1000 iterations", rescaled).
    pub fn entropy_at(&self, iter: usize) -> f32 {
        let frac = (iter as f32 / self.entropy_decay_iters as f32).min(1.0);
        self.entropy_start + frac * (self.entropy_end - self.entropy_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = MoccConfig::default();
        assert_eq!(c.history, 10);
        assert_eq!(c.gamma, 0.99);
        assert_eq!(c.lr, 1e-3);
        assert_eq!(c.action_scale, 0.025);
        assert_eq!(c.omega_step, 10); // ω = 36 landmarks
        assert_eq!(c.obs_dim(), 33);
    }

    #[test]
    fn entropy_decays_linearly() {
        let c = MoccConfig::default();
        assert_eq!(c.entropy_at(0), c.entropy_start);
        assert!((c.entropy_at(c.entropy_decay_iters) - c.entropy_end).abs() < 1e-6);
        assert!((c.entropy_at(10 * c.entropy_decay_iters) - c.entropy_end).abs() < 1e-6);
        let mid = c.entropy_at(c.entropy_decay_iters / 2);
        assert!(mid < c.entropy_start && mid > c.entropy_end);
    }
}
