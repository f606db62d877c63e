//! Deep Q-Network over a discretized action grid.
//!
//! Implemented solely for the paper's learning-algorithm ablation
//! (Fig. 18, "MOCC-DQN"): the sending-rate action is continuous, so
//! Q-learning must discretize it and — as the paper observes — scales
//! poorly, losing to PPO by roughly 3× in reward.

use crate::env::Env;
use mocc_nn::{Activation, Adam, Matrix, Mlp, Network};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// DQN hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DqnConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Learning rate.
    pub lr: f32,
    /// Initial exploration rate.
    pub eps_start: f32,
    /// Final exploration rate.
    pub eps_end: f32,
    /// Steps over which ε decays linearly.
    pub eps_decay_steps: u64,
    /// Replay-buffer capacity.
    pub replay_cap: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Hard target-network sync period (environment steps).
    pub target_sync: u64,
    /// Steps collected before learning starts.
    pub warmup: usize,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            gamma: 0.99,
            lr: 1e-3,
            eps_start: 1.0,
            eps_end: 0.05,
            eps_decay_steps: 5_000,
            replay_cap: 20_000,
            batch: 64,
            target_sync: 500,
            warmup: 500,
        }
    }
}

#[derive(Debug, Clone)]
struct Transition {
    obs: Vec<f32>,
    action: usize,
    reward: f32,
    next_obs: Vec<f32>,
    done: bool,
}

/// A DQN agent over a fixed grid of continuous actions.
#[derive(Debug)]
pub struct Dqn {
    /// Online Q-network (obs → one value per discrete action).
    pub q: Mlp,
    target: Mlp,
    /// The discrete action grid (each entry is a continuous action).
    pub actions: Vec<f32>,
    cfg: DqnConfig,
    replay: VecDeque<Transition>,
    opt: Adam,
    steps: u64,
}

impl Dqn {
    /// Builds a DQN with the given hidden sizes and action grid.
    pub fn new<R: Rng>(
        obs_dim: usize,
        hidden: &[usize],
        actions: Vec<f32>,
        cfg: DqnConfig,
        rng: &mut R,
    ) -> Self {
        assert!(!actions.is_empty(), "need at least one discrete action");
        let mut sizes = vec![obs_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(actions.len());
        let q = Mlp::new(&sizes, Activation::Tanh, Activation::Linear, rng);
        let target = q.clone();
        Dqn {
            q,
            target,
            actions,
            opt: Adam::new(cfg.lr),
            cfg,
            replay: VecDeque::new(),
            steps: 0,
        }
    }

    /// A uniform action grid of `n` points on `[lo, hi]`.
    pub fn uniform_grid(lo: f32, hi: f32, n: usize) -> Vec<f32> {
        assert!(n >= 2);
        (0..n)
            .map(|i| lo + (hi - lo) * i as f32 / (n - 1) as f32)
            .collect()
    }

    /// Current ε for ε-greedy exploration.
    pub fn epsilon(&self) -> f32 {
        let frac = (self.steps as f32 / self.cfg.eps_decay_steps as f32).min(1.0);
        self.cfg.eps_start + frac * (self.cfg.eps_end - self.cfg.eps_start)
    }

    /// Greedy action index at `obs`.
    pub fn greedy_index(&self, obs: &[f32]) -> usize {
        let qs = self.q.forward(obs);
        argmax(&qs)
    }

    /// The greedy continuous action at `obs` (deployment path).
    pub fn best_action(&self, obs: &[f32]) -> f32 {
        self.actions[self.greedy_index(obs)]
    }

    /// ε-greedy action index.
    pub fn act_index(&self, obs: &[f32], rng: &mut StdRng) -> usize {
        if rng.gen::<f32>() < self.epsilon() {
            rng.gen_range(0..self.actions.len())
        } else {
            self.greedy_index(obs)
        }
    }

    /// Runs one environment episode of up to `max_steps`, learning from
    /// replay after every step. Returns the mean per-step reward.
    pub fn train_episode(&mut self, env: &mut dyn Env, max_steps: usize, rng: &mut StdRng) -> f32 {
        let mut obs = env.reset();
        let mut total = 0.0f32;
        let mut count = 0usize;
        for _ in 0..max_steps {
            let ai = self.act_index(&obs, rng);
            let (next, r, done) = env.step(self.actions[ai]);
            self.replay.push_back(Transition {
                obs: obs.clone(),
                action: ai,
                reward: r,
                next_obs: next.clone(),
                done,
            });
            if self.replay.len() > self.cfg.replay_cap {
                self.replay.pop_front();
            }
            self.steps += 1;
            total += r;
            count += 1;
            if self.replay.len() >= self.cfg.warmup {
                self.learn_step(rng);
            }
            if self.steps % self.cfg.target_sync == 0 {
                self.target.copy_params_from(&self.q);
            }
            obs = next;
            if done {
                break;
            }
        }
        total / count.max(1) as f32
    }

    fn learn_step(&mut self, rng: &mut StdRng) {
        let b = self.cfg.batch.min(self.replay.len());
        if b == 0 {
            return;
        }
        let obs_dim = self.q.in_dim();
        let n_actions = self.actions.len();
        let mut xs = Vec::with_capacity(b * obs_dim);
        let mut batch: Vec<&Transition> = Vec::with_capacity(b);
        for _ in 0..b {
            let i = rng.gen_range(0..self.replay.len());
            batch.push(&self.replay[i]);
        }
        for t in &batch {
            xs.extend_from_slice(&t.obs);
        }
        let x = Matrix::from_vec(b, obs_dim, xs);
        let cache = self.q.forward_batch(&x);
        // Targets from the frozen network.
        let mut grad = Matrix::zeros(b, n_actions);
        for (j, t) in batch.iter().enumerate() {
            let q_sa = cache.output().get(j, t.action);
            let target = if t.done {
                t.reward
            } else {
                let next_q = self.target.forward(&t.next_obs);
                t.reward + self.cfg.gamma * next_q.iter().cloned().fold(f32::MIN, f32::max)
            };
            grad.set(j, t.action, 2.0 * (q_sa - target) / b as f32);
        }
        self.q.zero_grad();
        self.q.backward_params(&cache, &grad);
        self.opt.begin_step();
        let opt = &mut self.opt;
        self.q
            .for_each_param(|slot, p, g| opt.update_slot_clipped(slot, p, g, Some(1.0)));
    }

    /// Evaluates the greedy policy, returning the mean per-step reward.
    pub fn evaluate(&self, env: &mut dyn Env, episodes: usize, max_steps: usize) -> f32 {
        let mut total = 0.0f32;
        let mut count = 0usize;
        for _ in 0..episodes {
            let mut obs = env.reset();
            for _ in 0..max_steps {
                let (next, r, done) = env.step(self.best_action(&obs));
                total += r;
                count += 1;
                obs = next;
                if done {
                    break;
                }
            }
        }
        total / count.max(1) as f32
    }

    /// Environment steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::TargetEnv;
    use rand::SeedableRng;

    #[test]
    fn uniform_grid_endpoints() {
        let g = Dqn::uniform_grid(-1.0, 1.0, 5);
        assert_eq!(g, vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn epsilon_decays() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut dqn = Dqn::new(
            2,
            &[8],
            Dqn::uniform_grid(-1.0, 1.0, 5),
            DqnConfig {
                eps_decay_steps: 100,
                warmup: 1_000_000, // Never learn in this test.
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(dqn.epsilon(), 1.0);
        let mut env = TargetEnv::new(0.0, 50);
        let _ = dqn.train_episode(&mut env, 50, &mut rng);
        let _ = dqn.train_episode(&mut env, 50, &mut rng);
        assert!((dqn.epsilon() - 0.05).abs() < 1e-6, "eps {}", dqn.epsilon());
    }

    #[test]
    fn dqn_learns_bandit_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let actions = Dqn::uniform_grid(-1.0, 1.0, 9);
        let cfg = DqnConfig {
            eps_decay_steps: 2_000,
            warmup: 100,
            target_sync: 200,
            ..Default::default()
        };
        let mut dqn = Dqn::new(2, &[16], actions, cfg, &mut rng);
        let mut env = TargetEnv::new(0.5, 32);
        for _ in 0..120 {
            dqn.train_episode(&mut env, 32, &mut rng);
        }
        let a = dqn.best_action(&[1.0, 0.0]);
        assert!((a - 0.5).abs() < 0.26, "greedy action {a}");
        let score = dqn.evaluate(&mut env, 3, 32);
        assert!(score > 0.8, "eval reward {score}");
    }

    #[test]
    fn argmax_first_max_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }
}
