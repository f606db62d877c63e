//! Trajectory storage and generalized advantage estimation.

use serde::{Deserialize, Serialize};

/// One on-policy trajectory segment.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Rollout {
    /// Flattened observations, `len = steps × obs_dim`.
    pub obs: Vec<f32>,
    /// Observation dimensionality.
    pub obs_dim: usize,
    /// Actions taken.
    pub actions: Vec<f32>,
    /// Log-probabilities of the actions under the behaviour policy.
    pub log_probs: Vec<f32>,
    /// Rewards received.
    pub rewards: Vec<f32>,
    /// Value estimates at each state (from the critic).
    pub values: Vec<f32>,
    /// Episode-termination flags.
    pub dones: Vec<bool>,
    /// Critic value of the state following the last step (bootstrap).
    pub last_value: f32,
}

impl Rollout {
    /// Creates an empty rollout for observations of size `obs_dim`.
    pub fn new(obs_dim: usize) -> Self {
        Rollout {
            obs_dim,
            ..Default::default()
        }
    }

    /// Number of stored steps.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no steps are stored.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Appends one transition.
    pub fn push(
        &mut self,
        obs: &[f32],
        action: f32,
        log_prob: f32,
        reward: f32,
        value: f32,
        done: bool,
    ) {
        debug_assert_eq!(obs.len(), self.obs_dim);
        self.obs.extend_from_slice(obs);
        self.actions.push(action);
        self.log_probs.push(log_prob);
        self.rewards.push(reward);
        self.values.push(value);
        self.dones.push(done);
    }

    /// Mean reward per step (the training curve metric used by the
    /// paper's Figs. 1c, 7).
    pub fn mean_reward(&self) -> f32 {
        if self.rewards.is_empty() {
            return 0.0;
        }
        self.rewards.iter().sum::<f32>() / self.rewards.len() as f32
    }

    /// Computes GAE(γ, λ) advantages and discounted returns.
    ///
    /// Returns `(advantages, returns)`, with `returns[i] =
    /// advantages[i] + values[i]` (the critic regression target).
    pub fn gae(&self, gamma: f32, lam: f32) -> (Vec<f32>, Vec<f32>) {
        let n = self.len();
        let mut adv = vec![0.0f32; n];
        let mut last_gae = 0.0f32;
        for i in (0..n).rev() {
            let (next_value, next_nonterminal) = if i == n - 1 {
                (self.last_value, !self.dones[i])
            } else {
                (self.values[i + 1], !self.dones[i])
            };
            let nn = if next_nonterminal { 1.0 } else { 0.0 };
            let delta = self.rewards[i] + gamma * next_value * nn - self.values[i];
            last_gae = delta + gamma * lam * nn * last_gae;
            adv[i] = last_gae;
        }
        let ret: Vec<f32> = adv.iter().zip(&self.values).map(|(a, v)| a + v).collect();
        (adv, ret)
    }
}

/// Normalizes a slice to zero mean and unit variance (in place), the
/// standard PPO advantage normalization. No-op for tiny batches.
pub fn normalize(xs: &mut [f32]) {
    if xs.len() < 2 {
        return;
    }
    let n = xs.len() as f32;
    let mean = xs.iter().sum::<f32>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
    let std = var.sqrt().max(1e-6);
    for x in xs.iter_mut() {
        *x = (*x - mean) / std;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_rollout(n: usize, reward: f32, value: f32) -> Rollout {
        let mut r = Rollout::new(1);
        for i in 0..n {
            r.push(&[0.0], 0.0, 0.0, reward, value, i == n - 1);
        }
        r.last_value = 0.0;
        r
    }

    #[test]
    fn gae_with_perfect_critic_is_zero() {
        // If V(s) equals the true return under γ = 1 on a constant
        // reward stream... simpler: γ = 0 makes advantage = r − V.
        let r = constant_rollout(5, 1.0, 1.0);
        let (adv, ret) = r.gae(0.0, 0.95);
        for (i, a) in adv.iter().enumerate() {
            assert!(a.abs() < 1e-6, "step {i}: {a}");
        }
        assert!(ret.iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn gae_matches_hand_computation() {
        // Two steps, γ = 0.5, λ = 1, V = 0, rewards 1 then 2,
        // terminal at step 1, last_value ignored due to done.
        let mut r = Rollout::new(1);
        r.push(&[0.0], 0.0, 0.0, 1.0, 0.0, false);
        r.push(&[0.0], 0.0, 0.0, 2.0, 0.0, true);
        r.last_value = 10.0; // Must be ignored (done).
        let (adv, ret) = r.gae(0.5, 1.0);
        // δ1 = 2 + 0 − 0 = 2 ; A1 = 2.
        // δ0 = 1 + 0.5·V1 − 0 = 1 ; A0 = 1 + 0.5·2 = 2.
        assert!((adv[1] - 2.0).abs() < 1e-6);
        assert!((adv[0] - 2.0).abs() < 1e-6);
        assert_eq!(ret.len(), 2);
    }

    #[test]
    fn bootstrap_used_when_not_done() {
        let mut r = Rollout::new(1);
        r.push(&[0.0], 0.0, 0.0, 0.0, 0.0, false);
        r.last_value = 4.0;
        let (adv, _) = r.gae(0.5, 1.0);
        // δ = 0 + 0.5·4 − 0 = 2.
        assert!((adv[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_mean_unit_var() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0];
        normalize(&mut xs);
        let mean: f32 = xs.iter().sum::<f32>() / 4.0;
        let var: f32 = xs.iter().map(|x| x * x).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mean_reward() {
        let r = constant_rollout(4, 2.0, 0.0);
        assert_eq!(r.mean_reward(), 2.0);
    }
}
