//! # mocc-rl — reinforcement-learning substrate
//!
//! The learning machinery behind MOCC: a continuous-action [`Env`]
//! abstraction, [`Rollout`] storage with GAE(γ, λ) advantages, a
//! diagonal-Gaussian [`GaussianPolicy`], the [`Ppo`] learner with the
//! clipped surrogate and entropy bonus of Eqs. 3–5 of the paper, a
//! [`Dqn`] baseline for the Fig. 18 ablation, and lockstep batched
//! rollout collection ([`collect_rollouts_batched_tier`]) standing in for
//! the paper's Ray/RLlib parallel-training setup.
//!
//! ## Example
//!
//! ```
//! use mocc_rl::env::TargetEnv;
//! use mocc_rl::ppo::{Ppo, PpoConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut ppo = Ppo::new(2, &[16], PpoConfig::default(), &mut rng);
//! let mut env = TargetEnv::new(0.3, 16);
//! let stats = ppo.train_iteration(&mut env, 64, &mut rng);
//! assert!(stats.mean_reward.is_finite());
//! ```

#![forbid(unsafe_code)]

pub mod batch_rollout;
pub mod dqn;
pub mod env;
pub mod policy;
pub mod ppo;
pub mod rollout;

pub use batch_rollout::{collect_rollouts_batched_tier, BatchRolloutScratch};
pub use dqn::{Dqn, DqnConfig};
pub use env::Env;
pub use policy::{GaussianPolicy, PolicyScratch};
pub use ppo::{Ppo, PpoConfig, PpoStats};
pub use rollout::{normalize, Rollout};
