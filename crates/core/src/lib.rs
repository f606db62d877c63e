//! # mocc-core — Multi-Objective Congestion Control
//!
//! A from-scratch Rust reproduction of MOCC (EuroSys 2022): the first
//! multi-objective reinforcement-learning congestion-control algorithm.
//! One model serves *any* application preference `w = <w_thr, w_lat,
//! w_loss>` because:
//!
//! 1. the preference is part of the state, embedded by a learned
//!    *preference sub-network* ([`PrefNet`], Fig. 3);
//! 2. the reward is dynamically parameterized by the preference
//!    (Eq. 2, implemented in [`MoccEnv`]);
//! 3. offline training covers a simplex of landmark objectives in two
//!    phases — bootstrapping plus neighborhood-ordered fast traversal
//!    ([`train`], §4.2, Appendix B);
//! 4. online adaptation fine-tunes for new applications with
//!    requirement replay so old ones are not forgotten (§4.3): the
//!    same [`ppo_iteration`] as offline training, with the old
//!    application's preference as its contrast.
//!
//! Wherever a policy drives a flow — [`PolicyCc`] inside the
//! simulator, [`MoccLib`] beside an external datapath, the sweep
//! evaluator, [`MoccEnv`] in training — one private type owns the
//! per-interval step: features into the η-interval history
//! ([`stats_features`]), the observation ([`write_obs`]), and Eq. 1
//! ([`MoccConfig::apply_action`]).
//!
//! ## Quickstart
//!
//! ```
//! use mocc_core::{MoccAgent, MoccConfig, Preference};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
//! // One model, many objectives: actions differ by preference.
//! let hist = vec![0.0f32; 30];
//! let a = agent.act(&Preference::throughput(), &hist);
//! let b = agent.act(&Preference::latency(), &hist);
//! assert!(a.is_finite() && b.is_finite());
//! ```

#![forbid(unsafe_code)]

pub mod adapter;
pub mod agent;
pub mod api;
pub mod aurora;
pub mod batch_eval;
pub mod config;
pub mod env;
pub mod experiment;
pub mod graph;
pub mod hunt;
pub mod preference;
pub mod prefnet;
pub mod train;
pub mod trainer;
pub mod trainspec;
pub mod zoo;

pub use adapter::PolicyCc;
pub use agent::{stats_features, write_obs, MoccAgent};
pub use api::{MoccLib, MoccLibError, NetStatus};
pub use aurora::{AuroraAgent, AuroraBank};
pub use batch_eval::{preference_from_spec, BatchMoccEvaluator};
pub use config::MoccConfig;
pub use env::{MoccEnv, ScenarioSource};
pub use experiment::{
    agent_from_policy, cell_event_counts, cell_tx_divisions, evaluator_from_policy, policy_digest,
    run_experiment, run_experiment_cached, run_experiment_with, RunOptions,
};
pub use hunt::{hunt, HuntFinding, HuntOptions, HuntOutcome};
pub use preference::{landmark_count, landmarks, nearest, Preference};
pub use prefnet::{PrefNet, PrefNetScratch};
pub use train::{convergence_iter, evaluate, ppo_iteration, TrainOutcome, TrainRegime};
pub use trainer::{
    build_schedule, load_checkpoint, train_spec, write_checkpoint, ScheduleStep, TrainCheckpoint,
    TrainOptions, TrainRun,
};
pub use trainspec::{regime_label, TrainSpec};
pub use zoo::{
    final_eval, list_models, load_model, save_trained, zoo_registry, EvalPoint, ModelProvenance,
};
