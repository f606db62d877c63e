//! The declarative training document: one spec type for every offline
//! training run, canonical JSON on disk.
//!
//! A [`TrainSpec`] mirrors `mocc-eval`'s `ExperimentSpec` discipline
//! for the training side of the pipeline: a kind-tagged (`"kind":
//! "train"`) JSON document with derived serde, unknown-field rejection,
//! defaulted-but-explicit canonical serialization, typed
//! [`SpecError`] validation, and a lossless `parse → serialize →
//! parse` round trip. The spec pins *everything* the run depends on —
//! config preset, hyperparameter overrides, regime, scenario range,
//! seed — so [`TrainSpec::digest`] (the SHA-256 of the canonical JSON)
//! is the run's identity: checkpoints refuse to resume across digests
//! and the model zoo records the digest as provenance.
//!
//! ```
//! use mocc_core::TrainSpec;
//!
//! let json = r#"{
//!   "kind": "train", "name": "demo", "seed": 7,
//!   "config": "fast", "regime": "transfer", "omega_step": 4,
//!   "boot_iters": 1, "traverse_cycles": 1, "rollout_steps": 40
//! }"#;
//! let spec = TrainSpec::from_json(json).unwrap();
//! spec.validate().unwrap();
//! assert_eq!(spec.name, "demo");
//! assert_eq!(spec.digest().len(), 64);
//! ```

use crate::config::MoccConfig;
use crate::preference::landmark_count;
use crate::train::TrainRegime;
use mocc_eval::SpecError;
use mocc_netsim::ScenarioRange;
use serde::{Deserialize, Serialize};

/// One declarative offline training run. See the module docs for the
/// document format; every field not listed as required in
/// [`TrainSpec::from_json`] has a default and is serialized explicitly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename = "train", deny_unknown_fields)]
pub struct TrainSpec {
    /// Model name: becomes the zoo directory, so it is restricted to
    /// `[A-Za-z0-9._-]` (required).
    pub name: String,
    /// Seed for agent initialization and the training schedule
    /// (required). One RNG stream serves both, so the seed alone pins
    /// the whole run.
    pub seed: u64,
    /// Config preset the hyperparameter overrides apply to: `"fast"`
    /// or `"default"` (default `"fast"`).
    #[serde(default = "default_config")]
    pub config: String,
    /// Training regime (default [`TrainRegime::Transfer`]); the JSON
    /// labels are `"individual"` and `"transfer"`.
    #[serde(default)]
    pub regime: TrainRegime,
    /// Scenario range the training envs sample from: `"training"` or
    /// `"testing"` (default `"training"`).
    #[serde(default = "default_range")]
    pub range: String,
    /// Environments driven in lockstep per rollout (default 4; maps to
    /// `MoccConfig::parallel_envs`): the run's one parallelism knob.
    /// One env collects `rollout_steps` on the exact tier; more split
    /// that budget and collect on the fast tier.
    #[serde(default = "default_batch_envs")]
    pub batch_envs: usize,
    /// Checkpoint every N iterations (default 10; 0 = only at the end
    /// of the run).
    #[serde(default = "default_checkpoint_every")]
    pub checkpoint_every: usize,
    /// Episodes per preference when recording final eval metrics for
    /// the zoo provenance (default 1).
    #[serde(default = "default_eval_episodes")]
    pub eval_episodes: usize,
    /// Override of [`MoccConfig::boot_iters`] (default: the preset's).
    pub boot_iters: Option<usize>,
    /// Override of [`MoccConfig::traverse_iters`].
    pub traverse_iters: Option<usize>,
    /// Override of [`MoccConfig::traverse_cycles`].
    pub traverse_cycles: Option<usize>,
    /// Override of [`MoccConfig::rollout_steps`].
    pub rollout_steps: Option<usize>,
    /// Override of [`MoccConfig::episode_mis`].
    pub episode_mis: Option<usize>,
    /// Override of [`MoccConfig::omega_step`] (3 to 100).
    pub omega_step: Option<usize>,
}

impl Default for TrainSpec {
    fn default() -> Self {
        TrainSpec {
            name: String::new(),
            seed: 7,
            config: default_config(),
            regime: TrainRegime::default(),
            range: default_range(),
            batch_envs: default_batch_envs(),
            checkpoint_every: default_checkpoint_every(),
            eval_episodes: default_eval_episodes(),
            boot_iters: None,
            traverse_iters: None,
            traverse_cycles: None,
            rollout_steps: None,
            episode_mis: None,
            omega_step: None,
        }
    }
}

// The values an absent optional field reads as.
fn default_config() -> String {
    "fast".to_string()
}

fn default_range() -> String {
    "training".to_string()
}

fn default_batch_envs() -> usize {
    4
}

fn default_checkpoint_every() -> usize {
    10
}

fn default_eval_episodes() -> usize {
    1
}

/// The largest `omega_step`: ω = 4 851 landmarks, whose Algorithm-1
/// ordering (quadratic in ω) takes 0.04 s. The paper's finest lattice
/// is `omega_step` 20; 200 took 0.5 s and 800 over two minutes.
const MAX_OMEGA_STEP: usize = 100;

/// The most PPO iterations one schedule may hold. The schedule, the
/// curve and every checkpoint's copy of it grow with the count; a
/// million is 16 MB of schedule, 620× the largest shipped run (the
/// default spec, ω = 36, that the figures' MOCC agent and fig16's
/// ω = 36 row train: 1 614 iterations by `build_schedule`).
const MAX_SCHEDULE_LEN: usize = 1_000_000;

/// The most environment steps one rollout may collect, and the most
/// monitor intervals one episode may last. One iteration of the smoke
/// spec on one env read 0.45 s / 14 MB at 10 000 steps and 5.3 s /
/// 68 MB at 200 000 (a two-vCPU Xeon): about 26 µs and 0.3 KB a step,
/// so the cap costs about half a minute and 0.3 GB per iteration, 2 500×
/// the largest shipped value (the `default` preset's 400). It also keeps
/// an episode's horizon, `episode_mis` × a 200 ms monitor interval, far
/// from overflowing the nanosecond clock.
const MAX_ROLLOUT_STEPS: usize = 1_000_000;

impl TrainSpec {
    /// The spec's identity: SHA-256 hex digest of the canonical JSON.
    /// Every semantic field participates (the canonical form spells
    /// every field out), so any change to the document moves the
    /// digest — which is what gates checkpoint resume and keys the
    /// zoo provenance.
    pub fn digest(&self) -> String {
        mocc_store::sha256_hex(self.to_canonical_json().as_bytes())
    }

    /// The [`MoccConfig`] the run trains under: the named preset with
    /// the spec's overrides applied and `parallel_envs` set from
    /// `batch_envs`.
    pub fn resolved_config(&self) -> Result<MoccConfig, SpecError> {
        let mut cfg = MoccConfig::preset(&self.config).ok_or_else(|| SpecError::InvalidSpec {
            reason: format!("config {:?} must be \"fast\" or \"default\"", self.config),
        })?;
        if let Some(v) = self.boot_iters {
            cfg.boot_iters = v;
        }
        if let Some(v) = self.traverse_iters {
            cfg.traverse_iters = v;
        }
        if let Some(v) = self.traverse_cycles {
            cfg.traverse_cycles = v;
        }
        if let Some(v) = self.rollout_steps {
            cfg.rollout_steps = v;
        }
        if let Some(v) = self.episode_mis {
            cfg.episode_mis = v;
        }
        if let Some(v) = self.omega_step {
            cfg.omega_step = v;
        }
        cfg.parallel_envs = self.batch_envs.max(1);
        Ok(cfg)
    }

    /// Total PPO iterations the spec's schedule expands to — the
    /// denominator for progress reporting and `--max-iters` — counted
    /// without building the schedule. An `omega_step` outside
    /// `3..=100` or a count past a million is an error.
    pub fn schedule_len(&self) -> Result<usize, SpecError> {
        let cfg = self.resolved_config()?;
        let invalid = |reason: String| Err(SpecError::InvalidSpec { reason });
        if !(3..=MAX_OMEGA_STEP).contains(&cfg.omega_step) {
            return invalid(format!(
                "omega_step {} must be in 3..={MAX_OMEGA_STEP} (the landmark lattice needs \
                 interior points, and its ordering is quadratic in their number)",
                cfg.omega_step
            ));
        }
        let omega = landmark_count(cfg.omega_step);
        let len = match self.regime {
            TrainRegime::Individual => omega.checked_mul(cfg.boot_iters),
            // Three pivots (`default_pivots`), then the traversal.
            TrainRegime::Transfer => cfg
                .traverse_cycles
                .checked_mul(omega)
                .and_then(|n| n.checked_mul(cfg.traverse_iters))
                .zip(cfg.boot_iters.checked_mul(3))
                .and_then(|(traverse, boot)| traverse.checked_add(boot)),
        };
        match len {
            Some(n) if n <= MAX_SCHEDULE_LEN => Ok(n),
            _ => invalid(format!(
                "the schedule exceeds {MAX_SCHEDULE_LEN} iterations (boot_iters {}, \
                 traverse_iters {}, traverse_cycles {}, {omega} landmarks)",
                cfg.boot_iters, cfg.traverse_iters, cfg.traverse_cycles
            )),
        }
    }

    /// The [`ScenarioRange`] the training environments sample from.
    pub fn scenario_range(&self) -> Result<ScenarioRange, SpecError> {
        match self.range.as_str() {
            "training" => Ok(ScenarioRange::training()),
            "testing" => Ok(ScenarioRange::testing()),
            other => Err(SpecError::InvalidSpec {
                reason: format!("range {other:?} must be \"training\" or \"testing\""),
            }),
        }
    }

    /// Validates the document: zoo-safe name, known preset/range
    /// labels, sane iteration knobs. Everything that would panic or
    /// misbehave mid-run surfaces here as a typed [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        let invalid = |reason: String| Err(SpecError::InvalidSpec { reason });
        if self.name.is_empty() {
            return invalid("train name must be nonempty".to_string());
        }
        if let Some(bad) = self
            .name
            .chars()
            .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
        {
            return invalid(format!(
                "train name {:?} contains {bad:?}; allowed: [A-Za-z0-9._-] \
                 (the name becomes the zoo directory)",
                self.name
            ));
        }
        if self.name.chars().all(|c| c == '.') {
            return invalid(format!(
                "train name {:?} is not a usable directory",
                self.name
            ));
        }
        if self.batch_envs == 0 {
            return invalid("batch_envs must be >= 1".to_string());
        }
        if self.eval_episodes == 0 {
            return invalid("eval_episodes must be >= 1".to_string());
        }
        for (field, v) in [
            ("boot_iters", self.boot_iters),
            ("traverse_iters", self.traverse_iters),
            ("rollout_steps", self.rollout_steps),
            ("episode_mis", self.episode_mis),
        ] {
            if v == Some(0) {
                return invalid(format!("{field} must be >= 1"));
            }
        }
        for (field, v) in [
            ("rollout_steps", self.rollout_steps),
            ("episode_mis", self.episode_mis),
        ] {
            if v.is_some_and(|v| v > MAX_ROLLOUT_STEPS) {
                return invalid(format!("{field} must be <= {MAX_ROLLOUT_STEPS}"));
            }
        }
        self.schedule_len()?;
        self.scenario_range()?;
        Ok(())
    }

    /// Serializes to canonical JSON (sorted keys, every field explicit
    /// — defaults and unset overrides included — so documents on disk
    /// are self-describing and the digest covers every field).
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string(self).expect("spec serialization is infallible")
    }

    /// Parses a spec document from JSON text. Grammar-level errors
    /// (wrong kind, wrong types, unknown fields) come back as
    /// [`SpecError::Json`]; run [`TrainSpec::validate`] afterwards for
    /// structural checks.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        serde_json::from_str(text).map_err(|e| SpecError::Json {
            reason: e.to_string(),
        })
    }

    /// Loads and parses a spec file from disk; a file over
    /// [`mocc_store::MAX_FILE_BYTES`] is an I/O error, not a read.
    pub fn load(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = mocc_store::read_text(path).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TrainSpec {
        TrainSpec {
            name: "tiny".to_string(),
            seed: 5,
            omega_step: Some(4),
            boot_iters: Some(2),
            traverse_iters: Some(1),
            traverse_cycles: Some(1),
            rollout_steps: Some(40),
            episode_mis: Some(40),
            batch_envs: 2,
            ..TrainSpec::default()
        }
    }

    #[test]
    fn round_trips_are_identity() {
        for s in [
            spec(),
            TrainSpec {
                name: "full".to_string(),
                config: "default".to_string(),
                regime: TrainRegime::Individual,
                range: "testing".to_string(),
                checkpoint_every: 0,
                ..TrainSpec::default()
            },
        ] {
            let json = s.to_canonical_json();
            let back = TrainSpec::from_json(&json).unwrap();
            assert_eq!(back, s);
            assert_eq!(back.to_canonical_json(), json, "canonical is a fixed point");
        }
    }

    #[test]
    fn defaults_fill_in_on_parse_and_serialize_explicitly() {
        let json = r#"{"kind":"train","name":"mini","seed":3}"#;
        let s = TrainSpec::from_json(json).unwrap();
        assert_eq!(s.config, "fast");
        assert_eq!(s.regime, TrainRegime::Transfer);
        assert_eq!(s.range, "training");
        assert_eq!(s.batch_envs, 4);
        assert_eq!(s.checkpoint_every, 10);
        assert_eq!(s.boot_iters, None);
        let canon = s.to_canonical_json();
        assert!(canon.contains("\"config\":\"fast\""), "{canon}");
        assert!(canon.contains("\"boot_iters\":null"), "{canon}");
        assert_eq!(TrainSpec::from_json(&canon).unwrap(), s);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_catches_structural_errors() {
        type Mutation = Box<dyn Fn(&mut TrainSpec)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("empty name", Box::new(|s| s.name.clear())),
            (
                "path separator in name",
                Box::new(|s| s.name = "a/b".to_string()),
            ),
            ("dot-only name", Box::new(|s| s.name = "..".to_string())),
            ("zero batch_envs", Box::new(|s| s.batch_envs = 0)),
            ("zero eval_episodes", Box::new(|s| s.eval_episodes = 0)),
            ("zero boot_iters", Box::new(|s| s.boot_iters = Some(0))),
            (
                "zero rollout_steps",
                Box::new(|s| s.rollout_steps = Some(0)),
            ),
            ("omega_step 2", Box::new(|s| s.omega_step = Some(2))),
            ("omega_step 101", Box::new(|s| s.omega_step = Some(101))),
            (
                "omega_step 2^32",
                Box::new(|s| s.omega_step = Some(1 << 32)),
            ),
            (
                "boot_iters 1e11",
                Box::new(|s| s.boot_iters = Some(100_000_000_000)),
            ),
            (
                "boot_iters usize::MAX",
                Box::new(|s| s.boot_iters = Some(usize::MAX)),
            ),
            (
                "individual boot_iters usize::MAX",
                Box::new(|s| {
                    s.regime = TrainRegime::Individual;
                    s.boot_iters = Some(usize::MAX);
                }),
            ),
            (
                "traverse_cycles usize::MAX",
                Box::new(|s| s.traverse_cycles = Some(usize::MAX)),
            ),
            (
                "traverse_iters usize::MAX",
                Box::new(|s| s.traverse_iters = Some(usize::MAX)),
            ),
            (
                "one iteration past the schedule cap",
                // 3 pivots × boot + 1 cycle × 3 landmarks × 1 visit.
                Box::new(|s| s.boot_iters = Some((MAX_SCHEDULE_LEN - 3) / 3 + 1)),
            ),
            (
                "rollout_steps past the cap",
                Box::new(|s| s.rollout_steps = Some(MAX_ROLLOUT_STEPS + 1)),
            ),
            (
                "rollout_steps usize::MAX",
                Box::new(|s| s.rollout_steps = Some(usize::MAX)),
            ),
            (
                "episode_mis past the cap",
                Box::new(|s| s.episode_mis = Some(MAX_ROLLOUT_STEPS + 1)),
            ),
            (
                "episode_mis usize::MAX",
                Box::new(|s| s.episode_mis = Some(usize::MAX)),
            ),
            ("bad config", Box::new(|s| s.config = "huge".to_string())),
            ("bad range", Box::new(|s| s.range = "prod".to_string())),
        ];
        for (what, mutate) in cases {
            let mut s = spec();
            mutate(&mut s);
            assert!(
                matches!(s.validate(), Err(SpecError::InvalidSpec { .. })),
                "{what} must be rejected"
            );
        }
    }

    /// Every cap is inclusive, and the counted length is the built
    /// schedule's.
    #[test]
    fn schedules_at_the_caps_validate() {
        let at_omega_cap = TrainSpec {
            omega_step: Some(MAX_OMEGA_STEP),
            ..spec()
        };
        let at_len_cap = TrainSpec {
            boot_iters: Some((MAX_SCHEDULE_LEN - 3) / 3),
            ..spec()
        };
        let at_step_caps = TrainSpec {
            rollout_steps: Some(MAX_ROLLOUT_STEPS),
            episode_mis: Some(MAX_ROLLOUT_STEPS),
            ..spec()
        };
        at_step_caps.validate().unwrap();
        for s in [at_omega_cap, at_len_cap] {
            s.validate().unwrap();
            let cfg = s.resolved_config().unwrap();
            let built = crate::trainer::build_schedule(&cfg, s.regime).1.len();
            assert_eq!(s.schedule_len().unwrap(), built);
        }
    }

    #[test]
    fn unknown_fields_and_wrong_kind_are_rejected() {
        for (bad, what) in [
            (
                r#"{"kind":"train","name":"x","seed":1,"boot_iter":2}"#,
                "boot_iter (typo of boot_iters)",
            ),
            (
                r#"{"kind":"train","name":"x","seed":1,"scheme":"cubic"}"#,
                "experiment field on a train spec",
            ),
            (r#"{"kind":"sweep","name":"x","seed":1}"#, "wrong kind"),
            (r#"{"name":"x","seed":1}"#, "missing kind"),
        ] {
            let err = TrainSpec::from_json(bad).unwrap_err();
            assert!(matches!(err, SpecError::Json { .. }), "{what}: {err}");
        }
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[]",
            r#"{"kind":"train"}"#,
            r#"{"kind":"train","name":"x","seed":"not-a-number"}"#,
            r#"{"kind":"train","name":"x","seed":1,"regime":"osmosis"}"#,
            r#"{"kind":"train","name":"x","seed":1,"batch_envs":"many"}"#,
        ] {
            match TrainSpec::from_json(bad) {
                Err(SpecError::Json { .. }) => {}
                other => panic!("{bad:?}: expected Json error, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_semantic_field_moves_the_digest() {
        let base = spec();
        let d0 = base.digest();
        type Mutation = Box<dyn Fn(&mut TrainSpec)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("name", Box::new(|s: &mut TrainSpec| s.name.push('x'))),
            ("seed", Box::new(|s| s.seed += 1)),
            ("config", Box::new(|s| s.config = "default".to_string())),
            ("regime", Box::new(|s| s.regime = TrainRegime::Individual)),
            ("range", Box::new(|s| s.range = "testing".to_string())),
            ("batch_envs", Box::new(|s| s.batch_envs += 1)),
            ("checkpoint_every", Box::new(|s| s.checkpoint_every += 1)),
            ("eval_episodes", Box::new(|s| s.eval_episodes += 1)),
            ("boot_iters", Box::new(|s| s.boot_iters = Some(9))),
            ("traverse_iters", Box::new(|s| s.traverse_iters = None)),
            ("traverse_cycles", Box::new(|s| s.traverse_cycles = Some(5))),
            ("rollout_steps", Box::new(|s| s.rollout_steps = Some(41))),
            ("episode_mis", Box::new(|s| s.episode_mis = None)),
            ("omega_step", Box::new(|s| s.omega_step = Some(5))),
        ];
        for (field, mutate) in mutations {
            let mut s = base.clone();
            mutate(&mut s);
            assert_ne!(s.digest(), d0, "mutating {field} must move the digest");
        }
    }

    #[test]
    fn resolved_config_applies_overrides() {
        let s = spec();
        let cfg = s.resolved_config().unwrap();
        assert_eq!(cfg.omega_step, 4);
        assert_eq!(cfg.boot_iters, 2);
        assert_eq!(cfg.rollout_steps, 40);
        assert_eq!(cfg.parallel_envs, 2);
        // Unset overrides keep the preset's values.
        assert_eq!(cfg.history, MoccConfig::fast().history);
    }
}
