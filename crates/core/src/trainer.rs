//! The [`TrainSpec`] runner: schedule-driven, checkpointed, resumable
//! offline training.
//!
//! The two-phase regime of §4.2 is factored into data plus a driver:
//! [`build_schedule`] expands a config and [`TrainRegime`] into the
//! exact iteration sequence of the run (pivot bootstraps, then
//! Algorithm-1 traversal visits), and
//! [`train_spec`] walks that schedule with a single RNG stream,
//! snapshotting policy/value/optimizer weights, the RNG state, and the
//! training curve into a [`TrainCheckpoint`] every
//! `checkpoint_every` iterations. Because an iteration's entire
//! stochasticity flows through that one checkpointed stream, a killed
//! run resumed from its latest checkpoint replays the remaining
//! iterations draw for draw: the final model artifact is byte-identical
//! to the uninterrupted run's (asserted by `tests/train_resume.rs`).
//!
//! Checkpoints are written torn-proof: a new snapshot lands in
//! `checkpoint.tmp`, the previous `checkpoint.json` is demoted to
//! `checkpoint.prev.json`, then the temp file is renamed into place.
//! A write interrupted mid-stream therefore leaves at worst an
//! unparsable `checkpoint.json` with an intact predecessor, and resume
//! degrades to the previous snapshot instead of failing.

use crate::agent::MoccAgent;
use crate::graph::{default_pivots, sort_objectives};
use crate::preference::{landmarks, Preference};
use crate::train::{ppo_iteration, TrainOutcome, TrainRegime};
use crate::trainspec::TrainSpec;
use mocc_eval::SpecError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One planned PPO iteration: which landmark to train, and whether the
/// update also sees a contrast rollout for a random other landmark
/// (Phase-2 traversal visits do; bootstraps don't).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStep {
    /// Index into the landmark list returned by [`build_schedule`].
    pub pref_idx: usize,
    /// Draw a random contrast landmark for this update.
    pub contrast: bool,
}

/// Expands a config and regime into the landmark set and the exact
/// iteration sequence the run will execute: `Individual` gives every
/// landmark the full bootstrap budget; `Transfer` bootstraps the
/// pivots, then cycles the Algorithm-1 traversal order with
/// `traverse_iters` contrast-augmented visits per landmark.
pub fn build_schedule(
    cfg: &crate::config::MoccConfig,
    regime: TrainRegime,
) -> (Vec<Preference>, Vec<ScheduleStep>) {
    let points = landmarks(cfg.omega_step);
    let mut schedule = Vec::new();
    match regime {
        TrainRegime::Individual => {
            for pref_idx in 0..points.len() {
                for _ in 0..cfg.boot_iters {
                    schedule.push(ScheduleStep {
                        pref_idx,
                        contrast: false,
                    });
                }
            }
        }
        TrainRegime::Transfer => {
            let pivots = default_pivots(&points);
            for &p in &pivots {
                for _ in 0..cfg.boot_iters {
                    schedule.push(ScheduleStep {
                        pref_idx: p,
                        contrast: false,
                    });
                }
            }
            let order = sort_objectives(&points, cfg.omega_step, &pivots);
            for _cycle in 0..cfg.traverse_cycles {
                for &idx in &order {
                    for _ in 0..cfg.traverse_iters {
                        schedule.push(ScheduleStep {
                            pref_idx: idx,
                            contrast: true,
                        });
                    }
                }
            }
        }
    }
    (points, schedule)
}

/// A complete training resume point, serialized as canonical JSON.
/// Everything the next iteration depends on is here; in particular the
/// RNG state, so the resumed stream continues draw for draw.
#[derive(Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Checkpoint format version (currently 1).
    pub version: u64,
    /// [`TrainSpec::digest`] of the spec that produced this run.
    /// Resume refuses a checkpoint whose digest disagrees with the
    /// spec it is asked to continue.
    pub spec_digest: String,
    /// Iterations completed so far (the next one to run).
    pub iteration: usize,
    /// [`StdRng::state`] snapshot (4 words).
    pub rng_state: Vec<u64>,
    /// Mean per-step reward of every completed iteration.
    pub curve: Vec<f32>,
    /// Policy, value net, and optimizer state.
    pub agent: MoccAgent,
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> SpecError {
    SpecError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

/// Writes `ck` into `dir` torn-proof: temp file, demote the old
/// snapshot to `checkpoint.prev.json`, rename into place.
pub fn write_checkpoint(dir: &Path, ck: &TrainCheckpoint) -> Result<(), SpecError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let tmp = dir.join("checkpoint.tmp");
    let main = dir.join("checkpoint.json");
    let prev = dir.join("checkpoint.prev.json");
    let json = serde_json::to_string(ck).map_err(|e| SpecError::Json {
        reason: e.to_string(),
    })?;
    std::fs::write(&tmp, json).map_err(|e| io_err(&tmp, e))?;
    if main.exists() {
        std::fs::rename(&main, &prev).map_err(|e| io_err(&prev, e))?;
    }
    std::fs::rename(&tmp, &main).map_err(|e| io_err(&main, e))?;
    Ok(())
}

/// Loads the freshest readable checkpoint from `dir`: the current
/// snapshot if it parses and its agent's shapes are consistent
/// (`MoccAgent::from_json`'s checks), otherwise the previous one (a
/// torn current write degrades, it doesn't fail). Errors only when
/// neither yields a valid checkpoint.
pub fn load_checkpoint(dir: &Path) -> Result<TrainCheckpoint, SpecError> {
    let mut last_reason = "no checkpoint.json or checkpoint.prev.json".to_string();
    for name in ["checkpoint.json", "checkpoint.prev.json"] {
        let path = dir.join(name);
        match mocc_store::read_text(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => last_reason = format!("{name}: {e}"),
            // The derived decoder checks no shapes; an agent that
            // fails them is as unreadable as a torn file.
            Ok(text) => match serde_json::from_str::<TrainCheckpoint>(&text)
                .map_err(|e| e.to_string())
                .and_then(|ck| ck.agent.validate().map(|()| ck))
            {
                Ok(ck) => return Ok(ck),
                Err(e) => last_reason = format!("{name}: {e}"),
            },
        }
    }
    Err(SpecError::Io {
        path: dir.display().to_string(),
        reason: format!("no readable checkpoint ({last_reason})"),
    })
}

/// Knobs for one [`train_spec`] invocation that are *not* part of the
/// run's identity: where to checkpoint, whether to resume, and an
/// iteration cap for deliberately interrupted runs.
#[derive(Debug, Clone, Default)]
pub struct TrainOptions {
    /// Directory to write periodic checkpoints into (none = don't
    /// checkpoint).
    pub checkpoint_dir: Option<PathBuf>,
    /// Directory to resume from. The checkpoint's spec digest must
    /// match the spec being run.
    pub resume_from: Option<PathBuf>,
    /// Stop after this many *total* schedule iterations (counting ones
    /// already in the resumed checkpoint). The run reports
    /// `completed: false` if the cap cut it short.
    pub max_iters: Option<usize>,
    /// Wall-clock source for [`TrainOutcome::wall_secs`] logging.
    /// `mocc-core` never reads a clock itself (the byte-determinism
    /// contract, enforced by `mocc audit`): callers that want wall
    /// time inject one — the CLI and harness pass
    /// `mocc_bench::timing::monotonic_secs`. `None` reports 0.0.
    /// Timing never feeds back into training state.
    pub clock: Option<fn() -> f64>,
}

/// What [`train_spec`] hands back: the trained agent, the outcome
/// (iterations, wall time, curve), and whether the schedule ran to its
/// end or was cut short by [`TrainOptions::max_iters`].
pub struct TrainRun {
    /// The trained (or partially trained) agent.
    pub agent: MoccAgent,
    /// Iterations executed across the whole run (including resumed
    /// ones), wall time of *this* invocation, and the full curve.
    pub outcome: TrainOutcome,
    /// Whether the schedule ran to completion.
    pub completed: bool,
}

/// Runs (or resumes) the training run a [`TrainSpec`] describes.
///
/// Fresh runs seed one `StdRng` from `spec.seed`, draw the agent's
/// initial weights from it, and walk the [`build_schedule`] expansion.
/// Resumed runs restore agent, RNG state, and curve from the latest
/// readable checkpoint in `opts.resume_from` and continue where the
/// snapshot left off — byte-identically to the uninterrupted run.
pub fn train_spec(spec: &TrainSpec, opts: &TrainOptions) -> Result<TrainRun, SpecError> {
    spec.validate()?;
    let cfg = spec.resolved_config()?;
    let range = spec.scenario_range()?;
    let digest = spec.digest();
    let (points, schedule) = build_schedule(&cfg, spec.regime);

    let (mut agent, mut rng, start, mut curve) = match &opts.resume_from {
        Some(dir) => {
            let ck = load_checkpoint(dir)?;
            if ck.version != 1 {
                return Err(SpecError::InvalidSpec {
                    reason: format!(
                        "checkpoint version {} is not supported (want 1)",
                        ck.version
                    ),
                });
            }
            if ck.spec_digest != digest {
                return Err(SpecError::InvalidSpec {
                    reason: format!(
                        "checkpoint in {} belongs to spec digest {}, not {} — refusing to \
                         resume a different run",
                        dir.display(),
                        ck.spec_digest,
                        digest
                    ),
                });
            }
            let state: [u64; 4] =
                ck.rng_state
                    .as_slice()
                    .try_into()
                    .map_err(|_| SpecError::InvalidSpec {
                        reason: format!(
                            "checkpoint rng_state has {} words, want 4",
                            ck.rng_state.len()
                        ),
                    })?;
            if ck.iteration > schedule.len() || ck.iteration != ck.curve.len() {
                return Err(SpecError::InvalidSpec {
                    reason: format!(
                        "checkpoint iteration {} inconsistent with curve length {} / schedule \
                         length {}",
                        ck.iteration,
                        ck.curve.len(),
                        schedule.len()
                    ),
                });
            }
            (ck.agent, StdRng::from_state(state), ck.iteration, ck.curve)
        }
        None => {
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let agent = MoccAgent::new(cfg, &mut rng);
            (agent, rng, 0, Vec::new())
        }
    };

    let end = opts
        .max_iters
        .map_or(schedule.len(), |m| schedule.len().min(m));
    let started = opts.clock.map(|c| c());
    // All randomness — contrast landmark draws, rollout env seeds,
    // action sampling, minibatch shuffles — comes from `rng`, so
    // (agent, rng state, iteration) is a complete resume point.
    for (it, &step) in schedule.iter().enumerate().take(end).skip(start) {
        let contrast = step
            .contrast
            .then(|| points[rng.gen_range(0..points.len())]);
        let pref = points[step.pref_idx];
        agent.ppo.cfg.entropy_coef = agent.cfg.entropy_at(it);
        let reward = ppo_iteration(&mut agent.ppo, &agent.cfg, pref, contrast, range, &mut rng);
        curve.push(reward);
        let done = it + 1;
        let due = spec.checkpoint_every > 0 && done % spec.checkpoint_every == 0;
        if let Some(dir) = opts.checkpoint_dir.as_ref().filter(|_| due || done == end) {
            write_checkpoint(
                dir,
                &TrainCheckpoint {
                    version: 1,
                    spec_digest: digest.clone(),
                    iteration: done,
                    rng_state: rng.state().to_vec(),
                    curve: curve.clone(),
                    agent: agent.clone(),
                },
            )?;
        }
    }

    let iterations = curve.len();
    Ok(TrainRun {
        agent,
        outcome: TrainOutcome {
            iterations,
            wall_secs: match (opts.clock, started) {
                (Some(clock), Some(t0)) => clock() - t0,
                _ => 0.0,
            },
            curve,
        },
        completed: end == schedule.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoccConfig;

    fn tiny_cfg() -> MoccConfig {
        MoccConfig {
            omega_step: 4,
            boot_iters: 2,
            traverse_iters: 1,
            traverse_cycles: 1,
            rollout_steps: 40,
            episode_mis: 40,
            ..MoccConfig::fast()
        }
    }

    #[test]
    fn schedule_reproduces_offline_accounting() {
        let cfg = tiny_cfg();
        // ω = 3 landmarks at omega_step 4.
        let (points, ind) = build_schedule(&cfg, TrainRegime::Individual);
        assert_eq!(points.len(), 3);
        assert_eq!(ind.len(), 6, "Individual: ω × boot");
        assert!(ind.iter().all(|s| !s.contrast));

        let (_, tra) = build_schedule(&cfg, TrainRegime::Transfer);
        assert_eq!(
            tra.len(),
            9,
            "Transfer: pivots × boot + cycles × ω × traverse"
        );
        assert_eq!(tra.iter().filter(|s| s.contrast).count(), 3);
    }

    #[test]
    fn checkpoint_round_trips_and_degrades_when_torn() {
        let dir = std::env::temp_dir().join(format!("mocc-ck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(2);
        let agent = MoccAgent::new(tiny_cfg(), &mut rng);
        let mut ck = TrainCheckpoint {
            version: 1,
            spec_digest: "d".repeat(64),
            iteration: 1,
            rng_state: rng.state().to_vec(),
            curve: vec![0.25],
            agent,
        };
        write_checkpoint(&dir, &ck).unwrap();
        ck.iteration = 2;
        ck.curve.push(0.5);
        write_checkpoint(&dir, &ck).unwrap();
        assert_eq!(load_checkpoint(&dir).unwrap().iteration, 2);

        // Tear the current snapshot: load falls back to the previous.
        std::fs::write(dir.join("checkpoint.json"), "{\"version\":1,").unwrap();
        assert_eq!(load_checkpoint(&dir).unwrap().iteration, 1);

        // Tear both: a typed error, not a panic.
        std::fs::write(dir.join("checkpoint.prev.json"), "garbage").unwrap();
        assert!(matches!(load_checkpoint(&dir), Err(SpecError::Io { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint whose critic's first Adam moment is one value
    /// short parses cleanly, and used to panic the first update on
    /// resume. It is as unreadable as a torn file: load falls back to
    /// the previous snapshot, and with that one damaged too, load and
    /// resume are errors naming the buffer.
    #[test]
    fn checkpoint_with_short_adam_moments_is_unreadable() {
        let dir = std::env::temp_dir().join(format!("mocc-ck-moments-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = TrainSpec {
            name: "moments".to_string(),
            seed: 6,
            omega_step: Some(4),
            boot_iters: Some(1),
            traverse_iters: Some(1),
            traverse_cycles: Some(1),
            rollout_steps: Some(30),
            episode_mis: Some(30),
            batch_envs: 1,
            checkpoint_every: 1,
            ..TrainSpec::default()
        };
        let opts = TrainOptions {
            checkpoint_dir: Some(dir.clone()),
            max_iters: Some(2),
            ..TrainOptions::default()
        };
        train_spec(&spec, &opts).unwrap();
        let main = dir.join("checkpoint.json");
        let mut text = std::fs::read_to_string(&main).unwrap();
        // Drop the first value of `agent.ppo.opt_v.m[0]`.
        let opt_v = text.find("\"opt_v\":{").unwrap();
        let first = opt_v + text[opt_v..].find("\"m\":[[").unwrap() + "\"m\":[[".len();
        let comma = first + text[first..].find(',').unwrap();
        text.replace_range(first..=comma, "");
        std::fs::write(&main, &text).unwrap();
        assert_eq!(load_checkpoint(&dir).unwrap().iteration, 1);

        std::fs::write(dir.join("checkpoint.prev.json"), &text).unwrap();
        let want = "ppo.opt_v.m[0] holds 2943 values for a tensor of 2944";
        let err = load_checkpoint(&dir).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains(want), "{err}");
        let resume = TrainOptions {
            resume_from: Some(dir.clone()),
            ..TrainOptions::default()
        };
        let err = train_spec(&spec, &resume).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains(want), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_foreign_spec_digest() {
        let dir = std::env::temp_dir().join(format!("mocc-ck-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = TrainSpec {
            name: "tiny".to_string(),
            seed: 5,
            omega_step: Some(4),
            boot_iters: Some(1),
            traverse_iters: Some(1),
            traverse_cycles: Some(1),
            rollout_steps: Some(30),
            episode_mis: Some(30),
            batch_envs: 1,
            ..TrainSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let agent = MoccAgent::new(tiny_cfg(), &mut rng);
        write_checkpoint(
            &dir,
            &TrainCheckpoint {
                version: 1,
                spec_digest: "0".repeat(64),
                iteration: 1,
                rng_state: rng.state().to_vec(),
                curve: vec![0.1],
                agent,
            },
        )
        .unwrap();
        let err = match train_spec(
            &spec,
            &TrainOptions {
                resume_from: Some(dir.clone()),
                ..TrainOptions::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("resume against a foreign digest must fail"),
        };
        assert!(matches!(err, SpecError::InvalidSpec { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
