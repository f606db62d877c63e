//! Checkpoint/resume determinism for the `TrainSpec` pipeline, end to
//! end through the umbrella crate: a run killed at iteration k and
//! resumed from its checkpoint must produce a final model artifact
//! byte-identical to the uninterrupted run's, a torn current checkpoint
//! must degrade to the previous snapshot without losing that guarantee,
//! and a zoo entry must be loadable and runnable as a registry scheme.

use mocc::core::{
    load_checkpoint, run_experiment_with, save_trained, train_spec, zoo_registry, RunOptions,
    TrainOptions, TrainSpec,
};
use mocc::eval::{ExperimentSpec, SweepRunner, SweepSpec};
use mocc::store::sha256_hex;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mocc-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `train_smoke.json` budget: 9 schedule iterations, two lockstep
/// envs, checkpoint every 2 — small enough that every test replays the
/// full schedule several times.
fn tiny_spec(name: &str) -> TrainSpec {
    TrainSpec {
        name: name.to_string(),
        seed: 11,
        config: "fast".to_string(),
        omega_step: Some(4),
        boot_iters: Some(2),
        traverse_iters: Some(1),
        traverse_cycles: Some(1),
        rollout_steps: Some(60),
        episode_mis: Some(40),
        batch_envs: 2,
        checkpoint_every: 2,
        eval_episodes: 1,
        ..TrainSpec::default()
    }
}

/// Kill at iteration k, resume, and the final model is byte-identical
/// to the uninterrupted run — the tentpole determinism guarantee.
#[test]
fn resume_after_kill_is_byte_identical() {
    let spec = tiny_spec("resume-kill");
    let total = spec.schedule_len().unwrap();
    assert!(total >= 6, "budget too small to interrupt meaningfully");

    // Uninterrupted reference run.
    let full = train_spec(&spec, &TrainOptions::default()).unwrap();
    assert!(full.completed);
    assert_eq!(full.outcome.iterations, total);

    // The same spec, killed at iteration 4 (checkpointing as it goes)...
    let ck_dir = tmp_dir("kill-ck");
    let killed = train_spec(
        &spec,
        &TrainOptions {
            checkpoint_dir: Some(ck_dir.clone()),
            max_iters: Some(4),
            ..TrainOptions::default()
        },
    )
    .unwrap();
    assert!(!killed.completed, "max_iters must cut the run short");
    assert_eq!(load_checkpoint(&ck_dir).unwrap().iteration, 4);

    // ...then resumed from the checkpoint directory.
    let resumed = train_spec(
        &spec,
        &TrainOptions {
            checkpoint_dir: Some(ck_dir.clone()),
            resume_from: Some(ck_dir.clone()),
            ..TrainOptions::default()
        },
    )
    .unwrap();
    assert!(resumed.completed);
    assert_eq!(resumed.outcome.iterations, total);
    assert_eq!(
        resumed.outcome.curve, full.outcome.curve,
        "resumed training curve must replay draw for draw"
    );
    assert_eq!(
        resumed.agent.to_json(),
        full.agent.to_json(),
        "resumed final model must be byte-identical"
    );

    // The determinism survives serialization into the zoo: both
    // artifacts are the same bytes on disk.
    let (zoo_a, zoo_b) = (tmp_dir("kill-zoo-a"), tmp_dir("kill-zoo-b"));
    let path_a = save_trained(&zoo_a, &spec, &full.agent, full.outcome.iterations).unwrap();
    let path_b = save_trained(&zoo_b, &spec, &resumed.agent, resumed.outcome.iterations).unwrap();
    assert_eq!(
        std::fs::read(&path_a).unwrap(),
        std::fs::read(&path_b).unwrap()
    );
    for d in [ck_dir, zoo_a, zoo_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Tearing the current checkpoint mid-write degrades resume to the
/// previous snapshot — replaying more iterations, but landing on the
/// identical final artifact.
#[test]
fn torn_checkpoint_degrades_to_previous_snapshot() {
    let spec = tiny_spec("resume-torn");
    let total = spec.schedule_len().unwrap();
    let full = train_spec(&spec, &TrainOptions::default()).unwrap();

    // checkpoint_every = 2 and max_iters = 6 leaves checkpoint.json at
    // iteration 6 with checkpoint.prev.json at 4.
    let ck_dir = tmp_dir("torn-ck");
    train_spec(
        &spec,
        &TrainOptions {
            checkpoint_dir: Some(ck_dir.clone()),
            max_iters: Some(6),
            ..TrainOptions::default()
        },
    )
    .unwrap();
    assert_eq!(load_checkpoint(&ck_dir).unwrap().iteration, 6);

    // Simulate a torn write of the current snapshot.
    let main = ck_dir.join("checkpoint.json");
    let mut text = std::fs::read_to_string(&main).unwrap();
    text.truncate(text.len() / 2);
    std::fs::write(&main, text).unwrap();
    let fallback = load_checkpoint(&ck_dir).unwrap();
    assert_eq!(fallback.iteration, 4, "torn current must fall back to prev");

    let resumed = train_spec(
        &spec,
        &TrainOptions {
            resume_from: Some(ck_dir.clone()),
            ..TrainOptions::default()
        },
    )
    .unwrap();
    assert!(resumed.completed);
    assert_eq!(resumed.outcome.iterations, total);
    assert_eq!(
        resumed.agent.to_json(),
        full.agent.to_json(),
        "resume from the previous snapshot must still converge to the \
         identical artifact"
    );
    let _ = std::fs::remove_dir_all(&ck_dir);
}

/// A checkpoint whose agent's shapes are inconsistent — a weight
/// matrix one value short, which the derived decoder accepts — is as
/// unreadable as a torn one: `load_checkpoint` falls back to the
/// previous snapshot, and with none left `--resume` is a typed error
/// naming the disagreement instead of a panic at the first rollout.
#[test]
fn checkpoint_with_inconsistent_agent_is_refused() {
    let spec = tiny_spec("resume-hostile");
    let ck_dir = tmp_dir("hostile-ck");
    let resume = TrainOptions {
        resume_from: Some(ck_dir.clone()),
        ..TrainOptions::default()
    };
    train_spec(
        &spec,
        &TrainOptions {
            checkpoint_dir: Some(ck_dir.clone()),
            max_iters: Some(4),
            ..TrainOptions::default()
        },
    )
    .unwrap();
    let mut ck = load_checkpoint(&ck_dir).unwrap();
    assert_eq!(ck.iteration, 4);
    ck.agent.ppo.policy.net.main.layers[0].w.data.pop();
    let (main, prev) = (
        ck_dir.join("checkpoint.json"),
        ck_dir.join("checkpoint.prev.json"),
    );
    std::fs::write(&main, serde_json::to_string(&ck).unwrap()).unwrap();
    assert_eq!(load_checkpoint(&ck_dir).unwrap().iteration, 2);
    assert!(train_spec(&spec, &resume).unwrap().completed);

    std::fs::copy(&main, &prev).unwrap();
    let err = train_spec(&spec, &resume).map(|_| ()).unwrap_err();
    assert!(
        err.to_string()
            .contains("policy.main layer 0: a 46x64 weight matrix holds 2943 values"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&ck_dir);
}

/// A trained zoo model registers as a scheme and drives a spec-file
/// experiment through the custom-registry entry point.
#[test]
fn zoo_model_runs_as_registry_scheme() {
    let spec = tiny_spec("resume-zoo");
    let run = train_spec(&spec, &TrainOptions::default()).unwrap();
    let zoo = tmp_dir("zoo-scheme");
    save_trained(&zoo, &spec, &run.agent, run.outcome.iterations).unwrap();

    let reg = zoo_registry(&zoo).unwrap();
    assert!(reg.names().contains(&"resume-zoo"));

    let mut matrix = SweepSpec::single_cell();
    matrix.bandwidth_mbps = vec![4.0];
    matrix.duration_s = 8;
    let exp = ExperimentSpec::from_sweep("zoo-deploy", reg.parse("resume-zoo").unwrap(), &matrix);
    let opts = RunOptions {
        registry: Some(&reg),
        ..RunOptions::default()
    };
    let (report, _) = run_experiment_with(&SweepRunner::with_threads(1), &exp, opts).unwrap();
    assert_eq!(report.cells.len(), 1);
    let cell = &report.cells[0];
    assert!(
        cell.utilization.is_finite() && cell.utilization > 0.0,
        "zoo scheme must move traffic (utilization {})",
        cell.utilization
    );
    let _ = std::fs::remove_dir_all(&zoo);
}

/// Trains the cross-process spec, writing a mid-run checkpoint and the
/// final zoo artifact under `out`. Returns the artifact path.
fn produce_artifacts(out: &std::path::Path) -> PathBuf {
    let spec = tiny_spec("resume-xproc");
    train_spec(
        &spec,
        &TrainOptions {
            checkpoint_dir: Some(out.join("ck")),
            max_iters: Some(4),
            ..TrainOptions::default()
        },
    )
    .unwrap();
    let run = train_spec(&spec, &TrainOptions::default()).unwrap();
    save_trained(&out.join("zoo"), &spec, &run.agent, run.outcome.iterations).unwrap()
}

/// Checkpoint and model artifacts are byte-identical across *processes*,
/// not just across runs in one process: a child re-invocation of this
/// test binary produces the same bytes the parent does. This is the
/// guard against process-randomized state sneaking into artifacts (the
/// failure mode of hash-map-keyed optimizer moments, which seeded
/// iteration order per process).
#[test]
fn checkpoint_bytes_identical_across_processes() {
    if let Ok(out) = std::env::var("MOCC_TRAIN_CHILD") {
        produce_artifacts(&PathBuf::from(out));
        return;
    }

    let parent_out = tmp_dir("xproc-parent");
    let artifact = produce_artifacts(&parent_out);

    let child_out = tmp_dir("xproc-child");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["checkpoint_bytes_identical_across_processes", "--exact"])
        .env("MOCC_TRAIN_CHILD", &child_out)
        .status()
        .unwrap();
    assert!(status.success(), "child training process failed");

    let ck_rel = "ck/checkpoint.json";
    assert_eq!(
        std::fs::read(parent_out.join(ck_rel)).unwrap(),
        std::fs::read(child_out.join(ck_rel)).unwrap(),
        "checkpoint bytes must not depend on the producing process"
    );
    let artifact_rel = artifact.strip_prefix(&parent_out).unwrap();
    assert_eq!(
        std::fs::read(&artifact).unwrap(),
        std::fs::read(child_out.join(artifact_rel)).unwrap(),
        "model artifact bytes must not depend on the producing process"
    );
    for d in [parent_out, child_out] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Trains `spec` from scratch with checkpoints and saves it into a zoo,
/// then requires the SHA-256 of `model.json` and of the final
/// `checkpoint.json` (Adam moments included) to be the literals.
fn assert_trained_bytes(spec: &TrainSpec, tag: &str, model_sha: &str, checkpoint_sha: &str) {
    let ck_dir = tmp_dir(&format!("{tag}-ck"));
    let run = train_spec(
        spec,
        &TrainOptions {
            checkpoint_dir: Some(ck_dir.clone()),
            ..TrainOptions::default()
        },
    )
    .unwrap();
    let zoo = tmp_dir(&format!("{tag}-zoo"));
    let model = save_trained(&zoo, spec, &run.agent, run.outcome.iterations).unwrap();
    let digest = |p: &std::path::Path| sha256_hex(&std::fs::read(p).unwrap());
    assert_eq!(digest(&model), model_sha, "{tag}: model.json moved");
    assert_eq!(
        digest(&ck_dir.join("checkpoint.json")),
        checkpoint_sha,
        "{tag}: final checkpoint.json moved"
    );
    for d in [ck_dir, zoo] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Absolute trained bytes: the shipped `train_smoke.json` (two lockstep
/// envs, so its rollouts run the fast tier) must leave exactly this zoo
/// model and this final checkpoint (Adam moments included). The other
/// tests here compare runs with each other; this one pins the learner
/// to literals, so a kernel or optimizer change that moves a bit fails
/// even when it moves it identically on every run.
#[test]
fn train_smoke_model_and_checkpoint_match_the_pinned_digests() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs/train_smoke.json");
    assert_trained_bytes(
        &TrainSpec::load(&path).unwrap(),
        "pinned",
        "0f008d7142188dc515ffebb8de8ee316cfe9c9ec88f5b99bbe6194513970f52a",
        "dbd887d2526d93739685536c4ed613b7d8314d41eafeb190c89384b950fe0c14",
    );
}

/// The second absolute pin, on the paths `train_smoke` leaves out: one
/// env per rollout (so collection runs the exact tier too), contrast
/// iterations whose update sees n = 2 × 100 samples (n / 64 is not
/// whole, so every epoch ends on a short minibatch), and a critic
/// whose hidden pre-activations reach |x| ≈ 4 by the last update, so
/// `tanh` runs both of its branches on both sides of |x| = 1. The
/// literals were read from `mocc train` on this spec written as JSON,
/// then `sha256sum` of `model.json` and `checkpoints/checkpoint.json`.
#[test]
fn single_env_contrast_run_matches_the_pinned_digests() {
    let spec = TrainSpec {
        name: "train-pin".to_string(),
        seed: 5,
        omega_step: Some(4),
        boot_iters: Some(2),
        traverse_iters: Some(1),
        traverse_cycles: Some(1),
        rollout_steps: Some(100),
        episode_mis: Some(50),
        batch_envs: 1,
        checkpoint_every: 3,
        eval_episodes: 1,
        ..TrainSpec::default()
    };
    assert_trained_bytes(
        &spec,
        "pin-single",
        "53c4f35333c30706ff6f91343a40a86238c349c2e9c30b1b2b3ade159e6e16f0",
        "deef6b981a343695635dfb05bd628eb1f417e2da9bb80809b7136aaacfc86acc",
    );
}

/// Dropping `resume_from` into a foreign spec's checkpoint directory is
/// refused (digest mismatch), so a zoo run can't silently continue the
/// wrong training.
#[test]
fn resume_refuses_checkpoint_from_different_spec() {
    let spec_a = tiny_spec("resume-a");
    let ck_dir = tmp_dir("foreign-ck");
    train_spec(
        &spec_a,
        &TrainOptions {
            checkpoint_dir: Some(ck_dir.clone()),
            max_iters: Some(2),
            ..TrainOptions::default()
        },
    )
    .unwrap();

    let mut spec_b = tiny_spec("resume-b");
    spec_b.seed = 12;
    let err = match train_spec(
        &spec_b,
        &TrainOptions {
            resume_from: Some(ck_dir.clone()),
            ..TrainOptions::default()
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("resume against a foreign digest must fail"),
    };
    assert!(
        err.to_string().contains("digest"),
        "error must name the digest mismatch: {err}"
    );
    let _ = std::fs::remove_dir_all(&ck_dir);
}
