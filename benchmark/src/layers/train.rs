//! Replay of `mocc train <spec> --zoo <dir>`: the fresh-run path of
//! `mocc_core::train_spec` and `save_trained`, one span per
//! iteration, with rollout collection, the PPO update, checkpoint
//! writes and the zoo save each under a span of their own.
//!
//! The schedule driver and the body of an iteration are private to
//! `mocc-core`, so they are restated here from the public functions
//! they call; the model this replay produces must equal, byte for
//! byte, the one `train_spec` produces.

use super::*;
use mocc_core::{
    build_schedule, final_eval, load_checkpoint, save_trained, train_spec, write_checkpoint,
    MoccAgent, MoccEnv, Preference, TrainCheckpoint, TrainOptions, TrainSpec,
};
use mocc_netsim::ScenarioRange;
use mocc_nn::{Adam, ForwardTier, Matrix, Network};
use mocc_rl::{collect_rollouts_batched_tier, BatchRolloutScratch, Env, Rollout};
use mocc_store::sha256_hex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One PPO iteration, as `mocc_core::train_iteration_contrast` runs it.
fn iteration(
    t: &mut Tracer,
    agent: &mut MoccAgent,
    pref: Preference,
    contrast: Option<Preference>,
    range: ScenarioRange,
    it: usize,
    rng: &mut StdRng,
) -> f32 {
    agent.ppo.cfg.entropy_coef = agent.cfg.entropy_at(it);
    let cfg = agent.cfg;
    let steps = cfg.rollout_steps;
    let n_envs = cfg.parallel_envs.max(1);
    let seed = rng.gen::<u64>();
    let mut rollouts: Vec<Rollout> = t.span_over("rl.rollout", RL, steps as u64, None, |_| {
        if n_envs > 1 {
            let per_env = (steps / n_envs).max(20);
            let mut envs: Vec<MoccEnv> = (0..n_envs)
                .map(|i| MoccEnv::training(cfg, pref, range, seed.wrapping_add(i as u64)))
                .collect();
            let mut refs: Vec<&mut dyn Env> = envs.iter_mut().map(|e| e as &mut dyn Env).collect();
            collect_rollouts_batched_tier(
                &agent.ppo.policy,
                &agent.ppo.value,
                &mut refs,
                per_env,
                rng,
                &mut BatchRolloutScratch::default(),
                ForwardTier::Fast,
            )
        } else {
            let mut env = MoccEnv::training(cfg, pref, range, seed);
            vec![agent.ppo.collect_rollout(&mut env, steps, rng)]
        }
    });
    let reward = rollouts[0].mean_reward();
    if let Some(other) = contrast {
        rollouts.push(t.span_over("rl.rollout", RL, steps as u64, None, |_| {
            let mut env = MoccEnv::training(cfg, other, range, seed.wrapping_add(1000));
            agent.ppo.collect_rollout(&mut env, steps, rng)
        }));
    }
    t.span("rl.ppo_update", RL, None, |_| {
        agent.ppo.update(&rollouts, rng)
    });
    reward
}

/// Trains `spec` from scratch, checkpointing into `zoo/<name>/
/// checkpoints` and saving into `zoo`, as `mocc train` does. Returns
/// the model's JSON.
fn train(t: &mut Tracer, json: &str, zoo: &Path) -> String {
    t.span("replay", crate::trace::HARNESS, None, |t| {
        t.set_doc(&sha256_hex(json.as_bytes()));
        let spec = t.span("core.trainspec.parse", CORE_TRAINER, None, |_| {
            let spec = TrainSpec::from_json(json).expect("generated spec parses");
            spec.validate().expect("generated spec validates");
            spec
        });
        let cfg = spec.resolved_config().expect("validated spec resolves");
        let range = spec.scenario_range().expect("validated spec resolves");
        let digest = spec.digest();
        let (points, schedule) = build_schedule(&cfg, spec.regime);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut agent = MoccAgent::new(cfg, &mut rng);
        let checkpoints = zoo.join(&spec.name).join("checkpoints");
        let mut curve = Vec::new();
        for (it, step) in schedule.iter().enumerate() {
            t.span("core.trainer.iteration", CORE_TRAINER, None, |t| {
                let contrast = step
                    .contrast
                    .then(|| points[rng.gen_range(0..points.len())]);
                let reward = iteration(
                    t,
                    &mut agent,
                    points[step.pref_idx],
                    contrast,
                    range,
                    it,
                    &mut rng,
                );
                curve.push(reward);
            });
            let done = it + 1;
            let due = spec.checkpoint_every > 0 && done % spec.checkpoint_every == 0;
            if due || done == schedule.len() {
                t.span("core.trainer.checkpoint_write", CORE_TRAINER, None, |_| {
                    let checkpoint = TrainCheckpoint {
                        version: 1,
                        spec_digest: digest.clone(),
                        iteration: done,
                        rng_state: rng.state().to_vec(),
                        curve: curve.clone(),
                        agent: agent.clone(),
                    };
                    write_checkpoint(&checkpoints, &checkpoint).expect("checkpoint writes")
                });
            }
        }
        t.span("core.zoo.save", CORE_ZOO, None, |_| {
            save_trained(zoo, &spec, &agent, curve.len()).expect("zoo entry writes")
        });
        agent.to_json()
    })
}

/// `nn.backward_us_per_batch` and `nn.adam_ns_per_param`: one
/// minibatch of the PPO update's size through the actor's backward
/// pass, and one Adam step over all its parameters.
fn nn_metrics(agent: &MoccAgent, m: &mut Metrics) {
    let mut net = agent.ppo.policy.net.clone();
    let batch = agent.ppo.cfg.minibatch.max(1);
    let x = Matrix::from_fn(batch, net.in_dim(), |r, c| {
        ((r * 31 + c * 7) % 13) as f32 / 13.0
    });
    let grad = Matrix::from_fn(batch, 1, |r, _| (r % 5) as f32 / 5.0 - 0.4);
    let cache = net.forward_batch(&x);
    let s = per_call(200, || {
        net.zero_grad();
        std::hint::black_box(net.backward(&cache, &grad));
    });
    m.set("nn.backward_us_per_batch", s * 1e6);

    let mut params = 0;
    net.for_each_param(|_, p, _| params += p.len());
    let mut adam = Adam::new(1e-3);
    let s = per_call(200, || {
        adam.begin_step();
        net.for_each_param(|slot, p, g| adam.update_slot(slot, p, g));
    });
    m.set("nn.adam_ns_per_param", s * 1e9 / params as f64);
}

/// `rl.env_step_us` and `rl.gae_us_per_1k_steps` on the training
/// environment and a rollout collected from it.
fn rl_metrics(agent: &MoccAgent, spec: &TrainSpec, m: &mut Metrics) {
    let range = spec.scenario_range().expect("validated spec resolves");
    let mut env = MoccEnv::training(agent.cfg, Preference::balanced(), range, spec.seed);
    env.reset();
    let steps = 2000;
    let (s, ()) = timed(|| {
        for i in 0..steps {
            let (_, _, done) = env.step(((i % 7) as f32 - 3.0) / 10.0);
            if done {
                env.reset();
            }
        }
    });
    m.set("rl.env_step_us", s * 1e6 / steps as f64);

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let rollout = agent.ppo.collect_rollout(&mut env, 1000, &mut rng);
    let (gamma, lam) = (agent.ppo.cfg.gamma, agent.ppo.cfg.lam);
    let s = per_call(200, || {
        std::hint::black_box(rollout.gae(gamma, lam));
    });
    m.set("rl.gae_us_per_1k_steps", s * 1e6);
}

/// The traced side of `train_offline`.
pub fn run(work: &Path, seed: u64, m: &mut Metrics, checks: &mut Checks) -> io::Result<Passes> {
    let doc = gen::train_offline(seed);
    let mut tracer = Tracer::new(true);
    let traced_zoo = work.join("zoo-traced");
    let (traced_s, traced) = timed(|| train(&mut tracer, &doc.json, &traced_zoo));
    let (untraced_s, untraced) = timed(|| {
        train(
            &mut Tracer::new(false),
            &doc.json,
            &work.join("zoo-untraced"),
        )
    });

    // The library entry points behind `mocc train`.
    let spec = TrainSpec::from_json(&doc.json).expect("generated spec parses");
    let library_zoo = work.join("zoo-library");
    let options = TrainOptions {
        checkpoint_dir: Some(library_zoo.join(&spec.name).join("checkpoints")),
        ..TrainOptions::default()
    };
    let run = train_spec(&spec, &options).map_err(|e| io::Error::other(e.to_string()))?;
    let model_path = save_trained(&library_zoo, &spec, &run.agent, run.outcome.iterations)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let reference = std::fs::read_to_string(model_path)?;
    let mut faults = Vec::new();
    for (what, model) in [("traced", &traced), ("untraced", &untraced)] {
        if *model != reference {
            faults.push(format!("{what} replay's model differs from train_spec's"));
        }
    }
    let file = |zoo: &Path, name: &str| std::fs::read(zoo.join(&spec.name).join(name));
    for name in [
        "model.json",
        "provenance.json",
        "checkpoints/checkpoint.json",
    ] {
        if file(&traced_zoo, name)? != file(&library_zoo, name)? {
            faults.push(format!("replay's {name} differs from the library's"));
        }
    }
    checks.operation("replay of one training run", faults);

    let t = &tracer;
    let (rollout_ns, steps) = t.total("rl.rollout");
    m.set(
        "rl.rollout_steps_per_s",
        steps as f64 * 1e9 / rollout_ns as f64,
    );
    m.per_item("rl.ppo_update_ms", t, "rl.ppo_update", 1e6);
    m.per_item(
        "core.trainer.iteration_ms",
        t,
        "core.trainer.iteration",
        1e6,
    );
    m.per_item(
        "core.trainer.checkpoint_write_ms",
        t,
        "core.trainer.checkpoint_write",
        1e6,
    );
    m.per_item("core.zoo.save_ms", t, "core.zoo.save", 1e6);
    let checkpoints = traced_zoo.join(&spec.name).join("checkpoints");
    m.set(
        "core.trainer.checkpoint_bytes",
        std::fs::metadata(checkpoints.join("checkpoint.json"))?.len() as f64,
    );
    let (load_s, loaded) = timed(|| load_checkpoint(&checkpoints));
    loaded.map_err(|e| io::Error::other(e.to_string()))?;
    m.set("core.trainer.checkpoint_load_ms", load_s * 1e3);
    m.set(
        "core.zoo.final_eval_ms",
        timed(|| final_eval(&run.agent, spec.eval_episodes)).0 * 1e3,
    );
    nn_metrics(&run.agent, m);
    rl_metrics(&run.agent, &spec, m);

    Ok(Passes {
        tracer,
        traced_s,
        untraced_s,
        digest: sha256_hex(reference.as_bytes()),
    })
}
