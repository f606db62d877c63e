//! The full multi-objective pipeline on a trimmed budget: two-phase
//! offline training over landmark objectives, then online adaptation to
//! an unseen preference with requirement replay.
//!
//! ```text
//! cargo run --release --example multi_objective
//! ```

use mocc::core::{convergence_iter, evaluate, ppo_iteration, Preference, TrainOptions, TrainSpec};
use mocc::netsim::{Scenario, ScenarioRange};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Trimmed two-phase offline training, declared as a TrainSpec:
    // ω = 10 landmarks (simplex step 1/6), short bootstrap, two
    // traversal cycles — the same document `mocc train` executes.
    let spec = TrainSpec {
        name: "multi-objective-demo".to_string(),
        seed: 7,
        config: "default".to_string(),
        omega_step: Some(6),
        boot_iters: Some(40),
        traverse_iters: Some(2),
        traverse_cycles: Some(2),
        rollout_steps: Some(200),
        episode_mis: Some(200),
        ..TrainSpec::default()
    };
    let cfg = spec.resolved_config().expect("demo spec is valid");
    println!(
        "offline training over {} landmark objectives...",
        mocc::core::landmark_count(cfg.omega_step)
    );
    let run = mocc::core::train_spec(&spec, &TrainOptions::default()).expect("demo spec is valid");
    println!(
        "  {} iterations in {:.1}s (bootstrap 3 pivots + neighborhood traversal)",
        run.outcome.iterations, run.outcome.wall_secs
    );
    let mut agent = run.agent;

    // A new application with an unforeseen requirement arrives. Each
    // online iteration is the offline trainer's own PPO step, with the
    // served application as the contrast preference: requirement
    // replay (the Eq. 6 loss) over a one-preference pool.
    let new_pref = Preference::new(0.3, 0.55, 0.15);
    let old_pref = Preference::new(0.67, 0.17, 0.17); // A served landmark.
    println!("\nadapting online to unseen preference <0.30,0.55,0.15>...");
    let mut rng = StdRng::seed_from_u64(11);
    let eval_sc = Scenario::single(4e6, 20, 600, 0.0, 120);
    let (range, replay) = (ScenarioRange::training(), Some(old_pref));
    let mut rewards = Vec::new();
    for iter in 0..30 {
        let (ppo, cfg) = (&mut agent.ppo, &agent.cfg);
        rewards.push(ppo_iteration(ppo, cfg, new_pref, replay, range, &mut rng));
        let line = format!("  iter {iter:>3}: new-app reward {:.3}", rewards[iter]);
        if iter % 10 == 0 {
            let old = evaluate(ppo, cfg, old_pref, eval_sc.clone(), 1);
            println!("{line}   old-app eval {old:.3}");
        } else if iter % 5 == 0 {
            println!("{line}");
        }
    }
    println!(
        "\nconvergence (95% of max gain) at iteration {:?}",
        convergence_iter(&rewards, 0.95)
    );
}
