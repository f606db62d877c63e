//! Figure 19 — training-speedup techniques.
//!
//! Compares wall-clock time of the three training regimes at equal
//! model quality targets: individual per-objective training, two-phase
//! neighborhood transfer, and transfer plus parallel rollout
//! collection. The paper reports 18× from transfer and a further 4×
//! from parallelism (Ray); our parallel factor is bounded by the
//! machine's cores.

use super::train_mocc;
use mocc_core::{TrainRegime, TrainSpec};

/// Prints Figure 19.
pub fn run() -> Result<(), String> {
    let full = crate::full_scale();
    // A reduced-but-proportional budget: individual training gives each
    // of the ω landmarks the full bootstrap budget; transfer gives it
    // only to the 3 pivots plus a few traversal iterations per landmark.
    let base = TrainSpec {
        seed: 7,
        config: "default".to_string(),
        omega_step: Some(if full { 10 } else { 6 }), // ω = 36 or 10
        boot_iters: Some(if full { 100 } else { 40 }),
        traverse_iters: Some(2),
        traverse_cycles: Some(2),
        rollout_steps: Some(200),
        episode_mis: Some(200),
        // One env per rollout; the third row sets `batch_envs` to 4
        // lockstep envs, which is the parallelism comparison.
        batch_envs: 1,
        ..TrainSpec::default()
    };
    let cfg = base.resolved_config().map_err(|e| e.to_string())?;

    println!(
        "== Figure 19: training time by regime (omega = {}) ==",
        mocc_core::landmark_count(cfg.omega_step)
    );
    let mut results = Vec::new();
    for (name, regime, batch_envs) in [
        ("individual", TrainRegime::Individual, 1),
        ("transfer", TrainRegime::Transfer, 1),
        ("transfer+parallel", TrainRegime::Transfer, 4),
    ] {
        let spec = TrainSpec {
            name: format!("fig19-{}-x{batch_envs}", mocc_core::regime_label(regime)),
            regime,
            batch_envs,
            ..base.clone()
        };
        let run = train_mocc(&spec)?;
        println!(
            "{name:<20} {:>7} iterations {:>9.1} s wall",
            run.outcome.iterations, run.outcome.wall_secs
        );
        results.push((name, run.outcome.wall_secs));
    }
    let individual = results[0].1;
    for (name, wall) in &results[1..] {
        println!(
            "speedup {name:<20} {:>6.1}x over individual",
            individual / wall.max(1e-9)
        );
    }
    println!("(paper: transfer 18x — 6d7.2h -> 8.4h — and parallel a further 4x -> 2.1h;");
    println!(" our parallel gain is rollout-collection only and bounded by core count)");
    Ok(())
}
