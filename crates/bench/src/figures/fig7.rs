//! Figure 7 — quick adaptation to a new application.
//!
//! (a) A new, unseen preference arrives. MOCC adapts online from its
//!     offline correlation model (higher initial reward, converges in
//!     far fewer iterations); Aurora re-trains from scratch.
//! (b) While adapting, MOCC's requirement replay preserves the old
//!     application's reward; Aurora's fine-tuning forgets it.
//!
//! MOCC adapts through the offline trainer's own step
//! ([`ppo_iteration`]) with the old application as the contrast
//! preference — the replay loss of Eq. 6 with a one-preference pool —
//! on the offline model's envs and entropy coefficient.

use super::{trained_aurora, trained_mocc};
use crate::timing::Stopwatch;
use mocc_core::{convergence_iter, evaluate, ppo_iteration, AuroraAgent, MoccConfig, Preference};
use mocc_netsim::{Scenario, ScenarioRange};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Prints Figure 7.
pub fn run() -> Result<(), String> {
    let iters = if crate::full_scale() { 400 } else { 240 };
    let eval_every = 8usize; // The paper snapshots every 8 iterations.

    // The "new application": an off-lattice preference never used as a
    // landmark; the "old application": the throughput objective.
    let new_pref = Preference::new(0.25, 0.55, 0.20);
    let old_pref = Preference::throughput();
    let range = ScenarioRange::training();
    let eval_sc = Scenario::single(4e6, 20, 800, 0.0, 240);

    println!("== Figure 7(a/b): online adaptation to new preference <0.25,0.55,0.20> ==");

    // --- MOCC: transfer + requirement replay ---
    let mut mocc = trained_mocc()?.clone();
    let mut rng = StdRng::seed_from_u64(11);
    let t0 = Stopwatch::start();
    let (mut mocc_rewards, mut mocc_old) = (Vec::with_capacity(iters), Vec::new());
    for i in 0..iters {
        let (ppo, cfg, replay) = (&mut mocc.ppo, &mocc.cfg, Some(old_pref));
        mocc_rewards.push(ppo_iteration(ppo, cfg, new_pref, replay, range, &mut rng));
        if i % eval_every == 0 {
            mocc_old.push(evaluate(ppo, cfg, old_pref, eval_sc.clone(), 1));
        }
    }
    let mocc_wall = t0.elapsed_secs();

    // --- Aurora: from scratch on the new objective ---
    let mut rng = StdRng::seed_from_u64(3);
    let mut aurora = AuroraAgent::new(MoccConfig::default(), new_pref, &mut rng);
    let t1 = Stopwatch::start();
    let aurora_curve = aurora.train(range, iters, 3);
    let aurora_wall = t1.elapsed_secs();

    // --- Aurora forgetting: fine-tune the *old* thr model to the new
    // objective and watch the old objective's reward collapse ---
    let mut aurora_old = trained_aurora("thr")?.clone();
    aurora_old.pref = new_pref; // Its reward function switches.
    let mut aurora_old_rewards = Vec::new();
    for i in 0..iters {
        let _ = aurora_old.train(range, 1, 400 + i as u64);
        if i % eval_every == 0 {
            let (ppo, cfg) = (&aurora_old.ppo, &aurora_old.cfg);
            aurora_old_rewards.push(evaluate(ppo, cfg, old_pref, eval_sc.clone(), 1));
        }
    }

    println!("\n-- (a) reward vs iteration (new application) --");
    println!("{:<6}{:>12}{:>12}", "iter", "mocc", "aurora");
    for i in (0..iters).step_by(eval_every) {
        println!("{:<6}{:>12.3}{:>12.3}", i, mocc_rewards[i], aurora_curve[i]);
    }

    let mocc_conv = convergence_iter(&smooth(&mocc_rewards), 0.95).unwrap_or(iters);
    let aurora_conv = convergence_iter(&smooth(&aurora_curve), 0.95).unwrap_or(iters);
    let head = |xs: &[f32]| xs.iter().take(5).sum::<f32>() / 5.0;
    println!(
        "\ninitial reward (first 5 iters): mocc {:.3} vs aurora {:.3} ({:.2}x; paper reports 1.8x)",
        head(&mocc_rewards),
        head(&aurora_curve),
        head(&mocc_rewards) / head(&aurora_curve).max(1e-6)
    );
    println!(
        "convergence (95% of max gain): mocc iter {} vs aurora iter {}",
        mocc_conv, aurora_conv
    );
    // The criterion that matches the paper's claim: iterations until a
    // scheme reaches 95% of the reward Aurora eventually plateaus at.
    // MOCC's offline correlation model typically starts above the bar.
    let aurora_smooth = smooth(&aurora_curve);
    let target = 0.95 * aurora_smooth.iter().cloned().fold(f32::MIN, f32::max);
    let mocc_smooth = smooth(&mocc_rewards);
    let hit = |xs: &[f32]| xs.iter().position(|&r| r >= target);
    let mocc_hit = hit(&mocc_smooth);
    let aurora_hit = hit(&aurora_smooth);
    println!(
        "iterations to reach 95% of Aurora's plateau ({target:.3}): mocc {:?} vs aurora {:?} ({} speedup; paper reports 14.2x)",
        mocc_hit,
        aurora_hit,
        match (mocc_hit, aurora_hit) {
            (Some(m), Some(a)) => format!("{:.1}x", a.max(1) as f32 / m.max(1) as f32),
            _ => "n/a".into(),
        }
    );
    println!("wall-clock: mocc {mocc_wall:.1}s, aurora {aurora_wall:.1}s");

    println!("\n-- (b) old application (thr preference) while adapting --");
    println!(
        "{:<6}{:>16}{:>16}",
        "iter", "mocc old-app", "aurora old-app"
    );
    for (k, (m, a)) in mocc_old.iter().zip(&aurora_old_rewards).enumerate() {
        println!("{:<6}{m:>16.3}{a:>16.3}", k * eval_every);
    }
    println!();
    for (scheme, rewards, paper) in [
        ("mocc", &mocc_old, "<5% loss"),
        (
            "aurora",
            &aurora_old_rewards,
            "916 -> 156, severe forgetting",
        ),
    ] {
        let Some((k, min)) = rewards.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)) else {
            continue;
        };
        let (first, last) = (rewards[0], rewards[rewards.len() - 1]);
        println!(
            "{scheme} old-app reward: {first:.3} -> {last:.3} ({:+.1}% change), minimum {min:.3} at iter {} (paper: {paper})",
            (last - first) / first.max(1e-6) * 100.0,
            k * eval_every
        );
    }
    Ok(())
}

fn smooth(xs: &[f32]) -> Vec<f32> {
    let w = 5usize.min(xs.len().max(1));
    xs.windows(w)
        .map(|win| win.iter().sum::<f32>() / win.len() as f32)
        .collect()
}
