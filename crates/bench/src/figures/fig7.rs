//! Figure 7 — quick adaptation to a new application.
//!
//! (a) A new, unseen preference arrives. MOCC adapts online from its
//!     offline correlation model (higher initial reward, converges in
//!     far fewer iterations); Aurora re-trains from scratch.
//! (b) While adapting, MOCC's requirement replay preserves the old
//!     application's reward; Aurora's fine-tuning forgets it.

use super::{trained_aurora, trained_mocc};
use crate::timing::Stopwatch;
use mocc_core::{convergence_iter, AuroraAgent, MoccConfig, OnlineAdapter, Preference};
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
    let mut adapter = OnlineAdapter::new(trained_mocc()?.clone(), vec![old_pref], 11);
    let t0 = Stopwatch::start();
    let mocc_curve = adapter.adapt(
        new_pref,
        range,
        iters,
        true,
        Some((old_pref, eval_sc.clone(), eval_every)),
    );
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
    let mut aurora_old_curve = Vec::new();
    for i in 0..iters {
        let c = aurora_old.train(range, 1, 400 + i as u64);
        if i % eval_every == 0 {
            let old_r = aurora_old.evaluate_for(old_pref, eval_sc.clone(), 1);
            aurora_old_curve.push((i, c[0], old_r));
        }
    }

    println!("\n-- (a) reward vs iteration (new application) --");
    println!("{:<6}{:>12}{:>12}", "iter", "mocc", "aurora");
    for i in (0..iters).step_by(eval_every) {
        println!(
            "{:<6}{:>12.3}{:>12.3}",
            i, mocc_curve[i].new_reward, aurora_curve[i]
        );
    }

    let mocc_rewards: Vec<f32> = mocc_curve.iter().map(|p| p.new_reward).collect();
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
        "{:<6}{:>14}{:>14}",
        "iter", "mocc old-app", "aurora old-app"
    );
    let mocc_old: Vec<(usize, f32)> = mocc_curve
        .iter()
        .filter_map(|p| p.old_reward.map(|r| (p.iter, r)))
        .collect();
    for (k, &(i, _new, aur_old)) in aurora_old_curve.iter().enumerate() {
        let mocc_o = mocc_old.get(k).map(|&(_, r)| r).unwrap_or(f32::NAN);
        println!("{i:<6}{mocc_o:>14.3}{aur_old:>14.3}");
    }
    if let (Some(first), Some(last)) = (mocc_old.first(), mocc_old.last()) {
        println!(
            "\nmocc old-app reward: {:.3} -> {:.3} ({:+.1}% change; paper: <5% loss)",
            first.1,
            last.1,
            (last.1 - first.1) / first.1.max(1e-6) * 100.0
        );
    }
    if let (Some(first), Some(last)) = (aurora_old_curve.first(), aurora_old_curve.last()) {
        println!(
            "aurora old-app reward: {:.3} -> {:.3} (paper: 916 -> 156, severe forgetting)",
            first.2, last.2
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
