//! Figure 1 — motivation experiments.
//!
//! (a) Learning-based CC tracks a varying 20–30 Mbps link better than
//!     hand-crafted CUBIC/Vegas (Orca setup: 20 ms OWD, 0.02 % loss).
//! (b) Each scheme occupies one point of the throughput/latency plane;
//!     MOCC spans the frontier by changing its weight vector.
//! (c) Re-training Aurora from scratch for a new objective takes a long
//!     time to converge (the motivation for MOCC's transfer learning).

use super::{header, mean_over, row, run_flows, Scheme, HEURISTICS};
use crate::timing::Stopwatch;
use mocc_core::{convergence_iter, AuroraAgent, MoccConfig, Preference};
use mocc_netsim::{BandwidthTrace, Scenario, ScenarioRange};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn varying_link_scenario(dur_s: u64) -> Scenario {
    let mut sc = Scenario::single(30e6, 20, 800, 0.0002, dur_s);
    sc.link.trace = BandwidthTrace::square_wave(20e6, 30e6, 10.0, dur_s as f64);
    sc
}

/// Prints Figure 1.
pub fn run() -> Result<(), String> {
    println!("== Figure 1(a): throughput on a varying 20-30 Mbps link ==");
    println!("(per-10s mean delivered Mbps; link alternates 20/30 Mbps)");
    let schemes = [
        Scheme::baseline("cubic")?,
        Scheme::baseline("vegas")?,
        Scheme::aurora("thr")?,
        Scheme::baseline("orca")?,
        Scheme::mocc(Preference::throughput())?,
    ];
    let buckets = 5usize;
    let spans: Vec<String> = (0..buckets)
        .map(|b| format!("{}-{}s", b * 10, (b + 1) * 10))
        .collect();
    header("scheme", &spans, 10);
    let mut best = (String::new(), f64::MIN);
    for s in &schemes {
        let f = run_flows(vec![s.make(6e6)], varying_link_scenario(50)).swap_remove(0);
        let per_bucket: Vec<f64> = (0..buckets)
            .map(|b| mean_over(&f.per_sec_mbits, b * 10, (b + 1) * 10))
            .collect();
        row(&s.label(), &per_bucket, 10, 2);
        if f.throughput_bps / 1e6 >= best.1 {
            best = (s.label(), f.throughput_bps / 1e6);
        }
    }

    println!("\n== Figure 1(b): throughput-latency plane (60 s runs, 5 seeds) ==");
    header("scheme", &["thr Mbps", "rtt ms"], 12);
    let mut plane_schemes = Scheme::baselines(&HEURISTICS)?;
    plane_schemes.extend([
        Scheme::aurora("thr")?,
        Scheme::aurora("lat")?,
        Scheme::baseline("orca")?,
        Scheme::mocc(Preference::throughput())?,
        Scheme::mocc(Preference::balanced())?,
        Scheme::mocc(Preference::latency())?,
    ]);
    for s in &plane_schemes {
        let (mut thr, mut rtt) = (0.0, 0.0);
        let seeds = 5u64;
        for seed in 0..seeds {
            let mut sc = varying_link_scenario(60);
            sc.seed = 100 + seed;
            let f = run_flows(vec![s.make(6e6)], sc).swap_remove(0);
            thr += f.throughput_bps / 1e6 / seeds as f64;
            rtt += f.mean_rtt_ms / seeds as f64;
        }
        row(&s.label(), &[thr, rtt], 12, 2);
    }

    println!("\n== Figure 1(c): Aurora re-training from scratch ==");
    let iters = 250;
    let mut rng = StdRng::seed_from_u64(5);
    let mut aurora = AuroraAgent::new(MoccConfig::default(), Preference::latency(), &mut rng);
    let t0 = Stopwatch::start();
    let curve = aurora.train(ScenarioRange::training(), iters, 5);
    let smooth: Vec<f32> = curve
        .windows(10)
        .map(|w| w.iter().sum::<f32>() / w.len() as f32)
        .collect();
    let conv = convergence_iter(&smooth, 0.99);
    println!(
        "training iterations: {iters}, wall: {:.1}s",
        t0.elapsed_secs()
    );
    println!(
        "convergence (99% of max gain) at iteration: {:?} (paper: Aurora takes ~1.2 h wall-clock at full scale)",
        conv
    );
    for (i, r) in curve.iter().enumerate().step_by(iters / 10) {
        println!("  iter {i:>4}: reward {r:.3}");
    }

    println!(
        "\nsummary: best mean throughput on varying link = {} ({:.2} Mbps)",
        best.0, best.1
    );
    Ok(())
}
