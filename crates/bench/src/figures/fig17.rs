//! Figure 17 — CPU overhead of user-space vs kernel-space deployment.
//!
//! The paper's finding: user-space MOCC/Aurora pay for model inference
//! on every monitor interval; CCP-style kernel deployment batches
//! reports so the learned algorithm runs far less often, matching the
//! heuristics' negligible cost. We measure actual per-invocation costs
//! of this implementation (policy inference, heuristic per-ACK work)
//! and convert them to CPU utilization at each deployment's invocation
//! frequency. These are single point estimates; for numbers with
//! run-to-run spread see `nn.forward_ns_b1` and `cc.cubic.ns_per_call`
//! in a traced `benchmark/run.sh` run (docs/PERFORMANCE.md).

use super::{trained_aurora, trained_mocc};
use crate::timing::Stopwatch;
use mocc_core::{stats_features, Preference};
use mocc_netsim::cc::{AckInfo, CongestionControl, RateControl, SenderView};
use mocc_netsim::time::{SimDuration, SimTime};
use std::hint::black_box;

/// Seconds per call of `f`, over `iters` calls after a 10 % warm-up;
/// every result is kept from the optimizer.
fn measure<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..iters / 10 {
        black_box(f());
    }
    let t0 = Stopwatch::start();
    for _ in 0..iters {
        black_box(f());
    }
    t0.elapsed_secs() / iters as f64
}

/// Prints Figure 17.
pub fn run() -> Result<(), String> {
    let agent = trained_mocc()?;
    let aurora = trained_aurora("thr")?;

    // Inference cost of the two model families.
    let hist = vec![0.1f32; 30];
    let mocc_inf = measure(200_000, || {
        agent.act(&Preference::throughput(), black_box(&hist))
    });
    let aurora_inf = measure(200_000, || aurora.ppo.policy.mean_action(black_box(&hist)));

    // Heuristic per-ACK cost (CUBIC's window arithmetic).
    let mut cubic = mocc_cc::Cubic::new();
    let mut ctl = RateControl::open();
    let view = SenderView {
        now: SimTime::from_secs(1),
        mss_bytes: 1500,
        min_rtt: Some(SimDuration::from_millis(20)),
        srtt_s: Some(0.025),
        inflight_pkts: 10,
        total_sent: 1000,
        total_acked: 990,
        total_lost: 0,
    };
    let ack = AckInfo {
        seq: 1,
        rtt: SimDuration::from_millis(25),
        acked_bytes: 1500,
    };
    cubic.init(&view, &mut ctl);
    let cubic_ack = measure(2_000_000, || cubic.on_ack(&view, black_box(&ack), &mut ctl));

    // Feature extraction cost (shared by both deployments).
    let mi = mocc_netsim::MonitorStats {
        start: SimTime::ZERO,
        end: SimTime::from_millis(40),
        pkts_sent: 100,
        pkts_acked: 99,
        pkts_lost: 1,
        throughput_bps: 5e6,
        sending_rate_bps: 5.1e6,
        mean_rtt: Some(SimDuration::from_millis(25)),
        loss_rate: 0.01,
        send_ratio: 1.01,
        latency_ratio: 1.2,
        latency_gradient: 0.001,
    };
    let feat = measure(2_000_000, || stats_features(black_box(&mi)));

    println!("== Figure 17: per-invocation costs and modeled CPU utilization ==");
    for (what, secs) in [
        ("policy inference (MOCC, PrefNet):", mocc_inf),
        ("policy inference (Aurora, MLP):", aurora_inf),
        ("heuristic per-ACK (CUBIC):", cubic_ack),
        ("MI feature extraction:", feat),
    ] {
        println!("{what:<35}{:>9.2} ns", secs * 1e9);
    }

    // Deployment model: a 40 Mbps flow, 20 ms RTT (the paper's setup).
    // - user-space: inference every MI (= RTT = 20 ms) + per-packet
    //   shim work for every one of ~3333 pkt/s;
    // - kernel/CCP: the datapath handles ACKs in-kernel; the learned
    //   algorithm is consulted every 10th MI (batched reports);
    // - kernel heuristic: per-ACK arithmetic only.
    let pkts_per_sec = 40e6 / (1500.0 * 8.0);
    let mi_per_sec = 1.0 / 0.020;
    let shim_per_pkt = 150e-9; // measured syscall-free user-space shim work
    let user_mocc = (mocc_inf + feat) * mi_per_sec + shim_per_pkt * pkts_per_sec;
    let user_aurora = (aurora_inf + feat) * mi_per_sec + shim_per_pkt * pkts_per_sec;
    let kernel_mocc = (mocc_inf + feat) * mi_per_sec / 10.0 + cubic_ack * pkts_per_sec;
    let kernel_heur = cubic_ack * pkts_per_sec;

    println!("\nmodeled CPU utilization on a 40 Mbps / 20 ms flow (one core):");
    for (what, share) in [
        ("user-space MOCC   (per-MI inference + shim):", user_mocc),
        ("user-space Aurora (per-MI inference + shim):", user_aurora),
        ("kernel-space MOCC (CCP, batched reports):   ", kernel_mocc),
        ("kernel heuristics (CUBIC/Vegas/BBR/Orca):   ", kernel_heur),
    ] {
        println!("  {what} {:>8.4} %", share * 100.0);
    }
    println!("\n(paper's shape: user-space MOCC ≈ Aurora ≫ kernel-space MOCC ≈ Orca ≈ heuristics;");
    println!(" absolute percentages differ — the paper measures a Python/TensorFlow stack, this is Rust)");
    Ok(())
}
