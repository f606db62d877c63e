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

use mocc_bench::timing::Stopwatch;
use mocc_core::{stats_features, Preference};
use mocc_netsim::cc::{AckInfo, CongestionControl, RateControl, SenderView};
use mocc_netsim::time::{SimDuration, SimTime};

fn measure<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    // Warmup.
    for _ in 0..iters / 10 {
        f();
    }
    let t0 = Stopwatch::start();
    for _ in 0..iters {
        f();
    }
    t0.elapsed_secs() / iters as f64
}

fn main() {
    let agent = mocc_bench::trained_mocc();
    let aurora = mocc_bench::trained_aurora("thr", Preference::throughput());

    // Inference cost of the two model families.
    let hist = vec![0.1f32; 30];
    let mocc_inf = measure(
        || {
            std::hint::black_box(agent.act(&Preference::throughput(), std::hint::black_box(&hist)));
        },
        200_000,
    );
    let aurora_obs = vec![0.1f32; 30];
    let aurora_inf = measure(
        || {
            std::hint::black_box(
                aurora
                    .ppo
                    .policy
                    .mean_action(std::hint::black_box(&aurora_obs)),
            );
        },
        200_000,
    );

    // Heuristic per-ACK cost (CUBIC's window arithmetic).
    let mut cubic = mocc_cc::Cubic::new();
    let mut ctl = RateControl::open();
    let view = SenderView {
        now: SimTime::from_secs(1),
        mss_bytes: 1500,
        min_rtt: Some(SimDuration::from_millis(20)),
        srtt: Some(SimDuration::from_millis(25)),
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
    let cubic_ack = measure(
        || {
            cubic.on_ack(&view, std::hint::black_box(&ack), &mut ctl);
        },
        2_000_000,
    );

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
    let feat = measure(
        || {
            std::hint::black_box(stats_features(std::hint::black_box(&mi)));
        },
        2_000_000,
    );

    println!("== Figure 17: per-invocation costs and modeled CPU utilization ==");
    println!(
        "policy inference (MOCC, PrefNet):  {:>9.2} ns",
        mocc_inf * 1e9
    );
    println!(
        "policy inference (Aurora, MLP):    {:>9.2} ns",
        aurora_inf * 1e9
    );
    println!(
        "heuristic per-ACK (CUBIC):         {:>9.2} ns",
        cubic_ack * 1e9
    );
    println!("MI feature extraction:             {:>9.2} ns", feat * 1e9);

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
    println!(
        "  user-space MOCC   (per-MI inference + shim): {:>8.4} %",
        user_mocc * 100.0
    );
    println!(
        "  user-space Aurora (per-MI inference + shim): {:>8.4} %",
        user_aurora * 100.0
    );
    println!(
        "  kernel-space MOCC (CCP, batched reports):    {:>8.4} %",
        kernel_mocc * 100.0
    );
    println!(
        "  kernel heuristics (CUBIC/Vegas/BBR/Orca):    {:>8.4} %",
        kernel_heur * 100.0
    );
    println!("\n(paper's shape: user-space MOCC ≈ Aurora ≫ kernel-space MOCC ≈ Orca ≈ heuristics;");
    println!(" absolute percentages differ — the paper measures a Python/TensorFlow stack, this is Rust)");
}
