//! Figures 8–10 — real application workloads, one MOCC model for all.
//!
//! Fig. 8: ABR video streaming (MOCC registered <0.8,0.1,0.1>) —
//!         throughput and chunk-quality histogram.
//! Fig. 9: real-time communications (MOCC <0.4,0.5,0.1>) —
//!         inter-packet delay.
//! Fig. 10: bulk transfer with 0.5 % background loss (MOCC <1,0,0>) —
//!          FCT mean and standard deviation.

use super::{header, row, simulator, Scheme};
use mocc_apps::bulk::{run_bulk, BulkConfig};
use mocc_apps::rtc::{RtcConfig, RtcSource};
use mocc_apps::video::{VideoConfig, VideoSource};
use mocc_core::Preference;
use mocc_netsim::metrics::mean;
use mocc_netsim::{AppSource, Scenario};

fn app_schemes(pref: Preference) -> Result<Vec<Scheme>, String> {
    let mut schemes = vec![Scheme::mocc(pref)?];
    schemes.extend(Scheme::baselines(&["cubic", "bbr", "vegas"])?);
    Ok(schemes)
}

/// Runs `scheme` from `initial_rate_bps` on `sc` with `app` as the
/// flow's traffic source.
fn run_app(scheme: &Scheme, initial_rate_bps: f64, sc: Scenario, app: impl AppSource + 'static) {
    let mut sim = simulator(vec![scheme.make(initial_rate_bps)], sc);
    sim.set_app(0, Box::new(app));
    let _ = sim.run();
}

/// Prints Figures 8, 9 and 10.
pub fn run() -> Result<(), String> {
    // ---------------- Fig. 8: video streaming ----------------
    println!("== Figure 8: ABR video streaming (6 Mbps access link, 20 ms) ==");
    let cfg = VideoConfig {
        total_chunks: 15,
        ..Default::default()
    };
    let cols = [
        "thr Mbps", "avg kbps", "rebuf s", "L0", "L1", "L2", "L3", "L4", "L5",
    ];
    header("scheme", &cols, 9);
    for scheme in app_schemes(Preference::throughput())? {
        // 1 % background loss models the paper's real WiFi/Internet path;
        // this is where loss-based heuristics fall behind.
        let sc = Scenario::single(6e6, 20, 600, 0.01, 300);
        let (src, handle) = VideoSource::new(cfg.clone());
        run_app(&scheme, 1.5e6, sc, src);
        let stats = handle.stats();
        let thr = mean(&stats.chunk_throughput_mbps);
        let mut vals = vec![thr, stats.avg_bitrate_kbps(&cfg), stats.rebuffer_secs];
        vals.extend(stats.level_histogram(6).iter().map(|&c| c as f64));
        row(&scheme.label(), &vals, 9, 1);
    }
    println!(
        "(paper: MOCC highest throughput and most level-5 chunks: 14 vs 9 BBR / 2 CUBIC / 0 Vegas)"
    );

    // ---------------- Fig. 9: real-time communications ----------------
    println!("\n== Figure 9: RTC inter-packet delay (5 Mbps, 15 ms, 30 s call) ==");
    header("scheme", &["mean ms", "p95 ms", "pkts", "drops"], 10);
    let mut rtc_schemes = app_schemes(Preference::new(0.4, 0.5, 0.1))?;
    // A second MOCC registration showing the weight trade-off at our
    // training scale (tests/fixtures/figures/fig8_10.txt).
    rtc_schemes.insert(1, Scheme::mocc(Preference::new(0.6, 0.3, 0.1))?);
    for scheme in rtc_schemes {
        let sc = Scenario::single(5e6, 15, 400, 0.001, 30);
        let (src, handle) = RtcSource::new(RtcConfig::default());
        run_app(&scheme, 2e6, sc, src);
        let s = handle.stats();
        let vals = [
            s.mean_inter_packet_ms,
            s.p95_inter_packet_ms,
            s.packets as f64,
            s.frames_dropped as f64,
        ];
        row(&scheme.label(), &vals, 10, 2);
    }
    println!("(paper: MOCC lowest inter-packet delay: 3.0 ms vs 3.8 BBR / 7.9 CUBIC / 4.1 Vegas)");

    // ---------------- Fig. 10: bulk transfer ----------------
    println!("\n== Figure 10: bulk transfer FCT (12.5 MB file, 0.5% loss) ==");
    let cfg = BulkConfig {
        trials: 15,
        ..Default::default()
    };
    header("scheme", &["mean s", "std s", "incomplete"], 12);
    for scheme in app_schemes(Preference::new(1.0, 0.0, 0.0))? {
        let stats = run_bulk(&cfg, || scheme.make(3e6));
        let vals = [stats.mean_fct(), stats.std_fct(), stats.incomplete as f64];
        row(&scheme.label(), &vals, 12, 3);
    }
    println!("(paper: MOCC lowest mean FCT (8.83 s) and lowest std (0.096))");
    Ok(())
}
