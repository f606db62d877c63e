//! Fairness demo over the competition runner: classic schemes compete
//! in duels and staircase churn on a shared bottleneck, and the
//! fairness analytics — overlap-window Jain index, friendliness
//! against an all-CUBIC control run, and time to fair share — come
//! straight out of the sweep report (the §6.4 methodology on classic
//! schemes; runs with no training).
//!
//! ```text
//! cargo run --release --example fairness
//! ```

use mocc::core::run_experiment;
use mocc::eval::{fmt_opt_metric, CompetitionSpec, ContenderMix, ExperimentSpec, SweepRunner};

fn main() {
    // 12 Mbps bottleneck, 20 ms base RTT: same-scheme duels and
    // 3-flow staircase churn (join every 5 s, leave in reverse) per
    // scheme, plus each scheme head-to-head against CUBIC.
    let mut mixes = Vec::new();
    for scheme in ["cubic", "bbr", "vegas", "copa"] {
        mixes.push(ContenderMix::duel(scheme, scheme));
        mixes.push(ContenderMix::staircase(scheme, 3, 5.0));
        if scheme != "cubic" {
            mixes.push(ContenderMix::duel(scheme, "cubic"));
        }
    }
    let spec = CompetitionSpec {
        mixes,
        bandwidth_mbps: vec![12.0],
        owd_ms: vec![10],
        queue_pkts: vec![120],
        duration_s: 40,
        ..CompetitionSpec::quick()
    };
    let runner = SweepRunner::auto();
    println!(
        "{} competition cells, {} worker threads",
        spec.cell_count(),
        runner.threads()
    );
    println!("(J = 1 is a perfectly equal share; friendliness = flow 0's share over");
    println!(" the share it gets when everyone runs CUBIC; conv = seconds from the");
    println!(
        " last join until J >= {} holds for {} s)\n",
        spec.fair_jain, spec.fair_sustain_s
    );
    // The whole experiment is one declarative document — the same
    // thing `mocc run` executes from a JSON file (docs/SPECS.md).
    let exp = ExperimentSpec::from_competition("baselines", &spec);
    let report = run_experiment(&runner, &exp).expect("valid competition spec");
    println!(
        "{:<22} {:>12} {:>8} {:>8} {:>10} {:>8}",
        "mix", "goodput Mb", "util", "J", "friendly", "conv s"
    );
    for cell in &report.cells {
        println!(
            "{:<22} {:>12.2} {:>8.3} {:>8.3} {:>10} {:>8}",
            cell.mix.as_deref().unwrap_or(&cell.load),
            cell.goodput_mbps,
            cell.utilization,
            cell.jain,
            fmt_opt_metric(cell.friendliness),
            fmt_opt_metric(cell.convergence_s),
        );
    }
    println!("\n(see `cargo run -p mocc-bench --bin figures -- competition` for the MOCC variants");
    println!(" driven by policy inference, and fig11_15 for the full §6.4 set)");
}
