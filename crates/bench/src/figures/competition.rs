//! Competition matrix — fairness and friendliness under dynamic churn
//! (§6.4 on the sweep harness).
//!
//! Runs the full contender-mix matrix through the competition runner
//! with the policy evaluator: mixed-preference MOCC pairs, MOCC
//! against each classic baseline, and N-flow staircase churn for both
//! MOCC and CUBIC. Per cell: overlap-window Jain index, friendliness
//! ratio against an all-CUBIC control run, and time to fair share.
//!
//! The trained agent is cached under `target/mocc-cache/` (shared with
//! the other figures); the first run trains it once, and the
//! experiment itself is a declarative [`ExperimentSpec`] whose policy
//! section points at that cache file — the same document `mocc run`
//! would accept.

use mocc_eval::{
    fmt_opt_metric, CompetitionSpec, ContenderMix, ExperimentSpec, MoccPrefSpec, PolicySpec,
    SweepRunner,
};

/// Prints the competition matrix.
pub fn run() -> Result<(), String> {
    // Train (or load) the cached agent so the spec's policy path
    // resolves.
    super::trained_mocc()?;
    let agent_path = super::cached(super::MOCC_AGENT_FILE)?;
    let duration_s: u64 = 24;

    let mixes = vec![
        // Mixed-preference MOCC pairs (Figs. 13-14 methodology).
        ContenderMix::duel("mocc:thr", "mocc:lat"),
        ContenderMix::duel("mocc:thr", "mocc:bal"),
        ContenderMix::duel("mocc:lat", "mocc:bal"),
        // MOCC against each classic scheme (Fig. 15 friendliness).
        ContenderMix::duel("mocc:bal", "cubic"),
        ContenderMix::duel("mocc:bal", "bbr"),
        ContenderMix::duel("mocc:bal", "vegas"),
        ContenderMix::duel("mocc:bal", "copa"),
        // Staircase churn: flows join and leave mid-run.
        ContenderMix::staircase("mocc:bal", 3, 4.0),
        ContenderMix::staircase("cubic", 3, 4.0),
    ];
    let spec = CompetitionSpec {
        mixes,
        bandwidth_mbps: vec![12.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![120],
        duration_s,
        ..CompetitionSpec::quick()
    };

    let runner = SweepRunner::from_env()?;
    println!(
        "== Competition matrix: {} cells ({duration_s} s each), {} worker threads ==",
        spec.cell_count(),
        runner.threads()
    );
    println!("(J over the full-overlap window; friendliness = flow 0's share over its");
    println!(
        " all-CUBIC control share; conv = seconds after the last join until J >= {}",
        spec.fair_jain
    );
    println!(
        " holds for {} s; '-' = undefined/never)\n",
        spec.fair_sustain_s
    );

    let mut exp = ExperimentSpec::from_competition("mocc-competition", &spec);
    exp.policy = Some(PolicySpec {
        path: Some(agent_path.display().to_string()),
        preference: MoccPrefSpec::Balanced,
        ..PolicySpec::default()
    });
    let report = mocc_core::run_experiment(&runner, &exp).map_err(|e| e.to_string())?;

    println!(
        "{:<26} {:>6} {:>12} {:>8} {:>8} {:>10} {:>8}",
        "mix", "rtt ms", "goodput Mb", "util", "J", "friendly", "conv s"
    );
    for cell in &report.cells {
        println!(
            "{:<26} {:>6} {:>12.2} {:>8.3} {:>8.3} {:>10} {:>8}",
            cell.mix.as_deref().unwrap_or(&cell.load),
            2 * cell.owd_ms,
            cell.goodput_mbps,
            cell.utilization,
            cell.jain,
            fmt_opt_metric(cell.friendliness),
            fmt_opt_metric(cell.convergence_s),
        );
    }
    println!(
        "\nsummary: mean utilization {:.3}, mean goodput {:.2} Mbps over {} cells",
        report.summary.mean_utilization, report.summary.mean_goodput_mbps, report.summary.cells
    );
    println!("(paper: larger w_thr is more aggressive, no mix starves a contender;");
    println!(" canonical report is byte-identical for any thread count or batch size)");
    Ok(())
}
