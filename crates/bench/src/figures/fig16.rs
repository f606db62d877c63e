//! Figure 16 — the ω hyperparameter (number of landmark objectives).
//!
//! Pre-trains MOCC with different landmark counts (simplex steps 1/4,
//! 1/5, 1/6, 1/10 → ω = 3, 6, 10, 36; the paper's ω = 171 point is
//! not run) and reports the reward distribution over random objectives
//! plus the training cost — the quality/cost trade-off that makes
//! ω = 36 the paper's choice.

use super::{
    cached, default_train_spec, header, load_or_train, percentile_row, train_mocc, trained_mocc,
    Cases,
};
use mocc_core::{MoccAgent, TrainSpec};
use mocc_netsim::metrics::mean;

/// Prints Figure 16.
pub fn run() -> Result<(), String> {
    let cases = Cases::draw(99, 25, 3, 20);

    println!("== Figure 16: reward vs number of landmark objectives (omega) ==");
    let cols = ["p25", "p50", "p75", "mean", "train s", "iters"];
    header("omega", &cols, 9);

    // Every ω trains the default spec with only the landmark step
    // replaced, so the step the default spec already uses (the paper's
    // ω = 36) is `trained_mocc` itself: same seed, config and landmarks,
    // hence the same bytes.
    let default_cfg = default_train_spec().resolved_config();
    let default_step = default_cfg.map_err(|e| e.to_string())?.omega_step;
    for k in [4, 5, 6, 10] {
        let omega = mocc_core::landmark_count(k);
        let spec = TrainSpec {
            name: format!("fig16-omega-{omega}"),
            omega_step: Some(k),
            ..default_train_spec()
        };
        let cfg = spec.resolved_config().map_err(|e| e.to_string())?;
        let iters = mocc_core::build_schedule(&cfg, spec.regime).1.len();
        // Seconds spent training in this run; blank for a model that
        // was already in the cache.
        let mut train_s = f64::NAN;
        let trained;
        let agent = if k == default_step {
            trained_mocc()?
        } else {
            let path = cached(&format!("mocc-omega-{omega}.json"))?;
            trained = load_or_train(&path, MoccAgent::from_json, || {
                let run = train_mocc(&spec)?;
                train_s = run.outcome.wall_secs;
                Ok(run.agent)
            })?;
            &trained
        };
        let rewards = cases.score_mocc(agent);
        let extra = [mean(&rewards), train_s, iters as f64];
        percentile_row(
            &omega.to_string(),
            &rewards,
            &[25.0, 50.0, 75.0],
            &extra,
            9,
            2,
        );
    }
    println!("(paper: quality improves up to omega=36, which matches omega=171 at a fraction of the 28.2 h training cost)");
    Ok(())
}
