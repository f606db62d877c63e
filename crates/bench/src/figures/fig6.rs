//! Figure 6 — the 100-objective experiment.
//!
//! Draws 40 uniformly random objectives and 5 network conditions (the
//! paper draws 100 and 10), scores every scheme's behaviour with the
//! Eq. 2 reward under each objective, and prints the reward CDF per
//! scheme. MOCC (offline model only, no online adaptation) should
//! dominate; "enhanced Aurora" (a bank of fixed-objective models with
//! nearest-preference dispatch) comes second; single-model Aurora and
//! the heuristics trail.

use super::{aurora_bank, header, percentile_row, trained_mocc, Cases, Scheme, HEURISTICS};
use mocc_core::PolicyCc;
use mocc_netsim::metrics::mean;

/// Prints Figure 6.
pub fn run() -> Result<(), String> {
    let (n_objectives, n_conditions) = (40, 5);

    let mocc = trained_mocc()?;
    let bank = aurora_bank()?;

    let cases = Cases::draw(2024, n_objectives, n_conditions, 20);

    println!(
        "== Figure 6: reward CDF over {n_objectives} objectives x {n_conditions} conditions = {} cases ==",
        n_objectives * n_conditions
    );

    // Heuristics and vanilla Aurora (one model regardless of
    // objective): behaviour does not depend on the objective, so one
    // run per condition is scored under every objective.
    let mut fixed: Vec<(String, Scheme)> = Scheme::baselines(&HEURISTICS)?
        .into_iter()
        .map(|s| (s.label(), s))
        .collect();
    fixed.push(("aurora (1 model)".into(), Scheme::aurora("thr")?));
    let mut results: Vec<(String, Vec<f64>)> = fixed
        .into_iter()
        .map(|(label, scheme)| (label, cases.score(|_, _| 0, |_, rate| scheme.make(rate))))
        .collect();

    // Enhanced Aurora: dispatch to the nearest fixed-objective model —
    // the model (and hence the run) depends on the objective's nearest
    // bank member, so one run per (condition, bank member) pair.
    results.push((
        format!("enhanced-aurora({})", bank.models.len()),
        cases.score(
            |_, w| bank.index_for(w),
            |w, rate| Box::new(PolicyCc::aurora(bank.best_for(w), rate)),
        ),
    ));

    // MOCC: the registered preference changes behaviour, so one run per
    // (objective, condition).
    results.push(("mocc (offline only)".into(), cases.score_mocc(mocc)));

    // Print the CDF summary.
    println!();
    header("scheme", &["p10", "p25", "p50", "p75", "p90", "mean"], 8);
    results.sort_by(|a, b| mean(&a.1).total_cmp(&mean(&b.1)));
    for (label, rewards) in &results {
        let ps = [10.0, 25.0, 50.0, 75.0, 90.0];
        percentile_row(label, rewards, &ps, &[mean(rewards)], 8, 3);
    }
    Ok(())
}
