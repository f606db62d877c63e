//! # mocc-bench — the experiment harness
//!
//! The `mocc` CLI (`src/bin/mocc.rs`) and one binary per table/figure
//! of the paper (`fig1`, `fig5`, `fig6`, `fig7`, `fig8_10`, `fig11_15`,
//! `fig16`, `fig17`, `fig18`, `fig19`). Performance is measured by the
//! repository's one instrument, `benchmark/` (docs/PERFORMANCE.md),
//! not here; this crate keeps only the two kernel-ratio gates
//! (`tests/kernel_ratios.rs`).
//!
//! Trained models are cached under `target/mocc-cache/` so the figure
//! binaries share one offline training run. Delete the directory to
//! retrain. [`serve`] is the `mocc serve` daemon, a library module so
//! its protocol is testable without spawning the binary. Set
//! `MOCC_BENCH_FULL=1` for larger (slower, closer to the paper)
//! experiment scales; the default is a reduced scale that keeps every
//! figure under a few minutes.

#![forbid(unsafe_code)]

pub mod serve;
pub mod timing;

use mocc_core::{AuroraAgent, AuroraBank, AuroraCc, MoccAgent, MoccCc, MoccConfig, Preference};
use mocc_netsim::cc::CongestionControl;
use mocc_netsim::scenario::MiMode;
use mocc_netsim::{FlowResult, MiRecord, Scenario, ScenarioRange, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// True when the user asked for the full-scale (slow) experiments.
pub fn full_scale() -> bool {
    // audit:allow(env-discipline): strict-parse helper — the one reader of MOCC_BENCH_FULL
    std::env::var("MOCC_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The cache root: `$MOCC_CACHE_DIR`, else `target/mocc-cache`. Holds
/// the trained models the figure binaries share (`*.json`) and, in its
/// `store` subdirectory, the `mocc` CLI's default result store.
/// Created on first use; a root that cannot be created is the error
/// `<path>: <reason>`.
pub fn cache_dir() -> Result<PathBuf, String> {
    // audit:allow(env-discipline): strict-parse helper — the one reader of MOCC_CACHE_DIR
    let dir = std::env::var("MOCC_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/mocc-cache"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Path of `file` under the cache root, for the figure binaries, which
/// have no error channel.
///
/// # Panics
///
/// Panics if the cache root cannot be created.
pub fn cached_model_path(file: &str) -> PathBuf {
    cache_dir().expect("create cache dir").join(file)
}

/// Path of the cached offline-trained MOCC agent — the file
/// [`trained_mocc`] maintains and spec-file `policy.path` sections
/// point at.
pub fn trained_mocc_path() -> PathBuf {
    cached_model_path("mocc-agent.json")
}

/// The [`TrainSpec`] behind the cached figure-binary model: the
/// default config under the transfer regime with batched (4-env)
/// lockstep rollouts. Declared here so the cached artifact has a
/// single, inspectable definition — `mocc train` on the same document
/// reproduces it.
///
/// [`TrainSpec`]: mocc_core::TrainSpec
pub fn default_train_spec() -> mocc_core::TrainSpec {
    mocc_core::TrainSpec {
        name: "mocc-default".to_string(),
        seed: 7,
        config: "default".to_string(),
        batch_envs: 4,
        ..mocc_core::TrainSpec::default()
    }
}

/// The offline-trained MOCC agent (trained on first use via
/// [`default_train_spec`], then cached).
pub fn trained_mocc() -> MoccAgent {
    let path = trained_mocc_path();
    if let Ok(agent) = MoccAgent::load(&path) {
        return agent;
    }
    eprintln!("[cache] training MOCC offline (one-time, ~1 min)...");
    let spec = default_train_spec();
    let opts = mocc_core::TrainOptions {
        clock: Some(crate::timing::monotonic_secs),
        ..mocc_core::TrainOptions::default()
    };
    let run = mocc_core::train_spec(&spec, &opts).expect("the default train spec is valid");
    eprintln!(
        "[cache] offline training done: {} iterations, {:.1}s",
        run.outcome.iterations, run.outcome.wall_secs
    );
    run.agent.save(&path).expect("save cached agent");
    run.agent
}

/// Iterations used when training cached Aurora models.
pub fn aurora_iters() -> usize {
    if full_scale() {
        800
    } else {
        400
    }
}

/// A cached single-objective Aurora model for `pref` under `tag`.
pub fn trained_aurora(tag: &str, pref: Preference) -> AuroraAgent {
    let path = cached_model_path(&format!("aurora-{tag}.json"));
    if let Ok(json) = std::fs::read_to_string(&path) {
        if let Ok(agent) = serde_json::from_str(&json) {
            return agent;
        }
    }
    eprintln!("[cache] training Aurora ({tag})...");
    let mut rng = StdRng::seed_from_u64(13);
    let mut agent = AuroraAgent::new(MoccConfig::default(), pref, &mut rng);
    let _ = agent.train(ScenarioRange::training(), aurora_iters(), 13);
    std::fs::write(&path, serde_json::to_string(&agent).unwrap()).expect("save aurora");
    agent
}

/// The cached "enhanced Aurora" bank of `n` fixed-objective models
/// (Fig. 6 uses 10).
pub fn aurora_bank(n: usize) -> AuroraBank {
    let path = cached_model_path(&format!("aurora-bank-{n}.json"));
    if let Ok(json) = std::fs::read_to_string(&path) {
        if let Ok(bank) = serde_json::from_str(&json) {
            return bank;
        }
    }
    eprintln!("[cache] training enhanced-Aurora bank of {n} models...");
    let mut rng = StdRng::seed_from_u64(29);
    // Spread the bank's objectives over the simplex like the paper's
    // "10 pre-trained models that best suit these 100 objectives".
    let all = mocc_core::landmarks(10);
    let step = (all.len() / n).max(1);
    let prefs: Vec<Preference> = all.iter().step_by(step).take(n).cloned().collect();
    let bank = AuroraBank::train(
        MoccConfig::default(),
        &prefs,
        ScenarioRange::training(),
        aurora_iters() / 2,
        &mut rng,
    );
    std::fs::write(&path, serde_json::to_string(&bank).unwrap()).expect("save bank");
    bank
}

/// A scheme under test in the figure experiments.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// A classic baseline from `mocc-cc`, by name.
    Baseline(&'static str),
    /// MOCC with the given registered preference.
    Mocc(Preference),
    /// A fixed-objective Aurora model (cached under the tag).
    Aurora(&'static str, Preference),
}

impl Scheme {
    /// Display name used in tables.
    pub fn label(&self) -> String {
        match self {
            Scheme::Baseline(n) => n.to_string(),
            Scheme::Mocc(p) => format!("mocc<{:.1},{:.1},{:.1}>", p.thr, p.lat, p.loss),
            Scheme::Aurora(tag, _) => format!("aurora-{tag}"),
        }
    }

    /// Instantiates the controller (loading cached models as needed).
    pub fn make(&self, initial_rate_bps: f64) -> Box<dyn CongestionControl> {
        match self {
            Scheme::Baseline(name) => mocc_cc::by_name(name).expect("known baseline"),
            Scheme::Mocc(pref) => Box::new(MoccCc::new(&trained_mocc(), *pref, initial_rate_bps)),
            Scheme::Aurora(tag, pref) => {
                Box::new(AuroraCc::new(&trained_aurora(tag, *pref), initial_rate_bps))
            }
        }
    }
}

/// The figure binaries' scheme registry: every `mocc-cc` baseline
/// plus the cached trained models — MOCC under the three example
/// preferences (labelled as [`Scheme::Mocc`] prints them) and the two
/// fixed-objective Aurora models — each starting at 30 % of the cell's
/// peak rate, the §6 initialization convention. Built once so the
/// cached agents are loaded once, then shared by every cell a
/// spec-driven sweep instantiates.
pub fn figure_registry() -> mocc_eval::SchemeRegistry {
    let mut reg = mocc_eval::SchemeRegistry::builtin();
    let mocc = trained_mocc();
    for pref in [
        Preference::throughput(),
        Preference::latency(),
        Preference::balanced(),
    ] {
        let agent = mocc.clone();
        let label = Scheme::Mocc(pref).label();
        let summary = format!(
            "trained MOCC, registered preference <{:.1},{:.1},{:.1}>",
            pref.thr, pref.lat, pref.loss
        );
        reg = reg.with_scheme(&label, &summary, move |ctx| {
            Box::new(MoccCc::new(&agent, pref, 0.3 * ctx.peak_rate_bps))
        });
    }
    for (tag, pref) in [
        ("thr", Preference::throughput()),
        ("lat", Preference::latency()),
    ] {
        let agent = trained_aurora(tag, pref);
        let label = Scheme::Aurora(tag, pref).label();
        let summary = format!("fixed-objective Aurora ({tag})");
        reg = reg.with_scheme(&label, &summary, move |ctx| {
            Box::new(AuroraCc::new(&agent, 0.3 * ctx.peak_rate_bps))
        });
    }
    reg
}

/// The standard scheme lineup of §6.1 (Fig. 5).
pub fn standard_schemes(mocc_pref: Preference) -> Vec<Scheme> {
    vec![
        Scheme::Mocc(mocc_pref),
        Scheme::Baseline("cubic"),
        Scheme::Baseline("vegas"),
        Scheme::Baseline("bbr"),
        Scheme::Baseline("copa"),
        Scheme::Baseline("pcc-allegro"),
        Scheme::Baseline("pcc-vivace"),
        Scheme::Aurora("thr", Preference::throughput()),
        Scheme::Aurora("lat", Preference::latency()),
        Scheme::Baseline("orca"),
    ]
}

/// Applies the learning agents' monitor-interval convention (see
/// [`mocc_netsim::LinkSpec::agent_mi`]) to every flow of a scenario so
/// deployment matches training.
pub fn with_agent_mi(mut sc: Scenario) -> Scenario {
    let mi = sc.link.agent_mi();
    for f in &mut sc.flows {
        f.mi = MiMode::Fixed(mi);
    }
    sc
}

/// Runs one scheme alone on a scenario, returning its flow result.
pub fn run_single(scheme: &Scheme, sc: Scenario) -> FlowResult {
    let sc = with_agent_mi(sc);
    let initial = 0.3 * sc.link.trace.max_rate();
    let res = Simulator::new(sc, vec![scheme.make(initial)]).run();
    res.flows.into_iter().next().expect("one flow")
}

/// Mean Eq. 2 reward of a run's monitor intervals under `pref`
/// (capacity and base RTT from the scenario ground truth). This scores
/// *any* scheme's behaviour against an objective, which is how Fig. 6
/// compares heuristics against the learned algorithms.
pub fn mean_reward(
    records: &[MiRecord],
    capacity_bps: f64,
    base_rtt_ms: f64,
    pref: &Preference,
) -> f32 {
    if records.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f32;
    for r in records {
        let o_thr = (r.throughput_bps / capacity_bps).clamp(0.0, 1.0) as f32;
        let o_lat = if r.mean_rtt_ms > 0.0 {
            (base_rtt_ms / r.mean_rtt_ms).clamp(0.0, 1.0) as f32
        } else {
            0.0
        };
        let o_loss = 1.0 - r.loss_rate as f32;
        total += pref.reward(o_thr, o_lat, o_loss);
    }
    total / records.len() as f32
}

/// Prints a fixed-width table row.
pub fn row(label: &str, values: &[f64], width: usize, prec: usize) {
    print!("{label:<22}");
    for v in values {
        print!("{v:>width$.prec$}");
    }
    println!();
}

/// Prints a fixed-width table header.
pub fn header(label: &str, cols: &[String], width: usize) {
    print!("{label:<22}");
    for c in cols {
        print!("{c:>width$}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::Baseline("cubic").label(), "cubic");
        assert_eq!(
            Scheme::Mocc(Preference::throughput()).label(),
            "mocc<0.8,0.1,0.1>"
        );
        assert_eq!(
            Scheme::Aurora("thr", Preference::throughput()).label(),
            "aurora-thr"
        );
    }

    #[test]
    fn mean_reward_scores_records() {
        let rec = MiRecord {
            t_s: 1.0,
            throughput_bps: 5e6,
            sending_rate_bps: 5e6,
            mean_rtt_ms: 50.0,
            loss_rate: 0.0,
            send_ratio: 1.0,
            latency_ratio: 1.25,
            latency_gradient: 0.0,
            pacing_rate_bps: 5e6,
        };
        let w = Preference::new(0.5, 0.5, 0.0);
        // O_thr = 0.5, O_lat = 0.8 ⇒ reward 0.65.
        let r = mean_reward(&[rec], 10e6, 40.0, &w);
        assert!((r - 0.65).abs() < 1e-6);
        assert_eq!(mean_reward(&[], 10e6, 40.0, &w), 0.0);
    }

    #[test]
    fn baseline_runs_through_runner() {
        let f = run_single(
            &Scheme::Baseline("cubic"),
            Scenario::single(10e6, 20, 500, 0.0, 10),
        );
        assert!(f.total_acked > 0);
    }
}
