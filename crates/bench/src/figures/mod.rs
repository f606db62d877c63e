//! The paper's §6 evaluation: one public `run` function per figure,
//! over the one private copy of everything the figures share — the
//! trained-model cache ([`load_or_train`]), the scheme catalogue
//! (`Scheme`), the simulation call (`run_flows`), the objectives ×
//! conditions reward scorer (`Cases`) and the table printers.
//!
//! Every `run` prints its figure to stdout and returns the first
//! failure as a one-line message; the `figures` binary is the table
//! over them. What each figure printed on the reference machine is
//! committed as `tests/fixtures/figures/<name>.txt` and compared by
//! `tests/figures.rs` — those files are the repository's measured
//! record of the paper's figures.

pub mod competition;
pub mod fig1;
pub mod fig11_15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8_10;

use crate::timing::monotonic_secs;
use mocc_core::{
    AuroraAgent, AuroraBank, MoccAgent, MoccConfig, PolicyCc, Preference, TrainOptions, TrainRun,
    TrainSpec,
};
use mocc_eval::SchemeRegistry;
use mocc_netsim::cc::CongestionControl;
use mocc_netsim::metrics::{mean, percentile};
use mocc_netsim::scenario::MiMode;
use mocc_netsim::{FlowResult, MiRecord, Scenario, ScenarioRange, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// File, under the cache root, of the offline-trained MOCC agent —
/// what [`trained_mocc`] maintains and spec-file `policy.path` sections
/// point at.
const MOCC_AGENT_FILE: &str = "mocc-agent.json";

/// The model cached at `path`, read through `decode` — the model's
/// shape-checked decoder ([`MoccAgent::from_json`],
/// [`AuroraAgent::from_json`], [`AuroraBank::from_json`]) — after
/// `train` has produced and written it when the file is missing or
/// `decode` refuses it: a damaged model is retrained and overwritten,
/// never deployed. A freshly trained model is returned as the decode
/// of the bytes just written, so a cold and a warm run compute with
/// the same value.
pub fn load_or_train<T: Serialize>(
    path: &Path,
    decode: fn(&str) -> Result<T, serde_json::Error>,
    train: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let cached = mocc_store::read_text(path).ok();
    if let Some(model) = cached.and_then(|json| decode(&json).ok()) {
        return Ok(model);
    }
    let at_path = |e: &dyn Display| format!("{}: {e}", path.display());
    let json = serde_json::to_string(&train()?).map_err(|e| at_path(&e))?;
    std::fs::write(path, &json).map_err(|e| at_path(&e))?;
    decode(&json).map_err(|e| at_path(&e))
}

/// `file` under the cache root.
fn cached(file: &str) -> Result<PathBuf, String> {
    Ok(crate::cache_dir()?.join(file))
}

/// `cell`'s value, produced by `load` on the first call of the process.
fn once<T>(
    cell: &'static OnceLock<T>,
    load: impl FnOnce() -> Result<T, String>,
) -> Result<&'static T, String> {
    if let Some(model) = cell.get() {
        return Ok(model);
    }
    let model = load()?;
    Ok(cell.get_or_init(|| model))
}

/// Trains `spec` with the wall clock injected (the trainer itself never
/// reads one).
fn train_mocc(spec: &TrainSpec) -> Result<TrainRun, String> {
    let opts = TrainOptions {
        clock: Some(monotonic_secs),
        ..TrainOptions::default()
    };
    mocc_core::train_spec(spec, &opts).map_err(|e| format!("train spec {:?}: {e}", spec.name))
}

/// The [`TrainSpec`] behind [`trained_mocc`]: the default config under
/// the transfer regime with batched (4-env) lockstep rollouts. Declared
/// here so the cached artifact has a single, inspectable definition —
/// `mocc train` on the same document reproduces it.
fn default_train_spec() -> TrainSpec {
    TrainSpec {
        name: "mocc-default".to_string(),
        seed: 7,
        config: "default".to_string(),
        batch_envs: 4,
        ..TrainSpec::default()
    }
}

/// The offline-trained MOCC agent (trained on first use via
/// [`default_train_spec`], cached as [`MOCC_AGENT_FILE`], parsed once
/// per process).
fn trained_mocc() -> Result<&'static MoccAgent, String> {
    static MODEL: OnceLock<MoccAgent> = OnceLock::new();
    let train = || {
        eprintln!("[cache] training MOCC offline (one-time, ~1 min)...");
        let run = train_mocc(&default_train_spec())?;
        eprintln!(
            "[cache] offline training done: {} iterations, {:.1}s",
            run.outcome.iterations, run.outcome.wall_secs
        );
        Ok(run.agent)
    };
    once(&MODEL, || {
        load_or_train(&cached(MOCC_AGENT_FILE)?, MoccAgent::from_json, train)
    })
}

/// Iterations used when training the cached Aurora models.
const AURORA_ITERS: usize = 400;

/// Models in the cached enhanced-Aurora bank.
const AURORA_BANK_SIZE: usize = 6;

/// The cached single-objective Aurora model `thr` (throughput
/// preference) or `lat` (latency preference), parsed once per process.
fn trained_aurora(tag: &str) -> Result<&'static AuroraAgent, String> {
    static MODELS: [OnceLock<AuroraAgent>; 2] = [OnceLock::new(), OnceLock::new()];
    let (cell, pref) = match tag {
        "thr" => (&MODELS[0], Preference::throughput()),
        "lat" => (&MODELS[1], Preference::latency()),
        _ => return Err(format!("unknown Aurora model {tag:?} (known: thr, lat)")),
    };
    let train = || {
        eprintln!("[cache] training Aurora ({tag})...");
        let mut rng = StdRng::seed_from_u64(13);
        let mut agent = AuroraAgent::new(MoccConfig::default(), pref, &mut rng);
        let _ = agent.train(ScenarioRange::training(), AURORA_ITERS, 13);
        Ok(agent)
    };
    once(cell, || {
        let path = cached(&format!("aurora-{tag}.json"))?;
        load_or_train(&path, AuroraAgent::from_json, train)
    })
}

/// The cached "enhanced Aurora" bank of [`AURORA_BANK_SIZE`]
/// fixed-objective models (Fig. 6).
fn aurora_bank() -> Result<AuroraBank, String> {
    let n = AURORA_BANK_SIZE;
    let path = cached(&format!("aurora-bank-{n}.json"))?;
    load_or_train(&path, AuroraBank::from_json, || {
        eprintln!("[cache] training enhanced-Aurora bank of {n} models...");
        let mut rng = StdRng::seed_from_u64(29);
        // Spread the bank's objectives over the simplex like the paper's
        // "10 pre-trained models that best suit these 100 objectives".
        let all = mocc_core::landmarks(10);
        let step = (all.len() / n).max(1);
        let prefs: Vec<Preference> = all.iter().step_by(step).take(n).cloned().collect();
        Ok(AuroraBank::train(
            MoccConfig::default(),
            &prefs,
            ScenarioRange::training(),
            AURORA_ITERS / 2,
            &mut rng,
        ))
    })
}

/// A scheme of the §6 line-ups, resolved: its model is loaded (or
/// trained) and its name checked by the constructor, so [`Scheme::make`]
/// cannot fail. The one place a figure scheme becomes a controller.
#[derive(Clone, Copy)]
struct Scheme(Kind);

#[derive(Clone, Copy)]
enum Kind {
    Baseline(&'static str),
    Mocc(&'static MoccAgent, Preference),
    Aurora(&'static str, &'static AuroraAgent),
}

/// The six hand-crafted heuristics every comparison of §6 includes.
const HEURISTICS: [&str; 6] = ["cubic", "vegas", "bbr", "copa", "pcc-allegro", "pcc-vivace"];

impl Scheme {
    /// A classic baseline from `mocc-cc`, by name.
    fn baseline(name: &'static str) -> Result<Self, String> {
        match mocc_cc::by_name(name) {
            Some(_) => Ok(Scheme(Kind::Baseline(name))),
            None => Err(format!("unknown baseline {name:?}")),
        }
    }

    /// The named baselines, in order.
    fn baselines(names: &[&'static str]) -> Result<Vec<Self>, String> {
        names.iter().map(|name| Self::baseline(name)).collect()
    }

    /// [`trained_mocc`] with the given registered preference.
    fn mocc(pref: Preference) -> Result<Self, String> {
        Ok(Scheme(Kind::Mocc(trained_mocc()?, pref)))
    }

    /// The fixed-objective Aurora model [`trained_aurora`] caches as
    /// `tag`.
    fn aurora(tag: &'static str) -> Result<Self, String> {
        Ok(Scheme(Kind::Aurora(tag, trained_aurora(tag)?)))
    }

    /// Display name used in tables.
    fn label(&self) -> String {
        match self.0 {
            Kind::Baseline(name) => name.to_string(),
            Kind::Mocc(_, p) => format!("mocc<{:.1},{:.1},{:.1}>", p.thr, p.lat, p.loss),
            Kind::Aurora(tag, _) => format!("aurora-{tag}"),
        }
    }

    /// A fresh controller starting at `initial_rate_bps` (ignored by
    /// the baselines, which probe from their own initial window).
    fn make(&self, initial_rate_bps: f64) -> Box<dyn CongestionControl> {
        match self.0 {
            Kind::Baseline(name) => mocc_cc::by_name(name).expect("checked by Scheme::baseline"),
            Kind::Mocc(agent, pref) => Box::new(PolicyCc::mocc(agent, pref, initial_rate_bps)),
            Kind::Aurora(_, agent) => Box::new(PolicyCc::aurora(agent, initial_rate_bps)),
        }
    }
}

/// The scheme registry of the spec-driven figures: every `mocc-cc`
/// baseline plus the catalogue's learned schemes — MOCC under the three
/// example preferences and the two fixed-objective Aurora models, under
/// their [`Scheme::label`]s — each starting at 30 % of the cell's peak
/// rate, the §6 initialization convention.
fn figure_registry() -> Result<SchemeRegistry, String> {
    let learned = [
        Scheme::mocc(Preference::throughput())?,
        Scheme::mocc(Preference::latency())?,
        Scheme::mocc(Preference::balanced())?,
        Scheme::aurora("thr")?,
        Scheme::aurora("lat")?,
    ];
    Ok(learned
        .into_iter()
        .fold(SchemeRegistry::builtin(), |reg, s| {
            reg.with_scheme(
                &s.label(),
                "trained model of the figure cache",
                move |ctx| s.make(0.3 * ctx.peak_rate_bps),
            )
        }))
}

/// A simulator of `sc` with one controller per flow, under the learning
/// agents' monitor-interval convention (see
/// [`mocc_netsim::LinkSpec::agent_mi`]) on every flow, so deployment
/// matches training and interval boundaries are comparable across
/// schemes.
fn simulator(ccs: Vec<Box<dyn CongestionControl>>, mut sc: Scenario) -> Simulator {
    let mi = sc.link.agent_mi();
    for f in &mut sc.flows {
        f.mi = MiMode::Fixed(mi);
    }
    Simulator::new(sc, ccs)
}

/// Runs `ccs`, one per flow of `sc`, to the horizon, under the learning
/// agents' monitor-interval convention, keeping every interval's record
/// for [`mean_reward`].
fn run_flows(ccs: Vec<Box<dyn CongestionControl>>, sc: Scenario) -> Vec<FlowResult> {
    simulator(ccs, sc).with_mi_records().run().flows
}

/// Mean Eq. 2 reward of a run's monitor intervals under `pref`
/// (capacity and base RTT from the scenario ground truth). This scores
/// *any* scheme's behaviour against an objective, which is how Fig. 6
/// compares heuristics against the learned algorithms.
fn mean_reward(
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

/// The random objectives × network conditions a figure scores schemes
/// over.
struct Cases {
    objectives: Vec<Preference>,
    conditions: Vec<Scenario>,
}

impl Cases {
    /// Draws `n_objectives` uniform objectives, then `n_conditions`
    /// conditions of `dur_s` seconds from the *testing* ranges of
    /// Table 3, all from one generator seeded with `seed`.
    fn draw(seed: u64, n_objectives: usize, n_conditions: usize, dur_s: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let objectives = (0..n_objectives)
            .map(|_| Preference::random(&mut rng))
            .collect();
        let range = ScenarioRange::testing();
        let conditions = (0..n_conditions)
            .map(|_| range.sample(&mut rng, dur_s))
            .collect();
        Cases {
            objectives,
            conditions,
        }
    }

    /// The [`mean_reward`] of every (condition, objective) case,
    /// conditions outermost. `make(w, rate)` builds the single-flow
    /// controller that serves objective `w` from 30 % of the link's
    /// peak rate; objectives with equal `behaviour(index, w)` are served
    /// by the same behaviour, which is simulated once per condition and
    /// scored under each of them — `|_, _| 0` for a scheme that ignores
    /// the objective, `|j, _| j` for one run per case.
    fn score(
        &self,
        behaviour: impl Fn(usize, &Preference) -> usize,
        make: impl Fn(&Preference, f64) -> Box<dyn CongestionControl>,
    ) -> Vec<f64> {
        let mut rewards = Vec::with_capacity(self.objectives.len() * self.conditions.len());
        for sc in &self.conditions {
            let cap = sc.link.trace.max_rate();
            let base = sc.link.base_rtt().as_millis_f64();
            let mut runs: BTreeMap<usize, Vec<MiRecord>> = BTreeMap::new();
            for (j, w) in self.objectives.iter().enumerate() {
                let records = runs.entry(behaviour(j, w)).or_insert_with(|| {
                    let mut flows = run_flows(vec![make(w, 0.3 * cap)], sc.clone());
                    flows.swap_remove(0).mi_records
                });
                rewards.push(mean_reward(records, cap, base, w) as f64);
            }
        }
        rewards
    }

    /// [`Cases::score`] of a MOCC agent registered with each objective:
    /// one run per case.
    fn score_mocc(&self, agent: &MoccAgent) -> Vec<f64> {
        let make = |w: &Preference, rate| Box::new(PolicyCc::mocc(agent, *w, rate)) as _;
        self.score(|j, _| j, make)
    }
}

/// Mean of `xs[lo..hi]`, both bounds clamped to the slice (0 for an
/// empty window).
fn mean_over(xs: &[f64], lo: usize, hi: usize) -> f64 {
    let hi = hi.min(xs.len());
    mean(&xs[lo.min(hi)..hi])
}

/// Prints a fixed-width table header.
fn header(label: &str, cols: &[impl Display], width: usize) {
    print!("{label:<22}");
    for c in cols {
        print!("{c:>width$}");
    }
    println!();
}

/// Prints a fixed-width table row; a NaN cell is left blank.
fn row(label: &str, values: &[f64], width: usize, prec: usize) {
    print!("{label:<22}");
    for v in values {
        if v.is_nan() {
            print!("{:width$}", "");
        } else {
            print!("{v:>width$.prec$}");
        }
    }
    println!();
}

/// Prints a table row of the `ps` percentiles of `xs` followed by the
/// `extra` cells.
fn percentile_row(label: &str, xs: &[f64], ps: &[f64], extra: &[f64], width: usize, prec: usize) {
    let mut cells: Vec<f64> = ps.iter().map(|&p| percentile(xs, p)).collect();
    cells.extend(extra);
    row(label, &cells, width, prec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn baselines_resolve_by_name_or_error() {
        assert_eq!(Scheme::baseline("cubic").unwrap().label(), "cubic");
        let err = Scheme::baselines(&["cubic", "nosuch"]).err().unwrap();
        assert_eq!(err, "unknown baseline \"nosuch\"");
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
    fn cases_simulate_each_behaviour_once_per_condition() {
        let cases = Cases::draw(1, 2, 2, 5);
        let cubic = Scheme::baseline("cubic").unwrap();
        for (shared, runs_expected) in [(true, 2), (false, 4)] {
            let runs = Cell::new(0);
            let rewards = cases.score(
                |j, _| if shared { 0 } else { j },
                |_, rate| {
                    runs.set(runs.get() + 1);
                    cubic.make(rate)
                },
            );
            assert_eq!(runs.get(), runs_expected);
            assert_eq!(rewards.len(), 4);
            assert!(rewards.iter().all(|r| (0.0..=1.0).contains(r)));
        }
    }
}
