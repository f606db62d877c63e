//! The experiment runner: every `ExperimentSpec` — MOCC or not — end
//! to end.
//!
//! [`run_experiment_with`] is the one spec-level entry point. It
//! validates the spec against the registry [`RunOptions`] names,
//! materializes the agent the spec's [`PolicySpec`] describes when a
//! `mocc` label needs one (a saved model file or a seeded fresh agent —
//! both reproducible), and hands every cell to one
//! [`BatchMoccEvaluator`]: the policy drives the `mocc` flows and the
//! same registry builds every other flow, so a MOCC flow can compete
//! against any scheme the registry knows. [`run_experiment`] and
//! [`run_experiment_cached`] are its two common spellings.
//!
//! ```
//! use mocc_core::run_experiment;
//! use mocc_eval::{ExperimentSpec, SweepRunner};
//!
//! let json = r#"{
//!   "kind": "sweep", "name": "cubic-demo", "scheme": "cubic",
//!   "bandwidth_mbps": [5.0, 10.0], "owd_ms": [20], "queue_pkts": [500],
//!   "duration_s": 5, "seed": 7
//! }"#;
//! let spec = ExperimentSpec::from_json(json).unwrap();
//! let report = run_experiment(&SweepRunner::with_threads(2), &spec).unwrap();
//! assert_eq!(report.controller, "cubic-demo");
//! assert_eq!(report.cells.len(), 2);
//! assert!(report.summary.mean_utilization > 0.5);
//! // Canonical JSON: byte-identical for any worker count.
//! let serial = run_experiment(&SweepRunner::with_threads(1), &spec).unwrap();
//! assert_eq!(serial.to_canonical_json(), report.to_canonical_json());
//! ```

use crate::agent::MoccAgent;
use crate::batch_eval::{preference_from_spec, BatchMoccEvaluator};
use crate::config::MoccConfig;
use crate::preference::Preference;
use mocc_eval::{
    CacheStats, CellCache, ExperimentSpec, PolicyIdentity, PolicySpec, SchemeRegistry, SpecError,
    SweepReport, SweepRunner, Workload,
};
use mocc_netsim::{EventCounts, Simulator};
use mocc_store::ResultStore;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a spec-level run ([`run_experiment_with`]) may vary. The
/// default — built-in registry, no store — is [`run_experiment`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// A custom (pluggable) scheme vocabulary; `None` is
    /// [`SchemeRegistry::builtin`].
    pub registry: Option<&'a SchemeRegistry>,
    /// A result store memoizing cells, and the caller's timestamp for
    /// its audit ledger (the library never reads a clock); `None`
    /// simulates every cell. The key does not name the registry: two
    /// registries binding one label to different behavior would share
    /// cache entries — point them at separate stores.
    pub cache: Option<(&'a ResultStore, u64)>,
}

/// Materializes the agent a [`PolicySpec`] describes: loaded from
/// `path` when set, otherwise freshly initialized from `seed` under
/// the named config preset. Both forms are deterministic, so a spec
/// file pins the exact policy bits an experiment ran with.
pub fn agent_from_policy(policy: &PolicySpec) -> Result<MoccAgent, SpecError> {
    if let Some(path) = &policy.path {
        return MoccAgent::load(std::path::Path::new(path)).map_err(|e| SpecError::Io {
            path: path.clone(),
            reason: e.to_string(),
        });
    }
    let cfg = match policy.config.as_str() {
        "fast" => MoccConfig::fast(),
        "default" => MoccConfig::default(),
        other => {
            return Err(SpecError::InvalidSpec {
                reason: format!("policy.config {other:?} must be \"fast\" or \"default\""),
            })
        }
    };
    let mut rng = StdRng::seed_from_u64(policy.seed);
    Ok(MoccAgent::new(cfg, &mut rng))
}

/// The evaluator serving `agent` as a spec's policy section
/// configures it (`policy.batch` is accepted by the parser and read by
/// nothing). The default preference (served to bare `mocc` labels) is
/// `policy.preference` unless `pref_override` is given.
fn evaluator_for(
    agent: &MoccAgent,
    policy: &PolicySpec,
    pref_override: Option<Preference>,
) -> BatchMoccEvaluator<'static> {
    let pref = pref_override.unwrap_or_else(|| preference_from_spec(&policy.preference));
    BatchMoccEvaluator::new(agent, pref, policy.initial_rate_frac)
}

/// Builds the evaluator a spec's policy section describes:
/// [`agent_from_policy`], wrapped for `policy.preference` (or
/// `pref_override`).
pub fn evaluator_from_policy(
    policy: &PolicySpec,
    pref_override: Option<Preference>,
) -> Result<BatchMoccEvaluator<'static>, SpecError> {
    Ok(evaluator_for(
        &agent_from_policy(policy)?,
        policy,
        pref_override,
    ))
}

/// Runs any [`ExperimentSpec`] against the built-in registry,
/// uncached: [`run_experiment_with`] under [`RunOptions::default`].
pub fn run_experiment(
    runner: &SweepRunner,
    exp: &ExperimentSpec,
) -> Result<SweepReport, SpecError> {
    run_experiment_with(runner, exp, RunOptions::default()).map(|(report, _)| report)
}

/// Runs any [`ExperimentSpec`] against the built-in registry, serving
/// every cell it can from `store`: [`run_experiment_with`] with
/// `cache` set. `ts` is the caller's ledger timestamp — libraries
/// never read a clock.
pub fn run_experiment_cached(
    runner: &SweepRunner,
    exp: &ExperimentSpec,
    store: &ResultStore,
    ts: u64,
) -> Result<(SweepReport, CacheStats), SpecError> {
    let opts = RunOptions {
        cache: Some((store, ts)),
        ..RunOptions::default()
    };
    run_experiment_with(runner, exp, opts)
}

/// Runs any [`ExperimentSpec`] — the complete entry point behind the
/// `mocc` CLI. Validates `exp` against the registry `opts` names, then
/// hands every cell to one [`BatchMoccEvaluator`]: `mocc` flows are
/// driven by the policy reproducibly materialized from the spec's
/// policy section (built only when a `mocc` label needs it), and the
/// same registry builds every other flow — registry sweeps, competition
/// contenders and the all-TCP friendliness control alike.
///
/// The report carries the experiment's name as its controller label
/// and is byte-identical for any thread count, with or without a
/// store: hits are canonical blobs of exactly the reports a cold run
/// computes, and the counters say how many cells were served and how
/// many simulated. With a store, `mocc` cells are keyed by the agent's
/// [`policy_digest`], so a retrained or edited model can never be
/// served another model's cells.
pub fn run_experiment_with(
    runner: &SweepRunner,
    exp: &ExperimentSpec,
    opts: RunOptions<'_>,
) -> Result<(SweepReport, CacheStats), SpecError> {
    let builtin;
    let registry = match opts.registry {
        Some(registry) => registry,
        None => {
            builtin = SchemeRegistry::builtin();
            &builtin
        }
    };
    let (evaluator, identity) = spec_evaluator(exp, registry, opts.cache.is_some())?;
    let cache = opts.cache.map(|(store, ts)| CellCache {
        store,
        ts,
        policy: identity.as_ref(),
    });
    Ok(match &exp.workload {
        Workload::Sweep(w) => {
            let spec = exp.to_sweep_spec().expect("sweep workload lowers");
            let cache = cache.map(|c| (w.scheme.label(), c));
            runner.run_cells(&spec, &exp.name, &evaluator.sweeping(&w.scheme), cache)
        }
        Workload::Competition(_) => {
            let spec = exp
                .to_competition_spec()
                .expect("competition workload lowers");
            runner.run_competition_cells(&spec, &exp.name, &evaluator, cache)
        }
    })
}

/// The events cell `index` of a sweep spec pops, by kind, simulated
/// exactly as [`run_experiment`] simulates it (built-in registry, no
/// store). The counts are a pure function of the spec — the exact
/// witness a performance claim can name.
pub fn cell_event_counts(exp: &ExperimentSpec, index: usize) -> Result<EventCounts, SpecError> {
    cell_probe(exp, index, Simulator::event_counts)
}

/// The link service times and pacing gaps cell `index` of a sweep spec
/// computes ([`Simulator::tx_divisions`]), simulated as
/// [`cell_event_counts`] simulates it.
pub fn cell_tx_divisions(exp: &ExperimentSpec, index: usize) -> Result<u64, SpecError> {
    cell_probe(exp, index, Simulator::tx_divisions)
}

/// What `probe` reads off the finished simulator of cell `index` of a
/// sweep spec.
fn cell_probe<T>(
    exp: &ExperimentSpec,
    index: usize,
    probe: fn(&Simulator) -> T,
) -> Result<T, SpecError> {
    let registry = SchemeRegistry::builtin();
    let (evaluator, _) = spec_evaluator(exp, &registry, false)?;
    let (Workload::Sweep(w), Some(spec)) = (&exp.workload, exp.to_sweep_spec()) else {
        return Err(SpecError::InvalidSpec {
            reason: format!(
                "{} is not a sweep; event counts cover sweep cells",
                exp.name
            ),
        });
    };
    let cell = spec
        .expand()
        .into_iter()
        .nth(index)
        .ok_or_else(|| SpecError::InvalidSpec {
            reason: format!("{} has no cell {index}", exp.name),
        })?;
    Ok(evaluator.sweeping(&w.scheme).sweep_cell_probe(&cell, probe))
}

/// Validates `exp` against `registry` and builds the one evaluator of
/// its cells, with the served policy's cache identity when `keyed`.
fn spec_evaluator<'r>(
    exp: &ExperimentSpec,
    registry: &'r SchemeRegistry,
    keyed: bool,
) -> Result<(BatchMoccEvaluator<'r>, Option<PolicyIdentity>), SpecError> {
    exp.validate_in(registry)?;
    let policy = match &exp.policy {
        Some(policy) if exp.needs_policy() => Some((policy, agent_from_policy(policy)?)),
        _ => None,
    };
    let identity = policy
        .as_ref()
        .filter(|_| keyed)
        .map(|(policy, agent)| PolicyIdentity {
            digest: policy_digest(agent),
            preference: policy.preference.label(),
            initial_rate_frac: policy.initial_rate_frac,
        });
    let evaluator = BatchMoccEvaluator::of_spec(
        registry,
        policy.map(|(policy, agent)| evaluator_for(&agent, policy, None)),
    );
    Ok((evaluator, identity))
}

/// The SHA-256 hex digest of an agent's canonical JSON artifact — the
/// **policy identity** inside every cache key its cells are stored
/// under. Serialization is canonical (sorted keys, shortest
/// round-trip floats), so the digest is stable across machines and
/// identical for a freshly seeded agent and the same agent reloaded
/// from disk.
pub fn policy_digest(agent: &MoccAgent) -> String {
    mocc_store::sha256_hex(agent.to_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_eval::{
        competition_report, run_cell, CellReport, CompetitionSpec, ContenderMix, SchemeCtx,
        SchemeSpec, SweepCell, SweepSpec,
    };
    use mocc_netsim::cc::CongestionControl;
    use mocc_netsim::Simulator;

    fn policy() -> PolicySpec {
        PolicySpec {
            seed: 11,
            config: "fast".to_string(),
            ..PolicySpec::default()
        }
    }

    fn small_sweep() -> SweepSpec {
        SweepSpec {
            bandwidth_mbps: vec![6.0],
            owd_ms: vec![10, 30],
            queue_pkts: vec![100],
            duration_s: 3,
            seed: 5,
            agent_mi: true,
            ..SweepSpec::single_cell()
        }
    }

    /// A mocc sweep experiment from a pure spec document equals the
    /// hand-wired BatchMoccEvaluator path byte for byte — the policy
    /// section pins the same agent the code would build.
    #[test]
    fn spec_driven_mocc_sweep_matches_hand_wired_evaluator() {
        let matrix = small_sweep();
        let mut exp =
            ExperimentSpec::from_sweep("mocc-thr", SchemeSpec::parse("mocc:thr").unwrap(), &matrix);
        exp.policy = Some(policy());
        let runner = SweepRunner::with_threads(2);
        let via_spec = run_experiment(&runner, &exp).unwrap();

        let mut rng = StdRng::seed_from_u64(11);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let evaluator = BatchMoccEvaluator::new(&agent, Preference::throughput(), 0.3);
        let (via_code, _) = runner.run_cells(&matrix, "mocc-thr", &evaluator, None);
        assert_eq!(via_spec.to_canonical_json(), via_code.to_canonical_json());
    }

    /// A mocc competition experiment from a pure spec document equals
    /// the hand-wired competition evaluator path byte for byte.
    #[test]
    fn spec_driven_mocc_competition_matches_hand_wired_evaluator() {
        let matrix = CompetitionSpec {
            mixes: vec![
                ContenderMix::duel("mocc:thr", "mocc:lat"),
                ContenderMix::duel("mocc:bal", "cubic"),
            ],
            bandwidth_mbps: vec![8.0],
            owd_ms: vec![10],
            duration_s: 4,
            seed: 5,
            ..CompetitionSpec::quick()
        };
        let mut exp = ExperimentSpec::from_competition("mocc-competition", &matrix);
        exp.policy = Some(policy());
        let runner = SweepRunner::with_threads(2);
        let via_spec = run_experiment(&runner, &exp).unwrap();

        let mut rng = StdRng::seed_from_u64(11);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let evaluator = BatchMoccEvaluator::new(&agent, Preference::balanced(), 0.3);
        let (via_code, _) =
            runner.run_competition_cells(&matrix, "mocc-competition", &evaluator, None);
        assert_eq!(via_spec.to_canonical_json(), via_code.to_canonical_json());
    }

    /// A registry-only cell under the spec evaluator is one plain
    /// simulation to its horizon: a sweep equals [`run_cell`] over a
    /// hand-written factory, a competition equals the contenders' run
    /// reduced by [`competition_report`], both byte for byte, at any
    /// thread count and after a JSON round trip of the spec.
    #[test]
    fn registry_cells_are_one_plain_simulation() {
        let registry = SchemeRegistry::builtin();
        let exp = ExperimentSpec::from_sweep(
            "cubic",
            SchemeSpec::parse("cubic").unwrap(),
            &small_sweep(),
        );
        let factory = |cell: &SweepCell| -> Vec<Box<dyn CongestionControl>> {
            let ctx = SchemeCtx {
                peak_rate_bps: cell.scenario.link.trace.max_rate(),
            };
            (0..cell.scenario.flows.len())
                .map(|_| registry.instantiate_label("cubic", &ctx).unwrap())
                .collect()
        };
        let cells: Vec<CellReport> = small_sweep()
            .expand()
            .iter()
            .map(|c| run_cell(c, &factory))
            .collect();
        let by_hand = SweepReport::new("cubic", exp.seed, exp.duration_s, cells);

        let mut cspec = CompetitionSpec::quick();
        cspec.mixes = vec![
            ContenderMix::duel("cubic", "vegas"),
            ContenderMix::staircase("bbr", 2, 2.0),
        ];
        cspec.duration_s = 8;
        let cexp = ExperimentSpec::from_competition("mix", &cspec);
        let cells: Vec<CellReport> = cspec
            .expand()
            .iter()
            .map(|cell| {
                let ctx = SchemeCtx {
                    peak_rate_bps: cell.scenario.link.trace.max_rate(),
                };
                let ccs = cell
                    .labels
                    .iter()
                    .map(|l| registry.instantiate_label(l, &ctx).unwrap())
                    .collect();
                let res = Simulator::new(cell.scenario.clone(), ccs).run();
                competition_report(cell, &res, &registry)
            })
            .collect();
        let cby_hand = SweepReport::new("mix", cexp.seed, cexp.duration_s, cells);
        assert_eq!(cby_hand.cells[0].mix.as_deref(), Some("duel:cubic+vegas"));
        assert_eq!(cby_hand.cells[1].load, "flows:2");

        for (exp, want) in [(exp, by_hand), (cexp, cby_hand)] {
            let want = want.to_canonical_json();
            let json = ExperimentSpec::from_json(&exp.to_canonical_json()).unwrap();
            for threads in [1, 4] {
                let runner = SweepRunner::with_threads(threads);
                for exp in [&exp, &json] {
                    let got = run_experiment(&runner, exp).unwrap();
                    assert_eq!(got.to_canonical_json(), want, "{threads} thread(s)");
                }
            }
        }
    }

    /// A custom scheme serves a spec's flows exactly as a hand-written
    /// factory building the same controller does; the built-in
    /// registry rejects the label up front.
    #[test]
    fn custom_registry_schemes_run_experiments() {
        use mocc_netsim::cc::Aimd;
        let registry =
            SchemeRegistry::builtin().with_scheme("aimd", "test AIMD", |_| Box::new(Aimd::new()));
        let matrix = small_sweep();
        let exp = ExperimentSpec::from_sweep("aimd", SchemeSpec::parse("aimd").unwrap(), &matrix);
        let opts = RunOptions {
            registry: Some(&registry),
            ..RunOptions::default()
        };
        let (via_registry, _) =
            run_experiment_with(&SweepRunner::with_threads(2), &exp, opts).unwrap();
        let aimd = |cell: &SweepCell| -> Vec<Box<dyn CongestionControl>> {
            (0..cell.scenario.flows.len())
                .map(|_| Box::new(Aimd::new()) as Box<dyn CongestionControl>)
                .collect()
        };
        let cells = matrix.expand().iter().map(|c| run_cell(c, &aimd)).collect();
        let via_factory = SweepReport::new("aimd", matrix.seed, matrix.duration_s, cells);
        assert_eq!(
            via_registry.to_canonical_json(),
            via_factory.to_canonical_json()
        );
        assert!(matches!(
            run_experiment(&SweepRunner::with_threads(1), &exp),
            Err(SpecError::UnknownScheme { .. })
        ));
    }

    #[test]
    fn policy_errors_are_typed() {
        // Unreadable path.
        let bad = PolicySpec {
            path: Some("/nonexistent/agent.json".to_string()),
            ..policy()
        };
        assert!(matches!(agent_from_policy(&bad), Err(SpecError::Io { .. })));
        // Missing policy section on a mocc spec fails validation.
        let exp =
            ExperimentSpec::from_sweep("mocc", SchemeSpec::parse("mocc").unwrap(), &small_sweep());
        assert!(matches!(
            run_experiment(&SweepRunner::with_threads(1), &exp),
            Err(SpecError::InvalidSpec { .. })
        ));
    }

    /// A saved agent file loaded through `policy.path` reproduces the
    /// in-memory agent's decisions exactly.
    #[test]
    fn policy_path_loads_saved_agents() {
        let dir = std::env::temp_dir().join("mocc-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agent.json");
        let mut rng = StdRng::seed_from_u64(3);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        agent.save(&path).unwrap();

        let matrix = small_sweep();
        let mut exp = ExperimentSpec::from_sweep(
            "mocc-file",
            SchemeSpec::parse("mocc:bal").unwrap(),
            &matrix,
        );
        exp.policy = Some(PolicySpec {
            path: Some(path.display().to_string()),
            ..policy()
        });
        let runner = SweepRunner::with_threads(1);
        let via_file = run_experiment(&runner, &exp).unwrap();
        let evaluator = BatchMoccEvaluator::new(&agent, Preference::balanced(), 0.3);
        let (via_mem, _) = runner.run_cells(&matrix, "mocc-file", &evaluator, None);
        assert_eq!(via_file.to_canonical_json(), via_mem.to_canonical_json());
        std::fs::remove_file(&path).ok();
    }
}
