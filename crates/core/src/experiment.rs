//! The policy-aware experiment runner: every `ExperimentSpec` — MOCC
//! or not — end to end.
//!
//! `mocc-eval`'s [`SweepRunner::run_with`] executes any spec whose
//! schemes the registry can instantiate, but `mocc` / `mocc:<pref>`
//! labels need a *policy*. [`run_experiment_with`] closes that gap: it
//! validates the spec, materializes the agent its [`PolicySpec`]
//! describes (a saved model file or a seeded fresh agent — both
//! reproducible), wraps it in a [`BatchMoccEvaluator`], and drives the
//! same sharded runner, one cell per call. Specs without `mocc` schemes
//! are delegated unchanged, so this is the one entry point a CLI needs;
//! [`run_experiment`] and [`run_experiment_cached`] are its two common
//! spellings.

use crate::agent::MoccAgent;
use crate::batch_eval::{preference_from_spec, BatchMoccEvaluator};
use crate::config::MoccConfig;
use crate::preference::Preference;
use mocc_eval::{
    CacheStats, CellCache, ExperimentSpec, PolicyIdentity, PolicySpec, RunOptions, SchemeRegistry,
    SchemeSpec, SpecError, SweepReport, SweepRunner, Workload,
};
use mocc_store::ResultStore;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
/// nothing). The default preference (served to bare `mocc`
/// labels, and to every competition flow's observation conditioning)
/// is `policy.preference` unless `pref_override` is given (the sweep
/// path overrides it with the scheme's explicit `mocc:<pref>`).
fn evaluator_for(
    agent: &MoccAgent,
    policy: &PolicySpec,
    pref_override: Option<Preference>,
) -> BatchMoccEvaluator {
    let pref = pref_override.unwrap_or_else(|| preference_from_spec(&policy.preference));
    BatchMoccEvaluator::new(agent, pref, policy.initial_rate_frac).with_fast_math(policy.fast_math)
}

/// Builds the evaluator a spec's policy section describes:
/// [`agent_from_policy`], wrapped for `policy.preference` (or
/// `pref_override`) with the section's inference tier.
pub fn evaluator_from_policy(
    policy: &PolicySpec,
    pref_override: Option<Preference>,
) -> Result<BatchMoccEvaluator, SpecError> {
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
/// `mocc` CLI. Baseline-only specs delegate to
/// [`SweepRunner::run_with`]; specs with `mocc` schemes are served by
/// the policy path ([`BatchMoccEvaluator`]), reproducibly materialized
/// from the spec's policy section. The report carries the
/// experiment's name as its controller label and inherits the runner's
/// byte-identity contract (any thread count, with or without a store).
/// With a store, `mocc` cells are keyed by the agent's
/// [`policy_digest`], so a retrained or edited model can never be
/// served another model's cells.
///
/// One restriction on custom registries: in a competition that mixes
/// `mocc` flows with registry schemes, the non-MOCC contenders (and
/// the `tcp_baseline`) must be *built-in* schemes — the policy
/// evaluator resolves them through the built-in vocabulary. Custom
/// schemes compete freely in policy-free experiments.
pub fn run_experiment_with(
    runner: &SweepRunner,
    exp: &ExperimentSpec,
    opts: RunOptions<'_>,
) -> Result<(SweepReport, CacheStats), SpecError> {
    if !exp.needs_policy() {
        return runner.run_with(exp, opts);
    }
    match opts.registry {
        Some(registry) => exp.validate_in(registry)?,
        None => exp.validate()?,
    }
    let policy = exp.policy.as_ref().expect("validation requires a policy");
    let agent = agent_from_policy(policy)?;
    let identity = opts.cache.map(|_| PolicyIdentity {
        digest: policy_digest(&agent),
        preference: policy.preference.label(),
        initial_rate_frac: policy.initial_rate_frac,
        fast_math: policy.fast_math,
    });
    let cache = opts.cache.map(|(store, ts)| CellCache {
        store,
        ts,
        policy: identity.as_ref(),
    });
    Ok(match &exp.workload {
        Workload::Sweep(w) => {
            let pref = w.scheme.mocc_pref().map(|p| preference_from_spec(&p));
            let evaluator = evaluator_for(&agent, policy, pref);
            let spec = exp.to_sweep_spec().expect("sweep workload lowers");
            let cache = cache.map(|c| (w.scheme.label(), c));
            runner.run_cells(&spec, &exp.name, &evaluator, cache)
        }
        Workload::Competition(_) => {
            check_builtin_contenders(exp)?;
            let evaluator = evaluator_for(&agent, policy, None);
            let spec = exp
                .to_competition_spec()
                .expect("competition workload lowers");
            runner.run_competition_cells(&spec, &exp.name, &evaluator, cache)
        }
    })
}

/// Competitions mixing `mocc` flows with registry schemes resolve the
/// non-MOCC contenders (and the `tcp_baseline`) through the built-in
/// vocabulary only — the policy evaluator has no custom registry.
fn check_builtin_contenders(exp: &ExperimentSpec) -> Result<(), SpecError> {
    let builtin = SchemeRegistry::builtin();
    for label in exp.scheme_labels() {
        let spec = SchemeSpec::parse(&label)?;
        if !spec.is_mocc() && builtin.resolve(&spec).is_err() {
            return Err(SpecError::InvalidSpec {
                reason: format!(
                    "scheme {label:?} is registry-custom; competitions with \
                     `mocc` flows resolve non-MOCC contenders through the \
                     built-in vocabulary only"
                ),
            });
        }
    }
    Ok(())
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
    use mocc_eval::{CompetitionSpec, ContenderMix, SweepSpec};

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

    /// Baseline-only specs delegate to the eval-side runner, and the
    /// full spec→JSON→spec→report loop is lossless.
    #[test]
    fn baseline_specs_delegate_and_round_trip() {
        let exp = ExperimentSpec::from_sweep(
            "cubic",
            SchemeSpec::parse("cubic").unwrap(),
            &small_sweep(),
        );
        let runner = SweepRunner::with_threads(2);
        let direct = runner.run(&exp).unwrap();
        let via_core = run_experiment(&runner, &exp).unwrap();
        let via_json = run_experiment(
            &runner,
            &ExperimentSpec::from_json(&exp.to_canonical_json()).unwrap(),
        )
        .unwrap();
        assert_eq!(direct.to_canonical_json(), via_core.to_canonical_json());
        assert_eq!(direct.to_canonical_json(), via_json.to_canonical_json());
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
