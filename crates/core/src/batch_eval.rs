//! The evaluator behind every spec: MOCC policy flows and registry
//! schemes in sweep and competition cells.
//!
//! [`BatchMoccEvaluator`] implements [`mocc_eval::CellEvaluator`] and
//! [`mocc_eval::CompetitionEvaluator`]; `run_experiment_with` builds
//! one from the spec and hands it to `SweepRunner::run`. Every
//! `mocc`/`mocc:<pref>` flow runs in external-agent mode: the simulator
//! pauses at that flow's monitor intervals, its history goes through
//! one forward pass ([`GaussianPolicy::mean_action_batch`] on a one-row
//! matrix, which is what the paper's deployment does — one inference
//! per flow per monitor interval), and the resulting rate is applied
//! before the simulator resumes. The preference is a constant of the
//! flow, so the forward is the policy with that preference folded into
//! its trunk ([`PrefNet::fold_preference`], once per preference per
//! evaluator), whose mean equals the full forward's bit for bit.
//! Several preference-conditioned MOCC flows can so *compete* on one
//! bottleneck, each steered at its own intervals. Every other flow —
//! each flow of a registry-scheme sweep, a competition's other
//! contenders and its all-TCP friendliness control — is built by the
//! evaluator's scheme registry, so a cell without a policy flow is one
//! plain simulation to its horizon. Both workloads simulate a cell the
//! same way (`BatchMoccEvaluator::simulate`); a cell's trajectory
//! depends on nothing but its own events.
//!
//! A friendliness control depends on a cell only through its scenario
//! up to the end of the overlap window, and not on the cell seed at
//! zero loss, so the evaluator's [`ControlMemo`] simulates each
//! distinct control of a run once, cut at that end, and keeps its
//! window shares; [`mocc_eval::competition_report`] stays the per-cell
//! reference the shared path is held to.
//!
//! Nothing here batches across cells: stepping a chunk of simulators
//! in lockstep behind one matmul was measured slower at every chunk
//! size (docs/PERFORMANCE.md, "Why cells are evaluated one at a
//! time"). The type and `eval_batch` keep their names because the
//! frozen benchmark harness imports them.

use crate::agent::{stats_features, MoccAgent, PolicyFlow};
use crate::config::MoccConfig;
use crate::experiment::{agent_from_policy, policy_digest};
use crate::preference::Preference;
use crate::prefnet::PrefNet;
use mocc_eval::{
    CellEvaluator, CellReport, CompetitionCell, CompetitionEvaluator, ControlMemo, ControlRuns,
    ExperimentSpec, MoccPrefSpec, PolicyIdentity, SchemeCtx, SchemeKind, SchemeRegistry,
    SchemeSpec, SpecError, SweepCell, Workload,
};
use mocc_netsim::cc::{CongestionControl, ExternalRate, FixedRate};
use mocc_netsim::{Scenario, Simulator};
use mocc_nn::{Matrix, Mlp};
use mocc_rl::{GaussianPolicy, PolicyScratch};
use std::sync::{Arc, Mutex, OnceLock};

/// A policy folded for one preference ([`PrefNet::fold_preference`]).
type Folded = Arc<GaussianPolicy<Mlp>>;

/// A trained policy and how it serves its flows.
struct Served {
    policy: GaussianPolicy<PrefNet>,
    cfg: MoccConfig,
    /// The preference of bare `mocc` labels.
    pref: Preference,
    /// A policy flow starts at this fraction of the cell's peak
    /// bandwidth.
    initial_rate_frac: f64,
    /// `policy` folded for each preference served so far, by the
    /// preference's bits: the sub-network runs once per preference.
    folded: Mutex<Vec<([u32; 3], Folded)>>,
}

impl Served {
    fn new(agent: &MoccAgent, pref: Preference, initial_rate_frac: f64) -> Self {
        Served {
            policy: agent.ppo.policy.clone(),
            cfg: agent.cfg,
            pref,
            initial_rate_frac,
            folded: Mutex::new(Vec::new()),
        }
    }

    /// The policy with `pref` folded in, folded on first use.
    fn folded(&self, pref: Preference) -> Folded {
        let pref = pref.as_array();
        let bits = pref.map(f32::to_bits);
        let mut folded = self.folded.lock().expect("fold lock");
        if let Some((_, policy)) = folded.iter().find(|(b, _)| *b == bits) {
            return Arc::clone(policy);
        }
        let policy = Arc::new(PrefNet::fold_preference(&self.policy, &pref));
        folded.push((bits, Arc::clone(&policy)));
        policy
    }
}

/// Evaluates sweep and competition cells: a MOCC policy drives the
/// `mocc` flows and a scheme registry builds the others. A sweep under
/// a `mocc` scheme has the policy drive flow 0 of every cell, with any
/// remaining flows as cross traffic paced by [`FixedRate`] at the
/// cell's peak bandwidth (their application pattern, e.g. on/off,
/// still limits what they offer); under a registry scheme every flow
/// runs that scheme.
pub struct BatchMoccEvaluator<'r> {
    /// `None` for a spec without `mocc` flows.
    served: Option<Served>,
    /// Builds every flow the policy does not drive, and the all-TCP
    /// friendliness control of competition cells.
    registry: &'r SchemeRegistry,
    /// The scheme of a sweep's flows: the spec's, or bare `mocc` for an
    /// evaluator built by [`BatchMoccEvaluator::new`].
    sweep_scheme: SchemeSpec,
    /// The friendliness controls of the competition cells evaluated so
    /// far.
    controls: ControlMemo,
}

/// The built-in vocabulary, built once.
fn builtin_registry() -> &'static SchemeRegistry {
    static BUILTIN: OnceLock<SchemeRegistry> = OnceLock::new();
    BUILTIN.get_or_init(SchemeRegistry::builtin)
}

fn bare_mocc() -> SchemeSpec {
    SchemeSpec::parse("mocc").expect("`mocc` is a scheme label")
}

impl BatchMoccEvaluator<'static> {
    /// Wraps a trained agent for preference `pref`, with the built-in
    /// registry building every other flow; a policy flow starts at
    /// `initial_rate_frac` of the cell's peak bandwidth.
    pub fn new(agent: &MoccAgent, pref: Preference, initial_rate_frac: f64) -> Self {
        BatchMoccEvaluator {
            served: Some(Served::new(agent, pref, initial_rate_frac)),
            registry: builtin_registry(),
            sweep_scheme: bare_mocc(),
            controls: ControlMemo::default(),
        }
    }
}

impl<'r> BatchMoccEvaluator<'r> {
    /// The evaluator of `exp`, validated against `registry`: the agent
    /// its policy section describes drives the `mocc` flows (built only
    /// when a `mocc` label needs one), `registry` builds every other
    /// flow, and a sweep's flows run the sweep's scheme. With `keyed`,
    /// also the served policy's cache identity.
    pub(crate) fn for_experiment(
        exp: &ExperimentSpec,
        registry: &'r SchemeRegistry,
        keyed: bool,
    ) -> Result<(Self, Option<PolicyIdentity>), SpecError> {
        let (mut served, mut identity) = (None, None);
        if let Some(policy) = exp.policy.as_ref().filter(|_| exp.needs_policy()) {
            let agent = agent_from_policy(policy)?;
            identity = keyed.then(|| PolicyIdentity {
                digest: policy_digest(&agent),
                preference: policy.preference.label(),
                initial_rate_frac: policy.initial_rate_frac,
            });
            let pref = preference_from_spec(&policy.preference);
            served = Some(Served::new(&agent, pref, policy.initial_rate_frac));
        }
        let sweep_scheme = match &exp.workload {
            Workload::Sweep(w) => w.scheme.clone(),
            Workload::Competition(_) => bare_mocc(),
        };
        let evaluator = BatchMoccEvaluator {
            served,
            registry,
            sweep_scheme,
            controls: ControlMemo::default(),
        };
        Ok((evaluator, identity))
    }

    /// Does nothing: cells are evaluated one at a time whatever the
    /// argument. Kept only because the frozen benchmark harness calls
    /// it (`benchmark/src/layers/sweep.rs`, `policy_metrics`).
    pub fn with_batch_size(self, _batch: usize) -> Self {
        self
    }

    /// The friendliness control simulations this evaluator has run.
    pub fn control_runs(&self) -> ControlRuns {
        self.controls.runs()
    }

    /// How many preferences this evaluator has folded into its policy
    /// — each one forward of the preference sub-network.
    pub fn preference_folds(&self) -> usize {
        self.served
            .as_ref()
            .map_or(0, |served| served.folded.lock().expect("fold lock").len())
    }

    /// The policy serving this evaluator's `mocc` flows.
    fn served(&self) -> &Served {
        self.served
            .as_ref()
            .expect("a validated spec with `mocc` flows has a policy")
    }

    /// The preference the policy drives a `scheme` flow at: bare `mocc`
    /// the evaluator's default, `mocc:<pref>` its own; `None` for a
    /// registry scheme.
    fn mocc_pref(&self, scheme: &SchemeSpec) -> Option<Preference> {
        match scheme.kind() {
            SchemeKind::MoccDefault => Some(self.served().pref),
            SchemeKind::Mocc(p) => Some(preference_from_spec(p)),
            SchemeKind::Registry => None,
        }
    }

    /// Simulates one cell to its horizon, `controls` saying how each
    /// of the scenario's flows is controlled, and returns the finished
    /// simulator. It advances to the next monitor interval of *any* of
    /// the cell's policy-driven flows, forwards that flow's history
    /// through the policy folded for its preference and applies the
    /// decision to the flow that asked for it — until the horizon,
    /// which a cell without policy flows runs straight to.
    fn simulate(&self, scenario: &Scenario, controls: Vec<FlowControl>) -> Simulator {
        let mut scratch = PolicyScratch::default();
        let mut obs = Matrix::default();
        if let Some(served) = &self.served {
            obs.reshape(1, 3 * served.cfg.history);
        }
        let mut means: Vec<f32> = Vec::with_capacity(1);
        let peak = scenario.link.trace.max_rate();
        // By flow id: `Some` for every policy-driven flow.
        let mut driven = Vec::with_capacity(controls.len());
        let ccs = controls
            .into_iter()
            .map(|control| -> Box<dyn CongestionControl> {
                match control {
                    FlowControl::Policy(pref) => {
                        let served = self.served();
                        let flow = PolicyFlow::new(&served.cfg, None);
                        driven.push(Some((flow, served.folded(pref))));
                        Box::new(ExternalRate {
                            initial_rate_bps: served.initial_rate_frac * peak,
                        })
                    }
                    FlowControl::Scheme(cc) => {
                        driven.push(None);
                        cc
                    }
                }
            })
            .collect();
        let mut sim = Simulator::new(scenario.clone(), ccs);
        while let Some((f, stats)) = sim.advance_until_monitor_where(|f| driven[f].is_some()) {
            // A departed flow's monitor intervals keep firing until the
            // horizon; steering it would be a no-op (it never sends
            // again), so its pauses are drained here instead of
            // spending inference on them.
            let departed = sim.scenario().flows[f]
                .stop
                .is_some_and(|stop| sim.now() >= stop);
            if departed {
                continue;
            }
            let (flow, policy) = driven[f].as_mut().expect("paused flow is policy-driven");
            let next = flow.decide(
                &self.served().cfg,
                stats_features(&stats),
                sim.rate(f),
                |row| {
                    obs.row_mut(0).copy_from_slice(row);
                    policy.mean_action_batch(&obs, &mut means, &mut scratch);
                    means[0]
                },
            );
            sim.set_rate(f, next);
        }
        sim
    }

    /// The controls of a sweep cell's flows.
    fn sweep_controls(&self, cell: &SweepCell) -> Vec<FlowControl> {
        let pref = self.mocc_pref(&self.sweep_scheme);
        let ctx = SchemeCtx::of(&cell.scenario);
        (0..cell.scenario.flows.len())
            .map(|flow| match pref {
                Some(pref) if flow == 0 => FlowControl::Policy(pref),
                Some(_) => FlowControl::Scheme(Box::new(FixedRate::new(ctx.peak_rate_bps))),
                None => FlowControl::Scheme(
                    self.registry
                        .instantiate(&self.sweep_scheme, &ctx)
                        .unwrap_or_else(unvalidated),
                ),
            })
            .collect()
    }

    /// The controls of a competition cell's flows.
    fn competition_controls(&self, cell: &CompetitionCell) -> Vec<FlowControl> {
        let ctx = SchemeCtx::of(&cell.scenario);
        cell.labels
            .iter()
            .map(|label| {
                let scheme = SchemeSpec::parse(label).unwrap_or_else(unvalidated);
                match self.mocc_pref(&scheme) {
                    Some(pref) => FlowControl::Policy(pref),
                    None => FlowControl::Scheme(
                        self.registry
                            .instantiate(&scheme, &ctx)
                            .unwrap_or_else(unvalidated),
                    ),
                }
            })
            .collect()
    }

    /// What `probe` reads off a sweep cell's finished simulator —
    /// [`Simulator::event_counts`], say — simulated exactly as
    /// [`CellEvaluator::eval_batch`] simulates it.
    pub fn sweep_cell_probe<T>(&self, cell: &SweepCell, probe: impl Fn(&Simulator) -> T) -> T {
        probe(&self.simulate(&cell.scenario, self.sweep_controls(cell)))
    }
}

/// Maps a declarative [`MoccPrefSpec`] (the parsed `<pref>` part of a
/// `mocc:<pref>` label) onto a concrete, normalized [`Preference`].
pub fn preference_from_spec(spec: &MoccPrefSpec) -> Preference {
    match spec {
        MoccPrefSpec::Throughput => Preference::throughput(),
        MoccPrefSpec::Latency => Preference::latency(),
        MoccPrefSpec::Balanced => Preference::balanced(),
        MoccPrefSpec::Weights([t, l, s]) => Preference::new(*t as f32, *l as f32, *s as f32),
    }
}

/// Every spec-driven path validates labels before any cell runs, so a
/// label that fails to resolve mid-run means a spec bypassed
/// validation.
fn unvalidated<T>(e: SpecError) -> T {
    panic!("{e} (spec not validated?)")
}

/// How one flow of a cell is controlled.
enum FlowControl {
    /// Externally driven by the policy under this preference.
    Policy(Preference),
    /// Its own congestion controller.
    Scheme(Box<dyn CongestionControl>),
}

// In both impls the simulator is a temporary of the `let`, freed
// before the reduction, which may run a second one (a competition's
// friendliness control).
impl CellEvaluator for BatchMoccEvaluator<'_> {
    fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
        cells
            .iter()
            .map(|cell| {
                let res = self
                    .simulate(&cell.scenario, self.sweep_controls(cell))
                    .result();
                CellReport::from_sim(cell, &res)
            })
            .collect()
    }
}

/// Competition cells: every flow whose label is `mocc` / `mocc:<pref>`
/// runs in external-agent mode — so one cell may hold *several*
/// competing MOCC flows with different preferences, each served at its
/// own monitor intervals. The registry builds every other contender
/// and the all-TCP friendliness control.
impl CompetitionEvaluator for BatchMoccEvaluator<'_> {
    fn eval_batch(&self, cells: &[CompetitionCell]) -> Vec<CellReport> {
        cells
            .iter()
            .map(|cell| {
                let res = self
                    .simulate(&cell.scenario, self.competition_controls(cell))
                    .result();
                self.controls.report(cell, &res, self.registry)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_eval::{FlowLoad, SweepRunner, SweepSpec, TraceShape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> SweepSpec {
        SweepSpec {
            bandwidth_mbps: vec![4.0, 8.0],
            owd_ms: vec![10, 30],
            queue_pkts: vec![100],
            loss: vec![0.0, 0.01],
            shapes: vec![TraceShape::Constant],
            loads: vec![FlowLoad::Steady(1), FlowLoad::OnOffCross(1)],
            duration_s: 3,
            mss_bytes: 1500,
            seed: 5,
            agent_mi: true,
        }
    }

    fn evaluator() -> BatchMoccEvaluator<'static> {
        let mut rng = StdRng::seed_from_u64(11);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        BatchMoccEvaluator::new(&agent, Preference::throughput(), 0.3)
    }

    /// The core determinism contract: the report is byte-identical on
    /// one worker or several — a cell's trajectory depends on nothing
    /// but its own events.
    #[test]
    fn thread_count_cannot_change_the_report() {
        let spec = spec();
        let run = |threads| {
            let exp = ExperimentSpec::from_sweep("mocc", bare_mocc(), &spec);
            SweepRunner::with_threads(threads)
                .run(&exp, &evaluator(), None)
                .0
        };
        let (single, quad) = (run(1), run(4));
        assert_eq!(single.to_canonical_json(), quad.to_canonical_json());
        assert_eq!(single.cells.len(), spec.cell_count());
        assert!(single.cells.iter().all(|c| c.goodput_mbps > 0.0));
    }

    /// The policy must actually be driving: the controlled flow's rate
    /// departs from its initial value.
    #[test]
    fn policy_controls_the_rate() {
        let cells = spec().expand();
        let reports = CellEvaluator::eval_batch(&evaluator(), &cells[..2]);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.goodput_mbps > 0.0, "{r:?}");
            assert!(r.utilization > 0.0, "{r:?}");
        }
    }

    fn competition_spec() -> mocc_eval::CompetitionSpec {
        use mocc_eval::{CompetitionSpec, ContenderMix};
        CompetitionSpec {
            mixes: vec![
                ContenderMix::duel("mocc:thr", "mocc:lat"),
                ContenderMix::duel("mocc:bal", "cubic"),
                ContenderMix::staircase("mocc:bal", 2, 1.0),
            ],
            bandwidth_mbps: vec![8.0],
            owd_ms: vec![10, 30],
            duration_s: 4,
            seed: 5,
            ..CompetitionSpec::quick()
        }
    }

    /// The competition determinism contract: the report is
    /// byte-identical whether competing-MOCC cells run on one worker
    /// or four.
    #[test]
    fn competition_thread_count_cannot_change_the_report() {
        let spec = competition_spec();
        let run = |threads| {
            let exp = ExperimentSpec::from_competition("mocc-competition", &spec);
            SweepRunner::with_threads(threads)
                .run(&exp, &evaluator(), None)
                .0
        };
        let (single, quad) = (run(1), run(4));
        assert_eq!(single.to_canonical_json(), quad.to_canonical_json());
        assert_eq!(single.cells.len(), spec.cell_count());
        assert!(single.cells.iter().all(|c| c.goodput_mbps > 0.0));
    }

    /// Mixed-preference MOCC pairs: both policy-driven flows move real
    /// traffic (neither starves outright at this horizon) and the
    /// competition metrics come out finite where defined.
    #[test]
    fn competing_mocc_flows_are_both_driven() {
        let cells = competition_spec().expand();
        let reports = CompetitionEvaluator::eval_batch(&evaluator(), &cells);
        for r in &reports {
            assert!(r.goodput_mbps > 0.0, "{r:?}");
            assert!(r.jain > 0.0 && r.jain <= 1.0, "{r:?}");
            if let Some(f) = r.friendliness {
                assert!(f.is_finite() && f >= 0.0, "{r:?}");
            }
        }
    }

    /// Shared controls are per-cell controls: at 1, 2 and 4 workers
    /// every report equals the cell simulated alone and reduced by
    /// [`competition_report`], which runs its own control to the full
    /// horizon — policy duels and staircases, a mix of baseline flows
    /// (its own control), under the built-in `cubic` baseline and a
    /// custom registry's `aimd`. Each run simulates each distinct
    /// control once and folds each preference once.
    #[test]
    fn shared_controls_equal_per_cell_controls() {
        use mocc_eval::{
            competition_report, CompetitionSpec, ContenderMix, ControlRuns, PolicySpec,
        };
        use mocc_netsim::cc::Aimd;
        let registry =
            SchemeRegistry::builtin().with_scheme("aimd", "test AIMD", |_| Box::new(Aimd::new()));
        for (baseline, mixes) in [
            (
                "cubic",
                [
                    "duel:mocc:thr+cubic",
                    "duel:bbr+mocc:lat",
                    "stair:cubic:3x1",
                    "stair:mocc:thr:3x1",
                ],
            ),
            (
                "aimd",
                [
                    "duel:mocc:thr+aimd",
                    "duel:cubic+mocc:thr",
                    "stair:aimd:3x1",
                    "incast:mocc:lat:3x1",
                ],
            ),
        ] {
            let spec = CompetitionSpec {
                mixes: mixes
                    .iter()
                    .map(|m| ContenderMix::parse(m).unwrap())
                    .collect(),
                bandwidth_mbps: vec![8.0],
                owd_ms: vec![10, 30],
                duration_s: 5,
                seed: 5,
                tcp_baseline: baseline.to_string(),
                ..CompetitionSpec::quick()
            };
            let mut exp = ExperimentSpec::from_competition("shared-controls", &spec);
            exp.policy = Some(PolicySpec::default());
            let fresh = || {
                BatchMoccEvaluator::for_experiment(&exp, &registry, false)
                    .unwrap()
                    .0
            };
            let ev = fresh();
            let cells: Vec<CellReport> = spec
                .expand()
                .iter()
                .map(|cell| {
                    let res = ev
                        .simulate(&cell.scenario, ev.competition_controls(cell))
                        .result();
                    competition_report(cell, &res, &registry)
                })
                .collect();
            let want = mocc_eval::SweepReport::new(&exp.name, exp.seed, exp.duration_s, cells)
                .to_canonical_json();
            for threads in [1, 2, 4] {
                let ev = fresh();
                let (got, _) = SweepRunner::with_threads(threads).run(&exp, &ev, None);
                assert_eq!(
                    got.to_canonical_json(),
                    want,
                    "{baseline}, {threads} thread(s)"
                );
                // Per network: one 2-flow duel control (5 s) and one
                // 3-flow control (cut at the staircase's first leave,
                // 3 s, or the incast's 5 s horizon).
                let horizon_s = if baseline == "cubic" { 16 } else { 20 };
                assert_eq!(
                    ev.control_runs(),
                    ControlRuns {
                        simulations: 4,
                        horizon_s
                    },
                    "{baseline}, {threads} thread(s)"
                );
                assert_eq!(ev.preference_folds(), 2, "{baseline}, {threads} thread(s)");
            }
        }
    }

    #[test]
    fn mocc_labels_resolve_to_their_preferences() {
        let ev = evaluator();
        let pref = |label: &str| ev.mocc_pref(&SchemeSpec::parse(label).unwrap());
        assert_eq!(pref("cubic"), None);
        assert_eq!(pref("mocc"), Some(Preference::throughput()));
        assert_eq!(pref("mocc:lat"), Some(Preference::latency()));
        let w = pref("mocc:0.5,0.3,0.2").unwrap();
        assert!((w.thr - 0.5).abs() < 1e-6);
    }
}
