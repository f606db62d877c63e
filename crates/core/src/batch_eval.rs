//! The evaluator behind every spec: MOCC policy flows and registry
//! schemes in sweep and competition cells.
//!
//! [`BatchMoccEvaluator`] implements [`mocc_eval::CellEvaluator`] and
//! [`mocc_eval::CompetitionEvaluator`]. Every `mocc`/`mocc:<pref>` flow
//! runs in external-agent mode: the simulator pauses at that flow's
//! monitor intervals, its observation goes through one forward pass
//! ([`GaussianPolicy::mean_action_batch`] on a one-row matrix,
//! which is what the paper's deployment does — one inference per flow
//! per monitor interval), and the resulting rate is applied before the
//! simulator resumes. Several preference-conditioned MOCC flows can so
//! *compete* on one bottleneck, each steered at its own intervals.
//! Every other flow — each flow of a registry-scheme sweep, a
//! competition's other contenders and its all-TCP friendliness control
//! — is built by the evaluator's scheme registry, so a cell without a
//! policy flow is one plain simulation to its horizon. Cells are
//! evaluated one at a time; a cell's trajectory depends on nothing but
//! its own events.
//!
//! Nothing here batches across cells: stepping a chunk of simulators
//! in lockstep behind one matmul was measured slower at every chunk
//! size (docs/PERFORMANCE.md, "Why cells are evaluated one at a
//! time"). The type and `eval_batch` keep their names because the
//! frozen benchmark harness imports them.

use crate::agent::{stats_features, MoccAgent, PolicyFlow};
use crate::config::MoccConfig;
use crate::preference::Preference;
use crate::prefnet::PrefNet;
use mocc_eval::{
    competition_report, CellEvaluator, CellReport, CompetitionCell, CompetitionEvaluator,
    MoccPrefSpec, SchemeCtx, SchemeKind, SchemeRegistry, SchemeSpec, SpecError, SweepCell,
};
use mocc_netsim::cc::{CongestionControl, ExternalRate, FixedRate};
use mocc_netsim::{Scenario, SimResult, Simulator};
use mocc_nn::Matrix;
use mocc_rl::{GaussianPolicy, PolicyScratch};
use std::sync::OnceLock;

/// A trained policy and how it serves its flows.
struct Served {
    policy: GaussianPolicy<PrefNet>,
    cfg: MoccConfig,
    /// The preference of bare `mocc` labels.
    pref: Preference,
    /// A policy flow starts at this fraction of the cell's peak
    /// bandwidth.
    initial_rate_frac: f64,
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
    /// The scheme of a sweep's flows: bare `mocc` unless set by
    /// [`BatchMoccEvaluator::sweeping`].
    sweep_scheme: SchemeSpec,
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
            served: Some(Served {
                policy: agent.ppo.policy.clone(),
                cfg: agent.cfg,
                pref,
                initial_rate_frac,
            }),
            registry: builtin_registry(),
            sweep_scheme: bare_mocc(),
        }
    }
}

impl<'r> BatchMoccEvaluator<'r> {
    /// The evaluator of a spec validated against `registry`: the policy
    /// `policy` serves (`None` for a spec without `mocc` flows) drives
    /// the `mocc` flows, and `registry` builds every other flow.
    pub(crate) fn of_spec(
        registry: &'r SchemeRegistry,
        policy: Option<BatchMoccEvaluator<'_>>,
    ) -> Self {
        BatchMoccEvaluator {
            served: policy.and_then(|p| p.served),
            registry,
            sweep_scheme: bare_mocc(),
        }
    }

    /// Runs `scheme` on a sweep's flows.
    pub(crate) fn sweeping(self, scheme: &SchemeSpec) -> Self {
        BatchMoccEvaluator {
            sweep_scheme: scheme.clone(),
            ..self
        }
    }

    /// Does nothing: cells are evaluated one at a time whatever the
    /// argument. Kept only because the frozen benchmark harness calls
    /// it (`benchmark/src/layers/sweep.rs`, `policy_metrics`).
    pub fn with_batch_size(self, _batch: usize) -> Self {
        self
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

    /// The driver behind both evaluator traits. `launch` names a
    /// cell's scenario and how each of its flows is controlled;
    /// `finish` takes the simulator at the horizon and returns what the
    /// caller wants of it (the cell's report, or its event counts).
    /// Each cell's simulator advances to the next monitor interval of
    /// *any* of its policy-driven flows, that flow's observation
    /// (conditioned on its preference and history) is forwarded, and
    /// the decision is applied to the flow that asked for it — until
    /// the horizon, which a cell without policy flows runs straight to.
    fn drive<'c, C, R>(
        &self,
        cells: &'c [C],
        launch: impl Fn(&'c C) -> (&'c Scenario, Vec<FlowControl>),
        finish: impl Fn(&C, Simulator) -> R,
    ) -> Vec<R> {
        let mut scratch = PolicyScratch::default();
        let mut obs = Matrix::default();
        if let Some(served) = &self.served {
            obs.reshape(1, served.cfg.obs_dim());
        }
        let mut means: Vec<f32> = Vec::with_capacity(1);
        cells
            .iter()
            .map(|cell| {
                let (scenario, controls) = launch(cell);
                let peak = scenario.link.trace.max_rate();
                // By flow id: `Some` for every policy-driven flow.
                let mut driven = Vec::with_capacity(controls.len());
                let ccs = controls
                    .into_iter()
                    .map(|control| -> Box<dyn CongestionControl> {
                        match control {
                            FlowControl::Policy(pref) => {
                                let served = self.served();
                                driven.push(Some(PolicyFlow::new(&served.cfg, Some(pref))));
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
                while let Some((f, stats)) =
                    sim.advance_until_monitor_where(|f| driven[f].is_some())
                {
                    // A departed flow's monitor intervals keep firing
                    // until the horizon; steering it would be a no-op
                    // (it never sends again), so its pauses are drained
                    // here instead of spending inference on them.
                    let departed = sim.scenario().flows[f]
                        .stop
                        .is_some_and(|stop| sim.now() >= stop);
                    if departed {
                        continue;
                    }
                    let served = self.served();
                    let flow = driven[f].as_mut().expect("paused flow is policy-driven");
                    let next =
                        flow.decide(&served.cfg, stats_features(&stats), sim.rate(f), |row| {
                            obs.row_mut(0).copy_from_slice(row);
                            served
                                .policy
                                .mean_action_batch(&obs, &mut means, &mut scratch);
                            means[0]
                        });
                    sim.set_rate(f, next);
                }
                finish(cell, sim)
            })
            .collect()
    }

    /// The controls of a sweep cell's flows.
    fn sweep_controls(&self, cell: &SweepCell) -> Vec<FlowControl> {
        let pref = self.mocc_pref(&self.sweep_scheme);
        let ctx = SchemeCtx {
            peak_rate_bps: cell.scenario.link.trace.max_rate(),
        };
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

    /// What `probe` reads off a sweep cell's finished simulator —
    /// [`Simulator::event_counts`], say — driven exactly as
    /// [`CellEvaluator::eval_batch`] drives it.
    pub fn sweep_cell_probe<T>(&self, cell: &SweepCell, probe: impl Fn(&Simulator) -> T) -> T {
        let mut probed = self.drive(
            std::slice::from_ref(cell),
            |cell| (&cell.scenario, self.sweep_controls(cell)),
            |_, sim| probe(&sim),
        );
        probed.remove(0)
    }
}

/// A cell's report from its finished simulator. The simulator is freed
/// before `reduce`, which may run a second one (a competition's
/// friendliness control).
fn report_of<C>(
    cell: &C,
    sim: Simulator,
    reduce: impl Fn(&C, &SimResult) -> CellReport,
) -> CellReport {
    let result = sim.result();
    drop(sim);
    reduce(cell, &result)
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

impl CellEvaluator for BatchMoccEvaluator<'_> {
    fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
        self.drive(
            cells,
            |cell| (&cell.scenario, self.sweep_controls(cell)),
            |cell, sim| report_of(cell, sim, CellReport::from_sim),
        )
    }
}

/// Competition cells: every flow whose label is `mocc` / `mocc:<pref>`
/// runs in external-agent mode — so one cell may hold *several*
/// competing MOCC flows with different preferences, each served at its
/// own monitor intervals. The registry builds every other contender
/// and the all-TCP friendliness control.
impl CompetitionEvaluator for BatchMoccEvaluator<'_> {
    fn eval_batch(&self, cells: &[CompetitionCell]) -> Vec<CellReport> {
        self.drive(
            cells,
            |cell| {
                let ctx = SchemeCtx {
                    peak_rate_bps: cell.scenario.link.trace.max_rate(),
                };
                let controls = cell
                    .labels
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
                    .collect();
                (&cell.scenario, controls)
            },
            |cell, sim| {
                report_of(cell, sim, |cell, res| {
                    competition_report(cell, res, self.registry)
                })
            },
        )
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
            let runner = SweepRunner::with_threads(threads);
            runner.run_cells(&spec, "mocc", &evaluator(), None).0
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
            let runner = SweepRunner::with_threads(threads);
            runner
                .run_competition_cells(&spec, "mocc-competition", &evaluator(), None)
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
