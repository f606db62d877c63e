//! Batched MOCC policy evaluation across sweep cells.
//!
//! [`BatchMoccEvaluator`] implements [`mocc_eval::CellEvaluator`] by
//! stepping a whole chunk of simulators in lockstep: each simulator
//! runs in external-agent mode and pauses at its flow's monitor
//! intervals; the paused cells' observations are stacked into one
//! matrix and a single batched forward pass
//! ([`GaussianPolicy::mean_action_batch`]) produces every cell's next
//! rate. One matmul serves many cells, so the per-interval inference
//! cost is amortized `B`-fold while each cell's trajectory stays
//! bitwise identical to a batch of one — the batched forward is pinned
//! (by property test) to equal the scalar path bit for bit, and each
//! simulator only ever consumes its own decisions.
//!
//! The same evaluator also implements
//! [`mocc_eval::CompetitionEvaluator`]: in competition cells every
//! `mocc`/`mocc:<pref>`-labelled flow runs in external-agent mode, so
//! several preference-conditioned MOCC flows can *compete* on one
//! bottleneck while the chunk's monitor-interval decisions are still
//! served from batched forward passes.

use crate::agent::{stats_features, write_obs, MoccAgent};
use crate::config::MoccConfig;
use crate::preference::Preference;
use crate::prefnet::PrefNet;
use mocc_eval::{
    competition_report, CellEvaluator, CellReport, CompetitionCell, CompetitionEvaluator,
    MoccPrefSpec, SchemeCtx, SchemeKind, SchemeRegistry, SchemeSpec, SpecError, SweepCell,
};
use mocc_netsim::cc::{CongestionControl, ExternalRate, FixedRate};
use mocc_netsim::{Scenario, SimResult, Simulator};
use mocc_nn::{ForwardTier, Matrix};
use mocc_rl::{GaussianPolicy, PolicyScratch};
use std::collections::VecDeque;

/// Evaluates sweep cells under a trained MOCC policy with batched
/// inference. The policy drives flow 0 of every cell; any remaining
/// flows are cross traffic paced by [`FixedRate`] at the cell's peak
/// bandwidth (their application pattern, e.g. on/off, still limits
/// what they offer).
pub struct BatchMoccEvaluator {
    policy: GaussianPolicy<PrefNet>,
    cfg: MoccConfig,
    pref: Preference,
    initial_rate_frac: f64,
    batch: usize,
    tier: ForwardTier,
    /// Builds the non-MOCC contenders of competition cells and their
    /// all-TCP friendliness control: the built-in vocabulary.
    registry: SchemeRegistry,
}

impl BatchMoccEvaluator {
    /// Wraps a trained agent for preference `pref`; flow 0 of each cell
    /// starts at `initial_rate_frac` of the cell's peak bandwidth.
    pub fn new(agent: &MoccAgent, pref: Preference, initial_rate_frac: f64) -> Self {
        BatchMoccEvaluator {
            policy: agent.ppo.policy.clone(),
            cfg: agent.cfg,
            pref,
            initial_rate_frac,
            batch: 32,
            tier: ForwardTier::Scalar,
            registry: SchemeRegistry::builtin(),
        }
    }

    /// Overrides the number of cells evaluated per batch (≥ 1).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Selects the approximate fast-math forward tier
    /// (`mocc_nn::simd`) for this evaluator's inference. Off (the
    /// bit-exact scalar reference) by default; unlike `--threads` and
    /// `--batch` this knob *does* change report bytes, so callers must
    /// carry it in the cache-key policy identity.
    pub fn with_fast_math(mut self, enabled: bool) -> Self {
        self.tier = if enabled {
            ForwardTier::Fast
        } else {
            ForwardTier::Scalar
        };
        self
    }

    /// Resolves a competition contender label through the shared
    /// scheme grammar: `Ok(Some(pref))` for `mocc` / `mocc:<pref>`
    /// labels (bare `mocc` uses the evaluator's default preference),
    /// `Ok(None)` for registry labels, and a typed [`SpecError`] for
    /// malformed labels — a typo'd preference can neither silently
    /// fall through to the baseline registry nor panic mid-run when
    /// the spec was validated up front.
    fn mocc_pref(&self, label: &str) -> Result<Option<Preference>, SpecError> {
        let spec = SchemeSpec::parse(label)?;
        Ok(match spec.kind() {
            SchemeKind::MoccDefault => Some(self.pref),
            SchemeKind::Mocc(p) => Some(preference_from_spec(p)),
            SchemeKind::Registry => None,
        })
    }

    /// The lockstep driver behind both evaluator traits. `launch`
    /// names a cell's scenario and how each of its flows is
    /// controlled; `reduce` turns the finished simulation into the
    /// cell's report. Every round advances each live simulator to the
    /// next monitor interval of *any* of its policy-driven flows,
    /// stacks one observation row per paused cell (conditioned on that
    /// flow's preference and history), forwards once, and applies each
    /// decision to the flow that asked for it. A cell's decision
    /// sequence depends only on its own event order, so reports stay
    /// byte-identical across batch sizes and worker counts.
    fn drive<'c, C>(
        &self,
        cells: &'c [C],
        launch: impl Fn(&'c C) -> (&'c Scenario, Vec<FlowControl>),
        reduce: impl Fn(&C, &SimResult) -> CellReport,
    ) -> Vec<CellReport> {
        let obs_dim = self.cfg.obs_dim();
        let mut scratch = PolicyScratch::default();
        let mut obs = Matrix::default();
        let mut means: Vec<f32> = Vec::with_capacity(cells.len());
        let mut reports: Vec<Option<CellReport>> = (0..cells.len()).map(|_| None).collect();

        let mut runs: Vec<CellRun> = cells
            .iter()
            .enumerate()
            .map(|(index, cell)| {
                let (scenario, controls) = launch(cell);
                let peak = scenario.link.trace.max_rate();
                let mut driven = Vec::with_capacity(controls.len());
                let ccs = controls
                    .into_iter()
                    .map(|control| -> Box<dyn CongestionControl> {
                        match control {
                            FlowControl::Policy(pref) => {
                                driven.push(Some(DrivenFlow {
                                    pref,
                                    history: VecDeque::from(vec![[0.0; 3]; self.cfg.history]),
                                }));
                                Box::new(ExternalRate {
                                    initial_rate_bps: self.initial_rate_frac * peak,
                                })
                            }
                            FlowControl::Scheme(cc) => {
                                driven.push(None);
                                cc
                            }
                        }
                    })
                    .collect();
                CellRun {
                    index,
                    sim: Simulator::new(scenario.clone(), ccs),
                    driven,
                    paused: 0,
                }
            })
            .collect();

        while !runs.is_empty() {
            let mut i = 0;
            while i < runs.len() {
                let CellRun {
                    sim,
                    driven,
                    paused,
                    ..
                } = &mut runs[i];
                let finished = loop {
                    let Some((f, stats)) = sim.advance_until_monitor_where(|f| driven[f].is_some())
                    else {
                        break true;
                    };
                    // A departed flow's monitor intervals keep firing
                    // until the horizon; steering it would be a no-op
                    // (it never sends again), so its pauses are drained
                    // here instead of spending batched inference on
                    // them.
                    let departed = sim.scenario().flows[f]
                        .stop
                        .is_some_and(|stop| sim.now() >= stop);
                    if departed {
                        continue;
                    }
                    let flow = driven[f].as_mut().expect("paused flow is policy-driven");
                    flow.history.pop_front();
                    flow.history.push_back(stats_features(&stats));
                    *paused = f;
                    break false;
                };
                if finished {
                    // Horizon reached: reduce to metrics and drop out
                    // of the batch.
                    let run = runs.swap_remove(i);
                    reports[run.index] = Some(reduce(&cells[run.index], &run.sim.result()));
                } else {
                    i += 1;
                }
            }
            if runs.is_empty() {
                break;
            }
            obs.reshape(runs.len(), obs_dim);
            for (r, run) in runs.iter().enumerate() {
                let flow = run.driven[run.paused]
                    .as_ref()
                    .expect("paused flow is policy-driven");
                write_obs(&flow.pref, &flow.history, obs.row_mut(r));
            }
            self.policy
                .mean_action_batch_tier(&obs, &mut means, &mut scratch, self.tier);
            for (run, &mean) in runs.iter_mut().zip(&means) {
                let next = self.cfg.apply_action(run.sim.rate(run.paused), mean);
                run.sim.set_rate(run.paused, next);
            }
        }
        reports
            .into_iter()
            .map(|r| r.expect("every cell produced a report"))
            .collect()
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

/// How one flow of a batched cell is controlled.
enum FlowControl {
    /// Externally driven by the policy under this preference.
    Policy(Preference),
    /// Its own congestion controller.
    Scheme(Box<dyn CongestionControl>),
}

/// Observation state of one policy-driven flow.
struct DrivenFlow {
    pref: Preference,
    history: VecDeque<[f32; 3]>,
}

/// Per-cell in-flight state while a batch runs.
struct CellRun {
    index: usize,
    sim: Simulator,
    /// By flow id: `Some` for every policy-driven flow.
    driven: Vec<Option<DrivenFlow>>,
    /// The flow whose monitor interval paused the simulator this round.
    paused: usize,
}

impl CellEvaluator for BatchMoccEvaluator {
    fn batch_size(&self) -> usize {
        self.batch
    }

    fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
        self.drive(
            cells,
            |cell| {
                let peak = cell.scenario.link.trace.max_rate();
                let controls = (0..cell.scenario.flows.len())
                    .map(|flow| match flow {
                        0 => FlowControl::Policy(self.pref),
                        _ => FlowControl::Scheme(Box::new(FixedRate::new(peak))),
                    })
                    .collect();
                (&cell.scenario, controls)
            },
            CellReport::from_sim,
        )
    }
}

/// Competition cells through the same batched policy: every flow whose
/// label is `mocc` / `mocc:<pref>` runs in external-agent mode — so one
/// cell may hold *several* competing MOCC flows with different
/// preferences — and every paused flow across the whole chunk is
/// served from one batched forward pass per lockstep round. Non-MOCC
/// labels, and the all-TCP friendliness control, are built by the
/// built-in scheme registry.
impl CompetitionEvaluator for BatchMoccEvaluator {
    fn batch_size(&self) -> usize {
        self.batch
    }

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
                    .map(
                        |label| match self.mocc_pref(label).unwrap_or_else(unvalidated) {
                            Some(pref) => FlowControl::Policy(pref),
                            None => FlowControl::Scheme(
                                self.registry
                                    .instantiate_label(label, &ctx)
                                    .unwrap_or_else(unvalidated),
                            ),
                        },
                    )
                    .collect();
                (&cell.scenario, controls)
            },
            |cell, res| competition_report(cell, res, &self.registry),
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

    fn evaluator() -> BatchMoccEvaluator {
        let mut rng = StdRng::seed_from_u64(11);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        BatchMoccEvaluator::new(&agent, Preference::throughput(), 0.3)
    }

    /// The core determinism contract: the report is byte-identical
    /// whether cells are evaluated one at a time or 32 at a time, on
    /// one worker or several — batching is pure amortization.
    #[test]
    fn batch_size_cannot_change_the_report() {
        let spec = spec();
        let runner1 = SweepRunner::with_threads(1);
        let runner4 = SweepRunner::with_threads(4);
        let (single, _) =
            runner1.run_cells(&spec, "mocc-batched", &evaluator().with_batch_size(1), None);
        let (batched, _) = runner4.run_cells(
            &spec,
            "mocc-batched",
            &evaluator().with_batch_size(32),
            None,
        );
        assert_eq!(single.to_canonical_json(), batched.to_canonical_json());
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

    /// The competition determinism contract (acceptance criterion):
    /// the report is byte-identical whether competing-MOCC cells are
    /// evaluated one at a time on one worker or 8 at a time on four.
    #[test]
    fn competition_batch_size_cannot_change_the_report() {
        let spec = competition_spec();
        let (single, _) = SweepRunner::with_threads(1).run_competition_cells(
            &spec,
            "mocc-competition",
            &evaluator().with_batch_size(1),
            None,
        );
        let (batched, _) = SweepRunner::with_threads(4).run_competition_cells(
            &spec,
            "mocc-competition",
            &evaluator().with_batch_size(8),
            None,
        );
        assert_eq!(single.to_canonical_json(), batched.to_canonical_json());
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
    fn mocc_labels_parse_and_reject() {
        let ev = evaluator();
        assert_eq!(ev.mocc_pref("cubic").unwrap(), None);
        assert_eq!(
            ev.mocc_pref("mocc").unwrap(),
            Some(Preference::throughput())
        );
        assert_eq!(
            ev.mocc_pref("mocc:lat").unwrap(),
            Some(Preference::latency())
        );
        let w = ev.mocc_pref("mocc:0.5,0.3,0.2").unwrap().unwrap();
        assert!((w.thr - 0.5).abs() < 1e-6);
    }

    /// A typo'd preference is a typed error — it neither panics nor
    /// silently falls through to the baseline registry.
    #[test]
    fn malformed_mocc_label_is_a_typed_error() {
        match evaluator().mocc_pref("mocc:fast") {
            Err(SpecError::MalformedMoccPref { label, .. }) => assert_eq!(label, "mocc:fast"),
            other => panic!("expected MalformedMoccPref, got {other:?}"),
        }
    }
}
