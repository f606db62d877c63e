//! Replay of `mocc run <doc>` for the three plain sweeps, and the cell
//! pipelines the cache and serve replays share with it.
//!
//! Registry schemes run through the same calls `mocc_eval::run_cell`
//! and `run_competition_cell` make. Policy sweeps follow
//! `BatchMoccEvaluator::eval_batch` step for step — lockstep chunks,
//! one batched forward per round — from the same public functions, so
//! that simulator, forward pass and glue get a span each. Policy
//! *competitions* go through the library's evaluator whole (one span
//! per chunk): their 32 cells of 680 do not justify a second copy of
//! the multi-flow lockstep loop. Either way the bytes of every report
//! are compared with `mocc_core::run_experiment`'s.

use super::*;
use crate::cc_tape::{self, Taped};
use crate::gen::Doc;
use mocc_core::{
    agent_from_policy, preference_from_spec, stats_features, write_obs, BatchMoccEvaluator,
    MoccAgent, Preference,
};
use mocc_eval::{
    competition_report_with_baseline, CellEvaluator, CellReport, CompetitionCell,
    CompetitionEvaluator, ExperimentSpec, PolicySpec, SchemeCtx, SchemeKind, SchemeRegistry,
    SchemeSpec, SweepCell, SweepReport, SweepRunner, Workload,
};
use mocc_netsim::cc::{CongestionControl, ExternalRate, FixedRate, MonitorStats};
use mocc_netsim::{Processed, SimResult, Simulator};
use mocc_nn::Matrix;
use mocc_rl::PolicyScratch;
use mocc_store::sha256_hex;
use std::collections::VecDeque;

/// Exact counts of what the simulator did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    /// Events processed (`process_next` calls that returned one).
    pub events: u64,
    /// Monitor intervals completed.
    pub mis: u64,
    /// Simulated seconds, summed over simulations.
    pub sim_s: u64,
}

/// Processes events until `stop` accepts a completed monitor interval
/// or the horizon is reached.
fn advance(
    sim: &mut Simulator,
    counts: &mut SimCounts,
    mut stop: impl FnMut(usize) -> bool,
) -> Option<MonitorStats> {
    while let Some(processed) = sim.process_next() {
        counts.events += 1;
        if let Processed::Monitor(flow, stats) = processed {
            counts.mis += 1;
            if stop(flow) {
                return Some(stats);
            }
        }
    }
    None
}

/// Builds a simulator for `scenario`, runs it to the horizon and
/// returns its result, under the three `netsim.sim.*` spans.
pub fn simulate(
    t: &mut Tracer,
    counts: &mut SimCounts,
    scenario: &mocc_netsim::Scenario,
    ccs: Vec<Box<dyn CongestionControl>>,
) -> SimResult {
    let mut sim = t.leaf("netsim.sim.build", NETSIM_SIM, || {
        Simulator::new(scenario.clone(), ccs)
    });
    t.leaf("netsim.sim.run", NETSIM_SIM, || {
        advance(&mut sim, counts, |_| false)
    });
    counts.sim_s += scenario.duration.as_secs_f64() as u64;
    t.leaf("netsim.sim.result", NETSIM_SIM, || sim.result())
}

fn peak(scenario: &mocc_netsim::Scenario) -> SchemeCtx {
    SchemeCtx {
        peak_rate_bps: scenario.link.trace.max_rate(),
    }
}

/// One registry-scheme sweep cell: what `mocc_eval::run_cell` does.
pub fn sweep_cell(
    t: &mut Tracer,
    counts: &mut SimCounts,
    cell: &SweepCell,
    registry: &SchemeRegistry,
    scheme: &SchemeSpec,
) -> CellReport {
    t.span("cell", EVAL_RUNNER, Some(cell.index), |t| {
        let ccs = t.leaf("cc.make", CC, || {
            let ctx = peak(&cell.scenario);
            (0..cell.scenario.flows.len())
                .map(|_| {
                    registry
                        .instantiate(scheme, &ctx)
                        .expect("validated scheme")
                })
                .collect()
        });
        let res = simulate(t, counts, &cell.scenario, ccs);
        t.leaf("eval.report.reduce", EVAL_REPORT, || {
            CellReport::from_sim(cell, &res)
        })
    })
}

/// One registry-scheme competition cell: what
/// `mocc_eval::run_competition_cell` does, the all-TCP control run
/// included.
fn competition_cell(
    t: &mut Tracer,
    counts: &mut SimCounts,
    cell: &CompetitionCell,
    registry: &SchemeRegistry,
) -> CellReport {
    t.span(
        "competition.cell",
        EVAL_COMPETITION,
        Some(cell.index),
        |t| {
            let mut run = |t: &mut Tracer, label_of: &dyn Fn(usize) -> String| {
                let ccs = t.leaf("cc.make", CC, || {
                    let ctx = peak(&cell.scenario);
                    (0..cell.labels.len())
                        .map(|flow| {
                            registry
                                .instantiate_label(&label_of(flow), &ctx)
                                .expect("validated label")
                        })
                        .collect()
                });
                simulate(t, counts, &cell.scenario, ccs)
            };
            let res = run(t, &|flow| cell.labels[flow].clone());
            let control = if cell.labels.iter().all(|l| *l == cell.tcp_baseline) {
                None
            } else {
                Some(run(t, &|_| cell.tcp_baseline.clone()))
            };
            t.leaf("eval.competition.reduce", EVAL_COMPETITION, || {
                competition_report_with_baseline(cell, &res, control.as_ref().unwrap_or(&res))
            })
        },
    )
}

/// One chunk of policy sweep cells in lockstep, as
/// `BatchMoccEvaluator::eval_batch` runs it: the policy drives flow 0
/// of every cell, all cells paused at a monitor interval share one
/// batched forward.
fn policy_chunk(
    t: &mut Tracer,
    counts: &mut SimCounts,
    cells: &[SweepCell],
    agent: &MoccAgent,
    pref: Preference,
    policy: &PolicySpec,
) -> Vec<CellReport> {
    struct Live {
        index: usize,
        sim: Simulator,
        history: VecDeque<[f32; 3]>,
    }
    assert!(!policy.fast_math, "generated documents use the exact tier");
    t.span_over("chunk", CORE_BATCH_EVAL, cells.len() as u64, None, |t| {
        let cfg = agent.cfg;
        let mut scratch = PolicyScratch::default();
        let mut obs = Matrix::default();
        let mut means: Vec<f32> = Vec::with_capacity(cells.len());
        let mut reports: Vec<Option<CellReport>> = (0..cells.len()).map(|_| None).collect();
        let mut live: Vec<Live> = cells
            .iter()
            .enumerate()
            .map(|(index, cell)| {
                let peak = cell.scenario.link.trace.max_rate();
                let sim = t.leaf("netsim.sim.build", NETSIM_SIM, || {
                    let ccs = (0..cell.scenario.flows.len())
                        .map(|flow| -> Box<dyn CongestionControl> {
                            if flow == 0 {
                                Box::new(ExternalRate {
                                    initial_rate_bps: policy.initial_rate_frac * peak,
                                })
                            } else {
                                Box::new(FixedRate::new(peak))
                            }
                        })
                        .collect();
                    Simulator::new(cell.scenario.clone(), ccs)
                });
                counts.sim_s += cell.scenario.duration.as_secs_f64() as u64;
                Live {
                    index,
                    sim,
                    history: VecDeque::from(vec![[0.0; 3]; cfg.history]),
                }
            })
            .collect();
        while !live.is_empty() {
            let mut i = 0;
            while i < live.len() {
                let paused = t.leaf("netsim.sim.run", NETSIM_SIM, || {
                    advance(&mut live[i].sim, counts, |flow| flow == 0)
                });
                match paused {
                    Some(stats) => {
                        live[i].history.pop_front();
                        live[i].history.push_back(stats_features(&stats));
                        i += 1;
                    }
                    None => {
                        let done = live.swap_remove(i);
                        let res = t.leaf("netsim.sim.result", NETSIM_SIM, || done.sim.result());
                        reports[done.index] =
                            Some(t.leaf("eval.report.reduce", EVAL_REPORT, || {
                                CellReport::from_sim(&cells[done.index], &res)
                            }));
                    }
                }
            }
            if live.is_empty() {
                break;
            }
            obs.reshape(live.len(), cfg.obs_dim());
            for (row, run) in live.iter().enumerate() {
                write_obs(&pref, &run.history, obs.row_mut(row));
            }
            t.leaf("nn.forward", NN, || {
                agent
                    .ppo
                    .policy
                    .mean_action_batch(&obs, &mut means, &mut scratch)
            });
            // Setting a rate sends whatever the new rate allows, which
            // is simulator work.
            t.leaf("netsim.sim.set_rate", NETSIM_SIM, || {
                for (run, &mean) in live.iter_mut().zip(&means) {
                    let next = cfg.apply_action(run.sim.rate(0), mean);
                    run.sim.set_rate(0, next);
                }
            });
        }
        reports
            .into_iter()
            .map(|r| r.expect("every cell produced a report"))
            .collect()
    })
}

fn sweep_preference(scheme: &SchemeSpec, policy: &PolicySpec) -> Preference {
    match scheme.kind() {
        SchemeKind::Mocc(p) => preference_from_spec(p),
        SchemeKind::MoccDefault => preference_from_spec(&policy.preference),
        SchemeKind::Registry => unreachable!("a policy sweep has a mocc scheme"),
    }
}

/// What one pass over a workload's documents produced.
pub struct Replayed {
    /// The canonical report of each document.
    pub reports: Vec<String>,
    pub counts: SimCounts,
    /// Seconds between a document's `from_json` and its report's
    /// encoding, summed: the part `run_experiment` also covers.
    pub run_section_s: f64,
}

/// Replays `mocc run` over `docs`, in order.
pub fn replay(t: &mut Tracer, docs: &[Doc]) -> Replayed {
    let registry = SchemeRegistry::builtin();
    let mut out = Replayed {
        reports: Vec::new(),
        counts: SimCounts::default(),
        run_section_s: 0.0,
    };
    let counts = &mut out.counts;
    t.span("replay", crate::trace::HARNESS, None, |t| {
        for doc in docs {
            t.set_doc(&sha256_hex(doc.json.as_bytes()));
            let exp = t.span("eval.spec.parse", EVAL_SPEC, None, |_| {
                ExperimentSpec::from_json(&doc.json).expect("generated document parses")
            });
            let run_section = Instant::now();
            t.span("eval.spec.validate", EVAL_SPEC, None, |_| {
                exp.validate().expect("generated document validates")
            });
            let cells = doc.units;
            let reports: Vec<CellReport> = match (&exp.workload, &exp.policy) {
                (Workload::Sweep(w), policy) => {
                    let cells = t.span_over("eval.spec.expand", EVAL_SPEC, cells, None, |_| {
                        exp.to_sweep_spec().expect("sweep lowers").expand()
                    });
                    match policy {
                        None => cells
                            .iter()
                            .map(|c| sweep_cell(t, counts, c, &registry, &w.scheme))
                            .collect(),
                        Some(policy) => {
                            let agent = t.span("core.agent_build", CORE_BATCH_EVAL, None, |_| {
                                agent_from_policy(policy).expect("policy section builds")
                            });
                            let pref = sweep_preference(&w.scheme, policy);
                            cells
                                .chunks(policy.batch)
                                .flat_map(|chunk| {
                                    policy_chunk(t, counts, chunk, &agent, pref, policy)
                                })
                                .collect()
                        }
                    }
                }
                (Workload::Competition(_), policy) => {
                    let cells = t.span_over("eval.spec.expand", EVAL_SPEC, cells, None, |_| {
                        exp.to_competition_spec()
                            .expect("competition lowers")
                            .expand()
                    });
                    match policy {
                        None => cells
                            .iter()
                            .map(|c| competition_cell(t, counts, c, &registry))
                            .collect(),
                        Some(policy) => {
                            let evaluator =
                                t.span("core.agent_build", CORE_BATCH_EVAL, None, |_| {
                                    mocc_core::evaluator_from_policy(policy, None)
                                        .expect("policy section builds")
                                });
                            cells
                                .chunks(policy.batch)
                                .flat_map(|chunk| {
                                    let n = chunk.len() as u64;
                                    t.span_over(
                                        "competition.chunk",
                                        CORE_BATCH_EVAL,
                                        n,
                                        None,
                                        |_| CompetitionEvaluator::eval_batch(&evaluator, chunk),
                                    )
                                })
                                .collect()
                        }
                    }
                }
            };
            let report = t.span("eval.report.assemble", EVAL_REPORT, None, |_| {
                SweepReport::new(&exp.name, exp.seed, exp.duration_s, reports)
            });
            out.run_section_s += run_section.elapsed().as_secs_f64();
            out.reports.push(
                t.span_over("eval.report.encode", EVAL_REPORT, cells, None, |_| {
                    report.to_canonical_json()
                }),
            );
        }
    });
    out
}

/// Calls recorded per taped controller.
const TAPE_CAP: usize = 50_000;
/// Cells taped per registry sweep document.
const TAPED_CELLS: usize = 6;

/// Tapes a fixed sample of `doc`'s cells and replays the tapes against
/// fresh controllers. Returns `(calls, events, replayed calls,
/// replay seconds)`; the first two are exact.
fn tape_doc(exp: &ExperimentSpec, scheme: &SchemeSpec) -> (u64, u64, u64, f64) {
    let registry = SchemeRegistry::builtin();
    let cells = exp.to_sweep_spec().expect("sweep lowers").expand();
    let stride = (cells.len() / TAPED_CELLS).max(1);
    let (mut calls, mut events, mut replayed, mut replay_s) = (0, 0, 0, 0.0);
    for cell in cells.iter().step_by(stride).take(TAPED_CELLS) {
        let ctx = peak(&cell.scenario);
        let (ccs, tapes): (Vec<Box<dyn CongestionControl>>, Vec<_>) =
            (0..cell.scenario.flows.len())
                .map(|_| {
                    let cc = registry
                        .instantiate(scheme, &ctx)
                        .expect("validated scheme");
                    let (cc, tape) = Taped::wrap(cc, TAPE_CAP);
                    (cc as Box<dyn CongestionControl>, tape)
                })
                .unzip();
        let mut counts = SimCounts::default();
        let mut sim = Simulator::new(cell.scenario.clone(), ccs);
        advance(&mut sim, &mut counts, |_| false);
        drop(sim);
        events += counts.events;
        for tape in tapes {
            let tape = tape.lock().expect("no panic while taping");
            calls += tape.calls;
            let mut fresh = registry
                .instantiate(scheme, &ctx)
                .expect("validated scheme");
            replay_s += cc_tape::replay(&tape.log, fresh.as_mut()).as_secs_f64();
            replayed += tape.log.len() as u64;
        }
    }
    (calls, events, replayed, replay_s)
}

/// `cc.*`: controller callbacks per event and their cost per scheme,
/// over every registry sweep document of the workload.
fn cc_metrics(docs: &[Doc], m: &mut Metrics) {
    let (mut calls, mut events) = (0, 0);
    for doc in docs {
        let exp = ExperimentSpec::from_json(&doc.json).expect("generated document parses");
        let Workload::Sweep(w) = &exp.workload else {
            continue;
        };
        if w.scheme.is_mocc() {
            continue;
        }
        let (c, e, replayed, replay_s) = tape_doc(&exp, &w.scheme);
        calls += c;
        events += e;
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == format!("cc.{}.ns_per_call", w.scheme.label()))
            .expect("every generated registry scheme has a cc metric");
        m.set(name, replay_s * 1e9 / replayed as f64);
    }
    if events > 0 {
        m.set("cc.calls_per_event", calls as f64 / events as f64);
    }
}

/// `nn.forward_*` and `core.batch_eval.*` micro-measures on the first
/// policy sweep document: the same 32 cells one at a time and as one
/// chunk, and the forward pass alone at both widths.
fn policy_metrics(docs: &[Doc], m: &mut Metrics) {
    let Some((exp, scheme, policy)) = docs.iter().find_map(|doc| {
        let exp = ExperimentSpec::from_json(&doc.json).expect("generated document parses");
        match (&exp.workload, &exp.policy) {
            (Workload::Sweep(w), Some(p)) => Some((exp.clone(), w.scheme.clone(), p.clone())),
            _ => None,
        }
    }) else {
        return;
    };
    let agent = agent_from_policy(&policy).expect("policy section builds");
    m.set(
        "core.policy_digest_ms",
        timed(|| mocc_core::policy_digest(&agent)).0 * 1e3,
    );

    let obs_dim = agent.cfg.obs_dim();
    let mut scratch = PolicyScratch::default();
    let mut means = Vec::new();
    for (name, rows, iters) in [
        ("nn.forward_ns_b1", 1, 40_000),
        ("nn.forward_ns_b32", 32, 2_000),
    ] {
        let obs = Matrix::from_fn(rows, obs_dim, |r, c| ((r * 31 + c * 7) % 13) as f32 / 13.0);
        let s = per_call(iters, || {
            agent.ppo.policy.mean_action_batch(
                std::hint::black_box(&obs),
                &mut means,
                &mut scratch,
            );
            std::hint::black_box(&means);
        });
        m.set(name, s * 1e9 / rows as f64);
    }

    let cells = exp.to_sweep_spec().expect("sweep lowers").expand();
    let sample = &cells[..cells.len().min(32)];
    let pref = sweep_preference(&scheme, &policy);
    let evaluator = |batch| {
        BatchMoccEvaluator::new(&agent, pref, policy.initial_rate_frac).with_batch_size(batch)
    };
    let one = evaluator(1);
    let (b1_s, ()) = timed(|| {
        for cell in sample {
            std::hint::black_box(CellEvaluator::eval_batch(&one, std::slice::from_ref(cell)));
        }
    });
    let chunk = evaluator(32);
    let (b32_s, _) = timed(|| std::hint::black_box(CellEvaluator::eval_batch(&chunk, sample)));
    m.set(
        "core.batch_eval.ms_per_cell_b1",
        b1_s * 1e3 / sample.len() as f64,
    );
    m.set(
        "core.batch_eval.ms_per_cell_b32",
        b32_s * 1e3 / sample.len() as f64,
    );
}

/// `eval.spec.trace_load_ms`: loading, digesting and validating one
/// replay trace file (done twice per document: validate and lower).
fn trace_load_metric(docs: &[Doc], m: &mut Metrics) {
    let shapes: Vec<_> = docs
        .iter()
        .filter_map(|doc| {
            let exp = ExperimentSpec::from_json(&doc.json).expect("generated document parses");
            match exp.workload {
                Workload::Sweep(w) => Some(w.shapes),
                Workload::Competition(_) => None,
            }
        })
        .flatten()
        .filter(|s| s.label().starts_with("replay:"))
        .collect();
    if let Some(shape) = shapes.first() {
        let s = per_call(20, || {
            std::hint::black_box(shape.resolved().expect("trace file loads"));
        });
        m.set("eval.spec.trace_load_ms", s * 1e3);
    }
}

/// Metrics every replay that simulates cells reports from its spans.
pub fn span_metrics(t: &Tracer, counts: SimCounts, m: &mut Metrics) {
    let (parse_ns, docs) = t.total("eval.spec.parse");
    let (validate_ns, _) = t.total("eval.spec.validate");
    if docs > 0 {
        m.set(
            "eval.spec.parse_us",
            (parse_ns + validate_ns) as f64 / docs as f64 / 1e3,
        );
    }
    m.per_item("eval.spec.expand_us_per_cell", t, "eval.spec.expand", 1e3);
    m.per_item(
        "eval.report.reduce_us_per_cell",
        t,
        "eval.report.reduce",
        1e3,
    );
    m.per_item("eval.competition.cell_ms", t, "competition.cell", 1e6);
    m.per_item(
        "eval.competition.reduce_us_per_cell",
        t,
        "eval.competition.reduce",
        1e3,
    );
    m.per_item("netsim.sim.build_us_per_cell", t, "netsim.sim.build", 1e3);
    m.per_item("netsim.sim.result_us_per_cell", t, "netsim.sim.result", 1e3);
    m.per_item("core.agent_build_ms", t, "core.agent_build", 1e6);

    m.set("netsim.sim.events", counts.events as f64);
    m.set("netsim.sim.mis", counts.mis as f64);
    if counts.sim_s > 0 {
        m.set(
            "netsim.sim.events_per_sim_s",
            counts.events as f64 / counts.sim_s as f64,
        );
    }
    let run_ns = t.total("netsim.sim.run").0 + t.total("netsim.sim.set_rate").0;
    if counts.events > 0 {
        m.set(
            "netsim.sim.ns_per_event",
            run_ns as f64 / counts.events as f64,
        );
    }
    let cells: Vec<u64> = t
        .spans
        .iter()
        .filter(|s| s.cell.is_some())
        .map(|s| s.busy_ns)
        .collect();
    if let Some(slowest) = cells.iter().max() {
        m.set(
            "netsim.sim.max_cell_share",
            *slowest as f64 / cells.iter().sum::<u64>() as f64,
        );
    }
}

/// Encoding cost per cell, over whole-report and single-cell encodes.
pub fn encode_metric(t: &Tracer, m: &mut Metrics) {
    let (report_ns, report_cells) = t.total("eval.report.encode");
    let (assemble_ns, _) = t.total("eval.report.assemble");
    let (cell_ns, cells) = t.total("eval.report.encode_cell");
    if report_cells + cells > 0 {
        m.set(
            "eval.report.encode_us_per_cell",
            (report_ns + assemble_ns + cell_ns) as f64 / (report_cells + cells) as f64 / 1e3,
        );
    }
}

/// The traced side of a plain sweep workload.
pub fn run(
    docs: &[Doc],
    threads: usize,
    m: &mut Metrics,
    checks: &mut Checks,
) -> io::Result<Passes> {
    let mut tracer = Tracer::new(true);
    let (traced_s, traced) = timed(|| replay(&mut tracer, docs));
    let (untraced_s, untraced) = timed(|| replay(&mut Tracer::new(false), docs));

    // The library entry point behind `mocc run`, at one worker and at
    // all of them; only the `run_experiment` calls are timed.
    let library = |workers: usize| {
        let runner = SweepRunner::with_threads(workers);
        let mut run_s = 0.0;
        let reports: Vec<String> = docs
            .iter()
            .map(|doc| {
                let exp = ExperimentSpec::from_json(&doc.json).expect("generated document parses");
                let (s, report) = timed(|| mocc_core::run_experiment(&runner, &exp));
                run_s += s;
                report.expect("generated document runs").to_canonical_json()
            })
            .collect();
        (run_s, reports)
    };
    let (serial_s, serial) = library(1);
    // The faster of two passes: everything before this ran on one
    // thread, and a virtual machine may need the first pass to bring
    // its other processors back from idle.
    let (first_s, parallel) = library(threads);
    let parallel_s = first_s.min(library(threads).0);
    for (i, doc) in docs.iter().enumerate() {
        let mut faults = Vec::new();
        for (what, got) in [
            ("traced replay", &traced.reports[i]),
            ("untraced replay", &untraced.reports[i]),
            ("library at all threads", &parallel[i]),
        ] {
            if *got != serial[i] {
                faults.push(format!("{what} differs from run_experiment at one thread"));
            }
        }
        checks.operation(&format!("replay of {}", doc.file), faults);
    }
    checks.operation(
        "exact counts",
        if traced.counts == untraced.counts {
            vec![]
        } else {
            vec![format!(
                "{:?} traced, {:?} untraced",
                traced.counts, untraced.counts
            )]
        },
    );

    span_metrics(&tracer, traced.counts, m);
    encode_metric(&tracer, m);
    let cells: u64 = docs.iter().map(|d| d.units).sum();
    // What the library's runner (worker scope, result slots, chunk
    // hand-out) adds to the bare serial loop of the untraced replay.
    m.set(
        "eval.runner.overhead_us_per_cell",
        (serial_s - untraced.run_section_s) * 1e6 / cells as f64,
    );
    m.set(
        "eval.runner.parallel_efficiency",
        serial_s / (threads as f64 * parallel_s),
    );
    cc_metrics(docs, m);
    policy_metrics(docs, m);
    trace_load_metric(docs, m);

    let digests: String = serial.iter().map(|r| sha256_hex(r.as_bytes())).collect();
    Ok(Passes {
        tracer,
        traced_s,
        untraced_s,
        digest: sha256_hex(digests.as_bytes()),
    })
}
