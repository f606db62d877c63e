//! Multi-flow competition sweeps: fairness and friendliness.
//!
//! A [`CompetitionSpec`] is a scenario matrix whose innermost axis is a
//! *contender mix* — which schemes share the bottleneck and when each
//! flow joins and leaves — instead of a flow count. Three mix families
//! cover the paper's §6.4 evaluation:
//!
//! - [`ContenderMix::Duel`]: named schemes start together and run to
//!   the horizon (MOCC×MOCC mixed-preference pairs, MOCC vs a classic
//!   TCP, TCP vs TCP);
//! - [`ContenderMix::Staircase`]: `n` flows of one scheme join every
//!   `phase_s` seconds and leave in reverse order — dynamic churn with
//!   well-defined fair-share windows;
//! - [`ContenderMix::Incast`]: `n` flows of one scheme join every
//!   `stagger_s` seconds and all run to the horizon — the many-flow
//!   datacenter incast pattern, stressing convergence as the
//!   population ramps up.
//!
//! Each expanded [`CompetitionCell`] reduces to the ordinary
//! [`CellReport`] (so competition results ride the existing
//! canonical-JSON [`crate::SweepReport`] machinery and inherit its
//! byte-identity guarantees), with three competition metrics filled in:
//!
//! - **Jain's index** over per-flow delivered bytes within the cell's
//!   *full-overlap window* (after the last join, before the first
//!   leave), so churn transients do not dilute the fairness score;
//! - **friendliness**: flow 0's bandwidth share divided by the share
//!   the same flow slot receives when *every* flow runs the spec's
//!   `tcp_baseline` scheme (an all-TCP control run of the cell's
//!   scenario). 1.0 means "takes exactly what TCP would take"; `None`
//!   when the control share is zero (undefined). Both shares are read
//!   over the full-overlap window, so a [`ControlMemo`] simulates a
//!   control only to the window's end, once per run for all cells
//!   whose scenarios agree up to there — at zero loss, whatever their
//!   seeds — with the bytes of one full-horizon control per cell
//!   ([`competition_report`]);
//! - **time to fair share** ([`time_to_fair_share`]): seconds from the
//!   last join until the per-second Jain index over scheduled-active
//!   flows sustains the spec's `fair_jain` threshold for
//!   `fair_sustain_s` consecutive seconds; `None` when never reached.

use crate::report::{round6, CellReport};
use crate::scheme::{SchemeCtx, SchemeRegistry, SchemeSpec, SpecError};
use crate::spec::{cell_seed, check_flow_count};
use mocc_netsim::metrics::{jain_index, time_to_fair_share, window_mbits};
use mocc_netsim::time::SimDuration;
use mocc_netsim::{FlowSpec, LinkSpec, MiMode, Scenario, SimResult, Simulator};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One family of competing flows sharing the bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub enum ContenderMix {
    /// The named schemes, one flow each, all starting at t = 0 and
    /// running to the horizon.
    Duel(Vec<String>),
    /// `n` flows of `scheme`: flow `i` joins at `i × phase_s` and (for
    /// `i > 0`) leaves at `duration − i × phase_s` — joins ascending,
    /// leaves in reverse order, so the population staircases up and
    /// back down around a full-overlap plateau in the middle.
    Staircase {
        /// Scheme label for every flow.
        scheme: String,
        /// Number of flows (≥ 1).
        n: usize,
        /// Seconds between successive joins (and between successive
        /// leaves).
        phase_s: f64,
    },
    /// `n` flows of `scheme`: flow `i` joins at `i × stagger_s` and
    /// every flow runs to the horizon — a many-flow incast ramp (the
    /// datacenter fan-in pattern) whose full-overlap plateau is the
    /// tail after the last join.
    Incast {
        /// Scheme label for every flow.
        scheme: String,
        /// Number of flows (≥ 1).
        n: usize,
        /// Seconds between successive joins.
        stagger_s: f64,
    },
}

impl ContenderMix {
    /// Convenience two-flow duel.
    pub fn duel(a: &str, b: &str) -> Self {
        ContenderMix::Duel(vec![a.to_string(), b.to_string()])
    }

    /// Convenience staircase-churn mix.
    pub fn staircase(scheme: &str, n: usize, phase_s: f64) -> Self {
        ContenderMix::Staircase {
            scheme: scheme.to_string(),
            n,
            phase_s,
        }
    }

    /// Convenience many-flow incast mix.
    pub fn incast(scheme: &str, n: usize, stagger_s: f64) -> Self {
        ContenderMix::Incast {
            scheme: scheme.to_string(),
            n,
            stagger_s,
        }
    }

    /// Canonical short label used in reports (stable across versions;
    /// golden fixtures depend on it).
    pub fn label(&self) -> String {
        match self {
            ContenderMix::Duel(names) => format!("duel:{}", names.join("+")),
            ContenderMix::Staircase { scheme, n, phase_s } => {
                format!("stair:{scheme}:{n}x{phase_s}")
            }
            ContenderMix::Incast {
                scheme,
                n,
                stagger_s,
            } => format!("incast:{scheme}:{n}x{stagger_s}"),
        }
    }

    /// Parses a canonical label back into a mix — the exact inverse of
    /// [`ContenderMix::label`], used by spec files. Every contender
    /// label inside the mix is grammar-checked through
    /// [`SchemeSpec::parse`], so a malformed `mocc:` preference is a
    /// typed [`SpecError`] here, not a mid-run panic. (Scheme labels
    /// may not contain `+`, which separates duel contenders.)
    pub fn parse(label: &str) -> Result<Self, SpecError> {
        let bad = |reason: String| SpecError::InvalidSpec { reason };
        // The `<scheme>:<n>x<secs>` tail of a `stair:` or `incast:` label.
        let ramp = |tail: &str, family: &str, noun: &str, param: &str| {
            let (scheme, shape) = tail.rsplit_once(':').ok_or_else(|| {
                bad(format!(
                    "mix {label:?}: expected `{family}:<scheme>:<n>x<{param}_s>`"
                ))
            })?;
            let (n, secs) = shape
                .split_once('x')
                .ok_or_else(|| bad(format!("mix {label:?}: bad {noun} shape {shape:?}")))?;
            let n: usize = n
                .parse()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| bad(format!("mix {label:?}: bad flow count {n:?}")))?;
            let secs: f64 = secs
                .parse()
                .ok()
                .filter(|p: &f64| p.is_finite() && *p > 0.0)
                .ok_or_else(|| bad(format!("mix {label:?}: bad {param} {secs:?}")))?;
            SchemeSpec::parse(scheme)?;
            Ok::<_, SpecError>((scheme.to_string(), n, secs))
        };
        let mix = if let Some(names) = label.strip_prefix("duel:") {
            let schemes: Vec<String> = names.split('+').map(str::to_string).collect();
            if schemes.len() < 2 {
                return Err(bad(format!(
                    "mix {label:?}: a duel needs at least two `+`-separated contenders"
                )));
            }
            for s in &schemes {
                SchemeSpec::parse(s)?;
            }
            ContenderMix::Duel(schemes)
        } else if let Some(tail) = label.strip_prefix("stair:") {
            let (scheme, n, phase_s) = ramp(tail, "stair", "staircase", "phase")?;
            ContenderMix::Staircase { scheme, n, phase_s }
        } else if let Some(tail) = label.strip_prefix("incast:") {
            let (scheme, n, stagger_s) = ramp(tail, "incast", "incast", "stagger")?;
            ContenderMix::Incast {
                scheme,
                n,
                stagger_s,
            }
        } else {
            return Err(bad(format!(
                "unknown mix {label:?}: expected `duel:<a>+<b>[+…]`, \
                 `stair:<scheme>:<n>x<phase_s>`, or `incast:<scheme>:<n>x<stagger_s>`"
            )));
        };
        mix.check_flow_count()?;
        Ok(mix)
    }

    /// Number of flows in the mix's lineup.
    pub(crate) fn flow_count(&self) -> usize {
        match self {
            ContenderMix::Duel(names) => names.len(),
            ContenderMix::Staircase { n, .. } | ContenderMix::Incast { n, .. } => (*n).max(1),
        }
    }

    /// Rejects a mix of more flows than a cell may hold.
    fn check_flow_count(&self) -> Result<(), SpecError> {
        check_flow_count(self.flow_count(), || format!("mix {:?}", self.label()))
    }

    /// Typed lifecycle validation at a given horizon: the mix must fit
    /// in a cell (at most 1 024 flows, checked before the lineup is
    /// built), every flow's window must be non-empty and the full-overlap
    /// plateau must contain at least one whole second (otherwise
    /// fairness would be scored on the horizon fallback and solo phases
    /// would read as unfairness). This is what
    /// [`CompetitionSpec::expand`] enforces; spec-driven paths surface
    /// it as a [`SpecError`] at validation time instead of a panic
    /// mid-run.
    pub fn validate_windows(&self, duration_s: u64) -> Result<(), SpecError> {
        self.check_flow_count()?;
        let dur = duration_s as f64;
        let lineup = self.lineup(duration_s);
        for (flow, &(_, start, stop)) in lineup.iter().enumerate() {
            let stop = stop.unwrap_or(dur);
            if stop <= start {
                return Err(SpecError::InvalidSpec {
                    reason: format!(
                        "mix {:?}: flow {flow} has an empty lifecycle window \
                         [{start}, {stop}) at duration_s = {duration_s} — increase the \
                         duration or reduce the staircase size/phase",
                        self.label(),
                    ),
                });
            }
        }
        let last_join = lineup
            .iter()
            .map(|&(_, s, _)| s)
            .max_by(f64::total_cmp)
            .unwrap_or(0.0);
        let first_leave = lineup
            .iter()
            .fold(dur, |m, &(_, _, stop)| m.min(stop.unwrap_or(dur)));
        if (first_leave.floor() as u64) <= (last_join.ceil() as u64) {
            return Err(SpecError::InvalidSpec {
                reason: format!(
                    "mix {:?}: full-overlap window [{last_join}, {first_leave}) \
                     contains no whole second at duration_s = {duration_s} — fairness \
                     would be scored on the horizon fallback; increase the \
                     duration or adjust the join/leave spacing",
                    self.label(),
                ),
            });
        }
        Ok(())
    }

    /// The flow lineup: `(scheme label, start_s, stop_s)` per flow,
    /// with `None` meaning "runs to the horizon".
    pub fn lineup(&self, duration_s: u64) -> Vec<(String, f64, Option<f64>)> {
        match self {
            ContenderMix::Duel(names) => names.iter().map(|s| (s.clone(), 0.0, None)).collect(),
            ContenderMix::Staircase { scheme, n, phase_s } => (0..(*n).max(1))
                .map(|i| {
                    let start = i as f64 * phase_s;
                    let stop = (i > 0).then(|| duration_s as f64 - i as f64 * phase_s);
                    (scheme.clone(), start, stop)
                })
                .collect(),
            ContenderMix::Incast {
                scheme,
                n,
                stagger_s,
            } => (0..(*n).max(1))
                .map(|i| (scheme.clone(), i as f64 * stagger_s, None))
                .collect(),
        }
    }
}

// Hand-written: the JSON form is the label text, which no derive attribute spells.
impl serde::Serialize for ContenderMix {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label())
    }
}

impl<'de> serde::Deserialize<'de> for ContenderMix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => ContenderMix::parse(s).map_err(serde::Error::custom),
            _ => Err(serde::Error::custom(format!(
                "expected contender-mix label string, got {v:?}"
            ))),
        }
    }
}

/// A scenario matrix over shared-bottleneck competitions: the Cartesian
/// product of bandwidth × one-way delay × queue × contender mix.
///
/// Expansion order is fixed and documented: bandwidth (outermost), then
/// one-way delay, queue, mix (innermost). As with [`crate::SweepSpec`],
/// cell indices and derived seeds depend on the exact axis values —
/// treat specs used for golden fixtures as frozen.
#[derive(Debug, Clone)]
pub struct CompetitionSpec {
    /// Contender mixes (innermost axis).
    pub mixes: Vec<ContenderMix>,
    /// Bottleneck bandwidths, Mbps (constant-rate links).
    pub bandwidth_mbps: Vec<f64>,
    /// One-way propagation delays, ms.
    pub owd_ms: Vec<u64>,
    /// Queue capacities, packets.
    pub queue_pkts: Vec<usize>,
    /// Per-cell simulation horizon, seconds.
    pub duration_s: u64,
    /// Maximum segment size, bytes.
    pub mss_bytes: u32,
    /// Base seed; each cell derives its own via [`cell_seed`].
    pub seed: u64,
    /// Apply the learning agents' fixed monitor-interval convention to
    /// every flow (see [`LinkSpec::agent_mi`]).
    pub agent_mi: bool,
    /// Scheme used for the all-TCP friendliness control run.
    pub tcp_baseline: String,
    /// Jain threshold defining "fair share" for convergence timing.
    pub fair_jain: f64,
    /// Consecutive seconds the threshold must hold.
    pub fair_sustain_s: u64,
}

impl CompetitionSpec {
    /// A minimal single-mix spec (cubic vs bbr on 12 Mbps / 10 ms /
    /// 120 pkts for 20 s) to build variations from.
    pub fn quick() -> Self {
        CompetitionSpec {
            mixes: vec![ContenderMix::duel("cubic", "bbr")],
            bandwidth_mbps: vec![12.0],
            owd_ms: vec![10],
            queue_pkts: vec![120],
            duration_s: 20,
            mss_bytes: 1500,
            seed: 7,
            agent_mi: true,
            tcp_baseline: "cubic".to_string(),
            fair_jain: 0.9,
            fair_sustain_s: 3,
        }
    }

    /// Number of cells the spec expands to.
    pub fn cell_count(&self) -> usize {
        self.bandwidth_mbps.len() * self.owd_ms.len() * self.queue_pkts.len() * self.mixes.len()
    }

    /// Validates every scheme label in the spec against `registry` —
    /// all contender labels in all mixes, plus the `tcp_baseline`
    /// (which must be registry-instantiable, never a `mocc` label:
    /// the friendliness control is by definition a classic scheme).
    /// This is the typed, pre-run replacement for the panics that used
    /// to fire mid-run on unknown names.
    pub fn validate_schemes(&self, registry: &SchemeRegistry) -> Result<(), SpecError> {
        let base = SchemeSpec::parse(&self.tcp_baseline)?;
        if base.is_mocc() {
            return Err(SpecError::InvalidSpec {
                reason: format!(
                    "tcp_baseline {:?} is a MOCC label; the friendliness control \
                     must be a registry scheme (e.g. \"cubic\")",
                    self.tcp_baseline
                ),
            });
        }
        registry.resolve(&base)?;
        for mix in &self.mixes {
            mix.validate_windows(self.duration_s)?;
            for (label, _, _) in mix.lineup(self.duration_s) {
                // `+` separates duel contenders, so a label containing
                // one (e.g. a scientific-notation weight `mocc:1e+1,…`
                // or a custom registry name) would serialize to a mix
                // label that cannot be parsed back — reject it before
                // it can poison a spec document.
                if label.contains('+') {
                    return Err(SpecError::InvalidSpec {
                        reason: format!(
                            "contender label {label:?} contains '+', the duel \
                             separator — its mix label would not round-trip; \
                             rename the scheme or rewrite the weights without \
                             scientific notation"
                        ),
                    });
                }
                registry.resolve(&SchemeSpec::parse(&label)?)?;
            }
        }
        Ok(())
    }

    /// Expands the matrix into its ordered list of cells.
    ///
    /// # Panics
    ///
    /// Panics when a mix's lifecycle windows are degenerate at this
    /// `duration_s` (e.g. a staircase whose later flows would stop at
    /// or before their start and so never send) — a silently dead flow
    /// would be scored as a zero share and report spurious
    /// unfairness, so a mis-specified spec aborts loudly instead.
    pub fn expand(&self) -> Vec<CompetitionCell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        let mut index = 0u64;
        for &bw in &self.bandwidth_mbps {
            for &owd in &self.owd_ms {
                for &queue in &self.queue_pkts {
                    for mix in &self.mixes {
                        let link =
                            LinkSpec::constant(bw * 1e6, SimDuration::from_millis(owd), queue, 0.0);
                        // The fairness metrics are scored on the
                        // full-overlap plateau; degenerate windows
                        // would be scored as spurious unfairness, so a
                        // mis-specified matrix aborts loudly here (the
                        // spec-file path rejects it earlier, as a typed
                        // error from `ExperimentSpec::validate`).
                        if let Err(e) = mix.validate_windows(self.duration_s) {
                            panic!("{e}");
                        }
                        let lineup = mix.lineup(self.duration_s);
                        let mut flows: Vec<FlowSpec> = lineup
                            .iter()
                            .map(|&(_, start, stop)| match stop {
                                Some(stop) => FlowSpec::running(start, stop),
                                None => FlowSpec::starting_at(start),
                            })
                            .collect();
                        if self.agent_mi {
                            let mi = link.agent_mi();
                            for f in &mut flows {
                                f.mi = MiMode::Fixed(mi);
                            }
                        }
                        let labels: Vec<String> =
                            lineup.into_iter().map(|(label, _, _)| label).collect();
                        let scenario = Scenario {
                            link,
                            flows,
                            mss_bytes: self.mss_bytes,
                            duration: SimDuration::from_secs(self.duration_s),
                            seed: cell_seed(self.seed, index),
                        };
                        cells.push(CompetitionCell {
                            index,
                            bandwidth_mbps: bw,
                            owd_ms: owd,
                            queue_pkts: queue,
                            mix: mix.clone(),
                            labels,
                            tcp_baseline: self.tcp_baseline.clone(),
                            fair_jain: self.fair_jain,
                            fair_sustain_s: self.fair_sustain_s,
                            scenario,
                        });
                        index += 1;
                    }
                }
            }
        }
        cells
    }
}

/// One expanded competition cell: the coordinates, the per-flow scheme
/// labels, and the concrete seeded [`Scenario`] ready to simulate.
#[derive(Debug, Clone)]
pub struct CompetitionCell {
    /// Position in the expansion order (stable cell identity).
    pub index: u64,
    /// Bottleneck bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// One-way propagation delay, ms.
    pub owd_ms: u64,
    /// DropTail queue capacity, packets.
    pub queue_pkts: usize,
    /// The contender mix this cell instantiates.
    pub mix: ContenderMix,
    /// Scheme label of each flow, in flow order.
    pub labels: Vec<String>,
    /// Scheme of the all-TCP friendliness control run.
    pub tcp_baseline: String,
    /// Jain threshold defining "fair share".
    pub fair_jain: f64,
    /// Consecutive seconds the threshold must hold.
    pub fair_sustain_s: u64,
    /// The fully built scenario (lifecycles, seed, MI convention).
    pub scenario: Scenario,
}

impl CompetitionCell {
    /// The whole-second full-overlap window `[lo, hi)`: after the last
    /// join, before the first leave. Falls back to the whole horizon
    /// when the overlap is empty (degenerate lifecycles).
    pub fn overlap_window(&self) -> (u64, u64) {
        let dur = self.scenario.duration.as_secs_f64();
        let lo = self
            .scenario
            .flows
            .iter()
            .map(|f| f.start.as_secs_f64())
            .max_by(f64::total_cmp)
            .unwrap_or(0.0);
        let hi = self
            .scenario
            .flows
            .iter()
            .map(|f| f.stop.map(|t| t.as_secs_f64()).unwrap_or(dur))
            .fold(dur, f64::min);
        let (lo_s, hi_s) = (lo.ceil() as u64, hi.floor() as u64);
        if hi_s > lo_s {
            (lo_s, hi_s)
        } else {
            (0, dur.floor() as u64)
        }
    }

    /// Whether every contender runs the `tcp_baseline`, which makes the
    /// cell's own simulation its friendliness control.
    fn is_own_control(&self) -> bool {
        self.labels.iter().all(|l| *l == self.tcp_baseline)
    }

    /// Per-flow scheduled lifetimes `(start_s, end_s)`, clamped to the
    /// horizon — the windows [`time_to_fair_share`] scores against.
    pub fn flow_windows(&self) -> Vec<(f64, f64)> {
        let dur = self.scenario.duration.as_secs_f64();
        self.scenario
            .flows
            .iter()
            .map(|f| {
                let end = f.stop.map(|t| t.as_secs_f64()).unwrap_or(dur).min(dur);
                (f.start.as_secs_f64(), end)
            })
            .collect()
    }
}

/// Evaluates competition cells — the hook that lets a learned policy
/// serve the competing flows within a cell. Same contract as
/// [`crate::CellEvaluator`]: one report per input cell, in order, each
/// cell evaluated independently of its neighbours in the slice; the
/// runner passes one-cell slices.
pub trait CompetitionEvaluator: Sync {
    /// Evaluates a slice of cells, returning one report per cell in
    /// input order.
    fn eval_batch(&self, cells: &[CompetitionCell]) -> Vec<CellReport>;
}

/// Reduces a finished competition simulation to a [`CellReport`],
/// running the all-TCP friendliness control — the same seeded scenario
/// with every flow on the cell's `tcp_baseline` scheme — through
/// `registry`. When every contender already *is* the `tcp_baseline`
/// (e.g. a CUBIC staircase with a CUBIC control), the finished
/// simulation is its own control — seed, lifecycles and controllers
/// are identical — so the redundant second run is skipped.
///
/// This is the per-cell reference: [`ControlMemo::report`] shares one
/// control among the cells of a run and must agree with it bit for bit.
///
/// # Panics
///
/// Panics (with the typed error's message) when `registry` cannot
/// instantiate the `tcp_baseline`; spec-driven paths reject that before
/// any simulation starts ([`CompetitionSpec::validate_schemes`]).
pub fn competition_report(
    cell: &CompetitionCell,
    res: &SimResult,
    registry: &SchemeRegistry,
) -> CellReport {
    if cell.is_own_control() {
        return competition_report_with_baseline(cell, res, res);
    }
    let base = control_run(cell, cell.scenario.clone(), registry);
    competition_report_with_baseline(cell, res, &base)
}

/// [`competition_report`] with an explicitly supplied control run
/// (unit tests inject crafted results; production callers let
/// [`competition_report`] or [`ControlMemo::report`] run the control).
pub fn competition_report_with_baseline(
    cell: &CompetitionCell,
    res: &SimResult,
    base: &SimResult,
) -> CellReport {
    let (lo, hi) = cell.overlap_window();
    report_with_control_shares(cell, res, &window_mbits(&base.flows, lo, hi))
}

/// Simulates `scenario` with every flow on `cell`'s `tcp_baseline`,
/// each controller built from the context of the cell's own scenario.
fn control_run(cell: &CompetitionCell, scenario: Scenario, registry: &SchemeRegistry) -> SimResult {
    let ctx = SchemeCtx::of(&cell.scenario);
    let ccs = cell
        .labels
        .iter()
        .map(|_| {
            registry
                .instantiate_label(&cell.tcp_baseline, &ctx)
                .unwrap_or_else(|e| panic!("{e} (spec not validated?)"))
        })
        .collect();
    Simulator::new(scenario, ccs).run()
}

/// The reduction behind both report paths: `base_shares` is the
/// control's megabits per flow over the cell's overlap window.
fn report_with_control_shares(
    cell: &CompetitionCell,
    res: &SimResult,
    base_shares: &[f64],
) -> CellReport {
    let mut rep = CellReport::reduce(
        crate::report::CellCoords {
            index: cell.index,
            seed: cell.scenario.seed,
            bandwidth_mbps: cell.bandwidth_mbps,
            owd_ms: cell.owd_ms,
            queue_pkts: cell.queue_pkts,
            loss_cfg: 0.0,
            shape: "constant".to_string(),
            // `load` describes the flow population, like the classic
            // sweep; the contender-mix identity rides the dedicated
            // `mix` column instead of overloading this one.
            load: format!("flows:{}", cell.labels.len()),
        },
        res,
    );
    rep.mix = Some(cell.mix.label());
    let (lo, hi) = cell.overlap_window();
    let shares = window_mbits(&res.flows, lo, hi);
    rep.jain = round6(jain_index(&shares));
    let total: f64 = shares.iter().sum();
    let base_total: f64 = base_shares.iter().sum();
    let share0 = if total > 0.0 { shares[0] / total } else { 0.0 };
    let base_share0 = if base_total > 0.0 {
        base_shares[0] / base_total
    } else {
        0.0
    };
    rep.friendliness = (base_share0 > 0.0).then(|| round6(share0 / base_share0));
    rep.convergence_s = time_to_fair_share(
        &res.flows,
        &cell.flow_windows(),
        lo,
        cell.scenario.duration.as_secs_f64().floor() as u64,
        cell.fair_jain,
        cell.fair_sustain_s,
    )
    .map(round6);
    rep
}

/// The friendliness controls of one run, each simulated once.
///
/// A control's report input is its megabits per flow over the cell's
/// overlap window `[lo, hi)`, and two facts make that a constant shared
/// by many cells:
///
/// - the simulator draws from its RNG only for random loss, so at
///   `loss_rate == 0` the cell seed cannot change the control (a
///   competition link is always zero-loss);
/// - the simulator is causal, so a control cut at `hi` delivers the
///   same bytes in every second before `hi` as one run to the horizon.
///
/// A control is therefore keyed by the cell's scenario with its
/// horizon cut to `hi` and, at zero loss, its seed dropped, together
/// with the window and the `tcp_baseline` label. The first cell of a
/// run that misses simulates it; later cells with the same key reuse
/// it, and concurrent workers wait for that one simulation instead of
/// repeating it. Only the window shares are kept — one `f64` per flow,
/// never a [`SimResult`].
#[derive(Debug, Default)]
pub struct ControlMemo {
    shares: Mutex<BTreeMap<String, Arc<OnceLock<Vec<f64>>>>>,
    simulations: AtomicU64,
    horizon_s: AtomicU64,
}

/// The control simulations a [`ControlMemo`] ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlRuns {
    /// Control simulations.
    pub simulations: u64,
    /// Their summed horizons, seconds.
    pub horizon_s: u64,
}

impl ControlMemo {
    /// [`competition_report`] with the cell's control taken from the
    /// memo, simulated through `registry` on a miss: the same report,
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// As [`competition_report`].
    pub fn report(
        &self,
        cell: &CompetitionCell,
        res: &SimResult,
        registry: &SchemeRegistry,
    ) -> CellReport {
        if cell.is_own_control() {
            return competition_report_with_baseline(cell, res, res);
        }
        let (lo, hi) = cell.overlap_window();
        let mut scenario = cell.scenario.clone();
        scenario.duration = SimDuration::from_secs(hi);
        if scenario.link.loss_rate == 0.0 {
            scenario.seed = 0;
        }
        // Derived `Debug` prints every field, each float in its
        // shortest round-trip form: equal text, equal control.
        let key = format!("{}|{lo}..{hi}|{scenario:?}", cell.tcp_baseline);
        let slot = self
            .shares
            .lock()
            .expect("memo lock")
            .entry(key)
            .or_default()
            .clone();
        let base_shares = slot.get_or_init(|| {
            let base = control_run(cell, scenario, registry);
            self.simulations.fetch_add(1, Ordering::Relaxed);
            self.horizon_s.fetch_add(hi, Ordering::Relaxed);
            window_mbits(&base.flows, lo, hi)
        });
        report_with_control_shares(cell, res, base_shares)
    }

    /// The control simulations run so far.
    pub fn runs(&self) -> ControlRuns {
        ControlRuns {
            simulations: self.simulations.load(Ordering::Relaxed),
            horizon_s: self.horizon_s.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_netsim::FlowResult;

    fn flow_with_series(per_sec_mbits: Vec<f64>) -> FlowResult {
        FlowResult {
            per_sec_mbits,
            ..FlowResult::default()
        }
    }

    /// Simulates `cell` with every contender built by the built-in
    /// registry and reduces it with [`competition_report`].
    fn run_builtin(cell: &CompetitionCell) -> CellReport {
        let registry = SchemeRegistry::builtin();
        let ctx = SchemeCtx::of(&cell.scenario);
        let ccs = cell
            .labels
            .iter()
            .map(|l| registry.instantiate_label(l, &ctx).unwrap())
            .collect();
        let res = Simulator::new(cell.scenario.clone(), ccs).run();
        competition_report(cell, &res, &registry)
    }

    fn result_with_series(series: Vec<Vec<f64>>, duration_s: u64) -> SimResult {
        SimResult {
            duration: SimDuration::from_secs(duration_s),
            link_mean_rate_bps: 10e6,
            base_rtt_ms: 20.0,
            flows: series.into_iter().map(flow_with_series).collect(),
        }
    }

    #[test]
    fn expansion_is_deterministic_with_distinct_seeds() {
        let spec = CompetitionSpec {
            mixes: vec![
                ContenderMix::duel("cubic", "bbr"),
                ContenderMix::staircase("vegas", 3, 2.0),
            ],
            bandwidth_mbps: vec![6.0, 12.0],
            owd_ms: vec![10, 40],
            ..CompetitionSpec::quick()
        };
        assert_eq!(spec.cell_count(), 8);
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a.len(), 8);
        let mut seeds: Vec<u64> = a.iter().map(|c| c.scenario.seed).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.scenario.seed, y.scenario.seed);
            assert_eq!(x.mix.label(), y.mix.label());
            assert_eq!(x.labels, y.labels);
        }
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "every cell gets a distinct seed");
    }

    #[test]
    fn mix_labels_are_stable() {
        assert_eq!(
            ContenderMix::duel("mocc:thr", "cubic").label(),
            "duel:mocc:thr+cubic"
        );
        assert_eq!(
            ContenderMix::staircase("cubic", 3, 4.0).label(),
            "stair:cubic:3x4"
        );
        assert_eq!(
            ContenderMix::incast("cubic", 8, 0.5).label(),
            "incast:cubic:8x0.5"
        );
    }

    /// Mix labels parse back to their values — including staircase
    /// schemes that themselves contain `:` (`mocc:bal`) — and junk is
    /// a typed error, never a panic.
    #[test]
    fn mix_labels_parse_back_to_their_values() {
        let mixes = [
            ContenderMix::duel("cubic", "bbr"),
            ContenderMix::duel("mocc:thr", "mocc:lat"),
            ContenderMix::Duel(vec!["cubic".into(), "bbr".into(), "vegas".into()]),
            ContenderMix::staircase("cubic", 3, 4.0),
            ContenderMix::staircase("mocc:bal", 2, 1.5),
            ContenderMix::incast("cubic", 8, 0.5),
            ContenderMix::incast("mocc:bal", 4, 1.0),
        ];
        for mix in &mixes {
            assert_eq!(&ContenderMix::parse(&mix.label()).unwrap(), mix);
        }
        for bad in [
            "",
            "duel:",
            "duel:cubic",
            "stair:cubic",
            "stair:cubic:3",
            "stair:cubic:0x4",
            "stair:cubic:3x-1",
            "melee:cubic+bbr",
            "duel:mocc:oops+cubic",
            "incast:cubic",
            "incast:cubic:0x1",
            "incast:cubic:4xnope",
            "incast::4x1",
            "incast:mocc:oops:4x1",
        ] {
            assert!(ContenderMix::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn incast_lineup_ramps_up_and_runs_to_the_horizon() {
        let mix = ContenderMix::incast("cubic", 4, 0.5);
        let lineup = mix.lineup(20);
        assert_eq!(lineup.len(), 4);
        assert_eq!(lineup[0], ("cubic".into(), 0.0, None));
        assert_eq!(lineup[3], ("cubic".into(), 1.5, None));
        assert!(mix.validate_windows(20).is_ok());
        // The plateau is the tail after the last join; a horizon that
        // ends inside the ramp leaves no whole-second overlap.
        assert!(mix.validate_windows(2).is_err());
    }

    #[test]
    fn incast_produces_finite_metrics_end_to_end() {
        let mut spec = CompetitionSpec::quick();
        spec.mixes = vec![ContenderMix::incast("cubic", 4, 0.5)];
        spec.duration_s = 10;
        let cell = spec.expand().remove(0);
        assert_eq!(cell.labels.len(), 4);
        assert_eq!(cell.overlap_window(), (2, 10));
        let rep = run_builtin(&cell);
        assert!(rep.goodput_mbps > 1.0, "{rep:?}");
        assert!(rep.jain > 0.0 && rep.jain <= 1.0, "{rep:?}");
    }

    #[test]
    fn staircase_lineup_joins_and_leaves_symmetrically() {
        let mix = ContenderMix::staircase("cubic", 3, 4.0);
        let lineup = mix.lineup(24);
        assert_eq!(lineup.len(), 3);
        assert_eq!(lineup[0], ("cubic".into(), 0.0, None));
        assert_eq!(lineup[1], ("cubic".into(), 4.0, Some(20.0)));
        assert_eq!(lineup[2], ("cubic".into(), 8.0, Some(16.0)));
    }

    /// A staircase whose duration cannot accommodate its join/leave
    /// spacing would produce flows that never send (zero shares that
    /// read as spurious unfairness) — expansion must refuse it.
    #[test]
    #[should_panic(expected = "empty lifecycle window")]
    fn degenerate_staircase_spec_is_rejected() {
        let mut spec = CompetitionSpec::quick();
        spec.mixes = vec![ContenderMix::staircase("cubic", 3, 4.0)];
        spec.duration_s = 8; // flow 2 would run [8, 0) -> never
        let _ = spec.expand();
    }

    /// Lifecycles can all be individually non-empty while the
    /// full-overlap plateau still contains no whole second — that
    /// would silently score the horizon fallback, so expansion must
    /// refuse it too.
    #[test]
    #[should_panic(expected = "full-overlap window")]
    fn subsecond_overlap_spec_is_rejected() {
        let mut spec = CompetitionSpec::quick();
        spec.mixes = vec![ContenderMix::staircase("cubic", 3, 4.7)];
        spec.duration_s = 19; // flow 2 runs [9.4, 9.6): no whole second
        let _ = spec.expand();
    }

    #[test]
    fn overlap_window_spans_last_join_to_first_leave() {
        let mut spec = CompetitionSpec::quick();
        spec.mixes = vec![ContenderMix::staircase("cubic", 3, 4.0)];
        spec.duration_s = 24;
        let cell = &spec.expand()[0];
        assert_eq!(cell.overlap_window(), (8, 16));
        assert_eq!(cell.flow_windows()[2], (8.0, 16.0));
        // A duel's overlap is the whole horizon.
        let duel = &CompetitionSpec::quick().expand()[0];
        assert_eq!(duel.overlap_window(), (0, 20));
    }

    /// Scheme validation is typed and pre-run: unknown contenders,
    /// unknown or MOCC `tcp_baseline`s, and degenerate lifecycle
    /// windows all come back as `SpecError`s from `validate_schemes`
    /// instead of panics mid-run.
    #[test]
    fn validate_schemes_catches_bad_specs_before_running() {
        let reg = SchemeRegistry::builtin();
        let mut spec = CompetitionSpec::quick();
        spec.mixes = vec![ContenderMix::duel("mocc:thr", "cubic")];
        assert!(spec.validate_schemes(&reg).is_ok());

        let mut bad = spec.clone();
        bad.mixes = vec![ContenderMix::duel("reno", "cubic")];
        assert!(matches!(
            bad.validate_schemes(&reg),
            Err(SpecError::UnknownScheme { .. })
        ));

        let mut bad = spec.clone();
        bad.tcp_baseline = "reno".to_string();
        assert!(matches!(
            bad.validate_schemes(&reg),
            Err(SpecError::UnknownScheme { .. })
        ));

        let mut bad = spec.clone();
        bad.tcp_baseline = "mocc:thr".to_string();
        assert!(matches!(
            bad.validate_schemes(&reg),
            Err(SpecError::InvalidSpec { .. })
        ));

        let mut bad = spec;
        bad.mixes = vec![ContenderMix::staircase("cubic", 3, 4.0)];
        bad.duration_s = 8;
        let err = bad.validate_schemes(&reg).unwrap_err();
        assert!(err.to_string().contains("empty lifecycle window"), "{err}");
    }

    #[test]
    fn jain_edge_cases_in_report() {
        let cell = CompetitionSpec::quick().expand().remove(0);
        // One flow dominating another entirely: window Jain = 0.5.
        let res = result_with_series(vec![vec![8.0; 20], vec![0.0; 20]], 20);
        let base = result_with_series(vec![vec![4.0; 20], vec![4.0; 20]], 20);
        let rep = competition_report_with_baseline(&cell, &res, &base);
        assert_eq!(rep.jain, 0.5);
        // All-zero deliveries: degenerate-but-fair 1.0, no NaN.
        let dead = result_with_series(vec![vec![0.0; 20], vec![0.0; 20]], 20);
        let rep = competition_report_with_baseline(&cell, &dead, &base);
        assert_eq!(rep.jain, 1.0);
        assert_eq!(
            rep.friendliness,
            Some(0.0),
            "zero share over a real control"
        );
    }

    #[test]
    fn friendliness_undefined_when_control_share_is_zero() {
        let cell = CompetitionSpec::quick().expand().remove(0);
        let res = result_with_series(vec![vec![5.0; 20], vec![5.0; 20]], 20);
        // Control run where flow 0 got nothing (or nothing at all ran).
        let base = result_with_series(vec![vec![0.0; 20], vec![8.0; 20]], 20);
        let rep = competition_report_with_baseline(&cell, &res, &base);
        assert_eq!(rep.friendliness, None);
        let empty = result_with_series(vec![vec![0.0; 20], vec![0.0; 20]], 20);
        let rep = competition_report_with_baseline(&cell, &res, &empty);
        assert_eq!(rep.friendliness, None);
    }

    #[test]
    fn friendliness_ratio_against_equal_control() {
        let cell = CompetitionSpec::quick().expand().remove(0);
        // Flow 0 takes 75% where the all-TCP control splits 50/50.
        let res = result_with_series(vec![vec![6.0; 20], vec![2.0; 20]], 20);
        let base = result_with_series(vec![vec![4.0; 20], vec![4.0; 20]], 20);
        let rep = competition_report_with_baseline(&cell, &res, &base);
        assert_eq!(rep.friendliness, Some(1.5));
    }

    #[test]
    fn convergence_none_when_fair_share_never_reached() {
        let mut spec = CompetitionSpec::quick();
        spec.fair_jain = 0.99;
        let cell = spec.expand().remove(0);
        let res = result_with_series(vec![vec![9.0; 20], vec![1.0; 20]], 20);
        let base = result_with_series(vec![vec![4.0; 20], vec![4.0; 20]], 20);
        let rep = competition_report_with_baseline(&cell, &res, &base);
        assert_eq!(rep.convergence_s, None);
        // Equal shares converge immediately (offset 0 from last join).
        let fair = result_with_series(vec![vec![5.0; 20], vec![5.0; 20]], 20);
        let rep = competition_report_with_baseline(&cell, &fair, &base);
        assert_eq!(rep.convergence_s, Some(0.0));
    }

    /// The invariant a control's key rests on: at zero loss the seed
    /// reaches no simulated byte, for every built-in scheme, so one
    /// control serves every seed; at `loss_rate > 0` it does, so a
    /// lossy control is never shared across seeds.
    #[test]
    fn only_random_loss_reads_the_seed() {
        let registry = SchemeRegistry::builtin();
        for name in registry.names() {
            let run = |loss: f64, seed: u64| {
                let mut scenario = Scenario::dumbbell(12e6, 10, 100, 2, 0.0, 3);
                scenario.link.loss_rate = loss;
                scenario.seed = seed;
                let ctx = SchemeCtx::of(&scenario);
                let ccs = (0..2)
                    .map(|_| registry.instantiate_label(name, &ctx).unwrap())
                    .collect();
                format!("{:?}", Simulator::new(scenario, ccs).run())
            };
            assert_eq!(
                run(0.0, 1),
                run(0.0, 2),
                "{name} read the seed at zero loss"
            );
            assert_ne!(
                run(0.02, 1),
                run(0.02, 2),
                "{name} ignored the seed under loss"
            );
        }
    }

    /// Shared controls are per-cell controls: every report through the
    /// memo equals [`competition_report`]'s, which runs the cell's own
    /// control to the full horizon. Duels of one lineup share a
    /// control across networks' seeds, a staircase's control stops at
    /// its first leave, a mix of baseline flows needs none — and a
    /// lossy cell keys its seed.
    #[test]
    fn memo_reports_equal_per_cell_reports() {
        let registry = SchemeRegistry::builtin();
        let spec = CompetitionSpec {
            mixes: [
                "duel:cubic+bbr",
                "duel:vegas+copa",
                "stair:bbr:3x2",
                "stair:cubic:3x2",
            ]
            .iter()
            .map(|m| ContenderMix::parse(m).unwrap())
            .collect(),
            owd_ms: vec![10, 30],
            duration_s: 10,
            ..CompetitionSpec::quick()
        };
        let json = |rep: &CellReport| serde_json::to_string(rep).unwrap();
        let memo = ControlMemo::default();
        let mut cells = spec.expand();
        for cell in &cells {
            let ctx = SchemeCtx::of(&cell.scenario);
            let ccs = cell
                .labels
                .iter()
                .map(|l| registry.instantiate_label(l, &ctx).unwrap())
                .collect();
            let res = Simulator::new(cell.scenario.clone(), ccs).run();
            let want = competition_report(cell, &res, &registry);
            assert_eq!(
                json(&memo.report(cell, &res, &registry)),
                json(&want),
                "cell {}",
                cell.index
            );
        }
        // Per network: one duel control (10 s) and one staircase control
        // cut at the first leave (6 s); the cubic staircase is its own.
        let runs = ControlRuns {
            simulations: 4,
            horizon_s: 32,
        };
        assert_eq!(memo.runs(), runs);

        let res = result_with_series(vec![vec![5.0; 10], vec![5.0; 10]], 10);
        for cell in &mut cells[..2] {
            cell.scenario.link.loss_rate = 0.01;
        }
        for cell in &cells[..2] {
            memo.report(cell, &res, &registry);
        }
        cells[1].scenario.seed = cells[0].scenario.seed;
        memo.report(&cells[1], &res, &registry);
        assert_eq!(
            memo.runs(),
            ControlRuns {
                simulations: runs.simulations + 2,
                horizon_s: runs.horizon_s + 20,
            },
            "a lossy control is shared only under the same seed"
        );
    }

    #[test]
    fn cubic_duel_produces_finite_metrics_end_to_end() {
        let mut spec = CompetitionSpec::quick();
        spec.duration_s = 12;
        let cell = spec.expand().remove(0);
        let rep = run_builtin(&cell);
        assert!(rep.goodput_mbps > 1.0, "{rep:?}");
        assert!(rep.jain > 0.0 && rep.jain <= 1.0, "{rep:?}");
        let f = rep.friendliness.expect("control run delivered");
        assert!(f.is_finite() && f > 0.0, "{rep:?}");
    }
}
