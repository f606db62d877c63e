//! Sweep-matrix specification and deterministic expansion.
//!
//! A [`SweepSpec`] is a Cartesian product over six axes — bandwidth,
//! one-way delay, queue size, random loss, bottleneck trace shape, and
//! flow load — plus global knobs (duration, MSS, base seed, monitor
//! interval convention). [`SweepSpec::expand`] flattens the product
//! into an ordered list of [`SweepCell`]s, each carrying a fully
//! self-describing [`Scenario`] with a seed derived deterministically
//! from the base seed and the cell index. Two expansions of the same
//! spec are identical, which is the foundation of the golden-trace
//! regression tests.

use crate::scheme::SpecError;
use mocc_netsim::time::SimDuration;
use mocc_netsim::{BandwidthTrace, FlowSpec, LinkSpec, MiMode, Scenario};

/// A recorded bandwidth trace referenced by a [`TraceShape::Replay`]
/// axis value.
///
/// The spec-level identity of a replay shape is its `path` (that is
/// what the label carries and what [`PartialEq`] compares); `digest`
/// and `samples` are *derived* state filled in by
/// [`TraceShape::resolved`] when the file is loaded. The digest — the
/// SHA-256 of the file's bytes — is what enters cache keys, so editing
/// a trace file invalidates its cached cells even though the label is
/// unchanged.
///
/// Trace files are JSON documents of the form
/// `{"description": "…", "samples": [[time_s, rate_mbps], …]}` with
/// strictly increasing, finite, non-negative times and finite,
/// strictly positive rates. See `docs/SPECS.md` and the corpus under
/// `examples/traces/`.
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    /// Path of the trace file, relative to the working directory.
    pub path: String,
    /// SHA-256 of the file bytes; empty until resolved.
    pub digest: String,
    /// Recorded `(time_s, rate_mbps)` samples; empty until resolved.
    pub samples: Vec<(f64, f64)>,
}

impl PartialEq for ReplayTrace {
    fn eq(&self, other: &Self) -> bool {
        // Spec identity is the path; digest/samples are derived and
        // would make `parse(label(x)) == x` fail for resolved shapes.
        self.path == other.path
    }
}

/// A replay trace file as it is on disk.
#[derive(serde::Deserialize)]
#[serde(deny_unknown_fields)]
struct TraceFile {
    /// Free text for readers, of any JSON type; never read.
    #[allow(dead_code)]
    description: Option<serde::Value>,
    /// `[time_s, rate_mbps]` pairs.
    samples: Vec<(f64, f64)>,
}

impl ReplayTrace {
    /// Loads, digests, and validates the trace file, returning a
    /// resolved copy. All failures are typed errors, never panics.
    fn resolve(&self) -> Result<ReplayTrace, SpecError> {
        let mut bytes = Vec::new();
        mocc_store::read_capped(
            std::path::Path::new(&self.path),
            mocc_store::MAX_FILE_BYTES,
            &mut bytes,
        )
        .map_err(|e| SpecError::Io {
            path: self.path.clone(),
            reason: e.to_string(),
        })?;
        let digest = mocc_store::sha256_hex(&bytes);
        let text = String::from_utf8(bytes).map_err(|e| SpecError::Json {
            reason: format!("trace file {}: {e}", self.path),
        })?;
        let samples = serde_json::from_str::<TraceFile>(&text)
            .map_err(|e| SpecError::Json {
                reason: format!("trace file {}: {e}", self.path),
            })?
            .samples;
        // Reuse the netsim-level sample validation (monotone times,
        // positive finite rates); the built trace is discarded — the
        // real one is built per cell, normalized to the cell peak.
        BandwidthTrace::from_samples(&samples).map_err(|reason| SpecError::InvalidSpec {
            reason: format!("trace file {}: {reason}", self.path),
        })?;
        Ok(ReplayTrace {
            path: self.path.clone(),
            digest,
            samples,
        })
    }
}

/// The shortest square period or oscillation dwell, seconds. Generated
/// step times must be strictly increasing on the simulator's nanosecond
/// clock, as replayed sample times are
/// ([`BandwidthTrace::from_samples`]); two nanoseconds keep rounding
/// from merging neighbours.
pub const MIN_TRACE_STEP_S: f64 = 2e-9;

/// The most steps a generated trace shape may hold: its emitted steps
/// `⌈duration_s / period⌉`, and an oscillation's steps per ramp. Every
/// cell builds its own trace at 16 bytes a step, so a million steps is
/// 16 MB per cell in flight — a new rate every microsecond of a
/// one-second cell, finer than any controller's monitor interval can
/// follow. Past it, `square:1e-9` asked for 2 GiB and
/// `osc:100000000000x1` for 800 GB, and the process aborted.
pub const MAX_TRACE_STEPS: u64 = 1_000_000;

/// Shape of the bottleneck bandwidth trace in a sweep cell. The cell's
/// bandwidth value is always the trace's *peak* rate.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceShape {
    /// Constant rate.
    Constant,
    /// Square wave between 50 % and 100 % of the cell bandwidth,
    /// holding each level for `period_s` seconds.
    Square {
        /// Seconds per level.
        period_s: f64,
    },
    /// Oscillating staircase between 50 % and 100 % of the cell
    /// bandwidth: `steps` equal steps up, then down, `dwell_s` seconds
    /// per level (see [`BandwidthTrace::oscillating`]).
    Oscillating {
        /// Steps per ramp.
        steps: usize,
        /// Seconds per level.
        dwell_s: f64,
    },
    /// Replay of a recorded bandwidth trace file, normalized so its
    /// peak equals the cell bandwidth (one recording sweeps every
    /// bandwidth axis value; the "cell bandwidth = trace peak"
    /// invariant that `bdp_pkts`/utilization rely on is preserved).
    Replay(ReplayTrace),
}

impl TraceShape {
    /// Canonical short label used in reports (stable across versions;
    /// golden fixtures depend on it).
    pub fn label(&self) -> String {
        match self {
            TraceShape::Constant => "constant".to_string(),
            TraceShape::Square { period_s } => format!("square:{period_s}"),
            TraceShape::Oscillating { steps, dwell_s } => format!("osc:{steps}x{dwell_s}"),
            TraceShape::Replay(r) => format!("replay:{}", r.path),
        }
    }

    /// An unresolved replay shape over the trace file at `path`.
    pub fn replay(path: &str) -> Self {
        TraceShape::Replay(ReplayTrace {
            path: path.to_string(),
            digest: String::new(),
            samples: Vec::new(),
        })
    }

    /// Parses a canonical label back into a shape — the exact inverse
    /// of [`TraceShape::label`], used by spec files.
    pub fn parse(label: &str) -> Result<Self, SpecError> {
        let bad = |reason: String| SpecError::InvalidSpec { reason };
        if label == "constant" {
            return Ok(TraceShape::Constant);
        }
        if let Some(period) = label.strip_prefix("square:") {
            let period_s: f64 = period
                .parse()
                .ok()
                .filter(|p: &f64| p.is_finite() && *p > 0.0)
                .ok_or_else(|| bad(format!("trace shape {label:?}: bad period {period:?}")))?;
            return Ok(TraceShape::Square { period_s });
        }
        if let Some(spec) = label.strip_prefix("osc:") {
            let (steps, dwell) = spec.split_once('x').ok_or_else(|| {
                bad(format!(
                    "trace shape {label:?}: expected `osc:<steps>x<dwell_s>`"
                ))
            })?;
            let steps: usize =
                steps.parse().ok().filter(|s| *s > 0).ok_or_else(|| {
                    bad(format!("trace shape {label:?}: bad step count {steps:?}"))
                })?;
            let dwell_s: f64 = dwell
                .parse()
                .ok()
                .filter(|d: &f64| d.is_finite() && *d > 0.0)
                .ok_or_else(|| bad(format!("trace shape {label:?}: bad dwell {dwell:?}")))?;
            return Ok(TraceShape::Oscillating { steps, dwell_s });
        }
        if let Some(path) = label.strip_prefix("replay:") {
            if path.is_empty() {
                return Err(bad(format!("trace shape {label:?}: empty trace path")));
            }
            return Ok(TraceShape::replay(path));
        }
        Err(bad(format!(
            "unknown trace shape {label:?}: expected `constant`, `square:<period_s>`, \
             `osc:<steps>x<dwell_s>`, or `replay:<path>`"
        )))
    }

    /// Validates shape parameters — the constraints
    /// [`TraceShape::parse`] enforces, for programmatically built
    /// specs (a zero oscillation dwell or negative square period must
    /// surface as a typed error from spec validation, not a
    /// mid-expansion panic) — and what a generated trace costs over a
    /// `duration_s` horizon: a step of at least [`MIN_TRACE_STEP_S`]
    /// and at most [`MAX_TRACE_STEPS`] steps. Replay shapes only need
    /// a nonempty path here; [`TraceShape::resolved`] does the
    /// file-level checks.
    pub fn validate(&self, duration_s: u64) -> Result<(), SpecError> {
        let invalid = |reason: String| SpecError::InvalidSpec { reason };
        let step_s = match self {
            TraceShape::Constant => return Ok(()),
            TraceShape::Square { period_s } => {
                if !period_s.is_finite() || *period_s <= 0.0 {
                    return Err(invalid(format!(
                        "trace shape square: period {period_s} must be finite and > 0"
                    )));
                }
                *period_s
            }
            TraceShape::Oscillating { steps, dwell_s } => {
                if *steps == 0 {
                    return Err(invalid("trace shape osc: step count must be >= 1".into()));
                }
                if !dwell_s.is_finite() || *dwell_s <= 0.0 {
                    return Err(invalid(format!(
                        "trace shape osc: dwell {dwell_s} must be finite and > 0"
                    )));
                }
                if *steps as u64 > MAX_TRACE_STEPS {
                    return Err(invalid(format!(
                        "trace shape {:?}: a ramp of {steps} steps; a generated trace holds \
                         at most {MAX_TRACE_STEPS}",
                        self.label()
                    )));
                }
                *dwell_s
            }
            TraceShape::Replay(r) => {
                if r.path.is_empty() {
                    return Err(invalid("replay trace path must be nonempty".into()));
                }
                return Ok(());
            }
        };
        if step_s < MIN_TRACE_STEP_S {
            return Err(invalid(format!(
                "trace shape {:?}: a step of {step_s:e} s; the simulator's nanosecond clock \
                 needs at least {MIN_TRACE_STEP_S:e} s",
                self.label()
            )));
        }
        let emitted = (duration_s as f64 / step_s).ceil();
        if emitted > MAX_TRACE_STEPS as f64 {
            return Err(invalid(format!(
                "trace shape {:?} emits {emitted} steps over duration_s {duration_s}; a \
                 generated trace holds at most {MAX_TRACE_STEPS}",
                self.label()
            )));
        }
        Ok(())
    }

    /// Returns a copy with any replay trace file loaded, digested, and
    /// validated; non-replay shapes come back unchanged. Failures are
    /// typed: a missing file is [`SpecError::Io`], malformed JSON or a
    /// document of the wrong shape is [`SpecError::Json`], bad samples
    /// are [`SpecError::InvalidSpec`]
    /// — never a panic, so spec validation can report them.
    pub fn resolved(&self) -> Result<TraceShape, SpecError> {
        match self {
            TraceShape::Replay(r) => Ok(TraceShape::Replay(r.resolve()?)),
            other => Ok(other.clone()),
        }
    }

    /// The content digest of a resolved replay shape (what cache keys
    /// include so edited trace files invalidate their cached cells);
    /// `None` for generator shapes and unresolved replays.
    pub fn trace_digest(&self) -> Option<&str> {
        match self {
            TraceShape::Replay(r) if !r.digest.is_empty() => Some(&r.digest),
            _ => None,
        }
    }

    fn build(&self, peak_bps: f64, dur_s: u64) -> BandwidthTrace {
        let total = dur_s as f64;
        match self {
            TraceShape::Constant => BandwidthTrace::constant(peak_bps),
            TraceShape::Square { period_s } => {
                BandwidthTrace::square_wave(0.5 * peak_bps, peak_bps, *period_s, total)
            }
            TraceShape::Oscillating { steps, dwell_s } => {
                BandwidthTrace::oscillating(0.5 * peak_bps, peak_bps, *steps, *dwell_s, total)
            }
            TraceShape::Replay(r) => {
                assert!(
                    !r.samples.is_empty(),
                    "replay trace {:?} not resolved (spec not validated?)",
                    r.path
                );
                let peak_mbps = r
                    .samples
                    .iter()
                    .map(|&(_, m)| m)
                    .fold(r.samples[0].1, f64::max);
                let steps: Vec<(f64, f64)> = r
                    .samples
                    .iter()
                    .map(|&(t, m)| (t, m / peak_mbps * peak_bps))
                    .collect();
                BandwidthTrace::from_samples(&steps).expect("resolved replay samples are valid")
            }
        }
    }
}

// Hand-written: the JSON form is the label text, which no derive attribute spells.
impl serde::Serialize for TraceShape {
    fn write_json(&self, out: &mut String) {
        serde::json::write_str(&self.label(), out);
    }
}

impl<'de> serde::Deserialize<'de> for TraceShape {
    fn from_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::Error> {
        serde::json::read_label(p, "trace-shape", TraceShape::parse)
    }
}

/// The most flows one cell may hold. The simulator scans every flow on
/// every event and numbers flows with `u32`s, so a larger count — a
/// hostile `onoff:18446744073709551615` — is a typed error when a load
/// or mix is parsed or validated, before anything is allocated per flow.
pub(crate) const MAX_CELL_FLOWS: usize = 1024;

/// The most flows one run may expand to, summed over its cells: 42×
/// the largest expansion shipped or benchmarked (`cache_cycle`, 4 096
/// cells holding 6 144 flows). Expansion allocates per cell and per
/// flow, so a few kilobytes of axes — 10^8 cells — would exhaust
/// memory; the count is checked in `validate_in` before anything
/// expands.
pub(crate) const MAX_EXPANDED_FLOWS: usize = 1 << 18;

/// `Ok` when `flows` fit one cell, else an error naming `what()`.
pub(crate) fn check_flow_count(
    flows: usize,
    what: impl FnOnce() -> String,
) -> Result<(), SpecError> {
    if flows <= MAX_CELL_FLOWS {
        return Ok(());
    }
    Err(SpecError::InvalidSpec {
        reason: format!("{}: a cell holds at most {MAX_CELL_FLOWS} flows", what()),
    })
}

/// Flow population of a sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowLoad {
    /// `n` greedy flows starting together at t = 0.
    Steady(usize),
    /// One greedy flow under test plus `n` on/off cross-traffic flows.
    /// Cross flow `i` starts at `i + 1` seconds with 2 s ON / 2 s OFF
    /// windows, each producing at half the cell bandwidth divided by
    /// the number of cross flows.
    OnOffCross(usize),
    /// One greedy flow under test plus `n` closed-loop request-response
    /// RPC cross flows (the datacenter pattern). Cross flow `i` starts
    /// at `0.5 × (i + 1)` seconds, issuing 256 KiB requests with
    /// 250 ms of think time after each completed request.
    RpcCross(usize),
}

impl FlowLoad {
    /// Canonical short label used in reports.
    pub fn label(&self) -> String {
        match self {
            FlowLoad::Steady(n) => format!("steady:{n}"),
            FlowLoad::OnOffCross(n) => format!("onoff:{n}"),
            FlowLoad::RpcCross(n) => format!("rpc:{n}"),
        }
    }

    /// Parses a canonical label back into a load — the exact inverse
    /// of [`FlowLoad::label`], used by spec files.
    pub fn parse(label: &str) -> Result<Self, SpecError> {
        let bad = || SpecError::InvalidSpec {
            reason: format!(
                "unknown flow load {label:?}: expected `steady:<n>`, `onoff:<n>`, or `rpc:<n>`"
            ),
        };
        let (kind, n) = label.split_once(':').ok_or_else(bad)?;
        let n = n.parse().map_err(|_| bad())?;
        let load = match kind {
            "steady" => FlowLoad::Steady(n),
            "onoff" => FlowLoad::OnOffCross(n),
            "rpc" => FlowLoad::RpcCross(n),
            _ => return Err(bad()),
        };
        load.check_flow_count()?;
        Ok(load)
    }

    /// Total number of flows (and therefore controllers) in the cell,
    /// saturating at `usize::MAX`.
    pub fn flow_count(&self) -> usize {
        match *self {
            FlowLoad::Steady(n) => n.max(1),
            FlowLoad::OnOffCross(n) | FlowLoad::RpcCross(n) => n.saturating_add(1),
        }
    }

    /// Rejects a load of more flows than a cell may hold.
    pub(crate) fn check_flow_count(&self) -> Result<(), SpecError> {
        check_flow_count(self.flow_count(), || {
            format!("flow load {:?}", self.label())
        })
    }

    fn build(&self, peak_bps: f64) -> Vec<FlowSpec> {
        match *self {
            FlowLoad::Steady(n) => (0..n.max(1)).map(|_| FlowSpec::default()).collect(),
            FlowLoad::OnOffCross(n) => {
                let mut flows = vec![FlowSpec::default()];
                let rate = 0.5 * peak_bps / n.max(1) as f64;
                for i in 0..n {
                    flows.push(FlowSpec::on_off_cross((i + 1) as f64, 2.0, 2.0, rate));
                }
                flows
            }
            FlowLoad::RpcCross(n) => {
                let mut flows = vec![FlowSpec::default()];
                for i in 0..n {
                    flows.push(FlowSpec::rpc_cross(0.5 * (i + 1) as f64, 256 * 1024, 0.25));
                }
                flows
            }
        }
    }
}

// Hand-written: the JSON form is the label text, which no derive attribute spells.
impl serde::Serialize for FlowLoad {
    fn write_json(&self, out: &mut String) {
        serde::json::write_str(&self.label(), out);
    }
}

impl<'de> serde::Deserialize<'de> for FlowLoad {
    fn from_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::Error> {
        serde::json::read_label(p, "flow-load", FlowLoad::parse)
    }
}

/// One expanded cell of a sweep: the coordinates plus the concrete,
/// seeded [`Scenario`] ready to simulate.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in the expansion order (stable cell identity).
    pub index: u64,
    /// Peak bottleneck bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// One-way propagation delay, ms.
    pub owd_ms: u64,
    /// DropTail queue capacity, packets.
    pub queue_pkts: usize,
    /// Configured iid random loss rate.
    pub loss: f64,
    /// Bottleneck trace shape.
    pub shape: TraceShape,
    /// Flow population.
    pub load: FlowLoad,
    /// The fully built scenario (trace, flows, seed, MI convention).
    pub scenario: Scenario,
}

/// A scenario matrix: the Cartesian product of six axes.
///
/// Expansion order is fixed and documented: bandwidth (outermost), then
/// one-way delay, queue, loss, trace shape, flow load (innermost).
/// Reordering the values inside an axis therefore changes cell indices
/// — treat specs used for golden fixtures as frozen.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Peak bottleneck bandwidths, Mbps.
    pub bandwidth_mbps: Vec<f64>,
    /// One-way propagation delays, ms.
    pub owd_ms: Vec<u64>,
    /// Queue capacities, packets.
    pub queue_pkts: Vec<usize>,
    /// iid random loss rates.
    pub loss: Vec<f64>,
    /// Bottleneck trace shapes.
    pub shapes: Vec<TraceShape>,
    /// Flow populations.
    pub loads: Vec<FlowLoad>,
    /// Per-cell simulation horizon, seconds.
    pub duration_s: u64,
    /// Maximum segment size, bytes.
    pub mss_bytes: u32,
    /// Base seed; each cell derives its own seed from this and its
    /// index via SplitMix64.
    pub seed: u64,
    /// When true, every flow uses the learning agents' fixed
    /// monitor-interval convention (2 × base RTT clamped to
    /// [10 ms, 200 ms]) so learned and heuristic schemes see identical
    /// interval boundaries.
    pub agent_mi: bool,
}

impl SweepSpec {
    /// A minimal single-cell spec (10 Mbps, 20 ms, 500 pkts, lossless,
    /// constant trace, one flow, 10 s) to build variations from.
    pub fn single_cell() -> Self {
        SweepSpec {
            bandwidth_mbps: vec![10.0],
            owd_ms: vec![20],
            queue_pkts: vec![500],
            loss: vec![0.0],
            shapes: vec![TraceShape::Constant],
            loads: vec![FlowLoad::Steady(1)],
            duration_s: 10,
            mss_bytes: 1500,
            seed: 7,
            agent_mi: false,
        }
    }

    /// The paper's Table 3 testing ranges discretized into a grid:
    /// 10–50 Mbps, 10–200 ms, 500–5000 pkts, 0–10 % loss, three trace
    /// shapes, steady and cross-traffic loads (216 cells).
    pub fn table3_testing() -> Self {
        SweepSpec {
            bandwidth_mbps: vec![10.0, 30.0, 50.0],
            owd_ms: vec![10, 100, 200],
            queue_pkts: vec![500, 5000],
            loss: vec![0.0, 0.05, 0.10],
            shapes: vec![
                TraceShape::Constant,
                TraceShape::Square { period_s: 5.0 },
                TraceShape::Oscillating {
                    steps: 4,
                    dwell_s: 2.0,
                },
            ],
            loads: vec![FlowLoad::Steady(1), FlowLoad::OnOffCross(1)],
            duration_s: 30,
            mss_bytes: 1500,
            seed: 7,
            agent_mi: true,
        }
    }

    /// Number of cells the spec expands to.
    pub fn cell_count(&self) -> usize {
        self.bandwidth_mbps.len()
            * self.owd_ms.len()
            * self.queue_pkts.len()
            * self.loss.len()
            * self.shapes.len()
            * self.loads.len()
    }

    /// Expands the matrix into its ordered list of cells.
    pub fn expand(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        let mut index = 0u64;
        for &bw in &self.bandwidth_mbps {
            for &owd in &self.owd_ms {
                for &queue in &self.queue_pkts {
                    for &loss in &self.loss {
                        for shape in &self.shapes {
                            for &load in &self.loads {
                                let peak = bw * 1e6;
                                let link = LinkSpec {
                                    trace: shape.build(peak, self.duration_s),
                                    one_way_delay: SimDuration::from_millis(owd),
                                    queue_pkts: queue,
                                    loss_rate: loss,
                                };
                                let mut flows = load.build(peak);
                                if self.agent_mi {
                                    let mi = link.agent_mi();
                                    for f in &mut flows {
                                        f.mi = MiMode::Fixed(mi);
                                    }
                                }
                                let scenario = Scenario {
                                    link,
                                    flows,
                                    mss_bytes: self.mss_bytes,
                                    duration: SimDuration::from_secs(self.duration_s),
                                    seed: cell_seed(self.seed, index),
                                };
                                cells.push(SweepCell {
                                    index,
                                    bandwidth_mbps: bw,
                                    owd_ms: owd,
                                    queue_pkts: queue,
                                    loss,
                                    shape: shape.clone(),
                                    load,
                                    scenario,
                                });
                                index += 1;
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// SplitMix64 over the base seed and cell index: well-mixed, distinct
/// per-cell RNG streams that are stable across platforms and releases.
pub fn cell_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_netsim::time::SimTime;
    use mocc_netsim::AppPattern;

    #[test]
    fn expansion_is_deterministic_and_complete() {
        let spec = SweepSpec {
            bandwidth_mbps: vec![5.0, 10.0],
            owd_ms: vec![10, 20],
            queue_pkts: vec![100],
            loss: vec![0.0, 0.01],
            shapes: vec![TraceShape::Constant, TraceShape::Square { period_s: 2.0 }],
            loads: vec![FlowLoad::Steady(1)],
            ..SweepSpec::single_cell()
        };
        assert_eq!(spec.cell_count(), 16);
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.scenario.seed, y.scenario.seed);
            assert_eq!(x.shape.label(), y.shape.label());
        }
        // Every cell gets a distinct seed.
        let mut seeds: Vec<u64> = a.iter().map(|c| c.scenario.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn agent_mi_convention_applied() {
        let mut spec = SweepSpec::single_cell();
        spec.agent_mi = true;
        spec.owd_ms = vec![20]; // base RTT 40 ms ⇒ MI 80 ms
        let cells = spec.expand();
        match cells[0].scenario.flows[0].mi {
            MiMode::Fixed(d) => assert_eq!(d, SimDuration::from_millis(80)),
            _ => panic!("expected fixed MI"),
        }
    }

    #[test]
    fn on_off_load_builds_cross_flows() {
        let mut spec = SweepSpec::single_cell();
        spec.loads = vec![FlowLoad::OnOffCross(2)];
        let cells = spec.expand();
        let flows = &cells[0].scenario.flows;
        assert_eq!(flows.len(), 3);
        assert!(matches!(flows[0].app, AppPattern::Greedy));
        assert!(matches!(flows[1].app, AppPattern::OnOff { .. }));
        assert!(flows[2].start > flows[1].start, "cross flows staggered");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TraceShape::Constant.label(), "constant");
        assert_eq!(TraceShape::Square { period_s: 5.0 }.label(), "square:5");
        assert_eq!(
            TraceShape::Oscillating {
                steps: 4,
                dwell_s: 2.0
            }
            .label(),
            "osc:4x2"
        );
        assert_eq!(FlowLoad::Steady(3).label(), "steady:3");
        assert_eq!(FlowLoad::OnOffCross(1).label(), "onoff:1");
        assert_eq!(FlowLoad::RpcCross(2).label(), "rpc:2");
        assert_eq!(
            TraceShape::replay("examples/traces/lte_drive.json").label(),
            "replay:examples/traces/lte_drive.json"
        );
    }

    #[test]
    fn labels_parse_back_to_their_values() {
        for shape in [
            TraceShape::Constant,
            TraceShape::Square { period_s: 2.5 },
            TraceShape::Oscillating {
                steps: 4,
                dwell_s: 2.0,
            },
            TraceShape::replay("examples/traces/lte_drive.json"),
        ] {
            assert_eq!(TraceShape::parse(&shape.label()).unwrap(), shape);
        }
        for load in [
            FlowLoad::Steady(3),
            FlowLoad::OnOffCross(2),
            FlowLoad::RpcCross(4),
        ] {
            assert_eq!(FlowLoad::parse(&load.label()).unwrap(), load);
        }
        for bad in [
            "",
            "osc:4",
            "osc:0x2",
            "square:-1",
            "square:x",
            "steady:",
            "onoff:x",
            "rpc:",
            "rpc:x",
            "replay:",
            "ramp:3",
        ] {
            assert!(TraceShape::parse(bad).is_err(), "{bad:?}");
            assert!(FlowLoad::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn shape_validate_catches_bad_parameters() {
        for bad in [
            TraceShape::Square { period_s: 0.0 },
            TraceShape::Square { period_s: f64::NAN },
            TraceShape::Oscillating {
                steps: 0,
                dwell_s: 2.0,
            },
            TraceShape::Oscillating {
                steps: 4,
                dwell_s: -1.0,
            },
            TraceShape::replay(""),
        ] {
            assert!(bad.validate(1).is_err(), "{bad:?}");
        }
        // What a generated trace costs over its horizon: a step under
        // 2 ns, more emitted steps than the cap, a ramp longer than it.
        for (label, duration_s) in [
            ("square:1e-9", 1),
            ("osc:4x1e-9", 1),
            ("square:2e-9", 1),
            ("square:0.001", 1_001),
            ("osc:2x0.5", 500_001),
            ("osc:100000000000x1", 1),
            ("osc:1000001x1", 1),
        ] {
            let shape = TraceShape::parse(label).unwrap();
            let err = shape.validate(duration_s).unwrap_err().to_string();
            assert!(
                err.contains(&format!("{:?}", shape.label())),
                "{label}: {err}"
            );
        }
        for (label, duration_s) in [
            ("square:0.001", 1_000),
            ("osc:1000000x1", 1),
            ("osc:2x0.5", 500_000),
        ] {
            let shape = TraceShape::parse(label).unwrap();
            assert!(shape.validate(duration_s).is_ok(), "{label}");
        }
        assert!(TraceShape::Constant.validate(u64::MAX).is_ok());
        assert!(TraceShape::replay("some/file.json").validate(1).is_ok());
    }

    #[test]
    fn rpc_load_builds_cross_flows() {
        let mut spec = SweepSpec::single_cell();
        spec.loads = vec![FlowLoad::RpcCross(2)];
        let cells = spec.expand();
        let flows = &cells[0].scenario.flows;
        assert_eq!(flows.len(), 3);
        assert!(matches!(flows[0].app, AppPattern::Greedy));
        assert!(matches!(flows[1].app, AppPattern::Rpc { .. }));
        assert!(flows[2].start > flows[1].start, "cross flows staggered");
    }

    fn temp_trace_file(body: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "mocc-spec-test-{}-{}.json",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn replay_shape_resolves_and_normalizes_to_the_cell_peak() {
        let path = temp_trace_file(
            r#"{"description":"test","samples":[[0.0, 4.0],[2.0, 8.0],[5.0, 2.0]]}"#,
        );
        let shape = TraceShape::replay(path.to_str().unwrap());
        assert!(shape.trace_digest().is_none(), "unresolved: no digest");
        let resolved = shape.resolved().unwrap();
        let digest = resolved
            .trace_digest()
            .expect("resolved digest")
            .to_string();
        assert_eq!(digest.len(), 64);
        // Resolution is derived state: spec identity is unchanged.
        assert_eq!(resolved, shape);

        // Expanding a spec whose shapes are resolved normalizes the
        // recording so its 8 Mbps peak equals the cell bandwidth.
        let mut spec = SweepSpec::single_cell(); // 10 Mbps cell
        spec.shapes = vec![resolved];
        let cells = spec.expand();
        let trace = &cells[0].scenario.link.trace;
        assert!((trace.max_rate() - 10e6).abs() < 1e-6);
        assert!((trace.rate_at(SimTime::ZERO) - 5e6).abs() < 1e-6);
        assert!((trace.rate_at(SimTime::from_secs(3)) - 10e6).abs() < 1e-6);
        assert!((trace.rate_at(SimTime::from_secs(9)) - 2.5e6).abs() < 1e-6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_resolution_failures_are_typed_errors() {
        use crate::scheme::SpecError;
        let missing = TraceShape::replay("/nonexistent/trace.json");
        assert!(matches!(missing.resolved(), Err(SpecError::Io { .. })));

        let not_json = temp_trace_file("not json");
        let err = TraceShape::replay(not_json.to_str().unwrap()).resolved();
        assert!(matches!(err, Err(SpecError::Json { .. })), "{err:?}");
        std::fs::remove_file(&not_json).ok();

        // A document the trace file's schema refuses does not parse;
        // samples it accepts but the simulator cannot replay are invalid.
        for (body, what, invalid) in [
            (r#"{"samples":[]}"#, "empty samples", true),
            (
                r#"{"samples":[[0.0,5.0],[0.0,6.0]]}"#,
                "non-monotone times",
                true,
            ),
            (r#"{"samples":[[0.0,0.0]]}"#, "zero rate", true),
            (
                r#"{"samples":[[0.0,5.0]],"smaples":1}"#,
                "unknown field",
                false,
            ),
            (r#"{"samples":[[0.0]]}"#, "short row", false),
            (r#"{"samples":"x"}"#, "samples not an array", false),
            (r#"[]"#, "not an object", false),
        ] {
            let path = temp_trace_file(body);
            let err = TraceShape::replay(path.to_str().unwrap()).resolved();
            let typed = if invalid {
                matches!(err, Err(SpecError::InvalidSpec { .. }))
            } else {
                matches!(err, Err(SpecError::Json { .. }))
            };
            assert!(typed, "{what}: {err:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    #[should_panic(expected = "spec not validated")]
    fn unresolved_replay_panics_at_expansion_with_a_hint() {
        let mut spec = SweepSpec::single_cell();
        spec.shapes = vec![TraceShape::replay("examples/traces/lte_drive.json")];
        spec.expand();
    }

    #[test]
    fn cell_seed_mixes() {
        assert_ne!(cell_seed(7, 0), cell_seed(7, 1));
        assert_ne!(cell_seed(7, 0), cell_seed(8, 0));
        // Stable value pinned so golden fixtures cannot silently shift.
        assert_eq!(cell_seed(0, 0), 0xE220_A839_7B1D_CDAF);
    }
}
