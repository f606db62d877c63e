//! The declarative experiment document: one spec type for every
//! workload, canonical JSON on disk.
//!
//! An [`ExperimentSpec`] is the single, serializable description of an
//! experiment: a name (which becomes the report's `controller` label),
//! the shared scenario axes (bandwidth × one-way delay × queue), the
//! global knobs (horizon, MSS, base seed, monitor-interval convention),
//! a [`Workload`] — either a classic [`Workload::Sweep`] (one scheme
//! over loss/shape/load axes) or a [`Workload::Competition`] (contender
//! mixes with fairness analytics) — and, when any scheme is a learned
//! `mocc` label, a [`PolicySpec`] describing how to obtain the policy.
//!
//! Specs round-trip losslessly through JSON (`parse → serialize →
//! parse` is the identity), every label uses the shared grammar of
//! [`crate::scheme`] / [`crate::TraceShape::label`] /
//! [`crate::ContenderMix::label`], and [`ExperimentSpec::validate`]
//! rejects malformed documents with a typed [`SpecError`] *before*
//! anything is simulated. The expansion machinery is unchanged — a
//! spec lowers onto today's [`SweepSpec`] / [`CompetitionSpec`]
//! matrices, which is what keeps golden fixtures byte-identical across
//! the API redesign. Specs run through `mocc_core::run_experiment`.
//!
//! ```
//! use mocc_eval::ExperimentSpec;
//!
//! let json = r#"{
//!   "kind": "sweep", "name": "cubic-demo", "scheme": "cubic",
//!   "bandwidth_mbps": [5.0, 10.0], "owd_ms": [20], "queue_pkts": [500],
//!   "duration_s": 5, "seed": 7
//! }"#;
//! let spec = ExperimentSpec::from_json(json).unwrap();
//! spec.validate().unwrap();
//! let cells = spec.to_sweep_spec().unwrap().expand();
//! assert_eq!(cells.len(), spec.cell_count());
//! assert_eq!(cells[1].bandwidth_mbps, 10.0);
//! ```

use crate::competition::{CompetitionSpec, ContenderMix};
use crate::scheme::{SchemeRegistry, SchemeSpec, SpecError};
use crate::spec::{FlowLoad, SweepSpec, TraceShape, MAX_EXPANDED_FLOWS};
use serde::json::{self, ObjectWriter, Parser};
use serde::{Deserialize, Error as SerdeError, Serialize};
use std::collections::BTreeSet;

/// The shared scenario axes every workload sweeps over.
#[derive(Debug, Clone, PartialEq)]
pub struct Axes {
    /// Peak bottleneck bandwidths, Mbps.
    pub bandwidth_mbps: Vec<f64>,
    /// One-way propagation delays, ms.
    pub owd_ms: Vec<u64>,
    /// Queue capacities, packets.
    pub queue_pkts: Vec<usize>,
}

/// The sweep workload: one scheme over the classic six-axis matrix
/// (the shared [`Axes`] plus loss, trace shape, and flow load).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepWorkload {
    /// The scheme under test (shared grammar; `mocc` labels need a
    /// [`PolicySpec`]).
    pub scheme: SchemeSpec,
    /// iid random loss rates (default `[0.0]`).
    pub loss: Vec<f64>,
    /// Bottleneck trace shapes (default `["constant"]`).
    pub shapes: Vec<TraceShape>,
    /// Flow populations (default `["steady:1"]`).
    pub loads: Vec<FlowLoad>,
}

/// The competition workload: contender mixes with fairness analytics.
#[derive(Debug, Clone, PartialEq)]
pub struct CompetitionWorkload {
    /// Contender mixes (innermost axis).
    pub mixes: Vec<ContenderMix>,
    /// Scheme of the all-TCP friendliness control run (registry
    /// scheme, never `mocc`; default `"cubic"`).
    pub tcp_baseline: SchemeSpec,
    /// Jain threshold defining "fair share" (default 0.9).
    pub fair_jain: f64,
    /// Consecutive seconds the threshold must hold (default 3).
    pub fair_sustain_s: u64,
}

/// What kind of experiment a spec describes (the `kind` tag of the
/// JSON document).
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// `"kind": "sweep"`.
    Sweep(SweepWorkload),
    /// `"kind": "competition"`.
    Competition(CompetitionWorkload),
}

/// The highest peak packet rate a link may have, packets per second
/// (`bandwidth_mbps · 10^6 / (8 · mss_bytes)`). Rate-paced senders
/// have no window to stop them: far above this rate one packet's pacing
/// gap rounds to 0 ns, the simulator never leaves `try_send`, and the
/// queue grows until the process aborts (10^9 Mbps asked for a 3 GiB
/// `VecDeque`; 10^6 Mbps did not finish a 5 s cell in a minute). At
/// 1 500 B the bound is 120 000 Mbps, 600× the 200 Mbps `hunt` clamps
/// to; figures, shipped specs and the benchmark use at most 30 Mbps.
const MAX_PEAK_PACKET_RATE: f64 = 1e7;

/// How to obtain the MOCC policy serving the spec's `mocc` labels.
/// Declarative data only — `mocc-core`'s experiment runner interprets
/// it; this crate just validates and round-trips it. Every field has
/// a default and unknown keys are refused.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct PolicySpec {
    /// Path to a saved agent JSON (e.g. `target/mocc-cache/
    /// mocc-agent.json`). When set, `seed`/`config` are ignored.
    pub path: Option<String>,
    /// Seed for a freshly initialized (untrained) agent — fully
    /// reproducible across machines via the vendored RNG (default 11).
    pub seed: u64,
    /// Agent configuration preset: `"fast"` or `"default"` (default
    /// `"fast"`).
    pub config: String,
    /// Default preference for bare `mocc` labels (default `bal`).
    pub preference: crate::MoccPrefSpec,
    /// Flow 0 starts at this fraction of the cell's peak bandwidth
    /// (default 0.3).
    pub initial_rate_frac: f64,
    /// Accepted and ignored (default 32; must be ≥ 1). Cells are
    /// evaluated one at a time, so nothing reads it; it stays parsed,
    /// validated and serialized because committed and third-party
    /// documents carry it and the parser rejects unknown keys.
    pub batch: usize,
    /// Must be `false` (the default): every report comes from the one
    /// exact inference forward. Parsed and serialized so documents that
    /// carry it keep loading; [`ExperimentSpec::validate_in`] refuses
    /// `true`.
    pub fast_math: bool,
}

impl Default for PolicySpec {
    fn default() -> Self {
        PolicySpec {
            path: None,
            seed: 11,
            config: "fast".to_string(),
            preference: crate::MoccPrefSpec::Balanced,
            initial_rate_frac: 0.3,
            batch: 32,
            fast_math: false,
        }
    }
}

/// One declarative experiment: everything a runner needs, in one
/// JSON-serializable document. See the module docs for the format.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name; becomes the report's `controller` label.
    pub name: String,
    /// Shared scenario axes.
    pub axes: Axes,
    /// Per-cell simulation horizon, seconds.
    pub duration_s: u64,
    /// Maximum segment size, bytes (default 1500).
    pub mss_bytes: u32,
    /// Base seed; cells derive theirs via [`crate::cell_seed`].
    pub seed: u64,
    /// Apply the learning agents' fixed monitor-interval convention to
    /// every flow (default true).
    pub agent_mi: bool,
    /// What to run.
    pub workload: Workload,
    /// Policy source for `mocc` labels (required iff any are present).
    pub policy: Option<PolicySpec>,
}

impl ExperimentSpec {
    /// A sweep experiment over `spec`'s matrix under `scheme`,
    /// labelled `name` — the bridge from the expansion-level
    /// [`SweepSpec`] to the declarative document.
    pub fn from_sweep(name: &str, scheme: SchemeSpec, spec: &SweepSpec) -> Self {
        ExperimentSpec {
            name: name.to_string(),
            axes: Axes {
                bandwidth_mbps: spec.bandwidth_mbps.clone(),
                owd_ms: spec.owd_ms.clone(),
                queue_pkts: spec.queue_pkts.clone(),
            },
            duration_s: spec.duration_s,
            mss_bytes: spec.mss_bytes,
            seed: spec.seed,
            agent_mi: spec.agent_mi,
            workload: Workload::Sweep(SweepWorkload {
                scheme,
                loss: spec.loss.clone(),
                shapes: spec.shapes.clone(),
                loads: spec.loads.clone(),
            }),
            policy: None,
        }
    }

    /// A competition experiment over `spec`'s matrix, labelled `name`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.tcp_baseline` does not parse under the shared
    /// grammar (construct specs from validated parts).
    pub fn from_competition(name: &str, spec: &CompetitionSpec) -> Self {
        ExperimentSpec {
            name: name.to_string(),
            axes: Axes {
                bandwidth_mbps: spec.bandwidth_mbps.clone(),
                owd_ms: spec.owd_ms.clone(),
                queue_pkts: spec.queue_pkts.clone(),
            },
            duration_s: spec.duration_s,
            mss_bytes: spec.mss_bytes,
            seed: spec.seed,
            agent_mi: spec.agent_mi,
            workload: Workload::Competition(CompetitionWorkload {
                mixes: spec.mixes.clone(),
                tcp_baseline: SchemeSpec::parse(&spec.tcp_baseline)
                    .expect("tcp_baseline parses under the shared grammar"),
                fair_jain: spec.fair_jain,
                fair_sustain_s: spec.fair_sustain_s,
            }),
            policy: None,
        }
    }

    /// Lowers a sweep experiment onto the expansion-level
    /// [`SweepSpec`]; `None` for competition experiments. Replay
    /// shapes are resolved here (trace file loaded, digested, and
    /// validated) so the expanded cells carry concrete samples and
    /// content digests.
    ///
    /// # Panics
    ///
    /// Panics if a replay trace file fails to resolve — run
    /// [`ExperimentSpec::validate`] first to get the typed error.
    pub fn to_sweep_spec(&self) -> Option<SweepSpec> {
        let Workload::Sweep(w) = &self.workload else {
            return None;
        };
        let shapes = w
            .shapes
            .iter()
            .map(|s| {
                s.resolved()
                    .unwrap_or_else(|e| panic!("{e} (spec not validated?)"))
            })
            .collect();
        Some(SweepSpec {
            bandwidth_mbps: self.axes.bandwidth_mbps.clone(),
            owd_ms: self.axes.owd_ms.clone(),
            queue_pkts: self.axes.queue_pkts.clone(),
            loss: w.loss.clone(),
            shapes,
            loads: w.loads.clone(),
            duration_s: self.duration_s,
            mss_bytes: self.mss_bytes,
            seed: self.seed,
            agent_mi: self.agent_mi,
        })
    }

    /// Lowers a competition experiment onto the expansion-level
    /// [`CompetitionSpec`]; `None` for sweep experiments.
    pub fn to_competition_spec(&self) -> Option<CompetitionSpec> {
        let Workload::Competition(w) = &self.workload else {
            return None;
        };
        Some(CompetitionSpec {
            mixes: w.mixes.clone(),
            bandwidth_mbps: self.axes.bandwidth_mbps.clone(),
            owd_ms: self.axes.owd_ms.clone(),
            queue_pkts: self.axes.queue_pkts.clone(),
            duration_s: self.duration_s,
            mss_bytes: self.mss_bytes,
            seed: self.seed,
            agent_mi: self.agent_mi,
            tcp_baseline: w.tcp_baseline.label().to_string(),
            fair_jain: w.fair_jain,
            fair_sustain_s: w.fair_sustain_s,
        })
    }

    /// True when any referenced scheme is a `mocc` label (and the
    /// experiment therefore needs a policy engine). Labels are
    /// classified through the shared grammar ([`SchemeSpec::is_mocc`]),
    /// not ad-hoc string matching; labels that do not parse are left
    /// for [`ExperimentSpec::validate`] to report.
    pub fn needs_policy(&self) -> bool {
        match &self.workload {
            Workload::Sweep(w) => w.scheme.is_mocc(),
            Workload::Competition(w) => w.mixes.iter().any(|m| {
                m.lineup(self.duration_s)
                    .iter()
                    .any(|(label, _, _)| SchemeSpec::parse(label).is_ok_and(|s| s.is_mocc()))
            }),
        }
    }

    /// Number of cells the experiment expands to, saturating at
    /// `usize::MAX`.
    pub fn cell_count(&self) -> usize {
        let lineups = match &self.workload {
            Workload::Sweep(w) => w.loads.len(),
            Workload::Competition(w) => w.mixes.len(),
        };
        self.cells_per_lineup()
            .and_then(|cells| cells.checked_mul(lineups))
            .unwrap_or(usize::MAX)
    }

    /// Cells each load (sweep) or mix (competition) expands to; `None`
    /// on overflow.
    fn cells_per_lineup(&self) -> Option<usize> {
        let a = &self.axes;
        let shared = [a.bandwidth_mbps.len(), a.owd_ms.len(), a.queue_pkts.len()];
        let own = match &self.workload {
            Workload::Sweep(w) => [w.loss.len(), w.shapes.len()],
            Workload::Competition(_) => [1, 1],
        };
        shared
            .into_iter()
            .chain(own)
            .try_fold(1usize, usize::checked_mul)
    }

    /// Flows the experiment expands to, summed over its cells; `None`
    /// on overflow.
    fn expanded_flows(&self) -> Option<usize> {
        let lineups: Vec<usize> = match &self.workload {
            Workload::Sweep(w) => w.loads.iter().map(FlowLoad::flow_count).collect(),
            Workload::Competition(w) => w.mixes.iter().map(ContenderMix::flow_count).collect(),
        };
        let cells = self.cells_per_lineup()?;
        lineups.into_iter().try_fold(0usize, |sum, flows| {
            sum.checked_add(cells.checked_mul(flows)?)
        })
    }

    /// Validates the document against the built-in registry.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.validate_in(&SchemeRegistry::builtin())
    }

    /// Validates the document against `registry`: non-empty axes, sane
    /// global knobs, every scheme label resolvable, lifecycle windows
    /// non-degenerate, and a policy section present whenever a `mocc`
    /// label is. Everything that used to panic mid-run surfaces here
    /// as a typed [`SpecError`].
    pub fn validate_in(&self, registry: &SchemeRegistry) -> Result<(), SpecError> {
        let invalid = |reason: String| Err(SpecError::InvalidSpec { reason });
        if self.name.is_empty() {
            return invalid("experiment name must be nonempty".to_string());
        }
        if self.duration_s == 0 {
            return invalid("duration_s must be >= 1".to_string());
        }
        if self.mss_bytes == 0 {
            return invalid("mss_bytes must be >= 1".to_string());
        }
        // The simulator keeps time in u64 nanoseconds, and the latest
        // instant it computes is the horizon plus twice a delay (an ACK
        // due `now + owd + owd`, a monitor tick one RTT after the last).
        // A value that overflows that sum would wrap silently in a
        // release build. Flow start and stop times need no check of
        // their own: cross flows join a whole number of seconds apart,
        // one per flow, and `validate_windows` keeps every competition
        // window inside the horizon.
        let horizon_ns = self.duration_s.checked_mul(1_000_000_000);
        let fits_clock = |ns: Option<u64>| {
            ns.and_then(|t| t.checked_mul(2))
                .zip(horizon_ns)
                .is_some_and(|(t, horizon)| t.checked_add(horizon).is_some())
        };
        if !fits_clock(horizon_ns) {
            return invalid(format!(
                "duration_s value {} does not fit the simulator clock",
                self.duration_s
            ));
        }
        if let Some(bad) = self
            .axes
            .owd_ms
            .iter()
            .find(|ms| !fits_clock(ms.checked_mul(1_000_000)))
        {
            return invalid(format!(
                "owd_ms value {bad} does not fit the simulator clock"
            ));
        }
        for (axis, empty) in [
            ("bandwidth_mbps", self.axes.bandwidth_mbps.is_empty()),
            ("owd_ms", self.axes.owd_ms.is_empty()),
            ("queue_pkts", self.axes.queue_pkts.is_empty()),
        ] {
            if empty {
                return invalid(format!("axis {axis} must be nonempty"));
            }
        }
        if let Some(bad) = self
            .axes
            .bandwidth_mbps
            .iter()
            .find(|b| !b.is_finite() || **b <= 0.0)
        {
            return invalid(format!("bandwidth_mbps value {bad} must be finite and > 0"));
        }
        let packet_rate = |mbps: f64| mbps * 1e6 / (8.0 * f64::from(self.mss_bytes));
        if let Some(bad) = self
            .axes
            .bandwidth_mbps
            .iter()
            .find(|b| packet_rate(**b) > MAX_PEAK_PACKET_RATE)
        {
            return invalid(format!(
                "bandwidth_mbps value {bad} at mss_bytes {} is {:.0} packets/s; a link \
                 carries at most {MAX_PEAK_PACKET_RATE:e}",
                self.mss_bytes,
                packet_rate(*bad)
            ));
        }
        if self.axes.queue_pkts.contains(&0) {
            return invalid("queue_pkts values must be >= 1".to_string());
        }
        match &self.workload {
            Workload::Sweep(w) => {
                for (axis, empty) in [
                    ("loss", w.loss.is_empty()),
                    ("shapes", w.shapes.is_empty()),
                    ("loads", w.loads.is_empty()),
                ] {
                    if empty {
                        return invalid(format!("axis {axis} must be nonempty"));
                    }
                }
                if let Some(bad) = w
                    .loss
                    .iter()
                    .find(|l| !l.is_finite() || **l < 0.0 || **l >= 1.0)
                {
                    return invalid(format!("loss value {bad} must be in [0, 1)"));
                }
                for load in &w.loads {
                    load.check_flow_count()?;
                }
                for shape in &w.shapes {
                    // Parameter sanity first, then (for replay shapes)
                    // the trace file itself: existence, format, and
                    // sample validity all surface as typed errors here
                    // instead of panics mid-expansion.
                    shape.validate(self.duration_s)?;
                    shape.resolved()?;
                }
                registry.resolve(&w.scheme)?;
            }
            Workload::Competition(w) => {
                if w.mixes.is_empty() {
                    return invalid("a competition needs at least one mix".to_string());
                }
                if !(0.0..=1.0).contains(&w.fair_jain) {
                    return invalid(format!("fair_jain {} must be in [0, 1]", w.fair_jain));
                }
                let spec = self
                    .to_competition_spec()
                    .expect("competition workload lowers");
                spec.validate_schemes(registry)?;
            }
        }
        match self.expanded_flows() {
            Some(flows) if flows <= MAX_EXPANDED_FLOWS => {}
            flows => {
                return invalid(format!(
                    "the experiment expands to {} cells holding {} flows; a run holds at \
                     most {MAX_EXPANDED_FLOWS}",
                    self.cell_count(),
                    flows.map_or("more than usize::MAX".to_string(), |n| n.to_string())
                ))
            }
        }
        if self.policy.as_ref().is_some_and(|policy| policy.fast_math) {
            return invalid(
                "policy.fast_math must be false: evaluation has one inference tier".to_string(),
            );
        }
        if self.needs_policy() {
            let Some(policy) = &self.policy else {
                return invalid(
                    "the experiment uses `mocc` schemes but has no `policy` section".to_string(),
                );
            };
            if policy.path.is_none() && !matches!(policy.config.as_str(), "fast" | "default") {
                return invalid(format!(
                    "policy.config {:?} must be \"fast\" or \"default\"",
                    policy.config
                ));
            }
            if !policy.initial_rate_frac.is_finite()
                || policy.initial_rate_frac <= 0.0
                || policy.initial_rate_frac > 1.0
            {
                return invalid(format!(
                    "policy.initial_rate_frac {} must be in (0, 1]",
                    policy.initial_rate_frac
                ));
            }
            if policy.batch == 0 {
                return invalid("policy.batch must be >= 1".to_string());
            }
        }
        Ok(())
    }

    /// Serializes to canonical JSON (sorted keys, every field
    /// explicit — defaults included — so documents on disk are
    /// self-describing).
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string(self).expect("spec serialization is infallible")
    }

    /// Parses a spec document from JSON text. Grammar-level errors
    /// (malformed labels, wrong types, missing fields) come back as
    /// [`SpecError::Json`]; run [`ExperimentSpec::validate`] afterwards
    /// for vocabulary/structure checks.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        serde_json::from_str(text).map_err(|e| SpecError::Json {
            reason: e.to_string(),
        })
    }

    /// Loads and parses a spec file from disk; a file over
    /// [`mocc_store::MAX_FILE_BYTES`] is an I/O error, not a read.
    pub fn load(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = mocc_store::read_text(path).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_json(&text)
    }
}

/// The type name experiment-document errors are prefixed with.
const TYPE: &str = "ExperimentSpec";

/// The keys every experiment document may hold, then each workload's.
const SHARED_KEYS: &[&str] = &[
    "kind",
    "name",
    "bandwidth_mbps",
    "owd_ms",
    "queue_pkts",
    "duration_s",
    "mss_bytes",
    "seed",
    "agent_mi",
    "policy",
];
const SWEEP_KEYS: [&str; 4] = ["scheme", "loss", "shapes", "loads"];
const COMPETITION_KEYS: [&str; 4] = ["mixes", "tcp_baseline", "fair_jain", "fair_sustain_s"];

/// One key's value as [`Parser::field`] reads it.
type Slot<T> = Option<Result<T, SerdeError>>;

/// Every key of either kind, filled as the document streams by.
#[derive(Default)]
struct Slots {
    kind: Slot<String>,
    name: Slot<String>,
    bandwidth_mbps: Slot<Vec<f64>>,
    owd_ms: Slot<Vec<u64>>,
    queue_pkts: Slot<Vec<usize>>,
    duration_s: Slot<u64>,
    mss_bytes: Slot<u32>,
    seed: Slot<u64>,
    agent_mi: Slot<bool>,
    policy: Slot<Option<PolicySpec>>,
    scheme: Slot<SchemeSpec>,
    loss: Slot<Vec<f64>>,
    shapes: Slot<Vec<TraceShape>>,
    loads: Slot<Vec<FlowLoad>>,
    mixes: Slot<Vec<ContenderMix>>,
    tcp_baseline: Slot<SchemeSpec>,
    fair_jain: Slot<f64>,
    fair_sustain_s: Slot<u64>,
}

/// A field whose absence reads as `default`. Unlike an `Option` field,
/// a *present* `null` is still an error.
fn or_default<T: for<'a> Deserialize<'a>>(
    slot: Slot<T>,
    key: &str,
    default: impl FnOnce() -> T,
) -> Result<T, SerdeError> {
    match slot {
        None => Ok(default()),
        read => json::take_field(read, key, TYPE),
    }
}

// Hand-written: the axes are flattened and each `kind` has its own key set.
impl Serialize for ExperimentSpec {
    fn write_json(&self, out: &mut String) {
        let mut fields: Vec<(&'static str, &dyn Serialize)> = vec![
            ("name", &self.name),
            ("bandwidth_mbps", &self.axes.bandwidth_mbps),
            ("owd_ms", &self.axes.owd_ms),
            ("queue_pkts", &self.axes.queue_pkts),
            ("duration_s", &self.duration_s),
            ("mss_bytes", &self.mss_bytes),
            ("seed", &self.seed),
            ("agent_mi", &self.agent_mi),
            ("policy", &self.policy),
        ];
        match &self.workload {
            Workload::Sweep(w) => fields.extend([
                ("kind", &"sweep" as &dyn Serialize),
                ("scheme", &w.scheme),
                ("loss", &w.loss),
                ("shapes", &w.shapes),
                ("loads", &w.loads),
            ]),
            Workload::Competition(w) => fields.extend([
                ("kind", &"competition" as &dyn Serialize),
                ("mixes", &w.mixes),
                ("tcp_baseline", &w.tcp_baseline),
                ("fair_jain", &w.fair_jain),
                ("fair_sustain_s", &w.fair_sustain_s),
            ]),
        }
        fields.sort_unstable_by_key(|&(key, _)| key);
        let mut w = ObjectWriter::begin(out);
        for (key, value) in fields {
            w.field(key, value);
        }
        w.end();
    }
}

/// Reads every key in one pass, then judges the document in a fixed
/// order whatever the order of its keys: `kind`, then the first key
/// (in byte order) that `kind` does not know, then the workload's
/// fields, then the shared ones.
impl<'de> Deserialize<'de> for ExperimentSpec {
    fn from_json(p: &mut Parser<'_>) -> Result<Self, SerdeError> {
        if p.peek_token() != Some(b'{') {
            return json::mismatch(p, |v| format!("expected experiment object, got {v:?}"));
        }
        let mut s = Slots::default();
        let mut keys = BTreeSet::new();
        p.object(|key, p| {
            let read = match &*key {
                "kind" => p.field(&mut s.kind),
                "name" => p.field(&mut s.name),
                "bandwidth_mbps" => p.field(&mut s.bandwidth_mbps),
                "owd_ms" => p.field(&mut s.owd_ms),
                "queue_pkts" => p.field(&mut s.queue_pkts),
                "duration_s" => p.field(&mut s.duration_s),
                "mss_bytes" => p.field(&mut s.mss_bytes),
                "seed" => p.field(&mut s.seed),
                "agent_mi" => p.field(&mut s.agent_mi),
                "policy" => p.field(&mut s.policy),
                "scheme" => p.field(&mut s.scheme),
                "loss" => p.field(&mut s.loss),
                "shapes" => p.field(&mut s.shapes),
                "loads" => p.field(&mut s.loads),
                "mixes" => p.field(&mut s.mixes),
                "tcp_baseline" => p.field(&mut s.tcp_baseline),
                "fair_jain" => p.field(&mut s.fair_jain),
                "fair_sustain_s" => p.field(&mut s.fair_sustain_s),
                _ => p.skip_value(),
            };
            keys.insert(key);
            read
        })?;
        let kind: String = json::take_field(s.kind, "kind", TYPE)?;
        // Any kind but "sweep" is judged by the competition key set
        // before it is refused.
        let own = if kind == "sweep" {
            SWEEP_KEYS
        } else {
            COMPETITION_KEYS
        };
        let known: Vec<&str> = SHARED_KEYS.iter().chain(&own).copied().collect();
        if let Some(key) = keys.iter().find(|key| !known.contains(&key.as_ref())) {
            return Err(serde::unknown_field(key, &known, TYPE));
        }
        let workload = match kind.as_str() {
            "sweep" => Workload::Sweep(SweepWorkload {
                scheme: json::take_field(s.scheme, "scheme", TYPE)?,
                loss: or_default(s.loss, "loss", || vec![0.0])?,
                shapes: or_default(s.shapes, "shapes", || vec![TraceShape::Constant])?,
                loads: or_default(s.loads, "loads", || vec![FlowLoad::Steady(1)])?,
            }),
            "competition" => Workload::Competition(CompetitionWorkload {
                mixes: json::take_field(s.mixes, "mixes", TYPE)?,
                tcp_baseline: or_default(s.tcp_baseline, "tcp_baseline", || {
                    SchemeSpec::parse("cubic").expect("default tcp_baseline parses")
                })?,
                fair_jain: or_default(s.fair_jain, "fair_jain", || 0.9)?,
                fair_sustain_s: or_default(s.fair_sustain_s, "fair_sustain_s", || 3)?,
            }),
            other => {
                return Err(SerdeError::custom(format!(
                    "ExperimentSpec.kind: expected \"sweep\" or \"competition\", got {other:?}"
                )))
            }
        };
        Ok(ExperimentSpec {
            name: json::take_field(s.name, "name", TYPE)?,
            axes: Axes {
                bandwidth_mbps: json::take_field(s.bandwidth_mbps, "bandwidth_mbps", TYPE)?,
                owd_ms: json::take_field(s.owd_ms, "owd_ms", TYPE)?,
                queue_pkts: json::take_field(s.queue_pkts, "queue_pkts", TYPE)?,
            },
            duration_s: json::take_field(s.duration_s, "duration_s", TYPE)?,
            mss_bytes: or_default(s.mss_bytes, "mss_bytes", || 1500)?,
            seed: json::take_field(s.seed, "seed", TYPE)?,
            agent_mi: or_default(s.agent_mi, "agent_mi", || true)?,
            workload,
            policy: json::take_field(s.policy, "policy", TYPE)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MoccPrefSpec;

    fn sweep_exp() -> ExperimentSpec {
        let mut spec = SweepSpec::table3_testing();
        spec.duration_s = 8;
        ExperimentSpec::from_sweep("cubic-t3", SchemeSpec::parse("cubic").unwrap(), &spec)
    }

    fn competition_exp() -> ExperimentSpec {
        let spec = CompetitionSpec {
            mixes: vec![
                ContenderMix::duel("mocc:thr", "mocc:lat"),
                ContenderMix::staircase("cubic", 3, 4.0),
            ],
            duration_s: 24,
            ..CompetitionSpec::quick()
        };
        let mut exp = ExperimentSpec::from_competition("mix-demo", &spec);
        exp.policy = Some(PolicySpec::default());
        exp
    }

    #[test]
    fn round_trips_are_identity() {
        for exp in [sweep_exp(), competition_exp()] {
            let json = exp.to_canonical_json();
            let back = ExperimentSpec::from_json(&json).unwrap();
            assert_eq!(back, exp);
            assert_eq!(back.to_canonical_json(), json, "canonical is a fixed point");
        }
    }

    #[test]
    fn lowering_matches_the_original_matrices() {
        let mut spec = SweepSpec::table3_testing();
        spec.duration_s = 8;
        let exp = ExperimentSpec::from_sweep("x", SchemeSpec::parse("bbr").unwrap(), &spec);
        let lowered = exp.to_sweep_spec().unwrap();
        assert_eq!(lowered.cell_count(), spec.cell_count());
        assert_eq!(exp.cell_count(), spec.cell_count());
        let a = spec.expand();
        let b = lowered.expand();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scenario.seed, y.scenario.seed);
        }
        assert!(exp.to_competition_spec().is_none());

        let comp = CompetitionSpec::quick();
        let exp = ExperimentSpec::from_competition("y", &comp);
        let lowered = exp.to_competition_spec().unwrap();
        assert_eq!(lowered.cell_count(), comp.cell_count());
        assert_eq!(
            lowered.expand()[0].scenario.seed,
            comp.expand()[0].scenario.seed
        );
        assert!(exp.to_sweep_spec().is_none());
    }

    #[test]
    fn defaults_fill_in_on_parse_and_serialize_explicitly() {
        let json = r#"{"kind":"sweep","name":"mini","scheme":"vegas",
            "bandwidth_mbps":[10.0],"owd_ms":[20],"queue_pkts":[500],
            "duration_s":5,"seed":7}"#;
        let exp = ExperimentSpec::from_json(json).unwrap();
        assert_eq!(exp.mss_bytes, 1500);
        assert!(exp.agent_mi);
        let Workload::Sweep(w) = &exp.workload else {
            panic!()
        };
        assert_eq!(w.loss, vec![0.0]);
        assert_eq!(w.shapes, vec![TraceShape::Constant]);
        assert_eq!(w.loads, vec![FlowLoad::Steady(1)]);
        // The canonical form spells every default out and still
        // round-trips to the same value.
        let canon = exp.to_canonical_json();
        assert!(canon.contains("\"mss_bytes\":1500"), "{canon}");
        assert_eq!(ExperimentSpec::from_json(&canon).unwrap(), exp);
        assert!(exp.validate().is_ok());
    }

    #[test]
    fn policy_defaults_and_preference_labels() {
        let json = r#"{"kind":"competition","name":"p","mixes":["duel:mocc+cubic"],
            "bandwidth_mbps":[10.0],"owd_ms":[20],"queue_pkts":[120],
            "duration_s":10,"seed":7,"policy":{}}"#;
        let exp = ExperimentSpec::from_json(json).unwrap();
        let p = exp.policy.as_ref().unwrap();
        assert_eq!(p, &PolicySpec::default());
        assert!(exp.validate().is_ok());
        assert!(exp.needs_policy());

        let mut exp2 = exp.clone();
        exp2.policy.as_mut().unwrap().preference = MoccPrefSpec::Weights([0.5, 0.25, 0.25]);
        let back = ExperimentSpec::from_json(&exp2.to_canonical_json()).unwrap();
        assert_eq!(back, exp2);
    }

    #[test]
    fn validation_catches_structural_errors() {
        type Mutation = Box<dyn Fn(&mut ExperimentSpec)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("empty name", Box::new(|e| e.name.clear())),
            ("zero duration", Box::new(|e| e.duration_s = 0)),
            ("empty axis", Box::new(|e| e.axes.owd_ms.clear())),
            (
                "bad bandwidth",
                Box::new(|e| e.axes.bandwidth_mbps = vec![-1.0]),
            ),
            ("zero queue", Box::new(|e| e.axes.queue_pkts = vec![0])),
            (
                "bad loss",
                Box::new(|e| {
                    if let Workload::Sweep(w) = &mut e.workload {
                        w.loss = vec![1.5]
                    }
                }),
            ),
            (
                "steady:usize::MAX",
                Box::new(|e| set_loads(e, FlowLoad::Steady(usize::MAX))),
            ),
            (
                "onoff:usize::MAX",
                Box::new(|e| set_loads(e, FlowLoad::OnOffCross(usize::MAX))),
            ),
            (
                "rpc:1024 (1 025 flows)",
                Box::new(|e| set_loads(e, FlowLoad::RpcCross(1024))),
            ),
            ("10^8 cells", Box::new(|e| widen(e, 100))),
            ("six 2 000-value axes", Box::new(|e| widen(e, 2000))),
        ];
        for (what, mutate) in cases {
            let mut exp = sweep_exp();
            mutate(&mut exp);
            assert!(
                matches!(exp.validate(), Err(SpecError::InvalidSpec { .. })),
                "{what} must be rejected"
            );
        }

        // Unknown schemes are vocabulary errors.
        let mut exp = sweep_exp();
        if let Workload::Sweep(w) = &mut exp.workload {
            w.scheme = SchemeSpec::parse("reno").unwrap();
        }
        assert!(matches!(
            exp.validate(),
            Err(SpecError::UnknownScheme { .. })
        ));

        // mocc schemes demand a policy section.
        let mut exp = competition_exp();
        exp.policy = None;
        let err = exp.validate().unwrap_err();
        assert!(err.to_string().contains("policy"), "{err}");

        // ... with sane fields.
        let mut exp = competition_exp();
        exp.policy.as_mut().unwrap().initial_rate_frac = 0.0;
        assert!(exp.validate().is_err());
        let mut exp = competition_exp();
        exp.policy.as_mut().unwrap().config = "huge".to_string();
        assert!(exp.validate().is_err());
        let mut exp = competition_exp();
        exp.policy.as_mut().unwrap().batch = 0;
        assert!(exp.validate().is_err());
    }

    /// `policy.fast_math` still parses, so old documents load, but
    /// `true` — the deleted approximate inference tier — is an error
    /// naming the field, whether or not a `mocc` flow reads the policy.
    #[test]
    fn fast_math_true_is_refused_by_name() {
        for mut exp in [competition_exp(), sweep_exp()] {
            let mut policy = exp.policy.take().unwrap_or_default();
            policy.fast_math = true;
            exp.policy = Some(policy);
            let doc = exp.to_canonical_json();
            assert!(doc.contains("\"fast_math\":true"), "{doc}");
            let err = ExperimentSpec::from_json(&doc)
                .expect("the field parses")
                .validate()
                .unwrap_err();
            assert!(matches!(err, SpecError::InvalidSpec { .. }), "{err}");
            assert!(err.to_string().contains("policy.fast_math"), "{err}");
        }
    }

    /// Gives every sweep axis but the scheme `n` distinct values.
    fn widen(exp: &mut ExperimentSpec, n: usize) {
        exp.axes.bandwidth_mbps = (1..=n).map(|v| v as f64).collect();
        exp.axes.owd_ms = (1..=n as u64).collect();
        exp.axes.queue_pkts = (1..=n).collect();
        if let Workload::Sweep(w) = &mut exp.workload {
            w.loss = (0..n).map(|v| v as f64 / n as f64).collect();
            w.shapes = vec![TraceShape::Constant; n];
            w.loads = vec![FlowLoad::Steady(1); n];
        }
    }

    /// A run expands to at most `MAX_EXPANDED_FLOWS` flows, summed over
    /// its cells and checked without overflow; `cell_count` saturates.
    #[test]
    fn expansions_beyond_the_cap_are_rejected() {
        let mut exp = sweep_exp();
        widen(&mut exp, 1);
        exp.axes.bandwidth_mbps = (1..=512).map(f64::from).collect();
        exp.axes.owd_ms = (1..=512).collect();
        assert_eq!(exp.cell_count(), MAX_EXPANDED_FLOWS);
        exp.validate().expect("the cap is inclusive");
        set_loads(&mut exp, FlowLoad::Steady(1));
        assert_eq!(
            exp.validate().unwrap_err().to_string(),
            "invalid spec: the experiment expands to 524288 cells holding 524288 flows; \
             a run holds at most 262144"
        );

        widen(&mut exp, 2000);
        assert_eq!(exp.cell_count(), usize::MAX);
        let err = exp.validate().unwrap_err().to_string();
        assert!(err.contains("holding more than usize::MAX flows"), "{err}");

        // A competition counts every contender of every mix.
        let mut exp = competition_exp();
        exp.axes.bandwidth_mbps = (1..=256).map(f64::from).collect();
        exp.axes.owd_ms = (1..=256).collect();
        let err = exp.validate().unwrap_err().to_string();
        assert!(err.contains("131072 cells holding 327680 flows"), "{err}");
    }

    fn set_loads(exp: &mut ExperimentSpec, load: FlowLoad) {
        if let Workload::Sweep(w) = &mut exp.workload {
            w.loads = vec![FlowLoad::Steady(1), load];
        }
    }

    /// A cell holds at most 1 024 flows. A larger count built in code
    /// is a typed error naming the label and the cap, raised before any
    /// lineup or flow list is allocated (a `usize::MAX` incast would
    /// abort the process there); from a document it fails the parse.
    #[test]
    fn flow_counts_beyond_the_cap_are_rejected() {
        let mut exp = sweep_exp();
        set_loads(&mut exp, FlowLoad::OnOffCross(usize::MAX));
        assert_eq!(
            exp.validate().unwrap_err().to_string(),
            "invalid spec: flow load \"onoff:18446744073709551615\": a cell holds at most 1024 flows"
        );
        set_loads(&mut exp, FlowLoad::Steady(1024));
        exp.validate().expect("1 024 flows fit");
        set_loads(&mut exp, FlowLoad::OnOffCross(1023));
        exp.validate().expect("1 + 1 023 flows fit");

        for mix in [
            ContenderMix::incast("cubic", usize::MAX, 0.5),
            ContenderMix::staircase("cubic", 1025, 0.001),
            ContenderMix::Duel(vec!["cubic".to_string(); 1025]),
        ] {
            let mut exp = competition_exp();
            let label = mix.label();
            let Workload::Competition(w) = &mut exp.workload else {
                unreachable!()
            };
            w.mixes.push(mix);
            let err = exp.validate().unwrap_err().to_string();
            assert!(
                err.ends_with(&format!("mix {label:?}: a cell holds at most 1024 flows")),
                "{err}"
            );
        }

        for label in ["steady:1025", "onoff:1024", "rpc:18446744073709551615"] {
            let err = FlowLoad::parse(label).unwrap_err().to_string();
            assert!(err.contains("at most 1024 flows"), "{label}: {err}");
        }
        let json = r#"{"kind":"competition","name":"x","mixes":["incast:cubic:18446744073709551615x0.5"],
            "bandwidth_mbps":[10.0],"owd_ms":[20],"queue_pkts":[120],"duration_s":20,"seed":7}"#;
        let err = ExperimentSpec::from_json(json).unwrap_err().to_string();
        assert!(err.contains("at most 1024 flows"), "{err}");
    }

    /// Times the u64 nanosecond clock cannot hold — the value itself,
    /// or twice it plus the horizon — are typed errors for sweeps and
    /// competitions alike; the largest values that do fit still pass.
    #[test]
    fn times_beyond_the_simulator_clock_are_rejected() {
        for base in [sweep_exp(), competition_exp()] {
            let mut exp = base.clone();
            exp.axes.owd_ms = vec![20, 10_000_000_000_000];
            let err = exp.validate().unwrap_err().to_string();
            assert_eq!(
                err,
                "invalid spec: owd_ms value 10000000000000 does not fit the simulator clock"
            );
            // 2 · 9.2e18 ns fits a u64, but not with the horizon on top.
            exp.axes.owd_ms = vec![9_223_372_036_854];
            assert!(exp.validate().is_err());
            exp.axes.owd_ms = vec![9_000_000_000_000];
            exp.validate().expect("2 * 9e18 ns + horizon fits");

            for duration_s in [18_446_744_073, 6_200_000_000] {
                let mut exp = base.clone();
                exp.duration_s = duration_s;
                let err = exp.validate().unwrap_err().to_string();
                assert!(
                    err.ends_with(&format!(
                        "duration_s value {duration_s} does not fit the simulator clock"
                    )),
                    "{err}"
                );
            }
            let mut exp = base.clone();
            exp.duration_s = 6_000_000_000;
            // The sweep's generated shapes would emit more steps than a
            // trace holds over that horizon; a constant link fits.
            if let Workload::Sweep(w) = &exp.workload {
                assert!(w.shapes.iter().any(|s| s.validate(exp.duration_s).is_err()));
                let err = exp.validate().unwrap_err().to_string();
                assert!(err.contains("a generated trace holds at most"), "{err}");
                exp.workload = Workload::Sweep(SweepWorkload {
                    shapes: vec![TraceShape::Constant],
                    ..w.clone()
                });
            }
            exp.validate().expect("3 * 6e18 ns fits");
        }
    }

    /// A link too fast to pace — rate-paced senders would queue packets
    /// until the process aborts — is a typed error naming the axis,
    /// judged per packet: the same bandwidth passes with larger packets.
    #[test]
    fn packet_rates_beyond_the_bound_are_rejected() {
        let json = r#"{"kind":"sweep","name":"huge","scheme":"mocc","bandwidth_mbps":[1e9],
            "owd_ms":[20],"queue_pkts":[100],"duration_s":5,"seed":1,"policy":{}}"#;
        let err = ExperimentSpec::from_json(json)
            .unwrap()
            .validate()
            .unwrap_err();
        assert!(matches!(err, SpecError::InvalidSpec { .. }), "{err}");
        assert!(
            err.to_string().contains("bandwidth_mbps value 1000000000 "),
            "{err}"
        );
        for base in [sweep_exp(), competition_exp()] {
            let mut exp = base.clone();
            exp.axes.bandwidth_mbps = vec![10.0, 120_000.0];
            exp.validate().expect("1e7 packets/s at 1 500 B");
            exp.axes.bandwidth_mbps.push(120_001.0);
            let err = exp.validate().unwrap_err().to_string();
            assert!(
                err.contains("bandwidth_mbps value 120001 at mss_bytes 1500"),
                "{err}"
            );
            exp.mss_bytes = 3000;
            exp.validate().expect("half the packet rate");
        }
    }

    /// A misspelled field name must be an error, not a silently
    /// applied default — otherwise validation would approve a document
    /// that runs a different experiment than its author wrote.
    #[test]
    fn unknown_fields_are_rejected() {
        for (bad, what) in [
            (
                r#"{"kind":"competition","name":"x","mixes":["duel:cubic+bbr"],
                    "bandwidth_mbps":[10.0],"owd_ms":[20],"queue_pkts":[120],
                    "duration_s":20,"seed":7,"fair_sustain":7}"#,
                "fair_sustain (typo of fair_sustain_s)",
            ),
            (
                r#"{"kind":"sweep","name":"x","scheme":"cubic",
                    "bandwidth_mbps":[10.0],"owd_ms":[20],"queue_pkts":[120],
                    "duration_s":20,"seed":7,"agent-mi":false}"#,
                "agent-mi (typo of agent_mi)",
            ),
            (
                r#"{"kind":"sweep","name":"x","scheme":"cubic",
                    "bandwidth_mbps":[10.0],"owd_ms":[20],"queue_pkts":[120],
                    "duration_s":20,"seed":7,"mixes":["duel:cubic+bbr"]}"#,
                "competition field on a sweep",
            ),
            (
                r#"{"kind":"competition","name":"x","mixes":["duel:mocc+cubic"],
                    "bandwidth_mbps":[10.0],"owd_ms":[20],"queue_pkts":[120],
                    "duration_s":20,"seed":7,"policy":{"bacth":4}}"#,
                "bacth (typo of policy.batch)",
            ),
        ] {
            let err = ExperimentSpec::from_json(bad).unwrap_err();
            assert!(err.to_string().contains("unknown field"), "{what}: {err}");
        }
    }

    /// `+` is the duel separator: a contender label containing one
    /// would serialize to a mix label that cannot round-trip, so
    /// validation rejects it up front.
    #[test]
    fn plus_in_contender_labels_is_rejected() {
        let spec = CompetitionSpec {
            // 1e+1 parses as a valid f64 weight, but the label would
            // be ambiguous inside "duel:...+...".
            mixes: vec![ContenderMix::Duel(vec![
                "mocc:1e+1,1,1".to_string(),
                "cubic".to_string(),
            ])],
            ..CompetitionSpec::quick()
        };
        let mut exp = ExperimentSpec::from_competition("x", &spec);
        exp.policy = Some(PolicySpec::default());
        let err = exp.validate().unwrap_err();
        assert!(err.to_string().contains("'+'"), "{err}");
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[]",
            r#"{"kind":"melee","name":"x"}"#,
            r#"{"kind":"sweep","name":"x"}"#,
            r#"{"kind":"sweep","name":"x","scheme":"mocc:oops",
                "bandwidth_mbps":[1.0],"owd_ms":[10],"queue_pkts":[10],
                "duration_s":5,"seed":1}"#,
            r#"{"kind":"competition","name":"x","mixes":["brawl:a+b"],
                "bandwidth_mbps":[1.0],"owd_ms":[10],"queue_pkts":[10],
                "duration_s":5,"seed":1}"#,
        ] {
            match ExperimentSpec::from_json(bad) {
                Err(SpecError::Json { .. }) => {}
                other => panic!("{bad:?}: expected Json error, got {other:?}"),
            }
        }
    }
}
