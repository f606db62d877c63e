//! Aggregated sweep metrics and the canonical-JSON report writer.
//!
//! Every simulated cell is reduced to one [`CellReport`] of summary
//! metrics; a whole sweep is a [`SweepReport`] with a cross-cell
//! [`SweepSummary`]. Reports serialize to *canonical JSON*: object keys
//! are emitted in sorted order (the vendored serde shim's tree stores
//! objects in a `BTreeMap`, and its streaming writers are held to the
//! tree's bytes), floats are rounded to six decimals and printed
//! with Rust's shortest round-trip formatting, and cells appear in
//! expansion-index order. Two runs of the same [`crate::SweepSpec`] —
//! regardless of worker-thread count — therefore produce byte-identical
//! report strings, which is what makes golden-trace regression testing
//! possible.

use crate::spec::SweepCell;
use mocc_netsim::metrics::{jain_index, percentile};
use mocc_netsim::SimResult;
use serde::{Deserialize, Serialize};

/// Weight of the throughput objective in the utility score.
const W_THR: f64 = 0.4;
/// Weight of the latency objective in the utility score.
const W_LAT: f64 = 0.4;
/// Weight of the loss objective in the utility score.
const W_LOSS: f64 = 0.2;

/// Renders an optional metric (friendliness, convergence time) for
/// tables: three decimals, or `-` for undefined/never. One definition
/// so every binary prints the `Option`-valued columns identically.
pub fn fmt_opt_metric(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    }
}

/// Rounds to six decimal places — the canonical metric precision.
/// Rounding before serialization keeps fixtures readable and stops
/// last-bit formatting churn from touching every golden file.
pub fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Summary metrics of one simulated sweep cell.
///
/// The competition-only `mix` column is *omitted* when `None`, so the
/// schema change that introduced it stayed additive — classic sweep
/// fixtures are byte-identical with and without it. (`friendliness` /
/// `convergence_s` predate that policy and keep serializing as
/// explicit `null`s; goldens depend on it.) Reading needs no such
/// care: an absent `Option` is `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Cell index in spec expansion order.
    pub index: u64,
    /// The cell's derived RNG seed (diagnostic; lets a cell be replayed
    /// in isolation).
    pub seed: u64,
    /// Peak bottleneck bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// One-way propagation delay, ms.
    pub owd_ms: u64,
    /// Queue capacity, packets.
    pub queue_pkts: u64,
    /// Configured iid loss rate.
    pub loss_cfg: f64,
    /// Trace-shape label (see [`crate::TraceShape::label`]).
    pub shape: String,
    /// Flow-load label: [`crate::FlowLoad::label`] for classic sweep
    /// cells, `flows:<n>` (the contender count) for competition cells.
    pub load: String,
    /// Competition cells only: the contender-mix label
    /// ([`crate::ContenderMix::label`]). `None` for classic sweep
    /// cells, and omitted from the canonical JSON so classic fixtures
    /// are untouched by the column's existence.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub mix: Option<String>,
    /// Total delivered goodput over all flows, Mbps.
    pub goodput_mbps: f64,
    /// Unweighted mean of per-flow mean RTTs, ms (flows with no RTT
    /// samples excluded).
    pub mean_rtt_ms: f64,
    /// 95th percentile of per-monitor-interval mean RTTs pooled over
    /// all flows, ms.
    pub p95_rtt_ms: f64,
    /// Lifetime loss rate pooled over all flows: lost / (lost + acked).
    pub loss_rate: f64,
    /// Total goodput over the mean bottleneck rate.
    pub utilization: f64,
    /// Mean RTT over the base propagation RTT (1.0 when no samples).
    pub latency_ratio: f64,
    /// Jain fairness index over per-flow goodputs (1.0 for one flow).
    /// Competition cells score the full-overlap window instead (see
    /// [`crate::competition::competition_report`]).
    pub jain: f64,
    /// Scalar utility: `0.4·O_thr + 0.4·O_lat + 0.2·O_loss` with the
    /// Eq. 2 objective normalizations, in [0, 1].
    pub utility: f64,
    /// Competition cells only: flow 0's bandwidth share over the share
    /// the same slot receives in the all-TCP control run. `None` for
    /// classic sweep cells and when the control share is zero.
    pub friendliness: Option<f64>,
    /// Competition cells only: seconds from the last join until fair
    /// share is sustained ([`mocc_netsim::metrics::time_to_fair_share`]).
    /// `None` for classic sweep cells and when never reached.
    pub convergence_s: Option<f64>,
}

/// The identifying coordinates of one report row — everything a
/// [`CellReport`] carries besides the measured metrics. Bundled into a
/// struct so the two reduction call sites (classic sweep, competition)
/// cannot silently swap same-typed positional arguments.
#[derive(Debug, Clone)]
pub struct CellCoords {
    /// Cell index in spec expansion order.
    pub index: u64,
    /// The cell's derived RNG seed.
    pub seed: u64,
    /// Peak bottleneck bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// One-way propagation delay, ms.
    pub owd_ms: u64,
    /// Queue capacity, packets.
    pub queue_pkts: usize,
    /// Configured iid loss rate.
    pub loss_cfg: f64,
    /// Trace-shape label.
    pub shape: String,
    /// Flow-load (or contender-mix) label.
    pub load: String,
}

impl CellReport {
    /// Reduces a finished simulation of `cell` to summary metrics.
    pub fn from_sim(cell: &SweepCell, res: &SimResult) -> Self {
        CellReport::reduce(
            CellCoords {
                index: cell.index,
                seed: cell.scenario.seed,
                bandwidth_mbps: cell.bandwidth_mbps,
                owd_ms: cell.owd_ms,
                queue_pkts: cell.queue_pkts,
                loss_cfg: cell.loss,
                shape: cell.shape.label(),
                load: cell.load.label(),
            },
            res,
        )
    }

    /// The shared reduction behind [`CellReport::from_sim`] and the
    /// competition path: coordinates plus a finished [`SimResult`]
    /// down to summary metrics.
    ///
    /// Cell-level goodput is **horizon-weighted** — total delivered
    /// bytes over the scenario horizon — not the sum of per-flow
    /// duration-weighted rates. The distinction matters under churn: a
    /// staircase of short-lived flows each achieving link rate while
    /// present would sum to several times the link capacity under
    /// duration weighting, while the horizon-weighted goodput (and the
    /// utilization derived from it) stays physically bounded.
    pub fn reduce(coords: CellCoords, res: &SimResult) -> Self {
        let horizon_s = res.duration.as_secs_f64().max(1e-9);
        let goodput_bps: f64 = res
            .flows
            .iter()
            .map(|f| f.total_acked_bytes as f64 * 8.0)
            .sum::<f64>()
            / horizon_s;
        let rtts: Vec<f64> = res
            .flows
            .iter()
            .filter(|f| f.mean_rtt_ms > 0.0)
            .map(|f| f.mean_rtt_ms)
            .collect();
        let mean_rtt_ms = if rtts.is_empty() {
            0.0
        } else {
            rtts.iter().sum::<f64>() / rtts.len() as f64
        };
        let mi_rtts: Vec<f64> = res
            .flows
            .iter()
            .flat_map(|f| f.mi_records.iter())
            .map(|r| r.mean_rtt_ms)
            .filter(|&r| r > 0.0)
            .collect();
        let p95_rtt_ms = percentile(&mi_rtts, 95.0);
        let (lost, acked) = res.flows.iter().fold((0u64, 0u64), |(l, a), f| {
            (l + f.total_lost, a + f.total_acked)
        });
        let loss_rate = if lost + acked > 0 {
            lost as f64 / (lost + acked) as f64
        } else {
            0.0
        };
        let utilization = goodput_bps / res.link_mean_rate_bps.max(1.0);
        let latency_ratio = if mean_rtt_ms > 0.0 {
            mean_rtt_ms / res.base_rtt_ms.max(1e-9)
        } else {
            1.0
        };
        let shares: Vec<f64> = res.flows.iter().map(|f| f.throughput_bps).collect();
        let o_thr = utilization.clamp(0.0, 1.0);
        let o_lat = if mean_rtt_ms > 0.0 {
            (res.base_rtt_ms / mean_rtt_ms).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let o_loss = 1.0 - loss_rate;
        CellReport {
            index: coords.index,
            seed: coords.seed,
            bandwidth_mbps: round6(coords.bandwidth_mbps),
            owd_ms: coords.owd_ms,
            queue_pkts: coords.queue_pkts as u64,
            loss_cfg: round6(coords.loss_cfg),
            shape: coords.shape,
            load: coords.load,
            mix: None,
            goodput_mbps: round6(goodput_bps / 1e6),
            mean_rtt_ms: round6(mean_rtt_ms),
            p95_rtt_ms: round6(p95_rtt_ms),
            loss_rate: round6(loss_rate),
            utilization: round6(utilization),
            latency_ratio: round6(latency_ratio),
            jain: round6(jain_index(&shares)),
            utility: round6(W_THR * o_thr + W_LAT * o_lat + W_LOSS * o_loss),
            friendliness: None,
            convergence_s: None,
        }
    }
}

/// Cross-cell aggregate metrics (unweighted means over cells).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SweepSummary {
    /// Number of cells aggregated.
    pub cells: u64,
    /// Mean per-cell goodput, Mbps.
    pub mean_goodput_mbps: f64,
    /// Mean per-cell utilization.
    pub mean_utilization: f64,
    /// Mean per-cell mean RTT, ms.
    pub mean_rtt_ms: f64,
    /// 95th percentile of per-cell p95 RTTs, ms.
    pub p95_rtt_ms: f64,
    /// Mean per-cell loss rate.
    pub mean_loss_rate: f64,
    /// Mean per-cell utility score.
    pub mean_utility: f64,
}

impl SweepSummary {
    fn from_cells(cells: &[CellReport]) -> Self {
        let n = cells.len() as f64;
        let mean = |f: &dyn Fn(&CellReport) -> f64| {
            if cells.is_empty() {
                0.0
            } else {
                round6(cells.iter().map(f).sum::<f64>() / n)
            }
        };
        let p95s: Vec<f64> = cells.iter().map(|c| c.p95_rtt_ms).collect();
        SweepSummary {
            cells: cells.len() as u64,
            mean_goodput_mbps: mean(&|c| c.goodput_mbps),
            mean_utilization: mean(&|c| c.utilization),
            mean_rtt_ms: mean(&|c| c.mean_rtt_ms),
            p95_rtt_ms: round6(percentile(&p95s, 95.0)),
            mean_loss_rate: mean(&|c| c.loss_rate),
            mean_utility: mean(&|c| c.utility),
        }
    }
}

/// The complete result of one sweep: per-cell metrics in expansion
/// order plus the cross-cell summary.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SweepReport {
    /// Name of the controller under test.
    pub controller: String,
    /// Base seed of the expanded spec.
    pub seed: u64,
    /// Per-cell horizon, seconds.
    pub duration_s: u64,
    /// Per-cell metrics, ordered by cell index.
    pub cells: Vec<CellReport>,
    /// Cross-cell aggregates.
    pub summary: SweepSummary,
}

impl SweepReport {
    /// Assembles a report from per-cell results (sorted by index here,
    /// so callers may pass them in any completion order).
    pub fn new(controller: &str, seed: u64, duration_s: u64, mut cells: Vec<CellReport>) -> Self {
        cells.sort_by_key(|c| c.index);
        let summary = SweepSummary::from_cells(&cells);
        SweepReport {
            controller: controller.to_string(),
            seed,
            duration_s,
            cells,
            summary,
        }
    }

    /// Serializes to canonical JSON: sorted object keys, compact
    /// separators, six-decimal floats. Byte-identical for identical
    /// metric values.
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string(self).expect("report serialization is infallible")
    }

    /// Parses a report back from JSON (fixtures, archived runs).
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use mocc_netsim::cc::FixedRate;
    use mocc_netsim::Simulator;

    fn one_cell_report() -> CellReport {
        let cells = SweepSpec::single_cell().expand();
        let res = Simulator::new(
            cells[0].scenario.clone(),
            vec![Box::new(FixedRate::new(5e6))],
        )
        .run();
        CellReport::from_sim(&cells[0], &res)
    }

    #[test]
    fn cell_metrics_are_sane() {
        let c = one_cell_report();
        assert!(c.goodput_mbps > 4.0 && c.goodput_mbps < 5.5, "{c:?}");
        assert!(c.mean_rtt_ms >= 40.0, "{c:?}");
        assert!(c.utilization > 0.4 && c.utilization < 0.6, "{c:?}");
        assert_eq!(c.loss_rate, 0.0);
        assert_eq!(c.jain, 1.0);
        assert!(c.utility > 0.0 && c.utility <= 1.0);
        assert!(c.p95_rtt_ms >= c.mean_rtt_ms * 0.5, "{c:?}");
    }

    #[test]
    fn report_json_round_trips_and_is_canonical() {
        let c = one_cell_report();
        let rep = SweepReport::new("fixed", 7, 10, vec![c]);
        let json = rep.to_canonical_json();
        let back = SweepReport::from_json(&json).unwrap();
        assert_eq!(back, rep);
        assert_eq!(
            back.to_canonical_json(),
            json,
            "canonical form is a fixed point"
        );
        // Keys of the top-level object are sorted.
        let cells_pos = json.find("\"cells\"").unwrap();
        let ctrl_pos = json.find("\"controller\"").unwrap();
        let summary_pos = json.find("\"summary\"").unwrap();
        assert!(cells_pos < ctrl_pos && ctrl_pos < summary_pos);
    }

    /// The competition metrics are `None` (canonical `null`) on the
    /// classic sweep path and round-trip losslessly when set.
    #[test]
    fn competition_fields_round_trip_and_default_null() {
        let mut c = one_cell_report();
        assert_eq!(c.friendliness, None);
        assert_eq!(c.convergence_s, None);
        let json = SweepReport::new("fixed", 7, 10, vec![c.clone()]).to_canonical_json();
        assert!(json.contains("\"friendliness\":null"), "{json}");
        assert!(json.contains("\"convergence_s\":null"), "{json}");
        c.friendliness = Some(1.25);
        c.convergence_s = Some(3.0);
        let rep = SweepReport::new("fixed", 7, 10, vec![c]);
        let back = SweepReport::from_json(&rep.to_canonical_json()).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.cells[0].friendliness, Some(1.25));
        assert_eq!(back.cells[0].convergence_s, Some(3.0));
    }

    /// The `mix` column is additive: absent (not `null`) for classic
    /// cells — so pre-existing fixtures are byte-identical — and
    /// round-trips when set on competition cells.
    #[test]
    fn mix_column_is_omitted_when_none_and_round_trips() {
        let mut c = one_cell_report();
        assert_eq!(c.mix, None);
        let json = SweepReport::new("fixed", 7, 10, vec![c.clone()]).to_canonical_json();
        assert!(!json.contains("\"mix\""), "{json}");
        c.mix = Some("duel:cubic+bbr".to_string());
        let rep = SweepReport::new("fixed", 7, 10, vec![c]);
        let json = rep.to_canonical_json();
        assert!(json.contains("\"mix\":\"duel:cubic+bbr\""), "{json}");
        let back = SweepReport::from_json(&json).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn report_sorts_cells_by_index() {
        let mut a = one_cell_report();
        let mut b = a.clone();
        a.index = 5;
        b.index = 2;
        let rep = SweepReport::new("fixed", 7, 10, vec![a, b]);
        assert_eq!(rep.cells[0].index, 2);
        assert_eq!(rep.cells[1].index, 5);
        assert_eq!(rep.summary.cells, 2);
    }

    #[test]
    fn round6_rounds_half_away() {
        assert_eq!(round6(1.234_567_89), 1.234_568);
        assert_eq!(round6(-1.234_567_89), -1.234_568);
        assert_eq!(round6(2.0), 2.0);
    }
}
