//! # mocc-eval — parallel scenario-sweep evaluation harness
//!
//! The paper's headline claims rest on evaluating controllers across a
//! large matrix of network conditions (Table 3: bandwidth × RTT × queue
//! × loss). This crate turns that matrix into a first-class,
//! deterministic subsystem:
//!
//! - [`SweepSpec`] expands six axes (bandwidth, one-way delay, queue,
//!   loss, trace shape, flow load) into an ordered list of seeded
//!   [`Scenario`]s ([`SweepCell`]s);
//! - [`SweepRunner`] shards an experiment's cells across
//!   `std::thread::scope` workers (auto-detected count,
//!   `MOCC_SWEEP_THREADS` override) and runs each through one
//!   evaluator, serving what it can from a result store;
//! - [`SweepReport`] aggregates per-cell [`MonitorStats`]-derived
//!   metrics (goodput, mean/p95 RTT, loss, utilization, a scalar
//!   utility) and serializes to **canonical JSON** — two runs of the
//!   same spec are byte-identical regardless of thread count, the
//!   property the golden-trace regression tests build on;
//! - [`CompetitionSpec`] extends the matrix to shared-bottleneck
//!   *competitions*: contender mixes (mixed-preference MOCC pairs,
//!   scheme-vs-TCP duels, staircase churn with mid-run joins and
//!   leaves) reduced to fairness analytics — overlap-window Jain
//!   index, friendliness against an all-TCP control run, and time to
//!   fair share — emitted through the same canonical report (see
//!   [`competition`]);
//! - [`scheme`] unifies how schemes are named: one label grammar
//!   ([`SchemeSpec`]) and one pluggable [`SchemeRegistry`] behind a
//!   typed [`SpecError`] (no panics on bad input);
//! - [`experiment`] makes whole experiments declarative:
//!   [`ExperimentSpec`] is a canonical-JSON document over either
//!   workload, validated up front and lowered onto the expansion-level
//!   matrices. `mocc-core`'s `run_experiment` (and the `mocc` CLI in
//!   `mocc-bench`) runs spec files end-to-end; see `docs/SPECS.md`.
//!
//! [`Scenario`]: mocc_netsim::Scenario
//! [`MonitorStats`]: mocc_netsim::cc::MonitorStats
//!
//! ## Example
//!
//! Experiments are declarative [`ExperimentSpec`] documents — built in
//! code or loaded from canonical JSON files — validated against the
//! [`SchemeRegistry`] and expanded into seeded cells:
//!
//! ```
//! use mocc_eval::{ExperimentSpec, FlowLoad, SchemeSpec, SweepSpec};
//!
//! // CUBIC over a 2-cell bandwidth sweep.
//! let mut matrix = SweepSpec::single_cell();
//! matrix.bandwidth_mbps = vec![5.0, 10.0];
//! matrix.duration_s = 5;
//! let scheme = SchemeSpec::parse("cubic").unwrap();
//! let exp = ExperimentSpec::from_sweep("cubic", scheme, &matrix);
//! exp.validate().unwrap();
//! let cells = exp.to_sweep_spec().unwrap().expand();
//! assert_eq!(cells.len(), 2);
//! assert_eq!(cells[0].load, FlowLoad::Steady(1));
//! // Every cell has its own seed, and the spec round-trips through its
//! // on-disk JSON form.
//! assert_ne!(cells[0].scenario.seed, cells[1].scenario.seed);
//! assert_eq!(
//!     ExperimentSpec::from_json(&exp.to_canonical_json()).unwrap(),
//!     exp
//! );
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod competition;
pub mod experiment;
pub mod report;
pub mod runner;
pub mod scheme;
pub mod spec;

pub use cache::{
    competition_cell_key, sweep_cell_key, sweep_cell_request, CacheStats, PolicyIdentity,
    CELL_SCHEMA,
};
pub use competition::{
    competition_report, competition_report_with_baseline, CompetitionCell, CompetitionEvaluator,
    CompetitionSpec, ContenderMix, ControlMemo, ControlRuns,
};
pub use experiment::{
    Axes, CompetitionWorkload, ExperimentSpec, PolicySpec, SweepWorkload, Workload,
};
pub use report::{fmt_opt_metric, round6, CellCoords, CellReport, SweepReport, SweepSummary};
pub use runner::{parse_threads, run_cell, CellEvaluator, SweepRunner, THREADS_ENV};
pub use scheme::{MoccPrefSpec, SchemeCtx, SchemeKind, SchemeRegistry, SchemeSpec, SpecError};
pub use spec::{cell_seed, FlowLoad, ReplayTrace, SweepCell, SweepSpec, TraceShape};
