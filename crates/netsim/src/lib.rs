//! # mocc-netsim — packet-level network simulation substrate
//!
//! A deterministic discrete-event, packet-level network simulator built
//! as the training and evaluation substrate for the MOCC reproduction
//! (EuroSys 2022, "Multi-Objective Congestion Control").
//!
//! The simulator models the canonical congestion-control testbed: one
//! or more senders pace packets into a shared DropTail bottleneck with
//! configurable (and time-varying) bandwidth, propagation delay, queue
//! capacity, and iid random loss. Congestion-control algorithms plug in
//! through the [`cc::CongestionControl`] trait; learning agents drive a
//! flow externally through [`sim::Simulator::advance_until_monitor`].
//!
//! ## Example
//!
//! ```
//! use mocc_netsim::cc::FixedRate;
//! use mocc_netsim::scenario::Scenario;
//! use mocc_netsim::sim::Simulator;
//!
//! // A 2 Mbps sender over a 10 Mbps, 20 ms, lossless link for 10 s.
//! let sc = Scenario::single(10e6, 20, 500, 0.0, 10);
//! let res = Simulator::new(sc, vec![Box::new(FixedRate::new(2e6))]).run();
//! assert!(res.flows[0].utilization > 0.15);
//! ```

#![forbid(unsafe_code)]

pub mod app;
pub mod cc;
pub mod metrics;
pub mod scenario;
pub mod sim;
pub mod time;
pub mod trace;

pub use app::{AppSource, GreedySource, OnOffSource, RpcSource};
pub use cc::{
    AckInfo, CongestionControl, LossInfo, LossKind, MonitorStats, RateControl, SenderView,
};
pub use scenario::{AppPattern, FlowSpec, LinkSpec, MiMode, Scenario, ScenarioRange};
pub use sim::{FlowId, FlowResult, MiRecord, Processed, SimResult, Simulator};
pub use time::{SimDuration, SimTime};
pub use trace::BandwidthTrace;
