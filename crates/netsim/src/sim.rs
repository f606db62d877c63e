//! The discrete-event simulation engine.
//!
//! A [`Simulator`] executes one [`Scenario`]: flows paced by their
//! congestion controllers emit packets into a shared DropTail
//! bottleneck; the bottleneck serves packets at the (possibly
//! time-varying) link rate, applies iid random loss, and delivers
//! survivors to per-flow receivers that acknowledge immediately over a
//! lossless return path. Loss is detected at the sender by reordering
//! (three later ACKs) or by retransmission timeout.
//!
//! The engine runs in two modes:
//! - [`Simulator::run`] drives every flow from its attached
//!   [`CongestionControl`] until the scenario horizon;
//! - [`Simulator::advance_until_monitor`] yields control to an external
//!   agent (the RL training loop) at each monitor interval of a chosen
//!   flow, which then sets the next rate with [`Simulator::set_rate`].
//!
//! Events are totally ordered by `(time, schedule order)` and processed
//! one per [`Simulator::process_next`] call. There is no event queue as
//! such: almost every pending event is the only one, or the oldest one,
//! of the source that scheduled it — the link's next departure, a
//! flow's pacing timer, its monitor tick, its ACKs in flight — so each
//! source keeps its own (a key slot or a FIFO) and the scheduler takes
//! the minimum across sources. A pacing timer that is re-armed replaces
//! the one before it, so superseded timers are never processed; a flow
//! holds at most one application wake-up, the earliest asked for. Flow
//! starts and stops are known at construction and sorted once. There is
//! no heap.

use crate::app::{AppSource, GreedySource, OnOffSource, RpcSource};
use crate::cc::{
    AckInfo, CongestionControl, LossInfo, LossKind, MonitorStats, RateControl, SenderView,
};
use crate::scenario::{FlowSpec, MiMode, Scenario};
use crate::time::{tx_time, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Index of a flow within a scenario.
pub type FlowId = usize;

/// Reordering depth after which an outstanding packet is declared lost.
const REORDER_THRESHOLD: u64 = 3;
/// Lower bound on the retransmission timeout.
const MIN_RTO: SimDuration = SimDuration(200_000_000);
/// RTO used before the first RTT sample.
const INITIAL_RTO: SimDuration = SimDuration(1_000_000_000);
/// Floor for adaptive monitor intervals.
const MIN_MI: SimDuration = SimDuration(10_000_000);
/// Floor for pacing rates, preventing a flow from stalling forever.
const MIN_PACING_BPS: f64 = 1_000.0;
/// Cap on the send ratio when an interval sees no ACKs.
const MAX_SEND_RATIO: f64 = 10.0;

/// A data packet in the bottleneck queue. Emission time and size for
/// RTT/byte accounting live in the sending flow's [`OutstandingRing`];
/// the queue entry only carries what service and delivery need.
#[derive(Debug, Clone, Copy)]
struct Packet {
    flow: FlowId,
    seq: u64,
    size_bytes: u32,
}

/// A scheduled event, as [`EventSources::schedule`] takes it and
/// [`EventSources::pop`] hands it back. The ACK variant carries only
/// the flow and sequence number — the packet's size and emission time
/// live in the flow's [`OutstandingRing`] until the ACK (or a loss
/// declaration) resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    FlowStart(u32),
    FlowStop(u32),
    Pacing(u32),
    Departure,
    Ack { flow: u32, seq: u64 },
    Monitor(u32),
    AppWake(u32),
}

/// The total order of events: time (nanoseconds) and the scheduling
/// sequence number packed as `time << 64 | order`, so "earliest time
/// first, schedule order within a timestamp" is one wide integer
/// compare. `order` increments on every schedule call, so keys are
/// unique.
#[inline]
fn event_key(time: u64, order: u64) -> u128 {
    (time as u128) << 64 | order as u128
}

/// Key of a slot with nothing pending; it sorts after every real key.
const IDLE: u128 = u128::MAX;

/// How many events of each kind a simulator has popped: a pure function
/// of the scenario and its controllers, with no clock in it, kept as
/// plain fields of the simulator so counting costs one add per event.
/// A monitor tick that ends a drained flow's chain counts too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Flow starts.
    pub flow_start: u64,
    /// Scheduled flow stops.
    pub flow_stop: u64,
    /// Pacing timers (a re-armed timer replaces the one before it, so
    /// only timers that fire are counted).
    pub pacing: u64,
    /// Bottleneck departures.
    pub departure: u64,
    /// ACK arrivals.
    pub ack: u64,
    /// Monitor-interval ticks.
    pub monitor: u64,
    /// Application wake-ups of app-limited flows.
    pub app_wake: u64,
}

impl EventCounts {
    /// Every event popped, of any kind.
    pub fn total(&self) -> u64 {
        self.flow_start
            + self.flow_stop
            + self.pacing
            + self.departure
            + self.ack
            + self.monitor
            + self.app_wake
    }
}

/// Entries per block of an [`AckFifo`] (3 KiB).
const ACK_BLOCK: usize = 128;

/// The ACKs of one flow on their way back, oldest first, each
/// `[time, order, seq]` — three words, not `(u128, u64)`: the padded
/// form is a third larger, and an overdriven cell holds tens of
/// thousands of these. Stored in fixed-size blocks rather than one
/// `VecDeque`: a ring that doubles touches its whole capacity and, while
/// it grows, the old buffer as well, which showed as peak RSS
/// (docs/PERFORMANCE.md); blocks touch the live entries only and are
/// never copied.
#[derive(Debug, Default)]
struct AckFifo {
    /// Every block but the last is full; the front block's first
    /// `head` entries are already popped.
    blocks: VecDeque<Vec<[u64; 3]>>,
    head: usize,
    /// The last block emptied, kept for the next push.
    spare: Option<Vec<[u64; 3]>>,
}

impl AckFifo {
    #[inline]
    fn front(&self) -> Option<&[u64; 3]> {
        self.blocks.front()?.get(self.head)
    }

    /// The entry pushed last (popped or not).
    fn last_pushed(&self) -> Option<&[u64; 3]> {
        self.blocks.back()?.last()
    }

    fn push(&mut self, entry: [u64; 3]) {
        match self.blocks.back_mut() {
            Some(block) if block.len() < ACK_BLOCK => block.push(entry),
            _ => {
                let mut block = self
                    .spare
                    .take()
                    .unwrap_or_else(|| Vec::with_capacity(ACK_BLOCK));
                block.push(entry);
                self.blocks.push_back(block);
            }
        }
    }

    /// Drops the front entry, which must exist.
    fn pop(&mut self) {
        self.head += 1;
        if self.head == ACK_BLOCK {
            let mut block = self.blocks.pop_front().expect("the front entry existed");
            block.clear();
            self.spare = Some(block);
            self.head = 0;
        }
    }
}

/// Where a flow's pending events sit in its row of
/// [`EventSources::slots`]: its pacing timer (re-arming overwrites it:
/// only the latest timer of a flow ever does anything), its next
/// monitor tick, its application wake-up (the earliest asked for since
/// the last one fired, [`EventSources::wake`]) and the key of the front
/// of its ACK FIFO.
const PACING: usize = 0;
const MONITOR: usize = 1;
const WAKE: usize = 2;
const ACK: usize = 3;

/// The source of the smallest key in [`EventSources::pop`], besides
/// `4 · flow + slot` for a flow's slot.
const DEPARTURE_SOURCE: usize = usize::MAX;
const LIFECYCLE_SOURCE: usize = usize::MAX - 1;

/// Every pending event, held by the source that produced it.
///
/// The bottleneck has at most one departure pending, and a flow at most
/// one pacing timer, one monitor tick and one application wake-up that
/// matter: those are plain key slots. A flow's ACKs are scheduled in key
/// order: a FIFO, whose front key is copied into a fourth slot, so a
/// flow's four keys lie side by side and [`Self::pop`] scans one dense
/// array. Flow starts and stops are all scheduled at construction: a
/// vector sorted once, read front to back. [`Self::pop`] takes the
/// smallest key across all of them — the order one priority queue over
/// every event would produce, since keys are unique.
#[derive(Debug)]
struct EventSources {
    next_order: u64,
    /// Key of the last event handed out (debug builds check that keys
    /// only grow).
    last_popped: Option<u128>,
    departure: u128,
    /// Per flow, the keys at [`PACING`], [`MONITOR`], [`WAKE`] and
    /// [`ACK`]; [`IDLE`] where nothing is pending.
    slots: Vec<[u128; 4]>,
    /// Per flow, its ACKs in flight. The return delay is constant per
    /// flow and departures are serial, so ACKs are scheduled in key
    /// order and the front is the flow's earliest.
    acks: Vec<AckFifo>,
    /// Every flow start and stop, in key order; the first
    /// `next_lifecycle` have been popped.
    lifecycle: Vec<(u128, EventKind)>,
    next_lifecycle: usize,
    counts: EventCounts,
}

impl EventSources {
    /// The sources of `flows`, with each flow's start and (if any) stop
    /// scheduled in flow order.
    fn new(flows: &[FlowSpec]) -> Self {
        let mut lifecycle: Vec<(u128, EventKind)> = Vec::with_capacity(2 * flows.len());
        let mut push = |time: SimTime, kind| {
            let order = lifecycle.len() as u64;
            lifecycle.push((event_key(time.0, order), kind));
        };
        for (f, spec) in flows.iter().enumerate() {
            push(spec.start, EventKind::FlowStart(f as u32));
            if let Some(stop) = spec.stop {
                push(stop, EventKind::FlowStop(f as u32));
            }
        }
        lifecycle.sort_unstable_by_key(|&(key, _)| key);
        EventSources {
            next_order: lifecycle.len() as u64,
            last_popped: None,
            departure: IDLE,
            slots: vec![[IDLE; 4]; flows.len()],
            acks: flows.iter().map(|_| AckFifo::default()).collect(),
            lifecycle,
            next_lifecycle: 0,
            counts: EventCounts::default(),
        }
    }

    /// Asks for an application wake-up of flow `f` at `time`. A flow has
    /// at most one pending: one no later than `time` stands, a later one
    /// is replaced.
    fn wake(&mut self, f: u32, time: SimTime) {
        let pending = self.slots[f as usize][WAKE];
        if pending == IDLE || (pending >> 64) as u64 > time.0 {
            self.schedule(time, EventKind::AppWake(f));
        }
    }

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let order = self.next_order;
        self.next_order += 1;
        let key = event_key(time.0, order);
        match kind {
            EventKind::Departure => {
                debug_assert_eq!(self.departure, IDLE, "the link serves one packet at a time");
                self.departure = key;
            }
            EventKind::Pacing(f) => self.slots[f as usize][PACING] = key,
            EventKind::Monitor(f) => {
                let slot = &mut self.slots[f as usize][MONITOR];
                debug_assert_eq!(*slot, IDLE, "one monitor tick per flow");
                *slot = key;
            }
            EventKind::Ack { flow, seq } => {
                let acks = &mut self.acks[flow as usize];
                debug_assert!(
                    acks.last_pushed()
                        .map_or(true, |&[t, o, _]| event_key(t, o) < key),
                    "a flow's ACKs are scheduled in key order"
                );
                acks.push([time.0, order, seq]);
                let front = &mut self.slots[flow as usize][ACK];
                if *front == IDLE {
                    *front = key;
                }
            }
            EventKind::AppWake(f) => {
                let slot = &mut self.slots[f as usize][WAKE];
                debug_assert!(
                    *slot == IDLE || (*slot >> 64) as u64 > time.0,
                    "one wake-up per flow: a pending one no later than this stands"
                );
                *slot = key;
            }
            EventKind::FlowStart(_) | EventKind::FlowStop(_) => {
                unreachable!("flow starts and stops are scheduled at construction")
            }
        }
    }

    /// Removes and returns the earliest pending event, unless there is
    /// none or it lies beyond `end`.
    fn pop(&mut self, end: SimTime) -> Option<(SimTime, EventKind)> {
        let mut key = self.departure;
        let mut source = DEPARTURE_SOURCE;
        for (f, keys) in self.slots.iter().enumerate() {
            for (slot, &k) in keys.iter().enumerate() {
                if k < key {
                    key = k;
                    source = 4 * f + slot;
                }
            }
        }
        if let Some(&(k, _)) = self.lifecycle.get(self.next_lifecycle) {
            if k < key {
                key = k;
                source = LIFECYCLE_SOURCE;
            }
        }
        let time = SimTime((key >> 64) as u64);
        if key == IDLE || time > end {
            return None;
        }
        debug_assert!(Some(key) > self.last_popped, "event keys only grow");
        self.last_popped = Some(key);
        let counts = &mut self.counts;
        let kind = match source {
            DEPARTURE_SOURCE => {
                counts.departure += 1;
                self.departure = IDLE;
                EventKind::Departure
            }
            LIFECYCLE_SOURCE => {
                let (_, kind) = self.lifecycle[self.next_lifecycle];
                match kind {
                    EventKind::FlowStart(_) => counts.flow_start += 1,
                    _ => counts.flow_stop += 1,
                }
                self.next_lifecycle += 1;
                kind
            }
            i => {
                let (f, slot) = (i / 4, i % 4);
                let slots = &mut self.slots[f];
                slots[slot] = IDLE;
                let flow = f as u32;
                match slot {
                    PACING => {
                        counts.pacing += 1;
                        EventKind::Pacing(flow)
                    }
                    MONITOR => {
                        counts.monitor += 1;
                        EventKind::Monitor(flow)
                    }
                    WAKE => {
                        counts.app_wake += 1;
                        EventKind::AppWake(flow)
                    }
                    _ => {
                        counts.ack += 1;
                        let acks = &mut self.acks[f];
                        let &[_, _, seq] = acks.front().expect("a keyed ACK is queued");
                        acks.pop();
                        if let Some(&[t, o, _]) = acks.front() {
                            slots[ACK] = event_key(t, o);
                        }
                        EventKind::Ack { flow, seq }
                    }
                }
            }
        };
        Some((time, kind))
    }
}

#[derive(Debug, Clone, Copy)]
struct SentPkt {
    size_bytes: u32,
    sent_at: SimTime,
}

/// The in-flight packets of one flow, stored as a sequence-indexed ring
/// arena instead of an ordered map. Sequence numbers are assigned
/// consecutively at emission, so the packet for `seq` lives at offset
/// `seq - front_seq` in a `VecDeque` — O(1) insert, O(1) exact removal
/// (a tombstone plus front compaction), and range/timeout scans become
/// contiguous prefix walks. Live-set semantics and iteration order are
/// identical to the `BTreeMap` this replaces; it is purely a hot-path
/// representation change (the allocation is reused for the whole run).
#[derive(Debug, Default)]
struct OutstandingRing {
    /// Sequence number of `slots[0]` (meaningful when non-empty).
    front_seq: u64,
    /// One slot per emitted-and-unresolved sequence number; `live`
    /// is false once acknowledged or declared lost (tombstone awaiting
    /// front compaction).
    slots: VecDeque<OutSlot>,
    /// Number of live (tracked in-flight) packets.
    live: usize,
}

#[derive(Debug, Clone, Copy)]
struct OutSlot {
    pkt: SentPkt,
    live: bool,
}

impl OutstandingRing {
    /// Number of tracked in-flight packets.
    #[inline]
    fn len(&self) -> usize {
        self.live
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Registers a freshly emitted packet. `seq` must be the successor
    /// of the last inserted sequence number (emission order).
    fn insert(&mut self, seq: u64, pkt: SentPkt) {
        if self.slots.is_empty() {
            self.front_seq = seq;
        }
        debug_assert_eq!(seq, self.front_seq + self.slots.len() as u64);
        self.slots.push_back(OutSlot { pkt, live: true });
        self.live += 1;
    }

    /// Removes and returns the packet for `seq`, if still tracked.
    fn remove(&mut self, seq: u64) -> Option<SentPkt> {
        let offset = seq.checked_sub(self.front_seq)? as usize;
        let slot = self.slots.get_mut(offset)?;
        if !slot.live {
            return None;
        }
        slot.live = false;
        self.live -= 1;
        let pkt = slot.pkt;
        // Compact resolved slots off the front so offsets stay small.
        while let Some(front) = self.slots.front() {
            if front.live {
                break;
            }
            self.slots.pop_front();
            self.front_seq += 1;
        }
        Some(pkt)
    }

    /// Appends to `out` the live sequence numbers strictly below
    /// `bound`, in ascending order (the reorder-loss scan).
    fn live_below(&self, bound: u64, out: &mut Vec<u64>) {
        for (i, slot) in self.slots.iter().enumerate() {
            let seq = self.front_seq + i as u64;
            if seq >= bound {
                break;
            }
            if slot.live {
                out.push(seq);
            }
        }
    }

    /// Appends to `out` the live sequence numbers whose age exceeds
    /// `rto`, in ascending order. Emission times are non-decreasing in
    /// sequence order, so expiry is a prefix property: the scan stops
    /// at the first live packet that has not timed out.
    fn expired(&self, now: SimTime, rto: SimDuration, out: &mut Vec<u64>) {
        for (i, slot) in self.slots.iter().enumerate() {
            if !slot.live {
                continue;
            }
            if now - slot.pkt.sent_at > rto {
                out.push(self.front_seq + i as u64);
            } else {
                break;
            }
        }
    }
}

/// One monitor-interval record kept for post-hoc analysis and plotting.
/// A flow keeps one per interval only in a simulator built with
/// [`Simulator::with_mi_records`]; every simulator keeps each
/// interval's [`Self::mean_rtt_ms`] ([`FlowResult::mi_rtt_ms`]).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MiRecord {
    /// Interval end time, seconds.
    pub t_s: f64,
    /// Delivered throughput, bits per second.
    pub throughput_bps: f64,
    /// Sending rate, bits per second.
    pub sending_rate_bps: f64,
    /// Mean RTT, milliseconds (0 when the interval had no ACKs).
    pub mean_rtt_ms: f64,
    /// Loss rate in the interval.
    pub loss_rate: f64,
    /// Send ratio `l_t`.
    pub send_ratio: f64,
    /// Latency ratio `p_t`.
    pub latency_ratio: f64,
    /// Latency gradient `q_t`.
    pub latency_gradient: f64,
    /// Pacing rate at the end of the interval, bits per second.
    pub pacing_rate_bps: f64,
}

struct FlowState {
    spec: crate::scenario::FlowSpec,
    cc: Option<Box<dyn CongestionControl>>,
    app: Box<dyn AppSource>,
    /// Fast-path flag: a greedy bulk source always grants every `take`
    /// and ignores every callback, so the per-packet dyn dispatch and
    /// byte bookkeeping can be skipped without changing behaviour.
    /// Cleared whenever a custom source is attached via `set_app`.
    greedy: bool,
    ctl: RateControl,
    active: bool,
    done: bool,
    next_seq: u64,
    outstanding: OutstandingRing,
    next_send_time: SimTime,
    /// The pacing gap of the last packet sent.
    pacing_gap: TxMemo,
    app_bytes_avail: u64,
    inflight_bytes: u64,
    // RTT estimation (RFC 6298).
    min_rtt: Option<SimDuration>,
    srtt_s: f64,
    rttvar_s: f64,
    have_srtt: bool,
    // Lifetime totals.
    total_sent: u64,
    total_acked: u64,
    total_lost: u64,
    total_sent_bytes: u64,
    total_acked_bytes: u64,
    rtt_sum_s: f64,
    rtt_count: u64,
    start_time: SimTime,
    finish_time: Option<SimTime>,
    // Monitor-interval accumulators.
    mi_start: SimTime,
    mi_sent: u64,
    mi_acked: u64,
    mi_lost: u64,
    mi_sent_bytes: u64,
    mi_acked_bytes: u64,
    mi_rtt_samples: Vec<(f64, f64)>,
    // Outputs.
    per_sec_acked_bits: Vec<f64>,
    mi_rtt_ms: Vec<f64>,
    /// Empty unless the simulator keeps records.
    mi_records: Vec<MiRecord>,
}

impl FlowState {
    fn new(spec: crate::scenario::FlowSpec, cc: Box<dyn CongestionControl>) -> Self {
        let app: Box<dyn AppSource> = match spec.app {
            crate::scenario::AppPattern::Greedy => Box::new(GreedySource),
            crate::scenario::AppPattern::OnOff { on, off, rate_bps } => {
                // Accrual starts with the flow: a staggered cross flow
                // must not open with a burst of pre-start production.
                Box::new(OnOffSource::new(on, off, rate_bps).starting_at(spec.start))
            }
            crate::scenario::AppPattern::Rpc {
                request_bytes,
                think,
            } => Box::new(RpcSource::new(request_bytes, think)),
        };
        let greedy = matches!(spec.app, crate::scenario::AppPattern::Greedy);
        FlowState {
            spec,
            cc: Some(cc),
            app,
            greedy,
            ctl: RateControl::open(),
            active: false,
            done: false,
            next_seq: 0,
            outstanding: OutstandingRing::default(),
            next_send_time: SimTime::ZERO,
            pacing_gap: TxMemo::new(),
            app_bytes_avail: 0,
            inflight_bytes: 0,
            min_rtt: None,
            srtt_s: 0.0,
            rttvar_s: 0.0,
            have_srtt: false,
            total_sent: 0,
            total_acked: 0,
            total_lost: 0,
            total_sent_bytes: 0,
            total_acked_bytes: 0,
            rtt_sum_s: 0.0,
            rtt_count: 0,
            start_time: SimTime::ZERO,
            finish_time: None,
            mi_start: SimTime::ZERO,
            mi_sent: 0,
            mi_acked: 0,
            mi_lost: 0,
            mi_sent_bytes: 0,
            mi_acked_bytes: 0,
            mi_rtt_samples: Vec::new(),
            per_sec_acked_bits: Vec::new(),
            mi_rtt_ms: Vec::new(),
            mi_records: Vec::new(),
        }
    }

    fn srtt(&self) -> Option<SimDuration> {
        self.have_srtt
            .then(|| SimDuration::from_secs_f64(self.srtt_s))
    }

    fn rto(&self) -> SimDuration {
        if !self.have_srtt {
            return INITIAL_RTO;
        }
        SimDuration::from_secs_f64(self.srtt_s + 4.0 * self.rttvar_s).max(MIN_RTO)
    }

    fn observe_rtt(&mut self, rtt: SimDuration) {
        let r = rtt.as_secs_f64();
        if !self.have_srtt {
            self.srtt_s = r;
            self.rttvar_s = r / 2.0;
            self.have_srtt = true;
        } else {
            self.rttvar_s = 0.75 * self.rttvar_s + 0.25 * (self.srtt_s - r).abs();
            self.srtt_s = 0.875 * self.srtt_s + 0.125 * r;
        }
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(rtt),
            None => rtt,
        });
    }
}

struct Bottleneck {
    queue: VecDeque<Packet>,
    busy: bool,
    /// The service time of the last packet served.
    service: TxMemo,
}

/// The last [`tx_time`] asked of one clock — the link's service or a
/// flow's pacing gap — with its operands. A constant link, or a pacing
/// rate held for a monitor interval, asks the same question packet
/// after packet, and the answer is a pure function of the packet's size
/// and the rate's bits, so it is computed once per change of either.
#[derive(Debug, Clone, Copy)]
struct TxMemo {
    size_bytes: u32,
    rate_bits: u64,
    time: SimDuration,
}

impl TxMemo {
    /// The memo of a zero-byte packet at rate `0.0`, which is correct as
    /// it stands and so needs no "empty" state.
    fn new() -> Self {
        TxMemo {
            size_bytes: 0,
            rate_bits: 0f64.to_bits(),
            time: tx_time(0.0, 0.0),
        }
    }

    /// `tx_time(size_bytes · 8, rate_bps)`, counting in `divisions` each
    /// time it is computed rather than recalled.
    #[inline]
    fn get(&mut self, size_bytes: u32, rate_bps: f64, divisions: &mut u64) -> SimDuration {
        let rate_bits = rate_bps.to_bits();
        if size_bytes != self.size_bytes || rate_bits != self.rate_bits {
            *divisions += 1;
            *self = TxMemo {
                size_bytes,
                rate_bits,
                time: tx_time(size_bytes as f64 * 8.0, rate_bps),
            };
        }
        self.time
    }
}

/// The result of one simulated flow.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowResult {
    /// Congestion-controller name.
    pub name: String,
    /// Mean delivered throughput over the flow's active period, bps.
    /// **Duration-weighted**: delivered bytes divided by [`Self::active_s`],
    /// not by the scenario horizon — a flow that leaves halfway reports
    /// the rate it achieved *while present*. Horizon-weighted aggregates
    /// must be computed from [`Self::total_acked_bytes`] instead.
    pub throughput_bps: f64,
    /// Mean RTT over all samples, milliseconds.
    pub mean_rtt_ms: f64,
    /// Lifetime loss rate: lost / (lost + acked).
    pub loss_rate: f64,
    /// Throughput divided by the mean bottleneck rate.
    pub utilization: f64,
    /// Mean RTT divided by the base (propagation) RTT.
    pub latency_ratio: f64,
    /// Flow completion time for bounded flows.
    pub fct: Option<SimDuration>,
    /// Delivered megabits in each whole second of simulated time.
    pub per_sec_mbits: Vec<f64>,
    /// Mean RTT of each monitor interval, milliseconds (0 for an
    /// interval with no ACKs): the [`MiRecord::mean_rtt_ms`] series,
    /// kept by every simulator. The codec skips it: a result's JSON
    /// holds these values in its records, when it has them.
    #[serde(skip)]
    pub mi_rtt_ms: Vec<f64>,
    /// Per-monitor-interval records, kept only by a simulator built with
    /// [`Simulator::with_mi_records`] and moved out by
    /// [`Simulator::into_result`] (or [`Simulator::run`]); empty
    /// otherwise, and in every [`Simulator::result`].
    pub mi_records: Vec<MiRecord>,
    /// Total packets sent.
    pub total_sent: u64,
    /// Total packets acknowledged.
    pub total_acked: u64,
    /// Total packets lost.
    pub total_lost: u64,
    /// Total payload bytes acknowledged over the flow's lifetime — the
    /// numerator of both the duration-weighted [`Self::throughput_bps`]
    /// and any horizon-weighted goodput an aggregator chooses to
    /// compute.
    pub total_acked_bytes: u64,
    /// Length of the flow's active window in seconds (start until
    /// completion/stop/horizon, whichever first), the denominator of
    /// [`Self::throughput_bps`]. Floored at 1 ns so a flow that never
    /// starts divides zero bytes by a tiny epsilon, not by zero.
    pub active_s: f64,
    /// Packets still outstanding (neither acknowledged nor declared
    /// lost) when the result was taken. Packet conservation holds
    /// exactly: `total_sent == total_acked + total_lost + pkts_in_flight`.
    pub pkts_in_flight: u64,
}

/// The result of a completed simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Scenario horizon.
    pub duration: SimDuration,
    /// Mean bottleneck rate over the horizon, bps.
    pub link_mean_rate_bps: f64,
    /// Base (propagation) RTT of the bottleneck, milliseconds.
    pub base_rtt_ms: f64,
    /// One result per flow, in scenario order.
    pub flows: Vec<FlowResult>,
}

/// What the caller learns from a single processed event.
#[derive(Debug)]
pub enum Processed {
    /// A monitor interval of `flow` completed with these statistics.
    Monitor(FlowId, MonitorStats),
    /// Any other internal event.
    Other,
}

/// Discrete-event simulator for one scenario. See the module docs.
pub struct Simulator {
    now: SimTime,
    end: SimTime,
    events: EventSources,
    flows: Vec<FlowState>,
    bottleneck: Bottleneck,
    scenario: Scenario,
    rng: StdRng,
    /// Reusable buffer for reorder/timeout loss collection — reused
    /// across the whole run so the per-ACK path is allocation-free.
    loss_scratch: Vec<u64>,
    /// Service times and pacing gaps computed, not recalled
    /// ([`Self::tx_divisions`]).
    tx_divisions: u64,
    /// Whether flows keep a [`MiRecord`] per monitor interval
    /// ([`Self::with_mi_records`]).
    keep_mi_records: bool,
}

impl Simulator {
    /// Builds a simulator from a scenario and one controller per flow.
    ///
    /// # Panics
    ///
    /// Panics if the number of controllers differs from the number of
    /// flows in the scenario.
    pub fn new(scenario: Scenario, ccs: Vec<Box<dyn CongestionControl>>) -> Self {
        assert_eq!(
            scenario.flows.len(),
            ccs.len(),
            "one congestion controller per flow"
        );
        let rng = StdRng::seed_from_u64(scenario.seed);
        let flows: Vec<FlowState> = scenario
            .flows
            .iter()
            .cloned()
            .zip(ccs)
            .map(|(spec, cc)| FlowState::new(spec, cc))
            .collect();
        Simulator {
            now: SimTime::ZERO,
            end: SimTime::ZERO + scenario.duration,
            events: EventSources::new(&scenario.flows),
            flows,
            bottleneck: Bottleneck {
                queue: VecDeque::new(),
                busy: false,
                service: TxMemo::new(),
            },
            scenario,
            rng,
            loss_scratch: Vec::new(),
            tx_divisions: 0,
            keep_mi_records: false,
        }
    }

    /// This simulator, with every flow keeping a full [`MiRecord`] per
    /// monitor interval for its result ([`FlowResult::mi_records`]), 72
    /// bytes each beside the 8 of the mean-RTT series every flow keeps.
    /// For callers that read more of an interval than its mean RTT.
    pub fn with_mi_records(mut self) -> Self {
        self.keep_mi_records = true;
        self
    }

    /// Replaces the application source of `flow` (default: greedy bulk).
    pub fn set_app(&mut self, flow: FlowId, app: Box<dyn AppSource>) {
        self.flows[flow].app = app;
        self.flows[flow].greedy = false;
    }

    /// Sets the pacing rate of `flow` (external-agent mode).
    pub fn set_rate(&mut self, flow: FlowId, rate_bps: f64) {
        self.flows[flow].ctl.pacing_rate_bps = rate_bps.max(MIN_PACING_BPS);
        self.try_send(flow);
    }

    /// Current pacing rate of `flow`, bps.
    pub fn rate(&self, flow: FlowId) -> f64 {
        self.flows[flow].ctl.pacing_rate_bps
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The events popped so far, by kind.
    pub fn event_counts(&self) -> EventCounts {
        self.events.counts
    }

    /// How many link service times and pacing gaps the simulator has
    /// computed: one per change of packet size or rate, each other
    /// packet recalls the last. Like [`Self::event_counts`], a pure
    /// function of the scenario and its controllers.
    pub fn tx_divisions(&self) -> u64 {
        self.tx_divisions
    }

    /// The bytes of per-interval data the flows retain so far: 8 per
    /// monitor interval for the mean-RTT series, and 72 more with
    /// [`Self::with_mi_records`]. Like [`Self::event_counts`], a pure
    /// function of the scenario and its controllers.
    pub fn record_bytes(&self) -> u64 {
        self.flows
            .iter()
            .map(|fl| {
                fl.mi_rtt_ms.len() * std::mem::size_of::<f64>()
                    + fl.mi_records.len() * std::mem::size_of::<MiRecord>()
            })
            .sum::<usize>() as u64
    }

    /// Minimum RTT observed so far by `flow`.
    pub fn min_rtt(&self, flow: FlowId) -> Option<SimDuration> {
        self.flows[flow].min_rtt
    }

    fn view(&self, f: FlowId) -> SenderView {
        let fl = &self.flows[f];
        SenderView {
            now: self.now,
            mss_bytes: self.scenario.mss_bytes,
            min_rtt: fl.min_rtt,
            srtt_s: fl.have_srtt.then_some(fl.srtt_s),
            inflight_pkts: fl.outstanding.len() as u64,
            total_sent: fl.total_sent,
            total_acked: fl.total_acked,
            total_lost: fl.total_lost,
        }
    }

    fn mi_len(&self, f: FlowId) -> SimDuration {
        let fl = &self.flows[f];
        match fl.spec.mi {
            MiMode::Fixed(d) => d,
            MiMode::RttFraction(k) => {
                let rtt = fl
                    .srtt()
                    .unwrap_or_else(|| self.scenario.link.base_rtt())
                    .mul_f64(k);
                rtt.max(MIN_MI)
            }
        }
    }

    fn with_cc<Rv>(
        &mut self,
        f: FlowId,
        call: impl FnOnce(&mut dyn CongestionControl, &SenderView, &mut RateControl) -> Rv,
    ) -> Rv {
        let mut cc = self.flows[f].cc.take().expect("controller present");
        let v = self.view(f);
        let mut ctl = self.flows[f].ctl;
        let rv = call(cc.as_mut(), &v, &mut ctl);
        ctl.pacing_rate_bps = ctl.pacing_rate_bps.max(MIN_PACING_BPS);
        ctl.cwnd_pkts = ctl.cwnd_pkts.max(1.0);
        self.flows[f].ctl = ctl;
        self.flows[f].cc = Some(cc);
        rv
    }

    fn try_send(&mut self, f: FlowId) {
        loop {
            let fl = &self.flows[f];
            if !fl.active || fl.done {
                return;
            }
            // Window gate.
            if (fl.outstanding.len() as f64) + 1.0 > fl.ctl.cwnd_pkts {
                return; // Re-entered from the next ACK.
            }
            // Pacing gate.
            if fl.ctl.pacing_rate_bps.is_finite() && fl.next_send_time > self.now {
                self.events
                    .schedule(fl.next_send_time, EventKind::Pacing(f as u32));
                return;
            }
            // Application-data gate.
            let mss = self.scenario.mss_bytes as u64;
            // Lost bytes are excluded so they get "retransmitted":
            // the goal counts delivered plus in-flight data only.
            let fl = &self.flows[f];
            let remaining = fl
                .spec
                .bytes_to_send
                .map(|goal| goal.saturating_sub(fl.total_acked_bytes + fl.inflight_bytes))
                .unwrap_or(u64::MAX);
            if remaining == 0 {
                // Everything is out; completion fires when ACKed.
                return;
            }
            let want = mss.min(remaining);
            let size = if fl.greedy {
                // Greedy fast path: `take` always grants in full, so
                // the bookkeeping below would always yield `want`.
                want
            } else {
                let now = self.now;
                let fl = &mut self.flows[f];
                if fl.app_bytes_avail < want {
                    fl.app_bytes_avail += fl.app.take(now, want - fl.app_bytes_avail);
                }
                let held = fl.app_bytes_avail;
                if held >= want {
                    want
                } else if held > 0 && fl.app.may_flush(now) {
                    // The burst's last, short packet.
                    held
                } else {
                    // App-limited: wake when the source may have the
                    // rest of a packet (docs/EVALUATION.md, "App-limited
                    // sending").
                    if let Some(when) = fl.app.next_wakeup(now, want - held) {
                        if when > now {
                            self.events.wake(f as u32, when);
                        }
                    }
                    return;
                }
            };
            if !self.flows[f].greedy {
                self.flows[f].app_bytes_avail -= size;
            }
            self.emit_packet(f, size as u32);
        }
    }

    fn emit_packet(&mut self, f: FlowId, size_bytes: u32) {
        let seq = self.flows[f].next_seq;
        self.flows[f].next_seq += 1;
        let pkt = Packet {
            flow: f,
            seq,
            size_bytes,
        };
        {
            let fl = &mut self.flows[f];
            fl.outstanding.insert(
                seq,
                SentPkt {
                    size_bytes,
                    sent_at: self.now,
                },
            );
            fl.total_sent += 1;
            fl.total_sent_bytes += size_bytes as u64;
            fl.inflight_bytes += size_bytes as u64;
            fl.mi_sent += 1;
            fl.mi_sent_bytes += size_bytes as u64;
            // Advance the pacing clock.
            if fl.ctl.pacing_rate_bps.is_finite() {
                let gap =
                    fl.pacing_gap
                        .get(size_bytes, fl.ctl.pacing_rate_bps, &mut self.tx_divisions);
                let base = fl.next_send_time.max(self.now);
                fl.next_send_time = base + gap;
            }
        }
        // Enqueue at the bottleneck.
        if self.bottleneck.queue.len() >= self.scenario.link.queue_pkts {
            // DropTail overflow: the sender discovers it via reordering
            // or timeout, exactly as on a real path.
            return;
        }
        self.bottleneck.queue.push_back(pkt);
        if !self.bottleneck.busy {
            self.start_service();
        }
    }

    fn start_service(&mut self) {
        if let Some(head) = self.bottleneck.queue.front() {
            let rate = self.scenario.link.trace.rate_at(self.now);
            let t = self
                .bottleneck
                .service
                .get(head.size_bytes, rate, &mut self.tx_divisions);
            self.bottleneck.busy = true;
            self.events.schedule(self.now + t, EventKind::Departure);
        } else {
            self.bottleneck.busy = false;
        }
    }

    fn handle_departure(&mut self) {
        let pkt = match self.bottleneck.queue.pop_front() {
            Some(p) => p,
            None => {
                self.bottleneck.busy = false;
                return;
            }
        };
        self.start_service();
        // Random loss at link egress.
        if self.scenario.link.loss_rate > 0.0
            && self.rng.gen::<f64>() < self.scenario.link.loss_rate
        {
            return;
        }
        // The receiver acknowledges immediately and the return path is
        // lossless and uncongested, so delivery plus acknowledgement is
        // one event at `now + 2·owd` — there is nothing for a separate
        // arrival event to decide, and skipping it removes a third of
        // the per-packet events.
        let owd = self.scenario.link.one_way_delay + self.flows[pkt.flow].spec.extra_owd;
        self.events.schedule(
            self.now + owd + owd,
            EventKind::Ack {
                flow: pkt.flow as u32,
                seq: pkt.seq,
            },
        );
    }

    fn handle_ack(&mut self, f: FlowId, seq: u64) {
        let pkt = match self.flows[f].outstanding.remove(seq) {
            Some(p) => p,
            // Already declared lost (late arrival after timeout); the
            // conservative choice is to ignore it.
            None => return,
        };
        self.flows[f].inflight_bytes = self.flows[f]
            .inflight_bytes
            .saturating_sub(pkt.size_bytes as u64);
        let rtt = self.now - pkt.sent_at;
        {
            let fl = &mut self.flows[f];
            fl.observe_rtt(rtt);
            fl.total_acked += 1;
            fl.total_acked_bytes += pkt.size_bytes as u64;
            fl.mi_acked += 1;
            fl.mi_acked_bytes += pkt.size_bytes as u64;
            let rtt_s = rtt.as_secs_f64();
            let now_s = self.now.as_secs_f64();
            fl.rtt_sum_s += rtt_s;
            fl.rtt_count += 1;
            fl.mi_rtt_samples.push((now_s, rtt_s));
            let sec = now_s as usize;
            if fl.per_sec_acked_bits.len() <= sec {
                fl.per_sec_acked_bits.resize(sec + 1, 0.0);
            }
            fl.per_sec_acked_bits[sec] += pkt.size_bytes as f64 * 8.0;
        }
        if !self.flows[f].greedy {
            let now = self.now;
            self.flows[f].app.on_delivered(now, pkt.size_bytes as u64);
        }
        let ack = AckInfo {
            seq,
            rtt,
            acked_bytes: pkt.size_bytes,
        };
        self.with_cc(f, |cc, v, ctl| cc.on_ack(v, &ack, ctl));
        // Reordering-based loss detection: outstanding packets more than
        // REORDER_THRESHOLD sequence numbers behind this ACK are lost.
        let lost_below = seq.saturating_sub(REORDER_THRESHOLD);
        let mut lost = std::mem::take(&mut self.loss_scratch);
        lost.clear();
        self.flows[f].outstanding.live_below(lost_below, &mut lost);
        if !lost.is_empty() {
            self.declare_lost(f, &lost, LossKind::Reorder);
        }
        self.loss_scratch = lost;
        // Completion check for bounded flows.
        if let Some(goal) = self.flows[f].spec.bytes_to_send {
            if self.flows[f].total_acked_bytes >= goal && self.flows[f].finish_time.is_none() {
                self.flows[f].finish_time = Some(self.now);
                self.flows[f].done = true;
                self.flows[f].active = false;
            }
        }
        self.try_send(f);
    }

    fn check_timeouts(&mut self, f: FlowId) {
        let rto = self.flows[f].rto();
        let now = self.now;
        let mut expired = std::mem::take(&mut self.loss_scratch);
        expired.clear();
        self.flows[f].outstanding.expired(now, rto, &mut expired);
        if !expired.is_empty() {
            self.declare_lost(f, &expired, LossKind::Timeout);
        }
        self.loss_scratch = expired;
    }

    /// Removes the given sequence numbers as lost, updates counters,
    /// notifies the application (so reliable sources can re-supply the
    /// bytes) and the congestion controller.
    fn declare_lost(&mut self, f: FlowId, seqs: &[u64], kind: LossKind) {
        let mut lost_bytes = 0u64;
        for &s in seqs {
            if let Some(p) = self.flows[f].outstanding.remove(s) {
                lost_bytes += p.size_bytes as u64;
            }
        }
        let n = seqs.len() as u64;
        {
            let fl = &mut self.flows[f];
            fl.total_lost += n;
            fl.mi_lost += n;
            fl.inflight_bytes = fl.inflight_bytes.saturating_sub(lost_bytes);
        }
        if !self.flows[f].greedy {
            let now = self.now;
            self.flows[f].app.on_lost(now, lost_bytes);
        }
        let info = LossInfo { lost_pkts: n, kind };
        self.with_cc(f, |cc, v, ctl| cc.on_loss(v, &info, ctl));
        self.try_send(f);
    }

    fn handle_monitor(&mut self, f: FlowId) -> Option<MonitorStats> {
        // A retired flow — completed, or departed via its scheduled
        // stop — only needs monitor ticks while packets are still
        // outstanding (the timeout scan runs here); once drained, its
        // monitor chain ends instead of firing no-op events (and
        // pushing empty records) until the horizon.
        let fl = &self.flows[f];
        let departed = !fl.active && fl.spec.stop.is_some_and(|stop| stop <= self.now);
        if (fl.done || departed) && fl.outstanding.is_empty() {
            return None;
        }
        self.check_timeouts(f);
        let stats = self.compute_mi_stats(f);
        let mean_rtt_ms = stats.mean_rtt.map(|r| r.as_millis_f64()).unwrap_or(0.0);
        let fl = &mut self.flows[f];
        fl.mi_rtt_ms.push(mean_rtt_ms);
        if self.keep_mi_records {
            fl.mi_records.push(MiRecord {
                t_s: stats.end.as_secs_f64(),
                throughput_bps: stats.throughput_bps,
                sending_rate_bps: stats.sending_rate_bps,
                mean_rtt_ms,
                loss_rate: stats.loss_rate,
                send_ratio: stats.send_ratio,
                latency_ratio: stats.latency_ratio,
                latency_gradient: stats.latency_gradient,
                pacing_rate_bps: fl.ctl.pacing_rate_bps,
            });
        }
        if self.flows[f].active {
            self.with_cc(f, |cc, v, ctl| cc.on_monitor(v, &stats, ctl));
            self.try_send(f);
        }
        // Reset accumulators and schedule the next tick.
        {
            let fl = &mut self.flows[f];
            fl.mi_start = self.now;
            fl.mi_sent = 0;
            fl.mi_acked = 0;
            fl.mi_lost = 0;
            fl.mi_sent_bytes = 0;
            fl.mi_acked_bytes = 0;
            fl.mi_rtt_samples.clear();
        }
        let next = self.now + self.mi_len(f);
        self.events.schedule(next, EventKind::Monitor(f as u32));
        Some(stats)
    }

    fn compute_mi_stats(&self, f: FlowId) -> MonitorStats {
        let fl = &self.flows[f];
        let dur = (self.now - fl.mi_start).as_secs_f64().max(1e-9);
        let throughput_bps = fl.mi_acked_bytes as f64 * 8.0 / dur;
        let sending_rate_bps = fl.mi_sent_bytes as f64 * 8.0 / dur;
        let mean_rtt = (!fl.mi_rtt_samples.is_empty()).then(|| {
            let s: f64 = fl.mi_rtt_samples.iter().map(|&(_, r)| r).sum();
            SimDuration::from_secs_f64(s / fl.mi_rtt_samples.len() as f64)
        });
        let denom = (fl.mi_lost + fl.mi_acked) as f64;
        let loss_rate = if denom > 0.0 {
            fl.mi_lost as f64 / denom
        } else {
            0.0
        };
        let send_ratio = if fl.mi_acked > 0 {
            (fl.mi_sent as f64 / fl.mi_acked as f64).min(MAX_SEND_RATIO)
        } else if fl.mi_sent > 0 {
            MAX_SEND_RATIO
        } else {
            1.0
        };
        let latency_ratio = match (mean_rtt, fl.min_rtt) {
            (Some(m), Some(base)) if base.as_secs_f64() > 0.0 => {
                m.as_secs_f64() / base.as_secs_f64()
            }
            _ => 1.0,
        };
        let latency_gradient = slope(&fl.mi_rtt_samples);
        MonitorStats {
            start: fl.mi_start,
            end: self.now,
            pkts_sent: fl.mi_sent,
            pkts_acked: fl.mi_acked,
            pkts_lost: fl.mi_lost,
            throughput_bps,
            sending_rate_bps,
            mean_rtt,
            loss_rate,
            send_ratio,
            latency_ratio,
            latency_gradient,
        }
    }

    /// Processes a single event, reporting monitor completions.
    /// Returns `None` when the horizon is reached or no events remain.
    pub fn process_next(&mut self) -> Option<Processed> {
        loop {
            let (time, kind) = self.events.pop(self.end)?;
            self.now = time;
            match kind {
                EventKind::FlowStart(f) => {
                    let f = f as FlowId;
                    // A degenerate lifecycle (stop at or before start)
                    // means the flow never runs — without this guard it
                    // would emit one packet at the start instant before
                    // the same-timestamp FlowStop deactivates it.
                    if self.flows[f].spec.stop.is_some_and(|stop| stop <= time) {
                        return Some(Processed::Other);
                    }
                    self.flows[f].active = true;
                    self.flows[f].start_time = self.now;
                    self.flows[f].mi_start = self.now;
                    self.flows[f].next_send_time = self.now;
                    self.with_cc(f, |cc, v, ctl| cc.init(v, ctl));
                    let tick = self.now + self.mi_len(f);
                    self.events.schedule(tick, EventKind::Monitor(f as u32));
                    self.try_send(f);
                    return Some(Processed::Other);
                }
                EventKind::FlowStop(f) => {
                    self.flows[f as FlowId].active = false;
                    return Some(Processed::Other);
                }
                EventKind::Pacing(f) => {
                    self.try_send(f as FlowId);
                    return Some(Processed::Other);
                }
                EventKind::Departure => {
                    self.handle_departure();
                    return Some(Processed::Other);
                }
                EventKind::Ack { flow, seq } => {
                    self.handle_ack(flow as FlowId, seq);
                    return Some(Processed::Other);
                }
                EventKind::Monitor(f) => {
                    let f = f as FlowId;
                    if let Some(stats) = self.handle_monitor(f) {
                        return Some(Processed::Monitor(f, stats));
                    }
                    // Flow fully drained: fall through to the next event.
                }
                EventKind::AppWake(f) => {
                    self.try_send(f as FlowId);
                    return Some(Processed::Other);
                }
            }
        }
    }

    /// Runs the simulation to the horizon and returns per-flow results.
    pub fn run(mut self) -> SimResult {
        while self.process_next().is_some() {}
        self.into_result()
    }

    /// Advances until the next monitor interval of `flow` completes.
    /// Returns `None` when the simulation is over.
    pub fn advance_until_monitor(&mut self, flow: FlowId) -> Option<MonitorStats> {
        self.advance_until_monitor_where(|f| f == flow)
            .map(|(_, stats)| stats)
    }

    /// Advances until a monitor interval of any flow satisfying `pred`
    /// completes, returning which flow paused the simulation. This is
    /// the multi-flow external-agent mode: several externally driven
    /// flows can compete in one scenario, each receiving its own rate
    /// decisions at its own monitor boundaries. Returns `None` when the
    /// simulation is over.
    pub fn advance_until_monitor_where(
        &mut self,
        mut pred: impl FnMut(FlowId) -> bool,
    ) -> Option<(FlowId, MonitorStats)> {
        loop {
            match self.process_next()? {
                Processed::Monitor(f, stats) if pred(f) => return Some((f, stats)),
                _ => continue,
            }
        }
    }

    /// The [`SimResult`] of the current state, each flow's mean-RTT
    /// series copied. Records stay in the simulator: a result's
    /// [`FlowResult::mi_records`] comes only from [`Self::into_result`].
    pub fn result(&self) -> SimResult {
        let mut res = self.totals();
        for (r, fl) in res.flows.iter_mut().zip(&self.flows) {
            r.mi_rtt_ms = fl.mi_rtt_ms.clone();
        }
        res
    }

    /// The [`SimResult`] of the current state, each flow's per-interval
    /// series moved out rather than copied.
    pub fn into_result(mut self) -> SimResult {
        let mut res = self.totals();
        for (r, fl) in res.flows.iter_mut().zip(&mut self.flows) {
            r.mi_rtt_ms = std::mem::take(&mut fl.mi_rtt_ms);
            r.mi_records = std::mem::take(&mut fl.mi_records);
        }
        res
    }

    /// The [`SimResult`] of the current state without its per-interval
    /// series.
    fn totals(&self) -> SimResult {
        let horizon = SimTime::ZERO + self.scenario.duration;
        let link_mean = self.scenario.link.trace.mean_rate(horizon);
        let base_rtt = self.scenario.link.base_rtt();
        let flows = self
            .flows
            .iter()
            .map(|fl| {
                let end = fl
                    .finish_time
                    .or(fl.spec.stop)
                    .unwrap_or(horizon)
                    .min(horizon);
                let active_s = (end - fl.spec.start).as_secs_f64().max(1e-9);
                let throughput_bps = fl.total_acked_bytes as f64 * 8.0 / active_s;
                let mean_rtt_ms = if fl.rtt_count > 0 {
                    fl.rtt_sum_s / fl.rtt_count as f64 * 1e3
                } else {
                    0.0
                };
                let denom = (fl.total_lost + fl.total_acked) as f64;
                let flow_base_rtt = base_rtt + SimDuration(fl.spec.extra_owd.0 * 2);
                FlowResult {
                    name: fl
                        .cc
                        .as_ref()
                        .map(|c| c.name().to_string())
                        .unwrap_or_default(),
                    throughput_bps,
                    mean_rtt_ms,
                    loss_rate: if denom > 0.0 {
                        fl.total_lost as f64 / denom
                    } else {
                        0.0
                    },
                    utilization: throughput_bps / link_mean.max(1.0),
                    latency_ratio: if fl.rtt_count > 0 {
                        (fl.rtt_sum_s / fl.rtt_count as f64) / flow_base_rtt.as_secs_f64().max(1e-9)
                    } else {
                        1.0
                    },
                    fct: fl.finish_time.map(|t| t - fl.spec.start),
                    per_sec_mbits: fl.per_sec_acked_bits.iter().map(|b| b / 1e6).collect(),
                    mi_rtt_ms: Vec::new(),
                    mi_records: Vec::new(),
                    total_sent: fl.total_sent,
                    total_acked: fl.total_acked,
                    total_lost: fl.total_lost,
                    total_acked_bytes: fl.total_acked_bytes,
                    active_s,
                    pkts_in_flight: fl.outstanding.len() as u64,
                }
            })
            .collect();
        SimResult {
            duration: self.scenario.duration,
            link_mean_rate_bps: link_mean,
            base_rtt_ms: base_rtt.as_millis_f64(),
            flows,
        }
    }
}

/// Least-squares slope of `(t, y)` samples; zero with fewer than two.
fn slope(samples: &[(f64, f64)]) -> f64 {
    let n = samples.len() as f64;
    if samples.len() < 2 {
        return 0.0;
    }
    let mx: f64 = samples.iter().map(|&(x, _)| x).sum::<f64>() / n;
    let my: f64 = samples.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for &(x, y) in samples {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    if den.abs() < 1e-15 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{Aimd, FixedRate};
    use crate::scenario::Scenario;

    #[test]
    fn fixed_rate_below_capacity_delivers_everything() {
        // 2 Mbps into a 10 Mbps link: no queueing, no loss.
        let sc = Scenario::single(10e6, 20, 1000, 0.0, 20);
        let res = Simulator::new(sc, vec![Box::new(FixedRate::new(2e6))]).run();
        let f = &res.flows[0];
        assert!(f.total_acked > 0);
        assert!(
            (f.throughput_bps - 2e6).abs() / 2e6 < 0.05,
            "throughput {} != 2e6",
            f.throughput_bps
        );
        assert_eq!(f.total_lost, 0);
        // RTT stays at the base RTT (40 ms) plus serialization.
        assert!(f.mean_rtt_ms < 43.0, "rtt {}", f.mean_rtt_ms);
    }

    #[test]
    fn overdriven_link_saturates_and_drops() {
        // 20 Mbps into a 10 Mbps link with a small queue: utilization ~1,
        // heavy loss.
        let sc = Scenario::single(10e6, 10, 50, 0.0, 20);
        let res = Simulator::new(sc, vec![Box::new(FixedRate::new(20e6))]).run();
        let f = &res.flows[0];
        assert!(f.utilization > 0.9, "utilization {}", f.utilization);
        assert!(f.loss_rate > 0.3, "loss {}", f.loss_rate);
    }

    #[test]
    fn packet_conservation() {
        let sc = Scenario::single(5e6, 20, 100, 0.01, 15);
        let res = Simulator::new(sc, vec![Box::new(FixedRate::new(6e6))]).run();
        let f = &res.flows[0];
        // Every sent packet is acked, lost, or still in flight at the end.
        assert_eq!(
            f.total_acked + f.total_lost + f.pkts_in_flight,
            f.total_sent
        );
        assert!(f.pkts_in_flight < 2000, "in-flight bound");
    }

    #[test]
    fn on_off_cross_traffic_pattern_is_applied() {
        // One greedy flow plus one on/off cross flow (2 s ON / 2 s OFF
        // at half capacity). The cross flow must deliver roughly half of
        // what an always-on flow at that rate would, and the scenario
        // alone must describe it (no set_app call).
        let mut sc = Scenario::dumbbell(10e6, 10, 200, 2, 0.0, 20);
        sc.flows[1] = crate::scenario::FlowSpec::on_off_cross(0.0, 2.0, 2.0, 5e6);
        let res = Simulator::new(
            sc,
            vec![Box::new(Aimd::new()), Box::new(FixedRate::new(10e6))],
        )
        .run();
        let cross = &res.flows[1];
        // ~5 Mbps for half the time ⇒ ~2.5 Mbps mean, modulo startup.
        assert!(
            cross.throughput_bps > 1.5e6 && cross.throughput_bps < 3.5e6,
            "cross throughput {}",
            cross.throughput_bps
        );
        // The greedy flow keeps the link busy overall.
        let total = res.flows[0].throughput_bps + cross.throughput_bps;
        assert!(total > 8e6, "total {total}");
    }

    #[test]
    fn aimd_fills_link() {
        let sc = Scenario::single(10e6, 20, 200, 0.0, 30);
        let res = Simulator::new(sc, vec![Box::new(Aimd::new())]).run();
        let f = &res.flows[0];
        assert!(f.utilization > 0.8, "aimd utilization {}", f.utilization);
    }

    #[test]
    fn random_loss_observed_near_configured() {
        let sc = Scenario::single(10e6, 10, 2000, 0.05, 30);
        let res = Simulator::new(sc, vec![Box::new(FixedRate::new(5e6))]).run();
        let f = &res.flows[0];
        assert!(
            (f.loss_rate - 0.05).abs() < 0.02,
            "observed loss {} vs 0.05",
            f.loss_rate
        );
    }

    #[test]
    fn bounded_flow_completes_with_fct() {
        let mut sc = Scenario::single(10e6, 10, 500, 0.0, 60);
        sc.flows[0].bytes_to_send = Some(1_000_000); // 1 MB
        let res = Simulator::new(sc, vec![Box::new(FixedRate::new(8e6))]).run();
        let f = &res.flows[0];
        let fct = f.fct.expect("flow completed");
        // 8 Mb at 8 Mbps ≈ 1 s plus one RTT.
        assert!(
            (fct.as_secs_f64() - 1.0).abs() < 0.2,
            "fct {}",
            fct.as_secs_f64()
        );
    }

    #[test]
    fn two_flows_share_link() {
        let sc = Scenario::dumbbell(10e6, 10, 100, 2, 0.0, 30);
        let res = Simulator::new(sc, vec![Box::new(Aimd::new()), Box::new(Aimd::new())]).run();
        let (a, b) = (&res.flows[0], &res.flows[1]);
        let total = a.throughput_bps + b.throughput_bps;
        assert!(total > 8e6, "combined {total}");
        let ratio = a.throughput_bps / b.throughput_bps.max(1.0);
        assert!(ratio > 0.5 && ratio < 2.0, "share ratio {ratio}");
    }

    #[test]
    fn external_mode_steps_at_monitor_intervals() {
        let sc = Scenario::single(10e6, 20, 500, 0.0, 10);
        let mut sim = Simulator::new(
            sc,
            vec![Box::new(crate::cc::ExternalRate {
                initial_rate_bps: 1e6,
            })],
        );
        let mut ticks = 0;
        while let Some(stats) = sim.advance_until_monitor(0) {
            ticks += 1;
            // Ramp the rate up; observe throughput following it.
            let next = (sim.rate(0) * 1.5).min(9e6);
            sim.set_rate(0, next);
            let _ = stats;
        }
        assert!(ticks > 50, "expected many monitor intervals, got {ticks}");
        let res = sim.result();
        assert!(res.flows[0].utilization > 0.5);
    }

    #[test]
    fn monitor_stats_fields_sane() {
        let sc = Scenario::single(10e6, 20, 500, 0.0, 5);
        let mut sim = Simulator::new(
            sc,
            vec![Box::new(crate::cc::ExternalRate {
                initial_rate_bps: 5e6,
            })],
        );
        // Skip the first interval (startup transient).
        let _ = sim.advance_until_monitor(0);
        let stats = sim.advance_until_monitor(0).unwrap();
        assert!(stats.send_ratio >= 0.9 && stats.send_ratio <= MAX_SEND_RATIO);
        assert!(stats.latency_ratio >= 1.0);
        assert!(stats.loss_rate == 0.0);
        assert!(stats.throughput_bps > 1e6);
    }

    #[test]
    fn slope_of_line_is_exact() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-12);
        assert_eq!(slope(&pts[..1]), 0.0);
    }

    /// Pins the per-flow aggregation semantics for flows that end
    /// before the sweep horizon: `throughput_bps` is **duration
    /// weighted** (bytes over the active window, here ~5 s), never
    /// horizon weighted (which would halve it), and the exported
    /// `total_acked_bytes`/`active_s` fields reproduce it exactly so
    /// aggregators can compute horizon-weighted goodput themselves.
    #[test]
    fn early_ending_flow_throughput_is_duration_weighted() {
        let mut sc = Scenario::single(10e6, 10, 500, 0.0, 10);
        sc.flows[0].stop = Some(SimTime::from_secs(5));
        let res = Simulator::new(sc, vec![Box::new(FixedRate::new(4e6))]).run();
        let f = &res.flows[0];
        assert!((f.active_s - 5.0).abs() < 0.01, "active_s {}", f.active_s);
        assert!(
            (f.throughput_bps - 4e6).abs() / 4e6 < 0.05,
            "duration-weighted throughput {} != 4e6",
            f.throughput_bps
        );
        assert!(
            (f.throughput_bps - f.total_acked_bytes as f64 * 8.0 / f.active_s).abs() < 1.0,
            "exported fields must reproduce the reported rate"
        );
        // Horizon-weighted goodput is the caller's derived quantity.
        let horizon = f.total_acked_bytes as f64 * 8.0 / 10.0;
        assert!((horizon - 2e6).abs() / 2e6 < 0.06, "horizon rate {horizon}");
    }

    /// A degenerate lifecycle window (stop at or before start) yields
    /// a flow that never sends — not even the start instant's packet.
    #[test]
    fn degenerate_window_flow_never_sends() {
        let mut sc = Scenario::dumbbell(10e6, 10, 100, 2, 0.0, 10);
        sc.flows[1] = crate::scenario::FlowSpec::running(5.0, 2.0);
        let res = Simulator::new(
            sc,
            vec![Box::new(Aimd::new()), Box::new(FixedRate::new(5e6))],
        )
        .run();
        assert_eq!(res.flows[1].total_sent, 0);
        assert!(res.flows[1].per_sec_mbits.iter().all(|&x| x == 0.0));
    }

    /// A flow whose start lies beyond the horizon never runs: zero
    /// packets, zero bytes, no NaN/negative metrics from the epsilon
    /// active window.
    #[test]
    fn flow_starting_after_horizon_reports_zeros() {
        let mut sc = Scenario::dumbbell(10e6, 10, 100, 2, 0.0, 5);
        sc.flows[1].start = SimTime::from_secs(20);
        let res = Simulator::new(
            sc,
            vec![Box::new(Aimd::new()), Box::new(FixedRate::new(1e6))],
        )
        .run();
        let late = &res.flows[1];
        assert_eq!(late.total_sent, 0);
        assert_eq!(late.total_acked_bytes, 0);
        assert_eq!(late.throughput_bps, 0.0);
        assert!(late.active_s > 0.0, "epsilon floor, not zero");
        assert!(late.utilization == 0.0 && late.loss_rate == 0.0);
    }

    /// Mid-run churn: a competitor that leaves releases its bandwidth
    /// to the survivor, and packet conservation holds exactly for both
    /// flows (including the leaver's packets still in flight at stop).
    #[test]
    fn leaving_flow_releases_bandwidth_and_conserves_packets() {
        let mut sc = Scenario::dumbbell(10e6, 10, 100, 2, 0.0, 20);
        sc.flows[1].stop = Some(SimTime::from_secs(10));
        let res = Simulator::new(sc, vec![Box::new(Aimd::new()), Box::new(Aimd::new())]).run();
        for f in &res.flows {
            assert_eq!(
                f.total_acked + f.total_lost + f.pkts_in_flight,
                f.total_sent
            );
        }
        let survivor = &res.flows[0];
        let before: f64 = survivor.per_sec_mbits[4..9].iter().sum::<f64>() / 5.0;
        let after: f64 = survivor.per_sec_mbits[14..19].iter().sum::<f64>() / 5.0;
        assert!(
            after > before * 1.3,
            "survivor must reclaim the leaver's share: {before} -> {after}"
        );
    }

    /// Multi-flow external-agent mode: two externally driven flows each
    /// pause the simulation at their own monitor boundaries and can be
    /// steered independently.
    #[test]
    fn external_mode_drives_multiple_flows() {
        let sc = Scenario::dumbbell(10e6, 20, 500, 2, 0.0, 10);
        let mut sim = Simulator::new(
            sc,
            vec![
                Box::new(crate::cc::ExternalRate {
                    initial_rate_bps: 1e6,
                }),
                Box::new(crate::cc::ExternalRate {
                    initial_rate_bps: 1e6,
                }),
            ],
        );
        let mut ticks = [0usize; 2];
        while let Some((f, _stats)) = sim.advance_until_monitor_where(|_| true) {
            ticks[f] += 1;
            let next = (sim.rate(f) * 1.2).min(4e6);
            sim.set_rate(f, next);
        }
        assert!(ticks[0] > 20 && ticks[1] > 20, "ticks {ticks:?}");
        let res = sim.result();
        assert!(res.flows[0].throughput_bps > 1e6);
        assert!(res.flows[1].throughput_bps > 1e6);
    }

    /// The block FIFO hands entries back in push order across block
    /// boundaries, whether it drains completely or stays part full.
    #[test]
    fn ack_fifo_is_first_in_first_out_across_blocks() {
        let mut fifo = AckFifo::default();
        let (mut pushed, mut popped) = (0u64, 0u64);
        // Bursts longer and shorter than a block, draining in between.
        for (push, pop) in [(3, 3), (2500, 1000), (10, 1510), (1024, 1024), (1, 1)] {
            for _ in 0..push {
                fifo.push([pushed, 0, 0]);
                assert_eq!(fifo.last_pushed(), Some(&[pushed, 0, 0]));
                pushed += 1;
            }
            for _ in 0..pop {
                assert_eq!(fifo.front(), Some(&[popped, 0, 0]));
                fifo.pop();
                popped += 1;
            }
        }
        assert_eq!(pushed, popped);
        assert_eq!(fifo.front(), None);
    }

    /// Two flows paced at exactly the link rate: with a 1 ms
    /// serialization time, a 1 ms pacing gap and a 20 ms return path,
    /// every `Pacing`, `Departure` and `Ack` — and the second flow's
    /// `FlowStop` — lands on one 1 ms grid, so almost every pop is
    /// decided by schedule order alone. Which flow's packet finds the
    /// queue slot a same-instant departure freed depends on it; the
    /// counts are the single-heap scheduler's.
    #[test]
    fn same_instant_events_keep_schedule_order() {
        let mut sc = Scenario::dumbbell(12e6, 10, 20, 2, 0.0, 4);
        sc.flows[1].stop = Some(SimTime::from_secs(2));
        let res = Simulator::new(
            sc,
            vec![
                Box::new(FixedRate::new(12e6)),
                Box::new(FixedRate::new(12e6)),
            ],
        )
        .with_mi_records()
        .run();
        let counts: Vec<[u64; 5]> = res
            .flows
            .iter()
            .map(|f| {
                [
                    f.total_sent,
                    f.total_acked,
                    f.total_lost,
                    f.pkts_in_flight,
                    f.mi_records.len() as u64,
                ]
            })
            .collect();
        assert_eq!(
            counts,
            [[4001, 3048, 914, 39, 103], [2000, 932, 1068, 0, 58]]
        );
    }

    /// The 161 intervals of the scenario above retain 8 bytes each, and
    /// 80 with records: the mean-RTT series and one [`MiRecord`].
    #[test]
    fn record_bytes_count_what_the_flows_keep() {
        let run = |records: bool| {
            let mut sc = Scenario::dumbbell(12e6, 10, 20, 2, 0.0, 4);
            sc.flows[1].stop = Some(SimTime::from_secs(2));
            let ccs: Vec<Box<dyn CongestionControl>> = vec![
                Box::new(FixedRate::new(12e6)),
                Box::new(FixedRate::new(12e6)),
            ];
            let mut sim = Simulator::new(sc, ccs);
            if records {
                sim = sim.with_mi_records();
            }
            while sim.process_next().is_some() {}
            sim
        };
        assert_eq!(run(false).record_bytes(), 8 * 161);
        assert_eq!(run(true).record_bytes(), 80 * 161);
        let snapshot = run(true).result();
        assert_eq!(snapshot.flows[0].mi_rtt_ms.len(), 103);
        assert!(snapshot.flows[0].mi_records.is_empty());
    }

    /// A source that never has data and asks to be woken 50 ms out on
    /// even milliseconds, 7 ms out on odd ones, polled by a 3 ms monitor
    /// tick: a later request never displaces the earlier pending wake,
    /// an earlier one always does. A slot that kept the latest request
    /// instead would pop no wake-up at all here: every tick would push
    /// the pending one out again.
    #[test]
    fn a_pending_wake_stands_unless_an_earlier_one_is_asked_for() {
        struct Empty;
        impl AppSource for Empty {
            fn take(&mut self, _now: SimTime, _max_bytes: u64) -> u64 {
                0
            }
            fn next_wakeup(&self, now: SimTime, _need_bytes: u64) -> Option<SimTime> {
                let ms = if (now.0 / 1_000_000) % 2 == 0 { 50 } else { 7 };
                Some(now + SimDuration::from_millis(ms))
            }
        }
        let mut sc = Scenario::single(10e6, 10, 100, 0.0, 1);
        sc.flows[0].mi = MiMode::Fixed(SimDuration::from_millis(3));
        let mut sim = Simulator::new(sc, vec![Box::new(FixedRate::new(1e6))]);
        sim.set_app(0, Box::new(Empty));
        while sim.process_next().is_some() {}
        assert_eq!(sim.event_counts().app_wake, 83);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let sc = Scenario::single(10e6, 20, 100, 0.02, 10);
            Simulator::new(sc, vec![Box::new(Aimd::new())]).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.flows[0].total_sent, b.flows[0].total_sent);
        assert_eq!(a.flows[0].total_acked, b.flows[0].total_acked);
        assert_eq!(a.flows[0].total_lost, b.flows[0].total_lost);
    }
}
