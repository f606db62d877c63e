//! A deliberately naive reference simulator, and `mocc_netsim`'s
//! `Simulator` judged against it.
//!
//! The reference keeps every pending event — flow starts and stops,
//! pacing timers, link departures, ACKs, monitor ticks, application
//! wake-ups — in one `BTreeMap` keyed by `(time, schedule order)`, the
//! in-flight packets of a flow in another `BTreeMap`, and sends every
//! flow, greedy or not, through its `AppSource`. It has no key slots, no
//! FIFOs, no rings and no fast paths. What it states plainly is what
//! the optimized simulator must reproduce byte for byte
//! (docs/EVALUATION.md, "App-limited sending"):
//!
//! - a re-armed pacing timer replaces the flow's pending one;
//! - a packet carries `min(mss, remaining)` bytes, unless the source
//!   holds less and may flush (the burst's last packet);
//! - a flow has at most one application wake-up pending: a pending wake
//!   no later than a new request stands, an earlier request replaces it.
//!
//! The differential tests generate scenarios (greedy, bounded, on/off
//! and RPC flows; random MSS, rates, windows, links) and require both
//! simulators to agree on every result field and every event count.
//! The property test reads the reference's packet log. The `#[ignore]`d
//! variants run ten times the cases (CI's release test leg):
//!
//! ```text
//! cargo test --release --test reference_sim -- --ignored
//! ```

use mocc::netsim::cc::{Aimd, FixedRate};
use mocc::netsim::time::tx_time;
use mocc::netsim::{
    AckInfo, AppPattern, AppSource, BandwidthTrace, CongestionControl, EventCounts, FlowResult,
    FlowSpec, GreedySource, LinkSpec, LossInfo, LossKind, MiMode, MiRecord, MonitorStats,
    OnOffSource, RateControl, RpcSource, Scenario, SenderView, SimDuration, SimResult, SimTime,
    Simulator,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

const REORDER_THRESHOLD: u64 = 3;
const MIN_RTO: SimDuration = SimDuration(200_000_000);
const INITIAL_RTO: SimDuration = SimDuration(1_000_000_000);
const MIN_MI: SimDuration = SimDuration(10_000_000);
const MIN_PACING_BPS: f64 = 1_000.0;
const MAX_SEND_RATIO: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Start(usize),
    Stop(usize),
    Pacing(usize),
    Departure,
    Ack(usize, u64),
    Monitor(usize),
    Wake(usize),
}

/// One emitted packet, as the property test reads it.
#[derive(Debug, Clone, Copy)]
struct Emitted {
    time: SimTime,
    flow: usize,
    size: u64,
    /// `min(mss, remaining)` when it was emitted.
    want: u64,
}

struct Flow {
    spec: FlowSpec,
    cc: Box<dyn CongestionControl>,
    app: Box<dyn AppSource>,
    ctl: RateControl,
    active: bool,
    done: bool,
    next_seq: u64,
    /// seq → (size, emission time).
    in_flight: BTreeMap<u64, (u32, SimTime)>,
    next_send: SimTime,
    /// Bytes taken from the source and not yet sent.
    held: u64,
    inflight_bytes: u64,
    min_rtt: Option<SimDuration>,
    srtt_s: f64,
    rttvar_s: f64,
    have_srtt: bool,
    sent: u64,
    acked: u64,
    lost: u64,
    acked_bytes: u64,
    rtt_sum_s: f64,
    rtt_count: u64,
    finish: Option<SimTime>,
    mi_start: SimTime,
    mi_sent: u64,
    mi_acked: u64,
    mi_lost: u64,
    mi_sent_bytes: u64,
    mi_acked_bytes: u64,
    mi_rtts: Vec<(f64, f64)>,
    per_sec_bits: Vec<f64>,
    mean_rtts_ms: Vec<f64>,
    records: Vec<MiRecord>,
}

impl Flow {
    fn srtt(&self) -> Option<SimDuration> {
        self.have_srtt
            .then(|| SimDuration::from_secs_f64(self.srtt_s))
    }
}

struct Reference {
    now: SimTime,
    end: SimTime,
    events: BTreeMap<(u64, u64), Ev>,
    order: u64,
    flows: Vec<Flow>,
    queue: VecDeque<(usize, u64, u32)>,
    busy: bool,
    sc: Scenario,
    rng: StdRng,
    counts: EventCounts,
    log: Vec<Emitted>,
    /// The most wake-ups any one flow ever had pending at once.
    max_wakes_pending: usize,
}

impl Reference {
    fn new(sc: Scenario, ccs: Vec<Box<dyn CongestionControl>>) -> Self {
        let flows = sc
            .flows
            .iter()
            .cloned()
            .zip(ccs)
            .map(|(spec, cc)| {
                let app: Box<dyn AppSource> = match spec.app {
                    AppPattern::Greedy => Box::new(GreedySource),
                    AppPattern::OnOff { on, off, rate_bps } => {
                        Box::new(OnOffSource::new(on, off, rate_bps).starting_at(spec.start))
                    }
                    AppPattern::Rpc {
                        request_bytes,
                        think,
                    } => Box::new(RpcSource::new(request_bytes, think)),
                };
                Flow {
                    spec,
                    cc,
                    app,
                    ctl: RateControl::open(),
                    active: false,
                    done: false,
                    next_seq: 0,
                    in_flight: BTreeMap::new(),
                    next_send: SimTime::ZERO,
                    held: 0,
                    inflight_bytes: 0,
                    min_rtt: None,
                    srtt_s: 0.0,
                    rttvar_s: 0.0,
                    have_srtt: false,
                    sent: 0,
                    acked: 0,
                    lost: 0,
                    acked_bytes: 0,
                    rtt_sum_s: 0.0,
                    rtt_count: 0,
                    finish: None,
                    mi_start: SimTime::ZERO,
                    mi_sent: 0,
                    mi_acked: 0,
                    mi_lost: 0,
                    mi_sent_bytes: 0,
                    mi_acked_bytes: 0,
                    mi_rtts: Vec::new(),
                    per_sec_bits: Vec::new(),
                    mean_rtts_ms: Vec::new(),
                    records: Vec::new(),
                }
            })
            .collect::<Vec<_>>();
        let mut r = Reference {
            now: SimTime::ZERO,
            end: SimTime::ZERO + sc.duration,
            events: BTreeMap::new(),
            order: 0,
            flows,
            queue: VecDeque::new(),
            busy: false,
            rng: StdRng::seed_from_u64(sc.seed),
            sc,
            counts: EventCounts::default(),
            log: Vec::new(),
            max_wakes_pending: 0,
        };
        for f in 0..r.flows.len() {
            r.schedule(r.flows[f].spec.start, Ev::Start(f));
            if let Some(stop) = r.flows[f].spec.stop {
                r.schedule(stop, Ev::Stop(f));
            }
        }
        r
    }

    fn schedule(&mut self, time: SimTime, ev: Ev) {
        if let Ev::Pacing(f) = ev {
            self.events.retain(|_, e| *e != Ev::Pacing(f));
        }
        self.events.insert((time.0, self.order), ev);
        self.order += 1;
    }

    fn request_wake(&mut self, f: usize, when: SimTime) {
        let pending = self
            .events
            .iter()
            .find(|(_, e)| **e == Ev::Wake(f))
            .map(|(&k, _)| k);
        if let Some(key) = pending {
            if key.0 <= when.0 {
                return;
            }
            self.events.remove(&key);
        }
        self.schedule(when, Ev::Wake(f));
        let pending = self.events.values().filter(|e| **e == Ev::Wake(f)).count();
        self.max_wakes_pending = self.max_wakes_pending.max(pending);
    }

    fn view(&self, f: usize) -> SenderView {
        let fl = &self.flows[f];
        SenderView {
            now: self.now,
            mss_bytes: self.sc.mss_bytes,
            min_rtt: fl.min_rtt,
            srtt_s: fl.have_srtt.then_some(fl.srtt_s),
            inflight_pkts: fl.in_flight.len() as u64,
            total_sent: fl.sent,
            total_acked: fl.acked,
            total_lost: fl.lost,
        }
    }

    fn with_cc(
        &mut self,
        f: usize,
        call: impl FnOnce(&mut dyn CongestionControl, &SenderView, &mut RateControl),
    ) {
        let view = self.view(f);
        let fl = &mut self.flows[f];
        let mut ctl = fl.ctl;
        call(fl.cc.as_mut(), &view, &mut ctl);
        ctl.pacing_rate_bps = ctl.pacing_rate_bps.max(MIN_PACING_BPS);
        ctl.cwnd_pkts = ctl.cwnd_pkts.max(1.0);
        fl.ctl = ctl;
    }

    fn mi_len(&self, f: usize) -> SimDuration {
        let fl = &self.flows[f];
        match fl.spec.mi {
            MiMode::Fixed(d) => d,
            MiMode::RttFraction(k) => fl
                .srtt()
                .unwrap_or_else(|| self.sc.link.base_rtt())
                .mul_f64(k)
                .max(MIN_MI),
        }
    }

    fn try_send(&mut self, f: usize) {
        loop {
            let now = self.now;
            let mss = self.sc.mss_bytes as u64;
            let fl = &mut self.flows[f];
            if !fl.active || fl.done {
                return;
            }
            if (fl.in_flight.len() as f64) + 1.0 > fl.ctl.cwnd_pkts {
                return;
            }
            if fl.ctl.pacing_rate_bps.is_finite() && fl.next_send > now {
                let at = fl.next_send;
                self.schedule(at, Ev::Pacing(f));
                return;
            }
            let remaining = fl
                .spec
                .bytes_to_send
                .map(|goal| goal.saturating_sub(fl.acked_bytes + fl.inflight_bytes))
                .unwrap_or(u64::MAX);
            if remaining == 0 {
                return;
            }
            let want = mss.min(remaining);
            if fl.held < want {
                fl.held += fl.app.take(now, want - fl.held);
            }
            let size = if fl.held >= want {
                want
            } else if fl.held > 0 && fl.app.may_flush(now) {
                fl.held
            } else {
                0
            };
            if size == 0 {
                if let Some(when) = fl.app.next_wakeup(now, want - fl.held) {
                    if when > now {
                        self.request_wake(f, when);
                    }
                }
                return;
            }
            fl.held -= size;
            self.log.push(Emitted {
                time: now,
                flow: f,
                size,
                want,
            });
            self.emit(f, size as u32);
        }
    }

    fn emit(&mut self, f: usize, size: u32) {
        let now = self.now;
        let fl = &mut self.flows[f];
        let seq = fl.next_seq;
        fl.next_seq += 1;
        fl.in_flight.insert(seq, (size, now));
        fl.sent += 1;
        fl.inflight_bytes += size as u64;
        fl.mi_sent += 1;
        fl.mi_sent_bytes += size as u64;
        if fl.ctl.pacing_rate_bps.is_finite() {
            let gap = tx_time(size as f64 * 8.0, fl.ctl.pacing_rate_bps);
            fl.next_send = fl.next_send.max(now) + gap;
        }
        if self.queue.len() >= self.sc.link.queue_pkts {
            return;
        }
        self.queue.push_back((f, seq, size));
        if !self.busy {
            self.start_service();
        }
    }

    fn start_service(&mut self) {
        match self.queue.front() {
            Some(&(_, _, size)) => {
                let rate = self.sc.link.trace.rate_at(self.now);
                self.busy = true;
                self.schedule(self.now + tx_time(size as f64 * 8.0, rate), Ev::Departure);
            }
            None => self.busy = false,
        }
    }

    fn departure(&mut self) {
        let Some((f, seq, _)) = self.queue.pop_front() else {
            self.busy = false;
            return;
        };
        self.start_service();
        if self.sc.link.loss_rate > 0.0 && self.rng.gen::<f64>() < self.sc.link.loss_rate {
            return;
        }
        let owd = self.sc.link.one_way_delay + self.flows[f].spec.extra_owd;
        self.schedule(self.now + owd + owd, Ev::Ack(f, seq));
    }

    fn ack(&mut self, f: usize, seq: u64) {
        let now = self.now;
        let fl = &mut self.flows[f];
        let Some((size, sent_at)) = fl.in_flight.remove(&seq) else {
            return;
        };
        fl.inflight_bytes = fl.inflight_bytes.saturating_sub(size as u64);
        let rtt = now - sent_at;
        let r = rtt.as_secs_f64();
        if !fl.have_srtt {
            fl.srtt_s = r;
            fl.rttvar_s = r / 2.0;
            fl.have_srtt = true;
        } else {
            fl.rttvar_s = 0.75 * fl.rttvar_s + 0.25 * (fl.srtt_s - r).abs();
            fl.srtt_s = 0.875 * fl.srtt_s + 0.125 * r;
        }
        fl.min_rtt = Some(fl.min_rtt.map_or(rtt, |m| m.min(rtt)));
        fl.acked += 1;
        fl.acked_bytes += size as u64;
        fl.mi_acked += 1;
        fl.mi_acked_bytes += size as u64;
        let now_s = now.as_secs_f64();
        fl.rtt_sum_s += r;
        fl.rtt_count += 1;
        fl.mi_rtts.push((now_s, r));
        let sec = now_s as usize;
        if fl.per_sec_bits.len() <= sec {
            fl.per_sec_bits.resize(sec + 1, 0.0);
        }
        fl.per_sec_bits[sec] += size as f64 * 8.0;
        fl.app.on_delivered(now, size as u64);
        let info = AckInfo {
            seq,
            rtt,
            acked_bytes: size,
        };
        self.with_cc(f, |cc, v, ctl| cc.on_ack(v, &info, ctl));
        let bound = seq.saturating_sub(REORDER_THRESHOLD);
        let lost: Vec<u64> = self.flows[f]
            .in_flight
            .range(..bound)
            .map(|(&s, _)| s)
            .collect();
        if !lost.is_empty() {
            self.declare_lost(f, &lost, LossKind::Reorder);
        }
        let fl = &mut self.flows[f];
        if let Some(goal) = fl.spec.bytes_to_send {
            if fl.acked_bytes >= goal && fl.finish.is_none() {
                fl.finish = Some(now);
                fl.done = true;
                fl.active = false;
            }
        }
        self.try_send(f);
    }

    fn declare_lost(&mut self, f: usize, seqs: &[u64], kind: LossKind) {
        let now = self.now;
        let fl = &mut self.flows[f];
        let mut lost_bytes = 0u64;
        for s in seqs {
            if let Some((size, _)) = fl.in_flight.remove(s) {
                lost_bytes += size as u64;
            }
        }
        let n = seqs.len() as u64;
        fl.lost += n;
        fl.mi_lost += n;
        fl.inflight_bytes = fl.inflight_bytes.saturating_sub(lost_bytes);
        fl.app.on_lost(now, lost_bytes);
        let info = LossInfo { lost_pkts: n, kind };
        self.with_cc(f, |cc, v, ctl| cc.on_loss(v, &info, ctl));
        self.try_send(f);
    }

    fn monitor(&mut self, f: usize) -> bool {
        let now = self.now;
        let fl = &self.flows[f];
        let departed = !fl.active && fl.spec.stop.is_some_and(|stop| stop <= now);
        if (fl.done || departed) && fl.in_flight.is_empty() {
            return false;
        }
        let rto = if fl.have_srtt {
            SimDuration::from_secs_f64(fl.srtt_s + 4.0 * fl.rttvar_s).max(MIN_RTO)
        } else {
            INITIAL_RTO
        };
        let expired: Vec<u64> = fl
            .in_flight
            .iter()
            .take_while(|(_, &(_, sent_at))| now - sent_at > rto)
            .map(|(&s, _)| s)
            .collect();
        if !expired.is_empty() {
            self.declare_lost(f, &expired, LossKind::Timeout);
        }
        let stats = self.mi_stats(f);
        let fl = &mut self.flows[f];
        fl.mean_rtts_ms
            .push(stats.mean_rtt.map(|r| r.as_millis_f64()).unwrap_or(0.0));
        fl.records.push(MiRecord {
            t_s: stats.end.as_secs_f64(),
            throughput_bps: stats.throughput_bps,
            sending_rate_bps: stats.sending_rate_bps,
            mean_rtt_ms: stats.mean_rtt.map(|r| r.as_millis_f64()).unwrap_or(0.0),
            loss_rate: stats.loss_rate,
            send_ratio: stats.send_ratio,
            latency_ratio: stats.latency_ratio,
            latency_gradient: stats.latency_gradient,
            pacing_rate_bps: fl.ctl.pacing_rate_bps,
        });
        if fl.active {
            self.with_cc(f, |cc, v, ctl| cc.on_monitor(v, &stats, ctl));
            self.try_send(f);
        }
        let fl = &mut self.flows[f];
        fl.mi_start = now;
        fl.mi_sent = 0;
        fl.mi_acked = 0;
        fl.mi_lost = 0;
        fl.mi_sent_bytes = 0;
        fl.mi_acked_bytes = 0;
        fl.mi_rtts.clear();
        let next = now + self.mi_len(f);
        self.schedule(next, Ev::Monitor(f));
        true
    }

    fn mi_stats(&self, f: usize) -> MonitorStats {
        let fl = &self.flows[f];
        let dur = (self.now - fl.mi_start).as_secs_f64().max(1e-9);
        let mean_rtt = (!fl.mi_rtts.is_empty()).then(|| {
            let s: f64 = fl.mi_rtts.iter().map(|&(_, r)| r).sum();
            SimDuration::from_secs_f64(s / fl.mi_rtts.len() as f64)
        });
        let denom = (fl.mi_lost + fl.mi_acked) as f64;
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
        MonitorStats {
            start: fl.mi_start,
            end: self.now,
            pkts_sent: fl.mi_sent,
            pkts_acked: fl.mi_acked,
            pkts_lost: fl.mi_lost,
            throughput_bps: fl.mi_acked_bytes as f64 * 8.0 / dur,
            sending_rate_bps: fl.mi_sent_bytes as f64 * 8.0 / dur,
            mean_rtt,
            loss_rate: if denom > 0.0 {
                fl.mi_lost as f64 / denom
            } else {
                0.0
            },
            send_ratio,
            latency_ratio,
            latency_gradient: slope(&fl.mi_rtts),
        }
    }

    fn run(mut self) -> (SimResult, EventCounts, Vec<Emitted>, usize) {
        while let Some(((t, _), ev)) = self.events.pop_first() {
            if t > self.end.0 {
                break;
            }
            self.now = SimTime(t);
            let c = &mut self.counts;
            match ev {
                Ev::Start(f) => {
                    c.flow_start += 1;
                    if self.flows[f].spec.stop.is_some_and(|stop| stop <= self.now) {
                        continue;
                    }
                    let fl = &mut self.flows[f];
                    fl.active = true;
                    fl.mi_start = self.now;
                    fl.next_send = self.now;
                    self.with_cc(f, |cc, v, ctl| cc.init(v, ctl));
                    self.schedule(self.now + self.mi_len(f), Ev::Monitor(f));
                    self.try_send(f);
                }
                Ev::Stop(f) => {
                    c.flow_stop += 1;
                    self.flows[f].active = false;
                }
                Ev::Pacing(f) => {
                    c.pacing += 1;
                    self.try_send(f);
                }
                Ev::Departure => {
                    c.departure += 1;
                    self.departure();
                }
                Ev::Ack(f, seq) => {
                    c.ack += 1;
                    self.ack(f, seq);
                }
                Ev::Monitor(f) => {
                    c.monitor += 1;
                    self.monitor(f);
                }
                Ev::Wake(f) => {
                    c.app_wake += 1;
                    self.try_send(f);
                }
            }
        }
        let result = self.result();
        (result, self.counts, self.log, self.max_wakes_pending)
    }

    fn result(&self) -> SimResult {
        let horizon = SimTime::ZERO + self.sc.duration;
        let link_mean = self.sc.link.trace.mean_rate(horizon);
        let base_rtt = self.sc.link.base_rtt();
        let flows = self
            .flows
            .iter()
            .map(|fl| {
                let end = fl.finish.or(fl.spec.stop).unwrap_or(horizon).min(horizon);
                let active_s = (end - fl.spec.start).as_secs_f64().max(1e-9);
                let throughput_bps = fl.acked_bytes as f64 * 8.0 / active_s;
                let denom = (fl.lost + fl.acked) as f64;
                let flow_base_rtt = base_rtt + SimDuration(fl.spec.extra_owd.0 * 2);
                let mean_rtt_s = fl.rtt_sum_s / fl.rtt_count as f64;
                FlowResult {
                    name: fl.cc.name().to_string(),
                    throughput_bps,
                    mean_rtt_ms: if fl.rtt_count > 0 {
                        mean_rtt_s * 1e3
                    } else {
                        0.0
                    },
                    loss_rate: if denom > 0.0 {
                        fl.lost as f64 / denom
                    } else {
                        0.0
                    },
                    utilization: throughput_bps / link_mean.max(1.0),
                    latency_ratio: if fl.rtt_count > 0 {
                        mean_rtt_s / flow_base_rtt.as_secs_f64().max(1e-9)
                    } else {
                        1.0
                    },
                    fct: fl.finish.map(|t| t - fl.spec.start),
                    per_sec_mbits: fl.per_sec_bits.iter().map(|b| b / 1e6).collect(),
                    mi_rtt_ms: fl.mean_rtts_ms.clone(),
                    mi_records: fl.records.clone(),
                    total_sent: fl.sent,
                    total_acked: fl.acked,
                    total_lost: fl.lost,
                    total_acked_bytes: fl.acked_bytes,
                    active_s,
                    pkts_in_flight: fl.in_flight.len() as u64,
                }
            })
            .collect();
        SimResult {
            duration: self.sc.duration,
            link_mean_rate_bps: link_mean,
            base_rtt_ms: base_rtt.as_millis_f64(),
            flows,
        }
    }
}

/// Least-squares slope of `(t, y)` samples; zero with fewer than two.
fn slope(samples: &[(f64, f64)]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let n = samples.len() as f64;
    let mx: f64 = samples.iter().map(|&(x, _)| x).sum::<f64>() / n;
    let my: f64 = samples.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let (mut num, mut den) = (0.0, 0.0);
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

/// How a generated flow is controlled: paced at a fixed rate, or by an
/// AIMD window.
#[derive(Debug, Clone, Copy)]
enum Ctl {
    Fixed(f64),
    Aimd,
}

impl Ctl {
    fn build(self) -> Box<dyn CongestionControl> {
        match self {
            Ctl::Fixed(rate) => Box::new(FixedRate::new(rate)),
            Ctl::Aimd => Box::new(Aimd::new()),
        }
    }
}

/// A scenario drawn from `seed`: one to three flows over a constant or
/// stepped link. With `app_limited`, flows also get on/off and RPC
/// sources; bounded greedy flows appear either way.
fn generated(seed: u64, app_limited: bool) -> (Scenario, Vec<Ctl>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rate = rng.gen_range(1.0e6..12.0e6);
    let duration_s = rng.gen_range(1u64..=3);
    let trace = if rng.gen_bool(0.5) {
        BandwidthTrace::constant(rate)
    } else {
        let steps = (0..4)
            .map(|i| {
                (
                    SimTime::from_millis(i * 700),
                    rate * rng.gen_range(0.3..1.5),
                )
            })
            .collect();
        BandwidthTrace::from_steps(steps)
    };
    let link = LinkSpec {
        trace,
        one_way_delay: SimDuration::from_millis(rng.gen_range(1u64..40)),
        queue_pkts: rng.gen_range(2usize..200),
        loss_rate: if rng.gen_bool(0.5) {
            0.0
        } else {
            rng.gen_range(0.0..0.05)
        },
    };
    let mss_bytes = rng.gen_range(100u32..=1500);
    let n = rng.gen_range(1usize..=3);
    let mut flows = Vec::with_capacity(n);
    let mut ctls = Vec::with_capacity(n);
    for _ in 0..n {
        let mut spec = FlowSpec::starting_at(rng.gen_range(0.0..0.8));
        if rng.gen_bool(0.3) {
            spec.stop = Some(SimTime::from_secs_f64(rng.gen_range(0.0..3.5)));
        }
        spec.extra_owd = SimDuration::from_millis(rng.gen_range(0u64..10));
        if rng.gen_bool(0.5) {
            spec.mi = MiMode::Fixed(SimDuration::from_millis(rng.gen_range(5u64..100)));
        }
        match rng.gen_range(0u32..if app_limited { 4 } else { 2 }) {
            0 => {}
            1 => spec.bytes_to_send = Some(rng.gen_range(1u64..400_000)),
            2 => {
                spec.app = AppPattern::OnOff {
                    on: SimDuration::from_millis(rng.gen_range(1u64..1500)),
                    off: SimDuration::from_millis(rng.gen_range(0u64..1500)),
                    rate_bps: rate * rng.gen_range(0.01..1.2),
                }
            }
            _ => {
                spec.app = AppPattern::Rpc {
                    request_bytes: rng.gen_range(1u64..20_000),
                    think: SimDuration::from_millis(rng.gen_range(0u64..200)),
                }
            }
        }
        flows.push(spec);
        ctls.push(if rng.gen_bool(0.6) {
            Ctl::Fixed(rate * rng.gen_range(0.05..2.0))
        } else {
            Ctl::Aimd
        });
    }
    let sc = Scenario {
        link,
        flows,
        mss_bytes,
        duration: SimDuration::from_secs(duration_s),
        seed: rng.gen(),
    };
    (sc, ctls)
}

/// Runs both simulators on one generated scenario; an error names the
/// first disagreement.
fn differ(seed: u64, app_limited: bool) -> Result<(), String> {
    let (sc, ctls) = generated(seed, app_limited);
    let build = || ctls.iter().map(|c| c.build()).collect::<Vec<_>>();
    let mut sim = Simulator::new(sc.clone(), build()).with_mi_records();
    while sim.process_next().is_some() {}
    let (want, counts, _, _) = Reference::new(sc, build()).run();
    if sim.event_counts() != counts {
        return Err(format!(
            "event counts: simulator {:?}, reference {counts:?}",
            sim.event_counts()
        ));
    }
    let got = sim.into_result();
    for (f, (a, b)) in got.flows.iter().zip(&want.flows).enumerate() {
        let (a, b) = (format!("{a:?}"), format!("{b:?}"));
        if a != b {
            return Err(format!("flow {f}:\n simulator {a}\n reference {b}"));
        }
    }
    if format!("{got:?}") != format!("{want:?}") {
        return Err("results differ outside the flows".into());
    }
    Ok(())
}

/// The packet and wake-up properties of the reference on one generated
/// scenario.
fn whole_packets(seed: u64) -> Result<(), String> {
    let (sc, ctls) = generated(seed, true);
    let flows = sc.flows.clone();
    let (_, _, log, max_wakes) = Reference::new(sc, ctls.iter().map(|c| c.build()).collect()).run();
    if max_wakes > 1 {
        return Err(format!("a flow had {max_wakes} wake-ups pending"));
    }
    for p in &log {
        if p.size > p.want || p.size == 0 {
            return Err(format!("{p:?} is not 1..=min(mss, remaining) bytes"));
        }
        if p.size == p.want {
            continue;
        }
        // A short packet ends a burst: an on/off flow's only once its ON
        // window has closed. Greedy sources always grant in full, and
        // an RPC source grants less only when its request is exhausted.
        match flows[p.flow].app {
            AppPattern::OnOff { on, off, .. } => {
                if p.time.0 % (on.0 + off.0) < on.0 {
                    return Err(format!("{p:?}: a runt inside an ON window"));
                }
            }
            AppPattern::Greedy => return Err(format!("{p:?}: a runt from a greedy flow")),
            AppPattern::Rpc { .. } => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The judge is trusted first: greedy and bounded flows only.
    #[test]
    fn greedy_scenarios_match_the_reference(seed in 0u64..u64::MAX) {
        differ(seed, false)?;
    }

    /// On/off, RPC, bounded and greedy flows together.
    #[test]
    fn app_limited_scenarios_match_the_reference(seed in 0u64..u64::MAX) {
        differ(seed, true)?;
    }

    /// Every packet is `min(mss, remaining)` bytes except a burst's
    /// last, and no flow ever has two wake-ups pending.
    #[test]
    fn app_limited_flows_send_whole_packets(seed in 0u64..u64::MAX) {
        whole_packets(seed)?;
    }
}

/// Ten times the tier-1 cases of each test above, on other seeds.
#[test]
#[ignore = "ten times the tier-1 cases; run in release"]
fn many_scenarios_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..240 {
        let seed = rng.gen();
        for (what, check) in [
            ("greedy", differ(seed, false)),
            ("app-limited", differ(seed, true)),
            ("whole packets", whole_packets(seed)),
        ] {
            if let Err(e) = check {
                panic!("{what} case {case} (seed {seed}): {e}");
            }
        }
    }
}
