//! Application-limited traffic sources.
//!
//! By default a flow is a greedy bulk source with unlimited data. The
//! §6.3 application experiments (video streaming, real-time
//! communications) instead generate data over time; they implement
//! [`AppSource`] and the sender only transmits what the application has
//! made available.

use crate::time::SimTime;

/// A traffic source that limits how much data the sender may transmit.
pub trait AppSource: Send {
    /// Takes up to `max_bytes` from the source for transmission,
    /// returning how many bytes are actually handed to the sender.
    fn take(&mut self, now: SimTime, max_bytes: u64) -> u64;

    /// Notifies the source that `bytes` were delivered (acknowledged).
    fn on_delivered(&mut self, _now: SimTime, _bytes: u64) {}

    /// Notifies the source that `bytes` previously taken were lost in
    /// the network. Reliable applications re-supply them (the sender
    /// will `take` them again, modelling retransmission); real-time
    /// applications ignore the callback (stale data is not resent).
    fn on_lost(&mut self, _now: SimTime, _bytes: u64) {}

    /// Whether the sender may emit a packet shorter than it wants now,
    /// holding bytes already taken. The default (`true`) ships whatever
    /// the source granted; a source that produces a burst over time
    /// answers `false` until the burst is over, so its packets are
    /// whole MSS-sized ones except the burst's last.
    fn may_flush(&self, _now: SimTime) -> bool {
        true
    }

    /// The next time at which the source may have produced `need_bytes`
    /// more (or otherwise changed), used by the simulator to re-poll an
    /// idle sender; the source has just been asked to `take` at `now`.
    /// `None` means the source only changes in response to deliveries.
    fn next_wakeup(&self, _now: SimTime, _need_bytes: u64) -> Option<SimTime> {
        None
    }
}

/// An always-full source: the classic greedy bulk sender.
#[derive(Debug, Default, Clone)]
pub struct GreedySource;

impl AppSource for GreedySource {
    fn take(&mut self, _now: SimTime, max_bytes: u64) -> u64 {
        max_bytes
    }
}

/// An on/off (burst-idle) source: during each ON window of length `on`
/// the application produces data at `rate_bps` (as a fluid, granted in
/// whole-byte chunks); during the following OFF window of length `off`
/// it produces nothing. The cycle starts in the ON phase at time zero
/// and repeats forever.
///
/// Each ON window is one burst: the sender holds what has accrued until
/// a whole packet's worth is there, and flushes the short remainder
/// only once the window has closed.
///
/// This is the classic cross-traffic pattern: a competing flow that
/// periodically grabs and releases bottleneck capacity, so a controller
/// under test must both yield quickly and reclaim quickly.
#[derive(Debug, Clone)]
pub struct OnOffSource {
    on: crate::time::SimDuration,
    off: crate::time::SimDuration,
    rate_bps: f64,
    backlog_bytes: f64,
    accrued_until: SimTime,
}

impl OnOffSource {
    /// Creates an on/off source. `on` must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `on` is the zero duration (the source would never
    /// produce anything).
    pub fn new(on: crate::time::SimDuration, off: crate::time::SimDuration, rate_bps: f64) -> Self {
        assert!(!on.is_zero(), "on/off source needs a nonzero ON window");
        OnOffSource {
            on,
            off,
            rate_bps,
            backlog_bytes: 0.0,
            accrued_until: SimTime::ZERO,
        }
    }

    /// Starts production accrual at `start` instead of time zero, so a
    /// flow that begins mid-simulation does not open with the backlog
    /// of every ON window it slept through. The on/off *phase* stays
    /// anchored at absolute time zero (staggered flows land at
    /// different points of the cycle by design).
    pub fn starting_at(mut self, start: SimTime) -> Self {
        self.accrued_until = start;
        self
    }

    /// True when `t` falls inside an ON window.
    pub fn is_on(&self, t: SimTime) -> bool {
        t.0 % (self.on.0 + self.off.0) < self.on.0
    }

    /// Accumulates fluid production over the ON time in
    /// `(accrued_until, now]`.
    fn accrue(&mut self, now: SimTime) {
        let cycle = self.on.0 + self.off.0;
        let mut t = self.accrued_until.0;
        while t < now.0 {
            let pos = t % cycle;
            if pos < self.on.0 {
                let end_on = t - pos + self.on.0;
                let upto = end_on.min(now.0);
                self.backlog_bytes += (upto - t) as f64 * 1e-9 * self.rate_bps / 8.0;
                t = upto;
            } else {
                // Skip the rest of the OFF window.
                t = t - pos + cycle;
            }
        }
        self.accrued_until = now;
    }

    /// Bytes currently waiting to be sent (whole bytes).
    pub fn backlog(&self) -> u64 {
        self.backlog_bytes as u64
    }
}

impl AppSource for OnOffSource {
    fn take(&mut self, now: SimTime, max_bytes: u64) -> u64 {
        self.accrue(now);
        let granted = (self.backlog_bytes as u64).min(max_bytes);
        self.backlog_bytes -= granted as f64;
        granted
    }

    fn may_flush(&self, now: SimTime) -> bool {
        !self.is_on(now)
    }

    fn next_wakeup(&self, now: SimTime, need_bytes: u64) -> Option<SimTime> {
        let cycle = self.on.0 + self.off.0;
        let cycle_start = now.0 - now.0 % cycle;
        if self.is_on(now) {
            // Wake when `need_bytes` more have accrued, or when the
            // window closes and the short tail may go, whichever is
            // first.
            let short = (need_bytes as f64 - self.backlog_bytes).max(0.0);
            let dt_ns = (short * 8e9 / self.rate_bps.max(1.0)).ceil() as u64;
            let on_end = cycle_start + self.on.0;
            Some(SimTime(now.0.saturating_add(dt_ns.max(1)).min(on_end)))
        } else {
            // Wake at the start of the next ON window.
            Some(SimTime(cycle_start + cycle))
        }
    }
}

/// A request-response RPC source: the application writes a
/// `request_bytes`-sized message, waits until every byte of it has been
/// delivered, *thinks* for `think`, then issues the next request. This
/// is the classic closed-loop datacenter pattern — offered load is
/// gated by completion, so an RPC flow probes the path in bursts
/// instead of saturating it.
///
/// The source is reliable: bytes reported lost re-enter the backlog and
/// are taken (retransmitted) again, and the think timer only starts
/// once the full request has actually been delivered.
#[derive(Debug, Clone)]
pub struct RpcSource {
    request_bytes: u64,
    think: crate::time::SimDuration,
    backlog: u64,
    in_flight: u64,
    thinking_until: Option<SimTime>,
}

impl RpcSource {
    /// Creates an RPC source with the first request ready at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `request_bytes` is zero (the flow would never send).
    pub fn new(request_bytes: u64, think: crate::time::SimDuration) -> Self {
        assert!(request_bytes > 0, "rpc source needs a nonzero request");
        RpcSource {
            request_bytes,
            think,
            backlog: request_bytes,
            in_flight: 0,
            thinking_until: None,
        }
    }

    /// Bytes of the current request still waiting to be sent.
    pub fn backlog(&self) -> u64 {
        self.backlog
    }

    fn maybe_finish_think(&mut self, now: SimTime) {
        if let Some(t) = self.thinking_until {
            if t <= now {
                self.thinking_until = None;
                self.backlog = self.request_bytes;
            }
        }
    }

    fn maybe_start_think(&mut self, now: SimTime) {
        if self.backlog == 0 && self.in_flight == 0 && self.thinking_until.is_none() {
            self.thinking_until = Some(now + self.think);
        }
    }
}

impl AppSource for RpcSource {
    fn take(&mut self, now: SimTime, max_bytes: u64) -> u64 {
        self.maybe_finish_think(now);
        let granted = self.backlog.min(max_bytes);
        self.backlog -= granted;
        self.in_flight += granted;
        granted
    }

    fn on_delivered(&mut self, now: SimTime, bytes: u64) {
        self.in_flight = self.in_flight.saturating_sub(bytes);
        self.maybe_start_think(now);
    }

    fn on_lost(&mut self, _now: SimTime, bytes: u64) {
        // Reliable: lost request bytes go back on the send queue.
        self.in_flight = self.in_flight.saturating_sub(bytes);
        self.backlog += bytes;
    }

    fn next_wakeup(&self, _now: SimTime, _need_bytes: u64) -> Option<SimTime> {
        self.thinking_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn greedy_grants_everything() {
        let mut s = GreedySource;
        assert_eq!(s.take(SimTime::ZERO, 123), 123);
    }

    #[test]
    fn on_off_produces_only_during_on_windows() {
        // 1 s ON at 8 kbps (1000 B/s), 1 s OFF.
        let mut s = OnOffSource::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            8_000.0,
        );
        // Half-way through the first ON window: 500 B accrued.
        assert_eq!(s.take(SimTime::from_millis(500), 10_000), 500);
        // Deep in the OFF window: only the remaining ON half accrued.
        assert_eq!(s.take(SimTime::from_millis(1900), 10_000), 500);
        assert_eq!(s.take(SimTime::from_millis(1950), 10_000), 0);
        // One full further cycle adds exactly one ON window of bytes.
        assert_eq!(s.take(SimTime::from_millis(3900), 10_000), 1000);
    }

    #[test]
    fn on_off_starting_at_skips_pre_start_production() {
        // 1 s ON / 1 s OFF at 8 kbps, flow starting at t = 2.5 s: the
        // [0, 1 s) ON window before the start must NOT appear as a
        // burst; only production after 2.5 s counts (phase is still
        // absolute: 2–3 s is an ON window).
        let mut s = OnOffSource::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            8_000.0,
        )
        .starting_at(SimTime::from_millis(2500));
        assert_eq!(s.take(SimTime::from_millis(3000), 10_000), 500);
    }

    #[test]
    fn on_off_phase_and_wakeups() {
        let s = OnOffSource::new(SimDuration::from_secs(2), SimDuration::from_secs(3), 1e6);
        assert!(s.is_on(SimTime::from_millis(1999)));
        assert!(!s.is_on(SimTime::from_secs(2)));
        assert!(s.is_on(SimTime::from_secs(5)));
        // OFF phase wakes at the next cycle boundary, and may flush.
        assert_eq!(
            s.next_wakeup(SimTime::from_secs(3), 1500),
            Some(SimTime::from_secs(5))
        );
        assert!(s.may_flush(SimTime::from_secs(3)));
        assert!(!s.may_flush(SimTime::from_secs(1)));
        // ON phase wakes once the bytes asked for have accrued: 12 ms
        // for 1 500 bytes at 1 Mbps, 4.8 ms for 600.
        assert_eq!(
            s.next_wakeup(SimTime::ZERO, 1500),
            Some(SimTime::from_millis(12))
        );
        assert_eq!(s.next_wakeup(SimTime::ZERO, 600), Some(SimTime(4_800_000)));
        // ...but no later than the end of the ON window.
        assert_eq!(
            s.next_wakeup(SimTime::from_millis(1995), 1500),
            Some(SimTime::from_secs(2))
        );
    }

    #[test]
    fn rpc_cycles_request_think_request() {
        let mut s = RpcSource::new(1000, SimDuration::from_millis(100));
        // First request is available immediately, possibly in pieces.
        assert_eq!(s.take(SimTime::ZERO, 600), 600);
        assert_eq!(s.take(SimTime::ZERO, 600), 400);
        assert_eq!(s.take(SimTime::from_millis(1), 600), 0);
        // Partial delivery: still waiting on the rest, no think yet.
        s.on_delivered(SimTime::from_millis(5), 600);
        assert_eq!(s.next_wakeup(SimTime::from_millis(5), 600), None);
        // Full delivery starts the think timer.
        s.on_delivered(SimTime::from_millis(10), 400);
        assert_eq!(
            s.next_wakeup(SimTime::from_millis(10), 600),
            Some(SimTime::from_millis(110))
        );
        // Nothing to send while thinking…
        assert_eq!(s.take(SimTime::from_millis(50), 600), 0);
        // …and the next request materialises once the think elapses.
        assert_eq!(s.take(SimTime::from_millis(110), 2000), 1000);
    }

    #[test]
    fn rpc_resupplies_lost_bytes() {
        let mut s = RpcSource::new(1000, SimDuration::from_millis(100));
        assert_eq!(s.take(SimTime::ZERO, 2000), 1000);
        s.on_lost(SimTime::from_millis(3), 300);
        // The lost chunk is back on the queue; the request is not
        // complete until every byte is delivered.
        assert_eq!(s.take(SimTime::from_millis(4), 2000), 300);
        s.on_delivered(SimTime::from_millis(8), 700);
        assert_eq!(s.next_wakeup(SimTime::from_millis(8), 300), None);
        s.on_delivered(SimTime::from_millis(9), 300);
        assert_eq!(
            s.next_wakeup(SimTime::from_millis(9), 300),
            Some(SimTime::from_millis(109))
        );
    }
}
