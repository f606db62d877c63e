//! Measuring congestion-controller callbacks without a clock in the
//! event loop.
//!
//! A simulator event costs about 80 ns, so a clock read around each
//! controller callback would cost as much as the callback. Instead a
//! [`Taped`] decorator records the inputs of every callback while a
//! cell runs, and [`replay`] feeds the recording to a fresh controller
//! of the same scheme in one timed loop. The decorator forwards every
//! call unchanged, so a taped cell behaves exactly like an untaped one
//! (`taped_cells_reduce_to_identical_reports`).

use mocc_netsim::cc::{
    AckInfo, CongestionControl, LossInfo, MonitorStats, RateControl, SenderView,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded callback with its inputs.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    Init(SenderView),
    Ack(SenderView, AckInfo),
    Loss(SenderView, LossInfo),
    Monitor(SenderView, MonitorStats),
}

/// What one controller was asked during a run.
#[derive(Debug, Default)]
pub struct Tape {
    /// Every callback made, recorded or not.
    pub calls: u64,
    /// The first `cap` callbacks.
    pub log: Vec<Call>,
}

/// A controller that records its callbacks and forwards them.
pub struct Taped {
    inner: Box<dyn CongestionControl>,
    tape: Arc<Mutex<Tape>>,
    cap: usize,
}

impl Taped {
    /// Wraps `inner`; the tape keeps at most `cap` calls but counts
    /// all of them.
    pub fn wrap(inner: Box<dyn CongestionControl>, cap: usize) -> (Box<Self>, Arc<Mutex<Tape>>) {
        let tape = Arc::new(Mutex::new(Tape::default()));
        let taped = Taped {
            inner,
            tape: Arc::clone(&tape),
            cap,
        };
        (Box::new(taped), tape)
    }

    fn record(&self, call: Call) {
        // The simulator owns the controller and calls it from one
        // thread; the lock only lets the tape outlive the simulator.
        let mut tape = self.tape.lock().expect("no panic while taping");
        tape.calls += 1;
        if tape.log.len() < self.cap {
            tape.log.push(call);
        }
    }
}

impl CongestionControl for Taped {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, view: &SenderView, ctl: &mut RateControl) {
        self.record(Call::Init(*view));
        self.inner.init(view, ctl);
    }

    fn on_ack(&mut self, view: &SenderView, ack: &AckInfo, ctl: &mut RateControl) {
        self.record(Call::Ack(*view, *ack));
        self.inner.on_ack(view, ack, ctl);
    }

    fn on_loss(&mut self, view: &SenderView, loss: &LossInfo, ctl: &mut RateControl) {
        self.record(Call::Loss(*view, *loss));
        self.inner.on_loss(view, loss, ctl);
    }

    fn on_monitor(&mut self, view: &SenderView, mi: &MonitorStats, ctl: &mut RateControl) {
        self.record(Call::Monitor(*view, *mi));
        self.inner.on_monitor(view, mi, ctl);
    }
}

/// Feeds the recorded calls to `cc` — a fresh controller of the scheme
/// that was taped, so that it walks through the same states — and
/// returns the time the whole loop took.
pub fn replay(log: &[Call], cc: &mut dyn CongestionControl) -> Duration {
    let mut ctl = RateControl::open();
    let started = Instant::now();
    for call in log {
        match call {
            Call::Init(view) => cc.init(view, &mut ctl),
            Call::Ack(view, ack) => cc.on_ack(view, ack, &mut ctl),
            Call::Loss(view, loss) => cc.on_loss(view, loss, &mut ctl),
            Call::Monitor(view, mi) => cc.on_monitor(view, mi, &mut ctl),
        }
    }
    std::hint::black_box(ctl);
    started.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use mocc_eval::{run_cell, ExperimentSpec, SweepCell};

    fn cells() -> Vec<SweepCell> {
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        let doc = &gen::classic_sweep(3)[0];
        let exp = ExperimentSpec::from_json(&doc.json).unwrap();
        let cells = exp.to_sweep_spec().unwrap().expand();
        // One cell per load kind and trace shape, loss on and off.
        [0, 4, 8, 13, 26]
            .iter()
            .map(|&i| cells[i].clone())
            .collect()
    }

    #[test]
    fn taped_cells_reduce_to_identical_reports() {
        for scheme in ["cubic", "bbr", "pcc-vivace"] {
            for cell in cells() {
                let plain = |c: &SweepCell| -> Vec<Box<dyn CongestionControl>> {
                    (0..c.scenario.flows.len())
                        .map(|_| mocc_cc::by_name(scheme).unwrap())
                        .collect()
                };
                let tapes = Mutex::new(Vec::new());
                let taped = |c: &SweepCell| -> Vec<Box<dyn CongestionControl>> {
                    plain(c)
                        .into_iter()
                        .map(|cc| {
                            let (cc, tape) = Taped::wrap(cc, 1000);
                            tapes.lock().unwrap().push(tape);
                            cc as Box<dyn CongestionControl>
                        })
                        .collect()
                };
                let want = serde_json::to_string(&run_cell(&cell, &plain)).unwrap();
                let got = serde_json::to_string(&run_cell(&cell, &taped)).unwrap();
                assert_eq!(want, got, "{scheme} cell {}", cell.index);
                let tapes = tapes.into_inner().unwrap();
                assert_eq!(tapes.len(), cell.scenario.flows.len());
                let first = tapes[0].lock().unwrap();
                assert!(first.calls >= first.log.len() as u64);
                assert!(
                    matches!(first.log[0], Call::Init(_)),
                    "a flow starts with init"
                );
                assert!(first.log.len() <= 1000);
            }
        }
    }

    #[test]
    fn replay_walks_a_fresh_controller_through_the_tape() {
        let cell = &cells()[0];
        let (cc, tape) = Taped::wrap(mocc_cc::by_name("cubic").unwrap(), usize::MAX);
        let factory = Mutex::new(Some(cc));
        run_cell(cell, &|_: &SweepCell| -> Vec<Box<dyn CongestionControl>> {
            vec![factory.lock().unwrap().take().unwrap()]
        });
        let tape = tape.lock().unwrap();
        assert_eq!(tape.calls, tape.log.len() as u64);
        assert!(
            tape.calls > 1000,
            "a 12 s cubic cell acks thousands of packets"
        );
        let mut fresh = mocc_cc::by_name("cubic").unwrap();
        assert!(replay(&tape.log, fresh.as_mut()) > Duration::ZERO);
    }
}
