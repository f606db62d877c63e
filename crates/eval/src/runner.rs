//! The sharded sweep executor.
//!
//! [`SweepRunner::run`] lowers an [`ExperimentSpec`] onto its workload's
//! cells and distributes them over workers — the calling thread and
//! `std::thread::scope` threads beside it — pulling from a shared
//! atomic work queue. Each cell is simulated independently with its own
//! derived seed, so the *execution* order is irrelevant: results are
//! slotted back by cell index and the assembled [`SweepReport`] is
//! identical — byte for byte in canonical JSON — whatever the worker
//! count.
//!
//! Work is pulled one cell at a time, whatever the evaluator: a worker
//! that finishes a cell takes the next unclaimed index, so a run with
//! no more cells than workers gives every cell its own worker and a
//! straggler cell delays nothing but itself. Larger work units were
//! measured and lost at every size (docs/PERFORMANCE.md, "Why cells are
//! evaluated one at a time").
//!
//! The runner does not validate: `mocc_core`'s `run_experiment_with`
//! validates a spec, builds the evaluator its cells need and hands both
//! to [`SweepRunner::run`].
//!
//! Worker count resolution, highest priority first:
//! 1. [`SweepRunner::with_threads`],
//! 2. the `MOCC_SWEEP_THREADS` environment variable (a positive
//!    integer; anything else aborts with a clear error rather than
//!    silently falling back),
//! 3. [`std::thread::available_parallelism`].

use crate::cache::{
    cached_cell_reports, competition_cell_key, sweep_cell_key, CacheStats, PolicyIdentity,
};
use crate::competition::{CompetitionCell, CompetitionEvaluator};
use crate::experiment::{ExperimentSpec, Workload};
use crate::report::{CellReport, SweepReport};
use crate::spec::SweepCell;
use mocc_netsim::cc::CongestionControl;
use mocc_netsim::Simulator;
use mocc_store::ResultStore;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the auto-detected worker count.
pub const THREADS_ENV: &str = "MOCC_SWEEP_THREADS";

/// Evaluates sweep cells — the hook through which every sweep runs
/// (`mocc-core`'s spec evaluator).
/// Implementations must return one report per input cell, in
/// order, and must evaluate each cell independently of its neighbours
/// in the slice: the runner's byte-identity contract (same report for
/// any thread count) relies on it. The runner always passes one-cell
/// slices; other callers may pass any length.
pub trait CellEvaluator: Sync {
    /// Evaluates a slice of cells, returning one report per cell in
    /// input order.
    fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport>;
}

/// The shared sharded executor: `threads` workers each pull the next
/// unclaimed item index from an atomic counter, evaluate that one item
/// and slot the result back by index. Scheduling order can never change
/// the output vector — the byte-identity foundation both the classic
/// sweep and the competition sweep build on — and `n` items on at least
/// `n` workers run fully in parallel.
///
/// The calling thread is one of the workers: only the others are
/// spawned (scoped), so one worker, one item or nothing to do — every
/// `--threads 1` run, the misses of an all-hit cached run, the lookups
/// of a run too small to share out — starts no thread, and a panic in
/// the caller's share unwinds to the caller with its own message once
/// the scope has joined the rest.
pub(crate) fn run_each<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    eval: &(dyn Fn(&T) -> R + Sync),
) -> Vec<R> {
    let n = items.len();
    let workers = threads.min(n).max(1);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let result = eval(&items[i]);
        slots.lock().expect("slot lock")[i] = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_inner()
        .expect("slot lock")
        .into_iter()
        .map(|r| r.expect("every item produced a result"))
        .collect()
}

/// Parallel executor for sweep specs. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::auto()
    }
}

/// Parses a `MOCC_SWEEP_THREADS` value: `None` (unset) defers to
/// auto-detection, otherwise the value must be a positive integer.
/// Silent fallback on a typo would quietly run a different sharding
/// than the operator asked for, so malformed values are an error.
pub fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!(
                "{THREADS_ENV}={v:?} is not a positive integer; \
                 unset it for auto-detection or set N >= 1"
            )),
        },
    }
}

impl SweepRunner {
    /// A runner with the worker count resolved from the environment
    /// (`MOCC_SWEEP_THREADS`) or the machine's available parallelism;
    /// `Err` with a one-line message when the variable is set to
    /// anything but a positive integer.
    pub fn from_env() -> Result<Self, String> {
        // audit:allow(env-discipline): strict-parse helper — the one reader of MOCC_SWEEP_THREADS
        let env = std::env::var(THREADS_ENV).ok();
        let threads = parse_threads(env.as_deref())?.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Ok(SweepRunner { threads })
    }

    /// [`SweepRunner::from_env`] for callers with no error path (tests,
    /// examples).
    ///
    /// # Panics
    ///
    /// Panics with a clear message if `MOCC_SWEEP_THREADS` is set to
    /// anything but a positive integer.
    pub fn auto() -> Self {
        Self::from_env().unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// A runner with an explicit worker count (≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell of `exp` through `evaluator`, one cell per
    /// call, and assembles the report under the experiment's name.
    /// Results are slotted back by cell index: the report is
    /// byte-identical for any worker count.
    ///
    /// With `cache` — the store, the caller's ledger timestamp (the
    /// library never reads a clock) and the identity of the policy
    /// serving the cells' `mocc` flows, if any — hits are served from
    /// the store, only missing cells are simulated, and fresh blobs are
    /// written back. A sweep's cells are keyed by its scheme label; the
    /// experiment's name is in no key.
    pub fn run(
        &self,
        exp: &ExperimentSpec,
        evaluator: &(impl CellEvaluator + CompetitionEvaluator),
        cache: Option<(&ResultStore, u64, Option<&PolicyIdentity>)>,
    ) -> (SweepReport, CacheStats) {
        let policy = cache.and_then(|(_, _, policy)| policy);
        let (reports, stats) = match &exp.workload {
            Workload::Sweep(w) => {
                let spec = exp.to_sweep_spec().expect("a sweep workload lowers");
                let key = |cell: &SweepCell| sweep_cell_key(cell, w.scheme.label(), &spec, policy);
                cached_cell_reports(
                    &spec.expand(),
                    self.threads,
                    &|cells| CellEvaluator::eval_batch(evaluator, cells),
                    &|cell: &SweepCell| cell.index,
                    cache.map(|(store, ts, _)| (store, ts, &key as _)),
                )
            }
            Workload::Competition(_) => {
                let spec = exp
                    .to_competition_spec()
                    .expect("a competition workload lowers");
                let key = |cell: &CompetitionCell| competition_cell_key(cell, &spec, policy);
                cached_cell_reports(
                    &spec.expand(),
                    self.threads,
                    &|cells| CompetitionEvaluator::eval_batch(evaluator, cells),
                    &|cell: &CompetitionCell| cell.index,
                    cache.map(|(store, ts, _)| (store, ts, &key as _)),
                )
            }
        };
        (
            SweepReport::new(&exp.name, exp.seed, exp.duration_s, reports),
            stats,
        )
    }
}

/// Simulates one cell to its horizon and reduces it to metrics.
pub fn run_cell(
    cell: &SweepCell,
    factory: &dyn Fn(&SweepCell) -> Vec<Box<dyn CongestionControl>>,
) -> CellReport {
    let ccs = factory(cell);
    let res = Simulator::new(cell.scenario.clone(), ccs).run();
    CellReport::from_sim(cell, &res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeSpec;
    use crate::spec::{FlowLoad, SweepSpec, TraceShape};
    use mocc_netsim::cc::Aimd;

    /// `spec` as an experiment of the tests' `aimd` scheme (a label no
    /// registry is asked to resolve: the runner does not validate).
    fn aimd_experiment(spec: &SweepSpec) -> ExperimentSpec {
        ExperimentSpec::from_sweep("aimd", SchemeSpec::parse("aimd").unwrap(), spec)
    }

    /// Runs `spec` under [`AimdCells`].
    fn run_aimd(threads: usize, spec: &SweepSpec) -> SweepReport {
        SweepRunner::with_threads(threads)
            .run(&aimd_experiment(spec), &AimdCells, None)
            .0
    }

    fn small_spec() -> SweepSpec {
        SweepSpec {
            bandwidth_mbps: vec![4.0, 8.0],
            owd_ms: vec![10, 30],
            queue_pkts: vec![100],
            loss: vec![0.0, 0.01],
            shapes: vec![TraceShape::Constant],
            loads: vec![FlowLoad::Steady(1)],
            duration_s: 5,
            ..SweepSpec::single_cell()
        }
    }

    #[test]
    fn parallel_report_is_byte_identical_to_serial() {
        let spec = small_spec();
        let serial = run_aimd(1, &spec);
        let parallel = run_aimd(4, &spec);
        assert_eq!(serial.to_canonical_json(), parallel.to_canonical_json());
    }

    #[test]
    fn runner_covers_every_cell_in_order() {
        let spec = small_spec();
        let rep = run_aimd(3, &spec);
        assert_eq!(rep.cells.len(), spec.cell_count());
        for (i, c) in rep.cells.iter().enumerate() {
            assert_eq!(c.index, i as u64);
            assert!(c.goodput_mbps > 0.0, "cell {i} produced no goodput");
        }
        assert_eq!(rep.summary.cells, spec.cell_count() as u64);
    }

    /// An all-loss cell — configured loss rate 1.0, so every flow acks
    /// zero bytes in every window — must reduce to finite metrics and
    /// NaN-free canonical JSON: Jain degenerates to 1.0 (an all-zero
    /// share vector is trivially "fair"), friendliness/convergence
    /// stay `None`, and the bytes are deterministic across thread
    /// counts like any other cell. (Spec validation rejects a loss of
    /// 1.0, so this drives the runner, which does not validate.)
    #[test]
    fn all_loss_cell_reduces_without_nan() {
        let mut spec = small_spec();
        spec.bandwidth_mbps = vec![4.0];
        spec.owd_ms = vec![10];
        spec.loss = vec![1.0];
        let rep = run_aimd(1, &spec);
        assert_eq!(rep.cells.len(), 1);
        let c = &rep.cells[0];
        assert_eq!(c.goodput_mbps, 0.0, "nothing can be delivered");
        assert_eq!(c.loss_rate, 1.0);
        assert_eq!(c.jain, 1.0);
        assert_eq!(c.friendliness, None);
        assert_eq!(c.convergence_s, None);
        for (name, v) in [
            ("goodput_mbps", c.goodput_mbps),
            ("mean_rtt_ms", c.mean_rtt_ms),
            ("p95_rtt_ms", c.p95_rtt_ms),
            ("loss_rate", c.loss_rate),
            ("utilization", c.utilization),
            ("latency_ratio", c.latency_ratio),
            ("jain", c.jain),
            ("utility", c.utility),
        ] {
            assert!(v.is_finite(), "{name} = {v}");
        }
        let json = rep.to_canonical_json();
        assert!(!json.to_ascii_lowercase().contains("nan"), "{json}");
        assert_eq!(json, run_aimd(2, &spec).to_canonical_json());
    }

    #[test]
    fn thread_resolution() {
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
        assert!(SweepRunner::auto().threads() >= 1);
    }

    #[test]
    fn thread_env_parsing_is_strict() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("3")), Ok(Some(3)));
        for bad in ["0", "-1", "four", "4.5", ""] {
            let err = parse_threads(Some(bad)).unwrap_err();
            assert!(err.contains(THREADS_ENV), "{err}");
            assert!(err.contains("positive integer"), "{err}");
        }
    }

    fn aimd_factory(cell: &SweepCell) -> Vec<Box<dyn CongestionControl>> {
        (0..cell.scenario.flows.len())
            .map(|_| Box::new(Aimd::new()) as Box<dyn CongestionControl>)
            .collect()
    }

    /// A hand-written evaluator running [`aimd_factory`] on sweeps.
    struct AimdCells;

    impl CellEvaluator for AimdCells {
        fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
            cells.iter().map(|c| run_cell(c, &aimd_factory)).collect()
        }
    }

    impl CompetitionEvaluator for AimdCells {
        fn eval_batch(&self, _: &[CompetitionCell]) -> Vec<CellReport> {
            unreachable!("the runner's tests run sweeps only")
        }
    }

    /// The calling thread is one of the workers and only the others
    /// are spawned: one worker, one item or no item runs `eval` on the
    /// caller alone (the miss phase of an all-hit run, the one chunk of
    /// lookups of a small one: neither starts a thread), and two
    /// workers are the caller and exactly one thread beside it — held
    /// to that by the first two items each waiting (bounded) for the
    /// other to have started.
    #[test]
    fn the_caller_is_a_worker_and_only_the_others_are_spawned() {
        use std::thread::ThreadId;
        let me = std::thread::current().id();
        let started = AtomicUsize::new(0);
        let threads_used = |n: usize, threads: usize, meet: bool| -> Vec<ThreadId> {
            let items: Vec<usize> = (0..n).collect();
            let out = run_each(&items, threads, &|&i| {
                if meet && i < 2 {
                    started.fetch_add(1, Ordering::SeqCst);
                    for _ in 0..5_000 {
                        if started.load(Ordering::SeqCst) >= 2 {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                (i, std::thread::current().id())
            });
            let (order, ids): (Vec<usize>, Vec<ThreadId>) = out.into_iter().unzip();
            assert_eq!(order, items, "results are slotted by index");
            let mut distinct = Vec::new();
            for id in ids {
                if !distinct.contains(&id) {
                    distinct.push(id);
                }
            }
            distinct
        };
        assert_eq!(threads_used(8, 1, false), [me]);
        assert_eq!(threads_used(1, 4, false), [me]);
        assert_eq!(threads_used(0, 4, false), []);
        let two = threads_used(8, 2, true);
        assert!(two.len() == 2 && two.contains(&me), "{two:?} from {me:?}");
    }

    /// No more cells than workers means every cell has a worker of its
    /// own: each of two cells waits (bounded) until the other has
    /// started, which only two concurrent workers can satisfy. An
    /// executor that hands both cells to one worker leaves the first
    /// waiting out its deadline with the count at 1.
    #[test]
    fn cells_up_to_the_worker_count_each_get_their_own_worker() {
        #[derive(Default)]
        struct Rendezvous {
            started: AtomicUsize,
            /// What each cell read once its wait ended.
            seen: Mutex<Vec<usize>>,
        }
        impl CellEvaluator for Rendezvous {
            fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
                cells
                    .iter()
                    .map(|cell| {
                        self.started.fetch_add(1, Ordering::SeqCst);
                        // Bounded: 5 000 sleeps of a millisecond.
                        for _ in 0..5_000 {
                            if self.started.load(Ordering::SeqCst) >= 2 {
                                break;
                            }
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        let seen = self.started.load(Ordering::SeqCst);
                        self.seen.lock().unwrap().push(seen);
                        run_cell(cell, &aimd_factory)
                    })
                    .collect()
            }
        }
        impl CompetitionEvaluator for Rendezvous {
            fn eval_batch(&self, _: &[CompetitionCell]) -> Vec<CellReport> {
                unreachable!("a sweep has no competition cells")
            }
        }
        let mut spec = small_spec();
        spec.owd_ms = vec![10];
        spec.loss = vec![0.0];
        spec.duration_s = 1;
        assert_eq!(spec.cell_count(), 2);
        let evaluator = Rendezvous::default();
        SweepRunner::with_threads(2).run(&aimd_experiment(&spec), &evaluator, None);
        assert_eq!(
            *evaluator.seen.lock().unwrap(),
            [2, 2],
            "a cell ran before its neighbour had a worker"
        );
    }
}
