//! Cell-level memoization: stable cache keys and the cached execution
//! path.
//!
//! Every cell report in this crate is deterministic and canonical-JSON
//! (byte-identical across thread counts), so a cell is perfectly
//! memoizable: simulate it once, store the canonical
//! [`CellReport`] blob, and serve every later request for the same
//! cell from disk. This module derives the **cache key** — the
//! SHA-256 of a canonical-JSON *request document* capturing everything
//! that determines the cell's bytes — and implements the one cell
//! executor every run goes through ([`crate::SweepRunner::run`], for
//! sweeps and competitions alike), with the store as an optional
//! argument: an uncached run is a cached run in which every cell
//! misses and nothing is read or written.
//!
//! ## Key derivation (frozen; see `docs/CACHING.md`)
//!
//! The request document is a canonical-JSON object with schema tag
//! [`CELL_SCHEMA`] containing, for every cell: its index, derived
//! seed, scenario coordinates (bandwidth, one-way delay, queue),
//! global knobs (duration, MSS, monitor-interval convention), the
//! workload-specific axes (loss/shape/load + scheme label for sweeps;
//! mix/lineup/fairness parameters for competitions), and the policy
//! identity (`null` for policy-free schemes). Notably **excluded**:
//! the experiment *name* (it only labels the report), the worker
//! thread count — the runner's byte-identity contract proves it cannot
//! change a cell's bytes — and `policy.batch`, a spec field nothing
//! reads. Any semantic change — a different seed, axis value, scheme,
//! or policy artifact — lands in the document and produces a
//! different key.
//!
//! ## Hit discipline
//!
//! A blob served by the store has already passed content-digest
//! verification; this layer additionally re-parses it as a
//! [`CellReport`], requires the canonical re-serialization to be a
//! byte-level fixed point, and requires the report's `index` to match
//! the requested cell. Anything less is demoted to a miss and
//! recomputed — a cache can cost time, never correctness. A daemon's
//! store handle keeps the report that passed, by content digest, and
//! serves it again without a decode; the `index` check runs on every
//! lookup all the same.

use crate::competition::CompetitionCell;
use crate::report::CellReport;
use crate::runner::run_each;
use crate::spec::SweepCell;
use crate::{CompetitionSpec, SweepSpec};
use mocc_store::{sha256_hex, ResultStore};
use serde::json::ObjectWriter;
use serde::Serialize;
use std::borrow::Cow;
use std::sync::Mutex;

/// Schema/version tag baked into every cache key. Bump it whenever the
/// report schema or any simulation semantics change: old blobs then
/// miss (and are eventually collected by `gc`) instead of being served
/// against a different codebase. `v2`: app-limited flows send whole
/// packets and hold one wake-up (docs/EVALUATION.md), which moved the
/// reports of `onoff` cells.
pub const CELL_SCHEMA: &str = "mocc-cell-v2";

/// Identity of the policy serving a cell's `mocc` flows — the part of
/// the cache key that changes when the model does.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicyIdentity {
    /// SHA-256 hex digest of the agent's canonical JSON artifact
    /// (`mocc_core::policy_digest`); retraining or editing the model
    /// changes every key it served.
    pub digest: String,
    /// The policy section's default preference label (serves bare
    /// `mocc` labels; explicit `mocc:<pref>` schemes also carry the
    /// preference in their label).
    pub preference: String,
    /// Flow 0's initial rate as a fraction of the cell's peak
    /// bandwidth.
    pub initial_rate_frac: f64,
}

/// Hit/miss counters of one cached run (the *eval-level* view: a blob
/// the store served but this layer rejected counts as a miss here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells served from the store.
    pub hits: u64,
    /// Cells simulated (and written back).
    pub misses: u64,
}

impl CacheStats {
    /// True when every cell was served from the store.
    pub fn all_hits(&self) -> bool {
        self.misses == 0 && self.hits > 0
    }

    /// Total cells the run covered.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Room for a typical request document (≈300 bytes), so writing one
/// does not grow its buffer step by step.
const DOC_CAPACITY: usize = 512;

/// The cache key of one classic sweep cell run under `scheme` (a
/// shared-grammar label) with `spec`'s global knobs: the SHA-256 of
/// its [`sweep_cell_request`].
pub fn sweep_cell_key(
    cell: &SweepCell,
    scheme: &str,
    spec: &SweepSpec,
    policy: Option<&PolicyIdentity>,
) -> String {
    sha256_hex(sweep_cell_request(cell, scheme, spec, policy).as_bytes())
}

/// The request document of one classic sweep cell: a canonical-JSON
/// object streamed in key order, naming everything that determines the
/// cell's report.
pub fn sweep_cell_request(
    cell: &SweepCell,
    scheme: &str,
    spec: &SweepSpec,
    policy: Option<&PolicyIdentity>,
) -> String {
    let mut doc = String::with_capacity(DOC_CAPACITY);
    let mut w = ObjectWriter::begin(&mut doc);
    w.field("agent_mi", &spec.agent_mi);
    w.field("bandwidth_mbps", &cell.bandwidth_mbps);
    w.field("duration_s", &spec.duration_s);
    w.field("index", &cell.index);
    w.field("kind", "sweep");
    w.field("load", &cell.load.label());
    w.field("loss", &cell.loss);
    w.field("mss_bytes", &spec.mss_bytes);
    w.field("owd_ms", &cell.owd_ms);
    w.field("policy", &policy);
    w.field("queue_pkts", &cell.queue_pkts);
    w.field("schema", CELL_SCHEMA);
    w.field("scheme", scheme);
    w.field("seed", &cell.scenario.seed);
    w.field("shape", &cell.shape.label());
    // Replay cells only: the shape label names a *file*, so the file's
    // content digest must be part of the identity (editing a recording
    // invalidates its cached cells). Generator-shape documents are
    // byte-identical to the pre-replay key schema, so existing stores
    // keep hitting.
    if let Some(digest) = cell.shape.trace_digest() {
        w.field("trace_digest", digest);
    }
    w.end();
    doc
}

/// The cache key of one competition cell (the mix, its resolved
/// lineup, and the fairness parameters all shape the report).
pub fn competition_cell_key(
    cell: &CompetitionCell,
    spec: &CompetitionSpec,
    policy: Option<&PolicyIdentity>,
) -> String {
    let mut doc = String::with_capacity(DOC_CAPACITY);
    let mut w = ObjectWriter::begin(&mut doc);
    w.field("agent_mi", &spec.agent_mi);
    w.field("bandwidth_mbps", &cell.bandwidth_mbps);
    w.field("duration_s", &spec.duration_s);
    w.field("fair_jain", &cell.fair_jain);
    w.field("fair_sustain_s", &cell.fair_sustain_s);
    w.field("index", &cell.index);
    w.field("kind", "competition");
    w.field("labels", &cell.labels);
    w.field("mix", &cell.mix.label());
    w.field("mss_bytes", &spec.mss_bytes);
    w.field("owd_ms", &cell.owd_ms);
    w.field("policy", &policy);
    w.field("queue_pkts", &cell.queue_pkts);
    w.field("schema", CELL_SCHEMA);
    w.field("seed", &cell.scenario.seed);
    w.field("tcp_baseline", &cell.tcp_baseline);
    w.end();
    sha256_hex(doc.as_bytes())
}

/// Fewest lookups that earn a worker of their own. A verified hit
/// costs about 10 µs (key, read, SHA-256, decode, re-encode), so 512
/// of them are 5 ms of work against the 15–100 µs a thread costs to
/// start: a 4 096-cell warm run at two workers read 1.3× faster
/// (docs/PERFORMANCE.md, "Verified hits run on every worker"), while a
/// 16-cell `serve` request and every shipped example spec stay on the
/// caller and start no thread.
const MIN_LOOKUPS_PER_WORKER: usize = 512;

/// Derives a cell's cache key, on whichever worker looks the cell up.
pub(crate) type KeyOf<'a, T> = &'a (dyn Fn(&T) -> String + Sync);

/// The one cell executor: serves what it can from the store,
/// simulates the rest one cell per `eval` call through the sharded
/// executor, and writes the fresh blobs back. `cache` carries the
/// store, the caller's ledger timestamp, and the function from a cell
/// to its key; without it every cell is a miss and nothing is read or
/// written, which is the plain uncached run.
///
/// Lookups are shared out in contiguous chunks of cells, one per
/// worker (as many as `threads` and [`MIN_LOOKUPS_PER_WORKER`] allow,
/// the caller being the first): a worker derives its cells' keys,
/// looks them up and verifies what is served straight into its own
/// slots of the result. The chunks' ledger lines are joined in cell
/// order and appended as one write, so the ledger's bytes do not
/// depend on the worker count. No key outlives its lookup: a miss
/// derives its key again for the write-back — microseconds beside its
/// simulation, where 4 096 kept keys were 0.4 of a warm run's 9.6 MB.
///
/// Store writes are best-effort: a full disk degrades the cache, never
/// the run. Returns reports in `cells` order plus the hit/miss counters.
pub(crate) fn cached_cell_reports<T: Sync + Clone>(
    cells: &[T],
    threads: usize,
    eval: &(dyn Fn(&[T]) -> Vec<CellReport> + Sync),
    cell_index: &(dyn Fn(&T) -> u64 + Sync),
    cache: Option<(&ResultStore, u64, KeyOf<'_, T>)>,
) -> (Vec<CellReport>, CacheStats) {
    let mut out: Vec<Option<CellReport>> = vec![None; cells.len()];
    if let Some((store, ts, key_of)) = cache {
        let workers = threads.min(cells.len() / MIN_LOOKUPS_PER_WORKER).max(1);
        let len = cells.len().div_ceil(workers).max(1);
        // `run_each` shares its items and a chunk is written to, so
        // each sits behind a lock that only its one worker takes.
        let chunks: Vec<_> = cells
            .chunks(len)
            .zip(out.chunks_mut(len))
            .map(Mutex::new)
            .collect();
        let lines = run_each(&chunks, workers, &|chunk| {
            let mut chunk = chunk.lock().expect("a chunk has one worker");
            let (cells, out) = &mut *chunk;
            let (mut bytes, mut canonical, mut lines) = (Vec::new(), String::new(), String::new());
            for (cell, slot) in cells.iter().zip(out.iter_mut()) {
                let index = cell_index(cell);
                let check = |blob: &str| {
                    let report: CellReport = serde_json::from_str(blob).ok()?;
                    canonical.clear();
                    report.write_json(&mut canonical);
                    (canonical == blob && report.index == index).then_some(report)
                };
                *slot = store
                    .lookup(&key_of(cell), ts, &mut bytes, &mut lines, check)
                    .filter(|report| report.index == index);
            }
            lines
        });
        // Joined into the first chunk's buffer: one chunk is appended
        // as it is, without a copy.
        let joined = lines.into_iter().reduce(|mut joined, chunk| {
            joined.push_str(&chunk);
            joined
        });
        store.append_lookups(&joined.unwrap_or_default());
    }
    let missing: Vec<usize> = (0..cells.len()).filter(|&i| out[i].is_none()).collect();
    let stats = CacheStats {
        hits: (cells.len() - missing.len()) as u64,
        misses: missing.len() as u64,
    };
    // A run with no hits (every uncached run, every cold fill)
    // simulates the caller's cells in place instead of copying them.
    let miss_cells: Cow<'_, [T]> = if missing.len() == cells.len() {
        Cow::Borrowed(cells)
    } else {
        missing.iter().map(|&i| cells[i].clone()).collect()
    };
    let computed = run_each(&miss_cells, threads, &|cell| {
        eval(std::slice::from_ref(cell))
            .pop()
            .expect("evaluator returns one report per cell")
    });
    for (&slot, report) in missing.iter().zip(computed) {
        if let Some((store, ts, key_of)) = cache {
            let blob = serde_json::to_string(&report).expect("report serializes");
            let _ = store.put_value(&key_of(&cells[slot]), &blob, ts, || report.clone());
        }
        out[slot] = Some(report);
    }
    let reports = out
        .into_iter()
        .map(|r| r.expect("every cell resolved"))
        .collect();
    (reports, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_store::{LedgerEvent, LedgerScan};

    fn spec() -> SweepSpec {
        let mut s = SweepSpec::single_cell();
        s.bandwidth_mbps = vec![5.0, 10.0];
        s.duration_s = 5;
        s
    }

    /// A store in a fresh temp directory.
    fn temp_store(name: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("mocc-eval-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(&dir).expect("open store")
    }

    /// The report of synthetic cell `index`: no simulation behind it,
    /// distinct and canonical per index.
    fn synthetic_report(index: u64) -> CellReport {
        CellReport {
            index,
            seed: index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            bandwidth_mbps: 1.5 + index as f64,
            owd_ms: 20,
            queue_pkts: 100,
            loss_cfg: 0.01,
            shape: "constant".to_string(),
            load: "steady:1".to_string(),
            mix: None,
            goodput_mbps: 0.25 * index as f64,
            mean_rtt_ms: 41.5,
            p95_rtt_ms: 55.0,
            loss_rate: 0.0,
            utilization: 0.9,
            latency_ratio: 1.0375,
            jain: 1.0,
            utility: 0.8,
            friendliness: None,
            convergence_s: None,
        }
    }

    fn synthetic_key(index: &u64) -> String {
        sha256_hex(format!("synthetic cell {index}").as_bytes())
    }

    /// One pass of `cells` through the executor over `store` at `ts`;
    /// returns the reports, the counters and the cells `eval` was asked
    /// for, in the order the results were slotted (index order).
    fn synthetic_pass(
        cells: &[u64],
        threads: usize,
        store: &ResultStore,
        ts: u64,
        key_of: KeyOf<'_, u64>,
    ) -> (Vec<CellReport>, CacheStats, Vec<u64>) {
        let simulated = Mutex::new(Vec::new());
        let (reports, stats) = cached_cell_reports(
            cells,
            threads,
            &|cells| {
                simulated.lock().unwrap().extend_from_slice(cells);
                cells.iter().map(|&i| synthetic_report(i)).collect()
            },
            &|&i| i,
            Some((store, ts, key_of)),
        );
        let mut simulated = simulated.into_inner().unwrap();
        simulated.sort_unstable();
        (reports, stats, simulated)
    }

    /// The ledger lines after the first `skip` bytes, as
    /// `(event, key)` in file order; every line must parse.
    fn ledger_from(store: &ResultStore, skip: usize) -> Vec<(LedgerEvent, String)> {
        let text = std::fs::read_to_string(store.root().join("ledger.jsonl")).unwrap();
        let scan = LedgerScan::parse(&text[skip..]);
        assert!(scan.bad_lines.is_empty() && !scan.truncated_tail);
        scan.entries.into_iter().map(|e| (e.event, e.key)).collect()
    }

    fn ledger_len(store: &ResultStore) -> usize {
        std::fs::metadata(store.root().join("ledger.jsonl")).map_or(0, |m| m.len() as usize)
    }

    /// Lookups get a worker per [`MIN_LOOKUPS_PER_WORKER`] cells and
    /// never more than `threads`: a run below twice the floor, and any
    /// run at one thread, looks everything up on the caller and starts
    /// no thread; four times the floor at two threads is the caller
    /// and exactly one thread beside it — held to that by the first
    /// cell of each chunk waiting (bounded) for the other's.
    #[test]
    fn lookups_below_the_floor_or_at_one_thread_stay_on_the_caller() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::thread::ThreadId;
        let me = std::thread::current().id();
        let store = temp_store("floor");
        let lookup_threads = |n: u64, threads: usize, meet: bool| -> Vec<ThreadId> {
            let cells: Vec<u64> = (0..n).collect();
            let started = AtomicUsize::new(0);
            let ids = Mutex::new(Vec::new());
            let key_of = |i: &u64| {
                let id = std::thread::current().id();
                let mut ids = ids.lock().unwrap();
                if !ids.contains(&id) {
                    ids.push(id);
                }
                drop(ids);
                if meet && *i % (n / 2) == 0 {
                    started.fetch_add(1, Ordering::SeqCst);
                    for _ in 0..5_000 {
                        if started.load(Ordering::SeqCst) >= 2 {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                synthetic_key(i)
            };
            let before = ledger_len(&store);
            let (reports, stats, _) = synthetic_pass(&cells, threads, &store, 1, &key_of);
            assert_eq!(stats.total(), n);
            assert!(reports.iter().map(|r| r.index).eq(0..n));
            // Every lookup is logged, in cell order, whoever made it.
            let lookups = ledger_from(&store, before)
                .into_iter()
                .filter(|(event, _)| *event != LedgerEvent::Put)
                .map(|(_, key)| key);
            assert!(lookups.eq(cells.iter().map(synthetic_key)));
            ids.into_inner().unwrap()
        };
        let floor = MIN_LOOKUPS_PER_WORKER as u64;
        assert_eq!(lookup_threads(2 * floor - 1, 4, false), [me]);
        assert_eq!(lookup_threads(4 * floor, 1, false), [me]);
        assert_eq!(lookup_threads(16, 4, false), [me]);
        let two = lookup_threads(4 * floor, 2, true);
        assert!(two.len() == 2 && two.contains(&me), "{two:?} from {me:?}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Damage in the middle of the second worker's chunk: a flipped
    /// byte, a deleted blob and a truncated one demote exactly those
    /// three cells. They alone are simulated again and written back,
    /// their `miss` lines sit at their cell positions among the `hit`
    /// lines, the report is the cold one, and the next pass is all
    /// hits over a clean store.
    #[test]
    fn damage_in_a_second_workers_chunk_demotes_exactly_those_cells() {
        let n = 4 * MIN_LOOKUPS_PER_WORKER as u64;
        let cells: Vec<u64> = (0..n).collect();
        let store = temp_store("damage");
        let (cold, stats, simulated) = synthetic_pass(&cells, 2, &store, 1, &synthetic_key);
        assert_eq!((stats.hits, stats.misses), (0, n));
        assert_eq!(simulated, cells);

        // Two workers: the second chunk starts at n / 2.
        let (flipped, deleted, truncated) = (n / 2 + 400, n / 2 + 500, n / 2 + 600);
        let path = |i: u64| {
            store
                .root()
                .join(mocc_store::object_rel_path(&synthetic_key(&i)))
        };
        let mut bytes = std::fs::read(path(flipped)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(path(flipped), &bytes).unwrap();
        std::fs::remove_file(path(deleted)).unwrap();
        std::fs::write(path(truncated), &bytes[..mid]).unwrap();
        assert_eq!(store.verify().unwrap().issues.len(), 3);

        let damaged = [flipped, deleted, truncated];
        let before = ledger_len(&store);
        let (healed, stats, simulated) = synthetic_pass(&cells, 2, &store, 2, &synthetic_key);
        assert_eq!((stats.hits, stats.misses), (n - 3, 3));
        assert_eq!(simulated, damaged);
        assert_eq!(healed, cold);
        let want: Vec<(LedgerEvent, String)> = cells
            .iter()
            .map(|i| {
                let event = if damaged.contains(i) {
                    LedgerEvent::Miss
                } else {
                    LedgerEvent::Hit
                };
                (event, synthetic_key(i))
            })
            .chain(damaged.iter().map(|i| (LedgerEvent::Put, synthetic_key(i))))
            .collect();
        assert_eq!(ledger_from(&store, before), want);
        assert!(store.verify().unwrap().is_clean());

        let (warm, stats, simulated) = synthetic_pass(&cells, 2, &store, 3, &synthetic_key);
        assert!(stats.all_hits() && simulated.is_empty(), "{stats:?}");
        assert_eq!(warm, cold);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// A second handle (another process) overwriting blobs while two
    /// workers look them up can cost hits, never correctness: this
    /// handle's index still holds the digest of what it wrote, so a
    /// foreign blob fails verification whenever it lands, is demoted
    /// to a miss and recomputed. The barrier starts the writer and
    /// both workers together; the writer's targets lie near the end of
    /// each chunk, so its `put`s land on both sides of their lookups.
    #[test]
    fn a_foreign_put_racing_a_parallel_hit_pass_can_only_cost_hits() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        let n = 4 * MIN_LOOKUPS_PER_WORKER as u64;
        let cells: Vec<u64> = (0..n).collect();
        let store = temp_store("foreign-put");
        let (cold, _, _) = synthetic_pass(&cells, 2, &store, 1, &synthetic_key);
        let foreign = ResultStore::open(store.root()).unwrap();
        let targets: Vec<u64> = (n / 2 - 100..n / 2).chain(n - 100..n).collect();

        let barrier = Barrier::new(3);
        let writer_done = AtomicBool::new(false);
        let key_of = |i: &u64| {
            if *i % (n / 2) == 0 {
                barrier.wait();
            }
            synthetic_key(i)
        };
        let before = ledger_len(&store);
        let (raced, stats) = std::thread::scope(|scope| {
            scope.spawn(|| {
                barrier.wait();
                for i in &targets {
                    // Canonical, and the right index: only the digest
                    // this handle recorded tells it from the real one.
                    let mut report = synthetic_report(*i);
                    report.utility = 0.0;
                    let blob = serde_json::to_string(&report).unwrap();
                    foreign.put(&synthetic_key(i), &blob, 2).unwrap();
                }
                writer_done.store(true, Ordering::SeqCst);
            });
            cached_cell_reports(
                &cells,
                2,
                &|cells| {
                    // Write-backs start once the writer is done, so
                    // each key's last `put` line names its last blob.
                    for _ in 0..5_000 {
                        if writer_done.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    cells.iter().map(|&i| synthetic_report(i)).collect()
                },
                &|&i| i,
                Some((&store, 3, &key_of)),
            )
        });
        assert_eq!(raced, cold, "a foreign blob was served");
        assert!(stats.misses <= targets.len() as u64, "{stats:?}");
        let target_keys: Vec<String> = targets.iter().map(synthetic_key).collect();
        for (event, key) in ledger_from(&store, before) {
            assert!(
                event == LedgerEvent::Hit || target_keys.contains(&key),
                "{event:?} on a key nobody overwrote"
            );
        }
        assert!(ResultStore::open(store.root())
            .unwrap()
            .verify()
            .unwrap()
            .is_clean());
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// A daemon's handle keeps only reports that pass the hit
    /// discipline, and checks the `index` of every report it serves.
    /// Another handle overwrites one cell's blob with its report
    /// spelled non-canonically, another's with the canonical report of
    /// an index no cell has, and a third's with a fourth cell's blob,
    /// whose report the daemon has kept. All three verify against the
    /// digests the daemon catches up to, all three are demoted and
    /// simulated again, and each writes the `hit` line any handle
    /// writes before its miss's `put`. The first two are read and
    /// checked, the third is served its kept report and refused by its
    /// `index`. Nothing demoted is kept: when the same blobs are put
    /// again, the next pass reads and checks the first two again.
    #[test]
    fn a_demoted_blob_is_never_kept() {
        let cells: Vec<u64> = (0..8).collect();
        let store = temp_store("demoted").with_verified_blobs();
        let (cold, _, _) = synthetic_pass(&cells, 1, &store, 1, &synthetic_key);
        assert_eq!((store.blob_reads(), store.blob_checks()), (0, 0));
        let foreign = ResultStore::open(store.root()).unwrap();
        let (spaced, moved, twin) = (2, 5, 7);
        let blob = |index| serde_json::to_string(&synthetic_report(index)).unwrap();
        for pass in 1..=2 {
            let overwrite = |cell: u64, blob: String| {
                foreign.put(&synthetic_key(&cell), &blob, 2).unwrap();
            };
            overwrite(spaced, blob(spaced).replacen(',', ", ", 1));
            overwrite(moved, blob(100));
            overwrite(twin, blob(6));
            store.stats().unwrap();
            let before = ledger_len(&store);
            let (reports, stats, simulated) = synthetic_pass(&cells, 1, &store, 3, &synthetic_key);
            assert_eq!(reports, cold);
            assert_eq!((stats.hits, stats.misses), (5, 3));
            assert_eq!(simulated, [spaced, moved, twin]);
            let want: Vec<(LedgerEvent, String)> = cells
                .iter()
                .map(|i| (LedgerEvent::Hit, synthetic_key(i)))
                .chain([spaced, moved, twin].map(|i| (LedgerEvent::Put, synthetic_key(&i))))
                .collect();
            assert_eq!(ledger_from(&store, before), want);
            assert_eq!(store.blob_reads(), 2 * pass, "pass {pass}");
            assert_eq!(store.blob_checks(), 2 * pass, "pass {pass}");
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn keys_are_64_hex_and_distinct_per_cell() {
        let s = spec();
        let keys: Vec<String> = s
            .expand()
            .iter()
            .map(|c| sweep_cell_key(c, "cubic", &s, None))
            .collect();
        assert_eq!(keys.len(), 2);
        assert_ne!(keys[0], keys[1]);
        for k in &keys {
            assert_eq!(k.len(), 64);
            assert!(k.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn every_semantic_input_moves_the_key() {
        let s = spec();
        let cell = &s.expand()[0];
        let base = sweep_cell_key(cell, "cubic", &s, None);
        // Scheme.
        assert_ne!(sweep_cell_key(cell, "bbr", &s, None), base);
        // Global knobs.
        for mutate in [
            |s: &mut SweepSpec| s.duration_s += 1,
            |s: &mut SweepSpec| s.mss_bytes += 1,
            |s: &mut SweepSpec| s.agent_mi = !s.agent_mi,
        ] {
            let mut m = spec();
            mutate(&mut m);
            assert_ne!(sweep_cell_key(cell, "cubic", &m, None), base);
        }
        // Policy identity (including each field of it).
        let pol = PolicyIdentity {
            digest: "d".repeat(64),
            preference: "bal".to_string(),
            initial_rate_frac: 0.3,
        };
        let with_pol = sweep_cell_key(cell, "mocc", &s, Some(&pol));
        assert_ne!(with_pol, base);
        for mutate in [
            |p: &mut PolicyIdentity| p.digest = "e".repeat(64),
            |p: &mut PolicyIdentity| p.preference = "thr".to_string(),
            |p: &mut PolicyIdentity| p.initial_rate_frac = 0.5,
        ] {
            let mut p = pol.clone();
            mutate(&mut p);
            assert_ne!(sweep_cell_key(cell, "mocc", &s, Some(&p)), with_pol);
        }
        // And the derivation itself is stable (same inputs, same key).
        assert_eq!(sweep_cell_key(cell, "cubic", &s, None), base);
    }

    /// A replay cell's key must move when the trace file's *content*
    /// changes, even though the shape label (the path) is unchanged.
    #[test]
    fn replay_trace_digest_moves_the_key() {
        use crate::spec::{ReplayTrace, TraceShape};
        let s = spec();
        let mut cell = s.expand()[0].clone();
        let base = sweep_cell_key(&cell, "cubic", &s, None);
        let replay = |digest: &str| {
            TraceShape::Replay(ReplayTrace {
                path: "traces/x.json".to_string(),
                digest: digest.to_string(),
                samples: vec![(0.0, 5.0)],
            })
        };
        cell.shape = replay(&"a".repeat(64));
        let key_a = sweep_cell_key(&cell, "cubic", &s, None);
        assert_ne!(key_a, base);
        cell.shape = replay(&"b".repeat(64));
        assert_ne!(sweep_cell_key(&cell, "cubic", &s, None), key_a);
    }

    #[test]
    fn experiment_name_is_not_part_of_the_key() {
        // The key is derived from cells and knobs only — nothing in
        // the signature even accepts a name. This test documents the
        // decision: two experiments differing only in `name` share
        // every cached cell.
        let s = spec();
        let cell = &s.expand()[0];
        assert_eq!(
            sweep_cell_key(cell, "cubic", &s, None),
            sweep_cell_key(&s.expand()[0].clone(), "cubic", &s, None)
        );
    }
}
