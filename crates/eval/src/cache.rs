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
//! executor every run goes through, with the store as an optional
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
//! recomputed — a cache can cost time, never correctness.

use crate::competition::CompetitionCell;
use crate::report::CellReport;
use crate::runner::run_each;
use crate::spec::SweepCell;
use crate::{CompetitionSpec, SweepSpec};
use mocc_store::{sha256_hex, ResultStore};
use serde::json::ObjectWriter;
use serde::{Serialize, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Schema/version tag baked into every cache key. Bump it whenever the
/// report schema or any simulation semantics change: old blobs then
/// miss (and are eventually collected by `gc`) instead of being served
/// against a different codebase.
pub const CELL_SCHEMA: &str = "mocc-cell-v1";

/// Identity of the policy serving a cell's `mocc` flows — the part of
/// the cache key that changes when the model does.
#[derive(Debug, Clone, PartialEq)]
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
    /// Whether inference ran on the approximate fast-math kernel tier
    /// (`mocc_nn::simd`). Fast-tier reports are deterministic but not
    /// byte-identical to the scalar reference, so the tier is part of
    /// the key. Serialized *only when true*: scalar-tier documents are
    /// byte-identical to the pre-`fast_math` key schema, so every
    /// existing store keeps hitting.
    pub fast_math: bool,
}

impl Serialize for PolicyIdentity {
    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("digest".to_string(), self.digest.to_value());
        obj.insert("preference".to_string(), self.preference.to_value());
        obj.insert(
            "initial_rate_frac".to_string(),
            self.initial_rate_frac.to_value(),
        );
        if self.fast_math {
            obj.insert("fast_math".to_string(), self.fast_math.to_value());
        }
        Value::Obj(obj)
    }

    fn write_json(&self, out: &mut String) {
        let mut w = ObjectWriter::begin(out);
        w.field("digest", &self.digest);
        if self.fast_math {
            w.field("fast_math", &self.fast_math);
        }
        w.field("initial_rate_frac", &self.initial_rate_frac);
        w.field("preference", &self.preference);
        w.end();
    }
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

/// The cache context of an evaluator-level run
/// ([`crate::SweepRunner::run_cells`],
/// [`crate::SweepRunner::run_competition_cells`]).
#[derive(Debug, Clone, Copy)]
pub struct CellCache<'a> {
    /// Where hits are served from and fresh blobs are written to.
    pub store: &'a ResultStore,
    /// The caller's timestamp for the store's audit ledger (the
    /// library never reads a clock).
    pub ts: u64,
    /// Identity of the policy serving the cells' `mocc` flows; `None`
    /// for policy-free evaluators.
    pub policy: Option<&'a PolicyIdentity>,
}

/// Room for a typical request document (≈300 bytes), so writing one
/// does not grow its buffer step by step.
const DOC_CAPACITY: usize = 512;

/// The cache key of one classic sweep cell run under `scheme` (a
/// shared-grammar label) with `spec`'s global knobs: the SHA-256 of
/// its request document, a canonical-JSON object streamed in key
/// order.
pub fn sweep_cell_key(
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
    sha256_hex(doc.as_bytes())
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

/// The one cell executor: serves what it can from the store,
/// simulates the rest one cell per `eval` call through the sharded
/// executor, and writes the fresh blobs back. `cache` carries the
/// store, the caller's ledger timestamp, and one key per cell; without
/// it every cell is a miss and nothing is read or written, which is the
/// plain uncached run.
/// Store writes are best-effort: a full disk degrades the cache, never
/// the run. Returns reports in `cells` order plus the hit/miss counters.
pub(crate) fn cached_cell_reports<T: Sync + Clone>(
    cells: &[T],
    threads: usize,
    eval: &(dyn Fn(&[T]) -> Vec<CellReport> + Sync),
    cell_index: &dyn Fn(&T) -> u64,
    cache: Option<(&ResultStore, u64, &[String])>,
) -> (Vec<CellReport>, CacheStats) {
    if let Some((_, _, keys)) = cache {
        assert_eq!(cells.len(), keys.len(), "one key per cell");
    }
    let mut out: Vec<Option<CellReport>> = vec![None; cells.len()];
    let mut missing: Vec<usize> = Vec::new();
    match cache {
        None => missing.extend(0..cells.len()),
        Some((store, ts, keys)) => {
            let mut canonical = String::new();
            store.get_each(keys, ts, |i, blob| {
                let verified = blob.and_then(|blob| {
                    let report: CellReport = serde_json::from_str(blob).ok()?;
                    canonical.clear();
                    report.write_json(&mut canonical);
                    (canonical == blob && report.index == cell_index(&cells[i])).then_some(report)
                });
                match verified {
                    Some(report) => out[i] = Some(report),
                    None => missing.push(i),
                }
            });
        }
    }
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
        if let Some((store, ts, keys)) = cache {
            let blob = serde_json::to_string(&report).expect("report serializes");
            let _ = store.put(&keys[slot], &blob, ts);
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

    fn spec() -> SweepSpec {
        let mut s = SweepSpec::single_cell();
        s.bandwidth_mbps = vec![5.0, 10.0];
        s.duration_s = 5;
        s
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
            fast_math: false,
        };
        let with_pol = sweep_cell_key(cell, "mocc", &s, Some(&pol));
        assert_ne!(with_pol, base);
        for mutate in [
            |p: &mut PolicyIdentity| p.digest = "e".repeat(64),
            |p: &mut PolicyIdentity| p.preference = "thr".to_string(),
            |p: &mut PolicyIdentity| p.initial_rate_frac = 0.5,
            |p: &mut PolicyIdentity| p.fast_math = true,
        ] {
            let mut p = pol.clone();
            mutate(&mut p);
            assert_ne!(sweep_cell_key(cell, "mocc", &s, Some(&p)), with_pol);
        }
        // And the derivation itself is stable (same inputs, same key).
        assert_eq!(sweep_cell_key(cell, "cubic", &s, None), base);
    }

    /// The scalar tier serializes to the pre-`fast_math` key schema —
    /// the field appears in the request document only when true — so
    /// stores filled before the tier existed keep hitting.
    #[test]
    fn scalar_tier_keys_match_the_legacy_schema() {
        let mut pol = PolicyIdentity {
            digest: "d".repeat(64),
            preference: "bal".to_string(),
            initial_rate_frac: 0.3,
            fast_math: false,
        };
        let Value::Obj(scalar) = pol.to_value() else {
            panic!("policy identity serializes to an object");
        };
        assert!(
            !scalar.contains_key("fast_math"),
            "scalar tier must keep the legacy key document"
        );
        pol.fast_math = true;
        let Value::Obj(fast) = pol.to_value() else {
            panic!("policy identity serializes to an object");
        };
        assert_eq!(fast.get("fast_math"), Some(&Value::Bool(true)));
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
