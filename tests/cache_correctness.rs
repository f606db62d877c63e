//! Cache-correctness battery for the content-addressed result store
//! (`docs/CACHING.md`).
//!
//! Five contracts, each with its own section below:
//!
//! 1. **Key stability** — a cell's cache key is a pure function of
//!    the semantic inputs: invariant under spec-document field
//!    reordering, thread count, batch size, and the experiment name;
//!    moved by every semantic field (axes, seed, scheme, policy
//!    identity).
//! 2. **Byte identity** — a cached run reproduces the uncached report
//!    byte for byte, cold (all misses) and warm (all hits), for
//!    randomized sweep and competition specs with and without a
//!    policy section.
//! 3. **Corruption recovery** — bit flips, truncations, deleted
//!    blobs, and half-written ledger lines degrade to recomputation,
//!    never to wrong bytes; `verify` reports each kind of damage.
//! 4. **Concurrency** — racing runners sharing one store produce the
//!    same bytes as a cold solo run and leave a clean ledger.
//! 5. **Pinned store bytes** — the ledger, the objects and the
//!    reports of one cold and one warm pass hash to fixed literals.
//! 6. **`stats` over a moving ledger** — a long-lived handle that reads
//!    only what was appended reports what a scan from scratch reports,
//!    whoever appended, compacted, cut or tore the ledger meanwhile.

use mocc::core::{agent_from_policy, policy_digest, run_experiment, run_experiment_cached};
use mocc::eval::{
    competition_cell_key, sweep_cell_key, sweep_cell_request, CompetitionSpec, ContenderMix,
    ExperimentSpec, FlowLoad, MoccPrefSpec, PolicyIdentity, PolicySpec, SchemeSpec, SweepRunner,
    SweepSpec, TraceShape, Workload,
};
use mocc::store::{sha256_hex, LedgerEvent, LedgerScan, ResultStore, StoreStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::path::{Path, PathBuf};

/// A fresh store under a unique temp directory (removed by
/// `drop_store`; a leaked directory on panic is harmless).
fn temp_store(name: &str) -> (PathBuf, ResultStore) {
    let dir = std::env::temp_dir().join(format!("mocc-cachetest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("open store");
    (dir, store)
}

fn drop_store(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Deterministically generates a small randomized experiment — sweep
/// or competition, baseline or policy-driven — cheap enough to
/// simulate several times per proptest case.
fn small_experiment(seed: u64) -> ExperimentSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let with_policy = rng.gen_bool(0.5);
    let baselines = ["cubic", "bbr", "vegas", "copa"];
    let moccs = ["mocc", "mocc:thr", "mocc:lat", "mocc:bal"];
    let pick = |rng: &mut StdRng| {
        if with_policy && rng.gen_bool(0.5) {
            moccs[rng.gen_range(0..moccs.len())].to_string()
        } else {
            baselines[rng.gen_range(0..baselines.len())].to_string()
        }
    };
    let matrix = SweepSpec {
        bandwidth_mbps: vec![rng.gen_range(2.0f64..20.0), rng.gen_range(2.0f64..20.0)],
        owd_ms: vec![rng.gen_range(5u64..60)],
        queue_pkts: vec![rng.gen_range(20usize..400)],
        loss: vec![0.0],
        shapes: vec![TraceShape::Constant],
        loads: vec![FlowLoad::Steady(rng.gen_range(1usize..3))],
        duration_s: rng.gen_range(2u64..5),
        mss_bytes: 1500,
        seed: rng.gen(),
        agent_mi: rng.gen_bool(0.5),
    };
    let mut exp = if rng.gen_bool(0.6) {
        let scheme = SchemeSpec::parse(&pick(&mut rng)).expect("generator labels parse");
        ExperimentSpec::from_sweep("cache-prop", scheme, &matrix)
    } else {
        let comp = CompetitionSpec {
            mixes: vec![ContenderMix::Duel(vec![pick(&mut rng), pick(&mut rng)])],
            bandwidth_mbps: vec![matrix.bandwidth_mbps[0]],
            owd_ms: matrix.owd_ms.clone(),
            queue_pkts: matrix.queue_pkts.clone(),
            duration_s: matrix.duration_s,
            mss_bytes: 1500,
            seed: matrix.seed,
            agent_mi: matrix.agent_mi,
            tcp_baseline: "cubic".to_string(),
            fair_jain: 0.8,
            fair_sustain_s: 2,
        };
        ExperimentSpec::from_competition("cache-prop-competition", &comp)
    };
    if with_policy {
        exp.policy = Some(PolicySpec {
            path: None,
            seed: rng.gen_range(1u64..100),
            config: "fast".to_string(),
            preference: MoccPrefSpec::Balanced,
            initial_rate_frac: 0.3,
            batch: rng.gen_range(1usize..8),
            fast_math: false,
        });
    }
    exp
}

/// The policy identity the cached experiment path derives — rebuilt
/// here from public pieces so key computations can run without a
/// store.
fn identity(exp: &ExperimentSpec) -> Option<PolicyIdentity> {
    if !exp.needs_policy() {
        return None;
    }
    let policy = exp.policy.as_ref().expect("validated spec has a policy");
    let agent = agent_from_policy(policy).expect("policy materializes");
    Some(PolicyIdentity {
        digest: policy_digest(&agent),
        preference: policy.preference.label(),
        initial_rate_frac: policy.initial_rate_frac,
    })
}

/// Every cell's cache key, in cell order.
fn cell_keys(exp: &ExperimentSpec) -> Vec<String> {
    let id = identity(exp);
    match &exp.workload {
        Workload::Sweep(w) => {
            let spec = exp.to_sweep_spec().expect("sweep workload");
            spec.expand()
                .iter()
                .map(|c| sweep_cell_key(c, w.scheme.label(), &spec, id.as_ref()))
                .collect()
        }
        Workload::Competition(_) => {
            let spec = exp.to_competition_spec().expect("competition workload");
            spec.expand()
                .iter()
                .map(|c| competition_cell_key(c, &spec, id.as_ref()))
                .collect()
        }
    }
}

/// Re-emits a JSON value with every object's keys in **reverse**
/// order — the canonical writer sorts them — to prove document field
/// order is immaterial to parsing and to cache keys.
fn to_json_reversed(v: &Value) -> String {
    match v {
        Value::Obj(map) => {
            let fields: Vec<String> = map
                .iter()
                .rev()
                .map(|(k, val)| {
                    let key = serde_json::to_string(&Value::Str(k.clone())).expect("key encodes");
                    format!("{key}:{}", to_json_reversed(val))
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        Value::Arr(items) => {
            let items: Vec<String> = items.iter().map(to_json_reversed).collect();
            format!("[{}]", items.join(","))
        }
        other => serde_json::to_string(other).expect("scalar encodes"),
    }
}

// ---- 1. key stability -------------------------------------------------

/// Reordering every object's fields in the spec document changes
/// nothing: the reparsed experiment produces identical cache keys.
#[test]
fn keys_are_invariant_under_spec_field_reordering() {
    for seed in 0..16u64 {
        let exp = small_experiment(seed);
        let canonical = exp.to_canonical_json();
        let value: Value = serde_json::from_str(&canonical).expect("canonical parses");
        let reversed = to_json_reversed(&value);
        assert_ne!(canonical, reversed, "seed {seed}: reversal is a no-op");
        let reparsed = ExperimentSpec::from_json(&reversed).expect("reversed doc parses");
        assert_eq!(
            cell_keys(&exp),
            cell_keys(&reparsed),
            "seed {seed}: field order moved a cache key"
        );
    }
}

/// The documented exclusions really are excluded: the experiment name
/// and the policy batch size (like the thread count, which is not a
/// key input at all) leave every key untouched. Byte-identity across
/// threads and batches is what makes this safe — see
/// `cached_report_is_byte_identical_cold_and_warm` and the golden
/// suite's thread/batch gates.
#[test]
fn name_threads_and_batch_never_move_a_key() {
    let mut exp = small_experiment(3);
    exp.policy = Some(PolicySpec {
        path: None,
        seed: 11,
        config: "fast".to_string(),
        preference: MoccPrefSpec::Balanced,
        initial_rate_frac: 0.3,
        batch: 4,
        fast_math: false,
    });
    let before = cell_keys(&exp);
    exp.name = "a-completely-different-name".to_string();
    exp.policy.as_mut().expect("policy set").batch = 64;
    assert_eq!(
        before,
        cell_keys(&exp),
        "renaming the experiment or changing the batch size moved a key"
    );
}

/// Every semantic input moves every key: scenario axes, the derived
/// seed, and each component of the policy identity (model digest via
/// the policy seed, default preference, initial rate).
#[test]
fn semantic_mutations_move_every_key() {
    let base = SweepSpec {
        bandwidth_mbps: vec![8.0],
        owd_ms: vec![20],
        queue_pkts: vec![100],
        loss: vec![0.0],
        shapes: vec![TraceShape::Constant],
        loads: vec![FlowLoad::Steady(1)],
        duration_s: 3,
        mss_bytes: 1500,
        seed: 7,
        agent_mi: true,
    };
    let policy = PolicySpec {
        path: None,
        seed: 11,
        config: "fast".to_string(),
        preference: MoccPrefSpec::Balanced,
        initial_rate_frac: 0.3,
        batch: 4,
        fast_math: false,
    };
    let exp_with = |matrix: &SweepSpec, scheme: &str, policy: Option<PolicySpec>| {
        let mut exp = ExperimentSpec::from_sweep(
            "mutation",
            SchemeSpec::parse(scheme).expect("scheme parses"),
            matrix,
        );
        exp.policy = policy;
        exp
    };
    let reference = cell_keys(&exp_with(&base, "mocc", Some(policy.clone())));
    let mutations: Vec<(&str, ExperimentSpec)> = vec![
        ("duration_s", {
            let mut m = base.clone();
            m.duration_s += 1;
            exp_with(&m, "mocc", Some(policy.clone()))
        }),
        ("seed", {
            let mut m = base.clone();
            m.seed += 1;
            exp_with(&m, "mocc", Some(policy.clone()))
        }),
        ("mss_bytes", {
            let mut m = base.clone();
            m.mss_bytes = 1400;
            exp_with(&m, "mocc", Some(policy.clone()))
        }),
        ("agent_mi", {
            let mut m = base.clone();
            m.agent_mi = false;
            exp_with(&m, "mocc", Some(policy.clone()))
        }),
        ("scheme", exp_with(&base, "mocc:thr", Some(policy.clone()))),
        ("policy seed (digest)", {
            let mut p = policy.clone();
            p.seed = 12;
            exp_with(&base, "mocc", Some(p))
        }),
        ("policy preference", {
            let mut p = policy.clone();
            p.preference = MoccPrefSpec::Throughput;
            exp_with(&base, "mocc", Some(p))
        }),
        ("policy initial_rate_frac", {
            let mut p = policy.clone();
            p.initial_rate_frac = 0.5;
            exp_with(&base, "mocc", Some(p))
        }),
    ];
    assert_eq!(
        reference,
        cell_keys(&exp_with(&base, "mocc", Some(policy))),
        "identical inputs must rehash identically"
    );
    for (what, mutated) in &mutations {
        let keys = cell_keys(mutated);
        for (i, (a, b)) in reference.iter().zip(&keys).enumerate() {
            assert_ne!(a, b, "mutating {what} left cell {i}'s key unchanged");
        }
    }
}

/// Literal keys of the three shipped specs, pinned so a refactor that
/// shifts every key (and so orphans every existing store) fails here
/// even though each cold/warm test stays self-consistent. `(spec,
/// cells, first key, sha256 of the newline-joined keys)`; the values
/// were computed before the run paths were collapsed into one.
#[test]
fn shipped_spec_keys_match_the_pinned_literals() {
    let pinned = [
        (
            "examples/specs/sweep_cubic.json",
            16,
            "bdd21b145b79f8e9472d797cdebcc06188f34977192e510e00b299787f581a97",
            "4d8721b8f2f4c1e5cf83e99ecdc6b1afeb0a6347d745459dcbcfccdbcfd1cdae",
        ),
        (
            "examples/specs/sweep_replay.json",
            8,
            "3c4b4d3ff167a4810c5ba660cf356d512f777a2371ea1b5232e7a0f103483edd",
            "64e5e99a9f49fffd522ef7f4581bf56595a3567b1ba3f5b8e99e3880b0e9b7e2",
        ),
        (
            "examples/specs/competition_mocc.json",
            2,
            "9342089e99e67782526313ab90eb2d20cee11d4160a8f4e8298c93d5ac56fa58",
            "3f5ab9a38e5fb4046e6555d62d01b4c90dbfb210f389592421bd5e64fc93bdd4",
        ),
    ];
    for (path, cells, first, digest) in pinned {
        let exp = ExperimentSpec::load(Path::new(path)).expect("shipped spec loads");
        let keys = cell_keys(&exp);
        assert_eq!(keys.len(), cells, "{path}: cell count");
        assert_eq!(keys[0], first, "{path}: first cell key moved");
        assert_eq!(
            sha256_hex(keys.join("\n").as_bytes()),
            digest,
            "{path}: some cell key moved"
        );
    }
}

/// A store filled under `mocc-cell-v1` keys — the schema of the
/// simulator whose on/off flows sent runt packets — serves nothing to a
/// `mocc-cell-v2` run: every cell misses, the report equals a cold
/// run's, `verify` stays clean, and `gc` of what the v2 run did not
/// touch collects exactly the v1 objects. The v1 keys are the v2
/// request documents with the old tag, and they equal the literals the
/// previous release pinned for this spec.
#[test]
fn a_v1_store_serves_no_hits_to_a_v2_run() {
    let exp = ExperimentSpec::load(Path::new("examples/specs/sweep_cubic.json")).expect("loads");
    let Workload::Sweep(w) = &exp.workload else {
        panic!("sweep_cubic is a sweep");
    };
    let spec = exp.to_sweep_spec().expect("sweep workload");
    let runner = SweepRunner::with_threads(2);
    let cold = run_experiment(&runner, &exp).expect("spec runs");
    let v1_keys: Vec<String> = spec
        .expand()
        .iter()
        .map(|cell| {
            let request = sweep_cell_request(cell, w.scheme.label(), &spec, None);
            let v1 = request.replace("\"schema\":\"mocc-cell-v2\"", "\"schema\":\"mocc-cell-v1\"");
            assert_ne!(v1, request, "the request names its schema");
            sha256_hex(v1.as_bytes())
        })
        .collect();
    assert_eq!(
        v1_keys[0],
        "249dedc117590b7a29ceb14eca48d1787aa86e79b4a50a2bfb406ea03fb64ad9"
    );
    assert_eq!(
        sha256_hex(v1_keys.join("\n").as_bytes()),
        "b1874adca23914b5c8cb240a39bca947be0b6f73ee19f604994f9d25f35a4635"
    );
    let (dir, store) = temp_store("v1-schema");
    for (key, cell) in v1_keys.iter().zip(&cold.cells) {
        store
            .put(key, &serde_json::to_string(cell).expect("serializes"), 1)
            .expect("v1 blob stored");
    }
    let (report, stats) = run_experiment_cached(&runner, &exp, &store, 2).expect("v2 run");
    assert_eq!((stats.hits, stats.misses), (0, 16));
    assert_eq!(report.to_canonical_json(), cold.to_canonical_json());
    let verify = store.verify().expect("verify runs");
    assert!(verify.is_clean(), "{:?}", verify.issues);
    let gc = store.gc(Some(2)).expect("gc runs");
    assert_eq!((gc.kept, gc.removed_objects), (16, 16));
    let (_, stats) = run_experiment_cached(&runner, &exp, &store, 3).expect("warm v2 run");
    assert!(stats.all_hits(), "{stats:?}");
    drop_store(&dir);
}

// ---- 2. byte identity (and 4. concurrency) ----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For randomized specs: a cold cached run is all-miss and
    /// byte-identical to the plain runner; a warm run over a different
    /// thread count is all-hit and still byte-identical.
    #[test]
    fn cached_report_is_byte_identical_cold_and_warm(seed in 0u64..1024) {
        let exp = small_experiment(seed);
        let uncached = run_experiment(&SweepRunner::with_threads(2), &exp)
            .expect("generated spec runs");
        let (dir, store) = temp_store(&format!("prop-{seed}"));
        let (cold, s1) = run_experiment_cached(&SweepRunner::with_threads(1), &exp, &store, 1)
            .expect("cold cached run");
        prop_assert_eq!(s1.hits, 0);
        prop_assert_eq!(s1.misses as usize, exp.cell_count());
        prop_assert_eq!(cold.to_canonical_json(), uncached.to_canonical_json());
        let (warm, s2) = run_experiment_cached(&SweepRunner::with_threads(3), &exp, &store, 2)
            .expect("warm cached run");
        prop_assert!(s2.all_hits(), "warm run missed: {s2:?}");
        prop_assert_eq!(warm.to_canonical_json(), uncached.to_canonical_json());
        drop_store(&dir);
    }
}

/// Two runners racing on the same spec through one shared store
/// produce reports byte-identical to a solo uncached run, and the
/// ledger comes out whole: every line parses, no truncated tail,
/// `verify` is clean.
#[test]
fn racing_runners_share_a_store_without_corruption() {
    let exp = small_experiment(5);
    let reference = run_experiment(&SweepRunner::with_threads(1), &exp)
        .expect("spec runs")
        .to_canonical_json();
    let (dir, store) = temp_store("race");
    let reports: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let exp = &exp;
                let store = &store;
                scope.spawn(move || {
                    let (report, _) =
                        run_experiment_cached(&SweepRunner::with_threads(2), exp, store, i)
                            .expect("racing cached run");
                    report.to_canonical_json()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(report, &reference, "racer {i} diverged from the solo run");
    }
    let ledger = std::fs::read_to_string(dir.join("ledger.jsonl")).expect("ledger exists");
    let scan = LedgerScan::parse(&ledger);
    assert!(
        scan.bad_lines.is_empty(),
        "garbled lines: {:?}",
        scan.bad_lines
    );
    assert!(!scan.truncated_tail, "ledger ends mid-line");
    let verify = store.verify().expect("verify runs");
    assert!(
        verify.is_clean(),
        "store issues after race: {:?}",
        verify.issues
    );
    drop_store(&dir);
}

// ---- 3. corruption and crash recovery ---------------------------------

/// Paths of every object blob in the store, sorted for determinism.
fn object_paths(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for shard in std::fs::read_dir(dir.join("objects")).expect("objects dir") {
        let shard = shard.expect("shard entry").path();
        for obj in std::fs::read_dir(&shard).expect("shard dir") {
            out.push(obj.expect("object entry").path());
        }
    }
    out.sort();
    out
}

/// Bit flips, truncation, and deletion of stored blobs each (a) show
/// up in `verify` and (b) degrade the next cached run to a recompute
/// that reproduces the reference bytes exactly — after which the
/// store is whole again.
#[test]
fn corrupted_objects_degrade_to_recompute_not_wrong_bytes() {
    let exp = small_experiment(1);
    let (dir, store) = temp_store("corrupt");
    let (cold, _) =
        run_experiment_cached(&SweepRunner::with_threads(1), &exp, &store, 1).expect("cold run");
    let reference = cold.to_canonical_json();
    let objects = object_paths(&dir);
    assert_eq!(objects.len(), exp.cell_count(), "one blob per cell");

    type Corruption = (&'static str, Box<dyn Fn(&Path)>);
    let corruptions: Vec<Corruption> = vec![
        (
            "bit flip",
            Box::new(|p: &Path| {
                let mut bytes = std::fs::read(p).expect("read blob");
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x40;
                std::fs::write(p, bytes).expect("write corrupted blob");
            }),
        ),
        (
            "truncation",
            Box::new(|p: &Path| {
                let bytes = std::fs::read(p).expect("read blob");
                std::fs::write(p, &bytes[..bytes.len() / 2]).expect("truncate blob");
            }),
        ),
        (
            "deletion",
            Box::new(|p: &Path| {
                std::fs::remove_file(p).expect("delete blob");
            }),
        ),
    ];
    for (round, (what, corrupt)) in corruptions.iter().enumerate() {
        corrupt(&objects[round % objects.len()]);
        let verify = store.verify().expect("verify runs");
        assert!(!verify.is_clean(), "{what} went undetected by verify");
        let (recovered, stats) = run_experiment_cached(
            &SweepRunner::with_threads(2),
            &exp,
            &store,
            10 + round as u64,
        )
        .expect("recovery run");
        assert!(stats.misses >= 1, "{what}: damaged cell served as a hit");
        assert_eq!(
            recovered.to_canonical_json(),
            reference,
            "{what}: recovery produced different bytes"
        );
        let verify = store.verify().expect("verify runs");
        assert!(
            verify.is_clean(),
            "{what}: recompute did not heal the store: {:?}",
            verify.issues
        );
    }
    drop_store(&dir);
}

/// A 3 GiB object file — sparse, at a live key's object path — is
/// never read: a warm run misses that one cell at once, recomputes it
/// to the reference bytes and writes it back. `verify` names the file
/// before, and the store is whole after.
#[test]
fn a_huge_object_file_is_a_miss_not_a_gigabyte_read() {
    let exp = small_experiment(2);
    let (dir, store) = temp_store("huge");
    let runner = SweepRunner::with_threads(1);
    let (cold, _) = run_experiment_cached(&runner, &exp, &store, 1).expect("cold run");
    let huge = &object_paths(&dir)[0];
    std::fs::File::options()
        .write(true)
        .open(huge)
        .and_then(|file| file.set_len(3 << 30))
        .expect("sparse object");
    let issues = store.verify().expect("verify runs").issues;
    assert_eq!(issues.len(), 1, "{issues:?}");
    assert!(
        issues[0].ends_with(": 3221225472 bytes, over the 1048576-byte cap"),
        "{issues:?}"
    );
    let reads = store.blob_reads();
    let (warm, stats) = run_experiment_cached(&runner, &exp, &store, 2).expect("warm run");
    assert_eq!((stats.hits, stats.misses), (exp.cell_count() as u64 - 1, 1));
    assert_eq!(store.blob_reads() - reads, exp.cell_count() as u64);
    assert_eq!(warm.to_canonical_json(), cold.to_canonical_json());
    assert!(std::fs::metadata(huge).expect("rewritten").len() < 4096);
    assert!(store.verify().expect("verify runs").is_clean());
    drop_store(&dir);
}

/// A crash mid-append leaves a half-written last ledger line; reopen
/// truncates it away, the surviving index still serves every blob,
/// and the warm report is unchanged. A garbled interior line (torn
/// overwrite) is skipped and surfaced, never fatal.
#[test]
fn half_written_and_garbled_ledger_lines_are_survivable() {
    use std::io::Write;
    let exp = small_experiment(2);
    let (dir, store) = temp_store("crashed-ledger");
    let (cold, _) =
        run_experiment_cached(&SweepRunner::with_threads(1), &exp, &store, 1).expect("cold run");
    drop(store);
    let ledger_path = dir.join("ledger.jsonl");
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&ledger_path)
            .expect("open ledger");
        f.write_all(b"{\"key\":\"deadbeef\",\"event\":\"pu")
            .expect("tear the tail");
    }
    let reopened = ResultStore::open(&dir).expect("reopen after crash");
    assert!(reopened.repaired_tail(), "torn tail not repaired");
    let (warm, stats) = run_experiment_cached(&SweepRunner::with_threads(2), &exp, &reopened, 2)
        .expect("warm run after repair");
    assert!(stats.all_hits(), "repair lost committed cells: {stats:?}");
    assert_eq!(warm.to_canonical_json(), cold.to_canonical_json());
    drop(reopened);
    // Garble an interior line in place (same length, so later offsets
    // are untouched — a torn in-place overwrite).
    let text = std::fs::read_to_string(&ledger_path).expect("read ledger");
    let first_line_len = text.find('\n').expect("ledger has lines");
    let garbled = format!("{}{}", "#".repeat(first_line_len), &text[first_line_len..]);
    std::fs::write(&ledger_path, garbled).expect("garble line");
    let reopened = ResultStore::open(&dir).expect("reopen with garbled line");
    let stats = reopened.stats().expect("stats");
    assert!(stats.bad_ledger_lines >= 1, "garbled line not surfaced");
    let (warm, cache) = run_experiment_cached(&SweepRunner::with_threads(1), &exp, &reopened, 3)
        .expect("run with garbled ledger");
    // The garbled line may have been that cell's only put record; all
    // other cells must still hit, and bytes never change.
    assert!(
        cache.misses <= 1,
        "one garbled line lost {} cells",
        cache.misses
    );
    assert_eq!(warm.to_canonical_json(), cold.to_canonical_json());
    drop_store(&dir);
}

// ---- 5. pinned store bytes ----------------------------------------------

/// The store's on-disk bytes, pinned: a replay sweep and a
/// competition (the `mix` column) run cold then warm against one
/// fresh store with a constant `ts`. The ledger's line order — every
/// lookup line of a run in cell order, then its `put` lines in slot
/// order — the object bytes, and both reports are fixed points a
/// codec or store change must reproduce with these literals.
#[test]
fn store_bytes_match_the_pinned_digests() {
    const TS: u64 = 7;
    let sweep = ExperimentSpec::from_json(
        r#"{"agent_mi":true,"bandwidth_mbps":[6.0,12.0],"duration_s":3,"kind":"sweep",
            "loads":["steady:1"],"loss":[0.0,0.01],"mss_bytes":1500,"name":"pinned-sweep",
            "owd_ms":[20],"policy":null,"queue_pkts":[100],"scheme":"cubic","seed":42,
            "shapes":["replay:examples/traces/lte_drive.json"]}"#,
    )
    .expect("sweep spec parses");
    let competition = ExperimentSpec::from_json(
        r#"{"agent_mi":true,"bandwidth_mbps":[8.0],"duration_s":4,"fair_jain":0.75,
            "fair_sustain_s":2,"kind":"competition","mixes":["duel:cubic+bbr","duel:vegas+cubic"],
            "mss_bytes":1500,"name":"pinned-competition","owd_ms":[20],"policy":null,
            "queue_pkts":[120],"seed":42,"tcp_baseline":"cubic"}"#,
    )
    .expect("competition spec parses");
    let (dir, store) = temp_store("pinned-bytes");
    let runner = SweepRunner::with_threads(2);
    let ledger = || sha256_hex(&std::fs::read(dir.join("ledger.jsonl")).expect("ledger exists"));
    let pass = |warm: bool| -> Vec<String> {
        [&sweep, &competition]
            .iter()
            .map(|exp| {
                let (report, stats) =
                    run_experiment_cached(&runner, exp, &store, TS).expect("pinned spec runs");
                assert_eq!(stats.all_hits(), warm, "{}: {stats:?}", exp.name);
                assert_eq!(stats.hits == 0, !warm, "{}: {stats:?}", exp.name);
                report.to_canonical_json()
            })
            .collect()
    };
    let cold = pass(false);
    let ledger_after_fill = ledger();
    let warm = pass(true);
    assert_eq!(warm, cold, "warm reports differ from cold");
    // `object_paths` sorts by path, which is key order (the shard is
    // the key's own prefix).
    let objects: Vec<u8> = object_paths(&dir)
        .iter()
        .flat_map(|p| std::fs::read(p).expect("object reads"))
        .collect();
    let pinned = [
        (
            "ledger after the fill pass",
            ledger_after_fill,
            "918694c48eca0333fe0e06bad63acdc529370f145956c46f5e3a9840115d7ac5",
        ),
        (
            "ledger after the hit pass",
            ledger(),
            "ae780b7fcf246411df0703d6068f164b312578101b349ff41104633743d462cd",
        ),
        (
            "objects in key order",
            sha256_hex(&objects),
            "3066ddc8aaec24ae6d8e5933db4b68f6f6cddc58a8c1cb7470d6898b621fb6fd",
        ),
        (
            "sweep report",
            sha256_hex(cold[0].as_bytes()),
            "7ecaa3b158dffbd7ed7b9ee95f930f03ae9a2b9ba1c92bbd7dbb67417e0ae2ca",
        ),
        (
            "competition report",
            sha256_hex(cold[1].as_bytes()),
            "23176bad572508d3f92fb84a01395aba5b20c0a79643d1f502ee9fdc83878f95",
        ),
    ];
    for (what, got, pinned) in pinned {
        assert_eq!(got, pinned, "{what} moved");
    }
    assert!(
        cold[1].contains("\"mix\":\"duel:cubic+bbr\""),
        "{}",
        cold[1]
    );
    assert!(store.verify().expect("verify runs").is_clean());
    drop_store(&dir);
}

/// A cubic sweep large enough that a four-thread warm run splits its
/// lookups over four workers (2 048 cells, four times the
/// per-worker floor in `mocc_eval::cache`), and cheap enough — a 1 s
/// horizon, one steady flow, a constant link — to fill in seconds in a
/// debug build.
fn large_sweep() -> ExperimentSpec {
    let matrix = SweepSpec {
        bandwidth_mbps: (1..=8).map(|i| 3.0 * i as f64).collect(),
        owd_ms: (1..=8).map(|i| 5 * i).collect(),
        queue_pkts: (1..=8).map(|i| 50 * i).collect(),
        loss: vec![0.0, 0.001, 0.01, 0.02],
        shapes: vec![TraceShape::Constant],
        loads: vec![FlowLoad::Steady(1)],
        duration_s: 1,
        mss_bytes: 1500,
        seed: 42,
        agent_mi: true,
    };
    let exp = ExperimentSpec::from_sweep(
        "pinned-large",
        SchemeSpec::parse("cubic").expect("scheme parses"),
        &matrix,
    );
    assert_eq!(exp.cell_count(), 2048);
    exp
}

/// The pinned bytes of a run whose lookups are shared between workers:
/// [`large_sweep`] cold into a fresh store with a constant `ts`, then
/// warm from that filled store at 1, 2 and 4 threads. The literals
/// were taken at one thread, before lookups ran anywhere but on the
/// caller: the warm ledger must read every lookup line in cell order
/// whatever the worker count — equal bytes, not equal counts.
#[test]
fn large_run_store_bytes_match_the_pinned_digests_at_any_thread_count() {
    const TS: u64 = 7;
    let exp = large_sweep();
    let (dir, store) = temp_store("pinned-large");
    let ledger_path = dir.join("ledger.jsonl");
    let (cold, stats) = run_experiment_cached(&SweepRunner::with_threads(1), &exp, &store, TS)
        .expect("large sweep fills");
    assert_eq!((stats.hits, stats.misses), (0, 2048));
    drop(store);
    let cold = cold.to_canonical_json();
    let filled = std::fs::read(&ledger_path).expect("ledger exists");
    let objects: Vec<u8> = object_paths(&dir)
        .iter()
        .flat_map(|p| std::fs::read(p).expect("object reads"))
        .collect();
    for (what, got, pinned) in [
        (
            "ledger after the fill pass",
            sha256_hex(&filled),
            "38b30aa045394561a72a0a3c894b3a7c0d6fbfa9c7e45af413241d80bc2ba0ae",
        ),
        (
            "objects in key order",
            sha256_hex(&objects),
            "917155bd24a02b162121a2149a83af215f9a60ed41bf586fc7a22179508b4286",
        ),
        (
            "report",
            sha256_hex(cold.as_bytes()),
            "fafa92e012bf82db9618002d196a27771829d2c9a24f15d38aa1ac1138c420c1",
        ),
    ] {
        assert_eq!(got, pinned, "{what} moved");
    }
    for threads in [1, 2, 4] {
        // Every warm pass starts from the store the fill left.
        std::fs::write(&ledger_path, &filled).expect("ledger resets");
        let store = ResultStore::open(&dir).expect("filled store opens");
        let (warm, stats) =
            run_experiment_cached(&SweepRunner::with_threads(threads), &exp, &store, TS)
                .expect("large sweep is served");
        assert_eq!((stats.hits, stats.misses), (2048, 0), "{threads} threads");
        assert_eq!(warm.to_canonical_json(), cold, "{threads} threads");
        assert_eq!(
            sha256_hex(&std::fs::read(&ledger_path).expect("ledger exists")),
            "cd23c604ed038f6797f9085d13e41766b41cb9df78976a6af75b37bf7eafb635",
            "ledger after the hit pass at {threads} threads moved"
        );
        assert!(store.verify().expect("verify runs").is_clean());
    }
    drop_store(&dir);
}

// ---- 6. stats over a moving ledger --------------------------------------

/// What `stats` must report: the whole ledger and the objects
/// directory read from scratch, nothing remembered between calls.
fn stats_from_scratch(dir: &Path) -> StoreStats {
    let ledger = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap_or_default();
    let scan = LedgerScan::parse(&ledger);
    let count = |event| scan.entries.iter().filter(|e| e.event == event).count() as u64;
    let objects = object_paths(dir);
    StoreStats {
        objects: objects.len() as u64,
        object_bytes: objects
            .iter()
            .map(|p| std::fs::metadata(p).expect("object metadata").len())
            .sum(),
        keys: scan.latest_puts().len() as u64,
        puts: count(LedgerEvent::Put),
        hits: count(LedgerEvent::Hit),
        misses: count(LedgerEvent::Miss),
        bad_ledger_lines: scan.bad_lines.len() as u64,
        truncated_ledger_tail: scan.truncated_tail,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One long-lived handle against every way a ledger moves: its own
    /// `put`s and lookups, another handle's (another process's), lines
    /// appended by hand (garbage, and a `put` naming a foreign path),
    /// `gc` through either handle, a cut at any byte, a half-written
    /// tail left for the next writer to append onto — which costs that
    /// writer no line of its own. After every step
    /// its `stats` — which read only what was appended — equal a scan
    /// from scratch, its index is no larger than the ledger's keys (no
    /// key is remembered anywhere else), and whenever another process
    /// opens the store (repairing a torn tail as it does) the two
    /// handles agree.
    #[test]
    fn stats_equal_a_scan_from_scratch_after_every_step(
        steps in proptest::collection::vec((0u8..8, 0usize..4096), 1..24),
    ) {
        use std::io::Write;
        let (dir, store) = temp_store("stats-steps");
        let ledger = dir.join("ledger.jsonl");
        let append = |bytes: &[u8]| {
            std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(&ledger)
                .and_then(|mut f| f.write_all(bytes))
                .expect("append to the ledger by hand");
        };
        let keys: Vec<String> = (0..5u8).map(|i| sha256_hex(&[i])).collect();
        for (n, &(op, arg)) in steps.iter().enumerate() {
            // Few timestamps and few keys: equal lines recur, so a
            // replaced ledger can resemble the one that was folded.
            let ts = (arg % 3) as u64;
            let key = &keys[arg % keys.len()];
            let before = std::fs::read_to_string(&ledger).unwrap_or_default();
            match op {
                0 => store.put(key, &format!("own blob {}", arg % 7), ts).expect("own put"),
                1 => {
                    let (mut bytes, mut lines) = (Vec::new(), String::new());
                    for k in &keys[..arg % (keys.len() + 1)] {
                        store.lookup(k, ts, &mut bytes, &mut lines, |blob| Some(blob.to_owned()));
                    }
                    store.append_lookups(&lines);
                }
                2 => {
                    let other = ResultStore::open(&dir).expect("second handle");
                    other.put(key, &format!("foreign blob {}", arg % 7), ts).expect("foreign put");
                    other.get(&keys[arg % 2], ts);
                }
                3 if arg % 2 == 0 => append(b"not a ledger line\n\n"),
                3 => append(
                    format!(
                        "{{\"content\":\"{}\",\"event\":\"put\",\"key\":\"{key}\",\"path\":\"../{key}\",\"ts\":{ts}}}\n",
                        sha256_hex(b"x")
                    )
                    .as_bytes(),
                ),
                4 => drop(store.gc((arg % 2 == 0).then_some(ts)).expect("own gc")),
                5 => {
                    let other = ResultStore::open(&dir).expect("second handle");
                    other.gc((arg % 2 == 0).then_some(ts)).expect("foreign gc");
                }
                6 => {
                    let len = std::fs::metadata(&ledger).map(|m| m.len()).unwrap_or(0);
                    if let Ok(file) = std::fs::OpenOptions::new().write(true).open(&ledger) {
                        file.set_len(arg as u64 % (len + 1)).expect("cut the ledger");
                    }
                }
                _ => append(b"{\"event\":\"hi"),
            }
            // What this handle wrote is in the ledger whatever it was
            // written onto: a tail someone tore is ended first, then
            // come this step's own lines, whole and in order.
            let own: Vec<(bool, &str)> = match op {
                0 => vec![(true, key.as_str())],
                1 => keys[..arg % (keys.len() + 1)].iter().map(|k| (false, k.as_str())).collect(),
                _ => Vec::new(),
            };
            if !own.is_empty() {
                let mut whole = before;
                if !whole.is_empty() && !whole.ends_with('\n') {
                    whole.push('\n');
                }
                let after = std::fs::read_to_string(&ledger).expect("ledger exists");
                prop_assert!(after.starts_with(&whole), "step {n}: earlier bytes moved");
                let scan = LedgerScan::parse(&after[whole.len()..]);
                let written: Vec<(bool, &str)> = scan
                    .entries
                    .iter()
                    .map(|e| (e.event == LedgerEvent::Put, e.key.as_str()))
                    .collect();
                prop_assert!(
                    written == own && scan.bad_lines.is_empty() && !scan.truncated_tail,
                    "step {n}: wrote {own:?}, the ledger gained {:?}", &after[whole.len()..]
                );
            }
            let got = store.stats().expect("stats");
            let want = stats_from_scratch(&dir);
            prop_assert!(got == want, "step {n}: {got:?}, from scratch {want:?}");
            prop_assert!(store.len() as u64 == got.keys, "step {n}: index of {}", store.len());
            if arg % 4 == 0 {
                let fresh = ResultStore::open(&dir).expect("fresh handle");
                let (fresh_stats, got) = (fresh.stats().expect("stats"), store.stats().expect("stats"));
                prop_assert!(got == fresh_stats, "step {n}: {got:?}, fresh open {fresh_stats:?}");
                for key in &keys {
                    prop_assert!(
                        store.get(key, ts) == fresh.get(key, ts),
                        "step {n}: the handles serve {key} differently"
                    );
                }
            }
        }
        drop_store(&dir);
    }
}
