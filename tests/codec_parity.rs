//! The streaming JSON codec against the tree it replaces, over the
//! workspace's real types and real files.
//!
//! `vendor/serde_json/tests/parity.rs` holds the std impls and the
//! derive, with each attribute it supports, to the `Value` tree on
//! generated data; this suite holds what the derive generates for the
//! shipped schemas — reports, `TrainSpec` and its tag and defaults,
//! `PolicySpec` inside every experiment spec, `Ppo` and
//! `GaussianPolicy` inside a checkpoint, the cache-key identity — and
//! the hand-written `LedgerEntry` to the same two rules:
//!
//! - **out**: `serde_json::to_string(x)` is the tree rendering of
//!   `x.to_value()`;
//! - **in**: `serde_json::from_str::<T>(s)` is
//!   `T::from_value(&from_str::<Value>(s)?)` — same value or both
//!   errors — on canonical text, reordered keys with whitespace,
//!   truncations and corrupted bytes.
//!
//! over every file in `tests/fixtures/`, every file in
//! `examples/specs/`, and a checkpoint written here.

// The assertions live with the shim's own parity suite.
#[path = "../vendor/serde_json/tests/support/mod.rs"]
mod support;

use mocc::core::{train_spec, TrainCheckpoint, TrainOptions, TrainSpec};
use mocc::eval::{CellReport, ExperimentSpec, PolicyIdentity, SweepReport};
use mocc::store::{LedgerEntry, LedgerEvent};
use serde::Value;
use serde_json::{from_str, to_string};
use std::path::{Path, PathBuf};
use support::{assert_document_parity, assert_reads_like_the_tree, assert_writes_like_the_tree};

fn json_files(dir: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{dir} holds no JSON files");
    files
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn golden_reports_stream_like_the_tree() {
    for path in json_files("tests/fixtures") {
        let text = read(&path);
        let what = path.display().to_string();
        assert_document_parity::<SweepReport>(&text, &what, 60);
        let report: SweepReport = from_str(&text).expect("golden parses");
        assert!(
            to_string(&report).expect("serializes") == text,
            "{what}: the golden is not the writer's fixed point"
        );
        for cell in &report.cells {
            assert_writes_like_the_tree(cell, &what);
        }
    }
}

#[test]
fn shipped_specs_stream_like_the_tree() {
    for path in json_files("examples/specs") {
        let text = read(&path);
        let what = path.display().to_string();
        let kind = match from_str::<Value>(&text).expect("shipped spec parses") {
            Value::Obj(doc) => doc.get("kind").cloned(),
            _ => None,
        };
        if kind == Some(Value::Str("train".into())) {
            assert_document_parity::<TrainSpec>(&text, &what, 60);
        } else {
            assert_document_parity::<ExperimentSpec>(&text, &what, 60);
        }
    }
}

/// A checkpoint is the deepest and largest document the workspace
/// writes: ~60 k `f32` weights and Adam moments, each widened to `f64`
/// on the way out.
#[test]
fn a_fresh_checkpoint_streams_like_the_tree() {
    let dir = std::env::temp_dir().join(format!("mocc-codec-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = TrainSpec {
        name: "codec-parity".to_string(),
        seed: 5,
        config: "fast".to_string(),
        omega_step: Some(4),
        boot_iters: Some(1),
        traverse_iters: Some(1),
        traverse_cycles: Some(1),
        rollout_steps: Some(30),
        episode_mis: Some(20),
        batch_envs: 2,
        checkpoint_every: 1,
        eval_episodes: 1,
        ..TrainSpec::default()
    };
    let options = TrainOptions {
        checkpoint_dir: Some(dir.clone()),
        max_iters: Some(2),
        ..TrainOptions::default()
    };
    train_spec(&spec, &options).expect("tiny spec trains");
    let text = read(&dir.join("checkpoint.json"));
    assert!(text.len() > 100_000, "checkpoint of {} bytes", text.len());
    assert_document_parity::<TrainCheckpoint>(&text, "checkpoint.json", 12);
    let checkpoint: TrainCheckpoint = from_str(&text).expect("checkpoint parses");
    assert!(
        to_string(&checkpoint).expect("serializes") == text,
        "the checkpoint is not the writer's fixed point"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cell_reports_and_ledger_lines_stream_like_the_tree() {
    let classic = CellReport {
        index: u64::MAX,
        seed: 13679457532755275413,
        bandwidth_mbps: 6.0,
        owd_ms: 10,
        queue_pkts: 200,
        loss_cfg: 0.001,
        shape: "replay:examples/traces/lte_drive.json".to_string(),
        load: "onoff:1".to_string(),
        mix: None,
        goodput_mbps: 5.964,
        mean_rtt_ms: 284.450342,
        p95_rtt_ms: 418.0,
        loss_rate: 0.0,
        utilization: -0.0,
        latency_ratio: 1e21,
        jain: 5e-324,
        utility: f64::NAN,
        friendliness: None,
        convergence_s: None,
    };
    let competition = CellReport {
        mix: Some("duel:mocc:thr+cubic \"quoted\\\" \u{e9}\n".to_string()),
        friendliness: Some(1.25),
        convergence_s: Some(f64::INFINITY),
        ..classic.clone()
    };
    for (what, report) in [
        ("classic cell", &classic),
        ("competition cell", &competition),
    ] {
        assert_writes_like_the_tree(report, what);
        let text = to_string(report).expect("serializes");
        assert_document_parity::<CellReport>(&text, what, usize::MAX);
    }
    // `mix` is omitted, never `null`, and reads back either way.
    assert!(!to_string(&classic).expect("serializes").contains("mix"));

    let key = "ab".repeat(32);
    let put = LedgerEntry {
        key: key.clone(),
        event: LedgerEvent::Put,
        content: Some("cd".repeat(32)),
        path: Some(format!("objects/ab/{key}.json")),
        ts: 1_700_000_000,
    };
    let hit = LedgerEntry {
        event: LedgerEvent::Hit,
        content: None,
        path: None,
        ts: u64::MAX,
        ..put.clone()
    };
    for (what, entry) in [("put line", &put), ("hit line", &hit)] {
        assert_writes_like_the_tree(entry, what);
        assert_eq!(to_string(entry).expect("serializes"), entry.to_line());
        assert_document_parity::<LedgerEntry>(&entry.to_line(), what, usize::MAX);
    }
    let hit_line = hit.to_line();
    for doc in [
        // Present-but-null and mistyped optional fields are bad lines.
        hit_line.replace("{", "{\"content\":null,"),
        hit_line.replace("{", "{\"path\":7,"),
        hit_line
            .replace("{", "{\"path\":7,")
            .replace('}', ",\"path\":\"p\"}"),
        hit_line.replace("\"hit\"", "\"miss\""),
        hit_line.replace("\"hit\"", "\"Hit\""),
        hit_line.replace("\"hit\"", "\"h\\u0069t\""),
        hit_line.replace("\"hit\"", "null"),
        hit_line
            .replace("\"hit\"", "\"nope\"")
            .replace('}', ",\"event\":\"put\"}"),
        hit_line.replace("18446744073709551615", "1.0"),
        hit_line.replace("18446744073709551615", "-1"),
        hit_line.replace("\"ts\"", "\"when\""),
        "[]".to_string(),
    ] {
        assert_reads_like_the_tree::<LedgerEntry>(&doc, "ledger line variant");
    }
}

#[test]
fn policy_identity_streams_like_the_tree() {
    let identity = PolicyIdentity {
        digest: "d".repeat(64),
        preference: "bal".to_string(),
        initial_rate_frac: 0.3,
    };
    assert_writes_like_the_tree(&identity, "policy identity");
}
