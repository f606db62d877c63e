//! Every file a document or the command line names — a spec, a replay
//! trace, a model at `policy.path`, a zoo model, a checkpoint, a
//! figure's cached model — is read by `mocc_store::read_capped`: one
//! open, one `fstat` of the handle, one read of the length it reports,
//! and nothing read at all past `MAX_FILE_BYTES`. A sparse 3 GiB file
//! is a typed error naming the file and the cap, an endless device
//! reads as the empty file it reports, and a FIFO reads as empty
//! without waiting for a writer. A store's ledger is read whole, so one that
//! is not a regular file is refused by name.
//!
//! The cases that would hang or read without end if they regressed run
//! in a child process with a deadline and a memory limit.

use mocc::core::{agent_from_policy, load_checkpoint, load_model, TrainSpec};
use mocc::eval::{ExperimentSpec, PolicySpec, SpecError};
use mocc::store::{read_capped, ResultStore, MAX_FILE_BYTES};
use mocc_bench::figures::load_or_train;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const CAP: &str = "3221225472 bytes, over the 67108864-byte cap";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mocc-bounded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A 3 GiB file that costs no disk.
fn sparse(path: &Path) -> String {
    std::fs::File::create(path)
        .and_then(|file| file.set_len(3 << 30))
        .expect("sparse file");
    path.to_str().expect("utf-8 temp path").to_string()
}

/// The error of a load that must fail.
fn refused<T>(result: Result<T, SpecError>) -> SpecError {
    match result {
        Ok(_) => panic!("a file over the cap was accepted"),
        Err(e) => e,
    }
}

/// Asserts `err` is the I/O error of the file at `path` being over the
/// cap.
fn assert_over_cap(err: &SpecError, path: &str) {
    match err {
        SpecError::Io { path: p, reason } => {
            assert_eq!(p, path);
            assert_eq!(reason, CAP);
        }
        other => panic!("expected an I/O error naming {path}, got {other}"),
    }
}

#[test]
fn a_huge_replay_trace_is_refused_by_its_length() {
    let dir = tmp_dir("trace");
    let trace = sparse(&dir.join("trace.json"));
    let exp = ExperimentSpec::from_json(&format!(
        "{{\"kind\":\"sweep\",\"name\":\"h\",\"scheme\":\"cubic\",\"bandwidth_mbps\":[10.0],\
         \"owd_ms\":[20],\"queue_pkts\":[100],\"duration_s\":2,\"seed\":1,\
         \"shapes\":[\"replay:{trace}\"]}}"
    ))
    .expect("spec parses");
    assert_over_cap(&exp.validate().unwrap_err(), &trace);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_huge_model_is_refused_by_its_length() {
    let dir = tmp_dir("model");
    let model = sparse(&dir.join("model.json"));
    let policy = PolicySpec {
        path: Some(model.clone()),
        ..PolicySpec::default()
    };
    assert_over_cap(&refused(agent_from_policy(&policy)), &model);
    // The zoo and the checkpoint reader take the same path.
    let zoo = dir.join("zoo");
    std::fs::create_dir_all(zoo.join("m")).expect("zoo entry");
    let zoo_model = sparse(&zoo.join("m/model.json"));
    assert_over_cap(&refused(load_model(&zoo, "m")), &zoo_model);
    sparse(&dir.join("checkpoint.json"));
    let err = refused(load_checkpoint(&dir)).to_string();
    assert!(err.contains(&format!("checkpoint.json: {CAP}")), "{err}");
    // A figure's cache treats it as damage: retrained and overwritten.
    let cached = dir.join("cached.json");
    sparse(&cached);
    let value = load_or_train(&cached, serde_json::from_str::<u32>, || Ok(7u32)).unwrap();
    assert_eq!(value, 7);
    assert_eq!(std::fs::read_to_string(&cached).unwrap(), "7");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_endless_spec_reads_as_empty() {
    let mut bytes = vec![1u8; 4];
    read_capped(Path::new("/dev/zero"), MAX_FILE_BYTES, &mut bytes).expect("device opens");
    assert!(bytes.is_empty());
    let zero = Path::new("/dev/zero");
    assert!(matches!(
        ExperimentSpec::load(zero),
        Err(SpecError::Json { .. })
    ));
    assert!(matches!(TrainSpec::load(zero), Err(SpecError::Json { .. })));
}

/// Set in the child process [`in_child`] starts.
const CHILD: &str = "MOCC_BOUNDED_READS_CHILD";

/// Runs the test named `test` again, alone, in a child process of this
/// test binary with [`CHILD`] set and its address space capped at
/// 1 GiB, and fails unless the child passes within 20 s: a read that
/// waits forever or without end fails the test instead of hanging the
/// suite or exhausting the machine.
fn in_child(test: &str) {
    let mut child = Command::new("sh")
        .args(["-c", "ulimit -v 1048576 && exec \"$0\" \"$@\""])
        .arg(std::env::current_exe().expect("the test binary"))
        .args([test, "--exact", "--test-threads", "1"])
        .env(CHILD, "1")
        .stdout(Stdio::piped())
        .spawn()
        .expect("the child starts");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("the child is waited for") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{test} did not finish within 20 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut out = String::new();
    std::io::Read::read_to_string(&mut child.stdout.take().expect("piped"), &mut out)
        .expect("the child's report");
    assert!(
        status.success(),
        "{test} failed in its child: {status}\n{out}"
    );
    assert!(out.contains("test result: ok. 1 passed"), "{out}");
}

/// A FIFO at `path`, made by `mkfifo`.
fn fifo(path: &Path) -> String {
    let status = Command::new("mkfifo")
        .arg(path)
        .status()
        .expect("mkfifo runs");
    assert!(status.success(), "mkfifo {}", path.display());
    path.to_str().expect("utf-8 temp path").to_string()
}

/// A FIFO named as a spec or as a `replay:` trace used to block its
/// open forever; it reads as empty, so the spec is a JSON error and the
/// trace an I/O-free JSON error naming it — as `mocc validate` and
/// `mocc run` report them.
#[test]
fn a_fifo_named_as_a_spec_or_a_trace_is_an_error_not_a_hang() {
    if std::env::var_os(CHILD).is_none() {
        return in_child("a_fifo_named_as_a_spec_or_a_trace_is_an_error_not_a_hang");
    }
    let dir = tmp_dir("fifo");
    let spec = fifo(&dir.join("spec.json"));
    let mut bytes = vec![1u8; 4];
    read_capped(Path::new(&spec), MAX_FILE_BYTES, &mut bytes).expect("a FIFO reads");
    assert!(bytes.is_empty());
    assert!(matches!(
        ExperimentSpec::load(Path::new(&spec)),
        Err(SpecError::Json { .. })
    ));
    assert!(matches!(
        TrainSpec::load(Path::new(&spec)),
        Err(SpecError::Json { .. })
    ));
    let trace = fifo(&dir.join("trace.json"));
    let exp = ExperimentSpec::from_json(&format!(
        "{{\"kind\":\"sweep\",\"name\":\"h\",\"scheme\":\"cubic\",\"bandwidth_mbps\":[10.0],\
         \"owd_ms\":[20],\"queue_pkts\":[100],\"duration_s\":2,\"seed\":1,\
         \"shapes\":[\"replay:{trace}\"]}}"
    ))
    .expect("spec parses");
    match exp.validate() {
        Err(SpecError::Json { reason }) => {
            assert!(
                reason.starts_with(&format!("trace file {trace}: ")),
                "{reason}"
            )
        }
        other => panic!("expected a JSON error naming the trace, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose ledger is a FIFO used to block `open` forever, and one
/// whose ledger is a symlink to `/dev/zero` read until allocation
/// failed. Either is an `InvalidData` error naming the ledger — at
/// `open`, and at `stats` of a handle opened before it was swapped in —
/// and nothing is read from it or written to it.
#[test]
fn a_ledger_that_is_a_fifo_or_a_device_is_an_error_not_a_hang() {
    if std::env::var_os(CHILD).is_none() {
        return in_child("a_ledger_that_is_a_fifo_or_a_device_is_an_error_not_a_hang");
    }
    let dir = tmp_dir("ledger");
    let ledger = dir.join("ledger.jsonl");
    let key = "a".repeat(64);
    let store = ResultStore::open(&dir).expect("a fresh store opens");
    store.put(&key, "blob", 1).expect("put");
    let want = format!(
        "{}: the store's ledger is not a regular file",
        ledger.display()
    );
    for swap in ["fifo", "/dev/zero"] {
        std::fs::remove_file(&ledger).expect("the ledger is replaced");
        if swap == "fifo" {
            fifo(&ledger);
        } else {
            std::os::unix::fs::symlink(swap, &ledger).expect("symlink");
        }
        for err in [
            ResultStore::open(&dir).map(drop).unwrap_err(),
            store.stats().map(drop).unwrap_err(),
        ] {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{swap}: {err}");
            assert_eq!(err.to_string(), want, "{swap}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
