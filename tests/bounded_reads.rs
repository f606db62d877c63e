//! Every file a document or the command line names — a spec, a replay
//! trace, a model at `policy.path`, a zoo model, a checkpoint, a
//! figure's cached model — is read by `mocc_store::read_capped`: one
//! open, one `fstat` of the handle, one read of the length it reports,
//! and nothing read at all past `MAX_FILE_BYTES`. A sparse 3 GiB file
//! is a typed error naming the file and the cap, and an endless device
//! reads as the empty file its handle reports.

use mocc::core::{agent_from_policy, load_checkpoint, load_model, TrainSpec};
use mocc::eval::{ExperimentSpec, PolicySpec, SpecError};
use mocc::store::{read_capped, MAX_FILE_BYTES};
use mocc_bench::figures::load_or_train;
use std::path::{Path, PathBuf};

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
