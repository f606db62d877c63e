//! The figures' trained-model cache reads every model through its
//! shape-checked decoder: a damaged or empty model file is retrained
//! and overwritten, never deployed and never a panic. The trainers
//! here are stubs returning untrained models, so nothing is trained
//! at figure scale.

use mocc::core::{AuroraAgent, AuroraBank, MoccAgent, MoccConfig, Preference};
use mocc_bench::figures::load_or_train;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::cell::Cell;
use std::path::Path;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mocc-figcache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `damaged` to `path`, then loads it twice through the cache
/// with a stub trainer returning `fresh`: the first load retrains once
/// and overwrites the file with `fresh`'s bytes, the second reads them
/// back without training.
fn assert_retrained<T: Serialize + Clone>(
    path: &Path,
    damaged: &str,
    decode: fn(&str) -> Result<T, serde_json::Error>,
    fresh: &T,
) {
    std::fs::write(path, damaged).unwrap();
    assert!(decode(damaged).is_err(), "the damaged file must be refused");
    let want = serde_json::to_string(fresh).unwrap();
    let trained = Cell::new(0);
    let stub = || {
        trained.set(trained.get() + 1);
        Ok(fresh.clone())
    };
    let got = load_or_train(path, decode, stub).unwrap();
    assert_eq!(serde_json::to_string(&got).unwrap(), want);
    assert_eq!(std::fs::read_to_string(path).unwrap(), want);
    let again = load_or_train(path, decode, stub).unwrap();
    assert_eq!(serde_json::to_string(&again).unwrap(), want);
    assert_eq!(
        trained.get(),
        1,
        "{}: one retrain, then cache hits",
        path.display()
    );
}

/// A figure-scale MOCC model whose `policy.main` layer-0 weight lost
/// its last value (2 943 of 2 944): a panic in the matrix kernel at
/// the first forward pass before the decoder checked shapes.
#[test]
fn a_damaged_mocc_model_is_retrained() {
    let dir = tmp_dir("mocc");
    let mut rng = StdRng::seed_from_u64(1);
    let fresh = MoccAgent::new(MoccConfig::default(), &mut rng);
    let mut bad = fresh.clone();
    bad.ppo.policy.net.main.layers[0].w.data.pop();
    assert_eq!(bad.ppo.policy.net.main.layers[0].w.data.len(), 2943);
    let path = dir.join("mocc-agent.json");
    assert_retrained(&path, &bad.to_json(), MoccAgent::from_json, &fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Aurora models and banks: a short weight matrix, a config whose
/// history disagrees with the networks (or overflows their width),
/// short Adam moments, an empty bank and a bank with one damaged model
/// are each retrained.
#[test]
fn damaged_aurora_models_and_banks_are_retrained() {
    let dir = tmp_dir("aurora");
    let mut rng = StdRng::seed_from_u64(2);
    let cfg = MoccConfig::fast();
    let fresh = AuroraAgent::new(cfg, Preference::throughput(), &mut rng);
    let json = serde_json::to_string(&fresh).unwrap();
    assert_eq!(AuroraAgent::from_json(&json).unwrap().pref, fresh.pref);

    let mut short = fresh.clone();
    short.ppo.value.layers[1].w.data.pop();
    let mut narrow = fresh.clone();
    narrow.cfg.history = 5;
    let mut huge = fresh.clone();
    huge.cfg.history = usize::MAX;
    let moments = json.replacen("\"m\":[]", "\"m\":[[1.0]]", 1);
    assert_ne!(moments, json);
    let path = dir.join("aurora-thr.json");
    for damaged in [
        serde_json::to_string(&short).unwrap(),
        serde_json::to_string(&narrow).unwrap(),
        serde_json::to_string(&huge).unwrap(),
        moments,
    ] {
        assert_retrained(&path, &damaged, AuroraAgent::from_json, &fresh);
    }

    let bank = AuroraBank {
        models: vec![fresh.clone()],
    };
    let empty = AuroraBank { models: vec![] };
    let one_bad = AuroraBank {
        models: vec![fresh.clone(), short],
    };
    let path = dir.join("aurora-bank-6.json");
    for damaged in [&empty, &one_bad] {
        let damaged = serde_json::to_string(damaged).unwrap();
        assert_retrained(&path, &damaged, AuroraBank::from_json, &bank);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
