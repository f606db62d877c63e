//! The model zoo: versioned, provenance-tracked trained-model storage.
//!
//! Every completed `mocc train` run lands here as
//! `<zoo>/<name>/model.json` (the serialized [`MoccAgent`]) next to
//! `provenance.json` — the [`ModelProvenance`] record tying the
//! artifact to the [`TrainSpec`] digest that produced it, the code
//! version, the seed, the iteration count, and final eval metrics.
//! Given the spec digest and the determinism contract of
//! [`crate::trainer::train_spec`], a zoo entry is reproducible from its
//! provenance alone.
//!
//! [`zoo_registry`] turns a zoo directory into a [`SchemeRegistry`]:
//! every model becomes a named scheme (driving [`PolicyCc::mocc`] under the
//! balanced preference from 30 % of the link's peak rate, the §6
//! initialization convention), so experiment specs can reference
//! trained models by name exactly like built-in baselines.

use crate::adapter::PolicyCc;
use crate::agent::MoccAgent;
use crate::preference::Preference;
use crate::train::evaluate;
use crate::trainspec::TrainSpec;
use mocc_eval::{SchemeRegistry, SpecError};
use mocc_netsim::Scenario;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The fixed scenario final-eval metrics are recorded on: a 4 Mbps /
/// 20 ms / 500-packet lossless link for 60 s — the Fig. 5-style
/// single-flow cell, small enough to evaluate at save time.
fn eval_scenario() -> Scenario {
    Scenario::single(4e6, 20, 500, 0.0, 60)
}

/// One final-eval measurement: the mean per-step Eq. 2 reward of the
/// deterministic policy under a named preference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalPoint {
    /// Preference label: `"throughput"`, `"latency"`, or `"balanced"`.
    pub preference: String,
    /// Mean per-step reward on the reference scenario.
    pub reward: f32,
}

/// The provenance record stored beside every zoo model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelProvenance {
    /// Zoo layout version (currently 1).
    pub zoo_version: u64,
    /// Model name (the zoo directory name).
    pub name: String,
    /// [`TrainSpec::digest`] of the producing spec.
    pub spec_digest: String,
    /// SHA-256 of the serialized model (`model.json` bytes as written).
    pub model_digest: String,
    /// Workspace version that produced the artifact.
    pub code_version: String,
    /// Training seed (also recoverable from the spec).
    pub seed: u64,
    /// Schedule iterations executed.
    pub iterations: usize,
    /// Deterministic-policy rewards under the three canonical
    /// preferences on the reference scenario.
    pub final_eval: Vec<EvalPoint>,
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> SpecError {
    SpecError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

fn write_atomic(path: &Path, contents: &str) -> Result<(), SpecError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    Ok(())
}

/// Measures the deterministic policy under the three canonical
/// preferences on the reference scenario (`episodes` each).
pub fn final_eval(agent: &MoccAgent, episodes: usize) -> Vec<EvalPoint> {
    [
        ("throughput", Preference::throughput()),
        ("latency", Preference::latency()),
        ("balanced", Preference::balanced()),
    ]
    .into_iter()
    .map(|(label, pref)| EvalPoint {
        preference: label.to_string(),
        reward: evaluate(&agent.ppo, &agent.cfg, pref, eval_scenario(), episodes),
    })
    .collect()
}

/// Saves a trained agent into the zoo with full provenance, returning
/// the `model.json` path. Both files are written atomically
/// (temp + rename), so a concurrent reader never sees a torn artifact.
pub fn save_trained(
    zoo_dir: &Path,
    spec: &TrainSpec,
    agent: &MoccAgent,
    iterations: usize,
) -> Result<PathBuf, SpecError> {
    let dir = zoo_dir.join(&spec.name);
    std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
    let model_json = agent.to_json();
    let provenance = ModelProvenance {
        zoo_version: 1,
        name: spec.name.clone(),
        spec_digest: spec.digest(),
        model_digest: mocc_store::sha256_hex(model_json.as_bytes()),
        code_version: env!("CARGO_PKG_VERSION").to_string(),
        seed: spec.seed,
        iterations,
        final_eval: final_eval(agent, spec.eval_episodes),
    };
    let model_path = dir.join("model.json");
    write_atomic(&model_path, &model_json)?;
    write_atomic(
        &dir.join("provenance.json"),
        &serde_json::to_string(&provenance).map_err(|e| SpecError::Json {
            reason: e.to_string(),
        })?,
    )?;
    Ok(model_path)
}

/// Loads a zoo model and its provenance by name.
pub fn load_model(zoo_dir: &Path, name: &str) -> Result<(MoccAgent, ModelProvenance), SpecError> {
    let dir = zoo_dir.join(name);
    let model_path = dir.join("model.json");
    let model_json = std::fs::read_to_string(&model_path).map_err(|e| io_err(&model_path, e))?;
    let agent = MoccAgent::from_json(&model_json).map_err(|e| SpecError::Json {
        reason: format!("{}: {e}", model_path.display()),
    })?;
    let prov_path = dir.join("provenance.json");
    let prov_json = std::fs::read_to_string(&prov_path).map_err(|e| io_err(&prov_path, e))?;
    let provenance: ModelProvenance =
        serde_json::from_str(&prov_json).map_err(|e| SpecError::Json {
            reason: format!("{}: {e}", prov_path.display()),
        })?;
    Ok((agent, provenance))
}

/// Lists the model names in a zoo directory, sorted. A missing zoo is
/// an empty zoo.
pub fn list_models(zoo_dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(zoo_dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("model.json").is_file())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    names
}

/// Builds a [`SchemeRegistry`] of the built-in baselines plus every
/// model in the zoo, each registered under its zoo name and driving
/// [`PolicyCc::mocc`] with the balanced preference from 30 % of the link's
/// peak rate.
pub fn zoo_registry(zoo_dir: &Path) -> Result<SchemeRegistry, SpecError> {
    let mut reg = SchemeRegistry::builtin();
    for name in list_models(zoo_dir) {
        let (agent, provenance) = load_model(zoo_dir, &name)?;
        let summary = format!(
            "zoo model {name} (spec {}, {} iterations)",
            &provenance.spec_digest[..12.min(provenance.spec_digest.len())],
            provenance.iterations
        );
        reg = reg.with_scheme(&name, &summary, move |ctx| {
            Box::new(PolicyCc::mocc(
                &agent,
                Preference::balanced(),
                0.3 * ctx.peak_rate_bps,
            ))
        });
    }
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp_zoo(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mocc-zoo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> TrainSpec {
        TrainSpec {
            name: "unit-tiny".to_string(),
            seed: 5,
            omega_step: Some(4),
            boot_iters: Some(1),
            traverse_iters: Some(1),
            traverse_cycles: Some(1),
            rollout_steps: Some(30),
            episode_mis: Some(30),
            batch_envs: 1,
            ..TrainSpec::default()
        }
    }

    #[test]
    fn save_load_round_trip_with_provenance() {
        let zoo = tmp_zoo("roundtrip");
        let spec = tiny_spec();
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let agent = MoccAgent::new(spec.resolved_config().unwrap(), &mut rng);
        let model_path = save_trained(&zoo, &spec, &agent, 7).unwrap();
        assert!(model_path.is_file());

        let (loaded, prov) = load_model(&zoo, &spec.name).unwrap();
        assert_eq!(
            loaded.to_json(),
            agent.to_json(),
            "model round-trips losslessly"
        );
        assert_eq!(prov.zoo_version, 1);
        assert_eq!(prov.name, spec.name);
        assert_eq!(prov.spec_digest, spec.digest());
        assert_eq!(
            prov.model_digest,
            mocc_store::sha256_hex(agent.to_json().as_bytes())
        );
        assert_eq!(prov.seed, 5);
        assert_eq!(prov.iterations, 7);
        assert_eq!(prov.final_eval.len(), 3);
        assert!(prov.final_eval.iter().all(|p| p.reward.is_finite()));

        assert_eq!(list_models(&zoo), vec![spec.name.clone()]);
        let _ = std::fs::remove_dir_all(&zoo);
    }

    #[test]
    fn zoo_models_register_as_schemes() {
        let zoo = tmp_zoo("registry");
        let spec = tiny_spec();
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let agent = MoccAgent::new(spec.resolved_config().unwrap(), &mut rng);
        save_trained(&zoo, &spec, &agent, 1).unwrap();

        let reg = zoo_registry(&zoo).unwrap();
        assert!(
            reg.names().contains(&"unit-tiny"),
            "zoo model missing from registry: {:?}",
            reg.names()
        );
        // Builtin baselines survive alongside zoo models.
        assert!(reg.names().contains(&"cubic"));
        let _ = std::fs::remove_dir_all(&zoo);
    }

    #[test]
    fn missing_zoo_is_empty_and_builtin_only() {
        let zoo = tmp_zoo("missing");
        assert!(list_models(&zoo).is_empty());
        let reg = zoo_registry(&zoo).unwrap();
        assert!(reg.names().contains(&"cubic"));
    }
}
