//! Pinned bytes of the learners outside `train_spec`: an Aurora model
//! trained from scratch, the deterministic evaluator over a MOCC and
//! an Aurora network, and online adaptation with requirement replay.
//! Each literal was read from a run of the code it pins; a change to
//! the PPO iteration, the collector, the update or the evaluator that
//! moves one bit moves a literal here.

use mocc::core::{evaluate, ppo_iteration, AuroraAgent, MoccAgent, MoccConfig, Preference};
use mocc::netsim::{Scenario, ScenarioRange};
use mocc::store::sha256_hex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_cfg() -> MoccConfig {
    MoccConfig {
        rollout_steps: 60,
        episode_mis: 60,
        ..MoccConfig::fast()
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A small throughput Aurora model after three iterations from seed 5.
fn trained_aurora() -> (AuroraAgent, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut agent = AuroraAgent::new(small_cfg(), Preference::throughput(), &mut rng);
    let curve = agent.train(ScenarioRange::training(), 3, 5);
    (agent, curve)
}

/// `AuroraAgent::train` from scratch: the curve's bits and the model
/// file's SHA-256.
#[test]
fn aurora_training_matches_the_pinned_digest() {
    let (agent, curve) = trained_aurora();
    assert_eq!(
        bits(&curve),
        [1055136505, 1056495062, 1055656973],
        "{curve:?}"
    );
    assert_eq!(
        sha256_hex(serde_json::to_string(&agent).unwrap().as_bytes()),
        "45d6ceb170b514b4fb2d208ae4f56df14869445c7017f6e504b318ff9cc388ce"
    );
}

/// The deterministic evaluator's `f32` bits: a MOCC agent under two
/// preferences, and an Aurora model under its own objective and under
/// another one, on one fixed scenario over two episodes.
#[test]
fn evaluation_matches_the_pinned_bits() {
    let sc = Scenario::single(4e6, 20, 500, 0.0, 60);
    let mut rng = StdRng::seed_from_u64(3);
    let mocc = MoccAgent::new(small_cfg(), &mut rng);
    let (aurora, _) = trained_aurora();
    let got = [
        evaluate(
            &mocc.ppo,
            &mocc.cfg,
            Preference::throughput(),
            sc.clone(),
            2,
        ),
        evaluate(&mocc.ppo, &mocc.cfg, Preference::latency(), sc.clone(), 2),
        evaluate(
            &aurora.ppo,
            &aurora.cfg,
            Preference::throughput(),
            sc.clone(),
            2,
        ),
        evaluate(&aurora.ppo, &aurora.cfg, Preference::latency(), sc, 2),
    ];
    assert_eq!(
        bits(&got),
        [1055287674, 1063244497, 1056176857, 1063333635],
        "{got:?}"
    );
}

/// Three iterations of online adaptation with requirement replay: a
/// two-env agent adapts to the latency objective with the throughput
/// objective as its contrast, the entropy coefficient left where the
/// model has it. The curve's bits, the model file's SHA-256 and the
/// old objective's evaluation bits.
#[test]
fn adaptation_matches_the_pinned_digest() {
    let cfg = MoccConfig {
        rollout_steps: 40,
        episode_mis: 40,
        parallel_envs: 2,
        ..MoccConfig::fast()
    };
    let mut agent = MoccAgent::new(cfg, &mut StdRng::seed_from_u64(0));
    let mut rng = StdRng::seed_from_u64(1);
    let (new_pref, old_pref) = (Preference::latency(), Preference::throughput());
    let curve: Vec<f32> = (0..3)
        .map(|_| {
            let range = ScenarioRange::training();
            ppo_iteration(
                &mut agent.ppo,
                &cfg,
                new_pref,
                Some(old_pref),
                range,
                &mut rng,
            )
        })
        .collect();
    assert_eq!(
        bits(&curve),
        [1061143314, 1061646739, 1063541056],
        "{curve:?}"
    );
    assert_eq!(
        sha256_hex(agent.to_json().as_bytes()),
        "d3853bc9b464c4e41e392517a54a02a49e9883cda93f2cc3e2b74f6ff90af621"
    );
    let sc = Scenario::single(4e6, 20, 500, 0.0, 60);
    let old = evaluate(&agent.ppo, &cfg, old_pref, sc, 1);
    assert_eq!(old.to_bits(), 1057313126, "{old}");
}
