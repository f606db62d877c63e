//! Property-based integration tests over the workspace invariants.

use mocc::core::{
    build_schedule, landmark_count, landmarks, run_experiment, run_experiment_with, Preference,
    RunOptions, TrainRegime, TrainSpec,
};
use mocc::eval::{
    CompetitionSpec, ContenderMix, ExperimentSpec, FlowLoad, PolicySpec, SchemeRegistry,
    SchemeSpec, SweepRunner, SweepSpec, TraceShape,
};
use mocc::netsim::cc::{Aimd, CongestionControl, FixedRate};
use mocc::netsim::metrics::jain_index;
use mocc::netsim::{AppPattern, BandwidthTrace, FlowSpec, Scenario, Simulator};
use mocc::nn::{Activation, ForwardTier, Matrix, Mlp, MlpScratch};
use mocc::rl::{GaussianPolicy, PolicyScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A flow over `[start_s, stop_s)` whose source is chosen by `app`:
/// greedy, on/off or RPC. Under [`FixedRate`] the last two are paced
/// *and* application-limited, so pacing timers, application wake-ups
/// and ACKs of one flow share timestamps.
fn flow_with_app(app: u8, start_s: f64, stop_s: f64) -> FlowSpec {
    let app = match app {
        0 => AppPattern::Greedy,
        1 => FlowSpec::on_off_cross(0.0, 0.3, 0.2, 6e6).app,
        _ => FlowSpec::rpc_cross(0.0, 40_000, 0.05).app,
    };
    FlowSpec {
        app,
        ..FlowSpec::running(start_s, stop_s)
    }
}

/// Deterministically generates a randomized-but-valid-shaped
/// [`ExperimentSpec`] from a seed: random axes, every shape/load/mix
/// family, every mocc label form, optional policy sections. (Values
/// are drawn from small grids so the documents stay readable when a
/// failure prints one.)
fn random_experiment(seed: u64) -> ExperimentSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let schemes = [
        "cubic",
        "bbr",
        "vegas",
        "copa",
        "pcc-vivace",
        "mocc",
        "mocc:thr",
        "mocc:lat",
        "mocc:bal",
        "mocc:0.5,0.25,0.25",
    ];
    let pick = |rng: &mut StdRng| schemes[rng.gen_range(0..schemes.len())].to_string();
    let matrix = SweepSpec {
        bandwidth_mbps: vec![rng.gen_range(1.0f64..50.0), rng.gen_range(1.0f64..50.0)],
        owd_ms: vec![rng.gen_range(5u64..200)],
        queue_pkts: vec![rng.gen_range(10usize..5000)],
        loss: vec![0.0, rng.gen_range(0.0f64..0.5)],
        shapes: vec![
            TraceShape::Constant,
            TraceShape::Square {
                period_s: rng.gen_range(0.5f64..8.0),
            },
            TraceShape::Oscillating {
                steps: rng.gen_range(1usize..6),
                dwell_s: rng.gen_range(0.5f64..4.0),
            },
        ],
        loads: vec![
            FlowLoad::Steady(rng.gen_range(1usize..4)),
            FlowLoad::OnOffCross(rng.gen_range(1usize..3)),
        ],
        duration_s: rng.gen_range(4u64..40),
        mss_bytes: 1500,
        seed: rng.gen(),
        agent_mi: rng.gen_bool(0.5),
    };
    let mut exp = if rng.gen_bool(0.5) {
        let label = pick(&mut rng);
        let scheme = SchemeSpec::parse(&label).expect("generator labels parse");
        ExperimentSpec::from_sweep("prop-sweep", scheme, &matrix)
    } else {
        let comp = CompetitionSpec {
            mixes: vec![
                ContenderMix::Duel(vec![pick(&mut rng), pick(&mut rng), pick(&mut rng)]),
                {
                    let stair_scheme = pick(&mut rng);
                    ContenderMix::staircase(&stair_scheme, rng.gen_range(1usize..4), 2.0)
                },
            ],
            bandwidth_mbps: matrix.bandwidth_mbps.clone(),
            owd_ms: matrix.owd_ms.clone(),
            queue_pkts: matrix.queue_pkts.clone(),
            duration_s: matrix.duration_s,
            mss_bytes: 1500,
            seed: matrix.seed,
            agent_mi: matrix.agent_mi,
            tcp_baseline: "cubic".to_string(),
            fair_jain: rng.gen_range(0.5f64..1.0),
            fair_sustain_s: rng.gen_range(1u64..5),
        };
        ExperimentSpec::from_competition("prop-competition", &comp)
    };
    if rng.gen_bool(0.5) {
        exp.policy = Some(PolicySpec {
            path: rng.gen_bool(0.3).then(|| "models/agent.json".to_string()),
            seed: rng.gen(),
            config: if rng.gen_bool(0.5) { "fast" } else { "default" }.to_string(),
            initial_rate_frac: rng.gen_range(0.05f64..1.0),
            batch: rng.gen_range(1usize..64),
            fast_math: rng.gen_bool(0.25),
            ..PolicySpec::default()
        });
    }
    exp
}

/// Deterministically generates a randomized-but-valid [`TrainSpec`]
/// from a seed: every preset, regime, and range label, zoo-safe names
/// over the full allowed alphabet, and each override independently set
/// or left on the preset default.
fn random_train_spec(seed: u64) -> TrainSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let name_alphabet: Vec<char> = "abcXYZ019._-".chars().collect();
    let name: String = (0..rng.gen_range(1usize..16))
        .map(|_| name_alphabet[rng.gen_range(0..name_alphabet.len())])
        .collect();
    let name = if name.chars().all(|c| c == '.') {
        format!("{name}x")
    } else {
        name
    };
    let regimes = [TrainRegime::Individual, TrainRegime::Transfer];
    let opt =
        |rng: &mut StdRng, lo: usize, hi: usize| rng.gen_bool(0.5).then(|| rng.gen_range(lo..hi));
    TrainSpec {
        name,
        seed: rng.gen(),
        config: if rng.gen_bool(0.5) { "fast" } else { "default" }.to_string(),
        regime: regimes[rng.gen_range(0..regimes.len())],
        range: if rng.gen_bool(0.5) {
            "training"
        } else {
            "testing"
        }
        .to_string(),
        batch_envs: rng.gen_range(1usize..9),
        checkpoint_every: rng.gen_range(0usize..20),
        eval_episodes: rng.gen_range(1usize..4),
        boot_iters: opt(&mut rng, 1, 10),
        traverse_iters: opt(&mut rng, 1, 5),
        traverse_cycles: opt(&mut rng, 0, 4),
        rollout_steps: opt(&mut rng, 1, 100),
        episode_mis: opt(&mut rng, 1, 100),
        omega_step: opt(&mut rng, 3, 12),
    }
}

/// A short string of arbitrary printable-ish characters (including
/// grammar separators, digits, unicode) for feeding the parsers.
fn random_junk(rng: &mut StdRng) -> String {
    let alphabet: Vec<char> = "abcmox:+,.-_019 {}[]\"\\/λ∞".chars().collect();
    (0..rng.gen_range(0usize..12))
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulator conserves packets exactly: every sent packet is
    /// acknowledged, declared lost, or still in flight at the horizon,
    /// for any link parameters and sending rate.
    #[test]
    fn packets_conserved(
        bw_mbps in 1.0f64..40.0,
        owd_ms in 5u64..100,
        queue in 10usize..2000,
        loss in 0.0f64..0.2,
        rate_mbps in 0.5f64..60.0,
    ) {
        let sc = Scenario::single(bw_mbps * 1e6, owd_ms, queue, loss, 10);
        let res = Simulator::new(sc, vec![Box::new(FixedRate::new(rate_mbps * 1e6))]).run();
        let f = &res.flows[0];
        prop_assert_eq!(f.total_acked + f.total_lost + f.pkts_in_flight, f.total_sent);
        prop_assert!(f.loss_rate >= 0.0 && f.loss_rate <= 1.0);
        prop_assert!(f.utilization >= 0.0);
    }

    /// Simulator event timestamps are monotone non-decreasing: the
    /// clock observed between processed events never runs backwards.
    #[test]
    fn event_timestamps_monotone(
        bw_mbps in 1.0f64..20.0,
        owd_ms in 5u64..80,
        loss in 0.0f64..0.1,
        cross_app in 0u8..3,
    ) {
        let mut sc = Scenario::single(bw_mbps * 1e6, owd_ms, 100, loss, 5);
        sc.flows.push(flow_with_app(cross_app, 0.0, 5.0));
        let ccs: Vec<Box<dyn CongestionControl>> =
            vec![Box::new(Aimd::new()), Box::new(FixedRate::new(bw_mbps * 1e6))];
        let mut sim = Simulator::new(sc, ccs);
        let mut last = sim.now();
        while sim.process_next().is_some() {
            prop_assert!(sim.now() >= last, "clock ran backwards: {} < {}", sim.now(), last);
            last = sim.now();
        }
    }

    /// A parallel sweep produces results identical to a serial sweep of
    /// the same spec and seed — the determinism contract the golden
    /// fixtures depend on.
    #[test]
    fn sweep_parallel_equals_serial(seed in 0u64..1_000_000) {
        let spec = SweepSpec {
            bandwidth_mbps: vec![3.0, 6.0],
            owd_ms: vec![15],
            queue_pkts: vec![80],
            loss: vec![0.0, 0.02],
            shapes: vec![TraceShape::Square { period_s: 1.0 }],
            loads: vec![FlowLoad::Steady(1)],
            duration_s: 3,
            mss_bytes: 1500,
            seed,
            agent_mi: false,
        };
        let registry =
            SchemeRegistry::builtin().with_scheme("aimd", "test AIMD", |_| Box::new(Aimd::new()));
        let exp = ExperimentSpec::from_sweep("aimd", SchemeSpec::parse("aimd").unwrap(), &spec);
        let run = |threads| {
            let opts = RunOptions { registry: Some(&registry), ..RunOptions::default() };
            let (report, _) = run_experiment_with(&SweepRunner::with_threads(threads), &exp, opts)
                .expect("aimd is registered");
            report.to_canonical_json()
        };
        prop_assert_eq!(run(1), run(3));
    }

    /// Flow churn preserves the simulator's core invariants: for any
    /// lifecycle schedule (flows joining and leaving at arbitrary
    /// times, including degenerate windows and starts beyond the
    /// horizon), packet conservation holds exactly per flow and the
    /// event clock never runs backwards.
    #[test]
    fn churn_conserves_packets_and_clock(
        lifecycles in proptest::collection::vec(
            (0.0f64..9.0, 0.1f64..10.0, 0.5f64..12.0, 0u8..3), 1..4),
        owd_ms in 5u64..60,
        queue in 20usize..500,
        loss in 0.0f64..0.1,
    ) {
        let mut sc = Scenario::single(8e6, owd_ms, queue, loss, 8);
        sc.flows.clear();
        let mut ccs: Vec<Box<dyn CongestionControl>> = Vec::new();
        for &(start, len, rate_mbps, app) in &lifecycles {
            sc.flows.push(flow_with_app(app, start, start + len));
            ccs.push(Box::new(FixedRate::new(rate_mbps * 1e6)));
        }
        let mut sim = Simulator::new(sc, ccs);
        let mut last = sim.now();
        while sim.process_next().is_some() {
            prop_assert!(sim.now() >= last, "clock ran backwards under churn");
            last = sim.now();
        }
        for (i, f) in sim.result().flows.iter().enumerate() {
            prop_assert!(
                f.total_acked + f.total_lost + f.pkts_in_flight == f.total_sent,
                "flow {} leaked packets", i
            );
            prop_assert!(f.active_s > 0.0);
            prop_assert!(f.throughput_bps >= 0.0 && f.throughput_bps.is_finite());
        }
    }

    /// A parallel competition sweep (duels plus staircase churn)
    /// produces canonical JSON byte-identical to a serial sweep of the
    /// same spec and seed — the determinism contract the competition
    /// golden fixtures depend on.
    #[test]
    fn competition_parallel_equals_serial(seed in 0u64..1_000_000) {
        let spec = CompetitionSpec {
            mixes: vec![
                ContenderMix::duel("cubic", "vegas"),
                ContenderMix::staircase("bbr", 2, 2.0),
            ],
            duration_s: 6,
            seed,
            ..CompetitionSpec::quick()
        };
        let exp = ExperimentSpec::from_competition("mix", &spec);
        let serial = run_experiment(&SweepRunner::with_threads(1), &exp).expect("built-in contenders");
        let parallel = run_experiment(&SweepRunner::with_threads(3), &exp).expect("built-in contenders");
        prop_assert_eq!(serial.to_canonical_json(), parallel.to_canonical_json());
    }

    /// Replay traces preserve the simulator's conservation law: for
    /// any recorded sample sequence (arbitrary gaps and rate swings,
    /// including traces whose first sample is after t = 0) every sent
    /// packet is acknowledged, lost, or still in flight at the
    /// horizon.
    #[test]
    fn replay_cells_conserve_packets(
        deltas in proptest::collection::vec((0.1f64..4.0, 0.5f64..40.0), 1..16),
        first_t in 0.0f64..3.0,
        owd_ms in 5u64..80,
        queue in 20usize..1000,
        loss in 0.0f64..0.1,
        rate_mbps in 0.5f64..60.0,
    ) {
        let mut t = first_t;
        let mut samples = Vec::new();
        for &(dt, mbps) in &deltas {
            samples.push((t, mbps * 1e6));
            t += dt;
        }
        let trace = BandwidthTrace::from_samples(&samples).expect("generated samples are valid");
        let mut sc = Scenario::single(trace.max_rate(), owd_ms, queue, loss, 10);
        sc.link.trace = trace;
        let res = Simulator::new(sc, vec![Box::new(FixedRate::new(rate_mbps * 1e6))]).run();
        let f = &res.flows[0];
        prop_assert_eq!(f.total_acked + f.total_lost + f.pkts_in_flight, f.total_sent);
        prop_assert!(f.loss_rate >= 0.0 && f.loss_rate <= 1.0);
        prop_assert!(f.throughput_bps.is_finite());
    }

    /// Replay cells keep the canonical-report determinism contract: a
    /// spec over a recorded trace file produces byte-identical reports
    /// across worker-thread counts — the same guarantee the golden
    /// replay fixture pins for the committed corpus, here over
    /// randomized traces.
    #[test]
    fn replay_reports_identical_across_threads(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::new();
        let mut t = 0.0f64;
        for _ in 0..rng.gen_range(2usize..12) {
            samples.push(format!("[{:.3},{:.3}]", t, rng.gen_range(0.5f64..30.0)));
            t += rng.gen_range(0.25f64..3.0);
        }
        let path = std::env::temp_dir().join(format!(
            "mocc-prop-replay-{}-{seed}.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            format!("{{\"samples\":[{}]}}", samples.join(",")),
        )
        .expect("write temp trace");
        let matrix = SweepSpec {
            bandwidth_mbps: vec![rng.gen_range(2.0f64..20.0)],
            owd_ms: vec![rng.gen_range(5u64..60)],
            queue_pkts: vec![rng.gen_range(20usize..500)],
            loss: vec![0.0],
            shapes: vec![TraceShape::replay(path.to_str().expect("utf-8 temp path"))],
            loads: vec![FlowLoad::Steady(1), FlowLoad::RpcCross(1)],
            duration_s: 4,
            mss_bytes: 1500,
            seed: rng.gen(),
            agent_mi: true,
        };
        let mut exp = ExperimentSpec::from_sweep(
            "prop-replay",
            SchemeSpec::parse("mocc").expect("mocc parses"),
            &matrix,
        );
        exp.policy = Some(PolicySpec::default());
        let serial =
            run_experiment(&SweepRunner::with_threads(1), &exp).expect("replay spec runs");
        let parallel =
            run_experiment(&SweepRunner::with_threads(3), &exp).expect("replay spec runs");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(serial.to_canonical_json(), parallel.to_canonical_json());
    }

    /// Delivered throughput never exceeds link capacity (no free
    /// bandwidth), up to a 5% accounting tolerance on short runs.
    #[test]
    fn no_free_bandwidth(
        bw_mbps in 1.0f64..30.0,
        rate_mbps in 0.5f64..90.0,
    ) {
        let sc = Scenario::single(bw_mbps * 1e6, 10, 500, 0.0, 10);
        let res = Simulator::new(sc, vec![Box::new(FixedRate::new(rate_mbps * 1e6))]).run();
        prop_assert!(res.flows[0].throughput_bps <= bw_mbps * 1e6 * 1.05);
    }

    /// Mean RTT is never below the propagation floor.
    #[test]
    fn rtt_at_least_propagation(
        owd_ms in 5u64..150,
        rate_mbps in 0.5f64..20.0,
    ) {
        let sc = Scenario::single(20e6, owd_ms, 500, 0.0, 10);
        let res = Simulator::new(sc, vec![Box::new(FixedRate::new(rate_mbps * 1e6))]).run();
        let f = &res.flows[0];
        if f.total_acked > 0 {
            prop_assert!(f.mean_rtt_ms >= 2.0 * owd_ms as f64 - 1e-6);
        }
    }

    /// Jain's index is always in (0, 1] and is exactly 1 for equal
    /// allocations.
    #[test]
    fn jain_bounds(xs in proptest::collection::vec(0.0f64..100.0, 1..8)) {
        let j = jain_index(&xs);
        prop_assert!(j > 0.0 && j <= 1.0 + 1e-9);
    }

    #[test]
    fn jain_equal_is_one(x in 0.1f64..100.0, n in 1usize..8) {
        let xs = vec![x; n];
        prop_assert!((jain_index(&xs) - 1.0).abs() < 1e-9);
    }

    /// Landmark generation: every point is interior, normalized, and
    /// the count matches the closed form C(k-1, 2).
    #[test]
    fn landmark_invariants(k in 3usize..25) {
        let pts = landmarks(k);
        prop_assert_eq!(pts.len(), landmark_count(k));
        for w in &pts {
            prop_assert!(w.thr > 0.0 && w.lat > 0.0 && w.loss > 0.0);
            prop_assert!((w.thr + w.lat + w.loss - 1.0).abs() < 1e-5);
        }
    }

    /// Row *r* of an *n*-row policy call equals that row sent alone —
    /// action, log-probability, mean and RNG stream — across layer
    /// shapes, batch sizes, both tiers and RNG seeds. This pins the
    /// contract that batching flows, cells or environments can never
    /// perturb a trajectory.
    #[test]
    fn each_policy_row_equals_that_row_sent_alone(
        net_seed in 0u64..1_000,
        rng_seed in 0u64..1_000,
        obs_dim in 1usize..12,
        h1 in 1usize..48,
        h2 in 0usize..24,
        rows in 1usize..40,
        fast in 0u8..2,
    ) {
        let tier = if fast == 1 { ForwardTier::Fast } else { ForwardTier::Scalar };
        let mut nrng = StdRng::seed_from_u64(net_seed);
        let hidden: Vec<usize> = if h2 == 0 { vec![h1] } else { vec![h1, h2] };
        let pol = GaussianPolicy::new(obs_dim, &hidden, &mut nrng);
        let obs = Matrix::from_fn(rows, obs_dim, |r, c| {
            // Deterministic mix with exact zeros to hit the sparsity skip.
            if (r + c) % 4 == 0 { 0.0 } else { ((r * 31 + c * 7) % 17) as f32 * 0.13 - 1.0 }
        });
        let (mut scratch, mut lone) = (PolicyScratch::default(), PolicyScratch::default());
        let (mut acts, mut means, mut act1, mut mean1) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut rng_all = StdRng::seed_from_u64(rng_seed);
        pol.act_batch_tier(&obs, &mut rng_all, &mut acts, &mut scratch, tier);
        pol.mean_action_batch_tier(&obs, &mut means, &mut scratch, tier);
        let mut rng_rows = StdRng::seed_from_u64(rng_seed);
        prop_assert_eq!(acts.len(), rows);
        for r in 0..rows {
            let row = Matrix::from_vec(1, obs_dim, obs.row(r).to_vec());
            pol.act_batch_tier(&row, &mut rng_rows, &mut act1, &mut lone, tier);
            pol.mean_action_batch_tier(&row, &mut mean1, &mut lone, tier);
            prop_assert_eq!(acts[r].0.to_bits(), act1[0].0.to_bits());
            prop_assert_eq!(acts[r].1.to_bits(), act1[0].1.to_bits());
            prop_assert_eq!(means[r].to_bits(), mean1[0].to_bits());
            if tier == ForwardTier::Scalar {
                prop_assert_eq!(means[r].to_bits(), pol.mean_action(obs.row(r)).to_bits());
            }
        }
        prop_assert_eq!(rng_all.state(), rng_rows.state());
    }

    /// The fast-math tier tracks the scalar reference across random
    /// layer shapes and batch sizes: pre-activations are bitwise
    /// shared, so the whole-network divergence stays within a small
    /// multiple of the documented per-tanh kernel bound
    /// (`mocc::nn::simd::FAST_TANH_MAX_ABS_ERROR`), and a fast row of
    /// a batch is bitwise identical to that row sent alone.
    #[test]
    fn fast_tier_tracks_scalar_forward_within_bound(
        net_seed in 0u64..1_000,
        obs_dim in 1usize..12,
        h1 in 1usize..48,
        h2 in 0usize..24,
        rows in 1usize..40,
    ) {
        let mut nrng = StdRng::seed_from_u64(net_seed);
        let mut sizes = vec![obs_dim, h1];
        if h2 > 0 { sizes.push(h2); }
        sizes.push(1);
        let mlp = Mlp::new(&sizes, Activation::Tanh, Activation::Linear, &mut nrng);
        let obs = Matrix::from_fn(rows, obs_dim, |r, c| {
            // Deterministic mix with exact zeros to hit the sparsity skip.
            if (r + c) % 4 == 0 { 0.0 } else { ((r * 31 + c * 7) % 17) as f32 * 0.13 - 1.0 }
        });
        let mut scratch = MlpScratch::default();
        let mut fast = Matrix::zeros(0, 0);
        mlp.forward_batch_into_tier(&obs, &mut fast, &mut scratch, ForwardTier::Fast);
        let fast_out: Vec<f32> = (0..rows).map(|r| fast.get(r, 0)).collect();
        let mut scalar = Matrix::zeros(0, 0);
        mlp.forward_batch_into_tier(&obs, &mut scalar, &mut scratch, ForwardTier::Scalar);
        for (r, &f) in fast_out.iter().enumerate() {
            let s = scalar.get(r, 0);
            prop_assert!(
                (f - s).abs() <= 1e-3,
                "row {}: fast {} vs scalar {} diverged past the bound", r, f, s
            );
            let row = Matrix::from_vec(1, obs_dim, obs.row(r).to_vec());
            mlp.forward_batch_into_tier(&row, &mut fast, &mut scratch, ForwardTier::Fast);
            prop_assert_eq!(fast.get(0, 0).to_bits(), f.to_bits());
        }
    }

    /// Serde round trip is the identity over randomized experiment
    /// documents: parse(serialize(spec)) == spec, and the canonical
    /// JSON form is a fixed point. The generator covers both workload
    /// kinds, every trace shape/load family, duels and staircases,
    /// every mocc label form, and optional policy sections.
    #[test]
    fn experiment_spec_round_trip_is_identity(seed in 0u64..1_000_000) {
        let exp = random_experiment(seed);
        let json = exp.to_canonical_json();
        let back = ExperimentSpec::from_json(&json);
        prop_assert!(back.is_ok(), "round trip failed: {:?}\n{json}", back.err());
        let back = back.unwrap();
        prop_assert_eq!(&back, &exp);
        prop_assert_eq!(back.to_canonical_json(), json);
    }

    /// Every registry name and every `mocc:` form parses through the
    /// shared grammar and resolves against the built-in registry.
    #[test]
    fn every_registry_name_and_mocc_form_parses(t in 0.0f64..1.0, l in 0.0f64..1.0) {
        let reg = SchemeRegistry::builtin();
        for name in reg.names() {
            prop_assert!(reg.parse(name).is_ok(), "{name}");
        }
        for label in ["mocc", "mocc:thr", "mocc:lat", "mocc:bal"] {
            prop_assert!(reg.parse(label).is_ok(), "{label}");
        }
        // Any non-degenerate weight triple is a valid mocc label.
        let label = format!("mocc:{t},{l},1");
        let spec = reg.parse(&label);
        prop_assert!(spec.is_ok(), "{label}: {:?}", spec.err());
        let spec = spec.unwrap();
        prop_assert_eq!(spec.label(), label.as_str());
    }

    /// Malformed inputs yield typed `SpecError`s, never panics: junk
    /// scheme labels, junk mix labels, and junk JSON documents all
    /// come back as `Err`.
    #[test]
    fn malformed_specs_error_instead_of_panicking(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let junk = random_junk(&mut rng);
        // Parsers must return (not panic) on arbitrary input...
        let _ = SchemeSpec::parse(&junk);
        let _ = ContenderMix::parse(&junk);
        let _ = TraceShape::parse(&junk);
        let _ = FlowLoad::parse(&junk);
        let _ = ExperimentSpec::from_json(&junk);
        // ... and recognizably malformed labels are always errors.
        prop_assert!(SchemeSpec::parse(&format!("mocc:{junk},x")).is_err());
        prop_assert!(ContenderMix::parse(&format!("melee:{junk}")).is_err());
        let doc = format!("{{\"kind\":\"sweep\",\"name\":\"x\",\"scheme\":17,\"junk\":{junk:?}}}");
        prop_assert!(ExperimentSpec::from_json(&doc).is_err());
    }

    /// Serde round trip is the identity over randomized training
    /// documents: parse(serialize(spec)) == spec, the canonical JSON
    /// form is a fixed point, and generated documents validate — the
    /// same battery [`ExperimentSpec`] passes, applied to the training
    /// side of the spec surface.
    #[test]
    fn train_spec_round_trip_is_identity(seed in 0u64..1_000_000) {
        let spec = random_train_spec(seed);
        let json = spec.to_canonical_json();
        let back = TrainSpec::from_json(&json);
        prop_assert!(back.is_ok(), "round trip failed: {:?}\n{json}", back.err());
        let back = back.unwrap();
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_canonical_json(), json);
        prop_assert!(spec.validate().is_ok(), "generated spec must validate");
        // The counted length is the built schedule's (possibly empty
        // when every iteration knob is zeroed out by the generator).
        let cfg = spec.resolved_config().unwrap();
        let built = build_schedule(&cfg, spec.regime).1.len();
        prop_assert_eq!(spec.schedule_len().unwrap(), built);
    }

    /// The digest is the spec's identity over the generator space:
    /// equal documents agree, and any single-field mutation moves it.
    #[test]
    fn train_spec_digest_tracks_identity(seed in 0u64..1_000_000) {
        let spec = random_train_spec(seed);
        prop_assert_eq!(random_train_spec(seed).digest(), spec.digest());
        let mut renamed = spec.clone();
        renamed.name.push('x');
        prop_assert_ne!(renamed.digest(), spec.digest());
        let mut reseeded = spec.clone();
        reseeded.seed = reseeded.seed.wrapping_add(1);
        prop_assert_ne!(reseeded.digest(), spec.digest());
        let mut rebatched = spec.clone();
        rebatched.batch_envs += 1;
        prop_assert_ne!(rebatched.digest(), spec.digest());
    }

    /// Malformed training documents yield typed `SpecError`s, never
    /// panics: junk text, junk fields, wrong kinds, and misspelled
    /// (unknown) keys all come back as `Err`.
    #[test]
    fn malformed_train_specs_error_instead_of_panicking(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let junk = random_junk(&mut rng);
        let _ = TrainSpec::from_json(&junk);
        // A misspelled optional field must be rejected, not defaulted.
        let doc = format!(
            "{{\"kind\":\"train\",\"name\":\"x\",\"seed\":1,\"boot_iter\":{}}}",
            rng.gen_range(0u64..9)
        );
        prop_assert!(TrainSpec::from_json(&doc).is_err());
        // An experiment document is never a training document.
        let exp = random_experiment(seed).to_canonical_json();
        prop_assert!(TrainSpec::from_json(&exp).is_err());
    }

    /// Eq. 2 rewards are bounded by [0, 1] for in-range objectives.
    #[test]
    fn reward_bounded(
        a in 0.01f32..1.0, b in 0.01f32..1.0, c in 0.01f32..1.0,
        o1 in 0.0f32..1.0, o2 in 0.0f32..1.0, o3 in 0.0f32..1.0,
    ) {
        let w = Preference::new(a, b, c);
        let r = w.reward(o1, o2, o3);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&r));
    }
}
