//! Golden-trace regression tests for the sweep-evaluation harness.
//!
//! Each baseline controller runs a small frozen [`SweepSpec`] and the
//! aggregated metrics must match the checked-in fixtures under
//! `tests/fixtures/` to a tight tolerance. Any change to the simulator,
//! the controllers, the RNG streams, or the metric definitions shows up
//! here as a diff against the golden values — intentional changes must
//! regenerate the fixtures and justify the delta in review:
//!
//! ```text
//! cargo test --test golden_sweep -- --ignored regen_golden
//! ```
//!
//! The `sweep-regression` CI job runs this suite twice, with
//! `MOCC_SWEEP_THREADS=1` and with the default worker count, so any
//! scheduling-dependent nondeterminism fails the build.

use mocc::core::{
    cell_event_counts, cell_tx_divisions, evaluator_from_policy, run_experiment,
    run_experiment_cached, run_experiment_with, RunOptions,
};
use mocc::eval::{
    CellReport, CompetitionSpec, ContenderMix, ControlRuns, ExperimentSpec, FlowLoad, MoccPrefSpec,
    PolicySpec, SchemeRegistry, SchemeSpec, SweepReport, SweepRunner, SweepSpec, TraceShape,
};
use mocc::netsim::cc::Aimd;
use mocc::netsim::EventCounts;
use mocc::store::{sha256_hex, ResultStore};
use std::path::PathBuf;

/// Controllers with golden fixtures.
const CONTROLLERS: &[&str] = &["cubic", "bbr", "vegas", "copa"];

/// Per-metric tolerance. Metrics are canonically rounded to 1e-6, so
/// anything beyond 2 ulps of that rounding is a real behaviour change.
const TOL: f64 = 2e-6;

/// The frozen golden spec: 16 cells spanning both new trace shapes and
/// the on/off cross-traffic load. Do not edit without regenerating
/// every fixture — cell indices and seeds depend on the exact values.
fn golden_spec() -> SweepSpec {
    SweepSpec {
        bandwidth_mbps: vec![6.0, 12.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![200],
        loss: vec![0.0, 0.02],
        shapes: vec![
            TraceShape::Constant,
            TraceShape::Oscillating {
                steps: 2,
                dwell_s: 2.0,
            },
        ],
        loads: vec![FlowLoad::OnOffCross(1)],
        duration_s: 8,
        mss_bytes: 1500,
        seed: 42,
        agent_mi: true,
    }
}

/// The frozen replay golden: CUBIC over two recorded cellular traces
/// (LTE drive, 5G mmWave blockage) crossed with a greedy flow and an
/// RPC request-response load — 8 cells. Trace paths are relative to
/// the workspace root, where root-package tests run. Do not edit
/// without regenerating the fixture; editing the trace *files*
/// changes their content digests (and so the cache keys) but the
/// golden bytes only through the simulated rates.
fn golden_replay_spec() -> SweepSpec {
    SweepSpec {
        bandwidth_mbps: vec![12.0],
        owd_ms: vec![20, 60],
        queue_pkts: vec![200],
        loss: vec![0.0],
        shapes: vec![
            TraceShape::replay("examples/traces/lte_drive.json"),
            TraceShape::replay("examples/traces/nr5g_blockage.json"),
        ],
        loads: vec![FlowLoad::Steady(1), FlowLoad::RpcCross(1)],
        duration_s: 8,
        mss_bytes: 1500,
        seed: 42,
        agent_mi: true,
    }
}

fn golden_replay_experiment() -> ExperimentSpec {
    ExperimentSpec::from_sweep(
        "replay",
        SchemeSpec::parse("cubic").expect("cubic parses"),
        &golden_replay_spec(),
    )
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden_{name}.json"))
}

/// The frozen golden competition matrix: baseline duels plus staircase
/// churn over two RTT classes (6 cells). Do not edit without
/// regenerating every competition fixture — cell indices and seeds
/// depend on the exact values.
fn golden_competition_spec() -> CompetitionSpec {
    CompetitionSpec {
        mixes: vec![
            ContenderMix::duel("cubic", "bbr"),
            ContenderMix::duel("vegas", "copa"),
            ContenderMix::staircase("cubic", 3, 4.0),
        ],
        bandwidth_mbps: vec![12.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![120],
        duration_s: 24,
        mss_bytes: 1500,
        seed: 42,
        agent_mi: true,
        tcp_baseline: "cubic".to_string(),
        fair_jain: 0.9,
        fair_sustain_s: 3,
    }
}

/// The frozen MOCC competition matrix: a mixed-preference MOCC pair
/// and a MOCC-vs-TCP duel, driven through the policy evaluator. The
/// fair-share bar is the paper's qualitative no-starvation claim
/// (Jain ≥ 0.75 sustained), not strict equality — an untrained
/// fixed-seed policy reliably clears it, which keeps the fixture
/// reproducible without shipping a trained model.
fn golden_competition_mocc_spec() -> CompetitionSpec {
    CompetitionSpec {
        mixes: vec![
            ContenderMix::duel("mocc:thr", "mocc:lat"),
            ContenderMix::duel("mocc:bal", "cubic"),
        ],
        bandwidth_mbps: vec![10.0],
        owd_ms: vec![20],
        queue_pkts: vec![120],
        duration_s: 20,
        mss_bytes: 1500,
        seed: 42,
        agent_mi: true,
        tcp_baseline: "cubic".to_string(),
        fair_jain: 0.75,
        fair_sustain_s: 3,
    }
}

/// The policy section behind the MOCC competition fixture: a
/// fixed-seed (untrained) agent, deterministic across platforms via
/// the vendored RNG — entirely described by spec data, so the same
/// fixture is reproducible from a spec file alone.
fn golden_policy() -> PolicySpec {
    PolicySpec {
        path: None,
        seed: 11,
        config: "fast".to_string(),
        preference: MoccPrefSpec::Balanced,
        initial_rate_frac: 0.3,
        batch: 4,
        fast_math: false,
    }
}

/// The golden experiments as declarative documents: what the spec
/// files under `examples/specs/` contain and what every golden run in
/// this suite executes.
fn golden_experiment(controller: &str) -> ExperimentSpec {
    ExperimentSpec::from_sweep(
        controller,
        SchemeSpec::parse(controller).expect("golden controller parses"),
        &golden_spec(),
    )
}

fn golden_competition_experiment() -> ExperimentSpec {
    ExperimentSpec::from_competition("mix", &golden_competition_spec())
}

fn golden_competition_mocc_experiment() -> ExperimentSpec {
    let mut exp =
        ExperimentSpec::from_competition("mocc-competition", &golden_competition_mocc_spec());
    exp.policy = Some(golden_policy());
    exp
}

fn assert_cell_close(got: &CellReport, want: &CellReport, ctrl: &str) {
    assert_eq!(got.index, want.index, "{ctrl}: cell order changed");
    assert_eq!(
        got.seed, want.seed,
        "{ctrl}[{}]: seed derivation changed",
        got.index
    );
    assert_eq!(got.shape, want.shape, "{ctrl}[{}]", got.index);
    assert_eq!(got.load, want.load, "{ctrl}[{}]", got.index);
    let fields: [(&str, f64, f64); 8] = [
        ("goodput_mbps", got.goodput_mbps, want.goodput_mbps),
        ("mean_rtt_ms", got.mean_rtt_ms, want.mean_rtt_ms),
        ("p95_rtt_ms", got.p95_rtt_ms, want.p95_rtt_ms),
        ("loss_rate", got.loss_rate, want.loss_rate),
        ("utilization", got.utilization, want.utilization),
        ("latency_ratio", got.latency_ratio, want.latency_ratio),
        ("jain", got.jain, want.jain),
        ("utility", got.utility, want.utility),
    ];
    for (field, g, w) in fields {
        assert!(
            (g - w).abs() <= TOL,
            "{ctrl}[{}].{field}: got {g}, golden {w} (Δ {:+e}); if intentional, \
             regenerate with `cargo test --test golden_sweep -- --ignored regen_golden`",
            got.index,
            g - w,
        );
    }
}

fn check_golden(name: &str) {
    let path = fixture_path(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; generate it with \
             `cargo test --test golden_sweep -- --ignored regen_golden`",
            path.display()
        )
    });
    let want = SweepReport::from_json(&text).expect("fixture parses");
    let got = run_experiment(&SweepRunner::auto(), &golden_experiment(name))
        .expect("golden experiment is valid");
    assert_eq!(
        got.cells.len(),
        want.cells.len(),
        "{name}: cell count changed"
    );
    for (g, w) in got.cells.iter().zip(&want.cells) {
        assert_cell_close(g, w, name);
    }
    assert!(
        (got.summary.mean_utility - want.summary.mean_utility).abs() <= TOL,
        "{name}: summary utility drifted: {} vs {}",
        got.summary.mean_utility,
        want.summary.mean_utility
    );
}

#[test]
fn golden_cubic() {
    check_golden("cubic");
}

#[test]
fn golden_bbr() {
    check_golden("bbr");
}

#[test]
fn golden_vegas() {
    check_golden("vegas");
}

#[test]
fn golden_copa() {
    check_golden("copa");
}

/// The redesign is behavior-preserving (acceptance criterion): the
/// unified `run_experiment(&runner, &ExperimentSpec)` path reproduces every
/// classic golden fixture byte for byte, spec document in, canonical
/// JSON out.
#[test]
fn golden_fixtures_byte_identical_via_experiment_spec() {
    for name in CONTROLLERS {
        let fixture = std::fs::read_to_string(fixture_path(name)).expect("fixture present");
        let exp = golden_experiment(name);
        let got = run_experiment(&SweepRunner::auto(), &exp).expect("valid golden experiment");
        assert_eq!(
            got.to_canonical_json(),
            fixture,
            "{name}: the ExperimentSpec path drifted from the golden fixture"
        );
        // ... and surviving a JSON round trip changes nothing: what
        // runs from a spec *file* is what runs from code.
        let reparsed = ExperimentSpec::from_json(&exp.to_canonical_json()).unwrap();
        let via_file = run_experiment(&SweepRunner::auto(), &reparsed).unwrap();
        assert_eq!(
            via_file.to_canonical_json(),
            fixture,
            "{name}: JSON round trip drifted"
        );
    }
}

/// Golden replay fixture: recorded-trace cells reproduce
/// `golden_replay.json` byte for byte, through the spec-driven path.
/// The `sweep-regression` CI job runs this at 1 thread and at the
/// default worker count.
#[test]
fn golden_replay() {
    let path = fixture_path("replay");
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; generate it with \
             `cargo test --test golden_sweep -- --ignored regen_golden`",
            path.display()
        )
    });
    let got = run_experiment(&SweepRunner::auto(), &golden_replay_experiment())
        .expect("valid golden replay experiment");
    assert_eq!(
        got.to_canonical_json(),
        fixture,
        "replay sweep drifted from the golden fixture; if intentional, \
         regenerate with `cargo test --test golden_sweep -- --ignored regen_golden`"
    );
}

/// Golden competition fixtures: the frozen contender-mix matrix must
/// reproduce `golden_competition_baselines.json` byte for byte. The
/// `sweep-regression` CI job runs this at 1 thread and at the default
/// worker count, so scheduling can never perturb competition results.
#[test]
fn golden_competition_baselines() {
    let path = fixture_path("competition_baselines");
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; generate it with \
             `cargo test --test golden_sweep -- --ignored regen_golden`",
            path.display()
        )
    });
    let got = run_experiment(&SweepRunner::auto(), &golden_competition_experiment())
        .expect("valid golden competition experiment");
    assert_eq!(
        got.to_canonical_json(),
        fixture,
        "competition sweep drifted from the golden fixture; if intentional, \
         regenerate with `cargo test --test golden_sweep -- --ignored regen_golden`"
    );
}

/// Golden MOCC competition fixture: mixed-preference MOCC duels driven
/// through the policy evaluator reproduce
/// `golden_competition_mocc.json` byte for byte.
#[test]
fn golden_competition_mocc() {
    let path = fixture_path("competition_mocc");
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; generate it with \
             `cargo test --test golden_sweep -- --ignored regen_golden`",
            path.display()
        )
    });
    let got = run_experiment(&SweepRunner::auto(), &golden_competition_mocc_experiment())
        .expect("valid golden MOCC competition experiment");
    assert_eq!(
        got.to_canonical_json(),
        fixture,
        "MOCC competition drifted from the golden fixture; if intentional, \
         regenerate with `cargo test --test golden_sweep -- --ignored regen_golden`"
    );
}

/// Acceptance gate for the competition subsystem: the report is
/// byte-identical across 1 vs 4 worker threads, and the paper's
/// qualitative fairness claims come out finite — the mixed-preference
/// MOCC pair and the MOCC-vs-cubic cell each produce a Jain index, a
/// friendliness ratio, and a time-to-fair-share.
#[test]
fn competition_report_identical_across_threads() {
    let exp = golden_competition_mocc_experiment();
    let serial = run_experiment(&SweepRunner::with_threads(1), &exp).unwrap();
    let quad = run_experiment(&SweepRunner::with_threads(4), &exp).unwrap();
    assert_eq!(
        serial.to_canonical_json(),
        quad.to_canonical_json(),
        "thread count changed the competition report"
    );
    for cell in &serial.cells {
        assert!(
            cell.jain > 0.0 && cell.jain <= 1.0,
            "{}: Jain {}",
            cell.load,
            cell.jain
        );
        let friendliness = cell
            .friendliness
            .unwrap_or_else(|| panic!("{}: no friendliness ratio", cell.load));
        assert!(
            friendliness.is_finite() && friendliness > 0.0,
            "{}: friendliness {friendliness}",
            cell.load
        );
        let convergence = cell
            .convergence_s
            .unwrap_or_else(|| panic!("{}: fair share never reached", cell.load));
        assert!(
            convergence.is_finite() && convergence >= 0.0,
            "{}: convergence {convergence}",
            cell.load
        );
    }
}

/// A `mocc:thr` policy *sweep* — steady, on/off and RPC loads over a
/// constant and an oscillating link, so cells finish at different
/// monitor intervals — under [`golden_policy`]. The goldens pin policy
/// cells only inside competitions; this pins the sweep side.
fn pinned_policy_sweep() -> ExperimentSpec {
    let spec = SweepSpec {
        bandwidth_mbps: vec![6.0, 12.0],
        owd_ms: vec![20],
        queue_pkts: vec![120],
        loss: vec![0.0, 0.01],
        shapes: vec![
            TraceShape::Constant,
            TraceShape::Oscillating {
                steps: 2,
                dwell_s: 2.0,
            },
        ],
        loads: vec![
            FlowLoad::Steady(2),
            FlowLoad::OnOffCross(1),
            FlowLoad::RpcCross(1),
        ],
        duration_s: 3,
        mss_bytes: 1500,
        seed: 5,
        agent_mi: true,
    };
    let scheme = SchemeSpec::parse("mocc:thr").expect("mocc:thr parses");
    let mut exp = ExperimentSpec::from_sweep("policy-sweep", scheme, &spec);
    exp.policy = Some(golden_policy());
    exp
}

/// A 30 s policy competition: three policy flows pausing one simulator,
/// a policy flow against cubic, and a staircase whose early flows
/// depart (their monitor intervals are drained, not inferred).
fn pinned_policy_competition() -> ExperimentSpec {
    let spec = CompetitionSpec {
        mixes: vec![
            ContenderMix::parse("duel:mocc:thr+mocc:lat+mocc:bal").expect("mix parses"),
            ContenderMix::duel("mocc:bal", "cubic"),
            ContenderMix::staircase("mocc:bal", 3, 4.0),
        ],
        bandwidth_mbps: vec![12.0],
        owd_ms: vec![20],
        queue_pkts: vec![120],
        duration_s: 30,
        mss_bytes: 1500,
        seed: 5,
        agent_mi: true,
        tcp_baseline: "cubic".to_string(),
        fair_jain: 0.75,
        fair_sustain_s: 3,
    };
    let mut exp = ExperimentSpec::from_competition("policy-competition", &spec);
    exp.policy = Some(golden_policy());
    exp
}

/// Absolute bytes of the policy path: each canonical report hashes to
/// one frozen literal at every worker count, and whatever
/// `policy.batch` says — the field is parsed and carried but nothing
/// reads it.
#[test]
fn policy_reports_match_the_pinned_digests() {
    for (exp, want) in [
        (
            pinned_policy_sweep(),
            "d8ffcdcf5055a6029cd2e2e20f66b2221fd4b132373f1682d6db282a865742e5",
        ),
        (
            pinned_policy_competition(),
            "eebf51f83b5529a67a6fac427d0386f88bcb24f97b738f3400b2c0dfa65e5d6c",
        ),
    ] {
        for (threads, batch) in [(1, 1), (4, 32)] {
            let mut exp = exp.clone();
            exp.policy.as_mut().unwrap().batch = batch;
            let report = run_experiment(&SweepRunner::with_threads(threads), &exp).unwrap();
            assert_eq!(
                sha256_hex(report.to_canonical_json().as_bytes()),
                want,
                "{} moved at {threads} thread(s), policy.batch {batch}",
                exp.name
            );
        }
    }
}

/// A competition document shaped like the benchmark's (`benchmark/src/
/// gen.rs`, `competition_doc`): 2 bandwidths × 2 delays × 2 queues ×
/// the four `mixes`, 30 s, the policy section `{config: default,
/// batch: 32}` when a `mocc` label needs it.
fn benchmark_competition(name: &str, mixes: &[&str], seed: u64) -> ExperimentSpec {
    let spec = CompetitionSpec {
        mixes: mixes
            .iter()
            .map(|m| ContenderMix::parse(m).expect("mix parses"))
            .collect(),
        bandwidth_mbps: vec![12.0, 24.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![100, 400],
        duration_s: 30,
        seed,
        ..CompetitionSpec::quick()
    };
    let mut exp = ExperimentSpec::from_competition(name, &spec);
    if exp.needs_policy() {
        exp.policy = Some(PolicySpec {
            seed: 11,
            config: "default".to_string(),
            batch: 32,
            ..PolicySpec::default()
        });
    }
    exp
}

/// The benchmark's `mocc-competition` document at `seed`.
fn benchmark_mocc_competition(seed: u64) -> ExperimentSpec {
    benchmark_competition(
        "mocc-competition",
        &[
            "duel:mocc:thr+mocc:lat",
            "duel:mocc:bal+cubic",
            "duel:mocc:thr+mocc:lat+mocc:bal",
            "stair:mocc:bal:3x4",
        ],
        seed,
    )
}

/// The benchmark's `classic-competition` document at `seed`.
fn benchmark_classic_competition(seed: u64) -> ExperimentSpec {
    benchmark_competition(
        "classic-competition",
        &[
            "duel:cubic+bbr",
            "duel:vegas+copa",
            "stair:cubic:3x4",
            "incast:cubic:8x0.5",
        ],
        seed,
    )
}

/// Absolute bytes of the benchmark's two competition documents at seed
/// 1: each report hashes to the literal `mocc run --out FILE` writes
/// for that document, at one worker and at two.
#[test]
fn benchmark_competitions_match_the_pinned_digests() {
    for (exp, want) in [
        (
            benchmark_mocc_competition(1),
            "e6b0542535bddb185055345379437dbe342ece5d11a8cba1886527118d1d7904",
        ),
        (
            benchmark_classic_competition(1),
            "e4a4f81004fc8c5f4e87a257d5167c535ac941b3d35a64668698a2ea96c7eb92",
        ),
    ] {
        for threads in [1, 2] {
            let report = run_experiment(&SweepRunner::with_threads(threads), &exp).unwrap();
            assert_eq!(
                sha256_hex(report.to_canonical_json().as_bytes()),
                want,
                "{} moved at {threads} thread(s)",
                exp.name
            );
        }
    }
}

/// The exact witness of shared friendliness controls, on the shapes of
/// the benchmark's competition documents. Per network the per-cell
/// path simulated one 30 s control for each mix that is not all
/// `cubic`: 4 × 8 = 32 (960 s) for `mocc-competition` and 2 × 8 = 16
/// (480 s) for `classic-competition`. Shared, the two 2-flow duels of
/// a network run one control, and a `stair:…:3x4` control stops at the
/// first leave, 22 s. Each policy preference is folded once per run.
#[test]
fn benchmark_competitions_share_their_controls() {
    for (exp, controls, folds) in [
        (
            benchmark_mocc_competition(1),
            ControlRuns {
                simulations: 24,
                horizon_s: 656,
            },
            3,
        ),
        (
            benchmark_classic_competition(1),
            ControlRuns {
                simulations: 8,
                horizon_s: 240,
            },
            0,
        ),
    ] {
        let policy = exp.policy.clone().unwrap_or_default();
        let evaluator = evaluator_from_policy(&policy, None).unwrap();
        SweepRunner::with_threads(1).run(&exp, &evaluator, None);
        assert_eq!(evaluator.control_runs(), controls, "{}", exp.name);
        assert_eq!(evaluator.preference_folds(), folds, "{}", exp.name);
    }
}

/// The benchmark harness's `pcc-vivace` document (216 cells, seed 2).
/// Cell 100 — 12 Mbps, 10 ms, queue 400, loss 0.01, constant link,
/// `onoff:1` — is its 3.3 M-event straggler: an app-limited paced
/// cross flow whose wake-ups, pacing timers, departures and ACKs pile
/// onto the same nanoseconds, so the report depends on every
/// same-instant tie-break of the scheduler.
fn pinned_vivace_grid() -> ExperimentSpec {
    let spec = SweepSpec {
        bandwidth_mbps: vec![6.0, 12.0, 24.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![100, 400],
        loss: vec![0.0, 0.01],
        shapes: vec![
            TraceShape::Constant,
            TraceShape::Oscillating {
                steps: 2,
                dwell_s: 2.0,
            },
            TraceShape::replay("examples/traces/nr5g_blockage.json"),
        ],
        loads: vec![
            FlowLoad::Steady(1),
            FlowLoad::OnOffCross(1),
            FlowLoad::RpcCross(1),
        ],
        duration_s: 5,
        mss_bytes: 1500,
        seed: 2,
        agent_mi: true,
    };
    let scheme = SchemeSpec::parse("pcc-vivace").expect("pcc-vivace parses");
    ExperimentSpec::from_sweep("pcc-vivace", scheme, &spec)
}

/// 16 externally paced `mocc:thr` cells against the on/off cross flow.
fn pinned_onoff_policy_sweep() -> ExperimentSpec {
    policy_sweep_under(FlowLoad::OnOffCross(1))
}

/// [`pinned_onoff_policy_sweep`] with `load` in place of the on/off
/// cross flow: the same cells, indices and seeds.
fn policy_sweep_under(load: FlowLoad) -> ExperimentSpec {
    let spec = SweepSpec {
        bandwidth_mbps: vec![6.0, 12.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![100, 400],
        loss: vec![0.0],
        shapes: vec![
            TraceShape::Constant,
            TraceShape::Oscillating {
                steps: 2,
                dwell_s: 2.0,
            },
        ],
        loads: vec![load],
        duration_s: 2,
        mss_bytes: 1500,
        seed: 1,
        agent_mi: true,
    };
    let scheme = SchemeSpec::parse("mocc:thr").expect("mocc:thr parses");
    let mut exp = ExperimentSpec::from_sweep("mocc-thr-onoff", scheme, &spec);
    exp.policy = Some(golden_policy());
    exp
}

/// bbr — the one scheme that is both windowed and paced — with many
/// flows, staggered joins and departures.
fn pinned_bbr_churn() -> ExperimentSpec {
    let spec = CompetitionSpec {
        mixes: vec![
            ContenderMix::parse("incast:bbr:8x0.5").expect("mix parses"),
            ContenderMix::staircase("bbr", 3, 4.0),
            ContenderMix::duel("bbr", "cubic"),
        ],
        bandwidth_mbps: vec![12.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![100],
        duration_s: 20,
        mss_bytes: 1500,
        seed: 3,
        agent_mi: true,
        tcp_baseline: "cubic".to_string(),
        fair_jain: 0.9,
        fair_sustain_s: 3,
    };
    ExperimentSpec::from_competition("bbr-churn", &spec)
}

/// Absolute bytes of the reports most sensitive to the simulator's
/// event order: whatever structure holds pending events, it must pop
/// them in `(time, schedule order)` order or one of these moves.
#[test]
fn event_order_reports_match_the_pinned_digests() {
    for (exp, want) in [
        (
            pinned_vivace_grid(),
            "207886e75dcc2ee7b61f69cb1de4e319cbaec9449e759915d5de628a6aa00dbd",
        ),
        (
            pinned_onoff_policy_sweep(),
            "ec4fadcd78414cc214a5b8d2214276c4b8b7dcb2d5840766c5ffbef18e027193",
        ),
        (
            pinned_bbr_churn(),
            "08d3166711d3effb6a50a2946aa65a559127166a8961839e49c7b7ca0f2114cf",
        ),
    ] {
        for threads in [1, 4] {
            let report = run_experiment(&SweepRunner::with_threads(threads), &exp).unwrap();
            assert_eq!(
                sha256_hex(report.to_canonical_json().as_bytes()),
                want,
                "{} moved at {threads} thread(s)",
                exp.name
            );
        }
    }
}

/// Exact event counts, which no machine can move: a simulator change
/// that adds events fails here on any runner. Cell 99 of
/// [`pinned_vivace_grid`] is cell 100's `steady:1` neighbour (same link,
/// greedy flows only); cell 100 is the on/off cell whose wake-ups once
/// set the benchmark's `overdriven_sweep` wall time. Every on/off cell
/// of [`pinned_onoff_policy_sweep`] costs at most three times the events
/// of the same cell under `steady:1`.
#[test]
fn event_counts_match_the_pinned_literals() {
    let count = |exp: &ExperimentSpec, cell| cell_event_counts(exp, cell).expect("the cell exists");
    let grid = pinned_vivace_grid();
    assert_eq!(
        count(&grid, 99),
        EventCounts {
            flow_start: 1,
            flow_stop: 0,
            pacing: 1008,
            departure: 1017,
            ack: 1004,
            monitor: 125,
            app_wake: 0,
        }
    );
    assert_eq!(
        count(&grid, 100),
        EventCounts {
            flow_start: 2,
            flow_stop: 0,
            pacing: 3210,
            departure: 3268,
            ack: 3226,
            monitor: 225,
            app_wake: 502,
        }
    );
    let (onoff, steady) = (
        pinned_onoff_policy_sweep(),
        policy_sweep_under(FlowLoad::Steady(1)),
    );
    for cell in 0..onoff.cell_count() {
        let (onoff, steady) = (count(&onoff, cell).total(), count(&steady, cell).total());
        assert!(
            onoff <= 3 * steady,
            "cell {cell}: {onoff} events under onoff:1 against {steady} under steady:1"
        );
    }
}

/// One cubic flow alone on a constant 12 Mbps link for 5 s.
fn constant_cubic_cell() -> ExperimentSpec {
    let spec = SweepSpec {
        bandwidth_mbps: vec![12.0],
        owd_ms: vec![20],
        queue_pkts: vec![100],
        loss: vec![0.0],
        shapes: vec![TraceShape::Constant],
        loads: vec![FlowLoad::Steady(1)],
        duration_s: 5,
        mss_bytes: 1500,
        seed: 3,
        agent_mi: false,
    };
    ExperimentSpec::from_sweep("cubic", SchemeSpec::parse("cubic").unwrap(), &spec)
}

/// Exact counts of the link service times and pacing gaps a cell
/// computes (`Simulator::tx_divisions`): one per change of packet size
/// or rate. Before the simulator recalled the last one, every service
/// start and every paced emission divided: 6 538 times in cell 100 of
/// [`pinned_vivace_grid`] (3 268 departures, 3 269 paced packets and
/// the departure pending at the horizon), 4 948 times in the
/// constant-link cubic cell (its 4 947 departures and the pending one;
/// cubic does not pace). The event counts are those of
/// [`event_counts_match_the_pinned_literals`]: recalling a service time
/// moves no event.
#[test]
fn tx_divisions_match_the_pinned_literals() {
    let grid = pinned_vivace_grid();
    assert_eq!(cell_tx_divisions(&grid, 100).unwrap(), 188);
    assert_eq!(cell_event_counts(&grid, 100).unwrap().departure, 3268);
    let cubic = constant_cubic_cell();
    assert_eq!(cell_tx_divisions(&cubic, 0).unwrap(), 1);
    assert_eq!(cell_event_counts(&cubic, 0).unwrap().departure, 4947);
}

/// The 64-cell matrix of [`parallel_sweep_is_byte_identical_to_serial`].
fn aimd_sweep() -> ExperimentSpec {
    let spec = SweepSpec {
        bandwidth_mbps: vec![2.0, 4.0],
        owd_ms: vec![10, 30],
        queue_pkts: vec![50, 200],
        loss: vec![0.0, 0.01],
        shapes: vec![TraceShape::Constant, TraceShape::Square { period_s: 2.0 }],
        loads: vec![FlowLoad::Steady(1), FlowLoad::Steady(2)],
        duration_s: 4,
        mss_bytes: 1500,
        seed: 11,
        agent_mi: false,
    };
    assert_eq!(spec.cell_count(), 64);
    ExperimentSpec::from_sweep("aimd", SchemeSpec::parse("aimd").unwrap(), &spec)
}

/// Runs `exp` against the built-in vocabulary plus a test-only `aimd`
/// scheme.
fn run_aimd(threads: usize, exp: &ExperimentSpec) -> SweepReport {
    let registry =
        SchemeRegistry::builtin().with_scheme("aimd", "test AIMD", |_| Box::new(Aimd::new()));
    let opts = RunOptions {
        registry: Some(&registry),
        ..RunOptions::default()
    };
    run_experiment_with(&SweepRunner::with_threads(threads), exp, opts)
        .expect("aimd is registered")
        .0
}

/// Acceptance gate for the harness itself: a 64-cell matrix sharded
/// over 4 threads produces canonical JSON byte-identical to a
/// single-threaded run of the same spec.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let exp = aimd_sweep();
    assert_eq!(
        run_aimd(1, &exp).to_canonical_json(),
        run_aimd(4, &exp).to_canonical_json(),
        "parallel execution changed the report"
    );
}

/// An aimd competition: a duel, a staircase and an incast, with aimd
/// as the friendliness control.
fn aimd_competition() -> ExperimentSpec {
    let spec = CompetitionSpec {
        mixes: ["duel:aimd+cubic", "stair:aimd:3x4", "incast:aimd:4x0.5"]
            .iter()
            .map(|m| ContenderMix::parse(m).expect("mix parses"))
            .collect(),
        bandwidth_mbps: vec![12.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![100],
        duration_s: 20,
        mss_bytes: 1500,
        seed: 3,
        agent_mi: true,
        tcp_baseline: "aimd".to_string(),
        fair_jain: 0.9,
        fair_sustain_s: 3,
    };
    ExperimentSpec::from_competition("aimd-competition", &spec)
}

/// Absolute bytes of a custom-registry sweep and competition: each
/// canonical report hashes to one frozen literal at every worker count.
#[test]
fn custom_registry_reports_match_the_pinned_digests() {
    for (exp, want) in [
        (
            aimd_sweep(),
            "a5d05e3eb21d2c742c020c6fa343d88f0bff5b5b4973edbd3255b46b763443cc",
        ),
        (
            aimd_competition(),
            "0ad3e0148168af916b6c5f3cc67d0ecbaa95d07851051e296f7fdf0c7ea10ab8",
        ),
    ] {
        for threads in [1, 4] {
            assert_eq!(
                sha256_hex(run_aimd(threads, &exp).to_canonical_json().as_bytes()),
                want,
                "{} moved at {threads} thread(s)",
                exp.name
            );
        }
    }
}

/// A competition of a `mocc` flow against a custom registry scheme runs,
/// and its answer is known: `cubic-alias` builds exactly what `cubic`
/// builds, so the report equals the same spec spelled with `cubic` in
/// every field but `mix` — uncached, and cold and warm through a store.
#[test]
fn mixed_policy_and_custom_scheme_competition_equals_its_builtin_spelling() {
    let registry = SchemeRegistry::builtin().with_scheme("cubic-alias", "cubic, renamed", |_| {
        Box::new(mocc::cc::Cubic::new())
    });
    let spelled = |contender: &str| {
        let spec = CompetitionSpec {
            mixes: vec![ContenderMix::duel("mocc:thr", contender)],
            tcp_baseline: contender.to_string(),
            ..golden_competition_mocc_spec()
        };
        let mut exp = ExperimentSpec::from_competition("mocc-vs-custom", &spec);
        exp.policy = Some(golden_policy());
        exp
    };
    let without_mix = |mut report: SweepReport| {
        for cell in &mut report.cells {
            cell.mix = None;
        }
        report.to_canonical_json()
    };
    let dir = std::env::temp_dir().join(format!("mocc-mixed-custom-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("open store");
    let runner = SweepRunner::with_threads(2);
    for cache in [None, Some((&store, 1)), Some((&store, 2))] {
        let opts = RunOptions {
            registry: Some(&registry),
            cache,
        };
        let (alias, stats) = run_experiment_with(&runner, &spelled("cubic-alias"), opts)
            .expect("a custom contender competes with mocc flows");
        let (cubic, _) = run_experiment_with(&runner, &spelled("cubic"), opts).expect("valid");
        assert_eq!(
            alias.cells[0].mix.as_deref(),
            Some("duel:mocc:thr+cubic-alias")
        );
        assert_eq!(without_mix(alias), without_mix(cubic), "cache {cache:?}");
        assert_eq!(stats.hits > 0, cache.is_some_and(|(_, ts)| ts == 2));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn example_spec_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/specs")
        .join(format!("{name}.json"))
}

/// The shipped example spec files are exactly the golden experiments:
/// each must parse, validate, and — run from the file alone, through
/// the full spec-driven path — reproduce its committed golden report
/// byte for byte. This is the same check CI's `spec-cli` job performs
/// through the `mocc` binary, pinned here so `cargo test` catches
/// drift without the CLI.
#[test]
fn example_spec_files_reproduce_the_goldens() {
    for (spec_file, fixture) in [
        ("sweep_cubic", "cubic"),
        ("competition_mocc", "competition_mocc"),
        ("sweep_replay", "replay"),
    ] {
        let path = example_spec_path(spec_file);
        let exp = ExperimentSpec::load(&path).unwrap_or_else(|e| {
            panic!(
                "{e}; regenerate spec files with \
                 `cargo test --test golden_sweep -- --ignored regen_golden`"
            )
        });
        exp.validate().expect("shipped spec validates");
        let report = run_experiment(&SweepRunner::auto(), &exp).expect("shipped spec runs");
        let want = std::fs::read_to_string(fixture_path(fixture)).expect("fixture present");
        assert_eq!(
            report.to_canonical_json(),
            want,
            "{spec_file}.json no longer reproduces golden_{fixture}.json"
        );
    }
}

/// The cache acceptance gate (docs/CACHING.md): run from the shipped
/// spec files through the memoized path against a fresh store, the
/// cold run simulates every cell and the warm run simulates **zero**
/// cells — and both reproduce the committed golden byte for byte.
/// This is the library-level twin of CI's `spec-cli` cached-run
/// check through the `mocc` binary.
#[test]
fn cached_example_specs_reproduce_goldens_with_zero_cells_simulated() {
    let dir = std::env::temp_dir().join(format!("mocc-golden-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("open store");
    for (spec_file, fixture) in [
        ("sweep_cubic", "cubic"),
        ("competition_mocc", "competition_mocc"),
        ("sweep_replay", "replay"),
    ] {
        let exp = ExperimentSpec::load(&example_spec_path(spec_file)).expect("spec loads");
        let want = std::fs::read_to_string(fixture_path(fixture)).expect("fixture present");
        let (cold, stats) =
            run_experiment_cached(&SweepRunner::auto(), &exp, &store, 1).expect("cold cached run");
        assert_eq!(stats.hits, 0, "{spec_file}: cold run hit a fresh store");
        assert_eq!(stats.misses as usize, exp.cell_count());
        assert_eq!(
            cold.to_canonical_json(),
            want,
            "{spec_file}: cold cached run drifted from golden_{fixture}.json"
        );
        let (warm, stats) =
            run_experiment_cached(&SweepRunner::auto(), &exp, &store, 2).expect("warm cached run");
        assert!(
            stats.all_hits(),
            "{spec_file}: warm run simulated {} cells",
            stats.misses
        );
        assert_eq!(
            warm.to_canonical_json(),
            want,
            "{spec_file}: warm cached run drifted from golden_{fixture}.json"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regenerates every golden fixture — and the example spec files that
/// reproduce them — in place. Ignored by default; run explicitly after
/// an intentional behaviour change:
///
/// ```text
/// cargo test --test golden_sweep -- --ignored regen_golden
/// ```
///
/// Regeneration deliberately never reads a result store: every
/// fixture below comes from an uncached simulation, so a stale cache
/// can never leak old cells into new goldens. Before anything is
/// written, a cached cross-check against a **fresh** temporary store
/// must agree with the uncached bytes (and be all-miss, proving no
/// pre-existing store was consulted).
#[test]
#[ignore = "writes tests/fixtures/golden_*.json; run explicitly to regenerate"]
fn regen_golden() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let runner = SweepRunner::auto();
    let mut regenerated: Vec<(PathBuf, ExperimentSpec, String)> = Vec::new();
    for name in CONTROLLERS {
        let report = run_experiment(&runner, &golden_experiment(name)).expect("valid");
        regenerated.push((
            fixture_path(name),
            golden_experiment(name),
            report.to_canonical_json(),
        ));
    }
    let competition = run_experiment(&runner, &golden_competition_experiment()).expect("valid");
    regenerated.push((
        fixture_path("competition_baselines"),
        golden_competition_experiment(),
        competition.to_canonical_json(),
    ));
    let mocc = run_experiment(&runner, &golden_competition_mocc_experiment()).expect("valid");
    regenerated.push((
        fixture_path("competition_mocc"),
        golden_competition_mocc_experiment(),
        mocc.to_canonical_json(),
    ));
    let replay = run_experiment(&runner, &golden_replay_experiment()).expect("valid");
    regenerated.push((
        fixture_path("replay"),
        golden_replay_experiment(),
        replay.to_canonical_json(),
    ));
    let cross_dir =
        std::env::temp_dir().join(format!("mocc-regen-crosscheck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cross_dir);
    let cross_store = ResultStore::open(&cross_dir).expect("open cross-check store");
    for (path, exp, json) in &regenerated {
        let (cached, stats) =
            run_experiment_cached(&runner, exp, &cross_store, 1).expect("cross-check runs");
        assert_eq!(
            stats.hits,
            0,
            "{}: regen cross-check was served from a cache",
            path.display()
        );
        assert_eq!(
            &cached.to_canonical_json(),
            json,
            "{}: cached execution disagrees with the uncached fixture — \
             refusing to regenerate",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&cross_dir);
    for (path, _, json) in &regenerated {
        std::fs::write(path, json).expect("write fixture");
        eprintln!("regenerated {}", path.display());
    }
    // The example spec files stay in lockstep with the frozen golden
    // experiments, so `mocc run examples/specs/<f>.json` reproduces a
    // committed golden with no Rust involved.
    let specs_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    std::fs::create_dir_all(&specs_dir).expect("create specs dir");
    for (file, exp) in [
        ("sweep_cubic", golden_experiment("cubic")),
        ("competition_mocc", golden_competition_mocc_experiment()),
        ("sweep_replay", golden_replay_experiment()),
    ] {
        let path = example_spec_path(file);
        std::fs::write(&path, exp.to_canonical_json()).expect("write spec file");
        eprintln!("regenerated {}", path.display());
    }
}
