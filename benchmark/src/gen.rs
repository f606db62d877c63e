//! Input generators: every document the benchmark feeds to `mocc`.
//!
//! Inputs are a pure function of `--seed`. The seed sets the `seed`
//! field of the generated documents, the `TrainSpec` seed and the serve
//! request order; axis grids, durations and `policy.seed` are
//! constants, so the *shape* of the work never depends on the seed and
//! two seeds differ only in the random draws inside the program.
//!
//! Workloads are resized through the `*_DURATION_S` / iteration
//! constants below, never by dropping an axis: each axis is there
//! because it steers the simulator onto a different path (loss →
//! retransmission and timeout events, `osc`/`replay` → rate changes,
//! `onoff`/`rpc` → application wake-ups and idle restarts).

use mocc_core::TrainSpec;
use mocc_eval::{
    CompetitionSpec, ContenderMix, ExperimentSpec, FlowLoad, PolicySpec, SchemeSpec, SweepSpec,
    TraceShape,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 6] = [
    "classic_sweep",
    "mocc_sweep",
    "overdriven_sweep",
    "cache_cycle",
    "train_offline",
    "serve_session",
];

/// One generated document and the work it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    /// File name under the workload's input directory.
    pub file: String,
    /// Canonical JSON text.
    pub json: String,
    /// Work units: cells of an experiment, environment steps of a
    /// training run.
    pub units: u64,
}

const TRACE: &str = "replay:examples/traces/nr5g_blockage.json";

/// Horizon of the cells of the classic and MOCC sweep documents.
const CLASSIC_DURATION_S: u64 = 12;
const MOCC_DURATION_S: u64 = 6;
/// Competition mixes need room for their join/leave staircases, so
/// their horizon is not resized with the sweeps'.
const COMPETITION_DURATION_S: u64 = 30;
const ONOFF_DURATION_S: u64 = 2;
const VIVACE_DURATION_S: u64 = 5;
/// The pcc-vivace document keeps this seed whatever `--seed` is. Its
/// cost is chaotic in the seed — one cell in a few hundred runs away
/// to tens of millions of events, and which one (if any) does moves
/// the document between 0.1 s and 9 s — so a seeded version would
/// measure the draw, not the program. Pinned, the same straggler cell
/// sets the wall time of every run.
const VIVACE_SEED: u64 = 2;
const CACHE_DURATION_S: u64 = 2;
const SERVE_DURATION_S: u64 = 2;

fn shapes(labels: &[&str]) -> Vec<TraceShape> {
    labels
        .iter()
        .map(|l| TraceShape::parse(l).expect("constant shape label parses"))
        .collect()
}

fn loads(labels: &[&str]) -> Vec<FlowLoad> {
    labels
        .iter()
        .map(|l| FlowLoad::parse(l).expect("constant load label parses"))
        .collect()
}

/// The 216-cell grid shared by the sweep documents: 3 bandwidths × 2
/// delays × 2 queues × 2 loss rates × 3 trace shapes × 3 loads.
fn grid(load_labels: &[&str], duration_s: u64, seed: u64) -> SweepSpec {
    SweepSpec {
        bandwidth_mbps: vec![6.0, 12.0, 24.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![100, 400],
        loss: vec![0.0, 0.01],
        shapes: shapes(&["constant", "osc:2x2", TRACE]),
        loads: loads(load_labels),
        duration_s,
        mss_bytes: 1500,
        seed,
        agent_mi: true,
    }
}

fn policy() -> PolicySpec {
    PolicySpec {
        seed: 11,
        config: "default".to_string(),
        batch: 32,
        ..PolicySpec::default()
    }
}

fn sweep_doc(name: &str, scheme: &str, spec: &SweepSpec) -> Doc {
    let scheme = SchemeSpec::parse(scheme).expect("constant scheme label parses");
    let mut exp = ExperimentSpec::from_sweep(name, scheme, spec);
    if exp.needs_policy() {
        exp.policy = Some(policy());
    }
    doc(exp)
}

fn competition_doc(name: &str, mixes: &[&str], seed: u64) -> Doc {
    let spec = CompetitionSpec {
        mixes: mixes
            .iter()
            .map(|m| ContenderMix::parse(m).expect("constant mix label parses"))
            .collect(),
        bandwidth_mbps: vec![12.0, 24.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![100, 400],
        duration_s: COMPETITION_DURATION_S,
        seed,
        ..CompetitionSpec::quick()
    };
    let mut exp = ExperimentSpec::from_competition(name, &spec);
    if exp.needs_policy() {
        exp.policy = Some(policy());
    }
    doc(exp)
}

fn doc(exp: ExperimentSpec) -> Doc {
    Doc {
        file: format!("{}.json", exp.name),
        units: exp.cell_count() as u64,
        json: exp.to_canonical_json(),
    }
}

/// `classic_sweep`: four heuristic schemes on the 216-cell grid and
/// one classic competition.
pub fn classic_sweep(seed: u64) -> Vec<Doc> {
    let spec = grid(&["steady:1", "onoff:1", "rpc:1"], CLASSIC_DURATION_S, seed);
    let mut docs: Vec<Doc> = ["cubic", "bbr", "copa", "vegas"]
        .iter()
        .map(|s| sweep_doc(s, s, &spec))
        .collect();
    docs.push(competition_doc(
        "classic-competition",
        &[
            "duel:cubic+bbr",
            "duel:vegas+copa",
            "stair:cubic:3x4",
            "incast:cubic:8x0.5",
        ],
        seed,
    ));
    docs
}

/// `mocc_sweep`: the policy under three preferences on the 216-cell
/// grid (without `onoff`, which buries inference under an event
/// storm) and one MOCC competition.
pub fn mocc_sweep(seed: u64) -> Vec<Doc> {
    let spec = grid(&["steady:1", "steady:2", "rpc:1"], MOCC_DURATION_S, seed);
    let mut docs: Vec<Doc> = ["thr", "lat", "bal"]
        .iter()
        .map(|p| sweep_doc(&format!("mocc-{p}"), &format!("mocc:{p}"), &spec))
        .collect();
    docs.push(competition_doc(
        "mocc-competition",
        &[
            "duel:mocc:thr+mocc:lat",
            "duel:mocc:bal+cubic",
            "duel:mocc:thr+mocc:lat+mocc:bal",
            "stair:mocc:bal:3x4",
        ],
        seed,
    ));
    docs
}

/// `overdriven_sweep`: 16 policy cells against `onoff` cross traffic
/// paced at link rate (fewer cells than one inference batch, so one
/// worker does them all), and pcc-vivace on a grid where one cell
/// runs away (see [`VIVACE_SEED`]).
pub fn overdriven_sweep(seed: u64) -> Vec<Doc> {
    let onoff = SweepSpec {
        bandwidth_mbps: vec![6.0, 12.0],
        loss: vec![0.0],
        shapes: shapes(&["constant", "osc:2x2"]),
        ..grid(&["onoff:1"], ONOFF_DURATION_S, seed)
    };
    let vivace = grid(
        &["steady:1", "onoff:1", "rpc:1"],
        VIVACE_DURATION_S,
        VIVACE_SEED,
    );
    vec![
        sweep_doc("mocc-thr-onoff", "mocc:thr", &onoff),
        sweep_doc("pcc-vivace", "pcc-vivace", &vivace),
    ]
}

/// The 16-cell shape shared by the cheap cubic documents of
/// `cache_cycle` and `serve_session`.
fn cheap_cubic(duration_s: u64, seed: u64) -> SweepSpec {
    SweepSpec {
        bandwidth_mbps: vec![4.0, 12.0],
        owd_ms: vec![10, 40],
        queue_pkts: vec![100, 400],
        loss: vec![0.0, 0.01],
        shapes: shapes(&["constant"]),
        loads: loads(&["steady:1"]),
        duration_s,
        mss_bytes: 1500,
        seed,
        agent_mi: true,
    }
}

/// `cache_cycle`: 4096 cheap cubic cells, so that the store, the key
/// derivation and the JSON codec outweigh the simulator.
pub fn cache_cycle(seed: u64) -> Doc {
    let spec = SweepSpec {
        bandwidth_mbps: vec![3.0, 6.0, 12.0, 24.0],
        owd_ms: vec![5, 10, 15, 20, 30, 40, 60, 80],
        queue_pkts: vec![50, 75, 100, 150, 200, 300, 400, 600],
        loss: vec![0.0, 0.001, 0.01, 0.02],
        shapes: shapes(&["constant", "osc:2x2"]),
        loads: loads(&["steady:1", "steady:2"]),
        ..cheap_cubic(CACHE_DURATION_S, seed)
    };
    sweep_doc("cache-cubic", "cubic", &spec)
}

/// `train_offline`: the `fast` preset resized to about a second of
/// training. `units` is the number of environment transitions the
/// schedule collects, counted from the schedule itself.
pub fn train_offline(seed: u64) -> Doc {
    let spec = TrainSpec {
        name: "bench-train".to_string(),
        seed,
        config: "fast".to_string(),
        batch_envs: 4,
        rollout_steps: Some(400),
        episode_mis: Some(200),
        boot_iters: Some(12),
        omega_step: Some(5),
        traverse_cycles: Some(2),
        checkpoint_every: 10,
        ..TrainSpec::default()
    };
    Doc {
        file: "bench-train.json".to_string(),
        units: scheduled_steps(&spec),
        json: spec.to_canonical_json(),
    }
}

/// Environment transitions a training spec schedules: every iteration
/// collects `rollout_steps` for its landmark, and a contrast iteration
/// as many again for the contrast landmark.
pub fn scheduled_steps(spec: &TrainSpec) -> u64 {
    let cfg = spec.resolved_config().expect("generated spec resolves");
    let (_, schedule) = mocc_core::build_schedule(&cfg, spec.regime);
    schedule
        .iter()
        .map(|step| cfg.rollout_steps as u64 * if step.contrast { 2 } else { 1 })
        .sum()
}

/// What one line of a serve session asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// A spec no earlier request of the session carried: 16 misses.
    Miss {
        spec: usize,
    },
    /// A spec sent before: 16 hits.
    Hit {
        spec: usize,
    },
    Ping,
    Stats,
}

/// The request lines of one `mocc serve` session, `shutdown` excluded.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePlan {
    pub requests: Vec<(Request, String)>,
    /// Number of distinct specs (= misses).
    pub specs: usize,
    /// The inline spec as a document of its own, for `mocc validate`.
    pub sample: Doc,
}

/// `run` requests per session; a fifth carry a never-seen spec.
pub const SERVE_RUNS: usize = 600;

fn op(name: &str, spec: Option<Value>) -> String {
    let mut fields = vec![("op", Value::Str(name.to_string()))];
    fields.extend(spec.map(|spec| ("spec", spec)));
    serde_json::to_string(&crate::object(fields)).expect("request serializes")
}

/// `serve_session`: [`SERVE_RUNS`] inline 16-cell cubic specs, 20 %
/// never seen before (all-miss) and 80 % repeats of an earlier one
/// (all-hit) in seeded order, a `ping` after every 10th and a `stats`
/// after every 100th.
pub fn serve_session(seed: u64) -> ServePlan {
    let spec = |i: usize| {
        ExperimentSpec::from_sweep(
            "serve-cubic",
            SchemeSpec::parse("cubic").expect("constant scheme label parses"),
            // Distinct seeds make distinct cache keys; the stride keeps
            // the specs of different `--seed`s apart as well.
            &cheap_cubic(
                SERVE_DURATION_S,
                seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
            ),
        )
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut miss = vec![false; SERVE_RUNS];
    miss[..SERVE_RUNS / 5].fill(true);
    miss[1..].shuffle(&mut rng); // the first request cannot be a repeat
    let mut requests = Vec::new();
    let mut specs = 0;
    for (i, &is_miss) in miss.iter().enumerate() {
        let request = if is_miss {
            specs += 1;
            Request::Miss { spec: specs - 1 }
        } else {
            Request::Hit {
                spec: rng.gen_range(0..specs),
            }
        };
        let (Request::Miss { spec: id } | Request::Hit { spec: id }) = request else {
            unreachable!("run requests carry a spec");
        };
        requests.push((request, op("run", Some(spec(id).to_value()))));
        if (i + 1) % 10 == 0 {
            requests.push((Request::Ping, op("ping", None)));
        }
        if (i + 1) % 100 == 0 {
            requests.push((Request::Stats, op("stats", None)));
        }
    }
    ServePlan {
        requests,
        specs,
        sample: doc(spec(0)),
    }
}

/// The sweep documents of a workload; `None` for the three workloads
/// that are not plain `mocc run` sweeps.
pub fn sweep_docs(workload: &str, seed: u64) -> Option<Vec<Doc>> {
    match workload {
        "classic_sweep" => Some(classic_sweep(seed)),
        "mocc_sweep" => Some(mocc_sweep(seed)),
        "overdriven_sweep" => Some(overdriven_sweep(seed)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every document of every workload, as `(workload, name, text)`.
    fn everything(seed: u64) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for w in WORKLOADS {
            for d in sweep_docs(w, seed).unwrap_or_default() {
                out.push((format!("{w}/{}", d.file), d.json));
            }
        }
        let d = cache_cycle(seed);
        out.push((format!("cache_cycle/{}", d.file), d.json));
        let d = train_offline(seed);
        out.push((format!("train_offline/{}", d.file), d.json));
        let plan = serve_session(seed);
        for (i, (_, line)) in plan.requests.iter().enumerate() {
            out.push((format!("serve_session/{i}"), line.clone()));
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(everything(7), everything(7));
        assert_eq!(serve_session(7), serve_session(7));
    }

    /// Replaces every `"seed":<n>` with `"seed":0` — what must be the
    /// only difference between two seeds' documents.
    fn without_seeds(json: &str) -> String {
        let mut out = String::new();
        let mut rest = json;
        while let Some(i) = rest.find("\"seed\":") {
            let after = i + "\"seed\":".len();
            out.push_str(&rest[..after]);
            out.push('0');
            rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out + rest
    }

    #[test]
    fn another_seed_changes_only_seed_fields_and_request_order() {
        let (a, b) = (everything(1), everything(2));
        assert_eq!(a.len(), b.len());
        let mut changed = 0;
        for ((name_a, json_a), (name_b, json_b)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            if name_a.starts_with("serve_session/") {
                continue; // order checked below
            }
            changed += usize::from(json_a != json_b);
            assert_eq!(without_seeds(json_a), without_seeds(json_b), "{name_a}");
        }
        // Everything but the pinned pcc-vivace document moved.
        let docs = a
            .iter()
            .filter(|(n, _)| !n.starts_with("serve_session/"))
            .count();
        assert_eq!(changed, docs - 1);
        assert_eq!(
            overdriven_sweep(1)[1],
            overdriven_sweep(2)[1],
            "the pcc-vivace document is pinned"
        );

        // Serve: the same mix of request classes in another order.
        let classes = |plan: &ServePlan| {
            let mut counts = [0usize; 4];
            for (r, _) in &plan.requests {
                counts[match r {
                    Request::Miss { .. } => 0,
                    Request::Hit { .. } => 1,
                    Request::Ping => 2,
                    Request::Stats => 3,
                }] += 1;
            }
            counts
        };
        let (p1, p2) = (serve_session(1), serve_session(2));
        assert_eq!(classes(&p1), classes(&p2));
        assert_eq!(
            classes(&p1),
            [
                SERVE_RUNS / 5,
                SERVE_RUNS - SERVE_RUNS / 5,
                SERVE_RUNS / 10,
                SERVE_RUNS / 100
            ]
        );
        let order = |plan: &ServePlan| plan.requests.iter().map(|(r, _)| *r).collect::<Vec<_>>();
        assert_ne!(order(&p1), order(&p2));
    }

    #[test]
    fn a_hit_always_repeats_an_earlier_miss() {
        let plan = serve_session(3);
        let mut seen = 0;
        for (request, line) in &plan.requests {
            match request {
                Request::Miss { spec } => {
                    assert_eq!(*spec, seen);
                    seen += 1;
                }
                Request::Hit { spec } => assert!(*spec < seen, "{line}"),
                Request::Ping | Request::Stats => {}
            }
        }
        assert_eq!(seen, plan.specs);
    }

    #[test]
    fn every_generated_document_validates() {
        // Replay shapes are checked against the trace file, whose path
        // is relative to the repository root.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        for w in WORKLOADS {
            for d in sweep_docs(w, 5).unwrap_or_default() {
                let exp = ExperimentSpec::from_json(&d.json).unwrap();
                exp.validate()
                    .unwrap_or_else(|e| panic!("{w}/{}: {e}", d.file));
                assert_eq!(exp.cell_count() as u64, d.units);
                assert_eq!(exp.to_canonical_json(), d.json, "documents are canonical");
            }
        }
        for d in [cache_cycle(5), serve_session(5).sample] {
            let exp = ExperimentSpec::from_json(&d.json).unwrap();
            exp.validate().unwrap();
            assert_eq!(exp.cell_count() as u64, d.units);
        }
        assert_eq!(cache_cycle(5).units, 4096);
        assert_eq!(serve_session(5).sample.units, 16);
        let d = train_offline(5);
        let spec = TrainSpec::from_json(&d.json).unwrap();
        spec.validate().unwrap();
        assert_eq!(spec.seed, 5);
        assert!(d.units > 0 && d.units % 400 == 0);
        for (request, line) in &serve_session(5).requests {
            let Value::Obj(obj) = serde_json::from_str::<Value>(line).unwrap() else {
                panic!("request is an object");
            };
            if let Request::Miss { .. } | Request::Hit { .. } = request {
                use serde::Deserialize;
                ExperimentSpec::from_value(&obj["spec"])
                    .unwrap()
                    .validate()
                    .unwrap();
            }
        }
    }
}
