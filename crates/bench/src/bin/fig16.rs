//! Figure 16 — the ω hyperparameter (number of landmark objectives).
//!
//! Pre-trains MOCC with different landmark counts (simplex steps 1/4,
//! 1/5, 1/6, 1/10 → ω = 3, 6, 10, 36; the paper's ω = 171 point is
//! enabled at full scale) and reports the reward distribution over
//! random objectives plus the training time — the quality/cost
//! trade-off that makes ω = 36 the paper's choice.

use mocc_bench::{header, mean_reward, row, with_agent_mi};
use mocc_core::{MoccAgent, MoccCc, Preference};
use mocc_netsim::metrics::percentile;
use mocc_netsim::{ScenarioRange, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let full = mocc_bench::full_scale();
    let steps: Vec<usize> = if full {
        vec![4, 5, 6, 10, 20]
    } else {
        vec![4, 5, 6, 10]
    };
    let n_objectives = if full { 60 } else { 25 };
    let n_conditions = if full { 6 } else { 3 };

    let mut rng = StdRng::seed_from_u64(99);
    let objectives: Vec<Preference> = (0..n_objectives)
        .map(|_| Preference::random(&mut rng))
        .collect();
    let range = ScenarioRange::testing();
    let conditions: Vec<mocc_netsim::Scenario> = (0..n_conditions)
        .map(|_| range.sample(&mut rng, 20))
        .collect();

    println!("== Figure 16: reward vs number of landmark objectives (omega) ==");
    header(
        "omega",
        &[
            "p25".into(),
            "p50".into(),
            "p75".into(),
            "mean".into(),
            "train s".into(),
            "iters".into(),
        ],
        9,
    );

    for &k in &steps {
        let omega = mocc_core::landmark_count(k);
        let cache = mocc_bench::cached_model_path(&format!("mocc-omega-{omega}.json"));
        let (agent, wall, iters) = if let Ok(a) = MoccAgent::load(&cache) {
            (a, f64::NAN, 0)
        } else {
            let spec = mocc_core::TrainSpec {
                name: format!("fig16-omega-{omega}"),
                seed: 7,
                config: "default".to_string(),
                omega_step: Some(k),
                ..mocc_core::TrainSpec::default()
            };
            let opts = mocc_core::TrainOptions {
                clock: Some(mocc_bench::timing::monotonic_secs),
                ..mocc_core::TrainOptions::default()
            };
            let run = mocc_core::train_spec(&spec, &opts).expect("fig16 spec is valid");
            run.agent.save(&cache).expect("cache omega model");
            (run.agent, run.outcome.wall_secs, run.outcome.iterations)
        };
        let mut rewards: Vec<f64> = Vec::new();
        for sc in &conditions {
            let cap = sc.link.trace.max_rate();
            let base = sc.link.base_rtt().as_millis_f64();
            for w in &objectives {
                let cc = Box::new(MoccCc::new(&agent, *w, 0.3 * cap));
                let res = Simulator::new(with_agent_mi(sc.clone()), vec![cc]).run();
                rewards.push(mean_reward(&res.flows[0].mi_records, cap, base, w) as f64);
            }
        }
        let mean = rewards.iter().sum::<f64>() / rewards.len() as f64;
        row(
            &format!("{omega}"),
            &[
                percentile(&rewards, 25.0),
                percentile(&rewards, 50.0),
                percentile(&rewards, 75.0),
                mean,
                wall,
                iters as f64,
            ],
            9,
            2,
        );
    }
    println!("(paper: quality improves up to omega=36, which matches omega=171 at a fraction of the 28.2 h training cost)");
    let _ = rng.gen::<u64>();
}
