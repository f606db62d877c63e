//! `Ppo::update` held bit for bit to the serial loop it replaced, for a
//! plain `Mlp` and for MOCC's `PrefNet`.
//!
//! The update runs the critic's minibatch loop on a scoped second
//! thread with every epoch's shuffle drawn up front; the reference
//! below is the old one-thread loop, kept verbatim. It lives here, not
//! in `mocc-rl`, because `PrefNet` is a `mocc-core` type, and it uses
//! only `mocc-rl`'s public surface: the learner's optimizers are
//! private fields, so the reference reads them through the learner's
//! serialized form.

use mocc_core::PrefNet;
use mocc_nn::{Adam, Matrix, Network};
use mocc_rl::{normalize, GaussianPolicy, Ppo, PpoConfig, PpoStats, Rollout};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

/// What the serial loop steps: a learner's public parts and its two
/// optimizers.
#[derive(Clone)]
struct Serial<N: Network> {
    policy: GaussianPolicy<N>,
    value: N,
    cfg: PpoConfig,
    opt_pi: Adam,
    opt_v: Adam,
}

impl<N: Network + Serialize> Serial<N> {
    fn of(ppo: &Ppo<N>) -> Self {
        let Value::Obj(fields) = ppo.to_value() else {
            panic!("a learner serializes to an object")
        };
        let opt = |key| serde::from_field(&fields, key, "Ppo").expect("optimizer state");
        Serial {
            policy: ppo.policy.clone(),
            value: ppo.value.clone(),
            cfg: ppo.cfg,
            opt_pi: opt("opt_pi"),
            opt_v: opt("opt_v"),
        }
    }
}

/// The one loop [`Ppo::update`] replaced, kept verbatim as its
/// reference: shuffle before each epoch, then per minibatch the actor's
/// step followed by the critic's, on one thread.
fn serial_update<N: Network>(
    ppo: &mut Serial<N>,
    rollouts: &[Rollout],
    rng: &mut StdRng,
) -> PpoStats {
    let obs_dim = ppo.policy.net.in_dim();
    // Flatten rollouts and compute advantages.
    let mut obs: Vec<f32> = Vec::new();
    let mut actions: Vec<f32> = Vec::new();
    let mut old_logp: Vec<f32> = Vec::new();
    let mut advs: Vec<f32> = Vec::new();
    let mut rets: Vec<f32> = Vec::new();
    let mut reward_sum = 0.0f32;
    let mut reward_n = 0usize;
    for r in rollouts {
        if r.is_empty() {
            continue;
        }
        let (a, ret) = r.gae(ppo.cfg.gamma, ppo.cfg.lam);
        obs.extend_from_slice(&r.obs);
        actions.extend_from_slice(&r.actions);
        old_logp.extend_from_slice(&r.log_probs);
        advs.extend(a);
        rets.extend(ret);
        reward_sum += r.rewards.iter().sum::<f32>();
        reward_n += r.len();
    }
    let n = actions.len();
    if n == 0 {
        return PpoStats::default();
    }
    normalize(&mut advs);

    let mut stats = PpoStats {
        mean_reward: reward_sum / reward_n.max(1) as f32,
        ..Default::default()
    };
    let mut stat_batches = 0usize;

    let mut index: Vec<usize> = (0..n).collect();
    for _epoch in 0..ppo.cfg.epochs {
        index.shuffle(rng);
        for chunk in index.chunks(ppo.cfg.minibatch.max(1)) {
            let b = chunk.len();
            // Assemble the minibatch.
            let mut mb_obs = Vec::with_capacity(b * obs_dim);
            for &i in chunk {
                mb_obs.extend_from_slice(&obs[i * obs_dim..(i + 1) * obs_dim]);
            }
            let x = Matrix::from_vec(b, obs_dim, mb_obs);

            // ---- Actor ----
            let cache = ppo.policy.net.forward_batch(&x);
            let means = N::cache_output(&cache).clone();
            let std = ppo.policy.std();
            let log_std = ppo.policy.log_std;
            let mut gmean = Matrix::zeros(b, 1);
            let mut g_log_std = 0.0f32;
            let (mut ploss, mut kl, mut clipped) = (0.0f32, 0.0f32, 0usize);
            for (j, &i) in chunk.iter().enumerate() {
                let mean = means.get(j, 0);
                let a = actions[i];
                let z = (a - mean) / std;
                let logp = -0.5 * z * z - log_std - 0.5 * (2.0 * std::f32::consts::PI).ln();
                let ratio = (logp - old_logp[i]).exp();
                let adv = advs[i];
                let unclipped = ratio * adv;
                let rc = ratio.clamp(1.0 - ppo.cfg.clip_eps, 1.0 + ppo.cfg.clip_eps);
                let clipped_obj = rc * adv;
                let g_logp = if unclipped <= clipped_obj || (ratio - rc).abs() < 1e-12 {
                    -adv * ratio
                } else {
                    clipped += 1;
                    0.0
                };
                ploss -= unclipped.min(clipped_obj);
                kl += old_logp[i] - logp;
                gmean.set(j, 0, g_logp * (z / std) / b as f32);
                g_log_std += g_logp * (z * z - 1.0) / b as f32;
            }
            g_log_std -= ppo.cfg.entropy_coef;

            ppo.policy.zero_grad();
            ppo.policy.g_log_std = g_log_std;
            ppo.policy.net.backward_params(&cache, &gmean);
            let max_norm = Some(ppo.cfg.max_grad_norm).filter(|&m| m > 0.0);
            ppo.opt_pi.begin_step();
            let opt_pi = &mut ppo.opt_pi;
            ppo.policy
                .for_each_param(|slot, p, g| opt_pi.update_slot_clipped(slot, p, g, max_norm));

            // ---- Critic ----
            let vcache = ppo.value.forward_batch(&x);
            let mut gv = Matrix::zeros(b, 1);
            let mut vloss = 0.0f32;
            for (j, &i) in chunk.iter().enumerate() {
                let v = N::cache_output(&vcache).get(j, 0);
                let err = v - rets[i];
                vloss += err * err / b as f32;
                gv.set(j, 0, 2.0 * err / b as f32);
            }
            ppo.value.zero_grad();
            ppo.value.backward_params(&vcache, &gv);
            ppo.opt_v.begin_step();
            let opt_v = &mut ppo.opt_v;
            ppo.value
                .for_each_param(|slot, p, g| opt_v.update_slot_clipped(slot, p, g, max_norm));

            stats.policy_loss += ploss / b as f32;
            stats.value_loss += vloss;
            stats.approx_kl += kl / b as f32;
            stats.clip_frac += clipped as f32 / b as f32;
            stat_batches += 1;
        }
    }
    if stat_batches > 0 {
        let k = stat_batches as f32;
        stats.policy_loss /= k;
        stats.value_loss /= k;
        stats.approx_kl /= k;
        stats.clip_frac /= k;
    }
    stats.entropy = ppo.policy.entropy();
    stats
}

/// Rollouts of the given lengths with observations uniform in ±2,
/// actions around the policy's means and behaviour log-probabilities
/// jittered off the current ones, so some ratios leave the clip range;
/// an episode ends every 23 steps.
fn synthetic_rollouts<N: Network>(ppo: &Ppo<N>, lens: &[usize], rng: &mut StdRng) -> Vec<Rollout> {
    let d = ppo.policy.net.in_dim();
    lens.iter()
        .map(|&len| {
            let mut r = Rollout::new(d);
            for t in 0..len {
                let obs: Vec<f32> = (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let action = ppo.policy.mean_action(&obs) + rng.gen_range(-0.8f32..0.8);
                let logp = ppo.policy.log_prob(&obs, action) + rng.gen_range(-0.4f32..0.4);
                let (reward, value) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                r.push(&obs, action, logp, reward, value, t % 23 == 22);
            }
            r.last_value = 0.5;
            r
        })
        .collect()
}

fn param_bits<N: Network>(learner: &mut Serial<N>) -> Vec<Vec<u32>> {
    let mut bits = Vec::new();
    let mut visit =
        |_: usize, p: &mut [f32], _: &[f32]| bits.push(p.iter().map(|x| x.to_bits()).collect());
    learner.policy.net.for_each_param(&mut visit);
    learner.value.for_each_param(&mut visit);
    bits.push(vec![learner.policy.log_std.to_bits()]);
    bits
}

fn stats_bits(s: &PpoStats) -> [u32; 6] {
    [
        s.mean_reward,
        s.policy_loss,
        s.value_loss,
        s.entropy,
        s.clip_frac,
        s.approx_kl,
    ]
    .map(f32::to_bits)
}

/// Every parameter, `log_std` and both optimizers (moments and step
/// count, through their serialized form) of two learners agree bit for
/// bit.
fn assert_same_learner<N: Network + Serialize>(got: &Ppo<N>, want: &Serial<N>, what: &str) {
    let (mut got, mut want) = (Serial::of(got), want.clone());
    assert_eq!(
        param_bits(&mut got),
        param_bits(&mut want),
        "{what}: parameters"
    );
    for (g, w, name) in [
        (&got.opt_pi, &want.opt_pi, "opt_pi"),
        (&got.opt_v, &want.opt_v, "opt_v"),
    ] {
        let json = |a: &Adam| serde_json::to_string(a).unwrap();
        assert_eq!(json(g), json(w), "{what}: {name}");
    }
}

/// [`Ppo::update`] leaves what the serial loop leaves, over three
/// successive updates per case: epochs 1 and 4, minibatches of 64 and
/// 10 over 87 samples (neither divides it) and one minibatch larger than
/// the data, an empty rollout among full ones, and no samples at all
/// (no draw, no step).
fn assert_update_matches_serial<N: Network + Serialize>(mut ppo: Ppo<N>, net: &str) {
    let mut data_rng = StdRng::seed_from_u64(17);
    for (epochs, minibatch) in [(1, 64), (4, 64), (4, 10), (1, 1000)] {
        ppo.cfg.epochs = epochs;
        ppo.cfg.minibatch = minibatch;
        for round in 0..3 {
            let what = format!("{net}, {epochs} epochs of {minibatch}, update {round}");
            let mut rollouts = synthetic_rollouts(&ppo, &[50, 37], &mut data_rng);
            rollouts.insert(1, Rollout::new(ppo.policy.net.in_dim()));
            let mut serial = Serial::of(&ppo);
            let (mut rng, mut serial_rng) =
                (StdRng::seed_from_u64(round), StdRng::seed_from_u64(round));
            let stats = ppo.update(&rollouts, &mut rng);
            let want = serial_update(&mut serial, &rollouts, &mut serial_rng);
            assert_eq!(stats_bits(&stats), stats_bits(&want), "{what}: stats");
            assert!(stats.clip_frac > 0.0, "{what}: no sample was clipped");
            assert_eq!(rng.state(), serial_rng.state(), "{what}: rng");
            assert_same_learner(&ppo, &serial, &what);
        }
    }
    let before = Serial::of(&ppo);
    let mut rng = StdRng::seed_from_u64(5);
    for rollouts in [vec![], vec![Rollout::new(ppo.policy.net.in_dim())]] {
        let stats = ppo.update(&rollouts, &mut rng);
        assert_eq!(stats_bits(&stats), [0; 6], "{net}: empty stats");
        assert_eq!(
            rng.state(),
            StdRng::seed_from_u64(5).state(),
            "{net}: empty draws"
        );
        assert_same_learner(&ppo, &before, &format!("{net}, empty"));
    }
}

#[test]
fn update_matches_the_serial_loop_for_an_mlp() {
    let mut rng = StdRng::seed_from_u64(11);
    assert_update_matches_serial(Ppo::new(5, &[16, 8], PpoConfig::default(), &mut rng), "Mlp");
}

#[test]
fn update_matches_the_serial_loop_for_a_prefnet() {
    let mut rng = StdRng::seed_from_u64(12);
    let actor = PrefNet::new(3, 8, 12, &[16, 8], 1, &mut rng);
    let critic = PrefNet::new(3, 8, 12, &[16, 8], 1, &mut rng);
    let ppo = Ppo::from_nets(
        GaussianPolicy::from_net(actor),
        critic,
        PpoConfig::default(),
    );
    assert_update_matches_serial(ppo, "PrefNet");
}
