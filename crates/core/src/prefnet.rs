//! The preference-sub-network policy architecture (Fig. 3).
//!
//! [`PrefNet`] is the composite network MOCC uses for both actor and
//! critic: the application preference `w` (the first three input
//! columns) passes through a small dense *preference sub-network* whose
//! feature output is concatenated with the network-condition history
//! and fed to the 64/32-tanh trunk. Gradients flow through both parts,
//! so the agent *learns* how to embed requirements — this is what lets
//! one model correlate preferences with control policies (§4.1).

use mocc_nn::mlp::ForwardCache;
use mocc_nn::{Activation, Dense, ForwardTier, Matrix, Mlp, MlpScratch, Network};
use mocc_rl::GaussianPolicy;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The MOCC policy network: preference sub-network ⊕ trunk (Fig. 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrefNet {
    /// Number of leading input columns holding the preference.
    pub pref_dim: usize,
    /// The preference sub-network (pref → features, tanh).
    pub pn: Mlp,
    /// The trunk ((features ⊕ history) → output).
    pub main: Mlp,
}

/// Forward cache for [`PrefNet`].
#[derive(Debug, Clone)]
pub struct PrefNetCache {
    pn: ForwardCache,
    main: ForwardCache,
}

/// Reusable inference buffers for [`PrefNet`] (see
/// [`Network::Scratch`]): sub-network and trunk scratch plus the
/// intermediate preference/feature/joint matrices, so repeated
/// inference allocates nothing at steady state.
#[derive(Debug, Clone, Default)]
pub struct PrefNetScratch {
    pn: MlpScratch,
    main: MlpScratch,
    wm: Matrix,
    pn_out: Matrix,
    jointm: Matrix,
}

impl PrefNet {
    /// Builds a preference network.
    ///
    /// * `pref_dim` — preference input size (3 for MOCC),
    /// * `pn_features` — sub-network feature width,
    /// * `rest_dim` — network-condition history size (η × 3),
    /// * `hidden` — trunk hidden sizes (paper: 64, 32),
    /// * `out_dim` — 1 for both actor mean and critic value.
    pub fn new<R: Rng>(
        pref_dim: usize,
        pn_features: usize,
        rest_dim: usize,
        hidden: &[usize],
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let pn = Mlp::new(
            &[pref_dim, pn_features],
            Activation::Tanh,
            Activation::Tanh,
            rng,
        );
        let mut sizes = vec![pn_features + rest_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(out_dim);
        let main = Mlp::new(&sizes, Activation::Tanh, Activation::Linear, rng);
        PrefNet { pref_dim, pn, main }
    }

    fn rest_dim(&self) -> usize {
        self.main.in_dim() - self.pn.out_dim()
    }

    /// `policy` with the preference `pref` folded into its trunk: a
    /// preference-free policy whose mean on a history row `h` equals
    /// `policy`'s mean on `[pref | h]` bit for bit.
    ///
    /// The preference features are computed once, by the kernel of the
    /// full forward. Each trunk input row they feed is then added into
    /// the first layer's bias in the order of that layer's own
    /// accumulation — bias first, inputs ascending, zero inputs skipped,
    /// one rounding per product and per sum — and the rows are dropped.
    /// What is left of the first layer's sum, the history rows, then
    /// continues from exactly the partial sum the full forward reaches.
    ///
    /// # Panics
    ///
    /// Panics if `pref` is not `pref_dim` long.
    pub fn fold_preference(policy: &GaussianPolicy<PrefNet>, pref: &[f32]) -> GaussianPolicy<Mlp> {
        let net = &policy.net;
        assert_eq!(pref.len(), net.pref_dim, "preference dimension mismatch");
        let mut features = Matrix::default();
        net.pn.forward_batch_into_tier(
            &Matrix::from_vec(1, net.pref_dim, pref.to_vec()),
            &mut features,
            &mut MlpScratch::default(),
            ForwardTier::Scalar,
        );
        let mut trunk = net.main.clone();
        let first = &trunk.layers[0];
        let (pnf, cols) = (net.pn.out_dim(), first.w.cols);
        let mut b = first.b.clone();
        for (i, &f) in features.row(0).iter().enumerate() {
            if f != 0.0 {
                for (acc, &w) in b.iter_mut().zip(first.w.row(i)) {
                    *acc += f * w;
                }
            }
        }
        let rest = first.w.rows - pnf;
        trunk.layers[0] = Dense {
            w: Matrix::from_vec(rest, cols, first.w.data[pnf * cols..].to_vec()),
            b,
            act: first.act,
            gw: None,
            gb: None,
        };
        GaussianPolicy {
            net: trunk,
            log_std: policy.log_std,
            g_log_std: 0.0,
        }
    }
}

impl Network for PrefNet {
    type Cache = PrefNetCache;
    type Scratch = PrefNetScratch;

    fn in_dim(&self) -> usize {
        self.pref_dim + self.rest_dim()
    }

    fn out_dim(&self) -> usize {
        self.main.out_dim()
    }

    fn forward_batch_into_tier(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        scratch: &mut PrefNetScratch,
        tier: ForwardTier,
    ) {
        debug_assert_eq!(x.cols, self.in_dim());
        x.copy_cols_into(0, self.pref_dim, &mut scratch.wm);
        self.pn
            .forward_batch_into_tier(&scratch.wm, &mut scratch.pn_out, &mut scratch.pn, tier);
        // joint = [pn features | history columns], assembled row-wise
        // into the reusable buffer (an allocation-free hstack).
        let pnf = self.pn.out_dim();
        let rest = self.rest_dim();
        scratch.jointm.reshape(x.rows, pnf + rest);
        for r in 0..x.rows {
            let jrow = scratch.jointm.row_mut(r);
            jrow[..pnf].copy_from_slice(scratch.pn_out.row(r));
            jrow[pnf..].copy_from_slice(&x.row(r)[self.pref_dim..]);
        }
        self.main
            .forward_batch_into_tier(&scratch.jointm, out, &mut scratch.main, tier);
    }

    fn forward_batch(&self, x: &Matrix) -> PrefNetCache {
        let w = x.slice_cols(0, self.pref_dim);
        let rest = x.slice_cols(self.pref_dim, x.cols);
        let pn = self.pn.forward_batch(&w);
        let joint = pn.output().hstack(&rest);
        let main = self.main.forward_batch(&joint);
        PrefNetCache { pn, main }
    }

    fn cache_output(cache: &PrefNetCache) -> &Matrix {
        cache.main.output()
    }

    fn backward(&mut self, cache: &PrefNetCache, grad_out: &Matrix) -> Matrix {
        let g_joint = self.main.backward(&cache.main, grad_out);
        let pnf = self.pn.out_dim();
        let g_features = g_joint.slice_cols(0, pnf);
        let g_rest = g_joint.slice_cols(pnf, g_joint.cols);
        let g_pref = self.pn.backward(&cache.pn, &g_features);
        g_pref.hstack(&g_rest)
    }

    fn backward_params(&mut self, cache: &PrefNetCache, grad_out: &Matrix) {
        // Of the trunk's input gradient only the feature columns feed
        // a parameter; the history columns and the sub-network's own
        // input gradient feed nothing, so neither is computed.
        let pnf = self.pn.out_dim();
        let g_features = self.main.backward_cols(&cache.main, grad_out, 0..pnf);
        self.pn.backward_cols(&cache.pn, g_features, 0..0);
    }

    fn zero_grad(&mut self) {
        self.pn.zero_grad();
        self.main.zero_grad();
    }

    fn for_each_param(&mut self, mut f: impl FnMut(usize, &mut [f32], &[f32])) {
        self.main.for_each_param(&mut f);
        // Preference-sub-network slots continue after the trunk's so
        // the combined numbering stays dense (the optimizer keys
        // moment buffers by index).
        let base = self.main.param_slots();
        self.pn.for_each_param(|slot, p, g| f(slot + base, p, g));
    }

    fn param_slots(&self) -> usize {
        self.main.param_slots() + self.pn.param_slots()
    }

    fn copy_params_from(&mut self, other: &Self) {
        self.pn.copy_params_from(&other.pn);
        self.main.copy_params_from(&other.main);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(rng: &mut StdRng) -> PrefNet {
        PrefNet::new(3, 8, 6, &[16, 8], 1, rng)
    }

    #[test]
    fn dims() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = net(&mut rng);
        assert_eq!(n.in_dim(), 9);
        assert_eq!(n.out_dim(), 1);
    }

    #[test]
    fn single_and_batch_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = net(&mut rng);
        let x1 = [0.8, 0.1, 0.1, 0.2, -0.3, 0.4, 0.0, 1.0, -1.0];
        let x2 = [0.1, 0.8, 0.1, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5];
        let batch = Matrix::from_vec(2, 9, [x1, x2].concat());
        let cache = n.forward_batch(&batch);
        let out = PrefNet::cache_output(&cache);
        for (i, x) in [x1, x2].iter().enumerate() {
            let single = n.forward(x)[0];
            assert!(
                (single - out.get(i, 0)).abs() < 1e-5,
                "row {i}: {single} vs {}",
                out.get(i, 0)
            );
        }
    }

    /// One observation through an [`Mlp`] as one would write it first
    /// (bias, then inputs in ascending order with zeros skipped; no
    /// matrix kernel) — the twin of `mocc-nn`'s test-only
    /// `naive_forward`, which this crate's tests cannot reach.
    fn naive_mlp(mlp: &Mlp, x: &[f32], tanh: fn(f32) -> f32) -> Vec<f32> {
        let mut cur = x.to_vec();
        for layer in &mlp.layers {
            cur = (0..layer.w.cols)
                .map(|j| {
                    let mut acc = layer.b[j];
                    for (i, &xi) in cur.iter().enumerate() {
                        if xi != 0.0 {
                            acc += xi * layer.w.get(i, j);
                        }
                    }
                    match layer.act {
                        Activation::Tanh => tanh(acc),
                        Activation::Relu => acc.max(0.0),
                        Activation::Linear => acc,
                    }
                })
                .collect();
        }
        cur
    }

    /// The composite kernel equals the naive reference — sub-network,
    /// concatenation, trunk — bit for bit on both tiers at 1, 3 and 70
    /// rows through one warm scratch, and row *r* of an *n*-row call
    /// equals that row sent alone.
    #[test]
    fn forward_bitwise_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(6);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = PrefNetScratch::default();
        let (mut out, mut alone) = (Matrix::default(), Matrix::default());
        for n in [
            net(&mut rng),
            PrefNet::new(3, 16, 30, &[64, 32], 1, &mut rng),
        ] {
            for rows in [1usize, 3, 70] {
                let x = Matrix::from_fn(rows, n.in_dim(), |r, c| match (r + 3 * c) % 6 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0f32..1.0),
                });
                for (tier, tanh) in [
                    (ForwardTier::Scalar, f32::tanh as fn(f32) -> f32),
                    (ForwardTier::Fast, mocc_nn::fast_tanh),
                ] {
                    n.forward_batch_into_tier(&x, &mut out, &mut scratch, tier);
                    assert_eq!((out.rows, out.cols), (rows, 1));
                    for r in 0..rows {
                        let mut joint = naive_mlp(&n.pn, &x.row(r)[..3], tanh);
                        joint.extend_from_slice(&x.row(r)[3..]);
                        let want = naive_mlp(&n.main, &joint, tanh);
                        assert_eq!(
                            bits(out.row(r)),
                            bits(&want),
                            "{rows} rows {tier:?} row {r}"
                        );
                        let row = Matrix::from_vec(1, x.cols, x.row(r).to_vec());
                        n.forward_batch_into_tier(&row, &mut alone, &mut scratch, tier);
                        assert_eq!(bits(&alone.data), bits(&want), "row {r} alone, {tier:?}");
                    }
                }
            }
        }
    }

    /// The folded policy's mean equals the full forward's on
    /// `[pref | h]` bit for bit: simplex corners and interior
    /// preferences, all-zero, `-0.0` and mixed history rows, untrained
    /// weights and weights after PPO updates.
    #[test]
    fn fold_preference_matches_the_full_forward_bit_for_bit() {
        use crate::{MoccAgent, MoccConfig, Preference};
        use mocc_rl::{PolicyScratch, Rollout};

        let mut rng = StdRng::seed_from_u64(9);
        let untrained = MoccAgent::new(MoccConfig::default(), &mut rng);
        let obs_dim = untrained.cfg.obs_dim();
        let mut trained = untrained.clone();
        for _ in 0..3 {
            let mut rollout = Rollout::new(obs_dim);
            for step in 0..64 {
                let obs: Vec<f32> = (0..obs_dim).map(|_| rng.gen_range(0.0f32..1.0)).collect();
                let action = rng.gen_range(-1.0f32..1.0);
                rollout
                    .log_probs
                    .push(trained.ppo.policy.log_prob(&obs, action));
                rollout.obs.extend_from_slice(&obs);
                rollout.actions.push(action);
                rollout.rewards.push(rng.gen_range(-1.0f32..1.0));
                rollout.values.push(0.0);
                rollout.dones.push(step % 16 == 15);
            }
            trained.ppo.update(&[rollout], &mut rng);
        }
        assert_ne!(
            trained.ppo.policy.net.main.layers[0].b, untrained.ppo.policy.net.main.layers[0].b,
            "the updates moved the trunk"
        );

        let hist_dim = obs_dim - 3;
        let histories = Matrix::from_fn(5, hist_dim, |r, c| match r {
            0 => 0.0,
            1 => -0.0,
            2 if c % 3 == 0 => -0.0,
            _ => rng.gen_range(-1.0f32..5.0),
        });
        let prefs = [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            Preference::balanced().as_array(),
            Preference::new(0.5, 0.3, 0.2).as_array(),
            Preference::new(0.1, 0.1, 0.8).as_array(),
        ];
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for agent in [&untrained, &trained] {
            let policy = &agent.ppo.policy;
            for pref in prefs {
                let full = Matrix::from_fn(histories.rows, obs_dim, |r, c| match c {
                    0..=2 => pref[c],
                    _ => histories.get(r, c - 3),
                });
                policy.mean_action_batch(&full, &mut want, &mut PolicyScratch::default());
                let folded = PrefNet::fold_preference(policy, &pref);
                assert_eq!(folded.net.in_dim(), hist_dim);
                assert_eq!(folded.log_std.to_bits(), policy.log_std.to_bits());
                folded.mean_action_batch(&histories, &mut got, &mut PolicyScratch::default());
                assert_eq!(bits(&got), bits(&want), "preference {pref:?}");
            }
        }
    }

    #[test]
    fn preference_changes_output() {
        // The whole point of the architecture: different preferences
        // with identical network history must map to different outputs.
        let mut rng = StdRng::seed_from_u64(2);
        let n = net(&mut rng);
        let hist = [0.2, -0.3, 0.4, 0.0, 1.0, -1.0];
        let mut a = vec![0.8, 0.1, 0.1];
        a.extend_from_slice(&hist);
        let mut b = vec![0.1, 0.8, 0.1];
        b.extend_from_slice(&hist);
        assert!((n.forward(&a)[0] - n.forward(&b)[0]).abs() > 1e-6);
    }

    /// Finite-difference gradient check through BOTH sub-networks.
    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut n = net(&mut rng);
        let x = Matrix::from_vec(
            2,
            9,
            vec![
                0.8, 0.1, 0.1, 0.2, -0.3, 0.4, 0.0, 1.0, -1.0, //
                0.3, 0.3, 0.4, -0.2, 0.3, -0.4, 0.5, -1.0, 1.0,
            ],
        );
        let loss = |m: &PrefNet| -> f32 {
            let c = m.forward_batch(&x);
            PrefNet::cache_output(&c).data.iter().map(|v| v * v).sum()
        };
        n.zero_grad();
        let cache = n.forward_batch(&x);
        let mut g = PrefNet::cache_output(&cache).clone();
        g.map_inplace(|v| 2.0 * v);
        let _ = n.backward(&cache, &g);

        let mut slots: Vec<(usize, Vec<f32>)> = Vec::new();
        n.for_each_param(|slot, _p, g| slots.push((slot, g.to_vec())));
        // Check a coordinate in the trunk and one in the PN.
        let eps = 1e-3f32;
        for (slot, grads) in &slots {
            let idx = grads.len() / 2;
            let mut plus = n.clone();
            let mut minus = n.clone();
            plus.for_each_param(|s, p, _| {
                if s == *slot {
                    p[idx] += eps;
                }
            });
            minus.for_each_param(|s, p, _| {
                if s == *slot {
                    p[idx] -= eps;
                }
            });
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let an = grads[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "slot {slot}: fd {fd} vs analytic {an}"
            );
        }
        // The PN must actually receive gradient (slots after the
        // trunk's exist with nonzero gradient).
        let base = n.main.param_slots();
        assert!(slots
            .iter()
            .any(|(s, g)| *s >= base && g.iter().any(|&x| x != 0.0)));
    }

    /// The params-only entry leaves the same bits in every gradient
    /// slot as the full backward, over two passes without `zero_grad`.
    #[test]
    fn backward_params_bitwise_matches_backward() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut full = PrefNet::new(3, 16, 30, &[64, 32], 1, &mut rng);
        let mut params_only = full.clone();
        for (pass, batch) in [64usize, 65, 1].into_iter().enumerate() {
            let x = Matrix::from_fn(batch, full.in_dim(), |r, c| match (r + 3 * c + pass) % 6 {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0),
            });
            let g = Matrix::from_fn(batch, 1, |_, _| rng.gen_range(-1.0f32..1.0));
            let cache = full.forward_batch(&x);
            let gin = full.backward(&cache, &g);
            assert_eq!((gin.rows, gin.cols), (batch, full.in_dim()));
            params_only.backward_params(&cache, &g);
            let mut want: Vec<Vec<u32>> = Vec::new();
            full.for_each_param(|_, _, g| want.push(g.iter().map(|v| v.to_bits()).collect()));
            assert_eq!(want.len(), full.param_slots());
            params_only.for_each_param(|slot, _, g| {
                let got: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want[slot], "pass {pass} slot {slot}");
            });
        }
    }

    #[test]
    fn input_gradient_covers_pref_and_history() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut n = net(&mut rng);
        let x = Matrix::from_vec(1, 9, vec![0.5, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]);
        let cache = n.forward_batch(&x);
        let g = Matrix::from_vec(1, 1, vec![1.0]);
        let gin = n.backward(&cache, &g);
        assert_eq!(gin.cols, 9);
        assert!(gin.data[..3].iter().any(|&v| v != 0.0), "pref gradient");
        assert!(gin.data[3..].iter().any(|&v| v != 0.0), "history gradient");
    }

    #[test]
    fn serde_roundtrip_preserves_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = net(&mut rng);
        let json = serde_json::to_string(&n).unwrap();
        let back: PrefNet = serde_json::from_str(&json).unwrap();
        let x = [0.8, 0.1, 0.1, 0.2, -0.3, 0.4, 0.0, 1.0, -1.0];
        assert_eq!(n.forward(&x), back.forward(&x));
    }
}
