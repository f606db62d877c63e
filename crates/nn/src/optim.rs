//! First-order optimizers.
//!
//! The paper trains with Adam at learning rate 1e-3 (Table 2).

use serde::{Deserialize, Serialize};

/// Adam (Kingma & Ba, 2014) with per-slot first/second-moment state.
///
/// Parameter tensors are identified by a stable `slot` index supplied by
/// the model (see [`crate::mlp::Mlp::for_each_param`]); state buffers
/// are lazily sized on first use. Moments are index-keyed `Vec`s, not a
/// hash map: slot indices are small and dense, and checkpoint bytes
/// must not depend on a process-randomized iteration order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the paper's defaults (β₁ = 0.9, β₂ = 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Starts a new optimizer step (advances the bias-correction clock).
    /// Call once per gradient application, before `update_slot`s.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Checks the moment buffers against the parameter tensors they
    /// move, slot `i` holding `lens[i]` values: every `m`/`v` slot is
    /// empty or exactly that long, `m` and `v` have the same shape, and
    /// no slot lies past the last tensor. State restored from outside
    /// (a checkpoint) that fails one would panic the first
    /// [`Adam::update_slot_clipped`]; the error names the first
    /// disagreement as `m[slot]`/`v[slot]`.
    pub fn check_moments(&self, lens: &[usize]) -> Result<(), String> {
        if self.m.len() != self.v.len() {
            return Err(format!(
                "m has {} slots but v has {}",
                self.m.len(),
                self.v.len()
            ));
        }
        if self.m.len() > lens.len() {
            return Err(format!(
                "m has {} slots for {} parameter tensors",
                self.m.len(),
                lens.len()
            ));
        }
        for (slot, ((m, v), &n)) in self.m.iter().zip(&self.v).zip(lens).enumerate() {
            for (name, moment) in [("m", m), ("v", v)] {
                if !moment.is_empty() && moment.len() != n {
                    return Err(format!(
                        "{name}[{slot}] holds {} values for a tensor of {n}",
                        moment.len()
                    ));
                }
            }
            if m.len() != v.len() {
                return Err(format!(
                    "m[{slot}] holds {} values but v[{slot}] {}",
                    m.len(),
                    v.len()
                ));
            }
        }
        Ok(())
    }

    /// Applies the Adam update to one parameter tensor.
    pub fn update_slot(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) {
        self.update_slot_clipped(slot, params, grads, None);
    }

    /// Applies the Adam update to one parameter tensor, first clipping
    /// its gradient to an L2 norm of at most `max_norm` (standard PPO
    /// practice; `None` applies the gradient as it is, `Some(0.0)`
    /// zeroes it). The clip is a scale applied on the fly, so `grads`
    /// is neither copied nor modified; the norm is summed serially in
    /// index order, and an unclipped gradient is scaled by exactly
    /// `1.0`, so every result bit equals clipping a copy and then
    /// calling [`Adam::update_slot`].
    ///
    /// # Panics
    ///
    /// Panics if `grads`, or this slot's moment buffers (restored from
    /// a checkpoint of another architecture, say), differ in length
    /// from `params`.
    pub fn update_slot_clipped(
        &mut self,
        slot: usize,
        params: &mut [f32],
        grads: &[f32],
        max_norm: Option<f32>,
    ) {
        let t = self.t.max(1);
        if self.m.len() <= slot {
            self.m.resize(slot + 1, Vec::new());
            self.v.resize(slot + 1, Vec::new());
        }
        if self.m[slot].is_empty() {
            self.m[slot] = vec![0.0; params.len()];
            self.v[slot] = vec![0.0; params.len()];
        }
        let m = &mut self.m[slot];
        let v = &mut self.v[slot];
        // The loop below zips, which would silently stop at the
        // shortest of the four.
        let n = params.len();
        assert_eq!(grads.len(), n, "slot {slot}: gradient length");
        assert_eq!(m.len(), n, "slot {slot}: first-moment length");
        assert_eq!(v.len(), n, "slot {slot}: second-moment length");
        let scale = match max_norm {
            Some(max_norm) => {
                let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
                if norm > max_norm && norm > 0.0 {
                    max_norm / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let (lr, eps) = (self.lr, self.eps);
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        for (((p, m), v), &g) in params.iter_mut().zip(m).zip(v).zip(grads) {
            let g = g * scale;
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clip [`Adam::update_slot_clipped`] fused away, kept verbatim
    /// as its reference: scales `grads` in place to a maximum L2 norm
    /// and returns the original norm.
    fn clip_grad_norm(grads: &mut [f32], max_norm: f32) -> f32 {
        let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for g in grads.iter_mut() {
                *g *= scale;
            }
        }
        norm
    }

    /// The indexed moment loop `update_slot` ran before it was fused,
    /// kept verbatim as the reference for the zipped one.
    fn naive_update_slot(adam: &mut Adam, slot: usize, params: &mut [f32], grads: &[f32]) {
        let t = adam.t.max(1);
        if adam.m.len() <= slot {
            adam.m.resize(slot + 1, Vec::new());
            adam.v.resize(slot + 1, Vec::new());
        }
        if adam.m[slot].is_empty() {
            adam.m[slot] = vec![0.0; params.len()];
            adam.v[slot] = vec![0.0; params.len()];
        }
        let m = &mut adam.m[slot];
        let v = &mut adam.v[slot];
        let b1 = adam.beta1;
        let b2 = adam.beta2;
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = b1 * m[i] + (1.0 - b1) * g;
            v[i] = b2 * v[i] + (1.0 - b2) * g * g;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            params[i] -= adam.lr * mhat / (vhat.sqrt() + adam.eps);
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Fused clip+Adam equals clip-a-copy-then-update bit for bit —
    /// parameters and both moments, over several steps — for gradient
    /// norms below, exactly at and above `max_norm`, for `max_norm = 0`
    /// and with no clip at all.
    #[test]
    fn fused_clip_adam_bitwise_matches_clip_then_update() {
        // 67 elements: not a multiple of any vector width. Element 0 is
        // 0.0 and element 1 is -0.0.
        let base: Vec<f32> = (0..67)
            .map(|i| match i {
                0 => 0.0,
                1 => -0.0,
                _ => ((i * 37 % 23) as f32 - 11.0) * 0.013,
            })
            .collect();
        let norm = clip_grad_norm(&mut base.clone(), f32::INFINITY);
        assert!(norm > 0.5 && norm < 2.0, "test premise: norm {norm}");
        for max_norm in [None, Some(2.0), Some(norm), Some(0.5), Some(0.0)] {
            let (mut fused, mut naive) = (Adam::new(1e-3), Adam::new(1e-3));
            let mut p_fused: Vec<f32> = (0..67).map(|i| (i as f32 * 0.1).sin()).collect();
            let mut p_naive = p_fused.clone();
            for step in 0..4 {
                let grads: Vec<f32> = base.iter().map(|g| g * (1.0 + step as f32)).collect();
                fused.begin_step();
                fused.update_slot_clipped(0, &mut p_fused, &grads, max_norm);
                let mut clipped = grads.clone();
                if let Some(max_norm) = max_norm {
                    clip_grad_norm(&mut clipped, max_norm);
                }
                naive.begin_step();
                naive_update_slot(&mut naive, 0, &mut p_naive, &clipped);
                assert_eq!(bits(&p_fused), bits(&p_naive), "{max_norm:?} step {step}");
                assert_eq!(bits(&fused.m[0]), bits(&naive.m[0]), "{max_norm:?} m");
                assert_eq!(bits(&fused.v[0]), bits(&naive.v[0]), "{max_norm:?} v");
            }
        }
    }

    /// A moment buffer restored from a checkpoint of another
    /// architecture must stop the run, not be zipped short.
    #[test]
    #[should_panic(expected = "slot 1: first-moment length")]
    fn foreign_moment_buffer_is_rejected() {
        let mut adam = Adam::new(0.1);
        adam.begin_step();
        adam.update_slot(1, &mut [0.0f32; 3], &[1.0; 3]);
        adam.begin_step();
        adam.update_slot(1, &mut [0.0f32; 5], &[1.0; 5]);
    }

    /// Moment buffers are checked against the tensors they move: each
    /// slot empty or as long as its tensor, `m` and `v` alike, nothing
    /// past the last tensor — and state that passes steps without a
    /// panic.
    #[test]
    fn moments_are_checked_against_the_tensors() {
        let lens = [3, 2, 1];
        let mut adam = Adam::new(0.1);
        assert_eq!(adam.check_moments(&lens), Ok(()));
        adam.begin_step();
        adam.update_slot(1, &mut [0.0f32; 2], &[1.0; 2]);
        assert_eq!(
            adam.check_moments(&lens),
            Ok(()),
            "slot 0 empty, slot 1 full"
        );
        adam.update_slot(0, &mut [0.0f32; 3], &[1.0; 3]);
        adam.update_slot(2, &mut [0.0f32; 1], &[1.0; 1]);
        assert_eq!(adam.check_moments(&lens), Ok(()));

        type Edit = fn(&mut Adam);
        let table: [(Edit, &str); 5] = [
            (
                |a| a.m[0].truncate(2),
                "m[0] holds 2 values for a tensor of 3",
            ),
            (
                |a| a.v[1].push(0.0),
                "v[1] holds 3 values for a tensor of 2",
            ),
            (|a| a.v[2].clear(), "m[2] holds 1 values but v[2] 0"),
            (|a| a.v.truncate(2), "m has 3 slots but v has 2"),
            (
                |a| {
                    a.m.push(Vec::new());
                    a.v.push(Vec::new());
                },
                "m has 4 slots for 3 parameter tensors",
            ),
        ];
        for (edit, want) in table {
            let mut bad = adam.clone();
            edit(&mut bad);
            assert_eq!(bad.check_moments(&lens), Err(want.to_string()));
        }
        for (slot, &n) in lens.iter().enumerate() {
            adam.update_slot(slot, &mut vec![0.0f32; n], &vec![1.0; n]);
        }
    }

    #[test]
    #[should_panic(expected = "slot 0: gradient length")]
    fn short_gradient_is_rejected() {
        let mut adam = Adam::new(0.1);
        adam.begin_step();
        adam.update_slot(0, &mut [0.0f32; 3], &[1.0; 2]);
    }

    /// Minimizing f(x) = (x − 3)² with Adam converges to 3.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut adam = Adam::new(0.1);
        let mut x = vec![0.0f32];
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            adam.begin_step();
            adam.update_slot(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn adam_slots_are_independent() {
        let mut adam = Adam::new(0.1);
        let mut a = vec![0.0f32];
        let mut b = vec![10.0f32];
        for _ in 0..300 {
            adam.begin_step();
            let ga = [2.0 * (a[0] - 1.0)];
            adam.update_slot(0, &mut a, &ga);
            let gb = [2.0 * (b[0] + 1.0)];
            adam.update_slot(1, &mut b, &gb);
        }
        assert!((a[0] - 1.0).abs() < 0.05);
        assert!((b[0] + 1.0).abs() < 0.05);
    }

    #[test]
    fn grad_clip() {
        let mut g = vec![3.0f32, 4.0]; // norm 5
        let n = clip_grad_norm(&mut g, 1.0);
        assert!((n - 5.0).abs() < 1e-6);
        let new_norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-6);
        // Below the cap: untouched.
        let mut h = vec![0.3f32, 0.4];
        clip_grad_norm(&mut h, 1.0);
        assert_eq!(h, vec![0.3, 0.4]);
    }

    #[test]
    fn adam_accepts_slots_in_any_order() {
        // Slot 2 touched before slot 0: the index-keyed buffers must
        // grow to fit and keep untouched slots empty.
        let mut adam = Adam::new(0.1);
        let mut hi = vec![5.0f32];
        adam.begin_step();
        adam.update_slot(2, &mut hi, &[1.0]);
        let mut lo = vec![1.0f32, 2.0];
        adam.update_slot(0, &mut lo, &[0.5, -0.5]);
        assert_eq!(adam.m.len(), 3);
        assert!(adam.m[1].is_empty());
        assert_eq!(adam.m[0].len(), 2);
    }
}
