//! The kernel layer: the row kernel every matrix product is built on,
//! and the opt-in fast-math forward tier.
//!
//! ## Tiers
//!
//! The inference kernel (`Network::forward_batch_into_tier`) takes a
//! [`ForwardTier`]:
//!
//! - [`ForwardTier::Scalar`] is the bit-exact golden reference — the
//!   exact kernels the goldens, the content-addressed cache, and the
//!   training path were frozen against. `tanh` is libm's.
//! - [`ForwardTier::Fast`] swaps the tanh activation for
//!   [`fast_tanh`], a rational-polynomial approximation (documented
//!   error bound below). Everything else — accumulation order, bias
//!   handling, zero-skip — is unchanged, so pre-activation values are
//!   bitwise identical to the scalar tier.
//!
//! ## Determinism model
//!
//! The fast tier is *approximate relative to scalar* but still fully
//! deterministic in itself: every kernel here uses only IEEE-754
//! single-precision `+`, `*`, `/` and comparisons — all correctly
//! rounded — and never FMA, and never reorders an accumulation. The
//! loops are written so the compiler may vectorise *across* elements
//! (each element is its own accumulator), which cannot move a bit, so
//! results do not depend on the CPU the run landed on or on slice
//! alignment. Cached blobs produced under `fast_math` are byte-stable
//! across machines.
//!
//! There is one backend, plain safe Rust. A hand-written vector backend
//! behind a cargo feature was measured end to end and deleted
//! (docs/PERFORMANCE.md, "Why there is one backend").
//!
//! ## `fast_tanh` error bound
//!
//! [`fast_tanh`] clamps to ±[`FAST_TANH_CLAMP`] and evaluates a
//! degree-13/degree-6 rational approximation (the classic
//! Eigen/XLA coefficient set) in f32. Against `f64::tanh` the maximum
//! absolute error is below [`FAST_TANH_MAX_ABS_ERROR`] = 4e-6 over the
//! whole real line (verified by a dense-grid test in this module), and
//! the output is always in `[-1, 1]`. That is ~2 decimal digits
//! tighter than the control loop's own rounding (reports round to
//! 1e-6) but far looser than the 0-ULP scalar contract — which is why
//! the tier is opt-in and carried in the cache key.

/// Which forward-pass kernel tier an inference path runs. See the
/// module docs for the contract; `Scalar` is the default everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ForwardTier {
    /// Bit-exact reference kernels (libm `tanh`); the tier all goldens
    /// and the training path use.
    #[default]
    Scalar,
    /// Approximate-math kernels: [`fast_tanh`] activation, same
    /// accumulation order. Deterministic, but not bitwise equal to
    /// `Scalar`.
    Fast,
}

impl ForwardTier {
    /// True for the approximate tier.
    pub fn is_fast(self) -> bool {
        matches!(self, ForwardTier::Fast)
    }
}

/// Saturation threshold of [`fast_tanh`]: beyond this |x| the f32
/// result of `tanh` is exactly ±1, so inputs are clamped here before
/// the polynomial (which would otherwise leave its fitted range).
pub const FAST_TANH_CLAMP: f32 = 7.905_311_f32;

/// Documented bound on `|fast_tanh(x) - tanh(x)|` over all of ℝ
/// (tested against `f64::tanh` on a dense grid below).
pub const FAST_TANH_MAX_ABS_ERROR: f32 = 4e-6;

// Rational-approximation coefficients for tanh on the clamped range:
// numerator x·P(x²) of degree 13, denominator Q(x²) of degree 6. This
// is the well-known single-precision coefficient set used by Eigen and
// XLA; evaluated in Horner form with plain mul/add (no FMA).
const ALPHA_1: f32 = 4.893_524_6e-3;
const ALPHA_3: f32 = 6.372_619_3e-4;
const ALPHA_5: f32 = 1.485_722_4e-5;
const ALPHA_7: f32 = 5.122_297_1e-8;
const ALPHA_9: f32 = -8.604_672e-11;
const ALPHA_11: f32 = 2.000_188e-13;
const ALPHA_13: f32 = -2.760_768_5e-16;
const BETA_0: f32 = 4.893_525e-3;
const BETA_2: f32 = 2.268_434_6e-3;
const BETA_4: f32 = 1.185_347_1e-4;
const BETA_6: f32 = 1.198_258_4e-6;

/// SSE-semantics minimum: returns `b` when the comparison is
/// unordered (unlike `f32::min`), so the clamp maps a NaN input to
/// its upper bound — the behaviour the fast tier's bytes were frozen
/// with.
#[inline(always)]
fn sse_min(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// SSE-semantics maximum; see [`sse_min`].
#[inline(always)]
fn sse_max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Fast hyperbolic tangent: clamp to ±[`FAST_TANH_CLAMP`], then a
/// degree-13/6 rational polynomial in f32. Maximum absolute error
/// below [`FAST_TANH_MAX_ABS_ERROR`]; uses only correctly rounded
/// `+`/`*`/`/` and the SSE-style clamp, never FMA.
#[inline(always)]
pub fn fast_tanh(x: f32) -> f32 {
    let x = sse_max(sse_min(x, FAST_TANH_CLAMP), -FAST_TANH_CLAMP);
    let x2 = x * x;
    let mut p = ALPHA_13;
    p = p * x2 + ALPHA_11;
    p = p * x2 + ALPHA_9;
    p = p * x2 + ALPHA_7;
    p = p * x2 + ALPHA_5;
    p = p * x2 + ALPHA_3;
    p = p * x2 + ALPHA_1;
    let p = p * x;
    let mut q = BETA_6;
    q = q * x2 + BETA_4;
    q = q * x2 + BETA_2;
    q = q * x2 + BETA_0;
    p / q
}

/// Applies [`fast_tanh`] to every element in place.
pub fn fast_tanh_slice(xs: &mut [f32]) {
    for x in xs {
        *x = fast_tanh(*x);
    }
}

/// `out[i] += a * w[i]` with one rounding per element (mul then add,
/// no FMA) — the inner kernel of every `Matrix` product, the dense
/// layers' forward among them. Each output element is an independent
/// accumulator, so the compiler vectorising across elements preserves
/// the scalar accumulation order exactly.
#[inline]
pub(crate) fn axpy(out: &mut [f32], a: f32, w: &[f32]) {
    debug_assert_eq!(out.len(), w.len());
    for (o, &b) in out.iter_mut().zip(w) {
        *o += a * b;
    }
}

/// Applies `act` elementwise under a tier: the fast tier swaps tanh
/// for [`fast_tanh_slice`], every other (activation, tier) pair is the
/// scalar reference (`Relu`/`Linear` are exact in both tiers).
pub(crate) fn apply_activation(act: crate::mlp::Activation, tier: ForwardTier, xs: &mut [f32]) {
    use crate::mlp::Activation;
    match (act, tier) {
        (Activation::Tanh, ForwardTier::Fast) => fast_tanh_slice(xs),
        (act, _) => {
            for x in xs {
                *x = act.apply(*x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense-grid verification of the documented error bound, plus the
    /// range contract: |fast_tanh| ≤ 1 and exact sign symmetry.
    #[test]
    fn fast_tanh_error_bound_holds_on_a_dense_grid() {
        let mut worst = 0.0f64;
        // 1.2M points over [-12, 12] — well past the clamp on both
        // sides, dense enough (2e-5 spacing) to pin the polynomial.
        for i in 0..=1_200_000 {
            let x = -12.0 + i as f64 * 2e-5;
            let got = fast_tanh(x as f32) as f64;
            let want = x.tanh();
            worst = worst.max((got - want).abs());
            assert!(got.abs() <= 1.0, "fast_tanh({x}) = {got} escapes [-1, 1]");
        }
        assert!(
            worst < FAST_TANH_MAX_ABS_ERROR as f64,
            "worst abs error {worst:.3e} exceeds the documented bound"
        );
    }

    #[test]
    fn fast_tanh_is_odd_and_saturates() {
        for x in [0.0f32, 0.3, 1.7, 5.0, 7.9, 8.0, 100.0, f32::INFINITY] {
            assert_eq!(
                fast_tanh(x).to_bits(),
                (-fast_tanh(-x)).to_bits(),
                "odd symmetry broke at {x}"
            );
        }
        assert_eq!(fast_tanh(0.0), 0.0);
        assert!((fast_tanh(100.0) - 1.0).abs() < 1e-6);
        assert!((fast_tanh(f32::INFINITY) - 1.0).abs() < 1e-6);
    }

    /// The slice kernel is bitwise identical to the scalar reference on
    /// every element, at lengths on both sides of any vector width the
    /// compiler may pick.
    #[test]
    fn fast_tanh_slice_is_bitwise_identical_to_scalar() {
        for len in [0usize, 1, 7, 8, 9, 16, 33, 1000] {
            let xs: Vec<f32> = (0..len)
                .map(|i| (i as f32 - len as f32 / 2.0) * 0.37)
                .collect();
            let mut got = xs.clone();
            fast_tanh_slice(&mut got);
            for (i, (&x, &g)) in xs.iter().zip(&got).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    fast_tanh(x).to_bits(),
                    "element {i} of {len} diverged from the scalar reference"
                );
            }
        }
    }

    #[test]
    fn tier_default_is_scalar() {
        assert_eq!(ForwardTier::default(), ForwardTier::Scalar);
        assert!(!ForwardTier::Scalar.is_fast());
        assert!(ForwardTier::Fast.is_fast());
    }
}
