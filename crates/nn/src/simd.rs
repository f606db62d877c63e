//! The kernel layer: the row kernel every matrix product is built on,
//! the exact `tanh`, and the fast forward tier of training rollouts.
//!
//! ## Tiers
//!
//! The inference kernel (`Network::forward_batch_into_tier`) takes a
//! [`ForwardTier`]:
//!
//! - [`ForwardTier::Scalar`] is the bit-exact golden reference — the
//!   exact kernels the goldens, the content-addressed cache, and the
//!   training path were frozen against, and the only tier evaluation
//!   runs. `tanh` is [`exact_tanh`], a
//!   port of fdlibm's `tanhf` as glibc 2.36 ships it, run eight lanes
//!   at a time by [`exact_tanh_slice`]; it equals that libm on every
//!   one of the 2^32 `f32` inputs (an `#[ignore]`d release test in this
//!   module checks all of them against the host's `f32::tanh`), so the
//!   bytes it produces no longer depend on the host's libm.
//! - [`ForwardTier::Fast`] swaps the tanh activation for
//!   [`fast_tanh`], a rational-polynomial approximation (documented
//!   error bound below). Everything else — accumulation order, bias
//!   handling, zero-skip — is unchanged, so pre-activation values are
//!   bitwise identical to the scalar tier. Only training rollouts
//!   over more than one env select it (docs/PERFORMANCE.md, "The
//!   training-rollout tier").
//!
//! ## Determinism model
//!
//! The fast tier is *approximate relative to scalar* but still fully
//! deterministic in itself: every kernel here uses only IEEE-754
//! single-precision `+`, `*`, `/` and comparisons — all correctly
//! rounded — besides bit operations, never FMA, and never reorders an
//! accumulation. The
//! loops are written so the compiler may vectorise *across* elements
//! (each element is its own accumulator), which cannot move a bit, so
//! results do not depend on the CPU the run landed on or on slice
//! alignment. Models trained on it are byte-stable across machines.
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
//! no report is computed on it.

/// Which forward-pass kernel tier an inference path runs. See the
/// module docs for the contract; `Scalar` is the default everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ForwardTier {
    /// Bit-exact reference kernels ([`exact_tanh`]); the tier all
    /// goldens and the training path use.
    #[default]
    Scalar,
    /// Approximate-math kernels: [`fast_tanh`] activation, same
    /// accumulation order. Deterministic, but not bitwise equal to
    /// `Scalar`.
    Fast,
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

// The exact tier's tanh: fdlibm's `tanhf` and `expm1f` as glibc 2.36
// ships them (sysdeps/ieee754/flt-32/s_tanhf.c, s_expm1f.c), statement
// for statement in f32 `+ - * /`, compares and bit operations — no
// fused multiply-add, so every operation rounds once, as in a baseline
// x86-64 build of that libm. The original notice:
//
// Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;
// fdlibm's constants, their bit patterns checked by a test below.
/// Above this `expm1f` overflows (0x42b17180).
const O_THRESHOLD: f32 = 88.72168;
/// ln 2 split in two, 0x3f317180 + 0x3717f7d1: `k · LN2_HI` is exact
/// for the `k` reached.
const LN2_HI: f32 = 0.693_138_1;
const LN2_LO: f32 = 9.058_001e-6;
/// 1 / ln 2 (0x3fb8aa3b).
const INVLN2: f32 = std::f32::consts::LOG2_E;
// Scaled coefficients of the rational approximation on [0, ½ ln 2]:
// 0xbd088889, 0x3ad00d01, 0xb8a670cd, 0x36867e54, 0xb457edbb.
const Q1: f32 = -3.333_333_5e-2;
const Q2: f32 = 1.587_301_6e-3;
const Q3: f32 = -7.936_507_6e-5;
const Q4: f32 = 4.008_217_7e-6;
const Q5: f32 = -2.010_992_1e-7;

/// `|x|`'s bits at the `tanhf` thresholds: 2^-55 (below it `tanh(x)`
/// is `x·(1 + x)`), 1 (where the formula switches) and 22 (above it
/// the result is ±1).
const TANH_TINY: u32 = 0x2400_0000;
const TANH_ONE: u32 = 0x3f80_0000;
const TANH_HUGE: u32 = 0x41b0_0000;
/// `|x|`'s bits at the `expm1f` thresholds: 2^-25, ½ ln 2, 1.5 ln 2,
/// 27 ln 2 and 88.72.
const EXPM1_TINY: u32 = 0x3300_0000;
const EXPM1_HALF_LN2: u32 = 0x3eb1_7218;
const EXPM1_3HALF_LN2: u32 = 0x3f85_1592;
const EXPM1_27LN2: u32 = 0x4195_b844;
const EXPM1_OVERFLOW: u32 = 0x42b1_7218;

/// `y · 2^k` by adding `k` to `y`'s exponent field (no range check,
/// as in fdlibm).
#[inline(always)]
fn scale_by_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// fdlibm's `expm1f`, ported whole so that it reads line for line
/// against the source, although its one caller, [`exact_tanh`], only
/// passes arguments in [2, 44) and (−2, −2^-54].
fn expm1f(x: f32) -> f32 {
    let negative = x.to_bits() >> 31 != 0;
    let hx = x.to_bits() & 0x7fff_ffff;
    // Huge and non-finite arguments.
    if hx >= EXPM1_27LN2 {
        if hx >= EXPM1_OVERFLOW {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if negative { -1.0 } else { x };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE;
            }
        }
        if negative {
            return TINY - 1.0;
        }
    }
    // Argument reduction: x = k·ln2 + (hi − lo), |hi − lo| ≤ ½ ln 2.
    let (x, c, k) = if hx > EXPM1_HALF_LN2 {
        let (hi, lo, k) = if hx < EXPM1_3HALF_LN2 {
            if negative {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INVLN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < EXPM1_TINY {
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (x, 0.0, 0)
    };
    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        return scale_by_exponent(1.0 - (e - x), k) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 − 2^-k
        scale_by_exponent(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        scale_by_exponent(x - (e + t) + 1.0, k)
    }
}

/// The exact tier's hyperbolic tangent: fdlibm's `tanhf` as glibc 2.36
/// ships it, so `exact_tanh(x)` has the bits of that libm's `tanhf(x)`
/// for every `x` (NaN in, NaN out), whatever libm the host has.
pub fn exact_tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let negative = jx >> 31 != 0;
    // tanh(±inf) = ±1, tanh(NaN) = NaN.
    if ix >= 0x7f80_0000 {
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    let z = if ix < TANH_HUGE {
        if ix == 0 {
            return x;
        }
        if ix < TANH_TINY {
            return x * (1.0 + x);
        }
        if ix >= TANH_ONE {
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY
    };
    if negative {
        -z
    } else {
        z
    }
}

/// Lanes of [`exact_tanh_slice`]'s chunk.
const LANES: usize = 8;

/// All-ones when `c` holds, for bit-mask selects.
#[inline(always)]
fn mask(c: bool) -> u32 {
    (c as u32).wrapping_neg()
}

/// `a` where `m` is all-ones, `b` where it is zero.
#[inline(always)]
fn select(m: u32, a: f32, b: f32) -> f32 {
    f32::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

/// [`select`] on integer lanes.
#[inline(always)]
fn select_i32(m: u32, a: i32, b: i32) -> i32 {
    (a & m as i32) | (b & !m as i32)
}

/// [`exact_tanh`] of eight lanes that all satisfy 2^-55 ≤ |x| < 22,
/// without a branch: every `expm1f` case the lanes can reach is
/// computed for each lane and the lane's own picked by bit masks, so
/// the compiler vectorises the whole chunk.
///
/// On this domain `expm1f` sees `2|x|` ∈ [2, 44) or `−2|x|` ∈
/// (−2, −2^-54], so its `k` is 0, −1, −2, −3 or 3…63 (never 1) and no
/// overflow or saturation case is reachable. The reduction for `k = 0`
/// and `k = −1` is the general one with that `k` (`x − 0·LN2_HI` is `x`,
/// `x − (−1)·LN2_HI` is `x + LN2_HI`, both exactly), and `1 − 2^-k` is
/// exact in f32, so each lane rounds exactly as the scalar port does.
#[inline(always)]
fn exact_tanh_lanes(v: &mut [f32; LANES]) {
    for x in v.iter_mut() {
        let bits = x.to_bits();
        let ax = f32::from_bits(bits & 0x7fff_ffff);
        let big = mask(ax >= 1.0);
        // expm1f's argument: 2|x| for |x| ≥ 1, −2|x| below.
        let two_ax = 2.0 * ax;
        let a = f32::from_bits(two_ax.to_bits() | (!big & 0x8000_0000));
        let ha = two_ax.to_bits();
        // Reduction.
        let k_general = (INVLN2 * a + select(big, 0.5, -0.5)) as i32;
        let k = select_i32(
            mask(ha <= EXPM1_HALF_LN2),
            0,
            select_i32(mask(ha < EXPM1_3HALF_LN2), -1, k_general),
        );
        let t = k as f32;
        let hi = a - t * LN2_HI;
        let lo = t * LN2_LO;
        let r = hi - lo;
        let c = (hi - r) - lo;
        // The primary range.
        let hfx = 0.5 * r;
        let hxs = r * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t3 = 3.0 - r1 * hfx;
        let e = hxs * ((r1 - t3) / (6.0 - r * t3));
        let k0 = r - (r * e - hxs);
        let e = (r * (e - c) - c) - hxs;
        let k_minus_1 = 0.5 * (r - e) - 0.5;
        let far = scale_by_exponent(1.0 - (e - r), k) - 1.0;
        let two_pow_minus_k = f32::from_bits(((0x7f - k) << 23) as u32);
        let below_23 = scale_by_exponent((1.0 - two_pow_minus_k) - (e - r), k);
        let from_23 = scale_by_exponent(r - (e + two_pow_minus_k) + 1.0, k);
        let mid = select(mask(k < 23), below_23, from_23);
        let em1 = select(
            mask(k == 0),
            k0,
            select(
                mask(k == -1),
                k_minus_1,
                select(mask(k <= -2 || k > 56), far, mid),
            ),
        );
        let em1 = select(mask(ha < EXPM1_TINY), a, em1);
        // tanh from expm1, then x's sign (z > 0 on this domain).
        let z = select(big, 1.0 - 2.0 / (em1 + 2.0), -em1 / (em1 + 2.0));
        *x = f32::from_bits(z.to_bits() | (bits & 0x8000_0000));
    }
}

/// [`exact_tanh`] of every element in place, eight lanes at a time: a
/// chunk whose lanes all lie in 2^-55 ≤ |x| < 22 goes through the
/// branch-free lane kernel, any other chunk (a zero, a tiny, saturated
/// or non-finite lane) and the tail through the scalar port. Bitwise
/// equal to mapping [`exact_tanh`].
pub fn exact_tanh_slice(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let lanes: &mut [f32; LANES] = chunk.try_into().expect("chunk of LANES");
        let mut in_domain = true;
        for x in lanes.iter() {
            let ix = x.to_bits() & 0x7fff_ffff;
            in_domain &= ix.wrapping_sub(TANH_TINY) < TANH_HUGE - TANH_TINY;
        }
        if in_domain {
            exact_tanh_lanes(lanes);
        } else {
            lanes.iter_mut().for_each(|x| *x = exact_tanh(*x));
        }
    }
    for x in chunks.into_remainder() {
        *x = exact_tanh(*x);
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

/// Applies `act` elementwise under a tier — the one activation path of
/// inference and of the learner's cached forward: tanh is
/// [`exact_tanh_slice`] on the scalar tier and [`fast_tanh_slice`] on
/// the fast one; `Relu`/`Linear` are exact in both tiers.
pub(crate) fn apply_activation(act: crate::mlp::Activation, tier: ForwardTier, xs: &mut [f32]) {
    use crate::mlp::Activation;
    match (act, tier) {
        (Activation::Tanh, ForwardTier::Scalar) => exact_tanh_slice(xs),
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

    /// `got` is `want` bit for bit, or both are NaN.
    fn same(got: f32, want: f32) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    /// The slice kernel over `xs` in one call (whole chunks go through
    /// the lane kernel), each `x` alone and eight copies of it (the
    /// lane kernel on every in-domain `x`) all equal the host's
    /// `f32::tanh`, and so does the scalar port.
    fn assert_agrees_with_host(xs: &[f32], what: &str) {
        let mut slice = xs.to_vec();
        exact_tanh_slice(&mut slice);
        for (&x, &s) in xs.iter().zip(&slice) {
            let want = x.tanh();
            let mut lanes = [x; LANES];
            exact_tanh_slice(&mut lanes);
            let scalar = exact_tanh(x);
            assert!(
                same(scalar, want) && same(s, want) && lanes.iter().all(|&l| same(l, want)),
                "{what}: x = {x:e} ({:#010x}): host {want:e}, port {scalar:e}, \
                 slice {s:e}, lanes {lanes:?}",
                x.to_bits()
            );
        }
    }

    /// ±3 ulps around `x`, both signs.
    fn around(x: f32) -> impl Iterator<Item = f32> {
        let b = x.to_bits() as i64;
        (b - 3..=b + 3).flat_map(|b| {
            let v = f32::from_bits(b as u32);
            [v, -v]
        })
    }

    /// The smallest `x > 0` whose `expm1f(2x)` reduction picks `k` or
    /// more (the reduction is monotone in `x`).
    fn first_x_with_k(k: i32) -> f32 {
        let picks = |bits: u32| (INVLN2 * (2.0 * f32::from_bits(bits)) + 0.5) as i32 >= k;
        let (mut lo, mut hi) = (TANH_ONE, TANH_HUGE);
        assert!(!picks(lo) && picks(hi));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if picks(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        f32::from_bits(hi)
    }

    /// The decimal constants are fdlibm's bit patterns.
    #[test]
    fn expm1f_constants_have_fdlibm_bits() {
        let bits = [O_THRESHOLD, LN2_HI, LN2_LO, INVLN2, Q1, Q2, Q3, Q4, Q5].map(f32::to_bits);
        assert_eq!(
            bits,
            [
                0x42b1_7180,
                0x3f31_7180,
                0x3717_f7d1,
                0x3fb8_aa3b,
                0xbd08_8889,
                0x3ad0_0d01,
                0xb8a6_70cd,
                0x3686_7e54,
                0xb457_edbb
            ]
        );
    }

    /// Every 65 537th bit pattern — all exponents, both signs, NaNs
    /// included — agrees with the host libm.
    #[test]
    fn exact_tanh_matches_host_on_a_bit_pattern_grid() {
        let xs: Vec<f32> = (0..65_536u32).map(|i| f32::from_bits(i * 65_537)).collect();
        assert_agrees_with_host(&xs, "grid");
    }

    /// ±3 ulps around each threshold either function branches on, as
    /// `tanh` sees it: 2^-55, 1 and 22 directly; `expm1f`'s 2^-25,
    /// ½ ln 2, 1.5 ln 2 and 27 ln 2 at half their value (its argument is
    /// ±2|x|); and the first `x` whose reduction reaches k = 23 and
    /// k = 57 (the `k < 23` and `k > 56` cases). Plus ±0, subnormals,
    /// ±∞ and NaNs of both signs.
    #[test]
    fn exact_tanh_matches_host_at_every_threshold_and_special_value() {
        let half = |bits: u32| f32::from_bits(bits - (1 << 23));
        let mut xs: Vec<f32> = [
            f32::from_bits(TANH_TINY),
            f32::from_bits(TANH_ONE),
            f32::from_bits(TANH_HUGE),
            half(EXPM1_TINY),
            half(EXPM1_HALF_LN2),
            half(EXPM1_3HALF_LN2),
            half(EXPM1_27LN2),
            first_x_with_k(23),
            first_x_with_k(57),
        ]
        .into_iter()
        .flat_map(around)
        .collect();
        assert!(first_x_with_k(57) < 22.0, "k = 57 is reachable below 22");
        xs.extend([
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x0040_0000),
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_1234),
            f32::MAX,
            f32::MIN,
        ]);
        assert_agrees_with_host(&xs, "thresholds");
    }

    /// Slices of 0 to 17 in-domain values, each with one value outside
    /// the lane kernel's domain (zero, subnormal, tiny, saturated,
    /// infinite, NaN) at every position: the chunk holding it falls
    /// back to the scalar port, every other chunk and the tail stay
    /// exact.
    #[test]
    fn exact_tanh_slice_handles_an_odd_lane_at_every_position() {
        let odd = [
            0.0,
            -0.0,
            f32::from_bits(3),
            -1e-20,
            30.0,
            -22.0,
            f32::INFINITY,
            f32::NAN,
        ];
        let mut case = 0usize;
        for len in 0..=17usize {
            let base: Vec<f32> = (0..len)
                .map(|i| (i as f32 * 0.61 - 4.3) * if i % 3 == 0 { 1.0 } else { -0.4 })
                .collect();
            assert_agrees_with_host(&base, &format!("len {len}"));
            for pos in 0..len {
                let mut xs = base.clone();
                xs[pos] = odd[case % odd.len()];
                case += 1;
                assert_agrees_with_host(&xs, &format!("len {len}, odd lane at {pos}"));
            }
        }
    }

    /// All 2^32 inputs, the scalar port and the slice kernel each
    /// against the host's `f32::tanh` (a glibc 2.36 `tanhf` on the
    /// machines this was written against). About a minute per core in
    /// release:
    ///
    /// ```text
    /// cargo test --release -p mocc-nn exact_tanh_matches_host_on_every_input -- --ignored
    /// ```
    /// How many inputs of bit patterns `block·len … block·len + len − 1`
    /// the slice kernel or the port maps off the host's `f32::tanh`
    /// (the first one is printed).
    fn mismatches_in_block(block: u64, buf: &mut [f32]) -> u64 {
        let start = block * buf.len() as u64;
        let x_at = |i: usize| f32::from_bits((start + i as u64) as u32);
        for (i, x) in buf.iter_mut().enumerate() {
            *x = x_at(i);
        }
        exact_tanh_slice(buf);
        let mut bad = 0;
        for (i, &s) in buf.iter().enumerate() {
            let (x, want) = (x_at(i), x_at(i).tanh());
            if !same(s, want) || !same(exact_tanh(x), want) {
                if bad == 0 {
                    eprintln!(
                        "x = {x:e} ({:#010x}): host {want:e}, slice {s:e}, port {:e}",
                        x.to_bits(),
                        exact_tanh(x)
                    );
                }
                bad += 1;
            }
        }
        bad
    }

    /// All 2^32 inputs, the scalar port and the slice kernel each
    /// against the host's `f32::tanh` (a glibc 2.36 `tanhf` on the
    /// machines this was written against), on every available core.
    /// About 30 s on two cores in release:
    ///
    /// ```text
    /// cargo test --release -p mocc-nn exact_tanh_matches_host_on_every_input -- --ignored
    /// ```
    #[test]
    #[ignore = "2^32 inputs: run in release mode, see the doc comment"]
    fn exact_tanh_matches_host_on_every_input() {
        const BLOCK: usize = 1 << 16;
        let blocks = (1u64 << 32) / BLOCK as u64;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let mismatches: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut buf = vec![0.0f32; BLOCK];
                        (w..blocks)
                            .step_by(workers as usize)
                            .map(|block| mismatches_in_block(block, &mut buf))
                            .sum::<u64>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(
            mismatches, 0,
            "inputs where the port differs from the host's tanh"
        );
    }

    #[test]
    fn tier_default_is_scalar() {
        assert_eq!(ForwardTier::default(), ForwardTier::Scalar);
    }
}
