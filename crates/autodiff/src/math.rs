//! Fast, branch-free transcendental approximations for the GRU gate hot
//! loops.
//!
//! `libm` calls dominate the per-cell cost of batched GRU stepping (two
//! sigmoids and a tanh per hidden unit). These polynomial versions inline
//! into the gate loops, cost ~20 flops each, and auto-vectorise. Maximum
//! relative error is ~1e-7 (verified by tests against `std`). The GRU gate
//! epilogue ([`crate::ops::gru_gates`]) — one function, which the fused
//! training-time GRU nodes and tape-free scoring both call — is built on
//! them, as are the elementwise tape ops (`sigmoid`/`tanh`/`exp`) and the
//! fused softmax cross-entropy.
// The polynomial constants are the exact Cephes coefficients; extra digits
// document provenance even where f32 rounds them.
#![allow(clippy::excessive_precision)]

/// `e^x` with ~1e-7 relative error, clamped to the finite `f32` range.
///
/// Cephes-style: split `x = n·ln2 + r` with `n` rounded to nearest, apply a
/// degree-5 minimax polynomial for `e^r` on `[-ln2/2, ln2/2]`, scale by
/// `2^n` through exponent bits.
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5 * 2^23: adding then subtracting rounds to the nearest integer.
    const ROUND_MAGIC: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 87.0);
    let shifted = x * LOG2E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let p = 1.987_569_15e-4f32;
    let p = p * r + 1.398_199_95e-3;
    let p = p * r + 8.333_451_9e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_55e-1;
    let p = p * r + 5.000_000_1e-1;
    let p = p * (r * r) + r + 1.0;
    // `shifted` lies in `[2^23, 2^24)`, where a float's mantissa is its
    // integer part: `n` sits in the low bits of `shifted`, offset by the
    // magic's own. Read there, not through `n as i32`: a float-to-int cast
    // saturates, which compiles to a scalar convert-and-fix-up per lane
    // inside the otherwise vectorised gate loops.
    let n = shifted.to_bits() as i32 - ROUND_MAGIC.to_bits() as i32;
    let scale = f32::from_bits(((n + 127) << 23) as u32);
    p * scale
}

/// Logistic function via [`fast_exp`]; absolute error < 1e-6.
#[inline]
pub fn fast_sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(-x))
}

/// `tanh` via [`fast_exp`]; absolute error < 1e-6.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    // tanh(x) = (e^{2x} - 1) / (e^{2x} + 1)
    let e = fast_exp(2.0 * x);
    (e - 1.0) / (e + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(lo: f32, hi: f32, n: usize) -> impl Iterator<Item = f32> {
        (0..=n).map(move |i| lo + (hi - lo) * i as f32 / n as f32)
    }

    #[test]
    fn fast_exp_tracks_std_exp() {
        for x in sweep(-80.0, 80.0, 200_000) {
            let got = fast_exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 3e-7, "exp({x}): {got} vs {want} (rel {rel:e})");
        }
    }

    #[test]
    fn fast_sigmoid_absolute_error_bounded() {
        for x in sweep(-30.0, 30.0, 200_000) {
            let got = fast_sigmoid(x);
            let want = 1.0 / (1.0 + (-x).exp());
            assert!((got - want).abs() < 1e-6, "sigmoid({x}): {got} vs {want}");
        }
    }

    #[test]
    fn fast_tanh_absolute_error_bounded_and_saturates() {
        for x in sweep(-20.0, 20.0, 200_000) {
            let got = fast_tanh(x);
            let want = x.tanh();
            assert!((got - want).abs() < 1e-6, "tanh({x}): {got} vs {want}");
            assert!(got.abs() <= 1.0, "tanh({x}) = {got} out of range");
        }
        assert_eq!(fast_tanh(100.0), 1.0);
        assert_eq!(fast_tanh(-100.0), -1.0);
    }

    #[test]
    fn exponent_read_from_the_mantissa_is_the_saturating_cast() {
        // `fast_exp` reads its power of two out of the rounding sum's low
        // bits. The formulation it replaced took it through a
        // float-to-int cast; both must give every bit of every result.
        // Every 251st bit pattern (so every exponent, both signs, NaNs
        // and infinities) plus the clamp's edges.
        fn by_cast(x: f32) -> f32 {
            let x = x.clamp(-87.0, 87.0);
            let n = (x * std::f32::consts::LOG2_E + 12_582_912.0) - 12_582_912.0;
            let r = (x - n * 0.693_359_375) - n * -2.121_944_4e-4;
            let p = 1.987_569_15e-4f32;
            let p = p * r + 1.398_199_95e-3;
            let p = p * r + 8.333_451_9e-3;
            let p = p * r + 4.166_579_6e-2;
            let p = p * r + 1.666_666_55e-1;
            let p = p * r + 5.000_000_1e-1;
            let p = p * (r * r) + r + 1.0;
            p * f32::from_bits(((n as i32 + 127) << 23) as u32)
        }
        let edges = [-87.0f32, 87.0, -0.0, 0.0, f32::MIN, f32::MAX, f32::INFINITY, f32::NAN];
        for x in (0..=u32::MAX).step_by(251).map(f32::from_bits).chain(edges) {
            let (got, want) = (fast_exp(x), by_cast(x));
            assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()), "exp({x})");
        }
    }

    #[test]
    fn extremes_stay_finite() {
        assert!(fast_exp(1000.0).is_finite());
        assert_eq!(fast_exp(-1000.0), fast_exp(-87.0));
        assert!(fast_sigmoid(f32::MAX).is_finite());
    }
}
