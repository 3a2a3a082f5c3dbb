//! The storage format of a live trip's decoder hidden row: bfloat16, the
//! top 16 bits of an f32. A [`crate::ScorerState`] keeps its row in these
//! two bytes per value; every step widens it into the f32 tile, runs the
//! f32 kernels, and rounds the new row back. bf16 keeps f32's 8-bit
//! exponent, so rounding adds no overflow or subnormal case beyond
//! values within half a bf16 step of `f32::MAX`, which round to infinity.

/// Rounds `x` to the nearest bf16, ties to even. A NaN stays a NaN: it
/// is truncated, sign and top payload bits kept, and gains the quiet bit
/// only when truncation would leave the pattern of an infinity.
#[inline]
pub(crate) fn round(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        let hi = (bits >> 16) as u16;
        return hi | (u16::from(hi & 0x7F == 0) << 6);
    }
    // Below a tie the carry stops short of bit 16; at a tie it reaches it
    // only when bit 16 is odd. The largest non-NaN pattern (-inf) leaves
    // room for the addend.
    ((bits + 0x7FFF + ((bits >> 16) & 1)) >> 16) as u16
}

/// The f32 a bf16 stands for, exactly.
#[inline]
pub(crate) fn widen(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Rounds every value of `src` into `dst`.
pub(crate) fn round_into(dst: &mut [u16], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len(), "bf16 row width");
    dst.iter_mut().zip(src).for_each(|(d, &x)| *d = round(x));
}

/// Widens every value of `src` into `dst`.
pub(crate) fn widen_into(dst: &mut [f32], src: &[u16]) {
    debug_assert_eq!(dst.len(), src.len(), "bf16 row width");
    dst.iter_mut().zip(src).for_each(|(d, &b)| *d = widen(b));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tie_rounds_to_even() {
        // 1 + 2^-8 sits halfway between 1 and 1 + 2^-7: the even one is 1.
        assert_eq!(round(f32::from_bits(0x3F80_8000)), 0x3F80);
        // 1 + 3·2^-8 sits between 1 + 2^-7 (odd) and 1 + 2^-6 (even).
        assert_eq!(round(f32::from_bits(0x3F81_8000)), 0x3F82);
        // Just off a tie goes to the nearer neighbour.
        assert_eq!(round(f32::from_bits(0x3F80_7FFF)), 0x3F80);
        assert_eq!(round(f32::from_bits(0x3F80_8001)), 0x3F81);
        assert_eq!(round(-f32::from_bits(0x3F80_8000)), 0xBF80);
    }

    #[test]
    fn a_round_up_carries_into_the_exponent() {
        // The largest mantissa below 2, rounded up, is 2.0 exactly.
        assert_eq!(round(f32::from_bits(0x3FFF_FFFF)), 0x4000);
        assert_eq!(widen(round(f32::from_bits(0x3FFF_FFFF))), 2.0);
        assert_eq!(round(-f32::from_bits(0x3FFF_C000)), 0xC000);
    }

    #[test]
    fn zeros_and_infinities_pass_through() {
        for x in [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(round(x), (x.to_bits() >> 16) as u16, "{x}");
            assert_eq!(widen(round(x)).to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn nan_stays_nan_never_inf() {
        // Payloads that live only in the low half would truncate to an
        // infinity's pattern; any payload must come back a NaN, sign kept.
        for bits in [0x7F80_0001u32, 0x7F80_FFFF, 0x7FFF_FFFF, 0x7FC0_0000, 0xFF80_0001] {
            let x = f32::from_bits(bits);
            assert!(x.is_nan());
            let back = widen(round(x));
            assert!(back.is_nan(), "{bits:#x} -> {:#x}", back.to_bits());
            assert_eq!(back.is_sign_negative(), x.is_sign_negative(), "{bits:#x}");
        }
    }

    #[test]
    fn an_f32_subnormal_rounds_on_the_same_grid() {
        // The smallest positive subnormal is far below half a bf16 step.
        assert_eq!(round(f32::from_bits(1)), 0x0000);
        // Half of the smallest bf16 subnormal (2^-133) is a tie: to even, 0.
        assert_eq!(round(f32::from_bits(0x0000_8000)), 0x0000);
        // Above it rounds up to that subnormal, and a bf16 subnormal is kept.
        assert_eq!(round(f32::from_bits(0x0000_8001)), 0x0001);
        assert_eq!(round(f32::from_bits(0x0012_0000)), 0x0012);
        // The largest f32 subnormal rounds up into the smallest normal.
        assert_eq!(round(f32::from_bits(0x007F_FFFF)), 0x0080);
        assert_eq!(round(-f32::from_bits(0x0000_C000)), 0x8001);
    }

    #[test]
    fn f32_max_rounds_to_infinity() {
        assert_eq!(round(f32::MAX), 0x7F80);
        assert_eq!(widen(round(f32::MAX)), f32::INFINITY);
        assert_eq!(widen(round(f32::MIN)), f32::NEG_INFINITY);
    }

    #[test]
    fn widen_then_round_is_the_identity_on_every_bf16() {
        // NaNs included: a bf16 NaN already has a payload bit set.
        for b in 0..=u16::MAX {
            assert_eq!(round(widen(b)), b, "{b:#06x}");
        }
    }

    #[test]
    fn rounding_a_rounded_value_changes_nothing() {
        // Every 2^16-th pattern plus the bits round() reads and both
        // neighbours of a tie, across all exponents and both signs.
        let mut low = [0u32, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF, 0x4000, 0xC000].to_vec();
        low.extend((0..64).map(|i| i * 1021));
        for high in 0..=u16::MAX as u32 {
            for &lo in &low {
                let x = f32::from_bits(high << 16 | lo);
                let once = round(x);
                assert_eq!(round(widen(once)), once, "{:#010x}", x.to_bits());
            }
        }
    }
}
