//! Figure 8 fidelity: how far the reproduced active-power and energy
//! reductions of Virgo sit from the paper's, in percentage points.
//!
//! A reduction is signed: positive when Virgo is lower than the baseline,
//! negative when it is higher. Hopper-style at 512³ draws less power than
//! Virgo, so its reduction is negative and its error is the paper's value
//! *plus* the overshoot, not minus it.

/// Paper Figure 8: Virgo's active-power reduction against Ampere-style, %.
pub const PAPER_POWER_VS_AMPERE: f64 = 67.3;
/// Paper Figure 8: Virgo's active-power reduction against Hopper-style, %.
pub const PAPER_POWER_VS_HOPPER: f64 = 24.2;
/// Paper Figure 8: Virgo's energy reduction against Ampere-style, %.
pub const PAPER_ENERGY_VS_AMPERE: f64 = 80.3;
/// Paper Figure 8: Virgo's energy reduction against Hopper-style, %.
pub const PAPER_ENERGY_VS_HOPPER: f64 = 32.5;

/// Signed percent reduction of `virgo` against `baseline`.
pub fn reduction_pct(virgo: f64, baseline: f64) -> f64 {
    (1.0 - virgo / baseline) * 100.0
}

/// Distance between a reproduced and a paper reduction, in percentage
/// points.
pub fn error_pp(reproduced_pct: f64, paper_pct: f64) -> f64 {
    (reproduced_pct - paper_pct).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_higher_virgo_is_a_negative_reduction() {
        assert!((reduction_pct(103.5, 100.0) + 3.5).abs() < 1e-9);
        assert!((reduction_pct(49.5, 100.0) - 50.5).abs() < 1e-9);
    }

    #[test]
    fn error_adds_the_overshoot_when_the_sign_flips() {
        // Hopper-style at 512³: -3.5 % against the paper's 24.2 %.
        let hopper = error_pp(reduction_pct(103.5, 100.0), PAPER_POWER_VS_HOPPER);
        assert!((hopper - 27.7).abs() < 1e-9, "{hopper}");
        // Ampere-style at 512³: 50.5 % against 67.3 %.
        let ampere = error_pp(50.5, PAPER_POWER_VS_AMPERE);
        assert!((ampere - 16.8).abs() < 1e-9, "{ampere}");
    }
}
