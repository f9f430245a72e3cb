//! Table 2: application growth rates under the Hong–Kung I/O model.
//!
//! For each algorithm the paper tabulates total memory, computation `C`,
//! minimal off-chip traffic `D` as a function of problem size `N` and
//! on-chip memory `S`, and how the computation-to-traffic ratio `C/D`
//! improves when `S` grows by a factor `k`. The punchline (§2.4): as
//! long as processing speed grows at least as fast as `C/D`, growing
//! on-chip memory keeps the processor/bandwidth balance — e.g. quadruple
//! the memory and TMM needs only 2× the processing speed.

use serde::{Deserialize, Serialize};

/// The four Table 2 algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Tiled matrix multiply (`N × N`).
    Tmm,
    /// Iterated stencil over an `N × N` matrix (time-tiled).
    Stencil,
    /// `N`-point FFT.
    Fft,
    /// Merge sort of `N` keys.
    Sort,
}

impl Algorithm {
    /// All four, in the table's order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Tmm,
        Algorithm::Stencil,
        Algorithm::Fft,
        Algorithm::Sort,
    ];

    /// Name as printed in Table 2.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Tmm => "TMM",
            Algorithm::Stencil => "Stencil",
            Algorithm::Fft => "FFT",
            Algorithm::Sort => "Sort",
        }
    }

    /// Total memory requirement (Table 2 "Memory" column), in elements.
    pub fn memory(&self, n: f64) -> f64 {
        match self {
            Algorithm::Tmm | Algorithm::Stencil => n * n,
            Algorithm::Fft | Algorithm::Sort => n,
        }
    }

    /// Computation `C` (Table 2), in operations.
    pub fn computation(&self, n: f64) -> f64 {
        match self {
            Algorithm::Tmm => n * n * n,
            Algorithm::Stencil => n * n,
            Algorithm::Fft | Algorithm::Sort => n * n.log2(),
        }
    }

    /// Minimal off-chip traffic `D` for on-chip memory `S` (Table 2), in
    /// elements. (TMM: `2N³/√S`, per the §2.4 tiling derivation; the
    /// constant is kept so Table 2's empirical check can compare shapes.)
    ///
    /// # Panics
    ///
    /// Panics if `s < 2` (the log-law algorithms need `log₂ S > 0`).
    pub fn traffic(&self, n: f64, s: f64) -> f64 {
        assert!(s >= 2.0, "on-chip memory must be at least 2 elements");
        match self {
            Algorithm::Tmm => 2.0 * n * n * n / s.sqrt() + n * n,
            Algorithm::Stencil => n * n / s.sqrt(),
            Algorithm::Fft | Algorithm::Sort => n * n.log2() / s.log2(),
        }
    }

    /// `C/D` for the given `n`, `s`.
    pub fn cd_ratio(&self, n: f64, s: f64) -> f64 {
        self.computation(n) / self.traffic(n, s)
    }

    /// Multiplicative gain in `C/D` when `S` grows by factor `k`
    /// (Table 2's right-most column: `√k` for TMM/Stencil, `log₂`-law for
    /// FFT/Sort).
    pub fn cd_gain(&self, n: f64, s: f64, k: f64) -> f64 {
        self.cd_ratio(n, s * k) / self.cd_ratio(n, s)
    }

    /// Table 2's symbolic label for the `C/D` change.
    pub fn gain_label(&self) -> &'static str {
        match self {
            Algorithm::Tmm | Algorithm::Stencil => "√k",
            Algorithm::Fft | Algorithm::Sort => "log₂k",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_gain_is_exactly_sqrt_k() {
        let g = Algorithm::Stencil.cd_gain(4096.0, 16384.0, 4.0);
        assert!((g - 2.0).abs() < 1e-9, "sqrt(4) = 2, got {g}");
        let g9 = Algorithm::Stencil.cd_gain(4096.0, 16384.0, 9.0);
        assert!((g9 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tmm_gain_approaches_sqrt_k_for_large_n() {
        // The +N^2 compulsory term dilutes the gain slightly; with N large
        // relative to sqrt(S) the sqrt(k) law dominates.
        let g = Algorithm::Tmm.cd_gain(1_000_000.0, 16384.0, 4.0);
        assert!((g - 2.0).abs() < 0.05, "got {g}");
    }

    #[test]
    fn quadrupling_memory_needs_doubling_speed() {
        // The section-2.4 argument: 4x gates -> 4x memory -> traffic
        // halves -> 2x processing speed keeps f_P / f_B balanced.
        let before = Algorithm::Tmm.cd_ratio(1_000_000.0, 65536.0);
        let after = Algorithm::Tmm.cd_ratio(1_000_000.0, 4.0 * 65536.0);
        assert!((after / before - 2.0).abs() < 0.05);
    }

    #[test]
    fn fft_and_sort_gain_is_logarithmic() {
        for alg in [Algorithm::Fft, Algorithm::Sort] {
            // C/D = log2(S): growing S by k multiplies C/D by
            // log2(kS)/log2(S).
            let g = alg.cd_gain(1_048_576.0, 1024.0, 4.0);
            let expected = (4.0f64 * 1024.0).log2() / 1024.0f64.log2();
            assert!(
                (g - expected).abs() < 1e-9,
                "{}: {g} vs {expected}",
                alg.name()
            );
            assert!(g < 1.5, "log-law algorithms gain little");
        }
    }

    #[test]
    fn memory_and_computation_columns() {
        assert_eq!(Algorithm::Tmm.memory(100.0), 10_000.0);
        assert_eq!(Algorithm::Tmm.computation(100.0), 1_000_000.0);
        assert_eq!(Algorithm::Fft.memory(1024.0), 1024.0);
        assert!((Algorithm::Sort.computation(1024.0) - 1024.0 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn gain_labels_match_table_2() {
        assert_eq!(Algorithm::Tmm.gain_label(), "√k");
        assert_eq!(Algorithm::Stencil.gain_label(), "√k");
        assert_eq!(Algorithm::Fft.gain_label(), "log₂k");
        assert_eq!(Algorithm::Sort.gain_label(), "log₂k");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn traffic_rejects_degenerate_memory() {
        let _ = Algorithm::Fft.traffic(1024.0, 1.0);
    }
}
