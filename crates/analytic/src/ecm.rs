//! ECM-style analytic execution predictor.
//!
//! The paper's Eq. 1–6 already describe execution time as the sum of a
//! processor term, a latency term, and a bandwidth term; Treibig &
//! Hager's Execution-Cache-Memory model shows the same decomposition
//! can be *predicted* from per-level transfer volumes alone. This
//! module does exactly that for the repro's synthetic kernels: given a
//! compact per-(benchmark, scale) [`KernelSignature`] — a log₂-bucketed
//! reuse-distance histogram per block size plus an instruction-mix
//! summary — and a machine configuration, it predicts total execution
//! cycles split into `T_P`/`T_L`/`T_B` ([`predict_time`]) in
//! **microseconds of arithmetic** (a handful of histogram suffix sums —
//! no trace is touched), with an **explicit error bound**.
//!
//! # Where the bound comes from
//!
//! The histogram is exact for fully-associative LRU at any
//! power-of-two capacity (Mattson stack distances, log₂ buckets align
//! with power-of-two capacities), so the modelling error is
//! structural: set-associative conflict misses, replacement policy,
//! and overlap between computation and memory time. The bound is
//! *calibrated*: per-machine-class constants in `calib`, fitted once
//! against the cycle-level simulator at test scale and frozen under
//! [`MODEL_VERSION`], with margin over the worst relative error
//! observed during calibration.
//!
//! # Status
//!
//! No product path consults the model any more. The bounds it asserts
//! on Figure 3 are 900–990‰ of the prediction, and where it does
//! answer it disagrees with simulation (compress A: 7.69 predicted,
//! 3.64 simulated); it also predicts the same `f_P/f_L/f_B` for
//! experiments A, C, D and E, where the paper's simulation shows `f_B`
//! growing. It stays only because `membw-benchmark` still times it
//! (the `analytic.*` layer metrics); DESIGN.md §14 has the record.

use serde::{Deserialize, Serialize};

/// Version tag carried by every prediction. Bump whenever the model
/// equations or the `calib` constants change.
pub const MODEL_VERSION: &str = "ecm-1";

// ---------------------------------------------------------------------------
// Signature data model.
// ---------------------------------------------------------------------------

/// Log₂-bucketed reuse-distance histogram at one block granularity.
///
/// Bucket 0 counts accesses with stack distance exactly 0 (immediate
/// block reuse); bucket `k ≥ 1` counts distances in `[2^(k−1), 2^k)`.
/// Because every capacity the repro sweeps is a power of two (in
/// blocks), this bucketing loses nothing: fully-associative LRU misses
/// at capacity `2^m` blocks are exactly `cold + Σ buckets[m+1..]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockReuse {
    /// Block granularity in bytes (power of two).
    pub block_size: u64,
    /// Total accesses in the trace at this granularity.
    pub accesses: u64,
    /// Accesses to never-before-seen blocks (= distinct blocks).
    pub cold: u64,
    /// Distinct blocks that are ever written (bounds writebacks).
    pub dirty_blocks: u64,
    /// `buckets[0]` = distance-0 count; `buckets[k]` = count of
    /// distances in `[2^(k−1), 2^k)`.
    pub buckets: Vec<u64>,
}

impl BlockReuse {
    /// Misses of a fully-associative LRU cache of `capacity_blocks`.
    ///
    /// Exact when `capacity_blocks` is a power of two; for other
    /// capacities the straddling bucket is counted as missing, making
    /// this an upper bound. Zero capacity misses everything.
    pub fn lru_misses(&self, capacity_blocks: u64) -> u64 {
        if capacity_blocks == 0 {
            return self.accesses;
        }
        // Miss ⇔ distance ≥ capacity. Bucket k ≥ 1 spans [2^(k−1), 2^k),
        // so for capacity 2^m every bucket with k ≥ m+1 misses in full.
        let m = capacity_blocks.ilog2() as usize;
        let first_missing = m + 1;
        let reuse_misses: u64 = self.buckets.iter().skip(first_missing).sum();
        self.cold + reuse_misses
    }

    /// Expected writebacks from a write-back cache with `misses`
    /// fetches: each eviction is dirty with roughly the probability
    /// that a block is ever written, and a dirty eviction needs at
    /// least one write since its fetch, so `stores` caps the count.
    pub fn writeback_estimate(&self, misses: u64, stores: u64) -> f64 {
        if self.cold == 0 {
            return 0.0;
        }
        let dirty_frac = self.dirty_blocks as f64 / self.cold as f64;
        (misses as f64 * dirty_frac).min(stores as f64)
    }
}

/// Compact per-(benchmark, scale) summary a prediction needs: a few KB
/// replacing a multi-MB trace arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSignature {
    /// Total micro-ops in the trace.
    pub uops: u64,
    /// Store references.
    pub stores: u64,
    /// Register-dependency critical path in cycles (1-cycle memory).
    pub crit_path: u64,
    /// Per-PC branch direction flips (a branch whose outcome differs
    /// from its own previous outcome). This is exactly the mispredict
    /// count of an ideal per-PC last-direction predictor, and a close
    /// proxy for the simulator's small two-level predictor.
    pub dir_flips: u64,
    /// Reuse histograms, one per signature block size, ascending.
    pub reuse: Vec<BlockReuse>,
}

impl KernelSignature {
    /// The reuse histogram measured at `block_size`, if recorded.
    pub fn reuse_at(&self, block_size: u64) -> Option<&BlockReuse> {
        self.reuse.iter().find(|r| r.block_size == block_size)
    }
}

// ---------------------------------------------------------------------------
// Machine configuration seen by the model.
// ---------------------------------------------------------------------------

/// The slice of a machine specification the ECM model consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcmConfig {
    /// `true` for the in-order core (experiments A–C).
    pub in_order: bool,
    /// `true` for a blocking L1 (misses serialize).
    pub blocking: bool,
    /// Tagged sequential prefetch in the L1 (experiments E–F).
    pub tagged_prefetch: bool,
    /// Issue width in uops/cycle.
    pub issue_width: u64,
    /// Branch mispredict penalty in cycles (0 = perfect front end).
    pub mispredict_penalty: u64,
    /// L1 capacity and block size in bytes.
    pub l1_bytes: u64,
    /// L1 block size in bytes.
    pub l1_block: u64,
    /// L2 capacity and block size in bytes.
    pub l2_bytes: u64,
    /// L2 block size in bytes.
    pub l2_block: u64,
    /// L2 access latency in CPU cycles.
    pub l2_latency: u64,
    /// Main-memory access latency in CPU cycles.
    pub mem_latency: u64,
    /// L1/L2 bus bandwidth in bytes per CPU cycle.
    pub bus1_bytes_per_cycle: f64,
    /// L2/memory bus bandwidth in bytes per CPU cycle.
    pub bus2_bytes_per_cycle: f64,
}

/// The four machine classes the time model calibrates separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimeClass {
    InOrderBlocking,
    InOrderLockupFree,
    OutOfOrder,
    OutOfOrderPrefetch,
}

impl TimeClass {
    fn of(cfg: &EcmConfig) -> Self {
        match (cfg.in_order, cfg.tagged_prefetch) {
            (true, _) if cfg.blocking => TimeClass::InOrderBlocking,
            (true, _) => TimeClass::InOrderLockupFree,
            (false, false) => TimeClass::OutOfOrder,
            (false, true) => TimeClass::OutOfOrderPrefetch,
        }
    }
}

// ---------------------------------------------------------------------------
// Calibration constants, frozen under MODEL_VERSION.
// ---------------------------------------------------------------------------

/// Constants fitted against the cycle-level simulator at test scale.
/// Every relative bound is at least 2× the worst
/// calibration-time error; changing any value is a model change and
/// must bump [`MODEL_VERSION`].
mod calib {
    /// Overlap/structural multiplier κ on the raw `comp + lat + bus`
    /// sum, per machine class (in-order blocking, in-order
    /// lockup-free, out-of-order, out-of-order + prefetch). Fitted as
    /// the midpoint of the per-class `sim / raw` ratio range over
    /// every Figure 3 cell at test scale.
    pub const TIME_KAPPA: [f64; 4] = [1.73, 1.23, 1.03, 0.95];
    /// Relative error bound on predicted total cycles, per class:
    /// ≥ 1.25× the worst calibration-time relative error.
    pub const TIME_REL: [f64; 4] = [0.95, 0.90, 0.95, 0.98];
    /// Absolute slack on every time bound, in cycles (hides the
    /// startup transient of very short kernels).
    pub const TIME_ABS_SLACK: f64 = 256.0;
}

// ---------------------------------------------------------------------------
// Predictions.
// ---------------------------------------------------------------------------

/// A predicted execution-time decomposition with its error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcmPrediction {
    /// Predicted processor cycles (Eq. 2's `T_P` share).
    pub t_p: f64,
    /// Predicted latency-stall cycles (`T_L` share).
    pub t_l: f64,
    /// Predicted bandwidth-stall cycles (`T_B` share).
    pub t_b: f64,
    /// Predicted total cycles (`t_p + t_l + t_b`).
    pub cycles: f64,
    /// Absolute error bound: |prediction − simulation| ≤ `bound`.
    pub bound: f64,
    /// Model version that produced this prediction.
    pub model: &'static str,
}

impl EcmPrediction {
    /// The bound relative to the prediction (∞ for a zero prediction).
    pub fn rel_bound(&self) -> f64 {
        if self.cycles > 0.0 {
            self.bound / self.cycles
        } else {
            f64::INFINITY
        }
    }
}

/// Predict the execution-time decomposition of `sig` on `cfg`.
///
/// Returns `None` when the signature lacks a reuse histogram for the
/// configured L1 or L2 block size (the caller falls back to
/// simulation; no guess is ever emitted without a bound).
pub fn predict_time(sig: &KernelSignature, cfg: &EcmConfig) -> Option<EcmPrediction> {
    let br1 = sig.reuse_at(cfg.l1_block)?;
    let br2 = sig.reuse_at(cfg.l2_block)?;
    let l1_blocks = cfg.l1_bytes / cfg.l1_block.max(1);
    let l2_blocks = cfg.l2_bytes / cfg.l2_block.max(1);

    // T_P: issue-width-limited throughput vs the dependency chain,
    // plus the front-end cost of hard-to-predict branches (per-PC
    // direction flips ≈ mispredicts of the simulator's predictor).
    let comp = (sig.uops as f64 / cfg.issue_width.max(1) as f64).max(sig.crit_path as f64)
        + sig.dir_flips as f64 * cfg.mispredict_penalty as f64;

    // T_L: each level's misses pay that level's latency (FA-LRU miss
    // counts are exact from the histogram; conflict effects land in κ).
    let m1 = br1.lru_misses(l1_blocks) as f64;
    let m2 = br2.lru_misses(l2_blocks) as f64;
    let lat = m1 * cfg.l2_latency as f64 + m2 * cfg.mem_latency as f64;

    // T_B: bus occupancy of fetches + writebacks at each level.
    let wb1 = br1.writeback_estimate(m1 as u64, sig.stores);
    let wb2 = br2.writeback_estimate(m2 as u64, sig.stores);
    let bytes1 = (m1 + wb1) * cfg.l1_block as f64;
    let bytes2 = (m2 + wb2) * cfg.l2_block as f64;
    let bus =
        bytes1 / cfg.bus1_bytes_per_cycle.max(1e-9) + bytes2 / cfg.bus2_bytes_per_cycle.max(1e-9);

    let class = TimeClass::of(cfg) as usize;
    let kappa = calib::TIME_KAPPA[class];
    let cycles = kappa * (comp + lat + bus);
    let bound = cycles * calib::TIME_REL[class] + calib::TIME_ABS_SLACK;
    Some(EcmPrediction {
        t_p: kappa * comp,
        t_l: kappa * lat,
        t_b: kappa * bus,
        cycles,
        bound,
        model: MODEL_VERSION,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_reuse() -> BlockReuse {
        // 100 accesses: 10 cold, distances 0×40, [1,2)×20, [2,4)×15,
        // [4,8)×10, [8,16)×5.
        BlockReuse {
            block_size: 32,
            accesses: 100,
            cold: 10,
            dirty_blocks: 5,
            buckets: vec![40, 20, 15, 10, 5],
        }
    }

    fn toy_signature() -> KernelSignature {
        KernelSignature {
            uops: 1000,
            stores: 30,
            crit_path: 90,
            dir_flips: 8,
            reuse: vec![
                BlockReuse {
                    block_size: 64,
                    ..toy_reuse()
                },
                toy_reuse(),
            ],
        }
    }

    fn toy_config() -> EcmConfig {
        EcmConfig {
            in_order: true,
            blocking: true,
            tagged_prefetch: false,
            issue_width: 4,
            mispredict_penalty: 3,
            l1_bytes: 1024,
            l1_block: 32,
            l2_bytes: 4096,
            l2_block: 64,
            l2_latency: 9,
            mem_latency: 27,
            bus1_bytes_per_cycle: 16.0 / 3.0,
            bus2_bytes_per_cycle: 8.0 / 3.0,
        }
    }

    #[test]
    fn bucketed_misses_match_direct_computation_at_powers_of_two() {
        let r = toy_reuse();
        // Direct per-distance recomputation of the bucketed histogram:
        // distances 0(×40), 1(×20 at bucket 1), 2..4(×15), 4..8(×10),
        // 8..16(×5). At capacity 2^m every bucket ≥ m+1 misses.
        assert_eq!(r.lru_misses(1), 10 + 20 + 15 + 10 + 5); // only d=0 hits
        assert_eq!(r.lru_misses(2), 10 + 15 + 10 + 5);
        assert_eq!(r.lru_misses(4), 10 + 10 + 5);
        assert_eq!(r.lru_misses(8), 10 + 5);
        assert_eq!(r.lru_misses(16), 10);
        assert_eq!(r.lru_misses(1024), 10); // only cold left
        assert_eq!(r.lru_misses(0), 100); // zero capacity misses all
    }

    #[test]
    fn misses_are_monotone_in_capacity() {
        let r = toy_reuse();
        let mut prev = r.lru_misses(1);
        for m in 1..12 {
            let cur = r.lru_misses(1 << m);
            assert!(cur <= prev, "misses must not grow with capacity");
            prev = cur;
        }
    }

    #[test]
    fn predictions_are_deterministic() {
        let sig = toy_signature();
        let cfg = toy_config();
        let a = predict_time(&sig, &cfg).unwrap();
        let b = predict_time(&sig, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn time_prediction_is_positive_with_positive_bound() {
        let p = predict_time(&toy_signature(), &toy_config()).unwrap();
        assert!(p.cycles > 0.0);
        assert!(p.bound > 0.0);
        assert!(p.t_p > 0.0);
        assert!((p.t_p + p.t_l + p.t_b - p.cycles).abs() < 1e-9);
        assert_eq!(p.model, MODEL_VERSION);
        assert!(p.rel_bound() > 0.0 && p.rel_bound().is_finite());
    }

    #[test]
    fn missing_block_size_yields_no_prediction() {
        let sig = toy_signature();
        let mut cfg = toy_config();
        cfg.l1_block = 16; // not in the signature
        assert_eq!(predict_time(&sig, &cfg), None);
    }

    #[test]
    fn branch_flips_add_mispredict_cycles_to_the_processor_term() {
        let sig = toy_signature();
        let cfg = toy_config();
        let mut flippy = sig.clone();
        flippy.dir_flips += 100;
        let base = predict_time(&sig, &cfg).unwrap();
        let flip = predict_time(&flippy, &cfg).unwrap();
        assert!(flip.t_p > base.t_p, "flips land in T_P");
        assert!((flip.t_l - base.t_l).abs() < 1e-9);
        assert!((flip.t_b - base.t_b).abs() < 1e-9);
        // The delta is κ × flips × penalty.
        let per_flip = (flip.cycles - base.cycles) / 100.0;
        let expect = calib::TIME_KAPPA[0] * cfg.mispredict_penalty as f64;
        assert!((per_flip - expect).abs() < 1e-9, "{per_flip} vs {expect}");
    }

    #[test]
    fn signature_serde_round_trips() {
        let sig = toy_signature();
        let v = sig.to_value();
        let back = KernelSignature::from_value(&v).expect("round trip");
        assert_eq!(back, sig);
    }
}
