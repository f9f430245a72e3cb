//! Single-pass multi-configuration cache sweeps.
//!
//! The paper's traffic tables are *sweeps*: the same reference stream
//! run against a whole axis of cache capacities with everything else
//! fixed (Table 7 is twelve direct-mapped sizes, Figure 4 is seventeen
//! sizes per block-size curve). Simulating each point independently
//! replays the trace once per point. But LRU is a stack algorithm
//! (Mattson et al. 1970): with bit-selection indexing, every set of a
//! small cache is refined by the corresponding sets of every larger
//! cache, so one trace pass maintaining a *truncated per-set LRU stack
//! per capacity level* reproduces each level's hit/miss/eviction
//! behavior exactly — including dirty-line tracking, which rides along
//! on the per-level stacks so write-back and end-of-run flush traffic
//! come out byte-exact, not just miss counts.
//!
//! The same inclusion means a level that has never evicted holds every
//! block allocated so far, and so does every larger level, with the
//! same counters. The engine therefore builds the capacities smallest
//! first and only up to the first one that has not evicted: the larger
//! ones mirror it, and each is split off the level below just before
//! that one first evicts. A sweep holds memory for the levels the trace
//! overflows plus one, not for the whole axis.
//!
//! [`sweep_lru`] is the entry point: it consumes one replayed reference
//! stream and returns a full [`CacheStats`](membw_cache::CacheStats)
//! per capacity, each equal — counter for counter — to what
//! [`membw_cache::Cache`] produces for that configuration
//! (property-tested in `tests/sweep_equivalence.rs`). Configurations
//! the stack model cannot represent exactly (non-LRU replacement,
//! tagged prefetch, write-validate allocation) **fall back loudly** to
//! per-capacity direct simulation — correctness never depends on the
//! engine's coverage.
//!
//! [`SweepMode`] is the one place a traffic suite's engine is chosen:
//! its `lru`, `min` and `factor_gaps` methods run either the one-pass
//! engines or the direct-simulation oracle ([`direct_reference`],
//! `MinCache::simulate`, `factor_gap`). Core's one cross-check helper,
//! `membw_core::error::sweep_jobs`, reruns stack-mode jobs in direct
//! mode when [`verify_requested`] and audits them bit for bit.
//!
//! Sweep state registers with the ambient memory governor and the hot
//! loop polls the ambient [`membw_runner::CancelToken`], so sweeps
//! degrade and drain exactly like direct simulation jobs.

mod lru;
mod mode;

pub use lru::{direct_reference, sweep_lru, LruSweep, SweepSpec, SweepUnsupported, CHUNK_SLOTS};
pub use mode::{parse_verify, verify_requested, SweepMode, SWEEP_VERIFY_ENV};
