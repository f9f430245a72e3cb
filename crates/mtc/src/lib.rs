//! Minimal-traffic caches (MTCs) and traffic-inefficiency analysis.
//!
//! Section 5 of Burger, Goodman and Kägi (ISCA 1996) bounds how much a
//! cache of a given capacity could reduce off-chip traffic by simulating a
//! *minimal-traffic cache*: fully associative, one-word (4-byte) transfer
//! blocks, Belady's **min** replacement (evict the block referenced
//! furthest in the future), bypass for misses with lower priority than
//! everything resident, write-back, and write-validate allocation.
//! Traffic inefficiency `G = D_cache / D_MTC ≥ 1` (Eq. 6) then measures
//! how far a real cache sits from that bound, and Eq. 7 turns it into an
//! upper bound on effective pin bandwidth.
//!
//! Like the paper, we implement **min** — not the write-conscious optimal
//! of Horwitz et al. — so the bound is aggressive but not strictly
//! minimal (§5.2).
//!
//! # Example
//!
//! ```
//! use membw_mtc::{MinCache, MinConfig};
//! use membw_trace::pattern::Strided;
//!
//! // A 256-byte MTC reading a 1 KiB region once: no reuse exists, so
//! // even optimal management fetches every word exactly once.
//! let w = Strided::reads(0, 4, 256);
//! let stats = MinCache::simulate_workload(&MinConfig::mtc(256), &w);
//! assert_eq!(stats.bytes_fetched, 256 * 4);
//! assert_eq!(stats.demand_misses(), 256);
//! ```

pub mod factors;
pub mod inefficiency;
pub mod min;
pub mod minsweep;
pub mod nextuse;
pub mod optstack;
pub mod reference;

pub use factors::{FactorExperiment, FactorGap, FactorSpec, TABLE10_FACTORS};
pub use inefficiency::{traffic_inefficiency, InefficiencyReport};
pub use min::{MinCache, MinConfig, MinWritePolicy};
pub use minsweep::min_sweep;
pub use nextuse::NextUseIndex;
pub use optstack::OptProfile;
pub use reference::ReferenceMinCache;
