//! Functional cache simulation with precise traffic accounting.
//!
//! This crate is the workspace's analogue of the DineroIII simulator used
//! in §4–5 of Burger, Goodman and Kägi (ISCA 1996): a trace-driven,
//! *functional* (untimed) cache model whose purpose is to measure **memory
//! traffic** — the quantity the paper's traffic ratios (Eq. 4) and traffic
//! inefficiencies (Eq. 6) are built from.
//!
//! Traffic accounting follows the paper's rules (§4.1):
//!
//! * "total traffic" counts data moved *below* a cache: demand fetches,
//!   prefetch fetches, write-backs, and write-throughs;
//! * request (address) traffic is **not** counted;
//! * at end of run the cache is flushed and the flushed write-backs are
//!   included.
//!
//! # Example
//!
//! ```
//! use membw_cache::{Cache, CacheConfig};
//! use membw_trace::{pattern::Strided, Workload};
//!
//! // 1 KiB direct-mapped cache with 32-byte blocks.
//! let cfg = CacheConfig::builder(1024, 32).build()?;
//! let mut cache = Cache::new(cfg);
//!
//! // Sweep 4 KiB twice: every block misses both rounds (cache too small).
//! let sweep = Strided::reads(0, 4, 1024).repeat(2);
//! sweep.for_each_mem_ref(&mut |r| { cache.access(r); });
//! let stats = cache.flush();
//! assert_eq!(stats.demand_misses(), 256);
//! # Ok::<(), membw_cache::ConfigError>(())
//! ```

pub mod bypass;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod ratio;
pub mod replacement;
pub mod stats;
pub mod stream;
pub mod victim;

pub use bypass::BypassCache;
pub use cache::{AccessOutcome, BelowKind, BelowRequest, Cache, INDEXED_WAYS, MAX_BELOW};
pub use config::{
    Associativity, CacheConfig, CacheConfigBuilder, ConfigError, ReplacementPolicy, WriteAllocate,
    WritePolicy,
};
pub use hierarchy::Hierarchy;
pub use ratio::{traffic_ratio, TrafficReport};
pub use stats::CacheStats;
pub use stream::StreamBuffers;
pub use victim::VictimCache;
