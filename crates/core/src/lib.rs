//! `membw-core`: orchestration and reporting for the full reproduction of
//! *Memory Bandwidth Limitations of Future Microprocessors* (Burger,
//! Goodman & Kägi, ISCA 1996).
//!
//! Each `run_*` module regenerates one table or figure of the paper from
//! the simulators in the sibling crates:
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`run_fig1`] | Figure 1a/b/c: pin & bandwidth trends |
//! | [`run_table1`] | Table 1: qualitative f_P/f_L/f_B directions |
//! | [`run_table2`] | Table 2: growth rates, analytic + measured |
//! | [`run_table3`] | Table 3: benchmark inventory |
//! | [`run_fig3`] | Figure 3 + Table 6: execution-time decomposition |
//! | [`run_table7`] | Table 7: traffic ratios (+ Eq. 5 effective pin bandwidth) |
//! | [`run_table8`] | Table 8: traffic inefficiencies (+ Eq. 7 bound) |
//! | [`run_fig4`] | Figure 4: traffic vs. cache size curves |
//! | [`run_table9`] | Tables 9–10: factor isolation |
//! | [`run_extrapolation`] | §4.3: the 2006 package projection |
//!
//! The [`report`] module renders paper-style aligned text tables; every
//! result type is `serde`-serializable so runs can be archived and
//! diffed (EXPERIMENTS.md is generated from these).
//!
//! # Example
//!
//! ```
//! use membw_core::run_extrapolation;
//!
//! let (proj, table) = run_extrapolation::run().expect("audit passes");
//! assert!(proj.pins > 2000.0);
//! assert!(table.render().contains("2006"));
//! ```
//!
//! Every entry point feeds the [`audit`] runtime invariant auditor
//! (Eq. 1–4 time ordering, fraction closure, `R > 0`, `G ≥ 1`, the §5
//! MTC bound) before returning; see [`audit`] for the levels.

pub mod audit;
pub mod error;
pub mod fastpath;
pub mod plot;
pub mod report;
pub mod run_ablation;
pub mod run_dram;
pub mod run_epin;
pub mod run_extrapolation;
pub mod run_fig1;
pub mod run_fig2;
pub mod run_fig3;
pub mod run_fig4;
pub mod run_interference;
pub mod run_speculation;
pub mod run_swprefetch;
pub mod run_table1;
pub mod run_table2;
pub mod run_table3;
pub mod run_table7;
pub mod run_table8;
pub mod run_table9;
pub mod service;
pub mod targets;

pub use audit::{AuditLevel, Auditor};
pub use error::{FailedJob, MembwError};
pub use plot::AsciiPlot;
pub use report::Table;

// Re-export the component crates under one roof for downstream users.
pub use membw_analytic as analytic;
pub use membw_cache as cache;
pub use membw_mtc as mtc;
pub use membw_runner as runner;
pub use membw_sim as sim;
pub use membw_sweep as sweep;
pub use membw_trace as trace;
pub use membw_workloads as workloads;
