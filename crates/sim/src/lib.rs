//! Cycle-level CPU and memory-hierarchy timing simulation.
//!
//! This crate reproduces the measurement instrument of §3 of Burger,
//! Goodman and Kägi (ISCA 1996): the decomposition of execution time into
//! processing time, raw-latency stall time, and bandwidth stall time, for
//! six machine configurations (**experiments A–F**) spanning in-order and
//! out-of-order issue, blocking and lockup-free caches, two block-size
//! points, and tagged prefetching.
//!
//! # Substitution note
//!
//! The paper uses SimpleScalar's execution-driven simulation of a
//! MIPS-like ISA. We simulate *timing* over dependency-annotated micro-op
//! traces instead (see `membw-trace`): the trace carries operation
//! classes, register dependencies, memory addresses, and branch outcomes —
//! exactly the inputs a cycle model consumes. Core timing uses timestamp
//! propagation (each uop's fetch/dispatch/issue/complete/commit times are
//! derived in program order), which models width, window, dependency,
//! structural, memory, and misprediction constraints without a per-cycle
//! event loop. Wrong-path memory traffic is not modeled (documented
//! deviation; DESIGN.md §7).
//!
//! # The three runs (§3.1)
//!
//! * **perfect** — every memory access completes in one cycle → `T_P`;
//! * **latency** — real hierarchy with infinitely wide, contention-free
//!   paths between levels → `T_I`;
//! * **full** — real hierarchy with finite buses and queueing → `T`.
//!
//! `f_P = T_P/T`, `f_L = (T_I − T_P)/T`, `f_B = (T − T_I)/T` (Eqs. 1–3).
//!
//! # Example
//!
//! ```
//! use membw_sim::{decompose, Experiment, MachineSpec};
//! use membw_trace::pattern::Strided;
//!
//! // A bandwidth-hungry streaming kernel on experiment A vs. F.
//! let w = Strided::reads(0, 4, 20_000).with_write_every(4);
//! let spec = MachineSpec::spec92(Experiment::A);
//! let d = decompose(&w, &spec);
//! assert!((d.f_p + d.f_l + d.f_b - 1.0).abs() < 1e-9);
//! ```

pub mod bpred;
pub mod bus;
pub mod decompose;
pub mod dram;
pub mod inorder;
pub mod machine;
pub mod memsys;
mod ports;
pub mod ruu;

pub use bpred::{BranchPredictor, TwoLevelPredictor};
pub use decompose::{decompose, decompose_group, Decomposition};
pub use dram::{Dram, DramConfig};
pub use machine::{CoreKey, CoreKind, Experiment, MachineSpec, MemoryMode, MemorySpec};
pub use memsys::{MemSystem, MemSystemStats};
