//! Dependency-annotated micro-operations.
//!
//! The timing simulators in `membw-sim` are *trace-driven*: instead of
//! executing an ISA, they consume a stream of micro-ops that carry exactly
//! the information a cycle-level core model needs — operation class (which
//! fixes functional-unit latency), register dependencies, memory address
//! for loads/stores, and branch identity/outcome for the predictor. The
//! workload generators in `membw-workloads` emit these alongside the memory
//! references so that the memory behaviour is identical across the paper's
//! three decomposition runs.

use crate::record::MemRef;
use serde::{Deserialize, Serialize};

/// A logical register name.
///
/// The trace uses a flat namespace of up to 64 logical registers; the
/// out-of-order model renames them into the RUU.
pub type Reg = u8;

/// Number of logical registers in the trace namespace.
pub const NUM_REGS: usize = 64;

/// Operation classes, each with a fixed execution latency.
///
/// Latencies follow SimpleScalar's defaults for the classes the paper's
/// experiments exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Integer ALU op (1 cycle).
    IntAlu,
    /// Integer multiply (3 cycles).
    IntMul,
    /// Floating-point add/sub/compare (2 cycles).
    FpAdd,
    /// Floating-point multiply (4 cycles).
    FpMul,
    /// Floating-point divide (12 cycles, unpipelined in spirit).
    FpDiv,
    /// Memory load; latency comes from the memory hierarchy.
    Load,
    /// Memory store; retires through the write buffer.
    Store,
    /// Conditional branch (1 cycle to resolve once operands ready).
    Branch,
}

impl OpClass {
    /// Fixed execution latency in cycles (loads/stores report their
    /// address-generation latency; memory time is added by the hierarchy).
    pub fn latency(self) -> u32 {
        match self {
            OpClass::IntAlu | OpClass::Branch => 1,
            OpClass::IntMul => 3,
            OpClass::FpAdd => 2,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 12,
            OpClass::Load | OpClass::Store => 1,
        }
    }

    /// `true` for [`OpClass::Load`] and [`OpClass::Store`].
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// Identity and outcome of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Static address of the branch instruction (predictor index).
    pub pc: u64,
    /// Whether the branch was taken.
    pub taken: bool,
}

/// One micro-operation of the trace.
///
/// # Example
///
/// ```
/// use membw_trace::{MemRef, OpClass, Uop};
///
/// let load = Uop::load(MemRef::read(0x100, 4), Some(1), [Some(2), None]);
/// assert_eq!(load.class, OpClass::Load);
/// assert!(load.reads(2));
/// assert!(load.writes(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Uop {
    /// Operation class.
    pub class: OpClass,
    /// Destination register, if any.
    pub dest: Option<Reg>,
    /// Up to two source registers.
    pub srcs: [Option<Reg>; 2],
    /// Memory reference, present iff `class` is `Load` or `Store`.
    pub mem: Option<MemRef>,
    /// Branch identity/outcome, present iff `class` is `Branch`.
    pub branch: Option<BranchInfo>,
}

impl Uop {
    /// A computational uop of the given class.
    pub fn compute(class: OpClass, dest: Option<Reg>, srcs: [Option<Reg>; 2]) -> Self {
        debug_assert!(!class.is_mem() && class != OpClass::Branch);
        Self {
            class,
            dest,
            srcs,
            mem: None,
            branch: None,
        }
    }

    /// A load uop producing `dest` from `mem`, with `srcs` feeding the
    /// address computation.
    pub fn load(mem: MemRef, dest: Option<Reg>, srcs: [Option<Reg>; 2]) -> Self {
        debug_assert!(mem.kind.is_read());
        Self {
            class: OpClass::Load,
            dest,
            srcs,
            mem: Some(mem),
            branch: None,
        }
    }

    /// A store uop writing `mem`, with `srcs` providing address and data.
    pub fn store(mem: MemRef, srcs: [Option<Reg>; 2]) -> Self {
        debug_assert!(mem.kind.is_write());
        Self {
            class: OpClass::Store,
            dest: None,
            srcs,
            mem: Some(mem),
            branch: None,
        }
    }

    /// A conditional branch at `pc` with the given outcome, reading `srcs`.
    pub fn branch(pc: u64, taken: bool, srcs: [Option<Reg>; 2]) -> Self {
        Self {
            class: OpClass::Branch,
            dest: None,
            srcs,
            mem: None,
            branch: Some(BranchInfo { pc, taken }),
        }
    }

    /// Wrap a bare memory reference as a dependency-free load/store uop.
    pub fn from_mem_ref(mem: MemRef) -> Self {
        if mem.kind.is_read() {
            Uop::load(mem, None, [None, None])
        } else {
            Uop::store(mem, [None, None])
        }
    }

    /// `true` if this uop reads register `r`.
    pub fn reads(&self, r: Reg) -> bool {
        self.srcs.contains(&Some(r))
    }

    /// `true` if this uop writes register `r`.
    pub fn writes(&self, r: Reg) -> bool {
        self.dest == Some(r)
    }

    /// `true` if this uop is a load or store.
    pub fn is_mem(&self) -> bool {
        self.class.is_mem()
    }

    /// `true` if this uop is a conditional branch.
    pub fn is_branch(&self) -> bool {
        self.class == OpClass::Branch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MemRef;

    #[test]
    fn latencies_are_ordered_sensibly() {
        assert_eq!(OpClass::IntAlu.latency(), 1);
        assert!(OpClass::IntMul.latency() > OpClass::IntAlu.latency());
        assert!(OpClass::FpMul.latency() > OpClass::FpAdd.latency());
        assert!(OpClass::FpDiv.latency() > OpClass::FpMul.latency());
    }

    #[test]
    fn class_predicates() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Branch.is_mem());
    }

    #[test]
    fn constructors_populate_fields() {
        let b = Uop::branch(0x40, true, [Some(3), None]);
        assert!(b.is_branch());
        assert_eq!(b.branch.unwrap().pc, 0x40);
        assert!(b.branch.unwrap().taken);
        assert!(b.reads(3));
        assert!(!b.reads(4));

        let s = Uop::store(MemRef::write(8, 4), [Some(1), Some(2)]);
        assert!(s.is_mem());
        assert_eq!(s.dest, None);
        assert!(!s.writes(1));

        let c = Uop::compute(OpClass::FpMul, Some(7), [Some(1), Some(2)]);
        assert!(c.writes(7));
        assert_eq!(c.mem, None);
    }

    #[test]
    fn from_mem_ref_maps_kind() {
        assert_eq!(Uop::from_mem_ref(MemRef::read(0, 4)).class, OpClass::Load);
        assert_eq!(Uop::from_mem_ref(MemRef::write(0, 4)).class, OpClass::Store);
    }
}
