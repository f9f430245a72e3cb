//! Four-wide in-order superscalar core (experiments A–C).
//!
//! Timestamp-propagation model: each uop's issue time is the maximum of
//! its fetch time, its operands' ready times, and the structural
//! constraints (issue width 4, two load/store units, strict program-order
//! issue). Mispredicted branches stall fetch until resolution plus a
//! redirect penalty.

use crate::bpred::{BranchPredictor, TwoLevelPredictor};
use crate::machine::MachineSpec;
use crate::memsys::MemSystem;
use crate::ports::MonotoneWidth;
use membw_runner::counters::{self, Counter};
use membw_runner::{CancelToken, RunContext};
use membw_trace::uop::NUM_REGS;
use membw_trace::{OpClass, TraceSink, Uop, Workload};

/// The in-order pipeline, consuming uops as a [`TraceSink`].
#[derive(Debug)]
pub struct InOrderCore {
    mem: MemSystem,
    bpred: TwoLevelPredictor,
    reg_ready: [u64; NUM_REGS],
    issue: MonotoneWidth,
    mem_ports: MonotoneWidth,
    fetch_cycle: u64,
    fetch_in_cycle: u32,
    fetch_width: u32,
    pc: u64,
    cur_fetch_block: u64,
    prev_issue: u64,
    mispredict_penalty: u64,
    finish: u64,
    uops: u64,
    /// Ambient cancellation token, captured at construction and polled
    /// every 4096 uops, so a drain or deadline stops a simulation
    /// within milliseconds.
    cancel: CancelToken,
}

impl InOrderCore {
    /// Build the core around an already-constructed memory system.
    pub fn new(spec: &MachineSpec, mem: MemSystem) -> Self {
        Self {
            mem,
            bpred: TwoLevelPredictor::new(spec.bpred_entries, 8),
            reg_ready: [0; NUM_REGS],
            issue: MonotoneWidth::new(spec.issue_width),
            mem_ports: MonotoneWidth::new(2),
            fetch_cycle: 0,
            fetch_in_cycle: 0,
            fetch_width: spec.issue_width,
            pc: 0x1000,
            cur_fetch_block: u64::MAX,
            prev_issue: 0,
            mispredict_penalty: spec.mispredict_penalty,
            finish: 0,
            uops: 0,
            cancel: RunContext::current().cancel.clone(),
        }
    }

    /// Run `workload` to completion and return total cycles.
    pub fn run<W: Workload + ?Sized>(
        spec: &MachineSpec,
        mem: MemSystem,
        workload: &W,
    ) -> (u64, MemSystem) {
        let mut core = Self::new(spec, mem);
        workload.generate(&mut core);
        core.into_result()
    }

    /// Total uops consumed.
    pub fn uops(&self) -> u64 {
        self.uops
    }

    /// Finish the run: total cycles and the memory system (for stats).
    /// Adds the run's uops to the process-wide [`Counter::Uops`].
    pub fn into_result(self) -> (u64, MemSystem) {
        counters::add(Counter::Uops, self.uops);
        (self.finish.max(1), self.mem)
    }

    fn fetch_time(&mut self, ends_group: bool) -> u64 {
        let t = self.fetch_cycle;
        self.fetch_in_cycle += 1;
        if self.fetch_in_cycle >= self.fetch_width || ends_group {
            self.fetch_cycle += 1;
            self.fetch_in_cycle = 0;
        }
        t
    }

    /// Gate fetch on the I-cache when the synthetic PC crosses into a
    /// new fetch block (the paper's simulations include instruction
    /// fetching).
    fn gate_fetch(&mut self) {
        let block = self.pc / 32;
        if block != self.cur_fetch_block {
            let ready = self.mem.ifetch(self.fetch_cycle, self.pc);
            if ready > self.fetch_cycle {
                self.fetch_cycle = ready;
                self.fetch_in_cycle = 0;
            }
            self.cur_fetch_block = block;
        }
    }

    /// Advance the synthetic PC past `uop` (taken branches jump to their
    /// site address, closing the loop). Straight-line code wraps within
    /// a bounded hot-code region — real programs' instruction footprints
    /// are finite even when their data streams are not.
    fn advance_pc(&mut self, uop: &Uop) {
        const CODE_BASE: u64 = 0x1000;
        const CODE_EXTENT: u64 = 32 * 1024;
        self.pc = match uop.branch {
            Some(b) if b.taken => b.pc,
            _ => CODE_BASE + self.pc.wrapping_add(4).wrapping_sub(CODE_BASE) % CODE_EXTENT,
        };
    }

    fn operands_ready(&self, uop: &Uop) -> u64 {
        uop.srcs
            .iter()
            .flatten()
            .map(|&r| self.reg_ready[usize::from(r)])
            .max()
            .unwrap_or(0)
    }
}

impl TraceSink for InOrderCore {
    fn uop(&mut self, uop: Uop) {
        self.uops += 1;
        if self.uops.is_multiple_of(4096) {
            self.cancel.check();
        }
        self.gate_fetch();
        self.advance_pc(&uop);
        let taken_branch = uop.branch.is_some_and(|b| b.taken);
        let fetched = self.fetch_time(taken_branch);
        let ready = self.operands_ready(&uop);
        // Strict in-order issue: never before the previous uop.
        let earliest = fetched.max(ready).max(self.prev_issue);
        let issue = if uop.class.is_mem() {
            // Needs both an issue slot and one of the two LS units.
            let t = self.issue.schedule(earliest);
            self.mem_ports.schedule(t)
        } else {
            self.issue.schedule(earliest)
        };
        self.prev_issue = issue;

        let complete = match uop.class {
            OpClass::Load => {
                let addr = uop.mem.expect("load carries an address").addr;
                self.mem.load(issue, addr)
            }
            OpClass::Store => {
                let addr = uop.mem.expect("store carries an address").addr;
                self.mem.store(issue, addr)
            }
            OpClass::Branch => {
                let b = uop.branch.expect("branch carries info");
                let resolve = issue + 1;
                if !self.bpred.access(b.pc, b.taken) {
                    // Redirect: fetch restarts after resolution + penalty.
                    let restart = resolve + self.mispredict_penalty;
                    if restart > self.fetch_cycle {
                        self.fetch_cycle = restart;
                        self.fetch_in_cycle = 0;
                    }
                }
                resolve
            }
            c => issue + u64::from(c.latency()),
        };
        if let Some(d) = uop.dest {
            self.reg_ready[usize::from(d)] = complete;
        }
        self.finish = self.finish.max(complete);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Experiment, MemoryMode};
    use membw_trace::{MemRef, VecWorkload};

    fn run_uops(uops: Vec<Uop>, mode: MemoryMode) -> u64 {
        let spec = MachineSpec::spec92(Experiment::A);
        let mem = MemSystem::new(&spec.mem, mode);
        let mut core = InOrderCore::new(&spec, mem);
        for u in uops {
            core.uop(u);
        }
        core.into_result().0
    }

    #[test]
    fn independent_alu_ops_issue_four_wide() {
        // 40 independent ALU ops on a 4-wide machine: ~10 cycles.
        let uops: Vec<Uop> = (0..40)
            .map(|i| Uop::compute(OpClass::IntAlu, Some((i % 32) as u8), [None, None]))
            .collect();
        let t = run_uops(uops, MemoryMode::Perfect);
        assert!((10..=13).contains(&t), "t = {t}");
    }

    #[test]
    fn dependent_chain_serializes() {
        // 40 chained ALU ops: one per cycle regardless of width.
        let uops: Vec<Uop> = (0..40)
            .map(|_| Uop::compute(OpClass::IntAlu, Some(1), [Some(1), None]))
            .collect();
        let t = run_uops(uops, MemoryMode::Perfect);
        assert!(t >= 40, "t = {t}");
    }

    #[test]
    fn load_use_stall_with_real_memory() {
        // A load feeding an add: the add waits for the full miss latency.
        let uops = vec![
            Uop::load(MemRef::read(0x100000, 4), Some(1), [None, None]),
            Uop::compute(OpClass::IntAlu, Some(2), [Some(1), None]),
        ];
        let t_perfect = run_uops(uops.clone(), MemoryMode::Perfect);
        let t_full = run_uops(uops, MemoryMode::Full);
        assert!(t_full > t_perfect + 20, "{t_full} vs {t_perfect}");
    }

    #[test]
    fn mem_port_limit_throttles_loads() {
        // 16 independent loads that all hit (same block, after a warm-up
        // miss): at 2 LS units/cycle they need ≥ 8 cycles.
        let mut uops = vec![Uop::load(MemRef::read(0, 4), Some(1), [None, None])];
        for _ in 0..16 {
            uops.push(Uop::load(MemRef::read(4, 4), Some(2), [None, None]));
        }
        let t = run_uops(uops, MemoryMode::Perfect);
        assert!(t >= 8, "t = {t}");
    }

    #[test]
    fn mispredicted_branches_cost_fetch_cycles() {
        // Alternating hard-to-learn-immediately branches vs none.
        let mut with_branches = Vec::new();
        let mut x = 7u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            with_branches.push(Uop::branch(
                0x40 + (x % 64) * 4,
                (x >> 35).is_multiple_of(2),
                [None, None],
            ));
            with_branches.push(Uop::compute(OpClass::IntAlu, Some(1), [None, None]));
        }
        let plain: Vec<Uop> = (0..400)
            .map(|_| Uop::compute(OpClass::IntAlu, Some(1), [None, None]))
            .collect();
        let t_br = run_uops(with_branches, MemoryMode::Perfect);
        let t_plain = run_uops(plain, MemoryMode::Perfect);
        assert!(t_br > t_plain, "{t_br} vs {t_plain}");
    }

    #[test]
    fn stores_do_not_stall_retire() {
        // A long run of store misses: with the infinite write buffer, the
        // core never waits on them (perfect vs full differ only modestly
        // via fetch-group timing).
        let uops: Vec<Uop> = (0..64)
            .map(|i| Uop::store(MemRef::write(i * 0x10000, 4), [None, None]))
            .collect();
        let spec = MachineSpec::spec92(Experiment::C); // lockup-free
        let mem = MemSystem::new(&spec.mem, MemoryMode::Full);
        let mut core = InOrderCore::new(&spec, mem);
        for u in uops {
            core.uop(u);
        }
        let (t, _) = core.into_result();
        assert!(t < 64 * 4, "stores retire without waiting, t = {t}");
    }

    #[test]
    fn run_via_workload() {
        let w = VecWorkload::new("t", vec![MemRef::read(0, 4), MemRef::read(4, 4)]);
        let spec = MachineSpec::spec92(Experiment::A);
        let mem = MemSystem::new(&spec.mem, MemoryMode::Perfect);
        let (t, mem) = InOrderCore::run(&spec, mem, &w);
        assert!(t >= 1, "two 1-cycle loads issue together and finish at 1");
        assert_eq!(mem.stats().loads, 2);
    }
}
