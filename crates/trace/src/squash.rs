//! Coarse-grained speculation with task squashes (§2.2's Multiscalar
//! argument).
//!
//! "Processors that rely heavily on coarse-grained speculative execution
//! … increase memory traffic whenever they must squash a task after an
//! incorrect speculation." This wrapper splits a workload's uop stream
//! into fixed-size tasks and, for a deterministic fraction of them, emits
//! the task's uops *twice*: once as the squashed (wrong-path) attempt —
//! whose memory traffic is real but whose architectural work is thrown
//! away — and once as the re-execution.
//!
//! The wrapper streams: it holds one task of uops, never the whole
//! inner trace.

use crate::record::MemRef;
use crate::sink::TraceSink;
use crate::uop::Uop;
use crate::Workload;

/// Deterministic splitmix-style hash used for squash decisions.
fn hash(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A workload executed under coarse-grained speculation: some tasks run
/// twice (squash + replay).
#[derive(Debug, Clone)]
pub struct Squashing<W> {
    inner: W,
    task_uops: usize,
    /// Squash probability as a fraction of 256 (0 = never, 256 = always).
    squash_per_256: u32,
    seed: u64,
}

impl<W: Workload> Squashing<W> {
    /// Wrap `inner` with tasks of `task_uops` uops and a squash
    /// probability of `squash_per_256 / 256`.
    ///
    /// # Panics
    ///
    /// Panics if `task_uops` is zero or `squash_per_256 > 256`.
    pub fn new(inner: W, task_uops: usize, squash_per_256: u32, seed: u64) -> Self {
        assert!(task_uops > 0, "tasks must contain at least one uop");
        assert!(squash_per_256 <= 256, "probability is out of 256");
        Self {
            inner,
            task_uops,
            squash_per_256,
            seed,
        }
    }

    /// Number of tasks that would squash for a stream of `n` uops.
    pub fn expected_squashes(&self, n: usize) -> usize {
        let tasks = n.div_ceil(self.task_uops);
        (0..tasks as u64).filter(|&t| self.squashes(t)).count()
    }

    /// Whether task `t` squashes.
    fn squashes(&self, t: u64) -> bool {
        hash(self.seed ^ t) % 256 < u64::from(self.squash_per_256)
    }

    /// Emit task `t`: its wrong-path attempt if it squashes, then its
    /// committed execution.
    fn emit_task(&self, t: u64, task: &[Uop], sink: &mut dyn TraceSink) {
        if self.squashes(t) {
            // Wrong-path attempt: the task speculated down the wrong
            // control path, so its loads touch *different* data (a
            // task-dependent displacement models the wrong iteration
            // space); stores are suppressed (they never commit).
            let displacement = (hash(self.seed ^ 0xbad ^ t) % (1 << 16)) & !3;
            for &u in task {
                match u.mem {
                    Some(m) if m.kind.is_write() => continue,
                    Some(m) => {
                        let mut wrong = u;
                        wrong.mem = Some(MemRef {
                            addr: m.addr.wrapping_add(displacement),
                            ..m
                        });
                        sink.uop(wrong);
                    }
                    None => sink.uop(u),
                }
            }
        }
        // The committed execution (re-execution after a squash).
        for &u in task {
            sink.uop(u);
        }
    }
}

impl<W: Workload> Workload for Squashing<W> {
    fn name(&self) -> &str {
        "squashing"
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        let mut tasks = TaskBuffer {
            squashing: self,
            task: Vec::new(),
            t: 0,
            out: sink,
        };
        self.inner.generate(&mut tasks);
        if !tasks.task.is_empty() {
            self.emit_task(tasks.t, &tasks.task, tasks.out);
        }
    }
}

/// The wrapper's sink: buffers the inner stream one task at a time and
/// emits each task as soon as it fills.
struct TaskBuffer<'a, W> {
    squashing: &'a Squashing<W>,
    /// The current task's uops so far, at most `task_uops` of them.
    task: Vec<Uop>,
    /// Index of the current task.
    t: u64,
    out: &'a mut dyn TraceSink,
}

impl<W: Workload> TraceSink for TaskBuffer<'_, W> {
    fn uop(&mut self, uop: Uop) {
        self.task.push(uop);
        if self.task.len() == self.squashing.task_uops {
            self.squashing.emit_task(self.t, &self.task, self.out);
            self.task.clear();
            self.t += 1;
        }
    }
}

/// The original wrapper, kept as the streaming one's test oracle:
/// collect the whole inner stream, then emit it task by task.
#[cfg(test)]
impl<W: Workload> Squashing<W> {
    pub(crate) fn collect_then_squash(&self) -> Vec<Uop> {
        let uops = self.inner.collect_uops();
        let mut out = Vec::new();
        for (t, task) in uops.chunks(self.task_uops).enumerate() {
            let squash = hash(self.seed ^ t as u64) % 256 < u64::from(self.squash_per_256);
            if squash {
                let displacement = (hash(self.seed ^ 0xbad ^ t as u64) % (1 << 16)) & !3;
                for &u in task {
                    match u.mem {
                        Some(m) if m.kind.is_write() => continue,
                        Some(m) => {
                            let mut wrong = u;
                            wrong.mem = Some(MemRef {
                                addr: m.addr.wrapping_add(displacement),
                                ..m
                            });
                            out.push(wrong);
                        }
                        None => out.push(u),
                    }
                }
            }
            out.extend_from_slice(task);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Strided;
    use crate::stats::TraceStats;
    use crate::testing::mixed;

    #[test]
    fn zero_squash_rate_is_identity() {
        let inner = Strided::reads(0, 4, 1000).with_write_every(4);
        let sq = Squashing::new(inner.clone(), 64, 0, 1);
        assert_eq!(sq.collect_mem_refs(), inner.collect_mem_refs());
    }

    #[test]
    fn full_squash_rate_roughly_doubles_loads() {
        let inner = Strided::reads(0, 4, 1024);
        let sq = Squashing::new(inner.clone(), 64, 256, 1);
        let base = TraceStats::of(&inner);
        let spec = TraceStats::of(&sq);
        assert_eq!(spec.reads, base.reads * 2, "every task replays its loads");
    }

    #[test]
    fn squashed_stores_never_reach_memory_twice() {
        let inner = Strided::reads(0, 4, 512).with_write_every(2);
        let sq = Squashing::new(inner.clone(), 64, 256, 1);
        let base = TraceStats::of(&inner);
        let spec = TraceStats::of(&sq);
        assert_eq!(spec.writes, base.writes, "wrong-path stores are suppressed");
        assert_eq!(spec.reads, base.reads * 2);
    }

    #[test]
    fn squash_traffic_grows_with_rate() {
        let inner = Strided::reads(0, 4, 4096);
        let none = TraceStats::of(&Squashing::new(inner.clone(), 128, 0, 9)).refs;
        let some = TraceStats::of(&Squashing::new(inner.clone(), 128, 64, 9)).refs;
        let lots = TraceStats::of(&Squashing::new(inner, 128, 192, 9)).refs;
        assert!(none < some && some < lots, "{none} {some} {lots}");
    }

    #[test]
    fn squash_decisions_are_deterministic() {
        let inner = Strided::reads(0, 4, 2048);
        let a = Squashing::new(inner.clone(), 64, 128, 3).collect_mem_refs();
        let b = Squashing::new(inner, 64, 128, 3).collect_mem_refs();
        assert_eq!(a, b);
    }

    #[test]
    fn expected_squashes_matches_generation() {
        let inner = Strided::reads(0, 4, 4096);
        let sq = Squashing::new(inner.clone(), 128, 128, 5);
        let n = inner.collect_uops().len();
        let expected = sq.expected_squashes(n);
        // Count replayed tasks by comparing lengths.
        let base_reads = TraceStats::of(&inner).reads as usize;
        let spec_reads = TraceStats::of(&sq).reads as usize;
        let replayed_loads = spec_reads - base_reads;
        // Each squashed 128-uop task replays up to 128 loads.
        assert!(replayed_loads > 0 && expected > 0);
        assert!(replayed_loads <= expected * 128);
    }

    #[test]
    fn streaming_tasks_match_collect_then_squash() {
        // 500 uops: tasks of 7, 64 and 128 leave a partial last task,
        // 500 and 1000 make the whole stream one task.
        for task_uops in [1, 7, 64, 128, 500, 1000] {
            for rate in [0, 128, 256] {
                for seed in [0, 11] {
                    let sq = Squashing::new(mixed(500), task_uops, rate, seed);
                    assert_eq!(
                        sq.collect_uops(),
                        sq.collect_then_squash(),
                        "{task_uops}-uop tasks, {rate}/256 squashed, seed {seed}"
                    );
                }
            }
        }
        // An empty inner stream stays empty.
        let sq = Squashing::new(mixed(0), 64, 256, 1);
        assert!(sq.collect_uops().is_empty());
        assert!(sq.collect_then_squash().is_empty());
    }
}
