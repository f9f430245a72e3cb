//! Interleaving multiple workloads: the multithreading / shared-cache
//! model of the paper's §2.1–2.2.
//!
//! "Frequent switching of threads will increase interference in the
//! caches …, causing an increase in cache misses and total traffic." An
//! [`Interleave`] round-robins fixed-size chunks of uops from several
//! workloads (optionally offsetting their address spaces so threads do
//! not alias), producing the combined reference stream a shared cache
//! would see.
//!
//! The interleaving holds each thread's stream as a compact recorded
//! arena (about 2 bytes per uop, see [`RecordedTrace`]), never as
//! collected uops.

use crate::replay::{Decoder, RecordedTrace};
use crate::sink::TraceSink;
use crate::uop::Uop;
use crate::Workload;

/// Round-robin interleaving of several workloads' uop streams.
#[derive(Debug)]
pub struct Interleave<W> {
    threads: Vec<W>,
    chunk: usize,
    address_offset: u64,
}

impl<W: Workload> Interleave<W> {
    /// Interleave `threads`, switching every `chunk` uops.
    ///
    /// `address_offset` is added to thread *i*'s addresses as
    /// `i * address_offset`; pass 0 to let threads share data.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is empty or `chunk` is zero.
    pub fn new(threads: Vec<W>, chunk: usize, address_offset: u64) -> Self {
        assert!(!threads.is_empty(), "need at least one thread");
        assert!(chunk > 0, "chunk must be positive");
        Self {
            threads,
            chunk,
            address_offset,
        }
    }
}

fn offset_uop(mut uop: Uop, offset: u64) -> Uop {
    if let Some(m) = uop.mem.as_mut() {
        m.addr = m.addr.wrapping_add(offset);
    }
    // Distinguish branch PCs per thread as well, so the predictor sees
    // separate (aliasing-prone) streams like a real shared table would.
    if let Some(b) = uop.branch.as_mut() {
        b.pc = b.pc.wrapping_add(offset);
    }
    uop
}

impl<W: Workload> Workload for Interleave<W> {
    fn name(&self) -> &str {
        "interleave"
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        // Record each thread once into a compact arena, then round-robin
        // `chunk`-sized runs from one decoder per thread.
        let traces: Vec<RecordedTrace> = self.threads.iter().map(RecordedTrace::record).collect();
        let mut threads: Vec<(Decoder<'_>, usize)> =
            traces.iter().map(|t| (Decoder::new(t), t.len())).collect();
        loop {
            let mut emitted = false;
            for (i, (decoder, left)) in threads.iter_mut().enumerate() {
                let offset = (i as u64).wrapping_mul(self.address_offset);
                let run = self.chunk.min(*left);
                for _ in 0..run {
                    sink.uop(offset_uop(decoder.uop(), offset));
                }
                *left -= run;
                emitted |= run > 0;
            }
            if !emitted {
                break;
            }
        }
    }
}

/// The original interleaving, kept as the streaming one's test oracle:
/// collect every thread's whole stream, then round-robin chunks.
#[cfg(test)]
impl<W: Workload> Interleave<W> {
    pub(crate) fn collect_then_interleave(&self) -> Vec<Uop> {
        let streams: Vec<Vec<Uop>> = self.threads.iter().map(|t| t.collect_uops()).collect();
        let mut cursors = vec![0usize; streams.len()];
        let mut out = Vec::new();
        loop {
            let mut emitted = false;
            for (i, stream) in streams.iter().enumerate() {
                let offset = i as u64 * self.address_offset;
                let end = (cursors[i] + self.chunk).min(stream.len());
                for &u in &stream[cursors[i]..end] {
                    out.push(offset_uop(u, offset));
                    emitted = true;
                }
                cursors[i] = end;
            }
            if !emitted {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MemRef;
    use crate::testing::{mixed, Mixed};
    use crate::{SoftwarePrefetch, Squashing, VecWorkload};

    fn thread(words: &[u64]) -> VecWorkload {
        VecWorkload::new("t", words.iter().map(|&w| MemRef::read(w * 4, 4)).collect())
    }

    #[test]
    fn round_robin_order() {
        let il = Interleave::new(vec![thread(&[0, 1, 2, 3]), thread(&[10, 11, 12, 13])], 2, 0);
        let refs = il.collect_mem_refs();
        let words: Vec<u64> = refs.iter().map(|r| r.addr / 4).collect();
        assert_eq!(words, vec![0, 1, 10, 11, 2, 3, 12, 13]);
    }

    #[test]
    fn uneven_lengths_drain_completely() {
        let il = Interleave::new(vec![thread(&[0]), thread(&[1, 2, 3, 4, 5])], 2, 0);
        assert_eq!(il.collect_mem_refs().len(), 6);
    }

    #[test]
    fn address_offset_separates_threads() {
        let il = Interleave::new(vec![thread(&[0]), thread(&[0])], 1, 0x1000);
        let refs = il.collect_mem_refs();
        assert_eq!(refs[0].addr, 0);
        assert_eq!(refs[1].addr, 0x1000);
    }

    #[test]
    fn single_thread_is_identity() {
        let t = thread(&[5, 6, 7]);
        let il = Interleave::new(vec![t.clone()], 2, 0);
        assert_eq!(il.collect_mem_refs(), t.collect_mem_refs());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_empty() {
        let _ = Interleave::<VecWorkload>::new(vec![], 1, 0);
    }

    #[test]
    fn offsets_wrap_instead_of_overflowing() {
        let il = Interleave::new(
            vec![
                VecWorkload::new("t", vec![MemRef::read(0, 4)]),
                VecWorkload::new("t", vec![MemRef::read(u64::MAX - 3, 4)]),
            ],
            1,
            1 << 36,
        );
        let words: Vec<u64> = il.collect_mem_refs().iter().map(|r| r.addr).collect();
        assert_eq!(words, vec![0, (1 << 36) - 4]);
        let branch = |pc| Mixed(vec![Uop::branch(pc, true, [None, None])]);
        let il = Interleave::new(vec![branch(0), branch(u64::MAX)], 1, 2);
        let pcs: Vec<u64> = il
            .collect_uops()
            .iter()
            .filter_map(|u| u.branch)
            .map(|b| b.pc)
            .collect();
        assert_eq!(pcs, vec![0, 1]);
    }

    #[test]
    fn streaming_matches_collect_then_interleave() {
        let cases: [(Vec<u64>, usize); 6] = [
            (vec![300, 17, 120], 25),
            (vec![64, 65], 1),
            (vec![50, 80, 20], 1000),
            (vec![100, 0, 40], 16),
            (vec![0], 8),
            (vec![500], 7),
        ];
        for (lens, chunk) in cases {
            for offset in [0, 1 << 36] {
                let threads: Vec<Mixed> = lens.iter().map(|&n| mixed(n)).collect();
                let il = Interleave::new(threads, chunk, offset);
                assert_eq!(
                    il.collect_uops(),
                    il.collect_then_interleave(),
                    "{lens:?}, chunk {chunk}"
                );
            }
        }
    }

    /// The stack `tests/extensions.rs` composes, against the stack of
    /// the three combinators' collect-then-transform oracles.
    #[test]
    fn composed_stack_matches_the_oracles() {
        let stream = |seed| SoftwarePrefetch::new(Squashing::new(mixed(700), 128, 64, seed), 16);
        let oracle = |seed| {
            let squashed = Mixed(Squashing::new(mixed(700), 128, 64, seed).collect_then_squash());
            Mixed(SoftwarePrefetch::new(squashed, 16).collect_then_rewrite())
        };
        let il = Interleave::new(vec![stream(1), stream(2)], 100, 1 << 30);
        let want = Interleave::new(vec![oracle(1), oracle(2)], 100, 1 << 30);
        assert_eq!(il.collect_uops(), want.collect_then_interleave());
    }
}
