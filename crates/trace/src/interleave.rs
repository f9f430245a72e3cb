//! Interleaving multiple workloads: the multithreading / shared-cache
//! model of the paper's §2.1–2.2.
//!
//! "Frequent switching of threads will increase interference in the
//! caches …, causing an increase in cache misses and total traffic." An
//! [`Interleave`] round-robins fixed-size chunks of uops from several
//! workloads (optionally offsetting their address spaces so threads do
//! not alias), producing the combined reference stream a shared cache
//! would see.

use crate::record::MemRef;
use crate::sink::{CollectSink, TraceSink};
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
        *m = MemRef {
            addr: m.addr + offset,
            ..*m
        };
    }
    // Distinguish branch PCs per thread as well, so the predictor sees
    // separate (aliasing-prone) streams like a real shared table would.
    if let Some(b) = uop.branch.as_mut() {
        b.pc += offset;
    }
    uop
}

impl<W: Workload> Workload for Interleave<W> {
    fn name(&self) -> &str {
        "interleave"
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        // Materialize each thread's stream, then round-robin chunks.
        // (Workload generation is push-based; buffering per thread keeps
        // the combinator simple and workloads unchanged.)
        let streams: Vec<Vec<Uop>> = self
            .threads
            .iter()
            .map(|t| {
                let mut c = CollectSink::new();
                t.generate(&mut c);
                c.into_uops()
            })
            .collect();
        let mut cursors = vec![0usize; streams.len()];
        loop {
            let mut emitted = false;
            for (i, stream) in streams.iter().enumerate() {
                let offset = i as u64 * self.address_offset;
                let end = (cursors[i] + self.chunk).min(stream.len());
                for &u in &stream[cursors[i]..end] {
                    sink.uop(offset_uop(u, offset));
                    emitted = true;
                }
                cursors[i] = end;
            }
            if !emitted {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecWorkload;

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
}
