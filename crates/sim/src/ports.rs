//! Per-cycle slot accounting for the timing cores' issue, memory and
//! commit ports.
//!
//! A port of width `w` books at most `w` uops per cycle; `schedule`
//! returns the first cycle at or after a request with a free slot and
//! books it. The in-order core's requests (and the out-of-order core's
//! commits) never go backwards, so a cursor suffices
//! ([`MonotoneWidth`]). The out-of-order core's dispatch, issue and
//! memory ports take requests in any order ([`CycleWidth`]).

use std::collections::BTreeMap;

/// Per-cycle slot accounting for a monotone (in-order) schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MonotoneWidth {
    cycle: u64,
    used: u32,
    width: u32,
}

impl MonotoneWidth {
    pub(crate) fn new(width: u32) -> Self {
        Self {
            cycle: 0,
            used: 0,
            width,
        }
    }

    /// First cycle `>= earliest` with a free slot; books it. Exact
    /// only while `earliest` never falls below an earlier request.
    pub(crate) fn schedule(&mut self, earliest: u64) -> u64 {
        if earliest > self.cycle {
            self.cycle = earliest;
            self.used = 0;
        }
        if self.used >= self.width {
            self.cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.cycle
    }
}

/// Cycles the calendar ring covers; a power of two, so a cycle's slot
/// is `cycle & RING_MASK`.
const RING: usize = 4096;
const RING_MASK: u64 = RING as u64 - 1;

/// Per-cycle slot accounting that tolerates out-of-order requests.
///
/// A fixed calendar ring counts the bookings of the cycles
/// `[base, base + RING)`; bookings further ahead (a load queued behind
/// a saturated bus) go to a sparse ordered `far` list. Memory follows
/// the uops in flight, not the span of cycles they are booked across.
/// This is the hot loop of the out-of-order core: every uop books a
/// dispatch, an issue and (memory uops) a memory-port slot.
#[derive(Debug)]
pub(crate) struct CycleWidth {
    width: u32,
    /// Bookings of cycle `c` in `[base, base + RING)` at `c & RING_MASK`.
    ring: Box<[u32]>,
    /// Bookings of cycles at or past `base + RING`.
    far: BTreeMap<u64, u32>,
    /// No request is ever below it (see [`CycleWidth::prune`]).
    base: u64,
}

impl CycleWidth {
    pub(crate) fn new(width: u32) -> Self {
        Self {
            width,
            ring: vec![0; RING].into_boxed_slice(),
            far: BTreeMap::new(),
            base: 0,
        }
    }

    /// First cycle `>= earliest` with a free slot; books it.
    pub(crate) fn schedule(&mut self, earliest: u64) -> u64 {
        debug_assert!(
            earliest >= self.base,
            "request {earliest} below the prune floor {}",
            self.base
        );
        let mut t = earliest;
        let end = self.base + RING as u64;
        while t < end {
            let n = &mut self.ring[(t & RING_MASK) as usize];
            if *n < self.width {
                *n += 1;
                return t;
            }
            t += 1;
        }
        loop {
            let n = self.far.entry(t).or_insert(0);
            if *n < self.width {
                *n += 1;
                return t;
            }
            t += 1;
        }
    }

    /// Cycles `< floor` can never be requested again: free their slots
    /// and pull the far bookings that now fall inside the ring.
    pub(crate) fn prune(&mut self, floor: u64) {
        if floor <= self.base {
            return;
        }
        if floor - self.base >= RING as u64 {
            self.ring.fill(0);
        } else {
            let from = (self.base & RING_MASK) as usize;
            let to = (floor & RING_MASK) as usize;
            if from < to {
                self.ring[from..to].fill(0);
            } else {
                self.ring[from..].fill(0);
                self.ring[..to].fill(0);
            }
        }
        self.base = floor;
        let end = floor + RING as u64;
        while let Some(entry) = self.far.first_entry() {
            let cycle = *entry.key();
            if cycle >= end {
                break;
            }
            let n = entry.remove();
            if cycle >= floor {
                self.ring[(cycle & RING_MASK) as usize] = n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The dense scheduler the ring replaced: one counter per cycle from
    /// the prune floor to the furthest booking. Kept as the oracle.
    struct DenseWidth {
        width: u32,
        counts: VecDeque<u32>,
        base: u64,
    }

    impl DenseWidth {
        fn new(width: u32) -> Self {
            Self {
                width,
                counts: VecDeque::new(),
                base: 0,
            }
        }

        fn schedule(&mut self, earliest: u64) -> u64 {
            let t = earliest.max(self.base);
            let mut idx = (t - self.base) as usize;
            if idx >= self.counts.len() {
                self.counts.resize(idx + 1, 0);
            }
            loop {
                if self.counts[idx] < self.width {
                    self.counts[idx] += 1;
                    return self.base + idx as u64;
                }
                idx += 1;
                if idx == self.counts.len() {
                    self.counts.push_back(0);
                }
            }
        }

        fn prune(&mut self, floor: u64) {
            while self.base < floor {
                if self.counts.pop_front().is_none() {
                    self.base = floor;
                    return;
                }
                self.base += 1;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn ring_schedules_like_the_dense_oracle(
            width in 1u32..5,
            steps in prop::collection::vec((0u32..100, 0u64..64, 0u32..8), 1..600),
        ) {
            let mut ring = CycleWidth::new(width);
            let mut dense = DenseWidth::new(width);
            let mut floor = 0u64;
            for (i, (kind, offset, scale)) in steps.into_iter().enumerate() {
                if kind < 8 {
                    // The floor advances by a few cycles, a ring's
                    // span, or past the far bookings.
                    floor += offset << (2 * scale);
                    ring.prune(floor);
                    dense.prune(floor);
                    continue;
                }
                // Mostly near the floor; some far past the ring, a few
                // 10^6 cycles ahead.
                let ahead = match kind % 8 {
                    0 => 1_000_000 + offset,
                    1 | 2 => offset << (2 * scale),
                    _ => offset,
                };
                let got = ring.schedule(floor + ahead);
                let want = dense.schedule(floor + ahead);
                prop_assert_eq!(got, want, "step {}: request {}", i, floor + ahead);
            }
        }

        #[test]
        fn monotone_port_schedules_like_the_dense_oracle(
            width in 1u32..5,
            steps in prop::collection::vec(0u64..6, 1..400),
        ) {
            let mut port = MonotoneWidth::new(width);
            let mut dense = DenseWidth::new(width);
            let mut earliest = 0;
            for step in steps {
                // Stay put (fill the cycle) or move forward.
                earliest += step.saturating_sub(3);
                prop_assert_eq!(port.schedule(earliest), dense.schedule(earliest));
            }
        }
    }

    #[test]
    fn a_booking_far_ahead_does_not_grow_the_ring() {
        let mut port = CycleWidth::new(4);
        assert_eq!(port.schedule(1_000_000_000), 1_000_000_000);
        assert_eq!(port.ring.len(), RING);
        assert_eq!(port.far.len(), 1);
        // The booking counts once the floor brings it inside the ring.
        for _ in 0..3 {
            assert_eq!(port.schedule(1_000_000_000), 1_000_000_000);
        }
        port.prune(1_000_000_000 - 10);
        assert!(port.far.is_empty());
        assert_eq!(port.ring.len(), RING);
        assert_eq!(port.schedule(1_000_000_000), 1_000_000_001);
    }

    #[test]
    fn a_full_ring_spills_into_the_far_list() {
        let mut port = CycleWidth::new(1);
        for c in 0..RING as u64 {
            assert_eq!(port.schedule(0), c);
        }
        assert_eq!(port.schedule(0), RING as u64);
        assert_eq!(port.far.len(), 1);
        port.prune(1);
        assert!(port.far.is_empty());
        assert_eq!(port.schedule(1), RING as u64 + 1);
    }
}
