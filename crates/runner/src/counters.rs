//! One table of process-wide event counters. `repro`'s stderr summaries
//! and the serve `stats` reply both read [`snapshot`], so they agree on
//! every name and value. Counters move per job, batch, request,
//! connection or finished simulation, never per uop; a value publishes
//! no other data, so `Relaxed` is enough. Adding a counter is one table
//! line plus the line that bumps it.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counter_table {
    ($($(#[doc = $doc:literal])+ $variant:ident => $name:literal,)+) => {
        /// One process-wide event counter.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Counter {
            /// Every counter, in table (and wire) order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),+];

            /// The name [`snapshot`] and the `stats` reply use.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counter_table! {
    /// Requests answered by a simulation render in this daemon.
    Simulated => "simulated",
    /// Requests answered from the crash-safe result store.
    Store => "store",
    /// Requests that joined an identical in-flight computation.
    Coalesced => "coalesced",
    /// Requests and connections refused: queue full, draining, `--conn-limit`.
    Rejected => "rejected",
    /// Result-store entries quarantined (seal or identity did not verify).
    Quarantined => "quarantined",
    /// Quarantined store generations deleted by the retention sweep.
    RetentionDropped => "retention_dropped",
    /// Completed renders served although their durable save failed.
    SaveFailures => "save_failures",
    /// Connections ended because a half-sent frame passed the read timeout.
    NetTimeouts => "net_timeouts",
    /// Request frames refused for exceeding `max_frame`.
    OversizeRejected => "oversize_rejected",
    /// Request frames refused as unparseable NDJSON.
    MalformedRejected => "malformed_rejected",
    /// Replies whose client vanished mid-write (the render persisted).
    ReplyAborted => "reply_aborted",
    /// This daemon's restart generation under `--supervise` (0 unsupervised).
    SupervisorRestarts => "supervisor_restarts",
    /// Run-engine batches that ran at least one job.
    Batches => "batches",
    /// Job attempts executed (retries included, resumed jobs not).
    Jobs => "jobs",
    /// Summed wall time of executed job attempts, in nanoseconds.
    BusyNanos => "busy_nanos",
    /// Job attempts re-run under the retry policy.
    Retries => "retries",
    /// Jobs that failed after every allowed attempt.
    Failures => "failures",
    /// Jobs replayed from a checkpoint instead of executing.
    Resumed => "resumed",
    /// Jobs cancelled by an interrupt drain or a deadline.
    Cancelled => "cancelled",
    /// Checkpoint artifacts quarantined (checksum or structure did not verify).
    CheckpointQuarantined => "checkpoint_quarantined",
    /// Targets the auditor closed out.
    AuditTargets => "audit_targets",
    /// Invariant checks the auditor evaluated.
    AuditChecks => "audit_checks",
    /// Invariant checks that failed.
    AuditViolations => "audit_violations",
    /// Micro-ops consumed by finished RUU and in-order simulations.
    Uops => "uops",
}

static VALUES: [AtomicU64; Counter::ALL.len()] = [const { AtomicU64::new(0) }; Counter::ALL.len()];

/// Add `n` to counter `c`.
pub fn add(c: Counter, n: u64) {
    VALUES[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// The current value of counter `c`.
pub fn get(c: Counter) -> u64 {
    VALUES[c as usize].load(Ordering::Relaxed)
}

/// Counter values by name, in table order: what [`snapshot`] returns
/// and what the serve `stats` reply carries. A reply parsed from
/// another daemon version keeps whatever names that daemon sent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot(pub Vec<(String, u64)>);

impl Snapshot {
    /// The value of `c`, or 0 when the snapshot does not carry it (a
    /// reply from a daemon older than the counter).
    pub fn get(&self, c: Counter) -> u64 {
        self.0
            .iter()
            .find(|(name, _)| name == c.name())
            .map_or(0, |&(_, v)| v)
    }
}

/// Every counter's current value, in table order.
pub fn snapshot() -> Snapshot {
    Snapshot(
        Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), get(c)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len(), "duplicate wire name");
    }

    #[test]
    fn snapshot_reads_what_add_wrote() {
        let before = snapshot().get(Counter::SupervisorRestarts);
        add(Counter::SupervisorRestarts, 3);
        let s = snapshot();
        assert!(s.get(Counter::SupervisorRestarts) >= before + 3);
        assert_eq!(s.0.len(), Counter::ALL.len());
        assert_eq!(s.0[0].0, "simulated");
        assert_eq!(Snapshot::default().get(Counter::Uops), 0);
    }
}
