//! Wire types for the `membw serve` newline-delimited JSON protocol.
//!
//! One request per line, one response per line. Requests name a
//! renderable target plus the run parameters the CLI would take as
//! flags; responses are tagged by a `"status"` field so clients can
//! dispatch without guessing:
//!
//! ```text
//! -> {"target":"table7","scale":"test","priority":3}
//! <- {"status":"ok","target":"table7", ... ,"stdout":"Table 7 ..."}
//!
//! -> {"target":"fig3","deadline_ms":10}
//! <- {"status":"error","kind":"deadline","message":"..."}
//!
//! -> {"target":"table8"}          (while the queue is at its bound)
//! <- {"status":"busy","queued":8,"bound":8}
//! ```
//!
//! These types live in `membw-core` (not the serve crate) so the
//! `repro query` client, the daemon, and the tests all speak the same
//! schema from one definition. Serialization goes through the vendored
//! serde shim's [`serde::json::Value`] tree; every field is written in a fixed
//! order so responses are byte-stable — the dedupe fan-out and the
//! result store both rely on "same request, same bytes".

use crate::audit::AuditLevel;
use crate::error::MembwError;
use crate::runner::counters::{Counter, Snapshot};
use serde::json::Value;
use serde::{DeError, Deserialize, Serialize};

/// One client request: which target to render, and how.
///
/// Every field except `target` is optional on the wire and defaults to
/// the CLI's defaults (`scale small`, `sweep stack`, `audit warn`, no
/// deadline, priority 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRequest {
    /// Target name (must be renderable: no `dump`, no `all`).
    pub target: String,
    /// Workload scale: `test` | `small` | `full`.
    pub scale: String,
    /// Capacity-axis engine: `stack` | `direct`.
    pub sweep: String,
    /// Invariant-audit level: `off` | `warn` | `strict`.
    pub audit: String,
    /// Per-request response deadline in milliseconds (0 = none). The
    /// computation itself continues past the deadline and lands in the
    /// result store; only the *reply* gives up.
    pub deadline_ms: u64,
    /// Dispatch priority: higher runs first, FIFO within a priority.
    pub priority: u8,
}

impl ServiceRequest {
    /// A request for `target` with every optional field at its default.
    pub fn new(target: impl Into<String>) -> Self {
        ServiceRequest {
            target: target.into(),
            scale: "small".to_string(),
            sweep: "stack".to_string(),
            audit: "warn".to_string(),
            deadline_ms: 0,
            priority: 0,
        }
    }

    /// The dedupe / result-store key: everything the rendered bytes
    /// depend on. Audit level, deadline, and priority are deliberately
    /// excluded — they change *how* the answer is produced or awaited,
    /// never the answer's bytes (a strict-audit failure is an error
    /// response, which is never stored or deduped onto).
    pub fn coalesce_key(&self) -> String {
        format!("v1|{}|{}|{}", self.target, self.scale, self.sweep)
    }

    /// Validate field values against the registries the CLI uses.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the bad field (the daemon wraps
    /// it in a `bad-request` / `unknown-target` error response).
    pub fn validate(&self) -> Result<(), String> {
        if !crate::targets::renderable(&self.target) {
            crate::targets::validate_target(&self.target)?;
            return Err(format!(
                "target '{}' is not servable (renderable targets only: no 'dump', no 'all')",
                self.target
            ));
        }
        crate::targets::parse_scale(&self.scale)?;
        crate::sweep::SweepMode::parse(&self.sweep)?;
        self.audit
            .parse::<AuditLevel>()
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

impl Serialize for ServiceRequest {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("target".to_string(), Value::Str(self.target.clone())),
            ("scale".to_string(), Value::Str(self.scale.clone())),
            ("sweep".to_string(), Value::Str(self.sweep.clone())),
            ("audit".to_string(), Value::Str(self.audit.clone())),
            ("deadline_ms".to_string(), Value::UInt(self.deadline_ms)),
            (
                "priority".to_string(),
                Value::UInt(u64::from(self.priority)),
            ),
        ])
    }
}

/// Extract an optional field, defaulting when absent (requests omit
/// what they don't override; `null` means "default" too).
fn opt_field<T: Deserialize>(v: &Value, field: &str, default: T) -> Result<T, DeError> {
    match v.get(field) {
        None | Some(Value::Null) => Ok(default),
        Some(fv) => T::from_value(fv).map_err(|e| DeError(format!("ServiceRequest.{field}: {e}"))),
    }
}

impl Deserialize for ServiceRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::expected("request object", v));
        }
        // Refused rather than ignored: a client that sets it expects an
        // analytic answer, and silently simulating instead would hide
        // that it will never get one.
        if v.get("analytic_rel_permille").is_some() {
            return Err(DeError(
                "ServiceRequest.analytic_rel_permille: the analytic fast lane is retired \
                 (its fig3 bounds never fit a client's tolerance and its predictions \
                 disagreed with simulation); drop the field to get the simulated answer"
                    .to_string(),
            ));
        }
        let target: String = serde::__field(v, "target", "ServiceRequest")?;
        Ok(ServiceRequest {
            target,
            scale: opt_field(v, "scale", "small".to_string())?,
            sweep: opt_field(v, "sweep", "stack".to_string())?,
            audit: opt_field(v, "audit", "warn".to_string())?,
            deadline_ms: opt_field(v, "deadline_ms", 0)?,
            priority: opt_field(v, "priority", 0)?,
        })
    }
}

/// Machine-readable error kinds (`ServiceResponse::Error::kind`).
pub mod error_kind {
    /// The request line was not valid JSON / not a request object.
    pub const BAD_REQUEST: &str = "bad-request";
    /// The target name is unknown or not servable.
    pub const UNKNOWN_TARGET: &str = "unknown-target";
    /// The request line exceeded the frame size bound.
    pub const FRAME_TOO_LONG: &str = "frame-too-long";
    /// The job panicked; the daemon survived.
    pub const PANIC: &str = "panic";
    /// Strict-audit invariant violation; `cell` names the matrix cell.
    pub const INVARIANT: &str = "invariant";
    /// One or more run-engine jobs ultimately failed.
    pub const JOBS_FAILED: &str = "jobs-failed";
    /// The per-request `deadline_ms` elapsed before the result.
    pub const DEADLINE: &str = "deadline";
    /// The job was cancelled (daemon drain).
    pub const CANCELLED: &str = "cancelled";
    /// A transient I/O failure (full disk, failed fsync, injected
    /// fault): the render may well succeed if retried — the response
    /// carries a `retry_after_ms` hint and well-behaved clients back
    /// off and retry (`membw_serve::Backoff` in the serve crate).
    pub const TRANSIENT: &str = "transient";
    /// Non-retryable internal failure (corrupt trace, logic error).
    pub const INTERNAL: &str = "internal";
}

/// Where an `ok` response's bytes came from.
pub mod source {
    /// Rendered by a simulation run in this daemon process.
    pub const COMPUTED: &str = "computed";
    /// Served from the crash-safe result store (checksum verified).
    pub const STORE: &str = "store";
}

/// The target name answered with daemon counters instead of a render.
pub const STATS_TARGET: &str = "stats";

/// Store hits per thousand answered requests (store + simulated +
/// coalesced) in a `stats` snapshot; 0 when nothing was answered yet.
/// The `stats` reply carries it after the counters.
pub fn store_hit_permille(s: &Snapshot) -> u64 {
    let answered = s.get(Counter::Simulated) + s.get(Counter::Store) + s.get(Counter::Coalesced);
    (s.get(Counter::Store) * 1000)
        .checked_div(answered)
        .unwrap_or(0)
}

/// One response line, tagged by `status`.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceResponse {
    /// The rendered target.
    Ok {
        /// Echo of the request target.
        target: String,
        /// Echo of the effective scale.
        scale: String,
        /// Echo of the effective sweep mode.
        sweep: String,
        /// [`source::COMPUTED`] or [`source::STORE`]. Deduped followers
        /// report the same source as the leader — the response bytes
        /// must be identical for every coalesced client.
        source: String,
        /// FNV-1a 64 of `stdout`, zero-padded hex — clients can verify
        /// the payload survived the wire.
        fnv64: String,
        /// Run-engine jobs this request executed (0 on a store hit).
        jobs: u64,
        /// Jobs replayed from checkpoints instead of executing.
        resumed: u64,
        /// Model version of a retired analytic answer. Nothing sets it
        /// now: always `None`, and then omitted on the wire.
        model: Option<String>,
        /// Error bound of a retired analytic answer, in permille.
        /// Always `None` and omitted on the wire, like `model`.
        bound_rel_permille: Option<u64>,
        /// Exactly the bytes `repro <target>` prints on stdout.
        stdout: String,
    },
    /// The daemon process's [`counters`](crate::runner::counters)
    /// snapshot (reply to [`STATS_TARGET`]).
    Stats(Snapshot),
    /// The wait queue is at its bound; retry later (429 analogue).
    Busy {
        /// Requests waiting when this one was refused.
        queued: u64,
        /// The configured queue bound.
        bound: u64,
    },
    /// The daemon is draining (SIGTERM); no new work is admitted.
    Draining,
    /// The request failed; the daemon is fine.
    Error {
        /// One of [`error_kind`]'s constants.
        kind: String,
        /// Human-readable description.
        message: String,
        /// For [`error_kind::INVARIANT`]: the auditor's matrix cell
        /// (`"compress @ 16KB"`).
        cell: Option<String>,
        /// For [`error_kind::TRANSIENT`]: how long a polite client
        /// should wait before retrying, in milliseconds. `None` (and
        /// omitted on the wire) for non-retryable kinds, so every
        /// pre-taxonomy response stays byte-identical.
        retry_after_ms: Option<u64>,
    },
}

/// The `retry_after_ms` hint attached to [`error_kind::TRANSIENT`]
/// responses: long enough for a brief I/O stall to clear, short enough
/// that a retry storm is bounded by the backoff policy, not this hint.
pub const TRANSIENT_RETRY_AFTER_MS: u64 = 250;

impl ServiceResponse {
    /// Build the error response for a failed render, classifying the
    /// [`MembwError`] and surfacing the auditor's cell name. I/O
    /// failures are [`error_kind::TRANSIENT`] — a full disk or failed
    /// fsync can clear — and carry a retry hint; everything else is
    /// non-retryable.
    pub fn from_error(err: &MembwError) -> Self {
        let (kind, cell) = match err {
            MembwError::InvariantViolation { violations } => (
                error_kind::INVARIANT,
                violations.first().map(|v| v.cell.clone()),
            ),
            MembwError::Jobs { .. } => (error_kind::JOBS_FAILED, None),
            MembwError::Io { .. } => (error_kind::TRANSIENT, None),
            MembwError::Trace { .. } => (error_kind::INTERNAL, None),
        };
        let retry_after_ms = (kind == error_kind::TRANSIENT).then_some(TRANSIENT_RETRY_AFTER_MS);
        ServiceResponse::Error {
            kind: kind.to_string(),
            message: err.to_string(),
            cell,
            retry_after_ms,
        }
    }

    /// The `status` tag this response serializes under.
    pub fn status(&self) -> &'static str {
        match self {
            ServiceResponse::Ok { .. } => "ok",
            ServiceResponse::Stats(_) => "stats",
            ServiceResponse::Busy { .. } => "busy",
            ServiceResponse::Draining => "draining",
            ServiceResponse::Error { .. } => "error",
        }
    }
}

impl Serialize for ServiceResponse {
    fn to_value(&self) -> Value {
        let mut fields = vec![("status".to_string(), Value::Str(self.status().to_string()))];
        match self {
            ServiceResponse::Ok {
                target,
                scale,
                sweep,
                source,
                fnv64,
                jobs,
                resumed,
                model,
                bound_rel_permille,
                stdout,
            } => {
                fields.push(("target".to_string(), Value::Str(target.clone())));
                fields.push(("scale".to_string(), Value::Str(scale.clone())));
                fields.push(("sweep".to_string(), Value::Str(sweep.clone())));
                fields.push(("source".to_string(), Value::Str(source.clone())));
                fields.push(("fnv64".to_string(), Value::Str(fnv64.clone())));
                fields.push(("jobs".to_string(), Value::UInt(*jobs)));
                fields.push(("resumed".to_string(), Value::UInt(*resumed)));
                // Written only when set, which nothing does since the
                // analytic lane was retired.
                if let Some(m) = model {
                    fields.push(("model".to_string(), Value::Str(m.clone())));
                }
                if let Some(b) = bound_rel_permille {
                    fields.push(("bound_rel_permille".to_string(), Value::UInt(*b)));
                }
                fields.push(("stdout".to_string(), Value::Str(stdout.clone())));
            }
            ServiceResponse::Stats(s) => {
                fields.extend(s.0.iter().map(|(n, v)| (n.clone(), Value::UInt(*v))));
                fields.push((
                    "store_hit_permille".to_string(),
                    Value::UInt(store_hit_permille(s)),
                ));
            }
            ServiceResponse::Busy { queued, bound } => {
                fields.push(("queued".to_string(), Value::UInt(*queued)));
                fields.push(("bound".to_string(), Value::UInt(*bound)));
            }
            ServiceResponse::Draining => {}
            ServiceResponse::Error {
                kind,
                message,
                cell,
                retry_after_ms,
            } => {
                fields.push(("kind".to_string(), Value::Str(kind.clone())));
                fields.push(("message".to_string(), Value::Str(message.clone())));
                fields.push((
                    "cell".to_string(),
                    match cell {
                        Some(c) => Value::Str(c.clone()),
                        None => Value::Null,
                    },
                ));
                // Written only on retryable errors, so every other
                // error response's bytes are unchanged.
                if let Some(ms) = retry_after_ms {
                    fields.push(("retry_after_ms".to_string(), Value::UInt(*ms)));
                }
            }
        }
        Value::Object(fields)
    }
}

impl Deserialize for ServiceResponse {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let status: String = serde::__field(v, "status", "ServiceResponse")?;
        match status.as_str() {
            "ok" => Ok(ServiceResponse::Ok {
                target: serde::__field(v, "target", "ServiceResponse")?,
                scale: serde::__field(v, "scale", "ServiceResponse")?,
                sweep: serde::__field(v, "sweep", "ServiceResponse")?,
                source: serde::__field(v, "source", "ServiceResponse")?,
                fnv64: serde::__field(v, "fnv64", "ServiceResponse")?,
                jobs: serde::__field(v, "jobs", "ServiceResponse")?,
                resumed: serde::__field(v, "resumed", "ServiceResponse")?,
                model: opt_field(v, "model", None)?,
                bound_rel_permille: opt_field(v, "bound_rel_permille", None)?,
                stdout: serde::__field(v, "stdout", "ServiceResponse")?,
            }),
            // Every unsigned field but the derived hit rate is a
            // counter, so daemons with fewer or more counters parse.
            "stats" => match v {
                Value::Object(fields) => Ok(ServiceResponse::Stats(Snapshot(
                    fields
                        .iter()
                        .filter(|(name, _)| name != "store_hit_permille")
                        .filter_map(|(name, v)| match v {
                            Value::UInt(n) => Some((name.clone(), *n)),
                            _ => None,
                        })
                        .collect(),
                ))),
                _ => Err(DeError("stats response is not an object".to_string())),
            },
            "busy" => Ok(ServiceResponse::Busy {
                queued: serde::__field(v, "queued", "ServiceResponse")?,
                bound: serde::__field(v, "bound", "ServiceResponse")?,
            }),
            "draining" => Ok(ServiceResponse::Draining),
            "error" => Ok(ServiceResponse::Error {
                kind: serde::__field(v, "kind", "ServiceResponse")?,
                message: serde::__field(v, "message", "ServiceResponse")?,
                cell: opt_field(v, "cell", None)?,
                retry_after_ms: opt_field(v, "retry_after_ms", None)?,
            }),
            other => Err(DeError(format!("unknown response status {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_defaults_fill_missing_fields() {
        let r: ServiceRequest =
            serde_json::from_str(r#"{"target":"table7"}"#).expect("minimal request");
        assert_eq!(r, ServiceRequest::new("table7"));
        assert_eq!(r.scale, "small");
        assert_eq!(r.sweep, "stack");
        assert_eq!(r.audit, "warn");
        assert_eq!(r.deadline_ms, 0);
        assert_eq!(r.priority, 0);
    }

    #[test]
    fn request_round_trips() {
        let mut r = ServiceRequest::new("fig4");
        r.scale = "test".to_string();
        r.sweep = "direct".to_string();
        r.audit = "strict".to_string();
        r.deadline_ms = 1500;
        r.priority = 9;
        let line = serde_json::to_string(&r).unwrap();
        let back: ServiceRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn request_rejects_wrong_shapes() {
        assert!(serde_json::from_str::<ServiceRequest>("42").is_err());
        assert!(serde_json::from_str::<ServiceRequest>(r#"{"scale":"test"}"#).is_err());
        assert!(
            serde_json::from_str::<ServiceRequest>(r#"{"target":"t","priority":300}"#).is_err(),
            "priority must fit u8"
        );
    }

    #[test]
    fn validate_rejects_unservable_targets() {
        assert!(ServiceRequest::new("table7").validate().is_ok());
        let e = ServiceRequest::new("dump").validate().unwrap_err();
        assert!(e.contains("not servable"), "{e}");
        let e = ServiceRequest::new("all").validate().unwrap_err();
        assert!(e.contains("not servable"), "{e}");
        let e = ServiceRequest::new("tabel7").validate().unwrap_err();
        assert!(e.contains("did you mean"), "{e}");
        let mut r = ServiceRequest::new("table7");
        r.scale = "huge".to_string();
        assert!(r.validate().is_err());
        let mut r = ServiceRequest::new("table7");
        r.sweep = "sideways".to_string();
        assert!(r.validate().is_err());
        let mut r = ServiceRequest::new("table7");
        r.audit = "loud".to_string();
        assert!(r.validate().is_err());
    }

    #[test]
    fn coalesce_key_ignores_delivery_parameters() {
        let mut a = ServiceRequest::new("table7");
        let mut b = ServiceRequest::new("table7");
        a.priority = 5;
        a.deadline_ms = 100;
        a.audit = "off".to_string();
        b.priority = 0;
        assert_eq!(a.coalesce_key(), b.coalesce_key());
        b.scale = "test".to_string();
        assert_ne!(a.coalesce_key(), b.coalesce_key());
    }

    #[test]
    fn responses_round_trip_every_variant() {
        let cases = vec![
            ServiceResponse::Ok {
                target: "table7".into(),
                scale: "test".into(),
                sweep: "stack".into(),
                source: source::COMPUTED.into(),
                fnv64: "00000000deadbeef".into(),
                jobs: 12,
                resumed: 3,
                model: None,
                bound_rel_permille: None,
                stdout: "Table 7\nline \"two\"\n".into(),
            },
            ServiceResponse::Stats(Snapshot(vec![
                ("simulated".into(), 2),
                ("store".into(), 3),
                ("save_failures".into(), 1),
                ("a_newer_counter".into(), 7),
            ])),
            ServiceResponse::Busy {
                queued: 8,
                bound: 8,
            },
            ServiceResponse::Draining,
            ServiceResponse::Error {
                kind: error_kind::INVARIANT.into(),
                message: "1 paper invariant(s) violated".into(),
                cell: Some("compress @ 16KB".into()),
                retry_after_ms: None,
            },
            ServiceResponse::Error {
                kind: error_kind::PANIC.into(),
                message: "job panicked".into(),
                cell: None,
                retry_after_ms: None,
            },
            ServiceResponse::Error {
                kind: error_kind::TRANSIENT.into(),
                message: "cannot fsync artifact".into(),
                cell: None,
                retry_after_ms: Some(TRANSIENT_RETRY_AFTER_MS),
            },
        ];
        for resp in cases {
            let line = serde_json::to_string(&resp).unwrap();
            assert!(!line.contains('\n'), "one response = one line: {line:?}");
            let back: ServiceResponse = serde_json::from_str(&line).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn serialization_is_byte_stable() {
        let r = ServiceResponse::Busy {
            queued: 1,
            bound: 2,
        };
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&r).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            r#"{"status":"busy","queued":1,"bound":2}"#
        );
    }

    #[test]
    fn retired_analytic_tolerance_is_refused_by_name() {
        for line in [
            r#"{"target":"fig3","analytic_rel_permille":600}"#,
            r#"{"target":"fig3","analytic_rel_permille":0}"#,
            r#"{"target":"fig3","analytic_rel_permille":null}"#,
        ] {
            let e = serde_json::from_str::<ServiceRequest>(line).unwrap_err();
            let e = e.to_string();
            assert!(e.contains("analytic_rel_permille"), "{e}");
            assert!(e.contains("retired"), "{e}");
        }
        let line = serde_json::to_string(&ServiceRequest::new("fig3")).unwrap();
        assert!(!line.contains("analytic"), "{line}");
    }

    #[test]
    fn store_hit_rate_counts_answered_requests_only() {
        assert_eq!(store_hit_permille(&Snapshot::default()), 0);
        let s = Snapshot(vec![
            ("simulated".into(), 2),
            ("store".into(), 1),
            ("coalesced".into(), 1),
            ("rejected".into(), 100), // refusals are not answers
        ]);
        assert_eq!(store_hit_permille(&s), 250);
    }

    #[test]
    fn stats_reply_is_the_snapshot_in_order_then_the_hit_rate() {
        let s = crate::runner::counters::snapshot();
        let first: Vec<&str> = s.0.iter().take(12).map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            first,
            [
                "simulated",
                "store",
                "coalesced",
                "rejected",
                "quarantined",
                "retention_dropped",
                "save_failures",
                "net_timeouts",
                "oversize_rejected",
                "malformed_rejected",
                "reply_aborted",
                "supervisor_restarts",
            ],
            "the 12 original wire names come first, in order"
        );
        let line = serde_json::to_string(&ServiceResponse::Stats(s)).unwrap();
        assert!(
            line.starts_with(r#"{"status":"stats","simulated":"#),
            "{line}"
        );
        assert!(line.contains(r#","uops":"#), "{line}");
        let (_, last) = line.rsplit_once(',').unwrap();
        assert!(last.starts_with(r#""store_hit_permille":"#), "{line}");
        // A pre-taxonomy daemon's reply (four counters) still parses.
        let old = r#"{"status":"stats","simulated":1,"store":1,"coalesced":0,"rejected":0,"store_hit_permille":500}"#;
        match serde_json::from_str::<ServiceResponse>(old).unwrap() {
            ServiceResponse::Stats(s) => {
                assert_eq!(s.get(Counter::Store), 1);
                assert_eq!(s.get(Counter::SaveFailures), 0);
                assert_eq!(store_hit_permille(&s), 500);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn errors_classify_with_auditor_cell() {
        let e = MembwError::InvariantViolation {
            violations: vec![crate::audit::Violation {
                target: "table8".to_string(),
                cell: "compress @ 16KB".to_string(),
                invariant: "inefficiency",
                detail: "G = 0.7 < 1".to_string(),
            }],
        };
        match ServiceResponse::from_error(&e) {
            ServiceResponse::Error { kind, cell, .. } => {
                assert_eq!(kind, error_kind::INVARIANT);
                assert_eq!(cell.as_deref(), Some("compress @ 16KB"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        let e = MembwError::io(
            "write result",
            "/tmp/x",
            std::io::Error::from(std::io::ErrorKind::PermissionDenied),
        );
        match ServiceResponse::from_error(&e) {
            ServiceResponse::Error {
                kind,
                cell,
                retry_after_ms,
                ..
            } => {
                assert_eq!(kind, error_kind::TRANSIENT, "I/O failures are retryable");
                assert_eq!(cell, None);
                assert_eq!(retry_after_ms, Some(TRANSIENT_RETRY_AFTER_MS));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn retry_hint_absent_from_non_retryable_error_bytes() {
        // Pre-taxonomy error responses must keep their exact bytes:
        // the hint field appears only on transient errors.
        let plain = ServiceResponse::Error {
            kind: error_kind::PANIC.into(),
            message: "m".into(),
            cell: None,
            retry_after_ms: None,
        };
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            r#"{"status":"error","kind":"panic","message":"m","cell":null}"#
        );
        let transient = ServiceResponse::Error {
            kind: error_kind::TRANSIENT.into(),
            message: "m".into(),
            cell: None,
            retry_after_ms: Some(250),
        };
        assert_eq!(
            serde_json::to_string(&transient).unwrap(),
            r#"{"status":"error","kind":"transient","message":"m","cell":null,"retry_after_ms":250}"#
        );
    }
}
