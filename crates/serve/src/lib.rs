//! `membw-serve`: the crash-safe, backpressure-aware resident
//! simulation service behind `repro serve` / `repro query`.
//!
//! The CLI answers one question per process; this crate keeps a warm
//! process answering many — the serving shape that makes the paper's
//! bandwidth wall a *service* problem. It composes the engine's
//! existing robustness pieces instead of reinventing them:
//!
//! | pillar | mechanism |
//! |--------|-----------|
//! | fault isolation | [`membw_core::runner::Dispatcher`] catch-unwind per request |
//! | backpressure | bounded queue, FIFO within priority, `busy` past the bound |
//! | dedupe | identical in-flight `(target, scale, sweep)` coalesce onto one [`membw_core::runner::JobHandle`] |
//! | crash safety | [`store::ResultStore`]: tmp→fsync→rename + FNV-sealed entries |
//! | graceful drain | SIGTERM → engine cancel tokens → checkpointed partial work |
//! | chaos | [`chaos`]: the soak test's adversarial clients (slow-loris, duplicate bursts) |
//! | wire faults | `MEMBW_FAULT` `net:` directives under every socket op in [`net`] |
//! | self-healing | [`supervisor`]: `serve --supervise` restarts a crashed daemon with bounded backoff |
//!
//! Protocol types live in [`membw_core::service`]; rendering goes
//! through [`membw_core::targets::render_target`], the same function
//! the CLI prints from, which is what makes "a response is
//! byte-identical to the CLI run" checkable at all.

pub mod chaos;
pub mod client;
pub mod net;
pub mod server;
pub mod store;
pub mod supervisor;

pub use net::{Endpoint, Listener, Stream};
pub use server::{serve, ServeConfig, Server};
pub use store::ResultStore;
pub use supervisor::{supervise, SupervisorConfig};
