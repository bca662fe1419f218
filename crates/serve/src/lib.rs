//! Persistent analysis serving for the Ruf'95 reproduction.
//!
//! PR 4 made re-analysis incremental inside one process; this crate
//! makes the process long-lived. Three layers:
//!
//! - [`store`]: a versioned, checksummed on-disk record of each
//!   project's jobs and the fingerprints that pin their answers.
//!   Corruption in any form degrades to a cold start; a restored job
//!   is solved cold and checked against its stored fingerprints.
//! - [`service`]: the transport-agnostic dispatcher mapping
//!   [`proto::Request`] to [`proto::Response`], with per-project
//!   session isolation, write-through persistence, and LRU eviction
//!   under a memory budget.
//! - [`daemon`]: the JSON-over-TCP transport (`ruf95 serve`) and the
//!   matching [`daemon::Client`].
//!
//! The restart-replay guarantee: analyze, kill the daemon, restart it
//! against the same store, analyze again — every solution fingerprint,
//! report fingerprint, and diagnostic byte is identical. The service
//! checks the solution fingerprints against the store on every
//! restore, and the harness in `tests/serve.rs` drives the guarantee
//! across a 100-step edit chain.

pub mod daemon;
pub mod service;
pub mod store;

pub use daemon::{request, Client, DaemonHandle};
pub use service::{Service, ServiceOptions};
pub use store::{LoadOutcome, Store, StoredBench, StoredProject};
