//! # service — localization as a service
//!
//! BugAssist-style error localization is *repeated* work: a CI fleet or an
//! IDE plugin localizes the same program over and over with different
//! failing tests, and almost the entire cost of each request — parse,
//! typecheck, unroll/inline, bit-blast, selector-template construction — is
//! input-independent. This crate turns the workspace's [`bugassist`] engine
//! into a long-lived daemon that pays that cost **once per distinct
//! program** and serves every later request straight from a prepared
//! in-memory formula.
//!
//! The pieces (each in its own module, std-only — no external crates):
//!
//! * [`json`] — a hand-rolled JSON value/parser/serializer for the wire
//!   format (the workspace builds without registry access, so no `serde`);
//! * [`protocol`] — the newline-delimited request/response protocol:
//!   `localize`, `revise`, `batch`, `health`, `stats`, `shutdown`, plus the
//!   stable job [cache key](protocol::Job::cache_key) built on
//!   [`minic::ast_hash()`](minic::ast_hash());
//! * [`queue`] — a bounded `Mutex` + `Condvar` MPMC job queue with
//!   per-client deficit-round-robin lanes; a lane at its fair share blocks
//!   (or sheds) only that client, so overload turns into per-tenant TCP
//!   backpressure instead of unbounded buffering;
//! * [`cache`] — the sharded LRU [`cache::PreparedCache`] of
//!   [`cache::PreparedEntry`]s (prepared [`bugassist::Localizer`]s plus the
//!   program's diffable AST segments and remembered reports) behind `Arc`,
//!   shared lock-free by concurrent requests for the same program;
//! * [`persist`] — the codec between [`cache::PreparedEntry`] and the
//!   opaque CRC-checked records of the `store` crate, giving the cache a
//!   disk-backed second tier that survives daemon restarts (write-through
//!   is asynchronous, restore-on-boot is best-effort, corruption degrades
//!   to a miss);
//! * [`server`] — `TcpListener` + fixed worker-thread pool + graceful
//!   drain-then-exit shutdown (with store snapshot);
//! * [`client`] — the blocking client library used by the tests and the
//!   `loadgen` benchmark;
//! * [`fleet`] — rendezvous-hash routing of jobs across N replicas with
//!   health probing and transparent failover, so the service survives a
//!   replica dying mid-stream with byte-identical answers.
//!
//! The `revise` op is what turns the daemon into an **interactive-loop
//! backend**: a client that edits its program re-submits with the previous
//! response's `key`, the server classifies the edit against the cached AST
//! segments ([`minic::delta`]), and — for edits that provably cannot change
//! the trace formula (blank lines, comments, dead-code tweaks) — reuses the
//! bit-blasted preparation *and* serves the pre-edit report with its blame
//! lines remapped, skipping the MAX-SAT solve entirely. Semantic edits fall
//! back to a full rebuild, so every `revise` answer is byte-identical to
//! what a cold `localize` of the same source would return.
//!
//! # Example
//!
//! ```
//! use service::{Client, Job, JobSpec, Server, ServiceConfig};
//!
//! let server = Server::start(ServiceConfig {
//!     workers: 2,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! // The constant on line 2 is wrong: main(5) returns 7, not the golden 4.
//! let job = Job::new(
//!     "int main(int x) {\nint y = x + 2;\nreturn y;\n}",
//!     "main",
//!     JobSpec::ReturnEquals(4),
//!     vec![vec![5]],
//! );
//! let cold = client.localize(job.clone()).unwrap();
//! assert!(!cold.cache_hit);
//! let warm = client.localize(job).unwrap();
//! assert!(warm.cache_hit, "second request reuses the prepared formula");
//! // Identical answers modulo timing fields.
//! use service::protocol::canonicalize;
//! assert_eq!(canonicalize(&cold.body), canonicalize(&warm.body));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod client;
mod counters;
pub mod faults;
pub mod fleet;
pub mod json;
pub mod persist;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{CacheStats, PreparedCache, PreparedEntry};
pub use client::{Client, ClientConfig, ClientError, Outcome, ReviseOutcome};
pub use faults::{FaultConfig, FaultPlan};
pub use fleet::{FleetClient, FleetConfig, FleetStats};
pub use json::{Json, JsonError};
pub use protocol::{Envelope, Job, JobOptions, JobSpec, ProtocolError, Request};
pub use queue::{JobQueue, PushError, TryPushError};
pub use server::{Server, ServiceConfig};
