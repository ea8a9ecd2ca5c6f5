//! Pathmark-as-a-service: a resident recognition daemon.
//!
//! Batch runs pay session derivation (prime search, statement
//! enumeration, cipher setup) and trace extraction on every invocation
//! and throw the warm state away at exit. This crate keeps that state
//! resident: a [`server::Server`] hosts long-lived embed/recognize
//! sessions behind a line-oriented JSONL protocol ([`protocol`]) over
//! stdin/stdout or a unix-domain socket, with
//!
//! * a warm session [`registry`] keyed per tenant watermark key, with
//!   per-key isolation and warm per-copy recognize sessions;
//! * concurrent connections — one thread per client under a connection
//!   cap, each with its own response writer and in-flight scope, so a
//!   slow or stalled client never blocks another client's requests or
//!   goodbye;
//! * [`admission`] control — a bounded in-flight budget that sheds
//!   excess load with a distinct status instead of queueing unboundedly,
//!   split fairly across active tenants so one flooding tenant cannot
//!   monopolize the daemon;
//! * a crash-safe write-ahead [`journal`] built on the fleet's one
//!   durable-write primitive, `LineLog`, so a daemon killed mid-stream
//!   resumes its in-flight jobs on restart and finalizes reports
//!   bit-identical to an uninterrupted run — with size-triggered
//!   rotation replacing the intents file by one with settled intents
//!   folded to markers, so a daemon serving for days keeps that file
//!   bounded;
//! * graceful shutdown that stops admissions, drains the queue,
//!   finalizes the journal, and severs lingering connections.
//!
//! Per-job execution reuses the batch engine's single-job kernels, so a
//! report produced by the daemon matches the batch report for the same
//! manifest modulo `wall_ms`.

pub mod admission;
pub mod journal;
pub mod protocol;
pub mod registry;
pub mod server;

pub use admission::{AdmissionGate, ConnectionInflight, Permit, ShedCause};
pub use journal::Journal;
pub use protocol::{Op, Request};
pub use registry::Registry;
pub use server::{shared_writer, ServeOptions, Server, SharedWriter};
