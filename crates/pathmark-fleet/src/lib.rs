//! `pathmark-fleet` — parallel batch fingerprinting & recognition.
//!
//! The paper's stated deployment model is *fingerprinting*: embed a
//! **distinct** watermark `W_i` into each distributed copy so that a
//! leaked copy identifies the leaker (Section 2). At distribution scale
//! that means embedding and recognizing thousands of copies per run, not
//! one CLI invocation at a time. This crate is that batch layer, built
//! entirely on `std` (no external dependencies):
//!
//! * [`pool`] — a hand-rolled worker pool (`std::thread` plus a
//!   `Mutex`/`Condvar` job queue) with graceful shutdown and per-job
//!   panic isolation: one poisoned job must not kill the batch.
//! * [`cache`] — a trace cache that runs
//!   [`pathmark_core::java::trace_program`] once per (program, secret
//!   input) and shares the immutable trace across all N embed jobs via
//!   [`std::sync::Arc`]. Tracing is the only embedding step that
//!   executes the program, so this turns N traced runs into one.
//! * [`manifest`] — the JSONL batch manifest/report format
//!   (`job_id`, `watermark_hex`, `seed`, `status`, `attempts`,
//!   `wall_ms`), written with the workspace's hand-rolled codec idioms
//!   ([`json`]), plus the crash-safe [`manifest::ReportWriter`] that
//!   streams outcome lines to a `.partial` sidecar and atomically
//!   renames the finalized report into place — the storage half of
//!   `--resume`.
//! * [`log`] — [`log::LineLog`], the one durable-write primitive under
//!   both the batch reports and the serve daemon's journal: whole-line
//!   appends, atomic whole-file replacement and torn-tail recovery.
//! * [`retry`] — bounded retries with exponential backoff and the
//!   transient/permanent failure taxonomy that decides what is worth
//!   re-running.
//! * [`faults`] — deterministic fault injection (panics, transient and
//!   permanent errors, delays, keyed by job index) so every recovery
//!   path is exercised by ordinary tests.
//! * [`batch`] — the engine tying the above together: batch embed and
//!   batch recognize over a manifest, with per-job retries, deadlines,
//!   and streaming outcome callbacks via [`batch::BatchOptions`].
//!
//! The batch engine consumes the session objects of
//! [`pathmark_core::java`] ([`pathmark_core::java::Embedder`] /
//! [`pathmark_core::java::Recognizer`]): one validated session per
//! batch, from which a per-copy session is derived per job. A session
//! built with a telemetry sink propagates it everywhere — build the
//! pool with [`pool::WorkerPool::with_telemetry`] and the cache with
//! [`cache::TraceCache::with_telemetry`] to also capture queue-wait /
//! run-time spans and trace-cache hit/miss counters in the same sink.
//!
//! # Example
//!
//! ```
//! use pathmark_core::java::{Embedder, JavaConfig, Recognizer};
//! use pathmark_core::key::WatermarkKey;
//! use pathmark_fleet::batch::{embed_batch, recognize_batch, RecognizeJob};
//! use pathmark_fleet::cache::TraceCache;
//! use pathmark_fleet::manifest::EmbedJobSpec;
//! use pathmark_fleet::pool::WorkerPool;
//! use stackvm::builder::{FunctionBuilder, ProgramBuilder};
//! use stackvm::insn::Cond;
//!
//! // A toy host program with a loop (so the trace has cold spots).
//! let mut pb = ProgramBuilder::new();
//! let mut f = FunctionBuilder::new("main", 0, 2);
//! let head = f.new_label();
//! let out = f.new_label();
//! f.push(0).store(0);
//! f.bind(head);
//! f.load(0).push(8).if_cmp(Cond::Ge, out);
//! f.load(0).load(1).add().store(1);
//! f.iinc(0, 1).goto(head);
//! f.bind(out);
//! f.load(1).print().ret_void();
//! let main = pb.add_function(f.finish()?);
//! let program = pb.finish(main)?;
//!
//! let key = WatermarkKey::new(0xF1EE7, vec![3, 1, 4]);
//! let config = JavaConfig::for_watermark_bits(64).with_pieces(12);
//! let embedder = Embedder::builder(key.clone(), config.clone()).build()?;
//! let pool = WorkerPool::new(4);
//! let cache = TraceCache::new();
//!
//! // Four copies, each with its own derived watermark.
//! let jobs: Vec<EmbedJobSpec> = (0..4)
//!     .map(|i| EmbedJobSpec::new(format!("copy-{i:03}")))
//!     .collect();
//! let embedded = embed_batch(&program, &embedder, &jobs, &pool, &cache)?;
//! assert!(embedded.iter().all(|o| o.marked.is_some()));
//!
//! // Recognize every copy and check it recovers its own W_i.
//! let recognizer = Recognizer::builder(key, config).build()?;
//! // A failed embed leaves no program behind, so the conversion is
//! // fallible; keep only the copies that actually embedded.
//! let rec_jobs: Vec<RecognizeJob> = embedded
//!     .iter()
//!     .filter_map(|o| RecognizeJob::try_from(o).ok())
//!     .collect();
//! let recognized = recognize_batch(&rec_jobs, &recognizer, &pool);
//! assert!(recognized.iter().all(|o| o.report.status.is_ok()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod batch;
pub mod cache;
pub mod faults;
pub mod json;
pub mod log;
pub mod manifest;
pub mod pool;
pub mod retry;
