//! Stage-level tracing and metrics for the watermarking pipeline.
//!
//! The paper's evaluation (Sections 5–6) is entirely about measured
//! costs — trace length, embedding overhead, recognition time under
//! attack — so the reproduction needs a way to observe where those
//! costs go. This crate is that observability layer, built on `std`
//! alone (the workspace is offline):
//!
//! * [`Stage`] / [`Counter`] — the fixed vocabulary of pipeline spans
//!   (trace, encrypt, codegen, scan, vote, crt, …) and event counters
//!   (cache hit/miss, pool panics, …);
//! * [`Sink`] — the pluggable backend trait, with three provided
//!   implementations: the no-op [`NullSink`], the aggregating
//!   [`MemorySink`] (count / total / min / max plus a fixed-bucket
//!   latency histogram per stage), and the streaming [`JsonlSink`];
//! * [`Telemetry`] — the cheap, clonable handle the pipeline carries.
//!   A disabled handle ([`Telemetry::null`]) never reads the clock and
//!   never dispatches, so uninstrumented callers pay nothing beyond a
//!   branch on an `Option`.
//!
//! Telemetry is strictly an *observer*: it must never perturb the
//! watermark. The integration suite asserts embed/recognize output is
//! bit-identical with any sink attached.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pathmark_telemetry::{Counter, MemorySink, Stage, Telemetry};
//!
//! let sink = Arc::new(MemorySink::new());
//! let telemetry = Telemetry::new(sink.clone());
//!
//! let answer = telemetry.time(Stage::ScanRoll, || 6 * 7);
//! telemetry.count(Counter::CacheMiss, 1);
//!
//! assert_eq!(answer, 42);
//! assert_eq!(sink.stage(Stage::ScanRoll).count, 1);
//! assert_eq!(sink.counter(Counter::CacheMiss), 1);
//! ```

mod sink;

pub use sink::{JsonlSink, MemorySink, NullSink, Sink, StageSummary, NUM_BUCKETS};

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A pipeline stage whose latency is measured as a span.
///
/// The vocabulary is fixed so sinks can preallocate per-stage slots and
/// so metrics files from different runs line up without a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Executing the program on the secret input (tracing).
    Trace,
    /// Splitting the watermark into CRT statements and cycling to the
    /// configured redundancy.
    Split,
    /// Enumerating and XTEA-encrypting one piece into a 64-bit block.
    Encrypt,
    /// Generating one piece's branch-code snippet (loop or condition).
    Codegen,
    /// Splicing the planned snippets in and re-verifying the program.
    Verify,
    /// The window-roll half of the candidate scan: sliding the 64-bit
    /// window over the trace bits, running the constant/periodic
    /// pre-rejects, and accumulating the survivor table. On the fused
    /// path this is the scan work interleaved into the trace sink.
    ScanRoll,
    /// The decryption half of the candidate scan: batched XTEA over the
    /// distinct surviving window values plus candidate decoding.
    ScanDecrypt,
    /// The `W mod p_i` vote prefilter.
    Vote,
    /// The G/H consistency graphs.
    Graph,
    /// Generalized CRT recombination of the survivors.
    Crt,
    /// Time a fleet job spent queued before a worker picked it up.
    QueueWait,
    /// Wall-clock time of one fleet job on its worker.
    JobRun,
    /// Exponential-backoff sleep between retry attempts of a fleet job.
    Backoff,
    /// Translating a program into the compiled execution tier's
    /// flattened threaded-code form (once per session program).
    Compile,
}

impl Stage {
    /// Every stage, in a fixed order (the [`MemorySink`] slot order).
    pub const ALL: [Stage; 14] = [
        Stage::Trace,
        Stage::Split,
        Stage::Encrypt,
        Stage::Codegen,
        Stage::Verify,
        Stage::ScanRoll,
        Stage::ScanDecrypt,
        Stage::Vote,
        Stage::Graph,
        Stage::Crt,
        Stage::QueueWait,
        Stage::JobRun,
        Stage::Backoff,
        Stage::Compile,
    ];

    /// The stage's wire name (used in JSONL records and summaries).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Trace => "trace",
            Stage::Split => "split",
            Stage::Encrypt => "encrypt",
            Stage::Codegen => "codegen",
            Stage::Verify => "verify",
            Stage::ScanRoll => "scan_roll",
            Stage::ScanDecrypt => "scan_decrypt",
            Stage::Vote => "vote",
            Stage::Graph => "graph",
            Stage::Crt => "crt",
            Stage::QueueWait => "queue_wait",
            Stage::JobRun => "job_run",
            Stage::Backoff => "backoff",
            Stage::Compile => "compile",
        }
    }

    /// The stage's slot in [`Stage::ALL`].
    pub fn index(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).expect("stage listed")
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Trace-cache lookups served from the cache.
    CacheHit,
    /// Trace-cache lookups that had to trace.
    CacheMiss,
    /// Fleet jobs that escaped with a panic.
    PoolPanic,
    /// Sliding windows examined by the candidate scan.
    WindowsScanned,
    /// Windows bypassed by the periodic-run pre-reject: offsets inside
    /// constant (period-1) or longer-period stretches that were
    /// bulk-accounted without being rolled through individually.
    WindowsSkipped,
    /// Windows that survived the pre-reject and reached the cipher.
    WindowsDecrypted,
    /// Windows that decoded into a candidate statement.
    CandidatesDecoded,
    /// Watermark pieces inserted by the embedder.
    PiecesEmbedded,
    /// Fleet job attempts re-run after a transient failure.
    Retry,
    /// Fleet jobs that exceeded their deadline and were abandoned.
    JobTimeout,
    /// Pool workers replaced after a timeout abandoned (or a panic
    /// killed) their thread.
    WorkerRespawn,
    /// Session decode-cache lookups served from the cache (the window
    /// value's decode was memoized; no cipher call).
    DecodeCacheHit,
    /// Session decode-cache lookups that missed and decrypted.
    DecodeCacheMiss,
    /// Session decode-cache entries evicted to stay under the cap.
    DecodeCacheEvict,
    /// Serve requests admitted past the admission gate.
    JobAccepted,
    /// Serve requests rejected by the admission gate (load shed).
    JobShed,
    /// Serve requests rejected by per-tenant fairness: the gate had
    /// room, but the tenant was already at its in-flight sub-budget.
    TenantShed,
    /// Serve jobs served from the journal or replayed on restart
    /// instead of being executed fresh.
    JobResumed,
    /// Serve session-registry lookups served from a warm session.
    SessionHit,
    /// Serve session-registry lookups that had to build a session.
    SessionMiss,
    /// Serve journal rotations: the intents file replaced by one with
    /// settled intents folded to markers.
    JournalRotation,
}

impl Counter {
    /// Every counter, in a fixed order (the [`MemorySink`] slot order).
    pub const ALL: [Counter; 21] = [
        Counter::CacheHit,
        Counter::CacheMiss,
        Counter::PoolPanic,
        Counter::WindowsScanned,
        Counter::WindowsSkipped,
        Counter::WindowsDecrypted,
        Counter::CandidatesDecoded,
        Counter::PiecesEmbedded,
        Counter::Retry,
        Counter::JobTimeout,
        Counter::WorkerRespawn,
        Counter::DecodeCacheHit,
        Counter::DecodeCacheMiss,
        Counter::DecodeCacheEvict,
        Counter::JobAccepted,
        Counter::JobShed,
        Counter::TenantShed,
        Counter::JobResumed,
        Counter::SessionHit,
        Counter::SessionMiss,
        Counter::JournalRotation,
    ];

    /// The counter's wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::CacheHit => "cache_hit",
            Counter::CacheMiss => "cache_miss",
            Counter::PoolPanic => "pool_panic",
            Counter::WindowsScanned => "windows_scanned",
            Counter::WindowsSkipped => "windows_skipped",
            Counter::WindowsDecrypted => "windows_decrypted",
            Counter::CandidatesDecoded => "candidates_decoded",
            Counter::PiecesEmbedded => "pieces_embedded",
            Counter::Retry => "retry",
            Counter::JobTimeout => "job_timeout",
            Counter::WorkerRespawn => "worker_respawn",
            Counter::DecodeCacheHit => "decode_cache_hit",
            Counter::DecodeCacheMiss => "decode_cache_miss",
            Counter::DecodeCacheEvict => "decode_cache_evict",
            Counter::JobAccepted => "accepted",
            Counter::JobShed => "shed",
            Counter::TenantShed => "tenant_shed",
            Counter::JobResumed => "resumed",
            Counter::SessionHit => "session_hit",
            Counter::SessionMiss => "session_miss",
            Counter::JournalRotation => "journal_rotation",
        }
    }

    /// The counter's slot in [`Counter::ALL`].
    pub fn index(self) -> usize {
        Counter::ALL.iter().position(|&c| c == self).expect("counter listed")
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The handle the pipeline carries: either disabled (the default) or
/// backed by a shared [`Sink`].
///
/// Cloning is cheap (an `Option<Arc>`), so every session and worker can
/// hold its own handle onto one sink. When disabled, no
/// clock is read and no sink method is called.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn Sink>>,
}

impl Telemetry {
    /// The disabled handle: records nothing, costs nothing.
    pub fn null() -> Telemetry {
        Telemetry { sink: None }
    }

    /// A handle backed by `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> Telemetry {
        Telemetry { sink: Some(sink) }
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Runs `f`, recording its wall-clock duration as a span of `stage`
    /// when enabled. Disabled handles call `f` directly without reading
    /// the clock.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        match &self.sink {
            None => f(),
            Some(sink) => {
                let started = Instant::now();
                let result = f();
                sink.record_span(stage, elapsed_nanos(started));
                result
            }
        }
    }

    /// Starts a span guard for `stage`; the span is recorded when the
    /// guard drops. Use [`Telemetry::time`] where a closure fits — the
    /// guard exists for spans crossing `?` early returns.
    pub fn start(&self, stage: Stage) -> Span<'_> {
        Span {
            telemetry: self,
            stage,
            started: self.sink.as_ref().map(|_| Instant::now()),
        }
    }

    /// Records an already-measured span (for durations measured across
    /// threads, e.g. queue wait).
    pub fn record(&self, stage: Stage, nanos: u64) {
        if let Some(sink) = &self.sink {
            sink.record_span(stage, nanos);
        }
    }

    /// Bumps `counter` by `delta`.
    pub fn count(&self, counter: Counter, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.record_count(counter, delta);
        }
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.enabled() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(null)"
        })
    }
}

/// A span in progress; records its duration on drop. Created by
/// [`Telemetry::start`].
pub struct Span<'a> {
    telemetry: &'a Telemetry,
    stage: Stage,
    started: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            self.telemetry.record(self.stage, elapsed_nanos(started));
        }
    }
}

fn elapsed_nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_counter_indices_match_their_tables() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i, "{stage}");
        }
        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter.index(), i, "{counter}");
        }
        // Wire names are unique.
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        names.extend(Counter::ALL.iter().map(|c| c.as_str()));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn null_handle_runs_the_closure_and_records_nothing() {
        let t = Telemetry::null();
        assert!(!t.enabled());
        assert_eq!(t.time(Stage::ScanRoll, || 7), 7);
        t.count(Counter::CacheHit, 3);
        t.record(Stage::Crt, 1000);
        drop(t.start(Stage::Vote));
        t.flush();
    }

    #[test]
    fn enabled_handle_dispatches_spans_and_counts() {
        let sink = Arc::new(MemorySink::new());
        let t = Telemetry::new(sink.clone());
        assert!(t.enabled());
        assert_eq!(t.time(Stage::ScanDecrypt, || "x"), "x");
        {
            let _guard = t.start(Stage::Vote);
        }
        t.record(Stage::Crt, 2_500);
        t.count(Counter::PoolPanic, 2);
        assert_eq!(sink.stage(Stage::ScanDecrypt).count, 1);
        assert_eq!(sink.stage(Stage::Vote).count, 1);
        assert_eq!(sink.stage(Stage::Crt).count, 1);
        assert_eq!(sink.stage(Stage::Crt).total_nanos, 2_500);
        assert_eq!(sink.counter(Counter::PoolPanic), 2);
    }

    #[test]
    fn clones_share_one_sink() {
        let sink = Arc::new(MemorySink::new());
        let t = Telemetry::new(sink.clone());
        let t2 = t.clone();
        t.count(Counter::CacheHit, 1);
        t2.count(Counter::CacheHit, 1);
        assert_eq!(sink.counter(Counter::CacheHit), 2);
    }
}
