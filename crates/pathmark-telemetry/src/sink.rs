//! Telemetry backends: where spans and counters go.
//!
//! Three sinks cover the pipeline's needs:
//!
//! * [`NullSink`] — discards everything (the [`crate::Telemetry::null`]
//!   handle short-circuits before even reaching a sink, so this type
//!   mostly exists as the trait's do-nothing reference point);
//! * [`MemorySink`] — lock-guarded in-memory aggregation: per-stage
//!   count / total / min / max and a fixed-bucket latency histogram,
//!   plus the counters. Renders a stable JSON summary;
//! * [`JsonlSink`] — streams one JSON line per event to any
//!   `Write + Send` target (a metrics file, a pipe, a buffer).

use std::io::Write;
use std::sync::Mutex;

use crate::{Counter, Stage};

/// Histogram buckets per stage. Bucket `i` holds spans with
/// `nanos < 1µs · 4^(i+1)`; the last bucket is unbounded. Sixteen
/// power-of-4 buckets span 1µs to ~4.6s, which covers everything from
/// one XTEA block to a full attacked-workload trace.
pub const NUM_BUCKETS: usize = 16;

/// A telemetry backend. Implementations must be thread-safe: the fleet
/// records from every worker concurrently.
pub trait Sink: Send + Sync {
    /// Records one completed span of `stage`.
    fn record_span(&self, stage: Stage, nanos: u64);

    /// Bumps `counter` by `delta`.
    fn record_count(&self, counter: Counter, delta: u64);

    /// Flushes buffered output, if the sink buffers.
    fn flush(&self) {}
}

/// Discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record_span(&self, _stage: Stage, _nanos: u64) {}
    fn record_count(&self, _counter: Counter, _delta: u64) {}
}

/// Aggregated statistics of one stage in a [`MemorySink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSummary {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations in nanoseconds.
    pub total_nanos: u64,
    /// Shortest span, or 0 when none were recorded.
    pub min_nanos: u64,
    /// Longest span.
    pub max_nanos: u64,
    /// Fixed power-of-4 latency buckets (see [`NUM_BUCKETS`]).
    pub buckets: [u64; NUM_BUCKETS],
}

impl StageSummary {
    const fn empty() -> StageSummary {
        StageSummary {
            count: 0,
            total_nanos: 0,
            min_nanos: 0,
            max_nanos: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }

    fn record(&mut self, nanos: u64) {
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.min_nanos = if self.count == 1 {
            nanos
        } else {
            self.min_nanos.min(nanos)
        };
        self.max_nanos = self.max_nanos.max(nanos);
        self.buckets[bucket_index(nanos)] += 1;
    }

    /// Mean span duration in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// The histogram bucket for a span of `nanos`.
pub(crate) fn bucket_index(nanos: u64) -> usize {
    let mut bound = 1_000u64; // 1µs
    for i in 0..NUM_BUCKETS - 1 {
        if nanos < bound {
            return i;
        }
        bound = bound.saturating_mul(4);
    }
    NUM_BUCKETS - 1
}

/// In-memory aggregating sink: per-stage summaries plus counters.
///
/// All state sits behind one `Mutex` over two fixed arrays, so
/// recording is a short critical section and reading is a snapshot.
#[derive(Debug, Default)]
pub struct MemorySink {
    state: Mutex<MemoryState>,
}

#[derive(Debug)]
struct MemoryState {
    stages: [StageSummary; Stage::ALL.len()],
    counters: [u64; Counter::ALL.len()],
}

impl Default for MemoryState {
    fn default() -> MemoryState {
        MemoryState {
            stages: [StageSummary::empty(); Stage::ALL.len()],
            counters: [0; Counter::ALL.len()],
        }
    }
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot of one stage's aggregate.
    pub fn stage(&self, stage: Stage) -> StageSummary {
        self.state.lock().expect("telemetry lock").stages[stage.index()]
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.state.lock().expect("telemetry lock").counters[counter.index()]
    }

    /// Renders the whole sink as one stable JSON object (stages with at
    /// least one span, counters with a nonzero value; fixed field
    /// order). This is the CLI's `--metrics-format summary` payload.
    pub fn render_json(&self) -> String {
        let state = self.state.lock().expect("telemetry lock");
        let mut out = String::from("{\"stages\":{");
        let mut first = true;
        for stage in Stage::ALL {
            let s = &state.stages[stage.index()];
            if s.count == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"buckets\":[{}]}}",
                stage.as_str(),
                s.count,
                s.total_nanos,
                s.min_nanos,
                s.max_nanos,
                s.mean_nanos(),
                s.buckets
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ));
        }
        out.push_str("},\"counters\":{");
        let mut first = true;
        for counter in Counter::ALL {
            let v = state.counters[counter.index()];
            if v == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{v}", counter.as_str()));
        }
        out.push_str("}}");
        out
    }
}

impl Sink for MemorySink {
    fn record_span(&self, stage: Stage, nanos: u64) {
        self.state.lock().expect("telemetry lock").stages[stage.index()].record(nanos);
    }

    fn record_count(&self, counter: Counter, delta: u64) {
        self.state.lock().expect("telemetry lock").counters[counter.index()] += delta;
    }
}

/// Streams one JSON line per event to a `Write + Send` target.
///
/// Span lines look like `{"t":"span","stage":"scan","ns":1234}`;
/// counter lines like `{"t":"count","counter":"cache_hit","delta":1}`.
/// Lines from concurrent workers interleave whole (the writer sits
/// behind a `Mutex`), so the output is always valid JSONL.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wraps any writer.
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Creates (truncating) a metrics file at `path`.
    ///
    /// # Errors
    ///
    /// Whatever [`std::fs::File::create`] reports.
    pub fn create(path: &str) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        ))))
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().expect("telemetry lock");
        // Telemetry must never fail the pipeline: a full disk degrades
        // to lost metrics, not a lost watermark.
        let _ = writeln!(out, "{line}");
    }
}

impl Sink for JsonlSink {
    fn record_span(&self, stage: Stage, nanos: u64) {
        self.write_line(&format!(
            "{{\"t\":\"span\",\"stage\":\"{}\",\"ns\":{nanos}}}",
            stage.as_str()
        ));
    }

    fn record_count(&self, counter: Counter, delta: u64) {
        self.write_line(&format!(
            "{{\"t\":\"count\",\"counter\":\"{}\",\"delta\":{delta}}}",
            counter.as_str()
        ));
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("telemetry lock").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(999), 0);
        assert_eq!(bucket_index(1_000), 1); // 1µs
        assert_eq!(bucket_index(3_999), 1);
        assert_eq!(bucket_index(4_000), 2);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        // Buckets cover every u64 without panicking.
        for shift in 0..64 {
            let _ = bucket_index(1u64 << shift);
        }
    }

    #[test]
    fn memory_sink_aggregates() {
        let sink = MemorySink::new();
        for nanos in [100u64, 2_000, 50_000] {
            sink.record_span(Stage::ScanRoll, nanos);
        }
        let s = sink.stage(Stage::ScanRoll);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_nanos, 52_100);
        assert_eq!(s.min_nanos, 100);
        assert_eq!(s.max_nanos, 50_000);
        assert_eq!(s.mean_nanos(), 52_100 / 3);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
        assert_eq!(sink.stage(Stage::Vote).count, 0);

        sink.record_count(Counter::CacheHit, 2);
        sink.record_count(Counter::CacheHit, 3);
        assert_eq!(sink.counter(Counter::CacheHit), 5);
        assert_eq!(sink.counter(Counter::CacheMiss), 0);
    }

    #[test]
    fn memory_sink_json_is_selective_and_ordered() {
        let sink = MemorySink::new();
        assert_eq!(sink.render_json(), "{\"stages\":{},\"counters\":{}}");
        sink.record_span(Stage::Trace, 5_000);
        sink.record_count(Counter::CacheMiss, 1);
        let json = sink.render_json();
        assert!(json.contains("\"trace\":{\"count\":1,\"total_ns\":5000"), "{json}");
        assert!(json.contains("\"cache_miss\":1"), "{json}");
        assert!(!json.contains("\"vote\""), "empty stages omitted: {json}");
    }

    /// A clonable writer tests can read back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_event() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        sink.record_span(Stage::Crt, 42);
        sink.record_count(Counter::PoolPanic, 1);
        sink.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "{\"t\":\"span\",\"stage\":\"crt\",\"ns\":42}",
                "{\"t\":\"count\",\"counter\":\"pool_panic\",\"delta\":1}",
            ]
        );
    }

    #[test]
    fn null_sink_is_inert() {
        let sink = NullSink;
        sink.record_span(Stage::Trace, 1);
        sink.record_count(Counter::CacheHit, 1);
        sink.flush();
    }
}
