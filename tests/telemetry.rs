//! End-to-end telemetry tests: instrumentation must never change what
//! the pipeline computes (bit-identical output under any sink), and the
//! fleet's metrics must be consistent regardless of worker count.

use std::io::Write;
use std::sync::{Arc, Mutex};

use pathmark::core::java::{Embedder, JavaConfig, Recognizer};
use pathmark::core::key::{Watermark, WatermarkKey};
use pathmark::fleet::batch::embed_batch;
use pathmark::fleet::cache::TraceCache;
use pathmark::fleet::manifest::EmbedJobSpec;
use pathmark::fleet::pool::WorkerPool;
use pathmark::telemetry::{Counter, JsonlSink, MemorySink, Stage, Telemetry};
use pathmark::vm::builder::{FunctionBuilder, ProgramBuilder};
use pathmark::vm::codec::encode_program;
use pathmark::vm::insn::Cond;
use pathmark::vm::Program;

/// A small host with a loop, so the trace has cold and hot spots.
fn host_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 0, 2);
    let head = f.new_label();
    let out = f.new_label();
    f.push(0).store(0);
    f.bind(head);
    f.load(0).push(12).if_cmp(Cond::Ge, out);
    f.load(0).load(1).add().store(1);
    f.iinc(0, 1).goto(head);
    f.bind(out);
    f.load(1).print().ret_void();
    let main = pb.add_function(f.finish().unwrap());
    pb.finish(main).unwrap()
}

fn key() -> WatermarkKey {
    WatermarkKey::new(0xDEC0DE, vec![5, 2])
}

fn config() -> JavaConfig {
    JavaConfig::for_watermark_bits(64).with_pieces(12)
}

/// A clonable in-memory writer the test can read back, standing in for
/// the CLI's metrics file.
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
fn pipeline_output_is_bit_identical_under_null_and_jsonl_sinks() {
    let program = host_program();

    // Null sink (the default handle): the baseline.
    let plain_embedder = Embedder::builder(key(), config()).build().unwrap();
    assert!(!plain_embedder.telemetry().enabled());
    let watermark = Watermark::random_for(plain_embedder.config(), plain_embedder.key());
    let marked_plain = plain_embedder.embed(&program, &watermark).unwrap();

    // JSONL sink recording every span of the same run.
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new(Arc::new(JsonlSink::new(Box::new(buf.clone()))));
    let traced_embedder = Embedder::builder(key(), config())
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let marked_traced = traced_embedder.embed(&program, &watermark).unwrap();

    assert_eq!(
        encode_program(&marked_plain.program),
        encode_program(&marked_traced.program),
        "instrumentation changed the marked program"
    );

    // Recognition under both sinks agrees too, and recovers W.
    let rec_plain = Recognizer::builder(key(), config())
        .build()
        .unwrap()
        .recognize(&marked_plain.program)
        .unwrap();
    let traced_recognizer = Recognizer::builder(key(), config())
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let rec_traced = traced_recognizer.recognize(&marked_traced.program).unwrap();
    assert_eq!(rec_plain, rec_traced);
    assert_eq!(rec_plain.watermark.as_ref(), Some(watermark.value()));

    telemetry.flush();
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    for stage in [
        "trace",
        "encrypt",
        "codegen",
        "scan_roll",
        "scan_decrypt",
        "vote",
    ] {
        assert!(
            text.contains(&format!("\"stage\":\"{stage}\"")),
            "missing {stage} span in JSONL:\n{text}"
        );
    }
    assert!(
        text.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
        "every line is one JSON object"
    );
}

#[test]
fn fleet_metrics_are_consistent_across_worker_counts() {
    let program = host_program();
    let jobs: Vec<EmbedJobSpec> = (0..8)
        .map(|i| EmbedJobSpec::new(format!("copy-{i:03}")))
        .collect();

    // (cache_miss, cache_hit, pool_panic, queue_wait, job_run, trace,
    // encrypt, codegen, pieces_embedded) must not depend on parallelism.
    let mut baseline: Option<[u64; 9]> = None;
    for workers in [1usize, 2, 8] {
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        let session = Embedder::builder(key(), config())
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let pool = WorkerPool::with_telemetry(workers, telemetry.clone());
        let cache = TraceCache::with_telemetry(telemetry.clone());
        let outcomes = embed_batch(&program, &session, &jobs, &pool, &cache).unwrap();
        assert!(outcomes.iter().all(|o| o.report.status.is_ok()));
        // Join the workers so every span has reached the sink.
        drop(pool);

        let snapshot = [
            sink.counter(Counter::CacheMiss),
            sink.counter(Counter::CacheHit),
            sink.counter(Counter::PoolPanic),
            sink.stage(Stage::QueueWait).count,
            sink.stage(Stage::JobRun).count,
            sink.stage(Stage::Trace).count,
            sink.stage(Stage::Encrypt).count,
            sink.stage(Stage::Codegen).count,
            sink.counter(Counter::PiecesEmbedded),
        ];
        assert_eq!(snapshot[0], 1, "{workers} workers: one cold trace per batch");
        assert_eq!(snapshot[1], 0, "{workers} workers: fresh cache never hits");
        assert_eq!(snapshot[2], 0, "{workers} workers: no panics");
        assert_eq!(snapshot[3], jobs.len() as u64, "{workers} workers: queue waits");
        assert_eq!(snapshot[4], jobs.len() as u64, "{workers} workers: job runs");
        assert_eq!(snapshot[5], 1, "{workers} workers: one trace span");
        match &baseline {
            None => baseline = Some(snapshot),
            Some(expected) => assert_eq!(
                &snapshot, expected,
                "{workers} workers changed the metrics"
            ),
        }
    }
}

#[test]
fn reused_cache_reports_hits() {
    let program = host_program();
    let jobs: Vec<EmbedJobSpec> = (0..3)
        .map(|i| EmbedJobSpec::new(format!("copy-{i:03}")))
        .collect();
    let sink = Arc::new(MemorySink::new());
    let telemetry = Telemetry::new(sink.clone());
    let session = Embedder::builder(key(), config())
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let pool = WorkerPool::with_telemetry(2, telemetry.clone());
    let cache = TraceCache::with_telemetry(telemetry.clone());
    for _ in 0..2 {
        embed_batch(&program, &session, &jobs, &pool, &cache).unwrap();
    }
    assert_eq!(sink.counter(Counter::CacheMiss), 1);
    assert_eq!(sink.counter(Counter::CacheHit), 1, "second batch reuses the trace");
}
