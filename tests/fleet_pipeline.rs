//! End-to-end tests for the batch fingerprinting engine: determinism
//! across runs and worker counts, recognition of every pipeline
//! fixture, and failure isolation.

use std::sync::Arc;
use std::time::Duration;

use pathmark::core::bitstring::BitString;
use pathmark::core::java::{
    trace_program, Embedder, JavaConfig, Recognition, Recognizer,
};
use pathmark::core::key::{Watermark, WatermarkKey};
use pathmark::fleet::batch::{
    embed_batch, embed_batch_with, recognize_batch, BatchOptions, RecognizeJob,
};
use pathmark::fleet::cache::TraceCache;
use pathmark::fleet::faults::{Fault, FaultPlan};
use pathmark::fleet::manifest::{parse_report, EmbedJobSpec, JobReport, JobStatus, ReportWriter};
use pathmark::fleet::pool::WorkerPool;
use pathmark::fleet::retry::RetryPolicy;
use pathmark::telemetry::{Counter, MemorySink, Telemetry};
use pathmark::vm::builder::{FunctionBuilder, ProgramBuilder};
use pathmark::vm::codec::encode_program;
use pathmark::vm::insn::Cond;
use pathmark::vm::trace::TraceConfig;
use pathmark::vm::Program;
use pathmark::workloads::java as workloads;

/// A small host with a loop, so batches stay fast in debug builds while
/// the trace still has cold and hot spots.
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

fn batch_key() -> WatermarkKey {
    WatermarkKey::new(0x000F_1EE7_CAFE, vec![3, 1, 4])
}

fn batch_config() -> JavaConfig {
    JavaConfig::for_watermark_bits(64).with_pieces(12)
}

fn manifest(n: usize) -> Vec<EmbedJobSpec> {
    (0..n)
        .map(|i| EmbedJobSpec::new(format!("copy-{i:03}")))
        .collect()
}

fn batch_embedder() -> Embedder {
    Embedder::builder(batch_key(), batch_config())
        .build()
        .expect("batch key/config are sound")
}

fn batch_recognizer() -> Recognizer {
    Recognizer::builder(batch_key(), batch_config())
        .build()
        .expect("batch key/config are sound")
}

#[test]
fn sixty_four_copies_each_recognize_to_their_own_watermark() {
    let pool = WorkerPool::new(4);
    let cache = TraceCache::new();
    let jobs = manifest(64);
    let outcomes = embed_batch(&host_program(), &batch_embedder(), &jobs, &pool, &cache).unwrap();
    assert_eq!(outcomes.len(), 64);
    assert!(outcomes.iter().all(|o| o.report.status.is_ok()));
    assert_eq!(cache.stats().misses, 1, "one trace serves all 64 jobs");

    // 64 distinct watermarks and 64 distinct marked programs.
    let mut hexes: Vec<&str> = outcomes
        .iter()
        .map(|o| o.report.watermark_hex.as_str())
        .collect();
    hexes.sort_unstable();
    hexes.dedup();
    assert_eq!(hexes.len(), 64, "watermarks are pairwise distinct");
    let mut bytes: Vec<Vec<u8>> = outcomes
        .iter()
        .map(|o| encode_program(o.marked.as_ref().unwrap()))
        .collect();
    bytes.sort_unstable();
    bytes.dedup();
    assert_eq!(bytes.len(), 64, "copies are pairwise distinct");

    // Every copy recognizes back to exactly its own W_i; the report
    // line converts straight into a recognize job.
    let rec_jobs: Vec<RecognizeJob> = outcomes
        .iter()
        .map(|o| RecognizeJob::try_from(o).expect("every embed succeeded"))
        .collect();
    let recognized = recognize_batch(&rec_jobs, &batch_recognizer(), &pool);
    for (outcome, job) in recognized.iter().zip(&rec_jobs) {
        assert!(
            outcome.report.status.is_ok(),
            "{}: {:?}",
            job.job_id,
            outcome.report
        );
        assert_eq!(
            Some(&outcome.report.watermark_hex),
            job.expected_hex.as_ref(),
            "{} recovers its own mark",
            job.job_id
        );
    }
}

#[test]
fn batches_are_byte_identical_across_runs_and_worker_counts() {
    let jobs = manifest(16);
    let mut baseline: Option<Vec<Vec<u8>>> = None;
    for workers in [1usize, 3, 8, 8] {
        let pool = WorkerPool::new(workers);
        let cache = TraceCache::new();
        let outcomes =
            embed_batch(&host_program(), &batch_embedder(), &jobs, &pool, &cache).unwrap();
        let bytes: Vec<Vec<u8>> = outcomes
            .iter()
            .map(|o| encode_program(o.marked.as_ref().unwrap()))
            .collect();
        match &baseline {
            None => baseline = Some(bytes),
            Some(expected) => {
                assert_eq!(&bytes, expected, "{workers} workers diverged");
            }
        }
    }
}

#[test]
fn batch_copies_match_the_serial_embedder_exactly() {
    // A fleet copy must be byte-identical to what a lone serial embed
    // with the same key and watermark would have produced.
    let pool = WorkerPool::new(4);
    let cache = TraceCache::new();
    let jobs = manifest(4);
    let outcomes = embed_batch(&host_program(), &batch_embedder(), &jobs, &pool, &cache).unwrap();
    for (outcome, spec) in outcomes.iter().zip(&jobs) {
        let job_key = spec.effective_key(&batch_key());
        let watermark = spec.watermark(&batch_key(), &batch_config()).unwrap();
        let serial = batch_embedder()
            .with_key(job_key)
            .embed(&host_program(), &watermark)
            .unwrap();
        assert_eq!(
            encode_program(outcome.marked.as_ref().unwrap()),
            encode_program(&serial.program),
            "{}",
            spec.job_id
        );
    }
}

#[test]
fn every_pipeline_fixture_recognizes_serially() {
    for workload in workloads::all() {
        let key = WatermarkKey::new(0x0123_4567_89AB, workload.secret_input.clone());
        let config = JavaConfig::for_watermark_bits(128).with_pieces(40);
        let watermark = Watermark::random_for(&config, &key);
        let marked = Embedder::builder(key.clone(), config.clone())
            .build()
            .unwrap()
            .embed(&workload.program, &watermark)
            .unwrap();
        let session = Recognizer::builder(key.clone(), config.clone()).build().unwrap();
        for program in [&workload.program, &marked.program] {
            // The one-pass recognition and the scan of the stored trace
            // bits agree.
            let trace =
                trace_program(program, &key, &config, TraceConfig::branches_only()).unwrap();
            let stored: Recognition = session
                .recognize_bits(&BitString::from_trace(&trace))
                .unwrap();
            let fused = session.recognize(program).unwrap();
            assert_eq!(fused, stored, "{}", workload.name);
        }
        // The marked fixture actually recognizes.
        let rec = session.recognize(&marked.program).unwrap();
        assert_eq!(rec.watermark.as_ref(), Some(watermark.value()), "{}", workload.name);
    }
}

#[test]
fn one_malformed_job_fails_while_the_rest_complete() {
    let pool = WorkerPool::new(3);
    let cache = TraceCache::new();
    let mut jobs = manifest(8);
    jobs[3].watermark_hex = Some("this-is-not-hex".to_string());
    let outcomes = embed_batch(&host_program(), &batch_embedder(), &jobs, &pool, &cache).unwrap();
    let (ok, failed): (Vec<_>, Vec<_>) =
        outcomes.iter().partition(|o| o.report.status.is_ok());
    assert_eq!(ok.len(), 7, "the other seven copies complete");
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].report.job_id, "copy-003");
    assert!(failed[0].marked.is_none());
}

#[test]
fn a_panicking_job_is_contained_by_the_pool() {
    // Drive the pool the way the batch engine does, with one job that
    // panics outright: the panic must surface as that job's error only.
    let pool = WorkerPool::new(4);
    let results = pool.run_all((0..12).collect::<Vec<usize>>(), |_, i| {
        assert!(i != 5, "copy 5 is poisoned");
        i * i
    });
    for (i, result) in results.iter().enumerate() {
        if i == 5 {
            assert!(result.as_ref().unwrap_err().message.contains("poisoned"));
        } else {
            assert_eq!(*result.as_ref().unwrap(), i * i);
        }
    }
}

/// A retry policy with microsecond backoffs, so fault tests stay fast.
fn fast_retries(retries: u32) -> RetryPolicy {
    RetryPolicy::with_retries(retries)
        .backoff(Duration::from_micros(10), Duration::from_micros(100))
}

fn marked_bytes(outcomes: &[pathmark::fleet::batch::EmbedOutcome]) -> Vec<Option<Vec<u8>>> {
    outcomes
        .iter()
        .map(|o| o.marked.as_ref().map(encode_program))
        .collect()
}

#[test]
fn fault_transient_panic_is_recovered_by_retry() {
    let sink = Arc::new(MemorySink::new());
    let pool = WorkerPool::with_telemetry(3, Telemetry::new(sink.clone()));
    let cache = TraceCache::new();
    let jobs = manifest(6);
    let options = BatchOptions {
        retry: fast_retries(2),
        deadline: None,
        faults: FaultPlan::for_tests().with_fault(1, Fault::Panic { attempts: 1 }),
    };
    let outcomes = embed_batch_with(
        &host_program(),
        &batch_embedder(),
        &jobs,
        &pool,
        &cache,
        &options,
        |_| {},
    )
    .unwrap();
    assert!(
        outcomes.iter().all(|o| o.report.status.is_ok()),
        "the injected panic heals on retry: {:?}",
        outcomes.iter().map(|o| &o.report).collect::<Vec<_>>()
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        let expected = if i == 1 { 2 } else { 1 };
        assert_eq!(outcome.report.attempts, expected, "job {i}");
    }
    assert_eq!(sink.counter(Counter::Retry), 1);

    // A recovered batch is bit-identical to one that never faulted.
    let clean_pool = WorkerPool::new(3);
    let clean_cache = TraceCache::new();
    let clean =
        embed_batch(&host_program(), &batch_embedder(), &jobs, &clean_pool, &clean_cache).unwrap();
    assert_eq!(marked_bytes(&outcomes), marked_bytes(&clean));
}

#[test]
fn fault_permanent_failure_is_reported_without_retrying() {
    let sink = Arc::new(MemorySink::new());
    let pool = WorkerPool::with_telemetry(2, Telemetry::new(sink.clone()));
    let cache = TraceCache::new();
    let jobs = manifest(4);
    let options = BatchOptions {
        retry: fast_retries(5),
        deadline: None,
        faults: FaultPlan::for_tests().with_fault(0, Fault::PermanentError),
    };
    let outcomes = embed_batch_with(
        &host_program(),
        &batch_embedder(),
        &jobs,
        &pool,
        &cache,
        &options,
        |_| {},
    )
    .unwrap();
    match &outcomes[0].report.status {
        JobStatus::Failed(why) => assert!(why.contains("injected permanent fault"), "{why}"),
        other => panic!("expected Failed, got {other}"),
    }
    assert_eq!(
        outcomes[0].report.attempts, 1,
        "a permanent failure burns no retry budget"
    );
    assert!(outcomes[0].marked.is_none());
    assert!(outcomes[1..].iter().all(|o| o.report.status.is_ok()));
    assert_eq!(sink.counter(Counter::Retry), 0);
}

#[test]
fn fault_persistent_panic_exhausts_the_retry_budget() {
    let sink = Arc::new(MemorySink::new());
    let pool = WorkerPool::with_telemetry(2, Telemetry::new(sink.clone()));
    let cache = TraceCache::new();
    let jobs = manifest(3);
    let options = BatchOptions {
        retry: fast_retries(2),
        deadline: None,
        faults: FaultPlan::for_tests().with_fault(2, Fault::Panic { attempts: 10 }),
    };
    let outcomes = embed_batch_with(
        &host_program(),
        &batch_embedder(),
        &jobs,
        &pool,
        &cache,
        &options,
        |_| {},
    )
    .unwrap();
    match &outcomes[2].report.status {
        JobStatus::Failed(why) => assert!(why.contains("injected panic"), "{why}"),
        other => panic!("expected Failed, got {other}"),
    }
    assert_eq!(outcomes[2].report.attempts, 3, "1 attempt + 2 retries");
    assert_eq!(sink.counter(Counter::Retry), 2);
    assert!(outcomes[..2].iter().all(|o| o.report.status.is_ok()));
}

#[test]
fn fault_timeout_reports_timed_out_without_stalling_siblings() {
    let sink = Arc::new(MemorySink::new());
    let pool = WorkerPool::with_telemetry(2, Telemetry::new(sink.clone()));
    let cache = TraceCache::new();
    let jobs = manifest(6);
    let options = BatchOptions {
        retry: RetryPolicy::none(),
        deadline: Some(Duration::from_millis(200)),
        faults: FaultPlan::for_tests().with_fault(1, Fault::Delay(Duration::from_secs(8))),
    };
    let outcomes = embed_batch_with(
        &host_program(),
        &batch_embedder(),
        &jobs,
        &pool,
        &cache,
        &options,
        |_| {},
    )
    .unwrap();
    assert_eq!(outcomes[1].report.status, JobStatus::TimedOut);
    assert_eq!(outcomes[1].report.attempts, 0, "never completed an attempt");
    assert_eq!(outcomes[1].report.wall_ms, 0, "deterministic synthetic line");
    assert!(outcomes[1].marked.is_none());
    for (i, outcome) in outcomes.iter().enumerate() {
        if i != 1 {
            assert!(outcome.report.status.is_ok(), "sibling {i}: {:?}", outcome.report);
        }
    }
    assert_eq!(sink.counter(Counter::JobTimeout), 1);
    assert!(sink.counter(Counter::WorkerRespawn) >= 1);

    // The replacement worker leaves the pool at full strength.
    let again = embed_batch(&host_program(), &batch_embedder(), &manifest(4), &pool, &cache)
        .unwrap();
    assert!(again.iter().all(|o| o.report.status.is_ok()));
}

#[test]
fn fault_injection_disabled_is_bit_identical_to_the_plain_batch() {
    let pool = WorkerPool::new(3);
    let cache = TraceCache::new();
    let jobs = manifest(8);
    let plain = embed_batch(&host_program(), &batch_embedder(), &jobs, &pool, &cache).unwrap();
    let with_options = embed_batch_with(
        &host_program(),
        &batch_embedder(),
        &jobs,
        &pool,
        &cache,
        &BatchOptions {
            retry: fast_retries(3),
            deadline: Some(Duration::from_secs(60)),
            faults: FaultPlan::none(),
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(marked_bytes(&plain), marked_bytes(&with_options));
    for (a, b) in plain.iter().zip(&with_options) {
        assert_eq!(a.report.job_id, b.report.job_id);
        assert_eq!(a.report.watermark_hex, b.report.watermark_hex);
        assert_eq!(a.report.seed, b.report.seed);
        assert_eq!(a.report.status, b.report.status);
        assert_eq!(a.report.attempts, b.report.attempts);
    }
}

/// Renders reports with `wall_ms` zeroed: the one nondeterministic
/// field, irrelevant to resume correctness.
fn normalized_lines(reports: &[JobReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.wall_ms = 0;
            r.to_line()
        })
        .collect()
}

#[test]
fn fault_kill_and_resume_reproduces_the_uninterrupted_run() {
    let dir = std::env::temp_dir().join(format!("pathmark-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = manifest(8);

    // The reference: one uninterrupted run, streamed and finalized.
    let full_path = dir.join("full.jsonl");
    {
        let pool = WorkerPool::new(3);
        let cache = TraceCache::new();
        let mut writer = ReportWriter::create(&full_path).unwrap();
        let outcomes = embed_batch_with(
            &host_program(),
            &batch_embedder(),
            &jobs,
            &pool,
            &cache,
            &BatchOptions::default(),
            |o| writer.append(&o.report).unwrap(),
        )
        .unwrap();
        let ordered: Vec<JobReport> = outcomes.iter().map(|o| o.report.clone()).collect();
        writer.finalize(&ordered).unwrap();
    }

    // The interrupted run: the first three jobs settle, then the
    // process "dies" (writer dropped, never finalized) mid-writing a
    // fourth, torn line.
    let resumed_path = dir.join("resumed.jsonl");
    {
        let pool = WorkerPool::new(3);
        let cache = TraceCache::new();
        let mut writer = ReportWriter::create(&resumed_path).unwrap();
        let outcomes = embed_batch_with(
            &host_program(),
            &batch_embedder(),
            &jobs[..3],
            &pool,
            &cache,
            &BatchOptions::default(),
            |o| writer.append(&o.report).unwrap(),
        )
        .unwrap();
        use std::io::Write;
        let torn = &outcomes[0].report.to_line()[..14];
        let mut partial = std::fs::OpenOptions::new()
            .append(true)
            .open(writer.partial_path())
            .unwrap();
        partial.write_all(torn.as_bytes()).unwrap();
        // No finalize: the crash leaves only the partial sidecar.
    }

    // The resumed run: picks up the three settled jobs from the
    // sidecar, runs only the remaining five, finalizes the full report.
    {
        let pool = WorkerPool::new(3);
        let cache = TraceCache::new();
        let (mut writer, recorded) = ReportWriter::resume(&resumed_path).unwrap();
        assert_eq!(recorded.len(), 3, "three settled jobs survive the crash");
        let done: Vec<&str> = recorded.iter().map(|r| r.job_id.as_str()).collect();
        let pending: Vec<EmbedJobSpec> = jobs
            .iter()
            .filter(|j| !done.contains(&j.job_id.as_str()))
            .cloned()
            .collect();
        assert_eq!(pending.len(), 5);
        let outcomes = embed_batch_with(
            &host_program(),
            &batch_embedder(),
            &pending,
            &pool,
            &cache,
            &BatchOptions::default(),
            |o| writer.append(&o.report).unwrap(),
        )
        .unwrap();
        let mut by_id: std::collections::HashMap<String, JobReport> = recorded
            .into_iter()
            .chain(outcomes.into_iter().map(|o| o.report))
            .map(|r| (r.job_id.clone(), r))
            .collect();
        let ordered: Vec<JobReport> = jobs
            .iter()
            .map(|j| by_id.remove(&j.job_id).expect("every job settled"))
            .collect();
        writer.finalize(&ordered).unwrap();
    }

    // Modulo wall_ms (the one nondeterministic field), the resumed
    // report is line-for-line identical to the uninterrupted one.
    let full = parse_report(&std::fs::read_to_string(&full_path).unwrap()).unwrap();
    let resumed = parse_report(&std::fs::read_to_string(&resumed_path).unwrap()).unwrap();
    assert_eq!(normalized_lines(&full), normalized_lines(&resumed));
    let _ = std::fs::remove_dir_all(&dir);
}
