//! The batch engine: embed or recognize a whole manifest of copies on
//! the worker pool.
//!
//! **Embedding** a batch traces the host program *once* (through the
//! [`crate::cache::TraceCache`]) and shares the immutable trace across
//! all N jobs via `Arc`; each job then runs
//! [`Embedder::embed_with_trace`] under a per-copy session derived with
//! [`Embedder::with_key`] (same config and telemetry sink, per-copy
//! key). **Recognition** of a batch parallelizes across copies: each
//! copy is re-traced and recognized independently, as one job.
//!
//! Per-job failures (bad manifest hex, embedding errors, panics) are
//! captured in the job's [`JobReport`] and never abort the rest of the
//! batch. The `_with` entry points layer fault tolerance on top:
//!
//! * transient failures (panics, injected transient faults) are re-run
//!   under [`BatchOptions::retry`], with exponential backoff;
//! * a job that overruns [`BatchOptions::deadline`] is reported as
//!   [`JobStatus::TimedOut`] and its worker replaced;
//! * every settled outcome is handed to the `on_outcome` callback on
//!   the calling thread, in completion order — the hook the crash-safe
//!   manifest writer streams from.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pathmark_core::java::{Embedder, Recognition, Recognizer};
use pathmark_core::key::WatermarkKey;
use pathmark_core::WatermarkError;
use stackvm::trace::TraceConfig;
use stackvm::Program;

use crate::cache::TraceCache;
use crate::faults::FaultPlan;
use crate::manifest::{to_hex, EmbedJobSpec, JobReport, JobStatus};
use crate::pool::{JobFailure, RunOptions, WorkerPool};
use crate::retry::{run_with_retry, AttemptFailure, RetryPolicy};

/// Fault-tolerance knobs for one batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// How many times to re-run a job after a transient failure. The
    /// default retries nothing (one attempt per job).
    pub retry: RetryPolicy,
    /// Per-job wall-clock deadline; overrunning jobs settle as
    /// [`JobStatus::TimedOut`]. `None` (the default) never times out.
    pub deadline: Option<Duration>,
    /// Injected faults, for tests. Production runs leave this empty.
    pub faults: FaultPlan,
}

/// The result of one embed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbedOutcome {
    /// The job's report line.
    pub report: JobReport,
    /// The marked copy, when the job succeeded.
    pub marked: Option<Program>,
}

/// One copy to recognize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecognizeJob {
    /// Identifies the copy in the report.
    pub job_id: String,
    /// The (possibly attacked) copy.
    pub program: Program,
    /// The watermark the copy is supposed to carry, if known: recovering
    /// a different value is reported as [`JobStatus::Mismatch`].
    pub expected_hex: Option<String>,
    /// The copy's numeric secret (from the embed report).
    pub seed: u64,
}

/// The result of one recognize job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecognizeOutcome {
    /// The job's report line. `watermark_hex` holds the *recovered*
    /// value when recognition pinned one down, else the expected value.
    pub report: JobReport,
    /// Full recognition detail, when the copy traced successfully.
    pub recognition: Option<Recognition>,
}

/// Error converting an [`EmbedOutcome`] into a [`RecognizeJob`]: the
/// embed job failed, so there is no marked program to recognize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoMarkedProgram {
    /// The failed embed job's id.
    pub job_id: String,
    /// The embed job's terminal status (why there is no program).
    pub status: JobStatus,
}

impl std::fmt::Display for NoMarkedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "embed job `{}` produced no marked program ({})",
            self.job_id, self.status
        )
    }
}

impl std::error::Error for NoMarkedProgram {}

impl TryFrom<&EmbedOutcome> for RecognizeJob {
    type Error = NoMarkedProgram;

    /// The round-trip conversion: verify that a freshly embedded copy
    /// carries the watermark its report claims. Fails (instead of
    /// panicking, as an earlier `From` impl did) when the embed job
    /// failed and left no marked program behind.
    fn try_from(outcome: &EmbedOutcome) -> Result<RecognizeJob, NoMarkedProgram> {
        match &outcome.marked {
            None => Err(NoMarkedProgram {
                job_id: outcome.report.job_id.clone(),
                status: outcome.report.status.clone(),
            }),
            Some(program) => Ok(RecognizeJob {
                job_id: outcome.report.job_id.clone(),
                program: program.clone(),
                expected_hex: Some(outcome.report.watermark_hex.clone()),
                seed: outcome.report.seed,
            }),
        }
    }
}

/// Embeds every manifest job into `program` on the pool, tracing the
/// host at most once via `cache`. Equivalent to [`embed_batch_with`]
/// with default options (no retries, no deadline, no faults) and no
/// streaming callback.
///
/// # Errors
///
/// [`WatermarkError::TraceFailed`] if the *host* program cannot be
/// traced on the key's secret input — then no job can run at all.
pub fn embed_batch(
    program: &Program,
    session: &Embedder,
    jobs: &[EmbedJobSpec],
    pool: &WorkerPool,
    cache: &TraceCache,
) -> Result<Vec<EmbedOutcome>, WatermarkError> {
    embed_batch_with(
        program,
        session,
        jobs,
        pool,
        cache,
        &BatchOptions::default(),
        |_| {},
    )
}

/// Runs exactly one embed job against a warm session and an
/// already-shared trace, producing the same report line the batch
/// engine would: the per-copy key and watermark are resolved with the
/// manifest rules ([`EmbedJobSpec::effective_key`] /
/// [`EmbedJobSpec::watermark`]), transient failures are retried under
/// `retry`, and typed errors are permanent. This is the single-job
/// kernel both [`embed_batch_with`] and the resident serve daemon call,
/// so a job's outcome is identical whichever engine ran it.
pub fn embed_one(
    session: &Embedder,
    host: &Arc<Program>,
    trace: &Arc<stackvm::trace::Trace>,
    spec: &EmbedJobSpec,
    retry: &RetryPolicy,
    telemetry: &pathmark_telemetry::Telemetry,
) -> EmbedOutcome {
    embed_one_faulted(session, host, trace, spec, retry, telemetry, &FaultPlan::none(), 0)
}

/// [`embed_one`] plus deterministic fault injection (tests only):
/// `faults` is consulted with this job's batch `index`.
#[allow(clippy::too_many_arguments)]
fn embed_one_faulted(
    base: &Embedder,
    host: &Arc<Program>,
    trace: &Arc<stackvm::trace::Trace>,
    spec: &EmbedJobSpec,
    policy: &RetryPolicy,
    telemetry: &pathmark_telemetry::Telemetry,
    faults: &FaultPlan,
    index: usize,
) -> EmbedOutcome {
    let started = Instant::now();
    let job_key = spec.effective_key(base.key());
    let job_session = base.with_key(job_key);
    // The watermark is resolved once, outside the retry loop: a
    // bad hex value is a manifest error, permanent by nature.
    let (status, watermark_hex, marked, attempts) =
        match spec.watermark(base.key(), base.config()) {
            Err(why) => (JobStatus::Failed(why), String::new(), None, 1),
            Ok(watermark) => {
                let hex = to_hex(watermark.value());
                let (result, attempts) = run_with_retry(policy, telemetry, |attempt| {
                    faults.apply(index, attempt)?;
                    job_session
                        .embed_with_trace(host, &watermark, trace)
                        .map_err(|e| AttemptFailure::from_watermark_error(&e))
                });
                match result {
                    Ok(m) => (JobStatus::Ok, hex, Some(m.program), attempts),
                    Err(f) => (JobStatus::Failed(f.message()), hex, None, attempts),
                }
            }
        };
    EmbedOutcome {
        report: JobReport {
            job_id: spec.job_id.clone(),
            watermark_hex,
            seed: job_session.key().seed,
            status,
            attempts,
            wall_ms: started.elapsed().as_millis() as u64,
        },
        marked,
    }
}

/// Embeds every manifest job with retries, deadlines, and fault
/// injection per `options`, streaming each settled outcome to
/// `on_outcome` (on the calling thread, in completion order) as well as
/// returning all outcomes in manifest order.
///
/// Failure handling per job:
///
/// * an unparseable `watermark_hex` is permanent — reported as
///   [`JobStatus::Failed`] after a single attempt;
/// * typed embedding errors are permanent (the pipeline is
///   deterministic) — reported as [`JobStatus::Failed`];
/// * panics and injected transient faults are retried up to the
///   policy's budget, then reported as [`JobStatus::Failed`];
/// * a job overrunning `options.deadline` is abandoned and reported as
///   [`JobStatus::TimedOut`] with `attempts = 0` and `wall_ms = 0` (its
///   true cost is unknowable — the worker never came back).
///
/// # Errors
///
/// [`WatermarkError::TraceFailed`] if the *host* program cannot be
/// traced on the key's secret input — then no job can run at all.
pub fn embed_batch_with(
    program: &Program,
    session: &Embedder,
    jobs: &[EmbedJobSpec],
    pool: &WorkerPool,
    cache: &TraceCache,
    options: &BatchOptions,
    mut on_outcome: impl FnMut(&EmbedOutcome),
) -> Result<Vec<EmbedOutcome>, WatermarkError> {
    // The one traced run every job shares. The trace depends on the
    // secret input, which all per-copy keys inherit from the batch key.
    let trace = cache.get_or_trace(
        program,
        session.key(),
        session.config(),
        TraceConfig::full(),
    )?;

    let host = Arc::new(program.clone());
    let base = session.clone();
    let policy = options.retry.clone();
    let faults = options.faults.clone();
    let telemetry = pool.telemetry().clone();
    let run_options = RunOptions {
        deadline: options.deadline,
    };
    let results = pool.run_all_with(
        jobs.to_vec(),
        move |index, spec: EmbedJobSpec| {
            embed_one_faulted(&base, &host, &trace, &spec, &policy, &telemetry, &faults, index)
        },
        &run_options,
        |index, result| match result {
            Ok(outcome) => on_outcome(outcome),
            Err(failure) => on_outcome(&failed_embed_outcome(
                &jobs[index],
                session.key().seed,
                failure,
            )),
        },
    );

    Ok(results
        .into_iter()
        .zip(jobs)
        .map(|(result, spec)| {
            result.unwrap_or_else(|failure| {
                failed_embed_outcome(spec, session.key().seed, &failure)
            })
        })
        .collect())
}

/// Synthesizes the outcome of an embed job that never produced one: it
/// panicked past the retry layer or overran its deadline. Deterministic
/// (zero attempts and wall time), so an interrupted run and its resume
/// agree on the report line.
fn failed_embed_outcome(
    spec: &EmbedJobSpec,
    base_seed: u64,
    failure: &JobFailure,
) -> EmbedOutcome {
    EmbedOutcome {
        report: JobReport {
            job_id: spec.job_id.clone(),
            watermark_hex: spec.watermark_hex.clone().unwrap_or_default(),
            seed: spec.effective_seed(base_seed),
            status: job_failure_status(failure),
            attempts: 0,
            wall_ms: 0,
        },
        marked: None,
    }
}

fn job_failure_status(failure: &JobFailure) -> JobStatus {
    match failure {
        JobFailure::Panic(panic) => JobStatus::Failed(panic.to_string()),
        JobFailure::TimedOut { .. } => JobStatus::TimedOut,
    }
}

/// Runs exactly one recognize job against a warm session, producing
/// the same report line the batch engine would: the copy is recognized
/// under its own key (the base key's secret input plus the copy's
/// seed), transient failures are retried under `retry`, and the
/// recovered value is checked against `expected_hex` when one is
/// claimed. The single-job kernel shared by [`recognize_batch_with`]
/// and the resident serve daemon.
pub fn recognize_one(
    session: &Recognizer,
    job: &RecognizeJob,
    retry: &RetryPolicy,
    telemetry: &pathmark_telemetry::Telemetry,
) -> RecognizeOutcome {
    recognize_one_faulted(session, job, retry, telemetry, &FaultPlan::none(), 0)
}

/// [`recognize_one`] plus deterministic fault injection (tests only):
/// `faults` is consulted with this job's batch `index`.
fn recognize_one_faulted(
    base: &Recognizer,
    job: &RecognizeJob,
    policy: &RetryPolicy,
    telemetry: &pathmark_telemetry::Telemetry,
    faults: &FaultPlan,
    index: usize,
) -> RecognizeOutcome {
    let started = Instant::now();
    let job_key = WatermarkKey::new(job.seed, base.key().input.clone());
    let job_session = base.with_key(job_key);
    let (result, attempts) = run_with_retry(policy, telemetry, |attempt| {
        faults.apply(index, attempt)?;
        job_session
            .recognize(&job.program)
            .map_err(|e| AttemptFailure::from_watermark_error(&e))
    });
    let (status, watermark_hex, recognition) = match result {
        Err(failure) => (
            JobStatus::Failed(failure.message()),
            job.expected_hex.clone().unwrap_or_default(),
            None,
        ),
        Ok(rec) => {
            let outcome = match (&rec.watermark, &job.expected_hex) {
                (None, _) => (
                    JobStatus::NotFound,
                    job.expected_hex.clone().unwrap_or_default(),
                ),
                (Some(w), None) => (JobStatus::Ok, to_hex(w)),
                (Some(w), Some(expected)) => {
                    let hex = to_hex(w);
                    if &hex == expected {
                        (JobStatus::Ok, hex)
                    } else {
                        (JobStatus::Mismatch, hex)
                    }
                }
            };
            (outcome.0, outcome.1, Some(rec))
        }
    };
    RecognizeOutcome {
        report: JobReport {
            job_id: job.job_id.clone(),
            watermark_hex,
            seed: job_session.key().seed,
            status,
            attempts,
            wall_ms: started.elapsed().as_millis() as u64,
        },
        recognition,
    }
}

/// Recognizes every copy on the pool, in job order. Equivalent to
/// [`recognize_batch_with`] with default options and no callback.
pub fn recognize_batch(
    jobs: &[RecognizeJob],
    session: &Recognizer,
    pool: &WorkerPool,
) -> Vec<RecognizeOutcome> {
    recognize_batch_with(jobs, session, pool, &BatchOptions::default(), |_| {})
}

/// Recognizes every copy with retries, deadlines, and fault injection
/// per `options`, streaming each settled outcome to `on_outcome` (on
/// the calling thread, in completion order) as well as returning all
/// outcomes in job order.
///
/// Each copy is traced and recognized under its own key (the batch
/// key's secret input plus the copy's seed). Typed recognition errors —
/// e.g. a copy that no longer traces after a destructive attack — are
/// permanent and reported as [`JobStatus::Failed`]; panics and injected
/// transient faults are retried up to the policy's budget; a job
/// overrunning the deadline is reported as [`JobStatus::TimedOut`].
pub fn recognize_batch_with(
    jobs: &[RecognizeJob],
    session: &Recognizer,
    pool: &WorkerPool,
    options: &BatchOptions,
    mut on_outcome: impl FnMut(&RecognizeOutcome),
) -> Vec<RecognizeOutcome> {
    let base = session.clone();
    let policy = options.retry.clone();
    let faults = options.faults.clone();
    let telemetry = pool.telemetry().clone();
    let run_options = RunOptions {
        deadline: options.deadline,
    };
    let results = pool.run_all_with(
        jobs.to_vec(),
        move |index, job: RecognizeJob| {
            recognize_one_faulted(&base, &job, &policy, &telemetry, &faults, index)
        },
        &run_options,
        |index, result| match result {
            Ok(outcome) => on_outcome(outcome),
            Err(failure) => on_outcome(&failed_recognize_outcome(&jobs[index], failure)),
        },
    );

    results
        .into_iter()
        .zip(jobs)
        .map(|(result, job)| {
            result.unwrap_or_else(|failure| failed_recognize_outcome(job, &failure))
        })
        .collect()
}

/// Synthesizes the outcome of a recognize job that never produced one
/// (panic past the retry layer, or deadline overrun). Deterministic for
/// the resume byte-identity guarantee.
fn failed_recognize_outcome(job: &RecognizeJob, failure: &JobFailure) -> RecognizeOutcome {
    RecognizeOutcome {
        report: JobReport {
            job_id: job.job_id.clone(),
            watermark_hex: job.expected_hex.clone().unwrap_or_default(),
            seed: job.seed,
            status: job_failure_status(failure),
            attempts: 0,
            wall_ms: 0,
        },
        recognition: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathmark_core::java::JavaConfig;
    use stackvm::builder::{FunctionBuilder, ProgramBuilder};
    use stackvm::insn::Cond;

    fn host_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 2);
        let head = f.new_label();
        let out = f.new_label();
        f.push(0).store(0);
        f.bind(head);
        f.load(0).push(8).if_cmp(Cond::Ge, out);
        f.load(0).load(1).add().store(1);
        f.iinc(0, 1).goto(head);
        f.bind(out);
        f.load(1).print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        pb.finish(main).unwrap()
    }

    fn key() -> WatermarkKey {
        WatermarkKey::new(0xF1EE7, vec![3, 1, 4])
    }

    fn config() -> JavaConfig {
        JavaConfig::for_watermark_bits(64).with_pieces(12)
    }

    fn embedder() -> Embedder {
        Embedder::builder(key(), config()).build().unwrap()
    }

    fn recognizer() -> Recognizer {
        Recognizer::builder(key(), config()).build().unwrap()
    }

    #[test]
    fn batch_embeds_distinct_recognizable_copies() {
        let pool = WorkerPool::new(4);
        let cache = TraceCache::new();
        let jobs: Vec<EmbedJobSpec> = (0..6)
            .map(|i| EmbedJobSpec::new(format!("copy-{i:03}")))
            .collect();
        let outcomes = embed_batch(&host_program(), &embedder(), &jobs, &pool, &cache).unwrap();
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes.iter().all(|o| o.report.status.is_ok()));
        assert!(outcomes.iter().all(|o| o.report.attempts == 1));
        assert_eq!(cache.stats().misses, 1, "one trace for the whole batch");

        // Each copy carries its own watermark and program bytes.
        let mut hexes: Vec<&str> =
            outcomes.iter().map(|o| o.report.watermark_hex.as_str()).collect();
        hexes.sort_unstable();
        hexes.dedup();
        assert_eq!(hexes.len(), 6, "all watermarks distinct");

        let rec_jobs: Vec<RecognizeJob> = outcomes
            .iter()
            .map(|o| RecognizeJob::try_from(o).unwrap())
            .collect();
        let recognized = recognize_batch(&rec_jobs, &recognizer(), &pool);
        assert!(recognized.iter().all(|o| o.report.status.is_ok()));
        assert!(recognized
            .iter()
            .zip(&rec_jobs)
            .all(|(o, j)| Some(&o.report.watermark_hex) == j.expected_hex.as_ref()));
    }

    #[test]
    fn one_bad_job_does_not_poison_the_batch() {
        let pool = WorkerPool::new(3);
        let cache = TraceCache::new();
        let mut jobs: Vec<EmbedJobSpec> = (0..5)
            .map(|i| EmbedJobSpec::new(format!("copy-{i}")))
            .collect();
        // Unparseable watermark hex: this job fails, the others succeed.
        jobs[2].watermark_hex = Some("not-hex!".to_string());
        let outcomes = embed_batch(&host_program(), &embedder(), &jobs, &pool, &cache).unwrap();
        for (i, o) in outcomes.iter().enumerate() {
            if i == 2 {
                assert!(matches!(o.report.status, JobStatus::Failed(_)), "{:?}", o.report);
                assert!(o.marked.is_none());
            } else {
                assert!(o.report.status.is_ok(), "{:?}", o.report);
                assert!(o.marked.is_some());
            }
        }
    }

    #[test]
    fn failed_embed_outcome_does_not_convert_to_recognize_job() {
        let failed = EmbedOutcome {
            report: JobReport {
                job_id: "broken".to_string(),
                watermark_hex: String::new(),
                seed: 7,
                status: JobStatus::Failed("bad hex".to_string()),
                attempts: 1,
                wall_ms: 0,
            },
            marked: None,
        };
        let err = RecognizeJob::try_from(&failed).unwrap_err();
        assert_eq!(err.job_id, "broken");
        assert!(err.to_string().contains("broken"), "{err}");
        assert!(err.to_string().contains("bad hex"), "{err}");
    }

    #[test]
    fn swapped_copies_report_mismatch() {
        let pool = WorkerPool::new(2);
        let cache = TraceCache::new();
        let jobs: Vec<EmbedJobSpec> =
            vec![EmbedJobSpec::new("a"), EmbedJobSpec::new("b")];
        let outcomes = embed_batch(&host_program(), &embedder(), &jobs, &pool, &cache).unwrap();
        // Claim copy `b` is copy `a`: recognition under `a`'s seed on
        // `b`'s program must not report success.
        let swapped = vec![RecognizeJob {
            job_id: "a".to_string(),
            program: outcomes[1].marked.clone().unwrap(),
            expected_hex: Some(outcomes[0].report.watermark_hex.clone()),
            seed: outcomes[0].report.seed,
        }];
        let recognized = recognize_batch(&swapped, &recognizer(), &pool);
        assert!(
            !recognized[0].report.status.is_ok(),
            "swapped copy must not verify: {:?}",
            recognized[0].report
        );
    }

    #[test]
    fn outcomes_stream_in_completion_order_and_return_in_manifest_order() {
        use crate::retry::RetryPolicy;

        let pool = WorkerPool::new(2);
        let cache = TraceCache::new();
        let jobs: Vec<EmbedJobSpec> = (0..4)
            .map(|i| EmbedJobSpec::new(format!("copy-{i}")))
            .collect();
        let options = BatchOptions {
            retry: RetryPolicy::none(),
            deadline: None,
            faults: FaultPlan::none(),
        };
        let mut streamed = Vec::new();
        let outcomes = embed_batch_with(
            &host_program(),
            &embedder(),
            &jobs,
            &pool,
            &cache,
            &options,
            |o| streamed.push(o.report.job_id.clone()),
        )
        .unwrap();
        assert_eq!(streamed.len(), 4, "every outcome streamed exactly once");
        let ordered: Vec<String> = outcomes.iter().map(|o| o.report.job_id.clone()).collect();
        assert_eq!(
            ordered,
            jobs.iter().map(|j| j.job_id.clone()).collect::<Vec<_>>(),
            "returned outcomes follow manifest order"
        );
        let mut sorted = streamed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ordered.to_vec());
    }
}
