//! `fingerprint`: a distributor stamps distinct per-copy watermarks into
//! the two bytecode hosts. Each operation is `embed_one` for a job with
//! pinned seed and `W`, then `encode_program` on the copy. Host traces
//! are taken once in set-up through a `TraceCache`, as a batch does
//! before its first job. Embedding only: nothing scans or decrypts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pathmark::core::java::Embedder;
use pathmark::crypto::Prng;
use pathmark::fleet::batch::embed_one;
use pathmark::fleet::cache::TraceCache;
use pathmark::fleet::manifest::JobStatus;
use pathmark::fleet::retry::RetryPolicy;
use pathmark::telemetry::{MemorySink, Stage, Telemetry};
use pathmark::vm::codec::encode_program;
use pathmark::vm::trace::{Trace, TraceConfig};

use crate::bytecode::{self, Host, Job, CAFFEINE, JESS};
use crate::spans::{Kind, Recorder};
use crate::{mean, Cycle, Scale, Workload};

/// Distinct copies per host. A copy's cost and size depend on its drawn
/// seed and `W`; 192 copies average that out, so runs under different
/// seeds agree.
const COPIES: [usize; 2] = [96, 96];

/// Each CaffeineMark-like job runs this often per pass, each Jess-like
/// job once: Jess embeds (~7 ms) are then a tenth of the operations, so
/// the median falls inside the ~1.3 ms CaffeineMark embeds and p99 at
/// the 90th percentile of the Jess embeds, not in their sparse tail.
const CAFFEINE_REPEATS: usize = 9;

struct HostState {
    host: Host,
    embedder: Embedder,
    /// Same key and configuration, reporting the embedder's stage spans.
    traced: Embedder,
    sink: Arc<MemorySink>,
    trace: Arc<Trace>,
}

/// The workload's state after set-up.
pub struct Fingerprint {
    hosts: Vec<HostState>,
    jobs: Vec<Job>,
    /// Job index of each operation of a pass.
    cycle: Vec<usize>,
    /// The warm-up pass's `.pmvm` bytes per job: the checked copies.
    expected: Vec<Vec<u8>>,
    /// Jobs whose checked copy failed a check.
    bad: Vec<Option<String>>,
    insn_overheads: Vec<f64>,
    size_overheads: Vec<f64>,
}

const STAGES: [(Stage, &str); 4] = [
    (Stage::Split, "core.embed.split_ms"),
    (Stage::Encrypt, "core.embed.encrypt_ms"),
    (Stage::Codegen, "core.embed.codegen_ms"),
    (Stage::Verify, "core.embed.verify_ms"),
];

impl Fingerprint {
    fn embed(&self, job: usize) -> (Duration, Result<Vec<u8>, String>) {
        let job = &self.jobs[job];
        let h = &self.hosts[job.host];
        let started = Instant::now();
        let outcome = embed_one(
            &h.embedder,
            &h.host.program,
            &h.trace,
            &job.spec,
            &RetryPolicy::none(),
            &Telemetry::null(),
        );
        let bytes = outcome.marked.as_ref().map(encode_program);
        let latency = started.elapsed();
        let result = match (outcome.report.status, bytes) {
            (JobStatus::Ok, Some(bytes)) => Ok(bytes),
            (status, _) => Err(format!("{}: embed_one {status}", job.spec.job_id)),
        };
        (latency, result)
    }

    fn compare(&self, job: usize, bytes: Result<Vec<u8>, String>) -> Result<(), String> {
        if let Some(why) = &self.bad[job] {
            return Err(why.clone());
        }
        if bytes? != self.expected[job] {
            return Err(format!(
                "{}: copy differs from the checked copy",
                self.jobs[job].spec.job_id
            ));
        }
        Ok(())
    }
}

impl Workload for Fingerprint {
    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Result<Fingerprint, String> {
        let mut rng = Prng::from_seed(seed ^ 0xF16E);
        let hosts = bytecode::hosts(&mut rng);
        let copies = if scale.smoke { [1, 1] } else { COPIES };
        let caffeine = bytecode::draw_jobs(&mut rng, &hosts, CAFFEINE, copies[CAFFEINE]);
        let jess = bytecode::draw_jobs(&mut rng, &hosts, JESS, copies[JESS]);
        let jobs: Vec<Job> = caffeine.iter().chain(&jess).cloned().collect();
        let ids: Vec<usize> = (0..jobs.len()).collect();
        let cycle = bytecode::interleave(
            &ids[..caffeine.len()].repeat(CAFFEINE_REPEATS),
            &ids[caffeine.len()..],
        );

        let cache = TraceCache::new();
        let mut states = Vec::new();
        for host in hosts {
            let embedder = host.embedder()?;
            let sink = Arc::new(MemorySink::new());
            let traced = Embedder::builder(host.key(), host.config.clone())
                .telemetry(Telemetry::new(sink.clone()))
                .build()
                .map_err(|e| e.to_string())?;
            let trace = rec
                .try_time(0, "stackvm.full_trace", Kind::Attribution, || {
                    cache.get_or_trace(
                        &host.program,
                        embedder.key(),
                        embedder.config(),
                        TraceConfig::full(),
                    )
                })
                .map_err(|e| format!("{}: {e}", host.name))?;
            states.push(HostState {
                host,
                embedder,
                traced,
                sink,
                trace,
            });
        }
        let mut w = Fingerprint {
            hosts: states,
            bad: vec![None; jobs.len()],
            expected: vec![Vec::new(); jobs.len()],
            jobs,
            cycle,
            insn_overheads: Vec::new(),
            size_overheads: Vec::new(),
        };
        // The untimed warm-up pass, over each distinct job of the cycle
        // once; its copies are the ones checked.
        for job in 0..w.jobs.len() {
            let (_, bytes) = w.embed(job);
            w.expected[job] = bytes?;
        }
        Ok(w)
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, job) in self.jobs.iter().enumerate() {
            let h = &self.hosts[job.host].host;
            let result = (|| {
                let copy = pathmark::vm::codec::decode_program(&self.expected[i])
                    .map_err(|e| e.to_string())?;
                let found = bytecode::recognize_under(h, job.seed(), &copy)?;
                if found.as_ref() != Some(&job.watermark) {
                    return Err(format!(
                        "{}: recognized {found:?}, drew {}",
                        job.spec.job_id,
                        job.hex()
                    ));
                }
                let insns = bytecode::check_semantics(h, &copy, &job.spec.job_id)?;
                let (_, host_insns) = bytecode::run(&h.program, &h.key_input)?;
                Ok((
                    insns as f64 / host_insns as f64,
                    copy.byte_size() as f64 / h.program.byte_size() as f64,
                ))
            })();
            match result {
                Ok((insn, size)) => {
                    self.insn_overheads.push(insn);
                    self.size_overheads.push(size);
                }
                Err(why) => {
                    self.bad[i] = Some(why.clone());
                    problems.push(why);
                }
            }
        }
        problems
    }

    fn mark_overheads(&self) -> (f64, f64) {
        (mean(&self.insn_overheads), mean(&self.size_overheads))
    }

    fn layer_values(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let ops = rec.ops().max(1) as f64;
        let mut values: Vec<(&'static str, f64)> = STAGES
            .iter()
            .map(|&(_, name)| (name, rec.counted(name) / ops))
            .collect();
        values.push((
            "core.embed.pieces_per_op",
            rec.counted("core.embed.pieces") / ops,
        ));
        values.push((
            "core.session.derives_per_op",
            rec.calls("core.session.derive").0 as f64 / ops,
        ));
        values
    }
}

impl Cycle for Fingerprint {
    fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    fn run(&mut self, i: usize) -> (Duration, Result<(), String>) {
        let job = self.cycle[i];
        let (latency, bytes) = self.embed(job);
        (latency, self.compare(job, bytes))
    }

    fn run_traced(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<(), String> {
        let job_index = self.cycle[i];
        let job = &self.jobs[job_index];
        let h = &self.hosts[job.host];
        let before: Vec<u64> = STAGES
            .iter()
            .map(|&(s, _)| h.sink.stage(s).total_nanos)
            .collect();

        // The calls `embed_one` makes, each a child of the operation.
        let started = Instant::now();
        let key = job.spec.effective_key(h.traced.key());
        let session = rec.time(op, "core.session.derive", Kind::Child, || {
            h.traced.with_key(key)
        });
        let watermark = job.spec.watermark(h.traced.key(), h.traced.config());
        let marked = watermark.and_then(|w| {
            rec.try_time(op, "core.embed", Kind::Child, || {
                session.embed_with_trace(&h.host.program, &w, &h.trace)
            })
            .map_err(|e| e.to_string())
        });
        let bytes = marked.as_ref().map(|m| {
            rec.time(op, "stackvm.codec.encode", Kind::Child, || {
                encode_program(&m.program)
            })
        });
        rec.record(
            op,
            bytecode::ROOT[job.host],
            Kind::Root,
            started,
            Instant::now(),
            bytes.is_ok(),
        );

        for (k, &(stage, name)) in STAGES.iter().enumerate() {
            rec.count(
                name,
                (h.sink.stage(stage).total_nanos - before[k]) as f64 / 1e6,
            );
        }
        if let Ok(m) = &marked {
            rec.count("core.embed.pieces", m.report.pieces.len() as f64);
        }
        self.compare(
            job_index,
            bytes.map_err(|e| format!("{}: {e}", job.spec.job_id)),
        )
    }

    fn attribute(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<(), String> {
        // The fused kernel the traced calls decompose, on the untraced
        // session: its copy must equal the checked one too.
        let job_index = self.cycle[i];
        let job = &self.jobs[job_index];
        let h = &self.hosts[job.host];
        let outcome = rec.time(op, "fleet.batch.embed_one", Kind::Attribution, || {
            embed_one(
                &h.embedder,
                &h.host.program,
                &h.trace,
                &job.spec,
                &RetryPolicy::none(),
                &Telemetry::null(),
            )
        });
        let bytes = outcome
            .marked
            .as_ref()
            .map(encode_program)
            .ok_or_else(|| format!("{}: embed_one {}", job.spec.job_id, outcome.report.status));
        self.compare(job_index, bytes)
    }
}
