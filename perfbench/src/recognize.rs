//! `recognize`: an investigator checks suspect copies. The corpus is
//! built in set-up and kept as `.pmvm` bytes: fingerprinted copies of
//! both hosts, clean and after each attack the mark survives, the same
//! copies under another copy's key, and the unmarked hosts. Each
//! operation is `decode_program` then `recognize_one` under the copy's
//! seed, so every operation derives a fresh per-copy session, as the CLI
//! and fleet do. Embedding happens only in set-up.

use std::time::{Duration, Instant};

use pathmark::attacks::java as attacks;
use pathmark::core::bitstring::PackedTraceSink;
use pathmark::core::java::{Recognition, Recognizer};
use pathmark::core::key::WatermarkKey;
use pathmark::core::Survivors;
use pathmark::crypto::Prng;
use pathmark::fleet::batch::{embed_one, recognize_one, RecognizeJob, RecognizeOutcome};
use pathmark::fleet::cache::TraceCache;
use pathmark::fleet::manifest::{to_hex, JobStatus};
use pathmark::fleet::retry::RetryPolicy;
use pathmark::math::bigint::BigUint;
use pathmark::telemetry::Telemetry;
use pathmark::vm::codec::{decode_program, encode_program};
use pathmark::vm::interp::Vm;
use pathmark::vm::trace::TraceConfig;
use pathmark::vm::Program;

use crate::bytecode::{self, Host, CAFFEINE, JESS};
use crate::spans::{Kind, Recorder};
use crate::{mean, ratio, Cycle, Scale, Workload};

/// Fingerprinted copies per host: enough to average out how much a
/// drawn seed, `W` and attack seed change a copy's cost.
const COPIES: [usize; 2] = [30, 32];

/// Each CaffeineMark-like item runs this often per pass, each Jess-like
/// item once: Jess recognitions are then an eighth of the operations, so
/// the median falls inside the CaffeineMark recognitions and p99 inside
/// the Jess ones, at their 92nd percentile rather than in their tail.
const CAFFEINE_REPEATS: usize = 8;

/// The attacks the mark survives (paper §5.1.2). Copy `k` of a host also
/// appears after attack `k mod 5`, so every attack covers a fifth of the
/// copies. Heavy branch insertion destroys the mark (Fig. 8c), so it is
/// left out.
const ATTACKS: [&str; 5] = [
    "nop-insertion",
    "sense-inversion",
    "block-reordering",
    "split-and-copy",
    "light-branch-insertion",
];

fn attack(name: &str, program: &mut Program, seed: u64) {
    match name {
        "nop-insertion" => attacks::insert_nops(program, 300, seed),
        "sense-inversion" => attacks::invert_branch_senses(program, 1.0, seed),
        "block-reordering" => attacks::reorder_blocks(program, seed),
        "split-and-copy" => {
            attacks::split_blocks(program, 100, seed);
            attacks::copy_blocks(program, 30, seed ^ 1);
        }
        "light-branch-insertion" => attacks::insert_random_branches(program, 20, seed),
        other => unreachable!("unknown attack {other}"),
    }
}

/// One suspect program and what recognizing it must yield.
struct Item {
    label: String,
    host: usize,
    bytes: Vec<u8>,
    seed: u64,
    /// The drawn `W` for marked copies; `None` for wrong-key and
    /// unmarked programs, which must yield no watermark.
    expected: Option<BigUint>,
}

/// The workload's state after set-up.
pub struct Recognize {
    hosts: Vec<Host>,
    recognizers: Vec<Recognizer>,
    items: Vec<Item>,
    /// Item index of each operation of a pass.
    cycle: Vec<usize>,
    /// Items that failed their set-up check.
    bad: Vec<Option<String>>,
    /// Per cycle position, the last traced operation's survivors and
    /// recognition, for its attribution pass to compare against.
    traced: Vec<Option<(Survivors, Recognition)>>,
    insn_overheads: Vec<f64>,
    size_overheads: Vec<f64>,
}

impl Recognize {
    fn job(&self, item: &Item, program: Program) -> RecognizeJob {
        RecognizeJob {
            job_id: item.label.clone(),
            program,
            expected_hex: item.expected.as_ref().map(to_hex),
            seed: item.seed,
        }
    }

    fn recognize(&self, index: usize) -> (Duration, Result<RecognizeOutcome, String>) {
        let item = &self.items[index];
        let started = Instant::now();
        let outcome = decode_program(&item.bytes).map(|program| {
            let job = self.job(item, program);
            recognize_one(
                &self.recognizers[item.host],
                &job,
                &RetryPolicy::none(),
                &Telemetry::null(),
            )
        });
        (
            started.elapsed(),
            outcome.map_err(|e| format!("{}: {e}", item.label)),
        )
    }

    /// The operation's check: the drawn `W` for marked copies, no
    /// watermark at all for wrong-key and unmarked programs.
    fn judge(&self, index: usize, found: Result<Option<&BigUint>, String>) -> Result<(), String> {
        let item = &self.items[index];
        if let Some(why) = &self.bad[index] {
            return Err(why.clone());
        }
        let found = found?;
        match (&item.expected, found) {
            (Some(want), Some(got)) if want == got => Ok(()),
            (None, None) => Ok(()),
            (None, Some(got)) => Err(format!("{}: false positive {}", item.label, to_hex(got))),
            (Some(want), got) => Err(format!(
                "{}: recognized {:?}, drew {}",
                item.label,
                got.map(to_hex),
                to_hex(want)
            )),
        }
    }
}

fn recognized(outcome: &RecognizeOutcome) -> Result<Option<&BigUint>, String> {
    match (&outcome.report.status, &outcome.recognition) {
        (JobStatus::Ok | JobStatus::NotFound | JobStatus::Mismatch, Some(r)) => {
            Ok(r.watermark.as_ref())
        }
        (status, _) => Err(format!("{}: recognize_one {status}", outcome.report.job_id)),
    }
}

impl Workload for Recognize {
    fn setup(seed: u64, scale: Scale, _rec: &mut Recorder) -> Result<Recognize, String> {
        let mut rng = Prng::from_seed(seed ^ 0x2EC0);
        let hosts = bytecode::hosts(&mut rng);
        // Smoke size still covers every attack.
        let copies = if scale.smoke {
            [ATTACKS.len(), 1]
        } else {
            COPIES
        };
        let cache = TraceCache::new();
        let mut per_host: Vec<Vec<usize>> = vec![Vec::new(); hosts.len()];
        let mut items = Vec::new();
        for (h, host) in hosts.iter().enumerate() {
            let embedder = host.embedder()?;
            let trace = cache
                .get_or_trace(
                    &host.program,
                    embedder.key(),
                    embedder.config(),
                    TraceConfig::full(),
                )
                .map_err(|e| format!("{}: {e}", host.name))?;
            let jobs = bytecode::draw_jobs(&mut rng, &hosts, h, copies[h]);
            for (j, job) in jobs.iter().enumerate() {
                let outcome = embed_one(
                    &embedder,
                    &host.program,
                    &trace,
                    &job.spec,
                    &RetryPolicy::none(),
                    &Telemetry::null(),
                );
                let marked = outcome.marked.ok_or_else(|| {
                    format!("{}: embed_one {}", job.spec.job_id, outcome.report.status)
                })?;
                let name = ATTACKS[j % ATTACKS.len()];
                let mut attacked = marked.clone();
                attack(name, &mut attacked, rng.next_u64());
                let variants = [
                    (job.spec.job_id.clone(), &marked),
                    (format!("{}/{name}", job.spec.job_id), &attacked),
                ];
                for (label, program) in variants {
                    per_host[h].push(items.len());
                    items.push(Item {
                        label,
                        host: h,
                        bytes: encode_program(program),
                        seed: job.seed(),
                        expected: Some(job.watermark.clone()),
                    });
                }
                // The clean copy under the next copy's key (the first
                // copy's key when it is the last): wrong-key trials.
                let other = jobs[(j + 1) % jobs.len()].seed();
                let other = if other == job.seed() {
                    rng.next_u64()
                } else {
                    other
                };
                per_host[h].push(items.len());
                items.push(Item {
                    label: format!("{}/wrong-key", job.spec.job_id),
                    host: h,
                    bytes: encode_program(&marked),
                    seed: other,
                    expected: None,
                });
            }
            per_host[h].push(items.len());
            items.push(Item {
                label: format!("{}/unmarked", host.name),
                host: h,
                bytes: encode_program(&host.program),
                seed: jobs[0].seed(),
                expected: None,
            });
        }
        let recognizers = hosts
            .iter()
            .map(Host::recognizer)
            .collect::<Result<Vec<_>, _>>()?;
        let cycle = bytecode::interleave(
            &per_host[CAFFEINE].repeat(CAFFEINE_REPEATS),
            &per_host[JESS],
        );
        let w = Recognize {
            hosts,
            recognizers,
            bad: (0..items.len()).map(|_| None).collect(),
            traced: vec![None; cycle.len()],
            items,
            cycle,
            insn_overheads: Vec::new(),
            size_overheads: Vec::new(),
        };
        // The untimed warm-up pass, over each distinct item once.
        for index in 0..w.items.len() {
            let (_, outcome) = w.recognize(index);
            outcome?;
        }
        Ok(w)
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for index in 0..self.items.len() {
            let item = &self.items[index];
            let host = &self.hosts[item.host];
            let result: Result<Option<(f64, f64)>, String> = (|| {
                let program = decode_program(&item.bytes).map_err(|e| e.to_string())?;
                // Independent of the timed path: a fresh session, not
                // `recognize_one`.
                let found = bytecode::recognize_under(host, item.seed, &program)?;
                self.judge(index, Ok(found.as_ref()))?;
                let insns = bytecode::check_semantics(host, &program, &item.label)?;
                if item.expected.is_none() {
                    return Ok(None);
                }
                let (_, host_insns) = bytecode::run(&host.program, &host.key_input)?;
                Ok(Some((
                    insns as f64 / host_insns as f64,
                    program.byte_size() as f64 / host.program.byte_size() as f64,
                )))
            })();
            match result {
                Ok(Some((insn, size))) => {
                    self.insn_overheads.push(insn);
                    self.size_overheads.push(size);
                }
                Ok(None) => {}
                Err(why) => {
                    self.bad[index] = Some(why.clone());
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
        let trace_ms = rec.mean_ms("stackvm.trace");
        let windows = rec.counted("core.scanner.windows");
        let survivors = rec.counted("core.scanner.survivors");
        let xtea_s = rec.mean_ms("crypto.xtea.decrypt_batch")
            * rec.calls("crypto.xtea.decrypt_batch").0 as f64
            / 1e3;
        vec![
            (
                "core.session.derives_per_op",
                rec.calls("core.session.derive").0 as f64 / ops,
            ),
            ("stackvm.insns_per_op", rec.counted("stackvm.insns") / ops),
            (
                "stackvm.minsns_per_s",
                ratio(rec.counted("stackvm.insns") / ops / 1e6, trace_ms / 1e3),
            ),
            ("core.scanner.windows_per_op", windows / ops),
            ("core.scanner.survivors_per_op", survivors / ops),
            ("core.scanner.survivor_ratio", ratio(survivors, windows)),
            (
                "core.recognize.cipher_calls_per_op",
                rec.counted("core.recognize.cipher_calls") / ops,
            ),
            (
                "core.recognize.decode_hit_ratio",
                ratio(
                    rec.counted("core.recognize.hits"),
                    rec.counted("core.recognize.lookups"),
                ),
            ),
            (
                "crypto.xtea.mblocks_per_s",
                ratio(rec.counted("crypto.xtea.blocks") / 1e6, xtea_s),
            ),
            (
                "math.crt.candidates_per_op",
                rec.counted("math.crt.candidates") / ops,
            ),
            (
                "math.crt.vote_keep_ratio",
                ratio(
                    rec.counted("math.crt.after_vote"),
                    rec.counted("math.crt.candidates"),
                ),
            ),
        ]
    }
}

impl Cycle for Recognize {
    fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    fn run(&mut self, i: usize) -> (Duration, Result<(), String>) {
        let index = self.cycle[i];
        let (latency, outcome) = self.recognize(index);
        let verdict = match &outcome {
            Ok(outcome) => self.judge(index, recognized(outcome)),
            Err(why) => Err(why.clone()),
        };
        (latency, verdict)
    }

    fn run_traced(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<(), String> {
        let index = self.cycle[i];
        let item = &self.items[index];
        let host = &self.hosts[item.host];
        let base = &self.recognizers[item.host];
        let key = WatermarkKey::new(item.seed, host.key_input.clone());

        // The calls `decode_program` + `recognize_one` make, each a
        // child of the operation.
        let started = Instant::now();
        let program = rec
            .try_time(op, "stackvm.codec.decode", Kind::Child, || {
                decode_program(&item.bytes)
            })
            .map_err(|e| format!("{}: {e}", item.label))?;
        let session = rec.time(op, "core.session.derive", Kind::Child, || {
            base.with_key(key)
        });
        let scan = rec.try_time(op, "core.scanner.fused", Kind::Child, || {
            session.trace_survivors(&program)
        });
        let counts = scan.as_ref().map_err(|e| e.to_string()).and_then(|scan| {
            rec.try_time(op, "core.recognize.decrypt", Kind::Child, || {
                session.candidates_from_survivors(&scan.survivors)
            })
            .map_err(|e| e.to_string())
        });
        let recognition = counts.and_then(|counts| {
            rec.try_time(op, "math.crt.combine", Kind::Child, || {
                session.recognize_from_candidates(counts)
            })
            .map_err(|e| e.to_string())
        });
        rec.record(
            op,
            bytecode::ROOT[item.host],
            Kind::Root,
            started,
            Instant::now(),
            recognition.is_ok(),
        );
        let scan = scan.map_err(|e| format!("{}: {e}", item.label))?;
        let recognition = recognition.map_err(|e| format!("{}: {e}", item.label))?;
        let cache = session.decode_cache_stats();

        rec.count("core.scanner.windows", scan.scanned as f64);
        rec.count("core.scanner.survivors", scan.survivors.len() as f64);
        rec.count("core.recognize.cipher_calls", cache.misses as f64);
        rec.count("core.recognize.lookups", (cache.hits + cache.misses) as f64);
        rec.count("core.recognize.hits", cache.hits as f64);
        rec.count("math.crt.candidates", recognition.candidates as f64);
        rec.count("math.crt.after_vote", recognition.after_vote as f64);
        let verdict = self.judge(index, Ok(recognition.watermark.as_ref()));
        self.traced[i] = Some((scan.survivors, recognition));
        verdict
    }

    fn attribute(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<(), String> {
        let item = &self.items[self.cycle[i]];
        let host = &self.hosts[item.host];
        let base = &self.recognizers[item.host];
        let key = WatermarkKey::new(item.seed, host.key_input.clone());
        let (survivors, recognition) = self.traced[i]
            .take()
            .ok_or("no traced operation to attribute")?;
        let program = decode_program(&item.bytes).map_err(|e| format!("{}: {e}", item.label))?;

        // Split the fused pass into compile, trace and roll (the calls
        // `Recognizer::trace_bits` makes, then the two-phase roll over
        // its string), time the cipher alone over the operation's
        // survivor values, and run the fused kernel itself.
        let vm = Vm::new(&program)
            .with_input(key.input.clone())
            .with_budget(base.config().trace_budget)
            .with_trace(TraceConfig::branches_only());
        rec.time(op, "stackvm.compile", Kind::Attribution, || vm.prepare());
        let mut sink = PackedTraceSink::for_program(&program);
        let run = rec
            .try_time(op, "stackvm.trace", Kind::Attribution, || {
                vm.run_with_sink(&mut sink)
            })
            .map_err(|e| format!("{}: {e}", item.label))?;
        rec.count("stackvm.insns", run.instructions as f64);
        let bits = sink.finish();
        let session = base.with_key(key.clone());
        let rolled = rec.time(op, "core.scanner.roll", Kind::Attribution, || {
            session.window_survivors(&bits, 0, usize::MAX)
        });
        drop(session);
        let mut blocks = survivors.values().to_vec();
        let cipher = key.cipher();
        rec.time(op, "crypto.xtea.decrypt_batch", Kind::Attribution, || {
            cipher.decrypt_batch(&mut blocks)
        });
        rec.count("crypto.xtea.blocks", blocks.len() as f64);
        let job = self.job(item, program);
        let kernel = rec.time(op, "fleet.batch.recognize_one", Kind::Attribution, || {
            recognize_one(base, &job, &RetryPolicy::none(), &Telemetry::null())
        });

        if rolled != survivors {
            return Err(format!(
                "{}: two-phase roll differs from the fused scan",
                item.label
            ));
        }
        if kernel.recognition.as_ref() != Some(&recognition) {
            return Err(format!(
                "{}: decomposed calls differ from recognize_one",
                item.label
            ));
        }
        Ok(())
    }
}
