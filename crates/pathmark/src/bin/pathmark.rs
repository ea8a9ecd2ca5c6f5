//! `pathmark` — command-line driver for path-based watermarking.
//!
//! Programs are stored in the `stackvm` binary codec (`.pmvm`). The
//! secret key is a `--seed` integer plus a comma-separated `--input`
//! sequence; keep both secret.
//!
//! ```text
//! pathmark demo --out demo.pmvm          write a sample program
//! pathmark embed --program P --out Q --seed S --input I --bits B [--pieces N] [--watermark HEX]
//! pathmark recognize --program Q --seed S --input I --bits B
//! pathmark run --program P [--input I]   execute and print output
//! pathmark attack --program Q --out R --kind K [--count N] [--seed S]
//! pathmark disasm --program P            disassembly listing
//! pathmark fleet embed --program P --manifest M --out-dir D --workers K --seed S --input I --bits B
//! pathmark fleet recognize --dir D --manifest M --workers K --seed S --input I --bits B
//! pathmark serve --journal PREFIX [--socket PATH] [--max-inflight N] [--resume]
//! pathmark connect --socket PATH
//! ```
//!
//! `serve` runs the resident daemon: warm embed/recognize sessions per
//! tenant behind a line-oriented JSONL protocol (see `DESIGN.md` §11),
//! with admission control and a crash-safe write-ahead journal;
//! `connect` is its scripting client.
//!
//! `embed`, `recognize` and both `fleet` subcommands additionally take
//! `--metrics FILE [--metrics-format jsonl|summary]` to capture
//! stage-level telemetry (trace, encrypt, codegen, scan, vote, merge,
//! queue-wait, …) from the run; without the flag the pipeline runs with
//! the zero-cost disabled handle.
//!
//! Both `fleet` subcommands take fault-tolerance flags: `--retries N`
//! re-runs a job up to N extra times after a transient failure (panic),
//! `--job-timeout MS` abandons a job that overruns its deadline
//! (reported as `timed-out`, its worker replaced), and `--resume` skips
//! jobs whose outcome lines already exist in the (crash-safe, partially
//! written) report from an interrupted run. `fleet recognize` persists
//! its report via `--report FILE`, which `--resume` requires.
//!
//! Exit codes: `0` success, `1` usage or processing error, `2`
//! recognition ran but did not recover the expected watermark (see
//! [`pathmark::cli::ExitStatus`]).

use std::collections::{HashMap, HashSet};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use pathmark::attacks::java as attacks;
use pathmark::cli::ExitStatus;
use pathmark::core::java::{Embedder, JavaConfig, Recognizer};
use pathmark::core::key::{Watermark, WatermarkKey};
use pathmark::fleet::batch::{embed_batch_with, recognize_batch_with, BatchOptions, RecognizeJob};
use pathmark::fleet::cache::TraceCache;
use pathmark::fleet::manifest::{parse_manifest, to_hex, EmbedJobSpec, JobReport, ReportWriter};
use pathmark::fleet::pool::WorkerPool;
use pathmark::fleet::retry::RetryPolicy;
use pathmark::math::bigint::BigUint;
use pathmark::telemetry::{JsonlSink, MemorySink, Telemetry};
use pathmark::vm::interp::Vm;
use pathmark::vm::Program;

/// Why the CLI failed — split so recognition misses get their own exit
/// code, distinguishable from bad invocations in scripts.
enum CliError {
    /// Bad flags, unreadable files, or a processing failure: exit 1.
    Usage(String),
    /// Recognition completed but the watermark was not recovered (the
    /// machine-readable `RESULT` line is already printed): exit 2.
    NotFound,
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Usage(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let status = match run(&args) {
        Ok(()) => ExitStatus::Success,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("run `pathmark help` for usage");
            ExitStatus::Failure
        }
        Err(CliError::NotFound) => ExitStatus::NotRecovered,
    };
    status.into()
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("no command given".into()));
    };
    if command == "fleet" {
        return cmd_fleet(&args[1..]);
    }
    let opts = parse_options(&args[1..])?;
    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", USAGE);
            Ok(())
        }
        "demo" => cmd_demo(&opts).map_err(CliError::from),
        "embed" => cmd_embed(&opts).map_err(CliError::from),
        "recognize" => cmd_recognize(&opts),
        "run" => cmd_run(&opts).map_err(CliError::from),
        "attack" => cmd_attack(&opts).map_err(CliError::from),
        "disasm" => cmd_disasm(&opts).map_err(CliError::from),
        "serve" => cmd_serve(&opts).map_err(CliError::from),
        "connect" => cmd_connect(&opts).map_err(CliError::from),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

const USAGE: &str = "\
pathmark — dynamic path-based software watermarking (PLDI 2004)

commands:
  demo      --out FILE                      write a sample program
  embed     --program FILE --out FILE --seed N --input A,B,… --bits N
            [--pieces N] [--watermark HEX]  embed a fingerprint
  recognize --program FILE --seed N --input A,B,… --bits N [--pieces N]
  run       --program FILE [--input A,B,…]  execute, print output
  attack    --program FILE --out FILE --kind KIND [--count N] [--seed N]
            KIND: branches | nops | invert | reorder | split | diversify
  disasm    --program FILE                  print a listing
  fleet embed     --program FILE --manifest FILE --out-dir DIR --seed N
                  --input A,B,… --bits N [--pieces N] [--workers K]
                  fingerprint one copy per manifest line (JSONL); writes
                  DIR/<job_id>.pmvm per copy plus DIR/report.jsonl
  fleet recognize --dir DIR --manifest FILE --seed N --input A,B,…
                  --bits N [--pieces N] [--workers K] [--report FILE]
                  recognize every copy against its manifest entry; the
                  embed report doubles as the manifest
  serve     --journal PREFIX [--socket PATH] [--workers K]
            [--max-inflight N] [--max-connections N] [--retries N]
            [--journal-max-bytes N] [--resume]
            run the resident daemon: long-lived embed/recognize sessions
            behind a JSONL request protocol (stdin/stdout without
            --socket; a unix-domain socket with it). The socket serves
            up to --max-connections clients concurrently (default
            32); startup refuses a socket path a live daemon still
            answers on and only removes stale files. --max-inflight caps
            accepted-but-unsettled jobs (excess is shed, default 64),
            split fairly across active tenants; --journal-max-bytes
            rotates the journal's intents file (settled jobs folded to
            markers) once N bytes were appended since the last
            rotation; --resume replays a crashed daemon's journal
            before serving
  connect   --socket PATH
            pipe stdin to a running daemon and its responses to stdout
            (the scripting client for `serve --socket`)

fault tolerance (fleet embed, fleet recognize):
  --retries N                    re-run a job up to N extra times after
                                 a transient failure (default 0)
  --job-timeout MS               abandon a job overrunning MS ms; it is
                                 reported `timed-out`, its worker
                                 replaced, and the batch continues
  --resume                       skip jobs whose outcome lines survive
                                 from an interrupted run (fleet
                                 recognize: needs --report FILE)

telemetry (embed, recognize, fleet embed, fleet recognize, serve):
  --metrics FILE                 capture stage-level spans and counters
  --metrics-format jsonl|summary one JSON line per event (default), or
                                 one aggregated JSON summary object

exit codes:
  0  success
  1  usage or processing error
  2  recognition did not recover the (expected) watermark";

/// Options that are flags: present or absent, never followed by a
/// value.
const BOOLEAN_FLAGS: &[&str] = &["resume"];

/// Every option any command reads (each command checks its own
/// required ones); anything else is a typo or a retired option.
const KNOWN_OPTIONS: &[&str] = &[
    "bits",
    "count",
    "dir",
    "input",
    "job-timeout",
    "journal",
    "journal-max-bytes",
    "kind",
    "manifest",
    "max-connections",
    "max-inflight",
    "metrics",
    "metrics-format",
    "out",
    "out-dir",
    "pieces",
    "program",
    "report",
    "resume",
    "retries",
    "seed",
    "socket",
    "watermark",
    "workers",
];

fn parse_options(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected an option, found `{key}`"));
        };
        if !KNOWN_OPTIONS.contains(&name) {
            return Err(format!("unknown option --{name}"));
        }
        if BOOLEAN_FLAGS.contains(&name) {
            opts.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("option --{name} needs a value"))?;
        opts.insert(name.to_string(), value.clone());
    }
    Ok(opts)
}

fn required<'o>(opts: &'o HashMap<String, String>, name: &str) -> Result<&'o str, String> {
    opts.get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn parse_u64(opts: &HashMap<String, String>, name: &str) -> Result<u64, String> {
    required(opts, name)?
        .parse()
        .map_err(|e| format!("--{name}: {e}"))
}

fn parse_usize_or(opts: &HashMap<String, String>, name: &str, default: usize) -> Result<usize, String> {
    match opts.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
    }
}

fn parse_input(opts: &HashMap<String, String>) -> Result<Vec<i64>, String> {
    match opts.get("input") {
        None => Ok(Vec::new()),
        Some(s) if s.is_empty() => Ok(Vec::new()),
        Some(s) => s
            .split(',')
            .map(|v| v.trim().parse().map_err(|e| format!("--input: {e}")))
            .collect(),
    }
}

fn load_program(path: &str) -> Result<Program, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let program =
        pathmark::vm::codec::decode_program(&bytes).map_err(|e| format!("{path}: {e}"))?;
    pathmark::vm::verify::verify(&program).map_err(|e| format!("{path}: {e}"))?;
    Ok(program)
}

fn save_program(path: &str, program: &Program) -> Result<(), String> {
    std::fs::write(path, pathmark::vm::codec::encode_program(program))
        .map_err(|e| format!("{path}: {e}"))
}

fn parse_hex(s: &str) -> Result<BigUint, String> {
    let mut value = BigUint::zero();
    for c in s.chars() {
        let digit = c.to_digit(16).ok_or_else(|| format!("bad hex digit `{c}`"))?;
        value = &(&value << 4) + &BigUint::from(digit as u64);
    }
    Ok(value)
}

fn key_and_config(opts: &HashMap<String, String>) -> Result<(WatermarkKey, JavaConfig), String> {
    let seed = parse_u64(opts, "seed")?;
    let input = parse_input(opts)?;
    let bits: usize = required(opts, "bits")?
        .parse()
        .map_err(|e| format!("--bits: {e}"))?;
    let config = JavaConfig::for_watermark_bits(bits);
    let pieces = parse_usize_or(opts, "pieces", config.num_pieces)?;
    Ok((WatermarkKey::new(seed, input), config.with_pieces(pieces)))
}

/// How `--metrics` output is materialized at the end of a run.
enum MetricsWriter {
    /// Events stream to the file as they happen; `finish` only flushes.
    Jsonl,
    /// Events aggregate in memory; `finish` renders one JSON summary.
    Summary { sink: Arc<MemorySink>, path: String },
}

/// The `--metrics FILE [--metrics-format jsonl|summary]` plumbing: a
/// telemetry handle to thread through sessions/pools/caches, plus the
/// writer that materializes the file when the command finishes.
struct Metrics {
    telemetry: Telemetry,
    writer: Option<MetricsWriter>,
}

impl Metrics {
    fn from_options(opts: &HashMap<String, String>) -> Result<Metrics, String> {
        let Some(path) = opts.get("metrics") else {
            if opts.contains_key("metrics-format") {
                return Err("--metrics-format requires --metrics FILE".into());
            }
            return Ok(Metrics {
                telemetry: Telemetry::null(),
                writer: None,
            });
        };
        match opts.get("metrics-format").map(String::as_str).unwrap_or("jsonl") {
            "jsonl" => {
                let sink = JsonlSink::create(path).map_err(|e| format!("{path}: {e}"))?;
                Ok(Metrics {
                    telemetry: Telemetry::new(Arc::new(sink)),
                    writer: Some(MetricsWriter::Jsonl),
                })
            }
            "summary" => {
                let sink = Arc::new(MemorySink::new());
                Ok(Metrics {
                    telemetry: Telemetry::new(sink.clone()),
                    writer: Some(MetricsWriter::Summary {
                        sink,
                        path: path.clone(),
                    }),
                })
            }
            other => Err(format!(
                "--metrics-format: unknown format `{other}` (expected jsonl or summary)"
            )),
        }
    }

    /// Writes/flushes the metrics file. Call after all work (and any
    /// worker pool holding a telemetry clone) is done.
    fn finish(self) -> Result<(), String> {
        self.telemetry.flush();
        if let Some(MetricsWriter::Summary { sink, path }) = self.writer {
            let mut json = sink.render_json();
            json.push('\n');
            std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(())
    }
}

fn cmd_demo(opts: &HashMap<String, String>) -> Result<(), String> {
    let out = required(opts, "out")?;
    let program = pathmark::workloads::java::caffeinemark();
    save_program(out, &program)?;
    println!(
        "wrote {out}: {} functions, {} bytes of bytecode",
        program.functions.len(),
        program.byte_size()
    );
    println!("try: pathmark embed --program {out} --out marked.pmvm --seed 7 --input 12 --bits 128");
    Ok(())
}

fn cmd_embed(opts: &HashMap<String, String>) -> Result<(), String> {
    let program = load_program(required(opts, "program")?)?;
    let out = required(opts, "out")?;
    let (key, config) = key_and_config(opts)?;
    let metrics = Metrics::from_options(opts)?;
    let session = Embedder::builder(key, config)
        .telemetry(metrics.telemetry.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let watermark = match opts.get("watermark") {
        Some(hex) => Watermark::from_value(parse_hex(hex)?, session.config().watermark_bits),
        None => Watermark::random_for(session.config(), session.key()),
    };
    let marked = session.embed(&program, &watermark).map_err(|e| e.to_string())?;
    save_program(out, &marked.program)?;
    println!("embedded W = {:x} ({} bits)", watermark.value(), watermark.bits());
    println!(
        "{} pieces, {} -> {} bytes (+{:.1}%)",
        marked.report.pieces.len(),
        marked.report.bytes_before,
        marked.report.bytes_after,
        100.0 * (marked.report.bytes_after as f64 / marked.report.bytes_before as f64 - 1.0),
    );
    metrics.finish()
}

fn cmd_recognize(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let program = load_program(required(opts, "program")?)?;
    let (key, config) = key_and_config(opts)?;
    let metrics = Metrics::from_options(opts)?;
    let session = Recognizer::builder(key, config)
        .telemetry(metrics.telemetry.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let rec = session.recognize(&program).map_err(|e| e.to_string())?;
    eprintln!(
        "candidates: {}, after vote: {}, survivors: {}, primes covered: {}/{}",
        rec.candidates, rec.after_vote, rec.survivors, rec.primes_covered, rec.primes_total
    );
    // One machine-readable line on stdout either way; the exit code
    // (0 vs 2) carries the verdict for scripts.
    let recovered = match &rec.watermark {
        Some(w) => {
            println!("RESULT found watermark_hex={w:x}");
            1
        }
        None => {
            println!(
                "RESULT not-found primes_covered={}/{}",
                rec.primes_covered, rec.primes_total
            );
            0
        }
    };
    metrics.finish()?;
    match ExitStatus::for_recognition(recovered, 1) {
        ExitStatus::Success => Ok(()),
        _ => Err(CliError::NotFound),
    }
}

fn cmd_run(opts: &HashMap<String, String>) -> Result<(), String> {
    let program = load_program(required(opts, "program")?)?;
    let input = parse_input(opts)?;
    let outcome = Vm::new(&program)
        .with_input(input)
        .run()
        .map_err(|e| e.to_string())?;
    for v in &outcome.output {
        println!("{v}");
    }
    eprintln!("({} instructions)", outcome.instructions);
    Ok(())
}

fn cmd_attack(opts: &HashMap<String, String>) -> Result<(), String> {
    let mut program = load_program(required(opts, "program")?)?;
    let out = required(opts, "out")?;
    let kind = required(opts, "kind")?;
    let count = parse_usize_or(opts, "count", 100)?;
    let seed = opts
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(1);
    match kind {
        "branches" => attacks::insert_random_branches(&mut program, count, seed),
        "nops" => attacks::insert_nops(&mut program, count, seed),
        "invert" => attacks::invert_branch_senses(&mut program, 1.0, seed),
        "reorder" => attacks::reorder_blocks(&mut program, seed),
        "split" => attacks::split_blocks(&mut program, count, seed),
        "diversify" => attacks::diversify(&mut program, seed),
        other => return Err(format!("unknown attack kind `{other}`")),
    }
    pathmark::vm::verify::verify(&program).map_err(|e| e.to_string())?;
    save_program(out, &program)?;
    println!("applied `{kind}`; wrote {out}");
    Ok(())
}

fn cmd_disasm(opts: &HashMap<String, String>) -> Result<(), String> {
    let program = load_program(required(opts, "program")?)?;
    print!("{}", pathmark::vm::pretty::disassemble(&program));
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let journal = required(opts, "journal")?;
    let metrics = Metrics::from_options(opts)?;
    let retries: u32 = match opts.get("retries") {
        None => 0,
        Some(v) => v.parse().map_err(|e| format!("--retries: {e}"))?,
    };
    let mut options = pathmark::serve::ServeOptions::new(journal);
    options.workers = parse_workers(opts)?;
    options.max_inflight = parse_usize_or(opts, "max-inflight", options.max_inflight)?;
    options.max_connections = parse_usize_or(opts, "max-connections", options.max_connections)?;
    options.journal_max_bytes = match opts.get("journal-max-bytes") {
        None => None,
        Some(v) => Some(v.parse().map_err(|e| format!("--journal-max-bytes: {e}"))?),
    };
    options.resume = opts.contains_key("resume");
    options.retry = if retries == 0 {
        RetryPolicy::none()
    } else {
        RetryPolicy::with_retries(retries)
    };
    options.telemetry = metrics.telemetry.clone();
    let server = pathmark::serve::Server::new(options)?;
    match opts.get("socket") {
        Some(path) => server
            .serve_unix(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?,
        None => server.serve_stdio().map_err(|e| format!("stdin: {e}"))?,
    }
    // The server (and its pool) must be gone before the metrics file is
    // finalized, so every queued span has reached the sink.
    drop(server);
    metrics.finish()
}

/// Pipes stdin to the daemon on `--socket` and streams its responses
/// to stdout, half-closing the request side so the daemon sees EOF
/// while responses keep flowing until drained.
fn cmd_connect(opts: &HashMap<String, String>) -> Result<(), String> {
    let path = required(opts, "socket")?;
    let mut requests =
        std::os::unix::net::UnixStream::connect(path).map_err(|e| format!("{path}: {e}"))?;
    let mut responses = requests.try_clone().map_err(|e| format!("{path}: {e}"))?;
    // Responses stream to stdout as they arrive; a second thread keeps
    // them flowing while this one forwards stdin.
    let reader = std::thread::spawn(move || {
        let _ = std::io::copy(&mut responses, &mut std::io::stdout());
    });
    std::io::copy(&mut std::io::stdin().lock(), &mut requests)
        .map_err(|e| format!("{path}: {e}"))?;
    requests
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("{path}: {e}"))?;
    reader.join().map_err(|_| "response reader panicked".to_string())?;
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<(), CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError::Usage(
            "fleet needs a subcommand: embed | recognize".into(),
        ));
    };
    let opts = parse_options(&args[1..])?;
    match sub.as_str() {
        "embed" => cmd_fleet_embed(&opts),
        "recognize" => cmd_fleet_recognize(&opts),
        other => Err(CliError::Usage(format!("unknown fleet subcommand `{other}`"))),
    }
}

fn parse_workers(opts: &HashMap<String, String>) -> Result<usize, String> {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    parse_usize_or(opts, "workers", default)
}

/// The `--retries N` / `--job-timeout MS` fault-tolerance knobs shared
/// by both fleet subcommands. Fault injection is never exposed here.
fn batch_options(opts: &HashMap<String, String>) -> Result<BatchOptions, String> {
    let retries: u32 = match opts.get("retries") {
        None => 0,
        Some(v) => v.parse().map_err(|e| format!("--retries: {e}"))?,
    };
    let deadline = match opts.get("job-timeout") {
        None => None,
        Some(v) => Some(Duration::from_millis(
            v.parse().map_err(|e| format!("--job-timeout: {e}"))?,
        )),
    };
    Ok(BatchOptions {
        retry: if retries == 0 {
            RetryPolicy::none()
        } else {
            RetryPolicy::with_retries(retries)
        },
        deadline,
        ..BatchOptions::default()
    })
}

/// Resume bookkeeping needs job ids to be unique: an outcome line is
/// matched back to its manifest line by id alone.
fn ensure_unique_job_ids(specs: &[EmbedJobSpec]) -> Result<(), String> {
    let mut seen = HashSet::new();
    for spec in specs {
        if !seen.insert(spec.job_id.as_str()) {
            return Err(format!("duplicate job_id `{}` in manifest", spec.job_id));
        }
    }
    Ok(())
}

/// Reassembles the full report in manifest order from resumed lines
/// plus freshly settled ones.
fn ordered_reports(
    specs: &[EmbedJobSpec],
    recorded: Vec<JobReport>,
    fresh: impl IntoIterator<Item = JobReport>,
) -> Result<Vec<JobReport>, String> {
    let mut by_id: HashMap<String, JobReport> = HashMap::new();
    for report in recorded.into_iter().chain(fresh) {
        by_id.insert(report.job_id.clone(), report);
    }
    specs
        .iter()
        .map(|spec| {
            by_id
                .remove(&spec.job_id)
                .ok_or_else(|| format!("no outcome recorded for job `{}`", spec.job_id))
        })
        .collect()
}

fn cmd_fleet_embed(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let program = load_program(required(opts, "program")?)?;
    let manifest_path = required(opts, "manifest")?;
    let out_dir = required(opts, "out-dir")?;
    let workers = parse_workers(opts)?;
    let (key, config) = key_and_config(opts)?;
    let options = batch_options(opts)?;
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("{manifest_path}: {e}"))?;
    let jobs = parse_manifest(&text).map_err(|e| format!("{manifest_path}: {e}"))?;
    if jobs.is_empty() {
        return Err(CliError::Usage(format!("{manifest_path}: no jobs")));
    }
    ensure_unique_job_ids(&jobs)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;

    let report_path = format!("{out_dir}/report.jsonl");
    let (mut writer, recorded) = if opts.contains_key("resume") {
        ReportWriter::resume(&report_path).map_err(|e| format!("{report_path}: {e}"))?
    } else {
        let writer =
            ReportWriter::create(&report_path).map_err(|e| format!("{report_path}: {e}"))?;
        (writer, Vec::new())
    };
    let done: HashSet<&str> = recorded.iter().map(|r| r.job_id.as_str()).collect();
    let pending: Vec<EmbedJobSpec> = jobs
        .iter()
        .filter(|j| !done.contains(j.job_id.as_str()))
        .cloned()
        .collect();

    let metrics = Metrics::from_options(opts)?;
    let session = Embedder::builder(key, config)
        .telemetry(metrics.telemetry.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let pool = WorkerPool::with_telemetry(workers, metrics.telemetry.clone());
    let cache = TraceCache::with_telemetry(metrics.telemetry.clone());
    let started = std::time::Instant::now();

    // Each outcome streams to disk the moment it settles: the marked
    // copy first, then its report line — so an outcome line on disk
    // guarantees its `.pmvm` is on disk too, which is what lets
    // `--resume` skip the job wholesale.
    let mut stream_error: Option<String> = None;
    let outcomes = if pending.is_empty() {
        Vec::new()
    } else {
        embed_batch_with(
            &program,
            &session,
            &pending,
            &pool,
            &cache,
            &options,
            |outcome| {
                if stream_error.is_some() {
                    return;
                }
                if let Some(marked) = &outcome.marked {
                    let path = format!("{out_dir}/{}.pmvm", outcome.report.job_id);
                    if let Err(e) = save_program(&path, marked) {
                        stream_error = Some(e);
                        return;
                    }
                }
                if let Err(e) = writer.append(&outcome.report) {
                    stream_error = Some(format!("{report_path}: {e}"));
                }
            },
        )
        .map_err(|e| e.to_string())?
    };
    if let Some(error) = stream_error {
        return Err(error.into());
    }

    let resumed = recorded.len();
    let ordered = ordered_reports(&jobs, recorded, outcomes.into_iter().map(|o| o.report))?;
    let failed = ordered.iter().filter(|r| !r.status.is_ok()).count();
    writer
        .finalize(&ordered)
        .map_err(|e| format!("{report_path}: {e}"))?;
    eprintln!(
        "embedded {}/{} copies ({resumed} resumed) in {} ms with {workers} workers; \
         report: {report_path}",
        ordered.len() - failed,
        ordered.len(),
        started.elapsed().as_millis(),
    );
    // Joining the pool first guarantees every queued span has reached
    // the sink before the metrics file is finalized.
    drop(pool);
    metrics.finish()?;
    if failed > 0 {
        return Err(CliError::Usage(format!(
            "{failed} of {} embed jobs failed (see {report_path})",
            ordered.len()
        )));
    }
    Ok(())
}

fn cmd_fleet_recognize(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let dir = required(opts, "dir")?;
    let manifest_path = required(opts, "manifest")?;
    let workers = parse_workers(opts)?;
    let (key, config) = key_and_config(opts)?;
    let options = batch_options(opts)?;
    let metrics = Metrics::from_options(opts)?;
    let session = Recognizer::builder(key, config)
        .telemetry(metrics.telemetry.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("{manifest_path}: {e}"))?;
    let specs = parse_manifest(&text).map_err(|e| format!("{manifest_path}: {e}"))?;
    if specs.is_empty() {
        return Err(CliError::Usage(format!("{manifest_path}: no jobs")));
    }
    ensure_unique_job_ids(&specs)?;

    // Recognition prints its report to stdout; `--report FILE`
    // additionally persists it crash-safely, and is what `--resume`
    // resumes from.
    let resume = opts.contains_key("resume");
    if resume && !opts.contains_key("report") {
        return Err(CliError::Usage(
            "--resume requires --report FILE (the file to resume from)".into(),
        ));
    }
    let (mut writer, recorded) = match opts.get("report") {
        None => (None, Vec::new()),
        Some(path) => {
            let (writer, recorded) = if resume {
                ReportWriter::resume(path).map_err(|e| format!("{path}: {e}"))?
            } else {
                let writer = ReportWriter::create(path).map_err(|e| format!("{path}: {e}"))?;
                (writer, Vec::new())
            };
            (Some(writer), recorded)
        }
    };
    let done: HashSet<&str> = recorded.iter().map(|r| r.job_id.as_str()).collect();

    let mut jobs = Vec::new();
    for spec in &specs {
        if done.contains(spec.job_id.as_str()) {
            continue;
        }
        let program = load_program(&format!("{dir}/{}.pmvm", spec.job_id))?;
        // The expected watermark is resolved exactly as `fleet embed`
        // resolved it, so a plain manifest works as well as a report.
        let expected = match &spec.watermark_hex {
            Some(hex) => hex.clone(),
            None => to_hex(spec.watermark(session.key(), session.config())?.value()),
        };
        jobs.push(RecognizeJob {
            job_id: spec.job_id.clone(),
            program,
            expected_hex: Some(expected),
            seed: spec.effective_seed(session.key().seed),
        });
    }

    let pool = WorkerPool::with_telemetry(workers, metrics.telemetry.clone());
    let started = std::time::Instant::now();
    let mut stream_error: Option<String> = None;
    let outcomes = if jobs.is_empty() {
        Vec::new()
    } else {
        recognize_batch_with(&jobs, &session, &pool, &options, |outcome| {
            if let Some(writer) = &mut writer {
                if stream_error.is_none() {
                    if let Err(e) = writer.append(&outcome.report) {
                        stream_error = Some(format!("report: {e}"));
                    }
                }
            }
        })
    };
    if let Some(error) = stream_error {
        return Err(error.into());
    }

    let resumed = recorded.len();
    let ordered = ordered_reports(&specs, recorded, outcomes.into_iter().map(|o| o.report))?;
    let mut recovered = 0usize;
    for report in &ordered {
        println!("{}", report.to_line());
        if report.status.is_ok() {
            recovered += 1;
        }
    }
    if let Some(writer) = writer {
        writer
            .finalize(&ordered)
            .map_err(|e| format!("report: {e}"))?;
    }
    eprintln!(
        "recognized {recovered}/{} copies ({resumed} resumed) in {} ms with {workers} workers",
        ordered.len(),
        started.elapsed().as_millis(),
    );
    drop(pool);
    metrics.finish()?;
    match ExitStatus::for_recognition(recovered, ordered.len()) {
        ExitStatus::Success => Ok(()),
        _ => Err(CliError::NotFound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HashMap<String, String>, String> {
        parse_options(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn known_options_parse() {
        let opts = parse(&["--socket", "d.sock", "--resume", "--workers", "2"]).unwrap();
        assert_eq!(opts["socket"], "d.sock");
        assert_eq!(opts["resume"], "true");
        assert_eq!(opts["workers"], "2");
    }

    #[test]
    fn retired_transport_and_engine_options_are_rejected() {
        // `serve --tcp` must not silently fall back to a stdio daemon,
        // nor `--tier` / `--scan-mode` be silently ignored.
        for name in ["tcp", "tier", "scan-mode"] {
            let err = parse(&[&format!("--{name}"), "x"]).unwrap_err();
            assert!(err.contains(&format!("--{name}")), "{err}");
        }
    }

    #[test]
    fn a_typo_is_rejected_by_name() {
        let err = parse(&["--program", "a.pmvm", "--seeed", "7"]).unwrap_err();
        assert_eq!(err, "unknown option --seeed");
    }
}
