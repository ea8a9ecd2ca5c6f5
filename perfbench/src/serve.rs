//! `serve`: an operator runs the daemon. One `pathmark serve` process on
//! a unix socket, `nproc` workers, the journal on without rotation; the
//! benchmark opens `nproc` client connections. Two tenants, one per
//! bytecode host. Every connection cycles the same fixed mix: a warm
//! `open`, an `embed` with pinned seed and `W`, and `recognize`s of
//! copies from a population embedded in set-up, each with a fresh
//! `job_id`. The only workload through the socket, protocol, admission,
//! registry, journal and worker pool; its recognitions reuse warm
//! per-copy sessions.
//!
//! The traced run starts a second daemon, with `--metrics`: its traced
//! passes and attribution pings go there, its untraced passes to the
//! first, so `op.tracing_overhead` includes the cost of the daemon's own
//! instrumentation.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathmark::core::java::{Embedder, Recognizer};
use pathmark::core::key::WatermarkKey;
use pathmark::crypto::Prng;
use pathmark::fleet::batch::{embed_one, recognize_one, RecognizeJob};
use pathmark::fleet::cache::TraceCache;
use pathmark::fleet::json::{parse_object, Scalar};
use pathmark::fleet::retry::RetryPolicy;
use pathmark::telemetry::Telemetry;
use pathmark::vm::codec::{decode_program, encode_program};
use pathmark::vm::trace::{Trace, TraceConfig};
use pathmark::vm::Program;

use crate::bytecode::{self, Host, Job};
use crate::spans::{Kind, Recorder};
use crate::{mean, ratio, repeated_setup, Args, Cycle, RunOutcome, Scale, ScratchDir, Timed};

/// Rounds per pass. A round holds, per tenant, `GROUPS[tenant]` groups
/// of a warm `open`, an `embed` and `RECOGNIZES_PER_EMBED` recognitions,
/// each group on its own job; every job is embedded once in set-up and
/// once per pass. The 112 distinct copies average out how much a drawn
/// seed and `W` change a copy's cost and size.
const ROUNDS: usize = 16;

/// Groups per round for the CaffeineMark-like and Jess-like tenant. Six
/// to one keeps the median inside the CaffeineMark requests and puts p99
/// inside the Jess embeds, at their ~70th percentile rather than in
/// their tail.
const GROUPS: [usize; 2] = [6, 1];

/// The first jobs' copies are the population recognitions read; the
/// daemon keeps a warm per-copy session for each.
const RECOGNIZED: usize = 16;

/// Recognitions per `open` + `embed` in the mix.
const RECOGNIZES_PER_EMBED: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Open,
    Embed,
    Recognize,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    kind: ReqKind,
    tenant: usize,
    job: usize,
}

/// One client connection: requests go out whole lines, one at a time.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

type Fields = HashMap<String, Scalar>;

impl Conn {
    fn connect(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads its response: the round trip, and
    /// the response's fields.
    fn request(&mut self, line: &str) -> Result<(Duration, Fields), String> {
        let started = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("read: {e}"))?;
        let rtt = started.elapsed();
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        let fields = parse_object(response.trim_end())
            .map_err(|e| format!("response `{}`: {e}", response.trim_end()))?;
        Ok((rtt, fields))
    }
}

fn field<'a>(fields: &'a Fields, name: &str) -> &'a str {
    fields.get(name).and_then(Scalar::as_str).unwrap_or("")
}

fn number(fields: &Fields, name: &str) -> u64 {
    match fields.get(name) {
        Some(Scalar::Num(n)) => *n,
        _ => 0,
    }
}

/// A daemon process and its control connection; killed on drop if still
/// running.
struct Daemon {
    child: Child,
    /// Holds its socket, journal and metrics summary.
    dir: PathBuf,
    control: Conn,
    metrics: Option<PathBuf>,
}

impl Daemon {
    /// Starts a daemon in `dir`, with `--metrics` when `metered`, and
    /// waits until a ping round-trips; that connection stays open as the
    /// control connection.
    fn start(exe: &Path, dir: PathBuf, metered: bool) -> Result<Daemon, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let workers = crate::report::nproc();
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg("--journal")
            .arg(dir.join("journal"))
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", &workers.to_string()])
            .args(["--max-connections", &(workers + 1).to_string()])
            .args(["--max-inflight", "64"])
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        let metrics = metered.then(|| dir.join("metrics.json"));
        if let Some(path) = &metrics {
            cmd.arg("--metrics")
                .arg(path)
                .args(["--metrics-format", "summary"]);
        }
        let mut child = cmd.spawn().map_err(|e| format!("{}: {e}", exe.display()))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let control = loop {
            if let Ok(mut conn) = Conn::connect(&socket) {
                if let Ok((_, f)) = conn.request("{\"op\":\"ping\"}") {
                    if field(&f, "status") == "ok" {
                        break conn;
                    }
                }
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not answer a ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        Ok(Daemon {
            child,
            dir,
            control,
            metrics,
        })
    }

    fn socket(&self) -> PathBuf {
        self.dir.join("d.sock")
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn stats(&mut self) -> Result<Fields, String> {
        self.control.request("{\"op\":\"stats\"}").map(|(_, f)| f)
    }

    /// Asks the daemon to shut down and waits for it; returns its
    /// metrics summary when it was started metered.
    fn shutdown(mut self) -> Result<Option<String>, String> {
        let _ = self.control.request("{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
        match self.metrics.take() {
            None => Ok(None),
            Some(path) => std::fs::read_to_string(&path)
                .map(Some)
                .map_err(|e| format!("{}: {e}", path.display())),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One tenant: a host, its population and the in-process sessions the
/// traced run compares round trips against.
struct Tenant {
    host: Host,
    jobs: Vec<Job>,
    host_path: String,
    embedder: Embedder,
    recognizer: Recognizer,
    trace: Arc<Trace>,
    /// The population's copies as the daemon wrote them.
    copies: Vec<Vec<u8>>,
}

impl Tenant {
    fn open_line(&self) -> String {
        format!(
            "{{\"op\":\"open\",\"tenant\":\"{}\",\"seed\":{},\"input\":\"{}\",\"bits\":{},\"pieces\":{}}}",
            self.host.name,
            self.host.key_seed,
            self.host.key_input.iter().map(i64::to_string).collect::<Vec<_>>().join(","),
            self.host.config.watermark_bits,
            self.host.config.num_pieces,
        )
    }

    fn copy_path(&self, dir: &Path, job: usize) -> String {
        dir.join("population")
            .join(format!("{}.pmvm", self.jobs[job].spec.job_id))
            .display()
            .to_string()
    }
}

/// Everything set-up leaves for the timed phase.
struct Served {
    /// The daemon untraced passes run against, then, in a traced run,
    /// the metered one traced passes and pings run against.
    daemons: Vec<Daemon>,
    tenants: Vec<Tenant>,
    /// Per client connection, one connection to each daemon.
    conns: Vec<Vec<Conn>>,
    cycles: Vec<Vec<Req>>,
    /// Jobs whose copies recognitions read (the first ones).
    recognized: usize,
    dir: ScratchDir,
}

/// What one request must carry to pass its check.
fn judge(req: Req, tenant: &Tenant, fields: &Fields, dir: &Path, id: &str) -> Result<(), String> {
    let status = field(fields, "status");
    if status != "ok" {
        return Err(format!(
            "{} {:?}: status `{status}`",
            tenant.host.name, req.kind
        ));
    }
    if req.kind != ReqKind::Open && field(fields, "disposition") != "fresh" {
        return Err(format!("{id}: answered from the journal, not run"));
    }
    match req.kind {
        ReqKind::Open => Ok(()),
        ReqKind::Embed => {
            let path = dir.join("out").join(format!("{id}.pmvm"));
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let _ = std::fs::remove_file(&path);
            if bytes != tenant.copies[req.job] {
                return Err(format!("{id}: daemon copy differs from the checked copy"));
            }
            Ok(())
        }
        ReqKind::Recognize => {
            let got = field(fields, "watermark_hex");
            if got != tenant.jobs[req.job].hex() {
                return Err(format!(
                    "{id}: recognized `{got}`, drew {}",
                    tenant.jobs[req.job].hex()
                ));
            }
            Ok(())
        }
    }
}

fn request_line(req: Req, tenant: &Tenant, dir: &Path, id: &str) -> String {
    let job = &tenant.jobs[req.job];
    match req.kind {
        ReqKind::Open => tenant.open_line(),
        ReqKind::Embed => format!(
            "{{\"op\":\"embed\",\"tenant\":\"{}\",\"job_id\":\"{id}\",\"seed\":{},\"watermark_hex\":\"{}\",\"host\":\"{}\",\"out_dir\":\"{}\"}}",
            tenant.host.name,
            job.seed(),
            job.hex(),
            tenant.host_path,
            dir.join("out").display(),
        ),
        ReqKind::Recognize => format!(
            "{{\"op\":\"recognize\",\"tenant\":\"{}\",\"job_id\":\"{id}\",\"seed\":{},\"watermark_hex\":\"{}\",\"program\":\"{}\"}}",
            tenant.host.name,
            job.seed(),
            job.hex(),
            tenant.copy_path(dir, req.job),
        ),
    }
}

fn root_name(kind: ReqKind) -> &'static str {
    match kind {
        ReqKind::Open => "op.open",
        ReqKind::Embed => "op.embed",
        ReqKind::Recognize => "op.recognize",
    }
}

fn span_name(kind: ReqKind) -> &'static str {
    match kind {
        ReqKind::Open => "serve.rtt_open",
        ReqKind::Embed => "serve.rtt_embed",
        ReqKind::Recognize => "serve.rtt_recognize",
    }
}

/// In-process state one connection's traced passes compare against.
struct Local {
    /// Warm per-copy recognizers, one per tenant and population copy.
    warm: Vec<Vec<Recognizer>>,
    programs: Vec<Vec<Program>>,
}

/// One client connection's closed loop over its cycle. Untraced
/// requests go to the first daemon, traced requests and attribution
/// pings to the last: the same daemon unless the run is traced.
struct Client<'a> {
    /// Connection number, part of every job id.
    c: usize,
    /// This client's connections, one per daemon.
    conns: &'a mut [Conn],
    cycle: &'a [Req],
    tenants: &'a [Tenant],
    dir: &'a Path,
    local: &'a Local,
    /// Job id prefix of the phase. Ids are fresh across the warm-up and
    /// timed phases: a repeated id would be answered from the journal
    /// instead of run.
    phase: &'a str,
    /// Requests sent so far.
    sent: u64,
}

impl Client<'_> {
    fn next_id(&mut self) -> String {
        self.sent += 1;
        format!("{}{}-{}", self.phase, self.c, self.sent)
    }
}

impl Cycle for Client<'_> {
    fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    fn run(&mut self, i: usize) -> (Duration, Result<(), String>) {
        let req = self.cycle[i];
        let tenant = &self.tenants[req.tenant];
        let id = self.next_id();
        let started = Instant::now();
        let response = self.conns[0].request(&request_line(req, tenant, self.dir, &id));
        let latency = started.elapsed();
        let result = response.and_then(|(_, fields)| judge(req, tenant, &fields, self.dir, &id));
        (latency, result)
    }

    fn run_traced(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<(), String> {
        let req = self.cycle[i];
        let tenant = &self.tenants[req.tenant];
        let id = self.next_id();
        let conn = self.conns.last_mut().expect("a daemon connection");
        let started = Instant::now();
        let response = conn.request(&request_line(req, tenant, self.dir, &id));
        let end = Instant::now();
        // The root adds the client's own protocol work (formatting and
        // parsing) around the round trip, its one child.
        let ok = match &response {
            Ok((rtt, fields)) => {
                let ok = field(fields, "status") == "ok";
                rec.record(op, span_name(req.kind), Kind::Child, end - *rtt, end, ok);
                ok
            }
            Err(_) => false,
        };
        rec.record(op, root_name(req.kind), Kind::Root, started, end, ok);
        response.and_then(|(_, fields)| judge(req, tenant, &fields, self.dir, &id))
    }

    /// The in-process twin of the traced round trip, the same job through
    /// `embed_one`/`recognize_one` on an equally warm session, checked as
    /// the daemon's answer is; then a ping.
    fn attribute(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<(), String> {
        let req = self.cycle[i];
        let tenant = &self.tenants[req.tenant];
        let job = &tenant.jobs[req.job];
        match req.kind {
            ReqKind::Open => {}
            ReqKind::Embed => {
                let outcome = rec.time(op, "fleet.batch.embed_one", Kind::Attribution, || {
                    embed_one(
                        &tenant.embedder,
                        &tenant.host.program,
                        &tenant.trace,
                        &job.spec,
                        &RetryPolicy::none(),
                        &Telemetry::null(),
                    )
                });
                if outcome.marked.as_ref().map(encode_program).as_ref()
                    != Some(&tenant.copies[req.job])
                {
                    return Err(format!(
                        "{}: embed_one differs from the checked copy",
                        job.spec.job_id
                    ));
                }
            }
            ReqKind::Recognize => {
                let rjob = RecognizeJob {
                    job_id: job.spec.job_id.clone(),
                    program: self.local.programs[req.tenant][req.job].clone(),
                    expected_hex: Some(job.hex().to_string()),
                    seed: job.seed(),
                };
                let outcome = rec.time(op, "fleet.batch.recognize_one", Kind::Attribution, || {
                    recognize_one(
                        &self.local.warm[req.tenant][req.job],
                        &rjob,
                        &RetryPolicy::none(),
                        &Telemetry::null(),
                    )
                });
                let found = outcome.recognition.and_then(|r| r.watermark);
                if found.as_ref() != Some(&job.watermark) {
                    return Err(format!(
                        "{}: recognize_one found {found:?}",
                        job.spec.job_id
                    ));
                }
            }
        }
        let conn = self.conns.last_mut().expect("a daemon connection");
        rec.try_time(op, "serve.rtt_ping", Kind::Attribution, || {
            conn.request("{\"op\":\"ping\"}")
        })
        .map(|_| ())
    }
}

/// Bytes of a daemon's journal and report files.
fn journal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("journal"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The daemon binary: `pathmark`, built beside this executable.
///
/// # Errors
///
/// A message if it is missing.
pub fn daemon_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = exe.with_file_name("pathmark");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{}: not built", path.display()))
    }
}

fn setup(args: &Args, scale: Scale, exe: &Path) -> Result<Served, String> {
    let dir = ScratchDir::new("serve")?;
    let mut rng = Prng::from_seed(args.seed ^ 0x5E4E);
    let hosts = bytecode::hosts(&mut rng);
    let (rounds, groups) = if scale.smoke {
        (1, [1, 1])
    } else {
        (ROUNDS, GROUPS)
    };
    let cache = TraceCache::new();
    let mut tenants = Vec::new();
    for (h, host) in hosts.into_iter().enumerate() {
        let host_path = dir
            .path()
            .join(format!("{}.pmvm", host.name))
            .display()
            .to_string();
        std::fs::write(&host_path, encode_program(&host.program))
            .map_err(|e| format!("{host_path}: {e}"))?;
        let drawn =
            bytecode::draw_jobs(&mut rng, std::slice::from_ref(&host), 0, rounds * groups[h]);
        let drawn = drawn.into_iter().map(|j| Job { host: h, ..j }).collect();
        let embedder = host.embedder()?;
        let recognizer = host.recognizer()?;
        let trace = cache
            .get_or_trace(
                &host.program,
                embedder.key(),
                embedder.config(),
                TraceConfig::full(),
            )
            .map_err(|e| format!("{}: {e}", host.name))?;
        tenants.push(Tenant {
            host,
            jobs: drawn,
            host_path,
            embedder,
            recognizer,
            trace,
            copies: Vec::new(),
        });
    }

    // The daemons, each cold-opening both tenants; then every job once
    // through the first daemon itself: the copies later embeds must
    // repeat and recognitions read.
    let mut daemons = Vec::new();
    for k in 0..1 + usize::from(args.trace) {
        let mut daemon = Daemon::start(exe, dir.path().join(format!("d{k}")), k == 1)?;
        for tenant in &tenants {
            let (_, f) = daemon.control.request(&tenant.open_line())?;
            if field(&f, "status") != "ok" {
                return Err(format!("open {}: {f:?}", tenant.host.name));
            }
        }
        daemons.push(daemon);
    }
    let pop_dir = dir.path().join("population");
    for tenant in &mut tenants {
        for job in &tenant.jobs {
            let line = format!(
                "{{\"op\":\"embed\",\"tenant\":\"{}\",\"job_id\":\"{}\",\"seed\":{},\"watermark_hex\":\"{}\",\"host\":\"{}\",\"out_dir\":\"{}\"}}",
                tenant.host.name,
                job.spec.job_id,
                job.seed(),
                job.hex(),
                tenant.host_path,
                pop_dir.display(),
            );
            let (_, f) = daemons[0].control.request(&line)?;
            if field(&f, "status") != "ok" {
                return Err(format!("embed {}: {f:?}", job.spec.job_id));
            }
            let path = pop_dir.join(format!("{}.pmvm", job.spec.job_id));
            tenant
                .copies
                .push(std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }

    // Every connection cycles the same mix, starting at a different copy:
    // per round, each tenant's groups of open, embed and recognitions.
    let connections = crate::report::nproc();
    let recognized = if scale.smoke { 1 } else { RECOGNIZED };
    let cycles: Vec<Vec<Req>> = (0..connections)
        .map(|c| {
            let mut cycle = Vec::new();
            for round in 0..rounds {
                for (tenant, &count) in groups.iter().enumerate() {
                    for g in 0..count {
                        let n = round * count + g + c;
                        let job = n % (rounds * count);
                        cycle.push(Req {
                            kind: ReqKind::Open,
                            tenant,
                            job,
                        });
                        cycle.push(Req {
                            kind: ReqKind::Embed,
                            tenant,
                            job,
                        });
                        for r in 0..RECOGNIZES_PER_EMBED {
                            let job = (n + r + 1) % recognized;
                            cycle.push(Req {
                                kind: ReqKind::Recognize,
                                tenant,
                                job,
                            });
                        }
                    }
                }
            }
            cycle
        })
        .collect();
    let conns = (0..connections)
        .map(|_| {
            daemons
                .iter()
                .map(|d| Conn::connect(&d.socket()).map_err(|e| format!("connect: {e}")))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut served = Served {
        daemons,
        tenants,
        conns,
        cycles,
        recognized,
        dir,
    };

    // The untimed warm-up pass, on every connection at once, to each
    // daemon in turn.
    let locals = empty_locals(&served.tenants);
    for k in 0..served.daemons.len() {
        let warm = run_clients(
            &mut served,
            args,
            &format!("w{k}-"),
            k..k + 1,
            &locals,
            |t, _| t.passes >= 1,
        )?;
        if let Some(why) = warm.iter().flat_map(|(t, _)| t.problems.first()).next() {
            return Err(format!("warm-up: {why}"));
        }
    }
    Ok(served)
}

fn empty_locals(tenants: &[Tenant]) -> Local {
    Local {
        warm: vec![Vec::new(); tenants.len()],
        programs: vec![Vec::new(); tenants.len()],
    }
}

/// Runs every client's closed loop at once, each on its own thread over
/// its connections to `daemons`, until `done` (see [`crate::run_passes`]);
/// `phase` prefixes the job ids.
fn run_clients(
    served: &mut Served,
    args: &Args,
    phase: &str,
    daemons: std::ops::Range<usize>,
    local: &Local,
    done: impl Fn(&Timed, Duration) -> bool + Sync,
) -> Result<Vec<(Timed, Recorder)>, String> {
    let tenants = &served.tenants;
    let dir = served.dir.path();
    let cycles = &served.cycles;
    let done = &done;
    std::thread::scope(|s| {
        let handles: Vec<_> = served
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conns)| {
                let mut client = Client {
                    c,
                    conns: &mut conns[daemons.clone()],
                    cycle: &cycles[c],
                    tenants,
                    dir,
                    local,
                    phase,
                    sent: 0,
                };
                s.spawn(move || {
                    let mut rec = Recorder::new();
                    let t = crate::run_passes(&mut client, args, &mut rec, done);
                    (t, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())
            })
            .collect()
    })
}

/// Runs the `serve` workload against the `pathmark` binary `exe`.
///
/// # Errors
///
/// Set-up failures, a daemon that will not start or stop, and refused
/// percentiles.
pub fn run(
    args: &Args,
    scale: Scale,
    process_start: Instant,
    exe: &Path,
) -> Result<RunOutcome, String> {
    let (mut served, setup_times) = repeated_setup(scale, process_start, || {
        Ok(SetupGuard(Some(setup(args, scale, exe)?)))
    })?;
    let mut served = served.0.take().expect("set-up kept");

    // Checks: the daemon's copies are byte-identical to `embed_one` run
    // in-process on the same job (DESIGN.md §11), recognize under their
    // seed to the drawn W, and keep the host's behaviour.
    let mut problems = Vec::new();
    let mut insn = Vec::new();
    let mut size = Vec::new();
    for tenant in &served.tenants {
        for (j, job) in tenant.jobs.iter().enumerate() {
            let result = (|| {
                let outcome = embed_one(
                    &tenant.embedder,
                    &tenant.host.program,
                    &tenant.trace,
                    &job.spec,
                    &RetryPolicy::none(),
                    &Telemetry::null(),
                );
                let marked = outcome.marked.ok_or_else(|| {
                    format!("{}: embed_one {}", job.spec.job_id, outcome.report.status)
                })?;
                if encode_program(&marked) != tenant.copies[j] {
                    return Err(format!(
                        "{}: daemon copy differs from embed_one",
                        job.spec.job_id
                    ));
                }
                let found = bytecode::recognize_under(&tenant.host, job.seed(), &marked)?;
                if found.as_ref() != Some(&job.watermark) {
                    return Err(format!(
                        "{}: recognized {found:?}, drew {}",
                        job.spec.job_id,
                        job.hex()
                    ));
                }
                let insns = bytecode::check_semantics(&tenant.host, &marked, &job.spec.job_id)?;
                let (_, host_insns) = bytecode::run(&tenant.host.program, &tenant.host.key_input)?;
                Ok((
                    insns as f64 / host_insns as f64,
                    marked.byte_size() as f64 / tenant.host.program.byte_size() as f64,
                ))
            })();
            match result {
                Ok((i, s)) => {
                    insn.push(i);
                    size.push(s);
                }
                Err(why) => problems.push(why),
            }
        }
    }

    let local = if args.trace {
        let mut local = empty_locals(&served.tenants);
        for (t, tenant) in served.tenants.iter().enumerate() {
            for (j, job) in tenant.jobs.iter().enumerate().take(served.recognized) {
                let program = decode_program(&tenant.copies[j]).map_err(|e| e.to_string())?;
                let warm = tenant
                    .recognizer
                    .with_key(WatermarkKey::new(job.seed(), tenant.host.key_input.clone()));
                // Warm it the way the daemon's session was warmed.
                let _ = warm.recognize(&program);
                local.warm[t].push(warm);
                local.programs[t].push(program);
            }
        }
        local
    } else {
        empty_locals(&served.tenants)
    };

    // The daemon-side figures come from the last daemon: in a traced run
    // the metered one, which runs the traced requests.
    let stats_before = served.daemons.last_mut().expect("a daemon").stats()?;
    let journal_before = journal_bytes(&served.daemons.last().expect("a daemon").dir);
    let per_conn_scale = Scale {
        min_ops: scale.min_ops.div_ceil(served.conns.len().max(1)),
        ..scale
    };
    let all = 0..served.daemons.len();
    let per_conn = run_clients(&mut served, args, "t-", all, &local, |t, elapsed| {
        crate::phase_done(args, per_conn_scale, t, elapsed)
    })?;
    let journal_after = journal_bytes(&served.daemons.last().expect("a daemon").dir);
    let stats_after = served.daemons.last_mut().expect("a daemon").stats()?;
    let rss = crate::report::peak_rss_mb(&served.daemons[0].pid());

    let mut t = Timed::default();
    let mut rec = Recorder::new();
    for (conn_t, conn_rec) in per_conn {
        t.latencies.extend(conn_t.latencies);
        t.attempted += conn_t.attempted;
        t.failed += conn_t.failed;
        t.passes += conn_t.passes;
        t.wall = t.wall.max(conn_t.wall);
        for why in conn_t.problems {
            if t.problems.len() < 8 && !t.problems.contains(&why) {
                t.problems.push(why);
            }
        }
        rec.absorb(conn_rec);
    }
    let tenants = served.tenants.len();
    let recognized = served.recognized;
    let Served { daemons, dir, .. } = served;
    let mut summary = None;
    for daemon in daemons {
        summary = daemon.shutdown()?.or(summary);
    }
    drop(dir);
    let rss = rss?;

    let delta =
        |name: &str| number(&stats_after, name).saturating_sub(number(&stats_before, name)) as f64;
    let hits = delta("decode_cache_hits");
    let lookups = hits + delta("decode_cache_misses");
    let setup_misses = (tenants * (1 + recognized)) as f64;
    let summary = summary.unwrap_or_default();
    // Requests the last daemon ran in the timed phase of a traced run:
    // the traced ones, each a root span.
    let requests = rec.ops() as f64;
    let mut values = vec![
        ("serve.decode_hit_ratio", ratio(hits, lookups)),
        (
            "serve.decode_cache_entries",
            number(&stats_after, "decode_cache_entries") as f64,
        ),
        (
            "serve.journal_bytes_per_op",
            ratio(
                journal_after.saturating_sub(journal_before) as f64,
                requests,
            ),
        ),
        ("serve.queue_wait_ms", stage_mean_ms(&summary, "queue_wait")),
        // Registry session misses in the timed phase: the total less the
        // one per tenant open and per population copy set-up pays.
        (
            "core.session.derives_per_op",
            ratio(
                (summary_counter(&summary, "session_miss") - setup_misses).max(0.0),
                requests,
            ),
        ),
        (
            "serve.overhead_embed_ms",
            rec.mean_ms("serve.rtt_embed") - rec.mean_ms("fleet.batch.embed_one"),
        ),
        (
            "serve.overhead_recognize_ms",
            rec.mean_ms("serve.rtt_recognize") - rec.mean_ms("fleet.batch.recognize_one"),
        ),
    ];
    if !args.trace {
        values.clear();
    }
    crate::finish(
        args,
        scale,
        &setup_times,
        problems,
        t,
        &rec,
        (mean(&insn), mean(&size), rss),
        values,
    )
}

/// Shuts a superseded set-up's daemons down before the next set-up.
struct SetupGuard(Option<Served>);

impl Drop for SetupGuard {
    fn drop(&mut self) {
        if let Some(served) = self.0.take() {
            for daemon in served.daemons {
                let _ = daemon.shutdown();
            }
        }
    }
}

/// Mean of a stage in the daemon's `--metrics-format summary` JSON.
fn stage_mean_ms(summary: &str, stage: &str) -> f64 {
    let key = format!("\"{stage}\":{{\"count\":");
    let Some(at) = summary.find(&key) else {
        return 0.0;
    };
    let rest = &summary[at + key.len()..];
    let count = leading_number(rest);
    let total = rest
        .find("\"total_ns\":")
        .map(|i| leading_number(&rest[i + 11..]))
        .unwrap_or(0.0);
    ratio(total, count) / 1e6
}

/// A counter in the daemon's summary JSON (0 if absent).
fn summary_counter(summary: &str, counter: &str) -> f64 {
    let Some(counters) = summary.find("\"counters\":") else {
        return 0.0;
    };
    let key = format!("\"{counter}\":");
    summary[counters..]
        .find(&key)
        .map(|i| leading_number(&summary[counters + i + key.len()..]))
        .unwrap_or(0.0)
}

fn leading_number(s: &str) -> f64 {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_daemon_summary() {
        let summary = "{\"stages\":{\"queue_wait\":{\"count\":4,\"total_ns\":8000000,\"min_ns\":1}},\"counters\":{\"session_hit\":3,\"session_miss\":2}}";
        assert_eq!(stage_mean_ms(summary, "queue_wait"), 2.0);
        assert_eq!(stage_mean_ms(summary, "job_run"), 0.0);
        assert_eq!(summary_counter(summary, "session_miss"), 2.0);
    }
}
