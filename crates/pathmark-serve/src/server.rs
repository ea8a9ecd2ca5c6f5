//! The resident daemon: dispatch loop, transports, and lifecycle.
//!
//! One [`Server`] owns the warm [`Registry`], the fleet [`WorkerPool`]
//! and [`TraceCache`], the [`AdmissionGate`], and the write-ahead
//! [`Journal`]. Request lines arrive from a transport —
//! [`Server::serve_stdio`] or [`Server::serve_unix`] — and dispatch on
//! that connection's thread; accepted jobs run on the pool and stream their
//! responses back in completion order (responses carry `job_id`, so
//! clients correlate). The per-job execution kernels are the *same*
//! functions the batch engine runs ([`embed_one`] / [`recognize_one`]),
//! which is what makes a serve report bit-identical (modulo `wall_ms`)
//! to the batch report for the same manifest.
//!
//! Concurrency model:
//!
//! * The socket transport accepts **one thread per connection**,
//!   bounded by [`ServeOptions::max_connections`] (excess connections
//!   wait in the kernel backlog). Each connection gets its own
//!   [`SharedWriter`] and its own [`ConnectionInflight`] scope, so a
//!   connection's EOF or transport error drains only *its* jobs —
//!   never another client's.
//! * Dedup, admission, and the intent append happen under **one**
//!   journal-lock critical section, so two connections racing the same
//!   `job_id` cannot both be accepted, and a permit can never be
//!   issued after shutdown stopped admissions. Response writes happen
//!   strictly outside that lock: a stalled reader can clog its own
//!   socket, not the dispatch path of other clients.
//! * Every mutex in the daemon recovers from poisoning
//!   (`unwrap_or_else(PoisonError::into_inner)`) — the guarded state
//!   is line-buffered or counter-shaped, so a worker panic mid-write
//!   costs one client one line, never the daemon.
//!
//! Lifecycle:
//!
//! * **accept** — journal the intent, admit past the gate (or shed),
//!   enqueue; the journal entry precedes the enqueue, so a crash never
//!   loses an acknowledged job.
//! * **crash** (`kill -9`) — the journal's intents + outcome sidecars
//!   survive; restarting with `resume: true` replays `open` intents,
//!   re-runs pending jobs, and answers duplicate submissions from the
//!   recorded outcomes ([`Counter::JobResumed`]).
//! * **graceful shutdown** (`{"op":"shutdown"}` or stdio EOF) — stop
//!   admitting, drain the gate, finalize both reports (acceptance
//!   order, fsync, atomic rename), acknowledge, sever lingering
//!   connections, exit.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use pathmark_core::java::Recognizer;
use pathmark_fleet::batch::{embed_one, recognize_one, RecognizeJob};
use pathmark_fleet::cache::TraceCache;
use pathmark_fleet::manifest::{to_hex, EmbedJobSpec, JobReport, JobStatus};
use pathmark_fleet::pool::WorkerPool;
use pathmark_fleet::retry::RetryPolicy;
use pathmark_telemetry::{Counter, Telemetry};
use stackvm::trace::TraceConfig;
use stackvm::Program;

use crate::admission::{AdmissionGate, ConnectionInflight, Permit, ShedCause};
use crate::journal::Journal;
use crate::protocol::{
    error_line, job_line, opened_line, pong_line, shed_line, shutdown_line, stats_line,
    Disposition, EmbedRequest, Op, RecognizeRequest, Request, StatsSnapshot,
};
use crate::registry::{Registry, Tenant};

/// Where responses go: a line-oriented writer shared between the
/// connection's dispatch thread and the pool workers.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Wraps a writer for concurrent response emission.
pub fn shared_writer(writer: Box<dyn Write + Send>) -> SharedWriter {
    Arc::new(Mutex::new(writer))
}

/// Locks a daemon mutex, recovering from poisoning: a panicking worker
/// tears at most its own in-progress line/update, and every guarded
/// structure (response writers, journal, counters) stays usable.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Writes one response line. Write errors are swallowed: a client that
/// hung up loses its responses, never the daemon (outcomes are already
/// journaled).
fn respond(out: &SharedWriter, line: &str) {
    let mut writer = lock(out);
    let _ = writer.write_all(line.as_bytes());
    let _ = writer.write_all(b"\n");
    let _ = writer.flush();
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Journal path prefix; the daemon owns
    /// `PREFIX.{intents,embed,recognize}.jsonl`.
    pub journal_prefix: PathBuf,
    /// Worker pool size.
    pub workers: usize,
    /// Admission ceiling: accepted-but-unsettled jobs past this are
    /// shed.
    pub max_inflight: usize,
    /// Concurrent-connection cap for the socket transports; excess
    /// connections wait in the kernel accept backlog.
    pub max_connections: usize,
    /// Rotate the journal's intents file once more than this many bytes
    /// have been appended to it since the last rotation (`None` never
    /// rotates).
    pub journal_max_bytes: Option<u64>,
    /// Resume a crashed daemon's journal instead of truncating it.
    pub resume: bool,
    /// Per-job retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Telemetry sink shared by sessions, pool, cache, gate, and
    /// journal.
    pub telemetry: Telemetry,
}

impl ServeOptions {
    /// Defaults: one worker per core, 64 in-flight jobs, 32 concurrent
    /// connections, unbounded journal, fresh journal, no retries,
    /// telemetry disabled.
    pub fn new(journal_prefix: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            journal_prefix: journal_prefix.into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_inflight: 64,
            max_connections: 32,
            journal_max_bytes: None,
            resume: false,
            retry: RetryPolicy::none(),
            telemetry: Telemetry::null(),
        }
    }
}

#[derive(Debug, Default)]
struct LifetimeCounters {
    accepted: AtomicU64,
    shed: AtomicU64,
    tenant_shed: AtomicU64,
    resumed: AtomicU64,
    completed: AtomicU64,
    /// Gauge: connections currently being served.
    connections: AtomicU64,
}

/// Whether a line is being served live or replayed from the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// A client is on the other end: journal new intents, shed on
    /// overload.
    Live,
    /// Startup replay of journaled intents: never re-journal, never
    /// shed (the intent is already a promise — block for a slot).
    Replay,
}

/// A resident recognition/embedding daemon.
pub struct Server {
    registry: Registry,
    pool: WorkerPool,
    cache: Arc<TraceCache>,
    gate: Arc<AdmissionGate>,
    journal: Arc<Mutex<Option<Journal>>>,
    /// Flipped (under the journal lock) when shutdown begins; admission
    /// happens under the same lock, so no permit postdates the flip.
    accepting: AtomicBool,
    counters: Arc<LifetimeCounters>,
    max_connections: usize,
    retry: RetryPolicy,
    telemetry: Telemetry,
}

impl Server {
    /// Builds the daemon: opens (or resumes) the journal and, when
    /// resuming, replays journaled intents — tenants are rebuilt,
    /// pending jobs re-run to completion, settled jobs counted as
    /// resumed — before the first transport line is read.
    ///
    /// # Errors
    ///
    /// Journal I/O failures, rendered as strings.
    pub fn new(options: ServeOptions) -> Result<Server, String> {
        let prefix = &options.journal_prefix;
        let (journal, replay) = if options.resume {
            Journal::resume(prefix).map_err(|e| format!("{}: {e}", prefix.display()))?
        } else {
            let journal =
                Journal::create(prefix).map_err(|e| format!("{}: {e}", prefix.display()))?;
            (journal, Vec::new())
        };
        let mut journal = journal
            .with_max_bytes(options.journal_max_bytes)
            .with_telemetry(options.telemetry.clone());
        // A resumed intents file already past the cap rotates up front:
        // a daemon whose inherited jobs all settled would otherwise never
        // append, never re-check the threshold, and carry the oversized
        // file forever.
        journal
            .rotate_if_oversized()
            .map_err(|e| format!("{}: {e}", prefix.display()))?;
        let server = Server {
            registry: Registry::new(options.telemetry.clone()),
            pool: WorkerPool::with_telemetry(options.workers, options.telemetry.clone()),
            cache: Arc::new(TraceCache::with_telemetry(options.telemetry.clone())),
            gate: Arc::new(AdmissionGate::new(
                options.max_inflight,
                options.telemetry.clone(),
            )),
            journal: Arc::new(Mutex::new(Some(journal))),
            accepting: AtomicBool::new(true),
            counters: Arc::new(LifetimeCounters::default()),
            max_connections: options.max_connections.max(1),
            retry: options.retry,
            telemetry: options.telemetry,
        };
        // Replay responses go nowhere: the clients they belonged to are
        // gone. Duplicate *re-submissions* after restart get journaled
        // answers on their own connections instead.
        let sink = shared_writer(Box::new(std::io::sink()));
        let conn = ConnectionInflight::new();
        for line in &replay {
            server.dispatch(line, &sink, Mode::Replay, &conn);
        }
        // Settle every replayed job before serving: a resumed daemon
        // that answers its first client has already kept yesterday's
        // promises.
        server.gate.drain();
        Ok(server)
    }

    /// A point-in-time counter snapshot, including the decode-cache
    /// statistics aggregated over every resident recognize session —
    /// the observable payoff of keeping sessions warm.
    pub fn stats(&self) -> StatsSnapshot {
        let cache = self.registry.decode_cache_stats();
        let journal_rotations = lock(&self.journal).as_ref().map_or(0, Journal::rotations);
        StatsSnapshot {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            tenant_shed: self.counters.tenant_shed.load(Ordering::Relaxed),
            resumed: self.counters.resumed.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            inflight: self.gate.inflight() as u64,
            queue_depth: self.pool.queue_depth() as u64,
            tenants: self.registry.count() as u64,
            connections: self.counters.connections.load(Ordering::Relaxed),
            journal_rotations,
            decode_cache_hits: cache.hits,
            decode_cache_misses: cache.misses,
            decode_cache_evictions: cache.evictions,
            decode_cache_entries: cache.entries,
        }
    }

    /// Serves one connection's request lines from `reader` until EOF or
    /// a `shutdown` request. Returns whether shutdown was requested
    /// (the journal is then finalized and the daemon should exit). On
    /// EOF — and on a transport read error, before it propagates — only
    /// *this connection's* in-flight jobs are drained, so every
    /// accepted job's response reaches the writer before the transport
    /// is torn down and a lingering client never delays another
    /// connection's goodbye.
    ///
    /// # Errors
    ///
    /// Transport read errors only — protocol defects become `error`
    /// responses.
    pub fn serve_lines<R: BufRead>(&self, reader: R, out: &SharedWriter) -> std::io::Result<bool> {
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
        let _gauge = ConnectionGauge(&self.counters.connections);
        let conn = ConnectionInflight::new();
        for line in reader.lines() {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    // Settle this connection's accepted jobs before
                    // propagating: their responses (and journal
                    // outcomes) must not be abandoned mid-air.
                    conn.drain();
                    return Err(e);
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            if self.dispatch(&line, out, Mode::Live, &conn) {
                self.shutdown(out);
                return Ok(true);
            }
        }
        conn.drain();
        Ok(false)
    }

    /// Serves stdin/stdout: the single-client transport. EOF without a
    /// `shutdown` request still drains and finalizes — closing the pipe
    /// *is* the client's goodbye.
    ///
    /// # Errors
    ///
    /// Transport read errors.
    pub fn serve_stdio(&self) -> std::io::Result<()> {
        let out = shared_writer(Box::new(std::io::stdout()));
        let shutdown = self.serve_lines(std::io::stdin().lock(), &out)?;
        if !shutdown {
            self.finish();
        }
        Ok(())
    }

    /// Serves a unix-domain socket: clients connect, stream requests,
    /// and disconnect; the daemon persists across connections (that is
    /// the point — sessions stay warm) and serves up to
    /// [`ServeOptions::max_connections`] of them concurrently. If the
    /// socket path is already occupied, a live daemon is probed for
    /// first: startup refuses (`AddrInUse`) rather than severing a
    /// running daemon's socket, and only a stale file — left by a
    /// `kill -9` — is removed. A `shutdown` request from any client
    /// finalizes the journal, severs lingering connections, removes the
    /// socket file, and returns.
    ///
    /// # Errors
    ///
    /// Socket bind/accept errors — including `AddrInUse` when a live
    /// daemon already serves this path; per-connection errors are
    /// logged to stderr and the daemon keeps accepting.
    #[cfg(unix)]
    pub fn serve_unix(&self, socket: &Path) -> std::io::Result<()> {
        use std::os::unix::net::{UnixListener, UnixStream};
        if socket.exists() {
            match UnixStream::connect(socket) {
                Ok(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!(
                            "{}: a daemon is already serving this socket",
                            socket.display()
                        ),
                    ));
                }
                // Nobody answers: the file is a previous daemon's
                // corpse and binding over it is safe.
                Err(_) => {
                    let _ = std::fs::remove_file(socket);
                }
            }
        }
        let listener = UnixListener::bind(socket)?;
        let result = self.accept_loop(&listener, socket);
        let _ = std::fs::remove_file(socket);
        result
    }

    /// The accept loop: one thread per connection under the connection
    /// cap, a shared table of open streams so shutdown can sever
    /// lingerers, and a self-connect wake so the blocking `accept`
    /// notices shutdown promptly.
    #[cfg(unix)]
    fn accept_loop(
        &self,
        listener: &std::os::unix::net::UnixListener,
        socket: &Path,
    ) -> std::io::Result<()> {
        use std::os::unix::net::UnixStream;
        let shutting = AtomicBool::new(false);
        let open: Mutex<HashMap<u64, UnixStream>> = Mutex::new(HashMap::new());
        let slots = ConnSlots::new(self.max_connections);
        std::thread::scope(|scope| {
            let mut next_id: u64 = 0;
            let result = loop {
                // Take a connection slot *before* accepting: past the
                // cap, clients queue in the kernel backlog instead of
                // getting a thread.
                slots.acquire();
                if shutting.load(Ordering::SeqCst) {
                    slots.release();
                    break Ok(());
                }
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => {
                        slots.release();
                        if shutting.load(Ordering::SeqCst) {
                            break Ok(());
                        }
                        break Err(e);
                    }
                };
                if shutting.load(Ordering::SeqCst) {
                    // The wake connection (or an unlucky client racing
                    // shutdown).
                    slots.release();
                    break Ok(());
                }
                // An independently owned read half, and a handle
                // shutdown can sever to unblock a lingering read.
                let (reader, handle) = match stream.try_clone().and_then(|r| {
                    let h = stream.try_clone()?;
                    Ok((r, h))
                }) {
                    Ok(pair) => pair,
                    Err(e) => {
                        eprintln!("serve: connection setup failed: {e}");
                        slots.release();
                        continue;
                    }
                };
                let id = next_id;
                next_id += 1;
                lock(&open).insert(id, handle);
                let out = shared_writer(Box::new(stream));
                let shutting = &shutting;
                let open = &open;
                let slots = &slots;
                scope.spawn(move || {
                    match self.serve_lines(BufReader::new(reader), &out) {
                        Ok(true) => {
                            // This client asked for shutdown (already
                            // drained + finalized): stop accepting and
                            // connect to self to kick the blocked
                            // accept.
                            shutting.store(true, Ordering::SeqCst);
                            let _ = UnixStream::connect(socket);
                        }
                        Ok(false) => {}
                        Err(e) => eprintln!("serve: connection failed: {e}"),
                    }
                    lock(open).remove(&id);
                    slots.release();
                });
            };
            // Sever whatever is still connected — a daemon told to shut
            // down (or dying on an accept error) must not be hostage to
            // a client that never hangs up. Their jobs are already
            // settled (shutdown drained the gate) or journaled.
            for (_, stream) in lock(&open).drain() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            result
        })
    }

    /// Drains in-flight jobs and finalizes the journal without a client
    /// acknowledgement — the EOF/idempotent half of shutdown.
    pub fn finish(&self) {
        // Flip under the journal lock: admission happens under this
        // lock, so once the flip is visible no new permit exists and
        // the drain below is final.
        {
            let _guard = lock(&self.journal);
            self.accepting.store(false, Ordering::SeqCst);
        }
        self.gate.drain();
        let journal = lock(&self.journal).take();
        if let Some(journal) = journal {
            if let Err(e) = journal.finalize() {
                eprintln!("serve: journal finalize failed: {e}");
            }
        }
    }

    /// The `shutdown`-request path: drain, finalize, acknowledge.
    fn shutdown(&self, out: &SharedWriter) {
        self.finish();
        respond(
            out,
            &shutdown_line(self.counters.completed.load(Ordering::Relaxed)),
        );
    }

    /// Handles one request line. Returns whether shutdown was requested.
    fn dispatch(
        &self,
        line: &str,
        out: &SharedWriter,
        mode: Mode,
        conn: &Arc<ConnectionInflight>,
    ) -> bool {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(why) => {
                respond(out, &error_line(&why));
                return false;
            }
        };
        match request {
            Request::Ping => respond(out, &pong_line()),
            Request::Stats => respond(out, &stats_line(&self.stats())),
            Request::Shutdown => return true,
            Request::Open(open) => match self.registry.open(&open) {
                Err(why) => respond(out, &error_line(&why)),
                Ok((_, warm)) => {
                    // Journal only builds: a warm hit changes nothing a
                    // resumed daemon would need to redo.
                    if mode == Mode::Live && !warm {
                        self.record_open_intent(line, out);
                    }
                    respond(out, &opened_line(&open.tenant, warm));
                }
            },
            Request::Embed(EmbedRequest {
                tenant,
                spec,
                host,
                out_dir,
            }) => self.handle_job(
                Op::Embed,
                &tenant,
                spec,
                JobInput::Embed { host, out_dir },
                line,
                out,
                mode,
                conn,
            ),
            Request::Recognize(RecognizeRequest {
                tenant,
                spec,
                program,
            }) => self.handle_job(
                Op::Recognize,
                &tenant,
                spec,
                JobInput::Recognize { program },
                line,
                out,
                mode,
                conn,
            ),
        }
        false
    }

    fn record_open_intent(&self, line: &str, out: &SharedWriter) {
        let error = {
            let mut journal = lock(&self.journal);
            match journal.as_mut() {
                Some(journal) => journal.record_open_intent(line).err(),
                None => None,
            }
        };
        if let Some(e) = error {
            respond(out, &error_line(&format!("journal: {e}")));
        }
    }

    /// The already-answerable cases of a job submission, checked under
    /// the journal lock: a foreign tenant reusing the id (journaled
    /// outcomes must not leak across tenants), a settled job (answered
    /// from the journal — the exactly-once half of at-least-once
    /// resubmission), or a live duplicate of an in-flight job.
    fn journaled_answer(
        &self,
        journal: &Journal,
        op: Op,
        tenant_name: &str,
        spec: &EmbedJobSpec,
        mode: Mode,
    ) -> Option<String> {
        if let Some(owner) = journal.owner(op, &spec.job_id) {
            if owner != tenant_name {
                return Some(error_line(&format!(
                    "{} job `{}` belongs to tenant `{owner}`",
                    op.as_str(),
                    spec.job_id
                )));
            }
        }
        if let Some(report) = journal.completed(op, &spec.job_id) {
            self.counters.resumed.fetch_add(1, Ordering::Relaxed);
            self.telemetry.count(Counter::JobResumed, 1);
            return Some(job_line(op, tenant_name, &report, Disposition::Resumed));
        }
        if mode == Mode::Live && journal.is_accepted(op, &spec.job_id) {
            return Some(error_line(&format!(
                "{} job `{}` is already in flight",
                op.as_str(),
                spec.job_id
            )));
        }
        None
    }

    /// The accept path shared by both job ops: dedup against the
    /// journal, admit past the gate, journal the intent, enqueue. For
    /// live requests dedup + admission + intent append are one
    /// journal-lock critical section (so racing connections can't
    /// double-accept a job id and shutdown can't strand a permit);
    /// the response is written strictly after the lock drops.
    #[allow(clippy::too_many_arguments)]
    fn handle_job(
        &self,
        op: Op,
        tenant_name: &str,
        spec: EmbedJobSpec,
        input: JobInput,
        line: &str,
        out: &SharedWriter,
        mode: Mode,
        conn: &Arc<ConnectionInflight>,
    ) {
        let Some(tenant) = self.registry.get(tenant_name) else {
            respond(
                out,
                &error_line(&format!("unknown tenant `{tenant_name}` (open it first)")),
            );
            return;
        };
        let permit = match mode {
            Mode::Live => {
                let decision = {
                    let mut guard = lock(&self.journal);
                    if !self.accepting.load(Ordering::SeqCst) {
                        Err(error_line("daemon is shutting down"))
                    } else {
                        match guard.as_mut() {
                            None => Err(error_line("daemon is shutting down")),
                            Some(journal) => {
                                match self.journaled_answer(journal, op, tenant_name, &spec, mode) {
                                    Some(answer) => Err(answer),
                                    None => match self.gate.try_admit(tenant_name, conn) {
                                        Err(cause) => {
                                            let scope = match cause {
                                                ShedCause::Capacity => {
                                                    self.counters
                                                        .shed
                                                        .fetch_add(1, Ordering::Relaxed);
                                                    "capacity"
                                                }
                                                ShedCause::Tenant => {
                                                    self.counters
                                                        .tenant_shed
                                                        .fetch_add(1, Ordering::Relaxed);
                                                    "tenant"
                                                }
                                            };
                                            Err(shed_line(op, tenant_name, &spec.job_id, scope))
                                        }
                                        Ok(permit) => {
                                            match journal.record_job_intent(
                                                op,
                                                tenant_name,
                                                &spec.job_id,
                                                line,
                                            ) {
                                                Ok(()) => Ok(permit),
                                                Err(e) => {
                                                    Err(error_line(&format!("journal: {e}")))
                                                }
                                            }
                                        }
                                    },
                                }
                            }
                        }
                    }
                };
                match decision {
                    Ok(permit) => permit,
                    Err(answer) => {
                        respond(out, &answer);
                        return;
                    }
                }
            }
            Mode::Replay => {
                // Replay never blocks for a slot while holding the
                // journal lock: completing jobs need that lock to
                // record their outcomes.
                let answer = {
                    let guard = lock(&self.journal);
                    match guard.as_ref() {
                        None => Some(error_line("daemon is shutting down")),
                        Some(journal) => {
                            self.journaled_answer(journal, op, tenant_name, &spec, mode)
                        }
                    }
                };
                if let Some(answer) = answer {
                    respond(out, &answer);
                    return;
                }
                self.gate.admit(conn)
            }
        };
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        self.enqueue(op, tenant, spec, input, out.clone(), permit);
    }

    /// Runs one accepted job on the pool; its report is journaled and
    /// answered in completion order.
    fn enqueue(
        &self,
        op: Op,
        tenant: Arc<Tenant>,
        spec: EmbedJobSpec,
        input: JobInput,
        out: SharedWriter,
        permit: Permit,
    ) {
        let journal = Arc::clone(&self.journal);
        let counters = Arc::clone(&self.counters);
        let cache = Arc::clone(&self.cache);
        let retry = self.retry.clone();
        let telemetry = self.telemetry.clone();
        self.pool.execute(move || {
            let report = match &input {
                JobInput::Embed { host, out_dir } => {
                    run_embed_job(&tenant, &cache, &spec, host, out_dir, &retry, &telemetry)
                }
                JobInput::Recognize { program } => {
                    run_recognize_job(&tenant, &spec, program, &retry, &telemetry)
                }
            };
            {
                let mut journal = lock(&journal);
                if let Some(journal) = journal.as_mut() {
                    if let Err(e) = journal.record_outcome(op, &report) {
                        eprintln!("serve: journal write failed for `{}`: {e}", report.job_id);
                    }
                }
            }
            counters.completed.fetch_add(1, Ordering::Relaxed);
            respond(&out, &job_line(op, &tenant.name, &report, Disposition::Fresh));
            drop(permit);
        });
    }
}

/// Decrements the connection gauge when a connection's serve loop
/// exits, however it exits.
struct ConnectionGauge<'a>(&'a AtomicU64);

impl Drop for ConnectionGauge<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The connection cap: a tiny semaphore the accept loop takes a slot
/// from before accepting, so excess clients queue in the kernel backlog
/// instead of getting threads.
struct ConnSlots {
    max: usize,
    count: Mutex<usize>,
    changed: Condvar,
}

impl ConnSlots {
    fn new(max: usize) -> ConnSlots {
        ConnSlots {
            max: max.max(1),
            count: Mutex::new(0),
            changed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut count = lock(&self.count);
        while *count >= self.max {
            count = self
                .changed
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *count += 1;
    }

    fn release(&self) {
        *lock(&self.count) -= 1;
        self.changed.notify_all();
    }
}

/// The op-specific payload of a job request.
enum JobInput {
    Embed { host: String, out_dir: String },
    Recognize { program: String },
}

fn read_file(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{path}: {e}"))
}

/// Decodes and verifies the bytes of the program file at `path`.
fn decode_verified(path: &str, bytes: &[u8]) -> Result<Program, String> {
    let program = stackvm::codec::decode_program(bytes).map_err(|e| format!("{path}: {e}"))?;
    stackvm::verify::verify(&program).map_err(|e| format!("{path}: {e}"))?;
    Ok(program)
}

fn save_program(path: &str, program: &Program) -> Result<(), String> {
    std::fs::write(path, stackvm::codec::encode_program(program)).map_err(|e| format!("{path}: {e}"))
}

/// A deterministic failure report (zero wall time, one attempt), so an
/// interrupted run and its resume agree on failed lines too.
fn failed_report(spec: &EmbedJobSpec, seed: u64, why: String) -> JobReport {
    JobReport {
        job_id: spec.job_id.clone(),
        watermark_hex: spec.watermark_hex.clone().unwrap_or_default(),
        seed,
        status: JobStatus::Failed(why),
        attempts: 1,
        wall_ms: 0,
    }
}

/// One embed job end to end: read the host file, resolve its program
/// and trace through the cache by those bytes (decoding and verifying
/// only a host the cache has not seen), run the batch engine's
/// single-job kernel, persist the marked copy *before* the report line
/// (the order `--resume` relies on).
fn run_embed_job(
    tenant: &Tenant,
    cache: &TraceCache,
    spec: &EmbedJobSpec,
    host_path: &str,
    out_dir: &str,
    retry: &RetryPolicy,
    telemetry: &Telemetry,
) -> JobReport {
    let base = &tenant.embedder;
    let seed = spec.effective_seed(base.key().seed);
    let resolved = read_file(host_path).and_then(|bytes| {
        cache.get_or_load(
            bytes,
            base.key(),
            base.config(),
            TraceConfig::full(),
            |bytes| decode_verified(host_path, bytes),
        )
    });
    let (host, trace) = match resolved {
        Ok(resolved) => resolved,
        Err(why) => return failed_report(spec, seed, why),
    };
    let outcome = embed_one(base, &host, &trace, spec, retry, telemetry);
    if let Some(marked) = &outcome.marked {
        let result = std::fs::create_dir_all(out_dir)
            .map_err(|e| format!("{out_dir}: {e}"))
            .and_then(|()| save_program(&format!("{out_dir}/{}.pmvm", spec.job_id), marked));
        if let Err(why) = result {
            return JobReport {
                status: JobStatus::Failed(why),
                ..outcome.report
            };
        }
    }
    outcome.report
}

/// One recognize job end to end: resolve the expected watermark with
/// the manifest rules, load the copy, and run the batch engine's
/// single-job kernel against the tenant's *warm* per-copy session.
fn run_recognize_job(
    tenant: &Tenant,
    spec: &EmbedJobSpec,
    program_path: &str,
    retry: &RetryPolicy,
    telemetry: &Telemetry,
) -> JobReport {
    let base: &Recognizer = &tenant.recognizer;
    let seed = spec.effective_seed(base.key().seed);
    let expected = match &spec.watermark_hex {
        Some(hex) => hex.clone(),
        None => match spec.watermark(base.key(), base.config()) {
            Ok(watermark) => to_hex(watermark.value()),
            Err(why) => return failed_report(spec, seed, why),
        },
    };
    let loaded = read_file(program_path).and_then(|bytes| decode_verified(program_path, &bytes));
    let program = match loaded {
        Ok(program) => program,
        Err(why) => return failed_report(spec, seed, why),
    };
    let job = RecognizeJob {
        job_id: spec.job_id.clone(),
        program,
        expected_hex: Some(expected),
        seed,
    };
    let warm = tenant.recognizer_for(seed);
    recognize_one(&warm, &job, retry, telemetry).report
}
