//! End-to-end tests for the resident daemon: protocol robustness,
//! serve-vs-batch bit-identity, multi-tenant decode-cache isolation,
//! admission-control shedding (capacity and per-tenant fairness),
//! concurrent connections, journal rotation, and crash-safe resume.
//!
//! Most tests run in-process against [`Server`] with an in-memory
//! response writer — concurrent connections are scoped threads calling
//! `serve_lines`, which is exactly what the socket accept loop runs per
//! connection; the kill -9 crash state is constructed on disk the way a
//! dead daemon leaves it (intents + `.partial` sidecars, torn trailing
//! lines included). The stalled-client and stale-socket tests drive a
//! real `serve_unix` daemon over a socket; the real-process kill -9
//! path (including two live connections at kill time) is exercised by
//! the CI smoke gate in `scripts/ci.sh`.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pathmark::core::java::{Embedder, JavaConfig, Recognizer};
use pathmark::core::key::WatermarkKey;
use pathmark::fleet::batch::{embed_batch, recognize_batch, RecognizeJob};
use pathmark::fleet::cache::TraceCache;
use pathmark::fleet::json::parse_object;
use pathmark::fleet::manifest::{parse_report, EmbedJobSpec, JobReport};
use pathmark::fleet::pool::WorkerPool;
use pathmark::serve::protocol::{EmbedRequest, OpenRequest, RecognizeRequest};
use pathmark::serve::{shared_writer, ServeOptions, Server};
use pathmark::telemetry::{Counter, MemorySink, Sink, Stage, Telemetry};
use pathmark::vm::builder::{FunctionBuilder, ProgramBuilder};
use pathmark::vm::codec::encode_program;
use pathmark::vm::insn::Cond;
use pathmark::vm::Program;

const SEED: u64 = 0xF1E7_CAFE;

/// The same small looped host the fleet pipeline tests use.
fn host_program() -> Program {
    looped_host(12)
}

/// A host summing `0..bound`: other bounds give other programs.
fn looped_host(bound: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 0, 2);
    let head = f.new_label();
    let out = f.new_label();
    f.push(0).store(0);
    f.bind(head);
    f.load(0).push(bound).if_cmp(Cond::Ge, out);
    f.load(0).load(1).add().store(1);
    f.iinc(0, 1).goto(head);
    f.bind(out);
    f.load(1).print().ret_void();
    let main = pb.add_function(f.finish().unwrap());
    pb.finish(main).unwrap()
}

fn serve_key() -> WatermarkKey {
    WatermarkKey::new(SEED, vec![3, 1, 4])
}

fn serve_config() -> JavaConfig {
    JavaConfig::for_watermark_bits(64).with_pieces(12)
}

fn open_line(tenant: &str) -> String {
    OpenRequest {
        tenant: tenant.to_string(),
        seed: SEED,
        input: vec![3, 1, 4],
        bits: 64,
        pieces: Some(12),
        cache_cap: None,
    }
    .to_line()
}

fn embed_line(tenant: &str, job_id: &str, host: &str, out_dir: &str) -> String {
    EmbedRequest {
        tenant: tenant.to_string(),
        spec: EmbedJobSpec::new(job_id),
        host: host.to_string(),
        out_dir: out_dir.to_string(),
    }
    .to_line()
}

fn recognize_line(tenant: &str, spec: EmbedJobSpec, program: &str) -> String {
    RecognizeRequest {
        tenant: tenant.to_string(),
        spec,
        program: program.to_string(),
    }
    .to_line()
}

/// An in-memory response writer the test can read back as lines.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Capture {
    fn lines(&self) -> Vec<String> {
        String::from_utf8(self.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn field(line: &str, name: &str) -> String {
        let fields = parse_object(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        match fields.get(name) {
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .or_else(|| v.as_u64().map(|n| n.to_string()))
                .unwrap(),
            None => panic!("no `{name}` in {line}"),
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pathmark-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_host(dir: &std::path::Path) -> String {
    let path = dir.join("host.pmvm");
    std::fs::write(&path, encode_program(&host_program())).unwrap();
    path.to_str().unwrap().to_string()
}

/// Feeds request lines to the server, returning the responses produced
/// by this batch (EOF drains the gate, so every accepted job answers).
fn drive(server: &Server, capture: &Capture, lines: &[String]) -> Vec<String> {
    let before = capture.lines().len();
    let input = lines.join("\n");
    let out = shared_writer(Box::new(capture.clone()));
    server
        .serve_lines(Cursor::new(input.into_bytes()), &out)
        .unwrap();
    capture.lines()[before..].to_vec()
}

/// Report lines with `wall_ms` zeroed — the one nondeterministic field.
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

/// Normalized report lines, sorted: acceptance order is nondeterministic
/// when two connections submit concurrently, so bit-identity across
/// concurrent runs is asserted on the sorted line sets.
fn sorted_normalized(reports: &[JobReport]) -> Vec<String> {
    let mut lines = normalized_lines(reports);
    lines.sort();
    lines
}

/// Polls until the daemon answers on `sock`, returning the connected
/// client. A fresh or stale-but-unreclaimed socket refuses the connect,
/// so retrying covers daemon startup.
#[cfg(unix)]
fn connect_when_up(sock: &std::path::Path) -> std::os::unix::net::UnixStream {
    for _ in 0..500 {
        if let Ok(stream) = std::os::unix::net::UnixStream::connect(sock) {
            return stream;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never came up on {}", sock.display());
}

#[test]
fn malformed_lines_get_structured_errors_and_the_daemon_survives() {
    let dir = temp_dir("robust");
    let server = Server::new(ServeOptions::new(dir.join("journal/serve"))).unwrap();
    let capture = Capture::default();
    let responses = drive(
        &server,
        &capture,
        &[
            "this is not json".to_string(),
            "{\"op\":\"teleport\"}".to_string(),
            "{\"op\":\"embed\"}".to_string(),
            recognize_line("ghost", EmbedJobSpec::new("j"), "nowhere.pmvm"),
            "{\"op\":\"ping\"}".to_string(),
            "{\"op\":\"shutdown\"}".to_string(),
        ],
    );
    assert_eq!(responses.len(), 6, "one response per line: {responses:?}");
    for bad in &responses[..4] {
        assert_eq!(Capture::field(bad, "op"), "error", "{bad}");
        assert!(
            Capture::field(bad, "status").starts_with("failed: "),
            "{bad}"
        );
    }
    // The daemon outlived every defect: the probe and the clean
    // shutdown both answer.
    assert_eq!(Capture::field(&responses[4], "op"), "ping");
    assert_eq!(Capture::field(&responses[4], "status"), "ok");
    assert_eq!(Capture::field(&responses[5], "op"), "shutdown");
    assert_eq!(Capture::field(&responses[5], "status"), "ok");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_reports_and_copies_are_bit_identical_to_batch() {
    let dir = temp_dir("bitident");
    let host_path = write_host(&dir);
    let jobs: Vec<EmbedJobSpec> = (0..5)
        .map(|i| EmbedJobSpec::new(format!("copy-{i:03}")))
        .collect();

    // The reference: the batch engine over the same manifest.
    let embedder = Embedder::builder(serve_key(), serve_config()).build().unwrap();
    let recognizer = Recognizer::builder(serve_key(), serve_config()).build().unwrap();
    let pool = WorkerPool::new(4);
    let cache = TraceCache::new();
    let batch_embeds = embed_batch(&host_program(), &embedder, &jobs, &pool, &cache).unwrap();
    let rec_jobs: Vec<RecognizeJob> = batch_embeds
        .iter()
        .map(|o| RecognizeJob::try_from(o).unwrap())
        .collect();
    let batch_recs = recognize_batch(&rec_jobs, &recognizer, &pool);

    // The daemon, fed the manifest over the wire.
    let marked_dir = dir.join("marked").to_str().unwrap().to_string();
    let server = Server::new(ServeOptions::new(dir.join("journal/serve"))).unwrap();
    let capture = Capture::default();
    let embeds: Vec<String> = jobs
        .iter()
        .map(|j| embed_line("acme", &j.job_id, &host_path, &marked_dir))
        .collect();
    let mut batch1 = vec![open_line("acme")];
    batch1.extend(embeds);
    drive(&server, &capture, &batch1);
    // The EOF drain settled every embed, so the marked copies are on
    // disk and recognizable.
    let mut batch2: Vec<String> = jobs
        .iter()
        .map(|j| {
            recognize_line(
                "acme",
                j.clone(),
                &format!("{marked_dir}/{}.pmvm", j.job_id),
            )
        })
        .collect();
    batch2.push("{\"op\":\"shutdown\"}".to_string());
    drive(&server, &capture, &batch2);

    // Finalized serve reports equal batch reports, modulo wall_ms.
    let prefix = dir.join("journal/serve");
    let serve_embeds = parse_report(
        &std::fs::read_to_string(prefix.with_file_name("serve.embed.jsonl")).unwrap(),
    )
    .unwrap();
    let serve_recs = parse_report(
        &std::fs::read_to_string(prefix.with_file_name("serve.recognize.jsonl")).unwrap(),
    )
    .unwrap();
    let batch_embed_reports: Vec<JobReport> =
        batch_embeds.iter().map(|o| o.report.clone()).collect();
    let batch_rec_reports: Vec<JobReport> = batch_recs.iter().map(|o| o.report.clone()).collect();
    assert_eq!(normalized_lines(&serve_embeds), normalized_lines(&batch_embed_reports));
    assert_eq!(normalized_lines(&serve_recs), normalized_lines(&batch_rec_reports));
    assert!(serve_recs.iter().all(|r| r.status.is_ok()));

    // And the marked programs themselves are byte-identical.
    for (job, outcome) in jobs.iter().zip(&batch_embeds) {
        let served = std::fs::read(format!("{marked_dir}/{}.pmvm", job.job_id)).unwrap();
        assert_eq!(
            served,
            encode_program(outcome.marked.as_ref().unwrap()),
            "{}",
            job.job_id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenants_never_share_decode_cache_entries() {
    let dir = temp_dir("isolation");
    let host_path = write_host(&dir);
    let marked_dir = dir.join("marked").to_str().unwrap().to_string();
    let sink = Arc::new(MemorySink::new());
    let mut options = ServeOptions::new(dir.join("journal/serve"));
    options.telemetry = Telemetry::new(sink.clone());
    let server = Server::new(options).unwrap();
    let capture = Capture::default();

    // Tenant A embeds one copy, then recognizes it: the scan decrypts
    // windows and fills A's decode cache.
    let copy = format!("{marked_dir}/copy-000.pmvm");
    drive(
        &server,
        &capture,
        &[
            open_line("tenant-a"),
            embed_line("tenant-a", "copy-000", &host_path, &marked_dir),
        ],
    );
    drive(
        &server,
        &capture,
        &[recognize_line("tenant-a", EmbedJobSpec::new("copy-000"), &copy)],
    );
    let after_first = sink.counter(Counter::WindowsDecrypted);
    assert!(after_first > 0, "the first scan decrypts windows");

    // The same copy again under A (fresh job_id, same per-copy seed):
    // the warm per-copy session answers every window from its decode
    // cache — zero new decrypts.
    let warm_spec = EmbedJobSpec {
        job_id: "copy-000-again".to_string(),
        watermark_hex: None,
        seed: Some(EmbedJobSpec::new("copy-000").effective_seed(SEED)),
    };
    let responses = drive(
        &server,
        &capture,
        &[recognize_line("tenant-a", warm_spec, &copy)],
    );
    assert_eq!(Capture::field(&responses[0], "status"), "ok");
    assert_eq!(
        sink.counter(Counter::WindowsDecrypted),
        after_first,
        "a warm tenant re-scan decrypts nothing"
    );
    assert!(sink.counter(Counter::SessionHit) >= 1, "the warm session was reused");

    // Tenant B opens the *same key material* under its own handle.
    // Reusing A's job_id is refused outright — answering B from A's
    // journaled outcome would leak results across tenants.
    let responses = drive(
        &server,
        &capture,
        &[
            open_line("tenant-b"),
            recognize_line("tenant-b", EmbedJobSpec::new("copy-000"), &copy),
        ],
    );
    assert_eq!(Capture::field(&responses[1], "op"), "error");
    assert!(
        Capture::field(&responses[1], "status").contains("belongs to tenant `tenant-a`"),
        "{}",
        responses[1]
    );

    // B scans the same copy under its own job id: if tenants shared
    // decode-cache entries this would decrypt nothing — isolation means
    // B pays full price even for identical key material.
    let b_spec = EmbedJobSpec {
        job_id: "b-scan".to_string(),
        watermark_hex: None,
        seed: Some(EmbedJobSpec::new("copy-000").effective_seed(SEED)),
    };
    let responses = drive(
        &server,
        &capture,
        &[recognize_line("tenant-b", b_spec, &copy)],
    );
    assert_eq!(Capture::field(&responses[0], "status"), "ok");
    assert!(
        sink.counter(Counter::WindowsDecrypted) > after_first,
        "tenant B's scan does its own decode work: no cross-tenant sharing"
    );
    server.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_surface_decode_cache_behavior() {
    let dir = temp_dir("cachestats");
    let host_path = write_host(&dir);
    let marked_dir = dir.join("marked").to_str().unwrap().to_string();
    let server = Server::new(ServeOptions::new(dir.join("journal/serve"))).unwrap();
    let capture = Capture::default();
    let copy = format!("{marked_dir}/copy-000.pmvm");

    let stat = |responses: &[String]| -> Vec<u64> {
        let line = responses
            .iter()
            .find(|r| Capture::field(r, "op") == "stats")
            .unwrap();
        [
            "decode_cache_hits",
            "decode_cache_misses",
            "decode_cache_evictions",
            "decode_cache_entries",
        ]
        .iter()
        .map(|f| Capture::field(line, f).parse::<u64>().unwrap())
        .collect()
    };

    // Before any scan: every decode-cache number is zero.
    let responses = drive(
        &server,
        &capture,
        &[
            open_line("acme"),
            "{\"op\":\"stats\"}".to_string(),
            embed_line("acme", "copy-000", &host_path, &marked_dir),
        ],
    );
    assert_eq!(stat(&responses), vec![0, 0, 0, 0]);

    // One recognize fills the warm session's cache: misses and resident
    // entries appear in the stats response. Stats are requested on a
    // separate connection — within one batch the daemon answers `stats`
    // before queued scans settle.
    drive(
        &server,
        &capture,
        &[recognize_line("acme", EmbedJobSpec::new("copy-000"), &copy)],
    );
    let responses = drive(&server, &capture, &["{\"op\":\"stats\"}".to_string()]);
    let after_first = stat(&responses);
    assert!(after_first[1] > 0, "first scan misses: {after_first:?}");
    assert!(after_first[3] > 0, "decodes stay resident: {after_first:?}");

    // Re-scanning the same copy under the warm session hits the cache;
    // misses stay flat.
    let warm_spec = EmbedJobSpec {
        job_id: "copy-000-again".to_string(),
        watermark_hex: None,
        seed: Some(EmbedJobSpec::new("copy-000").effective_seed(SEED)),
    };
    drive(&server, &capture, &[recognize_line("acme", warm_spec, &copy)]);
    let responses = drive(&server, &capture, &["{\"op\":\"stats\"}".to_string()]);
    let after_second = stat(&responses);
    assert!(
        after_second[0] > after_first[0],
        "warm re-scan hits the cache: {after_second:?}"
    );
    assert_eq!(
        after_second[1], after_first[1],
        "warm re-scan adds no misses: {after_second:?}"
    );
    server.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon whose trace-cache counters land in the returned sink.
fn metered_server(dir: &std::path::Path) -> (Server, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let mut options = ServeOptions::new(dir.join("journal/serve"));
    options.telemetry = Telemetry::new(sink.clone());
    (Server::new(options).unwrap(), sink)
}

#[test]
fn two_embeds_of_one_host_decode_it_once() {
    let dir = temp_dir("residenthost");
    let host_path = write_host(&dir);
    let marked_dir = dir.join("marked").to_str().unwrap().to_string();
    let (server, sink) = metered_server(&dir);
    let capture = Capture::default();
    // One connection per embed: each drains before the next, so the
    // second cannot race the first on a cold entry.
    for (i, job) in ["copy-000", "copy-001"].into_iter().enumerate() {
        let mut lines = vec![embed_line("acme", job, &host_path, &marked_dir)];
        if i == 0 {
            lines.insert(0, open_line("acme"));
        }
        let responses = drive(&server, &capture, &lines);
        let answer = responses.last().unwrap();
        assert_eq!(Capture::field(answer, "status"), "ok", "{answer}");
    }
    assert_eq!(sink.counter(Counter::CacheMiss), 1, "decoded and traced once");
    assert_eq!(sink.counter(Counter::CacheHit), 1);
    server.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rewritten_host_file_is_embedded_as_the_new_program() {
    use pathmark::fleet::batch::embed_one;
    use pathmark::fleet::retry::RetryPolicy;
    use pathmark::vm::trace::TraceConfig;

    let dir = temp_dir("rewrittenhost");
    let host_path = write_host(&dir);
    let marked_dir = dir.join("marked").to_str().unwrap().to_string();
    let (server, sink) = metered_server(&dir);
    let capture = Capture::default();
    drive(
        &server,
        &capture,
        &[
            open_line("acme"),
            embed_line("acme", "copy-000", &host_path, &marked_dir),
        ],
    );
    // Same path, other program.
    let rewritten = looped_host(20);
    std::fs::write(&host_path, encode_program(&rewritten)).unwrap();
    let responses = drive(
        &server,
        &capture,
        &[embed_line("acme", "copy-001", &host_path, &marked_dir)],
    );
    assert_eq!(Capture::field(&responses[0], "status"), "ok", "{responses:?}");
    assert_eq!(sink.counter(Counter::CacheMiss), 2, "new bytes, new entry");

    // In-process reference: the batch kernel on the rewritten program.
    let embedder = Embedder::builder(serve_key(), serve_config()).build().unwrap();
    let trace = TraceCache::new()
        .get_or_trace(&rewritten, &serve_key(), &serve_config(), TraceConfig::full())
        .unwrap();
    let spec = EmbedJobSpec::new("copy-001");
    let expected = embed_one(
        &embedder,
        &Arc::new(rewritten),
        &trace,
        &spec,
        &RetryPolicy::none(),
        &Telemetry::null(),
    );
    let served = std::fs::read(format!("{marked_dir}/copy-001.pmvm")).unwrap();
    assert_eq!(served, encode_program(expected.marked.as_ref().unwrap()));
    let first = std::fs::read(format!("{marked_dir}/copy-000.pmvm")).unwrap();
    assert_ne!(served.len(), first.len(), "the copies come from different hosts");
    server.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_host_fails_alike_on_every_request_and_is_never_cached() {
    let dir = temp_dir("badhost");
    let marked_dir = dir.join("marked").to_str().unwrap().to_string();
    let undecodable = dir.join("garbage.pmvm");
    std::fs::write(&undecodable, b"not a program").unwrap();
    // Decodes, but names an entry function that does not exist.
    let unverifiable = dir.join("unverifiable.pmvm");
    let mut program = host_program();
    program.entry = pathmark::vm::FuncId(7);
    std::fs::write(&unverifiable, encode_program(&program)).unwrap();

    let (server, sink) = metered_server(&dir);
    let capture = Capture::default();
    drive(&server, &capture, &[open_line("acme")]);
    let mut job = 0;
    for path in [&undecodable, &unverifiable] {
        let path = path.to_str().unwrap();
        let mut statuses = Vec::new();
        for _ in 0..2 {
            let id = format!("bad-{job}");
            job += 1;
            let responses = drive(
                &server,
                &capture,
                &[embed_line("acme", &id, path, &marked_dir)],
            );
            statuses.push(Capture::field(&responses[0], "status"));
        }
        assert!(statuses[0].starts_with("failed: "), "{statuses:?}");
        assert!(statuses[0].contains(path), "{statuses:?}");
        assert_eq!(statuses[0], statuses[1], "the same error each time");
    }
    assert_eq!(sink.counter(Counter::CacheMiss), 4, "every request missed");
    assert_eq!(sink.counter(Counter::CacheHit), 0, "nothing was cached");

    // Repaired in place, the host embeds: the failures left no entry.
    std::fs::write(&unverifiable, encode_program(&host_program())).unwrap();
    let responses = drive(
        &server,
        &capture,
        &[embed_line("acme", "fixed", unverifiable.to_str().unwrap(), &marked_dir)],
    );
    assert_eq!(Capture::field(&responses[0], "status"), "ok", "{responses:?}");
    server.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_is_shed_with_a_distinct_status_and_resubmission_completes() {
    let dir = temp_dir("shed");
    let host_path = write_host(&dir);
    let marked_dir = dir.join("marked").to_str().unwrap().to_string();
    let mut options = ServeOptions::new(dir.join("journal/serve"));
    options.workers = 1;
    options.max_inflight = 1;
    let server = Server::new(options).unwrap();
    let capture = Capture::default();

    let jobs: Vec<String> = (0..6)
        .map(|i| embed_line("acme", &format!("copy-{i:03}"), &host_path, &marked_dir))
        .collect();
    let mut batch = vec![open_line("acme")];
    batch.extend(jobs.clone());
    let responses = drive(&server, &capture, &batch);
    let shed: Vec<&String> = responses[1..]
        .iter()
        .filter(|r| Capture::field(r, "status") == "shed")
        .collect();
    let fresh = responses[1..]
        .iter()
        .filter(|r| parse_object(r).unwrap().contains_key("disposition"))
        .count();
    assert_eq!(shed.len() + fresh, 6, "every job answered: {responses:?}");
    assert!(!shed.is_empty(), "a 1-deep gate sheds a 6-job burst");
    assert!(fresh >= 1, "the admitted job completes");
    for line in &shed {
        assert!(
            parse_object(line).unwrap().contains_key("job_id"),
            "shed responses name the job so clients can resubmit: {line}"
        );
    }

    // Shed means *not accepted*: backing off and resubmitting the same
    // lines runs the shed jobs and answers the settled ones from the
    // journal. A resubmitted burst can shed again, so clients loop.
    let mut total_shed = shed.len();
    loop {
        let responses = drive(&server, &capture, &jobs);
        let sheds = responses
            .iter()
            .filter(|r| Capture::field(r, "status") == "shed")
            .count();
        total_shed += sheds;
        if sheds == 0 {
            break;
        }
    }
    let responses = drive(
        &server,
        &capture,
        &["{\"op\":\"stats\"}".to_string(), "{\"op\":\"shutdown\"}".to_string()],
    );
    let stats = responses
        .iter()
        .find(|r| Capture::field(r, "op") == "stats")
        .unwrap();
    assert_eq!(
        Capture::field(stats, "shed").parse::<usize>().unwrap(),
        total_shed
    );
    assert!(Capture::field(stats, "resumed").parse::<u64>().unwrap() >= 1);

    let report = parse_report(
        &std::fs::read_to_string(dir.join("journal/serve.embed.jsonl")).unwrap(),
    )
    .unwrap();
    assert_eq!(report.len(), 6, "all six jobs eventually settled");
    assert!(report.iter().all(|r| r.status.is_ok()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crashed_daemon_resumes_to_a_bit_identical_report() {
    let dir = temp_dir("crash");
    let host_path = write_host(&dir);
    let jobs: Vec<EmbedJobSpec> = (0..4)
        .map(|i| EmbedJobSpec::new(format!("copy-{i:03}")))
        .collect();

    // The reference: one uninterrupted daemon runs all four jobs.
    let ref_dir = dir.join("marked-ref").to_str().unwrap().to_string();
    {
        let server = Server::new(ServeOptions::new(dir.join("ref/serve"))).unwrap();
        let capture = Capture::default();
        let mut batch = vec![open_line("acme")];
        batch.extend(jobs.iter().map(|j| embed_line("acme", &j.job_id, &host_path, &ref_dir)));
        batch.push("{\"op\":\"shutdown\"}".to_string());
        drive(&server, &capture, &batch);
    }
    let reference = parse_report(
        &std::fs::read_to_string(dir.join("ref/serve.embed.jsonl")).unwrap(),
    )
    .unwrap();
    assert_eq!(reference.len(), 4);

    // The crash: a daemon accepts and settles three jobs, then dies
    // without finalizing (dropped mid-service). The fourth job was
    // accepted — its intent is journaled — but never ran, and the kill
    // tears a trailing line in both the intents file and the outcome
    // sidecar.
    let crash_dir = dir.join("marked-crash").to_str().unwrap().to_string();
    let prefix = dir.join("crash/serve");
    {
        let server = Server::new(ServeOptions::new(&prefix)).unwrap();
        let capture = Capture::default();
        let mut batch = vec![open_line("acme")];
        batch.extend(
            jobs[..3]
                .iter()
                .map(|j| embed_line("acme", &j.job_id, &host_path, &crash_dir)),
        );
        drive(&server, &capture, &batch);
        // No shutdown, no finish: dropping the server is the crash.
    }
    let intents = prefix.with_file_name("serve.intents.jsonl");
    let mut text = std::fs::read_to_string(&intents).unwrap();
    text.push_str(&embed_line("acme", "copy-003", &host_path, &crash_dir));
    text.push('\n');
    text.push_str("{\"op\":\"embed\",\"tenant\":\"acme\",\"job_id\":\"to");
    std::fs::write(&intents, &text).unwrap();
    let sidecar = prefix.with_file_name("serve.embed.jsonl.partial");
    let mut text = std::fs::read_to_string(&sidecar).unwrap();
    text.push_str("{\"job_id\":\"copy-0");
    std::fs::write(&sidecar, &text).unwrap();

    // Restart with --resume: the journal replay rebuilds the tenant and
    // runs the pending fourth job before the first client line; the
    // client then resubmits everything (at-least-once) and every answer
    // comes from the journal.
    let mut options = ServeOptions::new(&prefix);
    options.resume = true;
    let server = Server::new(options).unwrap();
    let capture = Capture::default();
    let mut batch = vec![open_line("acme")];
    batch.extend(jobs.iter().map(|j| embed_line("acme", &j.job_id, &host_path, &crash_dir)));
    batch.push("{\"op\":\"shutdown\"}".to_string());
    let responses = drive(&server, &capture, &batch);
    for line in &responses[1..5] {
        assert_eq!(
            Capture::field(line, "disposition"),
            "resumed",
            "a resubmitted settled job is answered from the journal: {line}"
        );
    }

    // The resumed daemon's finalized report is line-for-line the
    // uninterrupted daemon's report, and the marked copies match bytes.
    let resumed = parse_report(
        &std::fs::read_to_string(prefix.with_file_name("serve.embed.jsonl")).unwrap(),
    )
    .unwrap();
    assert_eq!(normalized_lines(&resumed), normalized_lines(&reference));
    assert!(
        !intents.exists(),
        "finalize retires the intents file on the resumed run too"
    );
    for job in &jobs {
        let reference = std::fs::read(format!("{ref_dir}/{}.pmvm", job.job_id)).unwrap();
        let crashed = std::fs::read(format!("{crash_dir}/{}.pmvm", job.job_id)).unwrap();
        assert_eq!(reference, crashed, "{}", job.job_id);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_concurrent_clients_interleave_and_match_batch_bit_identically() {
    let dir = temp_dir("twoclient");
    let host_path = write_host(&dir);
    let jobs: Vec<EmbedJobSpec> = (0..6)
        .map(|i| EmbedJobSpec::new(format!("copy-{i:03}")))
        .collect();

    // The reference: the batch engine over the same six jobs.
    let embedder = Embedder::builder(serve_key(), serve_config()).build().unwrap();
    let recognizer = Recognizer::builder(serve_key(), serve_config()).build().unwrap();
    let pool = WorkerPool::new(4);
    let cache = TraceCache::new();
    let batch_embeds = embed_batch(&host_program(), &embedder, &jobs, &pool, &cache).unwrap();
    let rec_jobs: Vec<RecognizeJob> = batch_embeds
        .iter()
        .map(|o| RecognizeJob::try_from(o).unwrap())
        .collect();
    let batch_recs = recognize_batch(&rec_jobs, &recognizer, &pool);

    let marked_dir = dir.join("marked").to_str().unwrap().to_string();
    let server = Server::new(ServeOptions::new(dir.join("journal/serve"))).unwrap();
    let control = Capture::default();
    drive(&server, &control, &[open_line("acme")]);

    // Two clients embed disjoint halves concurrently — each scoped
    // thread runs `serve_lines`, exactly what the accept loop runs per
    // socket connection, with its own response writer.
    let half_a: Vec<&EmbedJobSpec> = jobs.iter().step_by(2).collect();
    let half_b: Vec<&EmbedJobSpec> = jobs.iter().skip(1).step_by(2).collect();
    let embed_lines = |half: &[&EmbedJobSpec]| -> Vec<String> {
        half.iter()
            .map(|j| embed_line("acme", &j.job_id, &host_path, &marked_dir))
            .collect()
    };
    let expect_ids = |half: &[&EmbedJobSpec]| -> Vec<String> {
        let mut ids: Vec<String> = half.iter().map(|j| j.job_id.clone()).collect();
        ids.sort();
        ids
    };
    // Each connection's responses carry exactly its own job_ids — that
    // is how clients correlate answers on a shared daemon.
    let answered_ids = |capture: &Capture, op: &str| -> Vec<String> {
        let mut ids: Vec<String> = capture
            .lines()
            .iter()
            .map(|l| {
                assert_eq!(Capture::field(l, "op"), op, "{l}");
                assert_eq!(Capture::field(l, "status"), "ok", "{l}");
                assert_eq!(Capture::field(l, "disposition"), "fresh", "{l}");
                Capture::field(l, "job_id")
            })
            .collect();
        ids.sort();
        ids
    };
    let (lines_a, lines_b) = (embed_lines(&half_a), embed_lines(&half_b));
    let (capture_a, capture_b) = (Capture::default(), Capture::default());
    std::thread::scope(|scope| {
        scope.spawn(|| drive(&server, &capture_a, &lines_a));
        scope.spawn(|| drive(&server, &capture_b, &lines_b));
    });
    assert_eq!(answered_ids(&capture_a, "embed"), expect_ids(&half_a));
    assert_eq!(answered_ids(&capture_b, "embed"), expect_ids(&half_b));

    // Both EOF drains settled, so the copies are on disk: the clients
    // now recognize concurrently, each scanning the *other's* copies.
    let rec_lines = |half: &[&EmbedJobSpec]| -> Vec<String> {
        half.iter()
            .map(|j| {
                recognize_line(
                    "acme",
                    (*j).clone(),
                    &format!("{marked_dir}/{}.pmvm", j.job_id),
                )
            })
            .collect()
    };
    let (lines_a, lines_b) = (rec_lines(&half_b), rec_lines(&half_a));
    let (capture_a, capture_b) = (Capture::default(), Capture::default());
    std::thread::scope(|scope| {
        scope.spawn(|| drive(&server, &capture_a, &lines_a));
        scope.spawn(|| drive(&server, &capture_b, &lines_b));
    });
    assert_eq!(answered_ids(&capture_a, "recognize"), expect_ids(&half_b));
    assert_eq!(answered_ids(&capture_b, "recognize"), expect_ids(&half_a));
    drive(&server, &control, &["{\"op\":\"shutdown\"}".to_string()]);

    // Finalized reports equal the batch engine's, modulo wall_ms and
    // acceptance order; the marked programs match byte for byte.
    let prefix = dir.join("journal/serve");
    let serve_embeds = parse_report(
        &std::fs::read_to_string(prefix.with_file_name("serve.embed.jsonl")).unwrap(),
    )
    .unwrap();
    let serve_recs = parse_report(
        &std::fs::read_to_string(prefix.with_file_name("serve.recognize.jsonl")).unwrap(),
    )
    .unwrap();
    let batch_embed_reports: Vec<JobReport> =
        batch_embeds.iter().map(|o| o.report.clone()).collect();
    let batch_rec_reports: Vec<JobReport> = batch_recs.iter().map(|o| o.report.clone()).collect();
    assert_eq!(sorted_normalized(&serve_embeds), sorted_normalized(&batch_embed_reports));
    assert_eq!(sorted_normalized(&serve_recs), sorted_normalized(&batch_rec_reports));
    for (job, outcome) in jobs.iter().zip(&batch_embeds) {
        let served = std::fs::read(format!("{marked_dir}/{}.pmvm", job.job_id)).unwrap();
        assert_eq!(
            served,
            encode_program(outcome.marked.as_ref().unwrap()),
            "{}",
            job.job_id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn a_stalled_client_does_not_block_another_clients_ping() {
    let dir = temp_dir("stall");
    let sock = dir.join("daemon.sock");
    let server = Server::new(ServeOptions::new(dir.join("journal/serve"))).unwrap();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve_unix(&sock));
        // Client 1 stalls mid-line: the daemon's reader for this
        // connection blocks inside its line read and stays there.
        let mut stalled = connect_when_up(&sock);
        stalled.write_all(b"{\"op\":\"ping\"").unwrap();
        stalled.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));

        // Client 2's ping round-trips while client 1 is mid-read. The
        // read timeout bounds the test; a one-client-at-a-time accept
        // loop would never even accept this connection.
        let ping = connect_when_up(&sock);
        ping.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut requests = ping.try_clone().unwrap();
        let mut responses = BufReader::new(ping);
        requests.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut line = String::new();
        responses.read_line(&mut line).unwrap();
        assert_eq!(Capture::field(line.trim(), "op"), "ping");
        assert_eq!(Capture::field(line.trim(), "status"), "ok");

        // Shutdown over client 2: the daemon severs the stalled
        // connection instead of waiting forever for its line to finish.
        requests.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        line.clear();
        responses.read_line(&mut line).unwrap();
        assert_eq!(Capture::field(line.trim(), "op"), "shutdown");
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 16];
        let severed = stalled.read(&mut buf);
        assert!(
            matches!(severed, Ok(0) | Err(_)),
            "the stalled connection is severed on shutdown: {severed:?}"
        );
        daemon.join().unwrap().unwrap();
    });
    assert!(!sock.exists(), "a clean exit removes the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A test-only sink around a [`MemorySink`]. While armed, it holds the
/// worker that records a scan span until the dispatch thread has
/// counted `decisions` admission decisions (accepted or shed), so a
/// scanning job stays in flight across a whole dispatch burst.
struct HoldScanUntilAdmitted {
    inner: Arc<MemorySink>,
    /// `Some((decided, decisions))` while armed.
    armed: Mutex<Option<(u64, u64)>>,
    changed: std::sync::Condvar,
}

impl HoldScanUntilAdmitted {
    fn new(inner: Arc<MemorySink>) -> HoldScanUntilAdmitted {
        HoldScanUntilAdmitted {
            inner,
            armed: Mutex::new(None),
            changed: std::sync::Condvar::new(),
        }
    }

    fn arm(&self, decisions: u64) {
        *self.armed.lock().unwrap() = Some((0, decisions));
    }

    fn disarm(&self) {
        *self.armed.lock().unwrap() = None;
        self.changed.notify_all();
    }
}

impl Sink for HoldScanUntilAdmitted {
    fn record_span(&self, stage: Stage, nanos: u64) {
        if stage == Stage::ScanRoll {
            let mut armed = self.armed.lock().unwrap();
            while matches!(*armed, Some((decided, decisions)) if decided < decisions) {
                armed = self.changed.wait(armed).unwrap();
            }
        }
        self.inner.record_span(stage, nanos);
    }

    fn record_count(&self, counter: Counter, delta: u64) {
        if matches!(
            counter,
            Counter::JobAccepted | Counter::TenantShed | Counter::JobShed
        ) {
            if let Some((decided, _)) = self.armed.lock().unwrap().as_mut() {
                *decided += delta;
                self.changed.notify_all();
            }
        }
        self.inner.record_count(counter, delta);
    }
}

#[test]
fn a_flooding_tenant_is_shed_on_fairness_while_its_peer_keeps_its_slot() {
    let dir = temp_dir("fairness");
    let host_path = write_host(&dir);
    let marked_dir = dir.join("marked").to_str().unwrap().to_string();
    let sink = Arc::new(MemorySink::new());
    let hold = Arc::new(HoldScanUntilAdmitted::new(sink.clone()));
    let mut options = ServeOptions::new(dir.join("journal/serve"));
    options.workers = 1;
    options.max_inflight = 4;
    options.telemetry = Telemetry::new(hold.clone());
    let server = Server::new(options).unwrap();
    let capture = Capture::default();

    // Warm-up: tenant B embeds one copy (settled by the EOF drain), so
    // the flood batch has something for B to scan.
    drive(
        &server,
        &capture,
        &[
            open_line("tenant-b"),
            open_line("tenant-a"),
            embed_line("tenant-b", "warm-b", &host_path, &marked_dir),
        ],
    );

    // The flood: B submits one scan, then A bursts eight embeds. With
    // four slots and two active tenants, A's fair share is two — the
    // burst sheds with scope `tenant` while the gate still has global
    // room, and B's slot is never at risk. (The sink holds B's scan on
    // the single worker until all nine admissions are decided, so B
    // is still in flight across the whole burst and the outcome is
    // deterministic.)
    let b_scan = EmbedJobSpec {
        job_id: "b-scan".to_string(),
        watermark_hex: None,
        seed: Some(EmbedJobSpec::new("warm-b").effective_seed(SEED)),
    };
    let a_jobs: Vec<String> = (0..8)
        .map(|i| embed_line("tenant-a", &format!("a-{i:03}"), &host_path, &marked_dir))
        .collect();
    let mut flood = vec![recognize_line(
        "tenant-b",
        b_scan,
        &format!("{marked_dir}/warm-b.pmvm"),
    )];
    flood.extend(a_jobs.clone());
    hold.arm(flood.len() as u64);
    let responses = drive(&server, &capture, &flood);
    hold.disarm();
    let scopes: Vec<String> = responses
        .iter()
        .filter(|r| Capture::field(r, "status") == "shed")
        .map(|r| Capture::field(r, "scope"))
        .collect();
    assert!(
        !scopes.is_empty(),
        "the burst overruns A's fair share: {responses:?}"
    );
    assert!(
        scopes.iter().all(|s| s == "tenant"),
        "fairness fires with global room to spare — no capacity sheds: {responses:?}"
    );
    let b_response = responses
        .iter()
        .find(|r| Capture::field(r, "job_id") == "b-scan")
        .unwrap();
    assert_eq!(
        Capture::field(b_response, "status"),
        "ok",
        "B's scan is untouched by A's flood"
    );
    let tenant_shed = scopes.len() as u64;
    assert_eq!(sink.counter(Counter::TenantShed), tenant_shed);
    let responses = drive(&server, &capture, &["{\"op\":\"stats\"}".to_string()]);
    assert_eq!(
        Capture::field(&responses[0], "tenant_shed").parse::<u64>().unwrap(),
        tenant_shed
    );
    assert_eq!(
        Capture::field(&responses[0], "shed"),
        "0",
        "the flood never hit the global ceiling"
    );

    // Shed means not-accepted: A backs off and resubmits what was shed
    // until everything settles (solo resubmission can legitimately hit
    // the global ceiling now that A is the only active tenant).
    let mut pending = a_jobs;
    loop {
        let responses = drive(&server, &capture, &pending);
        let shed_ids: Vec<String> = responses
            .iter()
            .filter(|r| Capture::field(r, "status") == "shed")
            .map(|r| Capture::field(r, "job_id"))
            .collect();
        if shed_ids.is_empty() {
            break;
        }
        pending.retain(|line| {
            shed_ids
                .iter()
                .any(|id| line.contains(&format!("\"job_id\":\"{id}\"")))
        });
    }
    drive(&server, &capture, &["{\"op\":\"shutdown\"}".to_string()]);
    let embeds = parse_report(
        &std::fs::read_to_string(dir.join("journal/serve.embed.jsonl")).unwrap(),
    )
    .unwrap();
    assert_eq!(embeds.len(), 9, "warm-b plus all eight a-jobs settled");
    assert!(embeds.iter().all(|r| r.status.is_ok()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_with_two_writers_and_a_rotated_journal_resumes_bit_identically() {
    let dir = temp_dir("crash2");
    let host_path = write_host(&dir);
    let jobs: Vec<EmbedJobSpec> = (0..7)
        .map(|i| EmbedJobSpec::new(format!("copy-{i:03}")))
        .collect();

    // The reference: the batch engine over the same seven jobs.
    let embedder = Embedder::builder(serve_key(), serve_config()).build().unwrap();
    let pool = WorkerPool::new(4);
    let cache = TraceCache::new();
    let batch_embeds = embed_batch(&host_program(), &embedder, &jobs, &pool, &cache).unwrap();
    let batch_reports: Vec<JobReport> = batch_embeds.iter().map(|o| o.report.clone()).collect();

    // The crash run: a byte-capped journal rotates under two concurrent
    // writer connections (a one-byte cap rotates on every intent);
    // jobs 0-5 settle, a second tenant's open rotates once more with
    // all six settled, then the daemon dies with job 6 accepted
    // (intent journaled) but never run, plus a torn trailing line from
    // the kill.
    let marked_dir = dir.join("marked").to_str().unwrap().to_string();
    let prefix = dir.join("crash/serve");
    {
        let mut options = ServeOptions::new(&prefix);
        options.journal_max_bytes = Some(1);
        let server = Server::new(options).unwrap();
        let control = Capture::default();
        drive(&server, &control, &[open_line("acme")]);
        let embed_lines = |half: &[EmbedJobSpec]| -> Vec<String> {
            half.iter()
                .map(|j| embed_line("acme", &j.job_id, &host_path, &marked_dir))
                .collect()
        };
        let (lines_a, lines_b) = (embed_lines(&jobs[..3]), embed_lines(&jobs[3..6]));
        let (capture_a, capture_b) = (Capture::default(), Capture::default());
        std::thread::scope(|scope| {
            scope.spawn(|| drive(&server, &capture_a, &lines_a));
            scope.spawn(|| drive(&server, &capture_b, &lines_b));
        });
        let responses = drive(
            &server,
            &control,
            &[open_line("audit"), "{\"op\":\"stats\"}".to_string()],
        );
        let responses = &responses[1..];
        assert!(
            Capture::field(&responses[0], "journal_rotations")
                .parse::<u64>()
                .unwrap()
                >= 1,
            "the byte cap forced rotation while both writers were live"
        );
        // No shutdown, no finish: dropping the server is the crash.
    }
    let intents = prefix.with_file_name("serve.intents.jsonl");
    let mut text = std::fs::read_to_string(&intents).unwrap();
    assert!(
        text.contains("\"compact\":\"settled\""),
        "rotation folded settled intents into the intents file: {text}"
    );
    text.push_str(&embed_line("acme", "copy-006", &host_path, &marked_dir));
    text.push('\n');
    text.push_str("{\"op\":\"embed\",\"tenant\":\"acme\",\"job_id\":\"to");
    std::fs::write(&intents, &text).unwrap();

    // Restart with --resume: replay reads the rotated intents file —
    // the six settled jobs answer from the journal, the pending seventh
    // runs before the first client line, and the torn tail is cut.
    let mut options = ServeOptions::new(&prefix);
    options.resume = true;
    let server = Server::new(options).unwrap();
    let capture = Capture::default();
    let mut batch = vec![open_line("acme")];
    batch.extend(jobs.iter().map(|j| embed_line("acme", &j.job_id, &host_path, &marked_dir)));
    batch.push("{\"op\":\"shutdown\"}".to_string());
    let responses = drive(&server, &capture, &batch);
    for line in &responses[1..8] {
        assert_eq!(
            Capture::field(line, "disposition"),
            "resumed",
            "a resubmitted settled job is answered from the journal: {line}"
        );
    }

    let resumed = parse_report(
        &std::fs::read_to_string(prefix.with_file_name("serve.embed.jsonl")).unwrap(),
    )
    .unwrap();
    assert_eq!(resumed.len(), 7);
    assert_eq!(sorted_normalized(&resumed), sorted_normalized(&batch_reports));
    assert!(!intents.exists(), "finalize retires the intents file");
    for (job, outcome) in jobs.iter().zip(&batch_embeds) {
        let served = std::fs::read(format!("{marked_dir}/{}.pmvm", job.job_id)).unwrap();
        assert_eq!(
            served,
            encode_program(outcome.marked.as_ref().unwrap()),
            "{}",
            job.job_id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn startup_reclaims_stale_sockets_but_refuses_live_daemons() {
    let dir = temp_dir("stale");
    let sock = dir.join("daemon.sock");
    // A stale socket: a daemon that died without cleanup leaves the
    // path bound to nothing. Startup probes it, gets no answer, and
    // reclaims it.
    drop(std::os::unix::net::UnixListener::bind(&sock).unwrap());
    assert!(sock.exists(), "the dead listener's socket file lingers");
    let server = Server::new(ServeOptions::new(dir.join("first/serve"))).unwrap();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve_unix(&sock));
        drop(connect_when_up(&sock));
        // A live daemon on the path: a second daemon must refuse to
        // start instead of stealing the socket out from under it.
        let second = Server::new(ServeOptions::new(dir.join("second/serve"))).unwrap();
        let err = second.serve_unix(&sock).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
        second.finish();

        let shutdown = connect_when_up(&sock);
        shutdown
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut requests = shutdown.try_clone().unwrap();
        requests.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(shutdown).read_line(&mut line).unwrap();
        assert_eq!(Capture::field(line.trim(), "op"), "shutdown");
        daemon.join().unwrap().unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_poisoned_response_writer_is_recovered_not_fatal() {
    let dir = temp_dir("poison");
    let server = Server::new(ServeOptions::new(dir.join("journal/serve"))).unwrap();
    let capture = Capture::default();
    let out = shared_writer(Box::new(capture.clone()));
    // Poison the writer lock the way a panicking worker would: die
    // while holding it.
    {
        let out = out.clone();
        let _ = std::thread::spawn(move || {
            let _guard = out.lock();
            panic!("die holding the response lock");
        })
        .join();
    }
    assert!(out.lock().is_err(), "the lock is poisoned");
    let input = "{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n";
    server
        .serve_lines(Cursor::new(input.as_bytes().to_vec()), &out)
        .unwrap();
    let lines = capture.lines();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert_eq!(Capture::field(&lines[0], "op"), "ping");
    assert_eq!(Capture::field(&lines[0], "status"), "ok");
    assert_eq!(Capture::field(&lines[1], "op"), "shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opens_differing_only_in_retired_engine_fields_are_one_warm_session() {
    // Older clients may still send `tier` / `scan_mode`: they select
    // nothing now, so they must neither fail the open nor split the
    // tenant's warm identity.
    let dir = temp_dir("retired");
    let (server, sink) = metered_server(&dir);
    let capture = Capture::default();
    let plain = open_line("acme");
    let with = |field: &str| format!("{},{field}}}", plain.strip_suffix('}').unwrap());
    let responses = drive(
        &server,
        &capture,
        &[
            plain.clone(),
            with("\"tier\":\"predecoded\""),
            with("\"scan_mode\":\"two-phase\""),
        ],
    );
    let warm: Vec<String> = responses.iter().map(|r| Capture::field(r, "warm")).collect();
    assert_eq!(warm, ["miss", "hit", "hit"], "{responses:?}");
    assert_eq!(sink.counter(Counter::SessionMiss), 1);
    assert_eq!(sink.counter(Counter::SessionHit), 2);
    server.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn copies_past_the_vm_memory_caps_fail_and_the_daemon_answers_a_ping() {
    // Two hostile copies: one asks for a 2^40-cell array (8 TiB), one
    // recurses through frames of u16::MAX locals. Without the caps
    // either aborts the process, and every tenant with it.
    let dir = temp_dir("hostile");
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 0, 0);
    f.push(1 << 40).new_array().pop().ret_void();
    let main = pb.add_function(f.finish().unwrap());
    let huge = pb.finish(main).unwrap();
    let mut pb = ProgramBuilder::new();
    let id = pb.declare_function("wide");
    let mut f = FunctionBuilder::new("wide", 0, u16::MAX);
    f.call(id).ret_void();
    pb.set_function(id, f.finish().unwrap());
    let wide = pb.finish(id).unwrap();
    let mut lines = vec![open_line("acme")];
    for (name, program) in [("huge", &huge), ("wide", &wide)] {
        let path = dir.join(format!("{name}.pmvm"));
        std::fs::write(&path, encode_program(program)).unwrap();
        lines.push(recognize_line(
            "acme",
            EmbedJobSpec::new(name),
            path.to_str().unwrap(),
        ));
    }
    let server = Server::new(ServeOptions::new(dir.join("journal/serve"))).unwrap();
    let capture = Capture::default();
    let responses = drive(&server, &capture, &lines);
    for (name, cap) in [("huge", "heap cap"), ("wide", "locals cap")] {
        let answer = responses
            .iter()
            .find(|r| r.contains(&format!("\"job_id\":\"{name}\"")))
            .unwrap_or_else(|| panic!("no answer for {name}: {responses:?}"));
        let status = Capture::field(answer, "status");
        assert!(status.starts_with("failed: ") && status.contains(cap), "{answer}");
    }
    // The daemon is still up.
    let pong = drive(&server, &capture, &["{\"op\":\"ping\"}".to_string()]);
    assert_eq!(Capture::field(&pong[0], "op"), "ping");
    assert_eq!(Capture::field(&pong[0], "status"), "ok");
    server.finish();
    let _ = std::fs::remove_dir_all(&dir);
}
