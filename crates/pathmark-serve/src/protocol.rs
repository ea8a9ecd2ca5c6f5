//! The serve wire protocol: line-oriented JSONL, one flat object per
//! line, built on the fleet's hand-rolled codec
//! ([`pathmark_fleet::json`]).
//!
//! Requests name an `op`:
//!
//! ```text
//! {"op":"open","tenant":"acme","seed":61423,"input":"3,1,4","bits":64,"pieces":12}
//! {"op":"embed","tenant":"acme","job_id":"copy-0","host":"host.pmvm","out_dir":"marked"}
//! {"op":"recognize","tenant":"acme","job_id":"copy-0","program":"marked/copy-0.pmvm"}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Job requests carry the same optional `seed` / `watermark_hex`
//! overrides as a fleet manifest line — a serve job and a batch job
//! resolve their per-copy key and watermark through the *same*
//! [`EmbedJobSpec`] rules, which is what makes their reports
//! bit-identical (modulo `wall_ms`).
//!
//! Responses echo the `op` and carry a `status`. Job responses embed the
//! full [`JobReport`] fields plus a `disposition` (`fresh` for a job the
//! daemon just ran, `resumed` for one answered from the journal). A
//! malformed line yields `{"op":"error","status":"failed: …"}` — never a
//! daemon exit. An admission-controlled rejection yields the distinct
//! `"status":"shed"` so clients can back off and resubmit; its `scope`
//! field says whether the whole daemon was at capacity (`"capacity"`)
//! or the submitting tenant exceeded its fair share (`"tenant"`).

use std::collections::HashMap;

use pathmark_fleet::json::{parse_object, write_object, Scalar};
use pathmark_fleet::manifest::{EmbedJobSpec, JobReport};

/// Which journal/report stream a job belongs to. Part of the journal
/// dedup key: one `job_id` may legally appear once per op (embed a copy,
/// then recognize it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Fingerprint a copy of the host program.
    Embed,
    /// Recognize the watermark in a (possibly attacked) copy.
    Recognize,
}

impl Op {
    /// The wire name of the op.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Embed => "embed",
            Op::Recognize => "recognize",
        }
    }
}

/// `{"op":"open", …}` — create (or warm-hit) a tenant's sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenRequest {
    /// The tenant handle later job requests refer to.
    pub tenant: String,
    /// The tenant key's numeric secret.
    pub seed: u64,
    /// The tenant key's secret input, comma-separated (e.g. `"3,1,4"`).
    pub input: Vec<i64>,
    /// Watermark width in bits.
    pub bits: usize,
    /// Watermark piece count; `None` takes the config default.
    pub pieces: Option<usize>,
    /// Decode-cache ceiling for the tenant's sessions; `None` takes
    /// [`pathmark_core::java::DEFAULT_DECODE_CACHE_CAP`].
    pub cache_cap: Option<usize>,
}

/// `{"op":"embed", …}` — fingerprint one copy of a host program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbedRequest {
    /// The tenant whose sessions run the job.
    pub tenant: String,
    /// The manifest-line view of the job (`job_id` + optional `seed` /
    /// `watermark_hex` overrides).
    pub spec: EmbedJobSpec,
    /// Path to the host program (`.pmvm`).
    pub host: String,
    /// Directory the marked copy is written into, as `<job_id>.pmvm`.
    pub out_dir: String,
}

/// `{"op":"recognize", …}` — recognize the watermark in one copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecognizeRequest {
    /// The tenant whose sessions run the job.
    pub tenant: String,
    /// The manifest-line view of the job; the expected watermark is
    /// resolved from it exactly as `fleet recognize` resolves it.
    pub spec: EmbedJobSpec,
    /// Path to the copy to recognize (`.pmvm`).
    pub program: String,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open (or warm-hit) a tenant.
    Open(OpenRequest),
    /// Run an embed job.
    Embed(EmbedRequest),
    /// Run a recognize job.
    Recognize(RecognizeRequest),
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Drain the queue, finalize the journal, and exit.
    Shutdown,
}

fn opt_str(fields: &HashMap<String, Scalar>, name: &str) -> Result<Option<String>, String> {
    match fields.get(name) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("`{name}` must be a string")),
    }
}

fn req_str(fields: &HashMap<String, Scalar>, name: &str) -> Result<String, String> {
    opt_str(fields, name)?.ok_or_else(|| format!("missing `{name}`"))
}

fn opt_u64(fields: &HashMap<String, Scalar>, name: &str) -> Result<Option<u64>, String> {
    match fields.get(name) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{name}` must be an unsigned integer")),
    }
}

fn req_u64(fields: &HashMap<String, Scalar>, name: &str) -> Result<u64, String> {
    opt_u64(fields, name)?.ok_or_else(|| format!("missing `{name}`"))
}

/// Parses the comma-separated secret-input encoding (`"3,1,4"`; empty
/// string = empty input, which `open` will then reject at session
/// validation).
fn parse_input(text: &str) -> Result<Vec<i64>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|e| format!("bad `input` element `{v}`: {e}"))
        })
        .collect()
}

fn render_input(input: &[i64]) -> String {
    input
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// The shared `job_id` / `seed` / `watermark_hex` trio of a job request.
fn parse_spec(fields: &HashMap<String, Scalar>) -> Result<EmbedJobSpec, String> {
    Ok(EmbedJobSpec {
        job_id: req_str(fields, "job_id")?,
        watermark_hex: opt_str(fields, "watermark_hex")?,
        seed: opt_u64(fields, "seed")?,
    })
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A message describing the defect (malformed JSON with the byte
    /// offset, a missing or mistyped field, or an unknown op). The
    /// server turns this into an `error` response, never an exit.
    pub fn parse(line: &str) -> Result<Request, String> {
        let fields = parse_object(line).map_err(|e| e.to_string())?;
        let op = fields
            .get("op")
            .and_then(Scalar::as_str)
            .ok_or("missing string `op`")?;
        match op {
            "open" => Ok(Request::Open(OpenRequest {
                tenant: req_str(&fields, "tenant")?,
                seed: req_u64(&fields, "seed")?,
                input: parse_input(&req_str(&fields, "input")?)?,
                bits: req_u64(&fields, "bits")? as usize,
                pieces: opt_u64(&fields, "pieces")?.map(|n| n as usize),
                cache_cap: opt_u64(&fields, "cache_cap")?.map(|n| n as usize),
            })),
            "embed" => Ok(Request::Embed(EmbedRequest {
                tenant: req_str(&fields, "tenant")?,
                spec: parse_spec(&fields)?,
                host: req_str(&fields, "host")?,
                out_dir: req_str(&fields, "out_dir")?,
            })),
            "recognize" => Ok(Request::Recognize(RecognizeRequest {
                tenant: req_str(&fields, "tenant")?,
                spec: parse_spec(&fields)?,
                program: req_str(&fields, "program")?,
            })),
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

impl OpenRequest {
    /// Serializes the request as one JSONL line.
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("op", Scalar::Str("open".into())),
            ("tenant", Scalar::Str(self.tenant.clone())),
            ("seed", Scalar::Num(self.seed)),
            ("input", Scalar::Str(render_input(&self.input))),
            ("bits", Scalar::Num(self.bits as u64)),
        ];
        if let Some(pieces) = self.pieces {
            fields.push(("pieces", Scalar::Num(pieces as u64)));
        }
        if let Some(cap) = self.cache_cap {
            fields.push(("cache_cap", Scalar::Num(cap as u64)));
        }
        write_object(&fields)
    }
}

fn spec_fields(spec: &EmbedJobSpec, fields: &mut Vec<(&str, Scalar)>) {
    fields.push(("job_id", Scalar::Str(spec.job_id.clone())));
    if let Some(seed) = spec.seed {
        fields.push(("seed", Scalar::Num(seed)));
    }
    if let Some(hex) = &spec.watermark_hex {
        fields.push(("watermark_hex", Scalar::Str(hex.clone())));
    }
}

impl EmbedRequest {
    /// Serializes the request as one JSONL line.
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("op", Scalar::Str("embed".into())),
            ("tenant", Scalar::Str(self.tenant.clone())),
        ];
        spec_fields(&self.spec, &mut fields);
        fields.push(("host", Scalar::Str(self.host.clone())));
        fields.push(("out_dir", Scalar::Str(self.out_dir.clone())));
        write_object(&fields)
    }
}

impl RecognizeRequest {
    /// Serializes the request as one JSONL line.
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("op", Scalar::Str("recognize".into())),
            ("tenant", Scalar::Str(self.tenant.clone())),
        ];
        spec_fields(&self.spec, &mut fields);
        fields.push(("program", Scalar::Str(self.program.clone())));
        write_object(&fields)
    }
}

/// Whether a job response was freshly computed or replayed from the
/// journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The daemon ran the job for this response.
    Fresh,
    /// The job's outcome was already journaled (a duplicate submission
    /// after a crash); the recorded report is echoed back.
    Resumed,
}

impl Disposition {
    fn as_str(self) -> &'static str {
        match self {
            Disposition::Fresh => "fresh",
            Disposition::Resumed => "resumed",
        }
    }
}

/// Renders an `open` response.
pub fn opened_line(tenant: &str, warm: bool) -> String {
    write_object(&[
        ("op", Scalar::Str("open".into())),
        ("tenant", Scalar::Str(tenant.into())),
        ("status", Scalar::Str("ok".into())),
        (
            "warm",
            Scalar::Str(if warm { "hit" } else { "miss" }.into()),
        ),
    ])
}

/// Renders a settled job response: the full report line plus the op,
/// tenant, and disposition.
pub fn job_line(op: Op, tenant: &str, report: &JobReport, disposition: Disposition) -> String {
    write_object(&[
        ("op", Scalar::Str(op.as_str().into())),
        ("tenant", Scalar::Str(tenant.into())),
        ("job_id", Scalar::Str(report.job_id.clone())),
        ("watermark_hex", Scalar::Str(report.watermark_hex.clone())),
        ("seed", Scalar::Num(report.seed)),
        ("status", Scalar::Str(report.status.to_string())),
        ("attempts", Scalar::Num(u64::from(report.attempts))),
        ("wall_ms", Scalar::Num(report.wall_ms)),
        ("disposition", Scalar::Str(disposition.as_str().into())),
    ])
}

/// Renders the load-shed rejection: the job was NOT accepted and the
/// client should back off and resubmit. `scope` is `"capacity"` (the
/// daemon-wide in-flight ceiling) or `"tenant"` (the submitting
/// tenant's fair-share sub-budget — other tenants still have room).
pub fn shed_line(op: Op, tenant: &str, job_id: &str, scope: &str) -> String {
    write_object(&[
        ("op", Scalar::Str(op.as_str().into())),
        ("tenant", Scalar::Str(tenant.into())),
        ("job_id", Scalar::Str(job_id.into())),
        ("status", Scalar::Str("shed".into())),
        ("scope", Scalar::Str(scope.into())),
    ])
}

/// Renders the structured error response for a malformed or unservable
/// request line.
pub fn error_line(message: &str) -> String {
    write_object(&[
        ("op", Scalar::Str("error".into())),
        ("status", Scalar::Str(format!("failed: {message}"))),
    ])
}

/// Renders the `ping` response.
pub fn pong_line() -> String {
    write_object(&[
        ("op", Scalar::Str("ping".into())),
        ("status", Scalar::Str("ok".into())),
    ])
}

/// A point-in-time counter snapshot for the `stats` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs admitted past the gate over the daemon's lifetime.
    pub accepted: u64,
    /// Jobs rejected because the daemon-wide in-flight ceiling was
    /// reached.
    pub shed: u64,
    /// Jobs rejected by per-tenant fairness while the daemon still had
    /// room.
    pub tenant_shed: u64,
    /// Duplicate submissions answered from the journal.
    pub resumed: u64,
    /// Jobs that settled and were journaled.
    pub completed: u64,
    /// Jobs admitted but not yet settled.
    pub inflight: u64,
    /// Jobs sitting in the worker pool's queue right now.
    pub queue_depth: u64,
    /// Open tenants.
    pub tenants: u64,
    /// Connections currently being served.
    pub connections: u64,
    /// Journal rotations performed (the intents file replaced by its
    /// folded form, settled intents as markers).
    pub journal_rotations: u64,
    /// Decode-cache lookups served without a cipher call, summed over
    /// every resident recognize session.
    pub decode_cache_hits: u64,
    /// Decode-cache lookups that missed and decrypted.
    pub decode_cache_misses: u64,
    /// Decode-cache entries evicted to stay under the caps.
    pub decode_cache_evictions: u64,
    /// Decode-cache entries currently resident across sessions.
    pub decode_cache_entries: u64,
}

/// Renders the `stats` response.
pub fn stats_line(s: &StatsSnapshot) -> String {
    write_object(&[
        ("op", Scalar::Str("stats".into())),
        ("status", Scalar::Str("ok".into())),
        ("accepted", Scalar::Num(s.accepted)),
        ("shed", Scalar::Num(s.shed)),
        ("tenant_shed", Scalar::Num(s.tenant_shed)),
        ("resumed", Scalar::Num(s.resumed)),
        ("completed", Scalar::Num(s.completed)),
        ("inflight", Scalar::Num(s.inflight)),
        ("queue_depth", Scalar::Num(s.queue_depth)),
        ("tenants", Scalar::Num(s.tenants)),
        ("connections", Scalar::Num(s.connections)),
        ("journal_rotations", Scalar::Num(s.journal_rotations)),
        ("decode_cache_hits", Scalar::Num(s.decode_cache_hits)),
        ("decode_cache_misses", Scalar::Num(s.decode_cache_misses)),
        ("decode_cache_evictions", Scalar::Num(s.decode_cache_evictions)),
        ("decode_cache_entries", Scalar::Num(s.decode_cache_entries)),
    ])
}

/// Renders the `shutdown` acknowledgement, sent after the queue has
/// drained and the journal is finalized.
pub fn shutdown_line(completed: u64) -> String {
    write_object(&[
        ("op", Scalar::Str("shutdown".into())),
        ("status", Scalar::Str("ok".into())),
        ("completed", Scalar::Num(completed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathmark_fleet::manifest::JobStatus;

    #[test]
    fn open_round_trips() {
        let req = OpenRequest {
            tenant: "acme".into(),
            seed: 61423,
            input: vec![3, -1, 4],
            bits: 64,
            pieces: Some(12),
            cache_cap: Some(4096),
        };
        assert_eq!(Request::parse(&req.to_line()), Ok(Request::Open(req)));
        // Optional fields stay optional.
        let line = "{\"op\":\"open\",\"tenant\":\"t\",\"seed\":1,\"input\":\"5\",\"bits\":64}";
        match Request::parse(line).unwrap() {
            Request::Open(req) => {
                assert_eq!(req.input, vec![5]);
                assert_eq!(req.pieces, None);
                assert_eq!(req.cache_cap, None);
            }
            other => panic!("{other:?}"),
        }
        // The engine selectors of older clients are unknown fields now,
        // ignored like any other: the open parses as if they were absent.
        let line = "{\"op\":\"open\",\"tenant\":\"t\",\"seed\":1,\"input\":\"5\",\"bits\":64,\"tier\":\"predecoded\",\"scan_mode\":\"two-phase\"}";
        let plain = "{\"op\":\"open\",\"tenant\":\"t\",\"seed\":1,\"input\":\"5\",\"bits\":64}";
        assert_eq!(Request::parse(line), Request::parse(plain));
    }

    #[test]
    fn job_requests_round_trip() {
        let embed = EmbedRequest {
            tenant: "acme".into(),
            spec: EmbedJobSpec {
                job_id: "copy-0".into(),
                watermark_hex: Some("8f3a".into()),
                seed: Some(99),
            },
            host: "host.pmvm".into(),
            out_dir: "marked".into(),
        };
        assert_eq!(Request::parse(&embed.to_line()), Ok(Request::Embed(embed)));

        let recognize = RecognizeRequest {
            tenant: "acme".into(),
            spec: EmbedJobSpec::new("copy-0"),
            program: "marked/copy-0.pmvm".into(),
        };
        assert_eq!(
            Request::parse(&recognize.to_line()),
            Ok(Request::Recognize(recognize))
        );
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(Request::parse("{\"op\":\"ping\"}"), Ok(Request::Ping));
        assert_eq!(Request::parse("{\"op\":\"stats\"}"), Ok(Request::Stats));
        assert_eq!(
            Request::parse("{\"op\":\"shutdown\"}"),
            Ok(Request::Shutdown)
        );
    }

    #[test]
    fn malformed_lines_produce_messages_not_panics() {
        for line in [
            "",
            "not json",
            "{\"op\":\"embed\"}",
            "{\"op\":\"teleport\"}",
            "{\"tenant\":\"t\"}",
            "{\"op\":\"open\",\"tenant\":\"t\",\"seed\":\"x\",\"input\":\"1\",\"bits\":64}",
            "{\"op\":\"open\",\"tenant\":\"t\",\"seed\":1,\"input\":\"a,b\",\"bits\":64}",
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(!err.is_empty(), "line {line:?}");
        }
    }

    #[test]
    fn responses_are_parseable_flat_objects() {
        let report = JobReport {
            job_id: "copy-0".into(),
            watermark_hex: "ff".into(),
            seed: 7,
            status: JobStatus::Ok,
            attempts: 1,
            wall_ms: 3,
        };
        for line in [
            opened_line("t", true),
            job_line(Op::Embed, "t", &report, Disposition::Fresh),
            job_line(Op::Recognize, "t", &report, Disposition::Resumed),
            shed_line(Op::Embed, "t", "copy-0", "capacity"),
            error_line("json error at byte 0: expected `{`"),
            pong_line(),
            stats_line(&StatsSnapshot::default()),
            shutdown_line(4),
        ] {
            let fields = parse_object(&line).unwrap();
            assert!(fields.contains_key("op"), "{line}");
        }
        let fields = parse_object(&shed_line(Op::Embed, "t", "j", "tenant")).unwrap();
        assert_eq!(fields["status"].as_str(), Some("shed"));
        assert_eq!(fields["scope"].as_str(), Some("tenant"));
        let fields =
            parse_object(&job_line(Op::Recognize, "t", &report, Disposition::Resumed)).unwrap();
        assert_eq!(fields["disposition"].as_str(), Some("resumed"));
    }
}
