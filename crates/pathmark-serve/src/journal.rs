//! The daemon's write-ahead journal: crash-safe exactly-once job
//! execution built from two existing fleet primitives, with rotation so
//! a long-running daemon's intents stay bounded.
//!
//! * An **intents file** (`PREFIX.intents.jsonl`) records every
//!   *accepted* request line — `open` lines and job lines, verbatim,
//!   unbuffered — *before* the job is enqueued. After a crash, the
//!   intents file says what the daemon had promised to do.
//! * Two [`ReportWriter`]s (`PREFIX.embed.jsonl`,
//!   `PREFIX.recognize.jsonl`) double as the outcome log: settled jobs
//!   stream to the `.partial` sidecars exactly as the batch CLI streams
//!   them, and graceful shutdown finalizes both reports with the same
//!   fsync-then-atomic-rename discipline.
//! * A **compacted segment** (`PREFIX.intents.compact.jsonl`) appears
//!   once the live intents file crosses the rotation threshold
//!   ([`Journal::rotate`]): `open` lines and still-pending job lines
//!   are carried over verbatim, settled jobs are folded to small
//!   `{"op":…,"tenant":…,"job_id":…,"compact":"settled"}` markers (their
//!   full outcomes already live in the report sidecars), and the live
//!   file is truncated. The segment is written to a temp file and
//!   atomically renamed, so rotation can never lose a promise. Resume
//!   reads the segments in order — compact first, then live — and
//!   rebuilds the same acceptance order and tenant ownership an
//!   unrotated journal would.
//!
//! Resume intersects intents with outcomes: outcomes already on disk
//! are *done* (duplicate submissions are answered from the journal),
//! intents with no outcome are *pending* and re-run. A torn trailing
//! line in the live intents file or either sidecar — the kill -9 case —
//! is dropped and rewritten away (the compact segment is rename-atomic
//! and never torn), so the journal a resumed daemon sees is always
//! exactly "what was accepted" and "what finished". Client resubmission
//! after a crash is at-least-once; journal dedup makes execution
//! exactly-once.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::io::Write;
use std::path::{Path, PathBuf};

use pathmark_fleet::json::{parse_object, write_object, Scalar};
use pathmark_fleet::manifest::{JobReport, JobStatus, ReportWriter};
use pathmark_telemetry::{Counter, Telemetry};

use crate::protocol::Op;

/// The write-ahead journal behind one daemon instance.
#[derive(Debug)]
pub struct Journal {
    prefix: PathBuf,
    intents: std::fs::File,
    embed: ReportWriter,
    recognize: ReportWriter,
    /// Every job intent ever recorded, settled or pending, in acceptance
    /// order, one compact record each — the dedup map — with the tenant
    /// that submitted it. Job ids are daemon-unique per op: the server
    /// rejects a second tenant reusing one, so a journaled outcome is
    /// never answered across tenants.
    jobs: JobTable,
    /// Accepted `open` lines in first-seen order, deduplicated —
    /// carried verbatim into every compacted segment (a resumed daemon
    /// must rebuild tenants before re-running their jobs).
    opens: Vec<String>,
    open_seen: HashSet<String>,
    /// Rotate once the live intents file exceeds this many bytes;
    /// `None` never rotates (the pre-rotation behavior).
    max_bytes: Option<u64>,
    /// Bytes appended to the live intents file since the last rotation.
    live_bytes: u64,
    rotations: u64,
    /// Report-sidecar compactions performed (either op).
    report_rotations: u64,
    telemetry: Telemetry,
}

fn intents_path(prefix: &Path) -> PathBuf {
    with_suffix(prefix, ".intents.jsonl")
}

fn compact_path(prefix: &Path) -> PathBuf {
    with_suffix(prefix, ".intents.compact.jsonl")
}

fn report_path(prefix: &Path, op: Op) -> PathBuf {
    with_suffix(prefix, &format!(".{}.jsonl", op.as_str()))
}

fn with_suffix(prefix: &Path, suffix: &str) -> PathBuf {
    let mut name = prefix.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    prefix.with_file_name(name)
}

/// The `"compact":"settled"` marker a rotation writes in place of a
/// settled job's full request line.
fn settled_marker(op: Op, tenant: &str, job_id: &str) -> String {
    write_object(&[
        ("op", Scalar::Str(op.as_str().into())),
        ("tenant", Scalar::Str(tenant.into())),
        ("job_id", Scalar::Str(job_id.into())),
        ("compact", Scalar::Str("settled".into())),
    ])
}

impl Journal {
    /// Starts a fresh journal at `PREFIX.{intents,embed,recognize}.jsonl`,
    /// truncating leftovers from an earlier run (including a leftover
    /// compacted segment).
    ///
    /// # Errors
    ///
    /// Whatever creating the files reports.
    pub fn create(prefix: &Path) -> std::io::Result<Journal> {
        if let Some(parent) = prefix.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let _ = std::fs::remove_file(compact_path(prefix));
        Ok(Journal {
            prefix: prefix.to_path_buf(),
            intents: std::fs::File::create(intents_path(prefix))?,
            embed: ReportWriter::create(report_path(prefix, Op::Embed))?,
            recognize: ReportWriter::create(report_path(prefix, Op::Recognize))?,
            jobs: JobTable::default(),
            opens: Vec::new(),
            open_seen: HashSet::new(),
            max_bytes: None,
            live_bytes: 0,
            rotations: 0,
            report_rotations: 0,
            telemetry: Telemetry::null(),
        })
    }

    /// Sets the rotation threshold: once the live intents file exceeds
    /// `max_bytes`, settled intents are folded into the compacted
    /// segment and the live file truncated.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Journal {
        self.max_bytes = max_bytes;
        self
    }

    /// Reports rotations into `telemetry`
    /// ([`Counter::JournalRotation`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Journal {
        self.telemetry = telemetry;
        self
    }

    /// Resumes the journal of a crashed daemon. Returns the journal
    /// (recorded outcomes loaded into the dedup map) plus the request
    /// lines the server must replay: every accepted `open` line first,
    /// then the still-*pending* job lines in acceptance order. Settled
    /// jobs are not replayed — their outcomes are already in the dedup
    /// map, so resubmissions are answered from the journal. A torn
    /// trailing line in the live intents file or either outcome sidecar
    /// is discarded and truncated away; the compacted segment, being
    /// rename-atomic, is read in full (before the live file, preserving
    /// acceptance order across rotations).
    ///
    /// # Errors
    ///
    /// I/O errors reading or rewriting any journal file.
    pub fn resume(prefix: &Path) -> std::io::Result<(Journal, Vec<String>)> {
        if let Some(parent) = prefix.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let (embed, embed_done) = ReportWriter::resume(report_path(prefix, Op::Embed))?;
        let (recognize, recognize_done) =
            ReportWriter::resume(report_path(prefix, Op::Recognize))?;
        let mut completed = HashMap::new();
        for report in embed_done {
            completed.insert((Op::Embed, report.job_id.clone()), report);
        }
        for report in recognize_done {
            completed.insert((Op::Recognize, report.job_id.clone()), report);
        }

        let mut scan = IntentScan::default();
        let compact = compact_path(prefix);
        if compact.exists() {
            // Rename-atomic: never torn, so a bad line is a real error —
            // but stop-at-first-bad keeps resume forgiving either way.
            scan.take_lines(&std::fs::read_to_string(&compact)?);
        }
        let path = intents_path(prefix);
        let live_text = if path.exists() {
            std::fs::read_to_string(&path)?
        } else {
            String::new()
        };
        // The valid prefix of the live file: stop at the first line
        // that does not parse (a write torn by the crash). Everything
        // after it was never acknowledged, so dropping it is safe.
        let live_kept = scan.take_lines(&live_text);

        // Rewrite the live intents file from its valid prefix, dropping
        // the torn tail, then reopen for appending.
        let mut clean = live_kept.join("\n");
        if !clean.is_empty() {
            clean.push('\n');
        }
        std::fs::write(&path, &clean)?;
        let intents = std::fs::OpenOptions::new().append(true).open(&path)?;

        // Settled = accepted with an outcome; pending = accepted without
        // one. Pending lines must survive future rotations verbatim, and
        // they are what the server replays (after the opens that built
        // their tenants).
        let mut jobs = JobTable::default();
        let mut replay: Vec<String> = scan.opens.clone();
        for (key, tenant) in scan.order {
            let i = jobs.accept(key.0, &key.1, &tenant);
            if let Some(report) = completed.remove(&key) {
                jobs.settle(i, &report);
            } else if let Some(line) = scan.job_lines.remove(&key) {
                jobs.pend(i, &line);
                replay.push(line);
            } else {
                // A settled marker whose outcome line was torn away: the
                // request line is gone, so the job cannot be re-run. It
                // keeps its acceptance slot (finalize skips report-less
                // jobs) but is surfaced, not silently dropped.
                eprintln!(
                    "serve: journal: {} job `{}` was compacted as settled but has no \
                     recorded outcome; it cannot be replayed",
                    key.0.as_str(),
                    key.1
                );
            }
        }
        // Outcomes with no intent behind them still answer dedup.
        for ((op, id), report) in completed {
            let i = jobs.position_or_add(op, &id);
            jobs.settle(i, &report);
        }

        Ok((
            Journal {
                prefix: prefix.to_path_buf(),
                intents,
                embed,
                recognize,
                jobs,
                opens: scan.opens,
                open_seen: scan.open_seen,
                max_bytes: None,
                live_bytes: clean.len() as u64,
                rotations: 0,
                report_rotations: 0,
                telemetry: Telemetry::null(),
            },
            replay,
        ))
    }

    /// Records an accepted `open` line so a resumed daemon can rebuild
    /// the tenant before re-running its pending jobs.
    ///
    /// # Errors
    ///
    /// Whatever the append reports.
    pub fn record_open_intent(&mut self, line: &str) -> std::io::Result<()> {
        self.append_intent(line)?;
        let line = line.trim();
        if self.open_seen.insert(line.to_string()) {
            self.opens.push(line.to_string());
        }
        self.maybe_rotate()
    }

    /// Records an accepted job line — the promise that this job will
    /// run. Must be called before the job is enqueued.
    ///
    /// # Errors
    ///
    /// Whatever the append reports.
    pub fn record_job_intent(
        &mut self,
        op: Op,
        tenant: &str,
        job_id: &str,
        line: &str,
    ) -> std::io::Result<()> {
        self.append_intent(line)?;
        let i = self.jobs.accept(op, job_id, tenant);
        self.jobs.pend(i, line.trim());
        self.maybe_rotate()
    }

    fn append_intent(&mut self, line: &str) -> std::io::Result<()> {
        let mut owned = line.trim().to_string();
        owned.push('\n');
        // Unbuffered, like the report sidecars: one write per line, so
        // a crash tears at most the line being written.
        self.intents.write_all(owned.as_bytes())?;
        self.live_bytes += owned.len() as u64;
        Ok(())
    }

    /// Whether a job intent was ever recorded (settled or still
    /// pending).
    pub fn is_accepted(&self, op: Op, job_id: &str) -> bool {
        self.jobs.find(op, job_id).is_some_and(|job| job.accepted)
    }

    /// The tenant that submitted a recorded job intent, if any. The
    /// server uses this to refuse a different tenant reusing the id —
    /// the journaled outcome would otherwise leak across tenants.
    pub fn owner(&self, op: Op, job_id: &str) -> Option<&str> {
        self.jobs
            .find(op, job_id)
            .filter(|job| job.accepted)
            .map(|job| self.jobs.tenant(job))
    }

    /// The journaled outcome of a settled job, if it settled.
    pub fn completed(&self, op: Op, job_id: &str) -> Option<JobReport> {
        self.jobs.find(op, job_id).and_then(Job::report)
    }

    /// Number of settled jobs on record.
    pub fn completed_count(&self) -> usize {
        self.jobs.settled
    }

    /// Rotations performed over this journal's lifetime.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Report-sidecar compactions performed over this journal's
    /// lifetime (both ops combined).
    pub fn report_rotations(&self) -> u64 {
        self.report_rotations
    }

    /// Bytes currently in the live intents file.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Streams a settled job's outcome to the op's report sidecar and
    /// adds it to the dedup map. Settling is what makes rotation
    /// worthwhile, so the threshold is re-checked here too.
    ///
    /// # Errors
    ///
    /// Whatever the sidecar append reports.
    pub fn record_outcome(&mut self, op: Op, report: &JobReport) -> std::io::Result<()> {
        match op {
            Op::Embed => self.embed.append(report)?,
            Op::Recognize => self.recognize.append(report)?,
        }
        let i = self.jobs.position_or_add(op, &report.job_id);
        self.jobs.settle(i, report);
        self.maybe_compact_reports(op)?;
        self.maybe_rotate()
    }

    /// Rotates immediately if the live file is already over the cap.
    /// The threshold is otherwise only re-checked on appends, so a
    /// resumed daemon calls this once at startup: an inherited file
    /// whose jobs all settled before the crash would never trigger an
    /// append again.
    ///
    /// # Errors
    ///
    /// Whatever [`Journal::rotate`] reports.
    pub fn compact_if_oversized(&mut self) -> std::io::Result<()> {
        self.maybe_compact_reports(Op::Embed)?;
        self.maybe_compact_reports(Op::Recognize)?;
        self.maybe_rotate()
    }

    /// Folds one op's settled outcomes into its report's compacted
    /// segment once the live `.partial` sidecar exceeds the same byte
    /// cap that bounds the intents file. The segment is written in
    /// acceptance order — the order `finalize` will use — so folding
    /// changes nothing about the finalized report.
    fn maybe_compact_reports(&mut self, op: Op) -> std::io::Result<()> {
        let Some(max) = self.max_bytes else {
            return Ok(());
        };
        let writer = match op {
            Op::Embed => &mut self.embed,
            Op::Recognize => &mut self.recognize,
        };
        if writer.partial_bytes() <= max {
            return Ok(());
        }
        let settled: Vec<JobReport> = self
            .jobs
            .in_order()
            .filter(|job| job.op == op)
            .filter_map(Job::report)
            .collect();
        writer.compact(&settled)?;
        self.report_rotations += 1;
        self.telemetry.count(Counter::ReportRotation, 1);
        Ok(())
    }

    fn maybe_rotate(&mut self) -> std::io::Result<()> {
        match self.max_bytes {
            Some(max) if self.live_bytes > max => self.rotate(),
            _ => Ok(()),
        }
    }

    /// Folds the journal's full state into the compacted segment —
    /// opens, then per accepted job (in acceptance order) either its
    /// verbatim pending line or a small settled marker — and truncates
    /// the live intents file. Written to a temp file, fsynced, and
    /// renamed into place, so a crash mid-rotation leaves the previous
    /// segment intact; only *after* the rename is the live file
    /// truncated. The sidecar outcome line of every marked job landed
    /// before its marker is written (markers come only from
    /// `record_outcome`'s completed map), so a marker always has a
    /// durable outcome behind it.
    ///
    /// # Errors
    ///
    /// I/O errors writing the segment or truncating the live file.
    pub fn rotate(&mut self) -> std::io::Result<()> {
        let mut segment = String::new();
        for line in &self.opens {
            segment.push_str(line);
            segment.push('\n');
        }
        for job in self.jobs.in_order() {
            match &job.state {
                JobState::Pending => segment.push_str(job.rest()),
                _ => segment.push_str(&settled_marker(job.op, self.jobs.tenant(job), job.id())),
            }
            segment.push('\n');
        }
        let target = compact_path(&self.prefix);
        let tmp = with_suffix(&self.prefix, ".intents.compact.jsonl.tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(segment.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &target)?;
        // Everything the live file held is now in the segment: truncate
        // and start appending fresh.
        self.intents = std::fs::File::create(intents_path(&self.prefix))?;
        self.live_bytes = 0;
        self.rotations += 1;
        self.telemetry.count(Counter::JournalRotation, 1);
        Ok(())
    }

    /// Finalizes both reports (acceptance order, fsync, atomic rename)
    /// and retires the intents files — live and compacted segment
    /// alike; every promise they held is now durable in a finalized
    /// report. Returns the (embed, recognize) report line counts.
    ///
    /// # Errors
    ///
    /// I/O errors finalizing either report.
    pub fn finalize(self) -> std::io::Result<(usize, usize)> {
        let mut embed_ordered = Vec::new();
        let mut recognize_ordered = Vec::new();
        for job in self.jobs.in_order() {
            let Some(report) = job.report() else {
                continue;
            };
            match job.op {
                Op::Embed => embed_ordered.push(report),
                Op::Recognize => recognize_ordered.push(report),
            }
        }
        self.embed.finalize(&embed_ordered)?;
        self.recognize.finalize(&recognize_ordered)?;
        let _ = std::fs::remove_file(intents_path(&self.prefix));
        let _ = std::fs::remove_file(compact_path(&self.prefix));
        Ok((embed_ordered.len(), recognize_ordered.len()))
    }
}

/// One job the journal knows of, with its tenant interned and its id
/// stored once, in one allocation with the one string its state needs.
#[derive(Debug)]
struct Job {
    op: Op,
    /// Whether an intent was recorded. An outcome with no intent behind
    /// it (a sidecar line whose intent is gone) still answers dedup but
    /// has no owner and no acceptance slot.
    accepted: bool,
    /// Index into [`JobTable::tenants`].
    tenant: u32,
    /// The next older job whose (op, id) hashes alike, or [`NO_JOB`].
    next: u32,
    /// Length of the id at the front of `text`.
    id_len: usize,
    /// The id, then a pending job's verbatim request line or a settled
    /// job's watermark hex.
    text: Box<str>,
    state: JobState,
}

#[derive(Debug)]
enum JobState {
    /// Accepted, not settled: rotation carries its request line over in
    /// full.
    Pending,
    /// Settled: rotation folds it to a marker.
    Settled(Outcome),
    /// Compacted as settled, but its outcome line was torn away before a
    /// crash: only its acceptance slot is left.
    Lost,
}

/// The fields of a settled job's [`JobReport`] besides its id and
/// watermark hex.
#[derive(Debug)]
struct Outcome {
    seed: u64,
    status: JobStatus,
    attempts: u32,
    wall_ms: u64,
}

impl Job {
    fn id(&self) -> &str {
        &self.text[..self.id_len]
    }

    /// A pending job's request line; a settled job's watermark hex.
    fn rest(&self) -> &str {
        &self.text[self.id_len..]
    }

    fn set(&mut self, state: JobState, rest: &str) {
        self.text = [self.id(), rest].concat().into();
        self.state = state;
    }

    /// The settled outcome as a report line's fields, if it settled.
    fn report(&self) -> Option<JobReport> {
        match &self.state {
            JobState::Settled(outcome) => Some(JobReport {
                job_id: self.id().to_string(),
                watermark_hex: self.rest().to_string(),
                seed: outcome.seed,
                status: outcome.status.clone(),
                attempts: outcome.attempts,
                wall_ms: outcome.wall_ms,
            }),
            _ => None,
        }
    }
}

/// Marks the end of a [`Job::next`] chain.
const NO_JOB: u32 = u32::MAX;

/// Every job the journal knows of. The index by (op, id) keeps no second
/// copy of the id: a hash of (op, id) leads to the newest job with that
/// hash, and jobs that hash alike chain through [`Job::next`].
#[derive(Debug, Default)]
struct JobTable {
    jobs: Vec<Job>,
    /// Accepted jobs in acceptance order; finalized reports are written
    /// in this order, which is manifest order when a client submits a
    /// manifest top to bottom — the batch bit-identity convention.
    order: Vec<u32>,
    heads: HashMap<u64, u32>,
    hasher: RandomState,
    tenants: Vec<Box<str>>,
    tenant_ids: HashMap<Box<str>, u32>,
    /// Jobs in [`JobState::Settled`].
    settled: usize,
}

impl JobTable {
    fn find(&self, op: Op, id: &str) -> Option<&Job> {
        self.position(op, id).map(|i| &self.jobs[i])
    }

    fn position(&self, op: Op, id: &str) -> Option<usize> {
        let mut at = *self.heads.get(&self.hasher.hash_one((op, id)))?;
        while at != NO_JOB {
            let job = &self.jobs[at as usize];
            if job.op == op && job.id() == id {
                return Some(at as usize);
            }
            at = job.next;
        }
        None
    }

    /// The job's position, adding it (unaccepted, [`JobState::Lost`]) if
    /// it is new.
    fn position_or_add(&mut self, op: Op, id: &str) -> usize {
        if let Some(i) = self.position(op, id) {
            return i;
        }
        let i = u32::try_from(self.jobs.len()).expect("fewer than 2^32 jobs");
        let next = self
            .heads
            .insert(self.hasher.hash_one((op, id)), i)
            .unwrap_or(NO_JOB);
        let tenant = self.intern("");
        self.jobs.push(Job {
            op,
            accepted: false,
            tenant,
            next,
            id_len: id.len(),
            text: id.into(),
            state: JobState::Lost,
        });
        i as usize
    }

    fn intern(&mut self, tenant: &str) -> u32 {
        if let Some(&t) = self.tenant_ids.get(tenant) {
            return t;
        }
        let t = u32::try_from(self.tenants.len()).expect("fewer than 2^32 tenants");
        self.tenants.push(tenant.into());
        self.tenant_ids.insert(tenant.into(), t);
        t
    }

    fn tenant(&self, job: &Job) -> &str {
        &self.tenants[job.tenant as usize]
    }

    /// Records an intent and returns the job's position. A new job takes
    /// the next acceptance slot, owned by `tenant`; a known one keeps its
    /// slot and owner.
    fn accept(&mut self, op: Op, id: &str, tenant: &str) -> usize {
        let i = self.position_or_add(op, id);
        if !self.jobs[i].accepted {
            let tenant = self.intern(tenant);
            let job = &mut self.jobs[i];
            job.accepted = true;
            job.tenant = tenant;
            self.order.push(i as u32);
        }
        i
    }

    /// Gives a job with no state yet its pending request line.
    fn pend(&mut self, i: usize, line: &str) {
        let job = &mut self.jobs[i];
        if matches!(job.state, JobState::Lost) {
            job.set(JobState::Pending, line);
        }
    }

    /// Settles a job (replacing any earlier outcome of it).
    fn settle(&mut self, i: usize, report: &JobReport) {
        let job = &mut self.jobs[i];
        self.settled += usize::from(!matches!(job.state, JobState::Settled(_)));
        let outcome = Outcome {
            seed: report.seed,
            status: report.status.clone(),
            attempts: report.attempts,
            wall_ms: report.wall_ms,
        };
        job.set(JobState::Settled(outcome), &report.watermark_hex);
    }

    /// Accepted jobs in acceptance order.
    fn in_order(&self) -> impl Iterator<Item = &Job> {
        self.order.iter().map(|&i| &self.jobs[i as usize])
    }
}

/// Accumulates intent lines across journal segments (compact first,
/// then live), rebuilding acceptance order, tenant ownership, opens,
/// and the verbatim lines of jobs that were pending at rotation time.
#[derive(Debug, Default)]
struct IntentScan {
    accepted: HashSet<(Op, String)>,
    /// Accepted jobs in acceptance order, with their tenants.
    order: Vec<((Op, String), String)>,
    opens: Vec<String>,
    open_seen: HashSet<String>,
    /// Full request lines seen for a job key — absent for jobs folded
    /// to settled markers.
    job_lines: HashMap<(Op, String), String>,
}

impl IntentScan {
    /// Scans one segment's text, stopping at the first unparseable line
    /// (the torn tail of a live file). Returns the lines kept.
    fn take_lines(&mut self, text: &str) -> Vec<String> {
        let mut kept = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(fields) = parse_object(line) else {
                break;
            };
            kept.push(line.to_string());
            let op = match fields.get("op").and_then(|v| v.as_str()) {
                Some("embed") => Some(Op::Embed),
                Some("recognize") => Some(Op::Recognize),
                Some("open") => {
                    if self.open_seen.insert(line.to_string()) {
                        self.opens.push(line.to_string());
                    }
                    None
                }
                _ => None,
            };
            let (Some(op), Some(job_id)) = (op, fields.get("job_id").and_then(|v| v.as_str()))
            else {
                continue;
            };
            let tenant = fields
                .get("tenant")
                .and_then(|v| v.as_str())
                .unwrap_or_default();
            let key = (op, job_id.to_string());
            if self.accepted.insert(key.clone()) {
                self.order.push((key.clone(), tenant.to_string()));
            }
            let is_marker = fields.get("compact").and_then(|v| v.as_str()) == Some("settled");
            if !is_marker {
                self.job_lines.entry(key).or_insert_with(|| line.to_string());
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathmark_fleet::manifest::{parse_report, JobStatus};

    fn report(op: &str, n: u32) -> JobReport {
        JobReport {
            job_id: format!("{op}-{n:03}"),
            watermark_hex: format!("{n:x}"),
            seed: u64::from(n),
            status: JobStatus::Ok,
            attempts: 1,
            wall_ms: 9,
        }
    }

    fn job_line(n: u32) -> String {
        format!("{{\"op\":\"embed\",\"tenant\":\"t\",\"job_id\":\"embed-{n:03}\"}}")
    }

    fn temp_prefix(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pathmark-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("serve")
    }

    fn cleanup(prefix: &Path) {
        let _ = std::fs::remove_dir_all(prefix.parent().unwrap());
    }

    #[test]
    fn intents_then_outcomes_then_finalize() {
        let prefix = temp_prefix("basic");
        let mut journal = Journal::create(&prefix).unwrap();
        journal.record_open_intent("{\"op\":\"open\",\"tenant\":\"t\"}").unwrap();
        let a = report("embed", 0);
        let b = report("recognize", 0);
        journal
            .record_job_intent(
                Op::Embed,
                "t",
                &a.job_id,
                "{\"op\":\"embed\",\"tenant\":\"t\",\"job_id\":\"embed-000\"}",
            )
            .unwrap();
        journal
            .record_job_intent(
                Op::Recognize,
                "t",
                &b.job_id,
                "{\"op\":\"recognize\",\"tenant\":\"t\",\"job_id\":\"recognize-000\"}",
            )
            .unwrap();
        assert!(journal.is_accepted(Op::Embed, "embed-000"));
        assert!(!journal.is_accepted(Op::Embed, "recognize-000"), "keyed per op");
        assert_eq!(journal.owner(Op::Embed, "embed-000"), Some("t"));
        assert_eq!(journal.owner(Op::Embed, "missing"), None);
        assert!(journal.completed(Op::Embed, "embed-000").is_none());

        journal.record_outcome(Op::Embed, &a).unwrap();
        journal.record_outcome(Op::Recognize, &b).unwrap();
        assert_eq!(journal.completed(Op::Embed, "embed-000"), Some(a.clone()));
        assert_eq!(journal.completed_count(), 2);

        let (embeds, recognizes) = journal.finalize().unwrap();
        assert_eq!((embeds, recognizes), (1, 1));
        let embed_text =
            std::fs::read_to_string(with_suffix(&prefix, ".embed.jsonl")).unwrap();
        assert_eq!(parse_report(&embed_text).unwrap(), vec![a]);
        assert!(
            !intents_path(&prefix).exists(),
            "finalize retires the intents file"
        );
        cleanup(&prefix);
    }

    #[test]
    fn resume_splits_done_from_pending_and_drops_torn_tails() {
        let prefix = temp_prefix("resume");
        {
            let mut journal = Journal::create(&prefix).unwrap();
            journal.record_open_intent("{\"op\":\"open\",\"tenant\":\"t\"}").unwrap();
            for n in 0..3 {
                let r = report("embed", n);
                journal
                    .record_job_intent(Op::Embed, "t", &r.job_id, &job_line(n))
                    .unwrap();
            }
            // Only job 0 settled before the "crash".
            journal.record_outcome(Op::Embed, &report("embed", 0)).unwrap();
            // Crash: journal dropped without finalize; sidecars stay.
        }
        // Tear the trailing intent line and the outcome sidecar, as a
        // kill -9 mid-write would.
        let intents = intents_path(&prefix);
        let mut text = std::fs::read_to_string(&intents).unwrap();
        text.push_str("{\"op\":\"embed\",\"job_id\":\"embed-9");
        std::fs::write(&intents, &text).unwrap();
        let sidecar = with_suffix(&prefix, ".embed.jsonl.partial");
        let mut text = std::fs::read_to_string(&sidecar).unwrap();
        text.push_str("{\"job_id\":\"embed-0");
        std::fs::write(&sidecar, &text).unwrap();

        let (journal, replay) = Journal::resume(&prefix).unwrap();
        assert_eq!(
            replay.len(),
            3,
            "open + the two pending jobs; the settled job and torn tail are not replayed"
        );
        assert!(replay[0].contains("\"open\""));
        assert!(replay[1].contains("embed-001"));
        assert!(replay[2].contains("embed-002"));
        assert!(journal.completed(Op::Embed, "embed-000").is_some());
        assert!(journal.completed(Op::Embed, "embed-001").is_none());
        assert!(journal.is_accepted(Op::Embed, "embed-000"), "settled jobs keep their slot");
        assert!(journal.is_accepted(Op::Embed, "embed-002"));
        assert!(
            !journal.is_accepted(Op::Embed, "embed-9"),
            "the torn intent was never accepted"
        );
        cleanup(&prefix);
    }

    #[test]
    fn resumed_journal_finalizes_in_original_acceptance_order() {
        let prefix = temp_prefix("order");
        {
            let mut journal = Journal::create(&prefix).unwrap();
            for n in 0..3 {
                let r = report("embed", n);
                journal
                    .record_job_intent(Op::Embed, "t", &r.job_id, &job_line(n))
                    .unwrap();
            }
            // Outcomes land out of order (completion order) and only
            // partially (jobs 2 and 0) before the crash.
            journal.record_outcome(Op::Embed, &report("embed", 2)).unwrap();
            journal.record_outcome(Op::Embed, &report("embed", 0)).unwrap();
        }
        let (mut journal, _replay) = Journal::resume(&prefix).unwrap();
        journal.record_outcome(Op::Embed, &report("embed", 1)).unwrap();
        journal.finalize().unwrap();
        let text = std::fs::read_to_string(with_suffix(&prefix, ".embed.jsonl")).unwrap();
        let ids: Vec<String> = parse_report(&text)
            .unwrap()
            .into_iter()
            .map(|r| r.job_id)
            .collect();
        assert_eq!(
            ids,
            vec!["embed-000", "embed-001", "embed-002"],
            "acceptance order, not completion order"
        );
        cleanup(&prefix);
    }

    #[test]
    fn resume_with_no_prior_state_is_a_fresh_journal() {
        let prefix = temp_prefix("fresh");
        let (journal, replay) = Journal::resume(&prefix).unwrap();
        assert!(replay.is_empty());
        assert_eq!(journal.completed_count(), 0);
        cleanup(&prefix);
    }

    #[test]
    fn rotation_folds_settled_intents_and_bounds_the_live_file() {
        let prefix = temp_prefix("rotate");
        // A threshold small enough that every settled job triggers a
        // rotation.
        let mut journal = Journal::create(&prefix).unwrap().with_max_bytes(Some(64));
        journal.record_open_intent("{\"op\":\"open\",\"tenant\":\"t\"}").unwrap();
        for n in 0..6 {
            journal
                .record_job_intent(Op::Embed, "t", &format!("embed-{n:03}"), &job_line(n))
                .unwrap();
            if n < 4 {
                journal.record_outcome(Op::Embed, &report("embed", n)).unwrap();
            }
        }
        assert!(journal.rotations() >= 1, "the byte cap forced rotations");
        assert!(
            journal.live_bytes() <= 64 + job_line(0).len() as u64 + 1,
            "the live file never grows much past the cap: {}",
            journal.live_bytes()
        );
        let segment = std::fs::read_to_string(compact_path(&prefix)).unwrap();
        assert!(
            segment.contains("\"compact\":\"settled\""),
            "settled jobs folded to markers: {segment}"
        );
        assert!(segment.starts_with("{\"op\":\"open\""), "opens lead the segment");

        // Resume reads segments in order: settled jobs are answered
        // from the journal, pending jobs 4 and 5 replay with their full
        // lines, acceptance order survives end to end.
        drop(journal);
        let (mut journal, replay) = Journal::resume(&prefix).unwrap();
        assert!(replay[0].contains("\"open\""));
        let replayed: Vec<&String> = replay.iter().filter(|l| l.contains("job_id")).collect();
        assert_eq!(replayed.len(), 2, "only the pending jobs replay: {replay:?}");
        assert!(replayed[0].contains("embed-004") && replayed[1].contains("embed-005"));
        for n in 0..4 {
            assert!(journal.completed(Op::Embed, &format!("embed-{n:03}")).is_some());
        }
        journal.record_outcome(Op::Embed, &report("embed", 4)).unwrap();
        journal.record_outcome(Op::Embed, &report("embed", 5)).unwrap();
        journal.finalize().unwrap();
        let ids: Vec<String> = parse_report(
            &std::fs::read_to_string(with_suffix(&prefix, ".embed.jsonl")).unwrap(),
        )
        .unwrap()
        .into_iter()
        .map(|r| r.job_id)
        .collect();
        let want: Vec<String> = (0..6).map(|n| format!("embed-{n:03}")).collect();
        assert_eq!(ids, want, "acceptance order survives rotation + resume");
        assert!(!compact_path(&prefix).exists(), "finalize retires the segment");
        assert!(!intents_path(&prefix).exists());
        cleanup(&prefix);
    }

    #[test]
    fn rotation_counts_into_telemetry_and_repeated_rotations_converge() {
        use pathmark_telemetry::MemorySink;
        use std::sync::Arc;
        let prefix = temp_prefix("rotate-telemetry");
        let sink = Arc::new(MemorySink::new());
        let mut journal = Journal::create(&prefix)
            .unwrap()
            .with_max_bytes(Some(32))
            .with_telemetry(Telemetry::new(sink.clone()));
        for n in 0..4 {
            journal
                .record_job_intent(Op::Embed, "t", &format!("embed-{n:03}"), &job_line(n))
                .unwrap();
            journal.record_outcome(Op::Embed, &report("embed", n)).unwrap();
        }
        assert_eq!(sink.counter(Counter::JournalRotation), journal.rotations());
        assert!(journal.rotations() >= 2);
        // Rotations trigger on intent appends, so the last accepted job
        // is still a full pending line in the segment; an explicit
        // rotation after it settles folds everything.
        journal.rotate().unwrap();
        assert_eq!(sink.counter(Counter::JournalRotation), journal.rotations());
        // Each rotation rewrites the whole segment: with everything
        // settled it is opens + one marker per job, nothing else.
        let segment = std::fs::read_to_string(compact_path(&prefix)).unwrap();
        assert_eq!(segment.lines().count(), 4);
        assert!(segment.lines().all(|l| l.contains("\"compact\":\"settled\"")));
        cleanup(&prefix);
    }

    #[test]
    fn report_sidecars_compact_under_the_byte_cap_and_survive_resume() {
        use pathmark_telemetry::MemorySink;
        use std::sync::Arc;
        let prefix = temp_prefix("report-rotate");
        let sink = Arc::new(MemorySink::new());
        let mut journal = Journal::create(&prefix)
            .unwrap()
            .with_max_bytes(Some(96))
            .with_telemetry(Telemetry::new(sink.clone()));
        for n in 0..8 {
            journal
                .record_job_intent(Op::Embed, "t", &format!("embed-{n:03}"), &job_line(n))
                .unwrap();
            journal.record_outcome(Op::Embed, &report("embed", n)).unwrap();
        }
        assert!(
            journal.report_rotations() >= 1,
            "the byte cap forced report compactions"
        );
        assert_eq!(
            sink.counter(Counter::ReportRotation),
            journal.report_rotations()
        );
        // The live sidecar never grows much past the cap; the folded
        // outcomes live in the rename-atomic `.compact` segment.
        let partial = with_suffix(&prefix, ".embed.jsonl.partial");
        let outcome_line = report("embed", 0).to_line().len() as u64 + 1;
        assert!(
            std::fs::metadata(&partial).unwrap().len() <= 96 + outcome_line,
            "sidecar bounded near the cap"
        );
        assert!(with_suffix(&prefix, ".embed.jsonl.compact").exists());

        // A crashed daemon resumes with every outcome intact and
        // finalizes the full report in acceptance order.
        drop(journal);
        let (journal, _replay) = Journal::resume(&prefix).unwrap();
        assert_eq!(journal.completed_count(), 8);
        journal.finalize().unwrap();
        let ids: Vec<String> = parse_report(
            &std::fs::read_to_string(with_suffix(&prefix, ".embed.jsonl")).unwrap(),
        )
        .unwrap()
        .into_iter()
        .map(|r| r.job_id)
        .collect();
        let want: Vec<String> = (0..8).map(|n| format!("embed-{n:03}")).collect();
        assert_eq!(ids, want, "acceptance order survives report compaction");
        assert!(
            !with_suffix(&prefix, ".embed.jsonl.compact").exists(),
            "finalize retires the report segment"
        );
        cleanup(&prefix);
    }

    #[test]
    fn a_crash_between_rotations_loses_nothing() {
        let prefix = temp_prefix("rotate-crash");
        {
            let mut journal = Journal::create(&prefix).unwrap().with_max_bytes(Some(48));
            journal.record_open_intent("{\"op\":\"open\",\"tenant\":\"t\"}").unwrap();
            // Two jobs settle (forcing at least one rotation), a third
            // is accepted into the post-rotation live file, then the
            // daemon "dies" with a torn live tail.
            for n in 0..2 {
                journal
                    .record_job_intent(Op::Embed, "t", &format!("embed-{n:03}"), &job_line(n))
                    .unwrap();
                journal.record_outcome(Op::Embed, &report("embed", n)).unwrap();
            }
            assert!(journal.rotations() >= 1);
            journal
                .record_job_intent(Op::Embed, "t", "embed-002", &job_line(2))
                .unwrap();
        }
        let live = intents_path(&prefix);
        let mut text = std::fs::read_to_string(&live).unwrap();
        text.push_str("{\"op\":\"embed\",\"job_id\":\"to");
        std::fs::write(&live, &text).unwrap();

        let (journal, replay) = Journal::resume(&prefix).unwrap();
        assert!(journal.completed(Op::Embed, "embed-000").is_some());
        assert!(journal.completed(Op::Embed, "embed-001").is_some());
        assert!(journal.is_accepted(Op::Embed, "embed-002"));
        let pending: Vec<&String> = replay.iter().filter(|l| l.contains("job_id")).collect();
        assert_eq!(pending.len(), 1);
        assert!(pending[0].contains("embed-002"));
        cleanup(&prefix);
    }

    #[test]
    fn an_oversized_inherited_live_file_compacts_at_startup() {
        let prefix = temp_prefix("rotate-startup");
        // An uncapped daemon accepts and settles three jobs, then
        // crashes: everything sits in the live file.
        {
            let mut journal = Journal::create(&prefix).unwrap();
            journal.record_open_intent("{\"op\":\"open\",\"tenant\":\"t\"}").unwrap();
            for n in 0..3 {
                journal
                    .record_job_intent(Op::Embed, "t", &format!("embed-{n:03}"), &job_line(n))
                    .unwrap();
                journal.record_outcome(Op::Embed, &report("embed", n)).unwrap();
            }
        }
        // The successor resumes with a cap the inherited file already
        // exceeds. Every job settled, so no append will ever re-check
        // the threshold — the startup compaction has to do it.
        let (journal, replay) = Journal::resume(&prefix).unwrap();
        assert_eq!(replay.len(), 1, "only the open replays");
        let mut journal = journal.with_max_bytes(Some(48));
        journal.compact_if_oversized().unwrap();
        assert_eq!(journal.rotations(), 1);
        assert_eq!(journal.live_bytes(), 0);
        let segment = std::fs::read_to_string(compact_path(&prefix)).unwrap();
        assert_eq!(
            segment.lines().filter(|l| l.contains("\"compact\":\"settled\"")).count(),
            3,
            "the settled jobs fold to markers: {segment}"
        );
        cleanup(&prefix);
    }
}
