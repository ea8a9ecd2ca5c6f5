//! The daemon's write-ahead journal: crash-safe exactly-once job
//! execution on the fleet's one durable-write primitive,
//! [`LineLog`], with rotation so a long-running daemon's intents file
//! stays bounded.
//!
//! * An **intents file** (`PREFIX.intents.jsonl`) records every
//!   *accepted* request line — `open` lines and job lines, verbatim,
//!   unbuffered — *before* the job is enqueued. After a crash, the
//!   intents file says what the daemon had promised to do.
//! * Two [`ReportWriter`]s (`PREFIX.embed.jsonl`,
//!   `PREFIX.recognize.jsonl`) double as the outcome log: settled jobs
//!   stream to the `.partial` sidecars exactly as the batch CLI streams
//!   them, and graceful shutdown finalizes both reports.
//! * **Rotation** ([`Journal::rotate`]) replaces the intents file
//!   itself once more than the byte cap has been appended to it since
//!   the last rotation: `open` lines and still-pending job lines are
//!   carried over verbatim, and settled jobs are folded to small
//!   `{"op":…,"tenant":…,"job_id":…,"compact":"settled"}` markers
//!   (their full outcomes already live in the report sidecars). The
//!   replacement is a tmp file, fsync and rename, so rotation can never
//!   lose a promise, and resume reads one file in acceptance order.
//!
//! Resume intersects intents with outcomes: outcomes already on disk
//! are *done* (duplicate submissions are answered from the journal),
//! intents with no outcome are *pending* and re-run. A torn trailing
//! line — the kill -9 case — is cut off, so a resumed daemon sees
//! exactly "what was accepted" and "what finished", under the
//! [`LineLog`] contract (kill -9 at any byte, not power loss). Client
//! resubmission after a crash is at-least-once; journal dedup makes
//! execution exactly-once.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::path::{Path, PathBuf};

use pathmark_fleet::json::{parse_object, write_object, Scalar};
use pathmark_fleet::log::LineLog;
use pathmark_fleet::manifest::{JobReport, JobStatus, ReportWriter};
use pathmark_telemetry::{Counter, Telemetry};

use crate::protocol::Op;

/// The write-ahead journal behind one daemon instance.
#[derive(Debug)]
pub struct Journal {
    intents: LineLog,
    embed: ReportWriter,
    recognize: ReportWriter,
    /// Every job intent ever recorded, settled or pending, in acceptance
    /// order, one compact record each — the dedup map — with the tenant
    /// that submitted it. Job ids are daemon-unique per op: the server
    /// rejects a second tenant reusing one, so a journaled outcome is
    /// never answered across tenants.
    jobs: JobTable,
    /// Accepted `open` lines in first-seen order, deduplicated —
    /// carried verbatim through every rotation (a resumed daemon must
    /// rebuild tenants before re-running their jobs).
    opens: Vec<String>,
    open_seen: HashSet<String>,
    /// Rotate once more than this many bytes have been appended to the
    /// intents file since the last rotation; `None` never rotates.
    max_bytes: Option<u64>,
    /// The intents file's size right after the last rotation (0 when
    /// created or resumed): what was appended since is the rest.
    rotated_size: u64,
    rotations: u64,
    telemetry: Telemetry,
}

fn intents_path(prefix: &Path) -> PathBuf {
    with_suffix(prefix, ".intents.jsonl")
}

fn report_path(prefix: &Path, op: Op) -> PathBuf {
    with_suffix(prefix, &format!(".{}.jsonl", op.as_str()))
}

fn with_suffix(prefix: &Path, suffix: &str) -> PathBuf {
    let mut name = prefix.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    prefix.with_file_name(name)
}

/// The compacted segments older builds kept beside the intents file and
/// the report sidecars. This build neither writes nor reads them.
const OLD_SEGMENTS: [&str; 3] = [
    ".intents.compact.jsonl",
    ".embed.jsonl.compact",
    ".recognize.jsonl.compact",
];

fn create_parent(prefix: &Path) -> std::io::Result<()> {
    match prefix.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
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

/// One line of the intents file.
enum Intent {
    Open(String),
    Job {
        op: Op,
        id: String,
        tenant: String,
        /// The verbatim request line; `None` for a settled marker.
        line: Option<String>,
    },
    /// A JSON object that is neither: kept, ignored.
    Other,
}

impl Intent {
    /// `None` for a line that is not a JSON object (a torn tail).
    fn parse(line: &str) -> Option<Intent> {
        let fields = parse_object(line).ok()?;
        let text = |name: &str| fields.get(name).and_then(|v| v.as_str());
        let op = match text("op") {
            Some("embed") => Op::Embed,
            Some("recognize") => Op::Recognize,
            Some("open") => return Some(Intent::Open(line.trim().to_string())),
            _ => return Some(Intent::Other),
        };
        let Some(id) = text("job_id") else {
            return Some(Intent::Other);
        };
        Some(Intent::Job {
            op,
            id: id.to_string(),
            tenant: text("tenant").unwrap_or_default().to_string(),
            line: (text("compact") != Some("settled")).then(|| line.trim().to_string()),
        })
    }
}

impl Journal {
    /// Starts a fresh journal at `PREFIX.{intents,embed,recognize}.jsonl`,
    /// replacing leftovers from an earlier run (and removing any
    /// compacted segment an older build left).
    ///
    /// # Errors
    ///
    /// Whatever creating the files reports.
    pub fn create(prefix: &Path) -> std::io::Result<Journal> {
        create_parent(prefix)?;
        for suffix in OLD_SEGMENTS {
            let _ = std::fs::remove_file(with_suffix(prefix, suffix));
        }
        Ok(Journal::new(
            LineLog::create(intents_path(prefix), Vec::<String>::new())?,
            ReportWriter::create(report_path(prefix, Op::Embed))?,
            ReportWriter::create(report_path(prefix, Op::Recognize))?,
        ))
    }

    fn new(intents: LineLog, embed: ReportWriter, recognize: ReportWriter) -> Journal {
        Journal {
            rotated_size: 0,
            intents,
            embed,
            recognize,
            jobs: JobTable::default(),
            opens: Vec::new(),
            open_seen: HashSet::new(),
            max_bytes: None,
            rotations: 0,
            telemetry: Telemetry::null(),
        }
    }

    /// Sets the rotation threshold: once more than `max_bytes` have
    /// been appended since the last rotation, the intents file is
    /// replaced by its folded form.
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
    /// trailing line in the intents file or either outcome sidecar is
    /// cut off.
    ///
    /// # Errors
    ///
    /// I/O errors reading or cutting any journal file, and a compacted
    /// segment left by an older build (named in the error): this build
    /// does not read those, so resuming without it would drop the jobs
    /// it holds.
    pub fn resume(prefix: &Path) -> std::io::Result<(Journal, Vec<String>)> {
        create_parent(prefix)?;
        for suffix in OLD_SEGMENTS {
            let old = with_suffix(prefix, suffix);
            if old.exists() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: a compacted journal segment from an older build; resume and \
                         shut down this journal with that build first",
                        old.display()
                    ),
                ));
            }
        }
        let (embed, embed_done) = ReportWriter::resume(report_path(prefix, Op::Embed))?;
        let (recognize, recognize_done) =
            ReportWriter::resume(report_path(prefix, Op::Recognize))?;
        let (intents, lines) = LineLog::resume(intents_path(prefix), Intent::parse)?;
        let mut completed = HashMap::new();
        for report in embed_done {
            completed.insert((Op::Embed, report.job_id.clone()), report);
        }
        for report in recognize_done {
            completed.insert((Op::Recognize, report.job_id.clone()), report);
        }

        // Settled = accepted with an outcome; pending = accepted without
        // one. Pending lines must survive future rotations verbatim, and
        // they are what the server replays (after the opens that built
        // their tenants).
        let mut journal = Journal::new(intents, embed, recognize);
        let mut pending = Vec::new();
        for intent in lines {
            let (op, id, tenant, line) = match intent {
                Intent::Open(line) => {
                    journal.note_open(line);
                    continue;
                }
                Intent::Other => continue,
                Intent::Job {
                    op,
                    id,
                    tenant,
                    line,
                } => (op, id, tenant, line),
            };
            if journal.is_accepted(op, &id) {
                continue;
            }
            let i = journal.jobs.accept(op, &id, &tenant);
            if let Some(report) = completed.remove(&(op, id)) {
                journal.jobs.settle(i, &report);
            } else if let Some(line) = line {
                journal.jobs.pend(i, &line);
                pending.push(line);
            } else {
                // A settled marker whose outcome line is gone (a kill
                // cannot do this; a lost sidecar can): the request line
                // is gone too, so the job cannot be re-run. It keeps
                // its acceptance slot (finalize skips report-less jobs)
                // but is surfaced, not silently dropped.
                eprintln!(
                    "serve: journal: {} job `{}` was compacted as settled but has no \
                     recorded outcome; it cannot be replayed",
                    op.as_str(),
                    journal.jobs.jobs[i].id()
                );
            }
        }
        // Outcomes with no intent behind them still answer dedup.
        for ((op, id), report) in completed {
            let i = journal.jobs.position_or_add(op, &id);
            journal.jobs.settle(i, &report);
        }
        let mut replay = journal.opens.clone();
        replay.extend(pending);
        Ok((journal, replay))
    }

    fn note_open(&mut self, line: String) {
        if self.open_seen.insert(line.clone()) {
            self.opens.push(line);
        }
    }

    /// Records an accepted `open` line so a resumed daemon can rebuild
    /// the tenant before re-running its pending jobs.
    ///
    /// # Errors
    ///
    /// Whatever the append reports.
    pub fn record_open_intent(&mut self, line: &str) -> std::io::Result<()> {
        self.intents.append(line.trim())?;
        self.note_open(line.trim().to_string());
        self.rotate_if_oversized()
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
        self.intents.append(line.trim())?;
        let i = self.jobs.accept(op, job_id, tenant);
        self.jobs.pend(i, line.trim());
        self.rotate_if_oversized()
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

    /// Bytes appended to the intents file since the last rotation (on
    /// a resumed journal, everything it inherited).
    pub fn live_bytes(&self) -> u64 {
        self.intents.size() - self.rotated_size
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
        self.rotate_if_oversized()
    }

    /// Rotates if more than the cap has been appended since the last
    /// rotation. Appends check this themselves; a resumed daemon calls
    /// it once at startup, since an inherited file whose jobs all
    /// settled before the crash would never trigger an append again.
    ///
    /// # Errors
    ///
    /// Whatever [`Journal::rotate`] reports.
    pub fn rotate_if_oversized(&mut self) -> std::io::Result<()> {
        match self.max_bytes {
            Some(max) if self.live_bytes() > max => self.rotate(),
            _ => Ok(()),
        }
    }

    /// Replaces the intents file with the journal's full state — opens,
    /// then per accepted job (in acceptance order) either its verbatim
    /// pending line or a small settled marker — through
    /// [`LineLog::replace`], so a crash mid-rotation leaves the old
    /// file intact. The sidecar outcome line of every marked job landed
    /// before its marker is written (markers come only from
    /// `record_outcome`'s settled jobs), so a marker always has an
    /// outcome behind it.
    ///
    /// # Errors
    ///
    /// I/O errors replacing the intents file.
    pub fn rotate(&mut self) -> std::io::Result<()> {
        let opens = self.opens.iter().map(|line| Cow::Borrowed(line.as_str()));
        let jobs = self.jobs.in_order().map(|job| match &job.state {
            JobState::Pending => Cow::Borrowed(job.rest()),
            _ => Cow::Owned(settled_marker(job.op, self.jobs.tenant(job), job.id())),
        });
        self.intents.replace(opens.chain(jobs))?;
        self.rotated_size = self.intents.size();
        self.rotations += 1;
        self.telemetry.count(Counter::JournalRotation, 1);
        Ok(())
    }

    /// Finalizes both reports (acceptance order, fsync, atomic rename)
    /// and retires the intents file — every promise it held is now
    /// durable in a finalized report. Returns the (embed, recognize)
    /// report line counts.
    ///
    /// # Errors
    ///
    /// I/O errors finalizing either report or removing the intents
    /// file.
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
        self.intents.remove()?;
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

    /// Appends `text` to `path` as a kill -9 mid-write leaves it.
    fn append_raw(path: &Path, text: &str) {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(text.as_bytes()).unwrap();
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
        append_raw(
            &intents_path(&prefix),
            "{\"op\":\"embed\",\"job_id\":\"embed-9",
        );
        append_raw(
            &with_suffix(&prefix, ".embed.jsonl.partial"),
            "{\"job_id\":\"embed-0",
        );

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
            "appends since the last rotation never grow much past the cap: {}",
            journal.live_bytes()
        );
        let intents = std::fs::read_to_string(intents_path(&prefix)).unwrap();
        assert!(
            intents.contains("\"compact\":\"settled\""),
            "settled jobs folded to markers: {intents}"
        );
        assert!(intents.starts_with("{\"op\":\"open\""), "opens lead the file");
        assert_eq!(
            std::fs::read_dir(prefix.parent().unwrap()).unwrap().count(),
            3,
            "one intents file and two sidecars, nothing else"
        );

        // Resume reads the one file in acceptance order: settled jobs
        // are answered from the journal, pending jobs 4 and 5 replay
        // with their full lines, acceptance order survives end to end.
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
        assert!(!intents_path(&prefix).exists(), "finalize retires the intents file");
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
        // An explicit rotation after the last job settles folds
        // everything.
        journal.rotate().unwrap();
        assert_eq!(sink.counter(Counter::JournalRotation), journal.rotations());
        // Each rotation replaces the whole file: with everything
        // settled it is opens + one marker per job, nothing else.
        let intents = std::fs::read_to_string(intents_path(&prefix)).unwrap();
        assert_eq!(intents.lines().count(), 4);
        assert!(intents.lines().all(|l| l.contains("\"compact\":\"settled\"")));
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
        append_raw(&intents_path(&prefix), "{\"op\":\"embed\",\"job_id\":\"to");

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
        // the threshold — the startup rotation has to do it.
        let (journal, replay) = Journal::resume(&prefix).unwrap();
        assert_eq!(replay.len(), 1, "only the open replays");
        let mut journal = journal.with_max_bytes(Some(48));
        journal.rotate_if_oversized().unwrap();
        assert_eq!(journal.rotations(), 1);
        assert_eq!(journal.live_bytes(), 0);
        let intents = std::fs::read_to_string(intents_path(&prefix)).unwrap();
        assert_eq!(
            intents.lines().filter(|l| l.contains("\"compact\":\"settled\"")).count(),
            3,
            "the settled jobs fold to markers: {intents}"
        );
        cleanup(&prefix);
    }

    /// One call of the crash test's scripted daemon life.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Call {
        Open,
        Accept(Op, u32),
        Settle(Op, u32),
        Finalize,
    }

    /// Jobs are accepted in this order and settle out of it; every job
    /// settles before the journal is finalized.
    const SCRIPT: [Call; 10] = [
        Call::Accept(Op::Embed, 0),
        Call::Accept(Op::Recognize, 0),
        Call::Accept(Op::Embed, 1),
        Call::Settle(Op::Embed, 1),
        Call::Settle(Op::Embed, 0),
        Call::Accept(Op::Embed, 2),
        Call::Settle(Op::Recognize, 0),
        Call::Accept(Op::Recognize, 1),
        Call::Settle(Op::Embed, 2),
        Call::Settle(Op::Recognize, 1),
    ];

    const OPEN: &str = "{\"op\":\"open\",\"tenant\":\"t\"}";

    fn id(op: Op, n: u32) -> String {
        format!("{}-{n:03}", op.as_str())
    }

    fn intent_line(op: Op, n: u32) -> String {
        format!(
            "{{\"op\":\"{}\",\"tenant\":\"t\",\"job_id\":\"{}\"}}",
            op.as_str(),
            id(op, n)
        )
    }

    /// The effects of the calls that returned `Ok`, and the call a kill
    /// interrupted (whose effect may or may not have reached the disk).
    #[derive(Debug, Default)]
    struct Done {
        opened: bool,
        accepted: Vec<(Op, u32)>,
        settled: Vec<(Op, u32)>,
        call: Option<Call>,
    }

    /// The scripted daemon life, with a byte cap that rotates the
    /// intents file several times.
    fn daemon_life(prefix: &Path, done: &mut Done) -> std::io::Result<()> {
        let mut journal = Journal::create(prefix)?.with_max_bytes(Some(100));
        done.call = Some(Call::Open);
        journal.record_open_intent(OPEN)?;
        done.opened = true;
        for call in SCRIPT {
            done.call = Some(call);
            match call {
                Call::Accept(op, n) => {
                    journal.record_job_intent(op, "t", &id(op, n), &intent_line(op, n))?;
                    done.accepted.push((op, n));
                }
                Call::Settle(op, n) => {
                    journal.record_outcome(op, &report(op.as_str(), n))?;
                    done.settled.push((op, n));
                }
                Call::Open | Call::Finalize => unreachable!(),
            }
        }
        done.call = Some(Call::Finalize);
        journal.finalize().map(drop)
    }

    /// The journal killed before every call, at every byte it writes —
    /// appended lines, rotations and the finalize — and then killed
    /// again at every step of its own resume. Resume must return each
    /// accepted job exactly once, settled or replayed with its request
    /// line, in acceptance order, and the resumed daemon must finalize
    /// the reports of an uninterrupted one. (A resume that rewrote the
    /// intents file in place lost settled jobs when killed mid-rewrite;
    /// the resume sweep is what catches that.)
    #[test]
    fn crash_journal_resumes_every_accepted_job_exactly_once() {
        let prefix = temp_prefix("crash");
        let dir = prefix.parent().unwrap().to_path_buf();
        daemon_life(&prefix, &mut Done::default()).unwrap();
        let reports = |prefix: &Path| {
            [Op::Embed, Op::Recognize].map(|op| std::fs::read(report_path(prefix, op)).unwrap())
        };
        let uninterrupted = reports(&prefix);
        let kills = pathmark_fleet::log::crash::sweep(
            &dir,
            |done: &mut Done| daemon_life(&prefix, done),
            || Journal::resume(&prefix),
            |done, (mut journal, replay)| {
                let interrupted =
                    |call: Call| done.call == Some(call) || done.call == Some(Call::Finalize);
                // Accepted jobs on disk: every accept that returned Ok,
                // plus the interrupted one if its line landed.
                let on_disk: Vec<(Op, String, bool)> = journal
                    .jobs
                    .in_order()
                    .map(|job| (job.op, job.id().to_string(), job.report().is_some()))
                    .collect();
                let ids: Vec<(Op, String)> = on_disk
                    .iter()
                    .map(|(op, id, _)| (*op, id.clone()))
                    .collect();
                let mut want: Vec<(Op, String)> = done
                    .accepted
                    .iter()
                    .map(|&(op, n)| (op, id(op, n)))
                    .collect();
                if let Some(Call::Accept(op, n)) = done.call {
                    if ids.len() > want.len() {
                        want.push((op, id(op, n)));
                    }
                }
                assert_eq!(ids, want, "{done:?}");
                // Each is settled exactly when its outcome returned Ok
                // (or was the interrupted call), else pending.
                for (op, job_id, settled) in &on_disk {
                    let n: u32 = job_id[job_id.len() - 3..].parse().unwrap();
                    if done.settled.contains(&(*op, n)) {
                        assert!(settled, "{job_id} settled before the kill: {done:?}");
                    } else if !interrupted(Call::Settle(*op, n)) {
                        assert!(!settled, "{job_id} never settled: {done:?}");
                    }
                }
                // Replay: the open, then every pending job's own line,
                // once, in acceptance order.
                let opens = usize::from(replay.first().map(String::as_str) == Some(OPEN));
                if done.opened {
                    assert_eq!(opens, 1, "{done:?}");
                } else if !interrupted(Call::Open) {
                    assert_eq!(opens, 0, "{done:?}");
                }
                let pending: Vec<String> = on_disk
                    .iter()
                    .filter(|(_, _, settled)| !settled)
                    .map(|(op, job_id, _)| {
                        intent_line(*op, job_id[job_id.len() - 3..].parse().unwrap())
                    })
                    .collect();
                assert_eq!(replay[opens..], pending, "{done:?}");

                // The resumed daemon re-runs the pending jobs, takes the
                // resubmissions, and finalizes what an uninterrupted
                // daemon would.
                for call in SCRIPT {
                    if let Call::Accept(op, n) = call {
                        if !journal.is_accepted(op, &id(op, n)) {
                            journal
                                .record_job_intent(op, "t", &id(op, n), &intent_line(op, n))
                                .unwrap();
                        }
                    }
                }
                for call in SCRIPT {
                    if let Call::Settle(op, n) = call {
                        if journal.completed(op, &id(op, n)).is_none() {
                            journal.record_outcome(op, &report(op.as_str(), n)).unwrap();
                        }
                    }
                }
                journal.finalize().unwrap();
                assert_eq!(reports(&prefix), uninterrupted, "{done:?}");
                assert!(!intents_path(&prefix).exists());
            },
        );
        assert!(
            kills > 1000,
            "every byte of the life is a kill point: {kills}"
        );
        cleanup(&prefix);
    }
}
