//! The JSONL batch manifest and report format.
//!
//! A **manifest** drives a batch: one JSON object per line, each naming
//! one copy to fingerprint. Blank lines and `#` comments are skipped.
//!
//! ```text
//! # 64-copy distribution run
//! {"job_id":"copy-000"}
//! {"job_id":"copy-001","seed":1234}
//! {"job_id":"copy-002","watermark_hex":"8f3a9c"}
//! ```
//!
//! Fields other than `job_id` are optional:
//!
//! * `seed` — the per-copy numeric secret. Defaults to
//!   `base_seed XOR fnv1a(job_id)`, so every copy gets a distinct,
//!   reproducible key derived from the batch key.
//! * `watermark_hex` — the copy's watermark `W_i` in hex. Defaults to a
//!   watermark drawn deterministically from the per-copy seed.
//!
//! A **report** is the output side: one line per job with the resolved
//! `watermark_hex` and `seed`, a `status`, and the job's wall-clock
//! time. Report lines are a superset of manifest lines, so a report can
//! be fed back in as the manifest of a recognition run.

use std::fmt;
use std::path::{Path, PathBuf};

use pathmark_core::java::JavaConfig;
use pathmark_core::key::{Watermark, WatermarkKey};
use pathmark_crypto::Prng;
use pathmark_math::bigint::BigUint;

use crate::cache::fnv1a;
use crate::json::{parse_object, write_object, Scalar};
use crate::log::LineLog;

/// One manifest line: a copy to fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbedJobSpec {
    /// Identifies the copy (and names its output file).
    pub job_id: String,
    /// Explicit watermark `W_i` in lowercase hex, if pinned.
    pub watermark_hex: Option<String>,
    /// Explicit per-copy numeric secret, if pinned.
    pub seed: Option<u64>,
}

impl EmbedJobSpec {
    /// A spec with derived seed and watermark.
    pub fn new(job_id: impl Into<String>) -> EmbedJobSpec {
        EmbedJobSpec {
            job_id: job_id.into(),
            watermark_hex: None,
            seed: None,
        }
    }

    /// The copy's numeric secret: the explicit `seed` field, or a
    /// distinct reproducible value derived from the batch seed and the
    /// job id.
    pub fn effective_seed(&self, base_seed: u64) -> u64 {
        self.seed
            .unwrap_or_else(|| base_seed ^ fnv1a(self.job_id.as_bytes()))
    }

    /// The copy's full key under the batch key: per-copy numeric secret,
    /// shared secret input (so all copies trace identically).
    pub fn effective_key(&self, base: &WatermarkKey) -> WatermarkKey {
        WatermarkKey::new(self.effective_seed(base.seed), base.input.clone())
    }

    /// Resolves the copy's watermark `W_i`: the explicit hex value, or a
    /// watermark drawn deterministically from the per-copy seed.
    ///
    /// # Errors
    ///
    /// A message if `watermark_hex` is present but not valid hex.
    pub fn watermark(
        &self,
        base: &WatermarkKey,
        config: &JavaConfig,
    ) -> Result<Watermark, String> {
        match &self.watermark_hex {
            Some(hex) => Ok(Watermark::from_value(
                parse_hex(hex)?,
                config.watermark_bits,
            )),
            None => {
                let mut rng = Prng::from_seed(self.effective_seed(base.seed) ^ 0x57_4d46);
                Ok(Watermark::random(config.watermark_bits, &mut rng))
            }
        }
    }
}

/// A job's terminal state in a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Embedded, or recognized with the expected watermark.
    Ok,
    /// The job failed; the payload says why (including panics).
    Failed(String),
    /// Recognition could not pin down a watermark.
    NotFound,
    /// Recognition recovered a watermark, but not the expected one.
    Mismatch,
    /// The job overran its deadline and was abandoned; its worker was
    /// replaced so the rest of the batch kept running.
    TimedOut,
}

impl JobStatus {
    /// Whether the job succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Ok)
    }

    fn render(&self) -> String {
        match self {
            JobStatus::Ok => "ok".to_string(),
            JobStatus::Failed(why) => format!("failed: {why}"),
            JobStatus::NotFound => "not-found".to_string(),
            JobStatus::Mismatch => "mismatch".to_string(),
            JobStatus::TimedOut => "timed-out".to_string(),
        }
    }

    fn parse(text: &str) -> JobStatus {
        match text {
            "ok" => JobStatus::Ok,
            "not-found" => JobStatus::NotFound,
            "mismatch" => JobStatus::Mismatch,
            "timed-out" => JobStatus::TimedOut,
            other => JobStatus::Failed(
                other
                    .strip_prefix("failed: ")
                    .unwrap_or(other)
                    .to_string(),
            ),
        }
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// One report line: a job's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// The copy's id, echoed from the manifest.
    pub job_id: String,
    /// The resolved watermark `W_i` in lowercase hex.
    pub watermark_hex: String,
    /// The resolved per-copy numeric secret.
    pub seed: u64,
    /// Terminal state.
    pub status: JobStatus,
    /// Attempts the job consumed (1 without retries; 0 means the job
    /// was abandoned — timed out — before completing any attempt).
    pub attempts: u32,
    /// Wall-clock duration of the job in milliseconds.
    pub wall_ms: u64,
}

impl JobReport {
    /// Serializes the report as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        write_object(&[
            ("job_id", Scalar::Str(self.job_id.clone())),
            ("watermark_hex", Scalar::Str(self.watermark_hex.clone())),
            ("seed", Scalar::Num(self.seed)),
            ("status", Scalar::Str(self.status.render())),
            ("attempts", Scalar::Num(self.attempts as u64)),
            ("wall_ms", Scalar::Num(self.wall_ms)),
        ])
    }
}

/// Parses a manifest: one JSON object per line, `#` comments and blank
/// lines skipped. Report lines parse too (their extra fields are
/// accepted), so a previous embed report can drive a recognition run.
///
/// # Errors
///
/// A `line N: …` message naming the first malformed line.
pub fn parse_manifest(text: &str) -> Result<Vec<EmbedJobSpec>, String> {
    let mut specs = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields =
            parse_object(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let field_str = |name: &str| -> Result<Option<String>, String> {
            match fields.get(name) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| format!("line {}: `{name}` must be a string", number + 1)),
            }
        };
        let job_id = field_str("job_id")?
            .ok_or_else(|| format!("line {}: missing `job_id`", number + 1))?;
        let seed = match fields.get("seed") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| format!("line {}: `seed` must be an integer", number + 1))?,
            ),
        };
        specs.push(EmbedJobSpec {
            job_id,
            watermark_hex: field_str("watermark_hex")?,
            seed,
        });
    }
    Ok(specs)
}

/// Parses a report produced by [`JobReport::to_line`] lines.
///
/// # Errors
///
/// A `line N: …` message naming the first malformed line.
pub fn parse_report(text: &str) -> Result<Vec<JobReport>, String> {
    let mut reports = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        reports.push(parse_report_line(line).map_err(|e| format!("line {}: {e}", number + 1))?);
    }
    Ok(reports)
}

/// Parses one [`JobReport::to_line`] line.
fn parse_report_line(line: &str) -> Result<JobReport, String> {
    let fields = parse_object(line).map_err(|e| e.to_string())?;
    let str_field = |name: &str| -> Result<String, String> {
        fields
            .get(name)
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("missing string `{name}`"))
    };
    let num_field = |name: &str| -> Result<u64, String> {
        fields
            .get(name)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing integer `{name}`"))
    };
    // `attempts` is optional so reports written before the retry
    // layer existed still parse (defaulting to one attempt).
    let attempts = match fields.get("attempts") {
        None => 1,
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| "`attempts` must be a small integer".to_string())?,
    };
    Ok(JobReport {
        job_id: str_field("job_id")?,
        watermark_hex: str_field("watermark_hex")?,
        seed: num_field("seed")?,
        status: JobStatus::parse(&str_field("status")?),
        attempts,
        wall_ms: num_field("wall_ms")?,
    })
}

/// Crash-safe, resumable report output.
///
/// Outcome lines stream to a `<path>.partial` sidecar, a [`LineLog`],
/// as jobs complete (unbuffered, one `write` per line, so a crash loses
/// at most the line being written). [`ReportWriter::finalize`] replaces
/// the sidecar with the full ordered report (tmp file, fsync, rename)
/// and then renames it onto the target path. A reader therefore only
/// ever sees either the previous complete report or the new complete
/// report — never a torn one.
///
/// [`ReportWriter::resume`] reopens the sidecar after a crash and
/// returns the outcomes already on disk (cutting off a torn trailing
/// line), so a resumed run skips exactly the jobs that finished.
#[derive(Debug)]
pub struct ReportWriter {
    log: LineLog,
    target: PathBuf,
}

impl ReportWriter {
    /// Starts a fresh report targeting `path`, replacing any leftover
    /// partial sidecar from an earlier crashed run with an empty one.
    ///
    /// # Errors
    ///
    /// Whatever creating the sidecar reports.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<ReportWriter> {
        let target = path.into();
        let log = LineLog::create(partial_path(&target), Vec::<String>::new())?;
        Ok(ReportWriter { log, target })
    }

    /// Resumes a crashed run targeting `path`: returns the writer plus
    /// every outcome already recorded — the valid prefix of the partial
    /// sidecar (a torn trailing line is cut off), else the finalized
    /// report if the previous run completed (carried into a new sidecar
    /// so the resumed run streams on from it), else nothing.
    ///
    /// # Errors
    ///
    /// I/O errors reading, cutting or creating the sidecar, or a
    /// malformed finalized report.
    pub fn resume(path: impl Into<PathBuf>) -> std::io::Result<(ReportWriter, Vec<JobReport>)> {
        let target = path.into();
        let partial = partial_path(&target);
        let (log, recorded) = if partial.exists() {
            LineLog::resume(partial, |line| parse_report_line(line).ok())?
        } else {
            let recorded = if target.exists() {
                parse_report(&std::fs::read_to_string(&target)?)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            } else {
                Vec::new()
            };
            let log = LineLog::create(partial, recorded.iter().map(JobReport::to_line))?;
            (log, recorded)
        };
        Ok((ReportWriter { log, target }, recorded))
    }

    /// Appends one outcome line and pushes it to the OS immediately.
    ///
    /// # Errors
    ///
    /// Whatever the underlying write reports.
    pub fn append(&mut self, report: &JobReport) -> std::io::Result<()> {
        self.log.append(&report.to_line())
    }

    /// Replaces the sidecar with `ordered` (the complete report, in
    /// manifest order) — tmp file, fsync, rename — and renames it onto
    /// the target path.
    ///
    /// # Errors
    ///
    /// I/O errors writing, syncing, or renaming.
    pub fn finalize(mut self, ordered: &[JobReport]) -> std::io::Result<()> {
        self.log.replace(ordered.iter().map(JobReport::to_line))?;
        self.log.rename(&self.target)
    }

    /// Where outcome lines stream before finalization.
    pub fn partial_path(&self) -> &Path {
        self.log.path()
    }
}

fn partial_path(target: &Path) -> PathBuf {
    let mut name = target.file_name().unwrap_or_default().to_os_string();
    name.push(".partial");
    target.with_file_name(name)
}

/// Formats a watermark value as lowercase hex (the manifest encoding).
pub fn to_hex(value: &BigUint) -> String {
    format!("{value:x}")
}

/// Parses the manifest hex encoding back into a value.
///
/// # Errors
///
/// A message naming the offending character, or empty input.
pub fn parse_hex(s: &str) -> Result<BigUint, String> {
    if s.is_empty() {
        return Err("empty hex value".to_string());
    }
    let mut value = BigUint::zero();
    for c in s.chars() {
        let digit = c
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit `{c}`"))?;
        value = &(&value << 4) + &BigUint::from(digit as u64);
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip_with_comments() {
        let text = "\n# header comment\n{\"job_id\":\"a\"}\n  \n\
                    {\"job_id\":\"b\",\"seed\":42}\n\
                    {\"job_id\":\"c\",\"watermark_hex\":\"deadbeef\",\"seed\":7}\n";
        let specs = parse_manifest(text).unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0], EmbedJobSpec::new("a"));
        assert_eq!(specs[1].seed, Some(42));
        assert_eq!(specs[2].watermark_hex.as_deref(), Some("deadbeef"));
    }

    #[test]
    fn manifest_errors_name_the_line() {
        let err = parse_manifest("{\"job_id\":\"a\"}\n{\"seed\":1}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_manifest("{\"job_id\":7}").unwrap_err();
        assert!(err.contains("must be a string"), "{err}");
    }

    #[test]
    fn report_lines_round_trip_and_parse_as_manifest() {
        let report = JobReport {
            job_id: "copy-003".to_string(),
            watermark_hex: "8f3a".to_string(),
            seed: 1234,
            status: JobStatus::Failed("trace budget exceeded".to_string()),
            attempts: 2,
            wall_ms: 17,
        };
        let line = report.to_line();
        let parsed = parse_report(&line).unwrap();
        assert_eq!(parsed, vec![report.clone()]);
        // The same line works as a manifest: the copy keeps its identity.
        let specs = parse_manifest(&line).unwrap();
        assert_eq!(specs[0].job_id, "copy-003");
        assert_eq!(specs[0].watermark_hex.as_deref(), Some("8f3a"));
        assert_eq!(specs[0].seed, Some(1234));
    }

    #[test]
    fn statuses_round_trip() {
        for status in [
            JobStatus::Ok,
            JobStatus::NotFound,
            JobStatus::Mismatch,
            JobStatus::TimedOut,
            JobStatus::Failed("why: because".to_string()),
        ] {
            assert_eq!(JobStatus::parse(&status.render()), status);
        }
        assert!(JobStatus::Ok.is_ok());
        assert!(!JobStatus::NotFound.is_ok());
        assert!(!JobStatus::TimedOut.is_ok());
    }

    #[test]
    fn reports_without_attempts_parse_with_default_one() {
        // A line written before the retry layer existed.
        let line = "{\"job_id\":\"old\",\"watermark_hex\":\"ff\",\"seed\":3,\
                    \"status\":\"ok\",\"wall_ms\":5}";
        let parsed = parse_report(line).unwrap();
        assert_eq!(parsed[0].attempts, 1);
    }

    #[test]
    fn derived_seeds_and_watermarks_are_distinct_and_reproducible() {
        let base = WatermarkKey::new(0xF1EE7, vec![1, 2]);
        let config = JavaConfig::for_watermark_bits(64);
        let a = EmbedJobSpec::new("copy-000");
        let b = EmbedJobSpec::new("copy-001");
        assert_ne!(a.effective_seed(base.seed), b.effective_seed(base.seed));
        assert_eq!(a.effective_seed(base.seed), a.effective_seed(base.seed));
        let wa = a.watermark(&base, &config).unwrap();
        let wb = b.watermark(&base, &config).unwrap();
        assert_ne!(wa.value(), wb.value());
        assert_eq!(
            a.watermark(&base, &config).unwrap().value(),
            wa.value(),
            "derivation is deterministic"
        );
        // Keys share the secret input but not the numeric secret.
        let ka = a.effective_key(&base);
        assert_eq!(ka.input, base.input);
        assert_ne!(ka.seed, base.seed);
    }

    #[test]
    fn explicit_watermark_hex_wins() {
        let base = WatermarkKey::new(1, vec![]);
        let config = JavaConfig::for_watermark_bits(64);
        let spec = EmbedJobSpec {
            job_id: "x".to_string(),
            watermark_hex: Some("ff00".to_string()),
            seed: None,
        };
        let w = spec.watermark(&base, &config).unwrap();
        assert_eq!(to_hex(w.value()), "ff00");
        let bad = EmbedJobSpec {
            watermark_hex: Some("xyz".to_string()),
            ..spec
        };
        assert!(bad.watermark(&base, &config).is_err());
    }

    #[test]
    fn hex_round_trip() {
        for text in ["0", "1", "deadbeef", "8f3a9c0012"] {
            assert_eq!(to_hex(&parse_hex(text).unwrap()), text);
        }
        assert!(parse_hex("").is_err());
    }

    fn sample_report(n: u32) -> JobReport {
        JobReport {
            job_id: format!("copy-{n:03}"),
            watermark_hex: format!("{n:x}"),
            seed: u64::from(n) * 7,
            status: JobStatus::Ok,
            attempts: 1,
            wall_ms: 0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pathmark-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn report_writer_streams_finalizes_and_cleans_up() {
        let dir = temp_dir("finalize");
        let target = dir.join("report.jsonl");
        let reports: Vec<JobReport> = (0..3).map(sample_report).collect();

        let mut writer = ReportWriter::create(&target).unwrap();
        // Lines stream out of order (completion order) …
        writer.append(&reports[2]).unwrap();
        writer.append(&reports[0]).unwrap();
        writer.append(&reports[1]).unwrap();
        let partial = writer.partial_path().to_path_buf();
        assert!(partial.exists());
        assert!(!target.exists(), "nothing at the target until finalize");

        // … but the finalized report is in manifest order.
        writer.finalize(&reports).unwrap();
        assert!(target.exists());
        assert!(!partial.exists(), "sidecar removed after finalize");
        let parsed = parse_report(&std::fs::read_to_string(&target).unwrap()).unwrap();
        assert_eq!(parsed, reports);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_recovers_the_valid_prefix_and_drops_a_torn_line() {
        let dir = temp_dir("resume");
        let target = dir.join("report.jsonl");
        let reports: Vec<JobReport> = (0..3).map(sample_report).collect();

        // Simulate a crash: two full lines plus a torn third.
        let mut text = String::new();
        text.push_str(&reports[0].to_line());
        text.push('\n');
        text.push_str(&reports[1].to_line());
        text.push('\n');
        text.push_str(&reports[2].to_line()[..10]);
        std::fs::write(dir.join("report.jsonl.partial"), &text).unwrap();

        let (mut writer, recorded) = ReportWriter::resume(&target).unwrap();
        assert_eq!(recorded, reports[..2], "torn line dropped");
        writer.append(&reports[2]).unwrap();
        let on_disk =
            parse_report(&std::fs::read_to_string(writer.partial_path()).unwrap()).unwrap();
        assert_eq!(on_disk, reports, "sidecar rewritten clean, then appended");
        writer.finalize(&reports).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_finalize_reads_the_finalized_report() {
        let dir = temp_dir("resume-done");
        let target = dir.join("report.jsonl");
        let reports: Vec<JobReport> = (0..2).map(sample_report).collect();

        let writer = ReportWriter::create(&target).unwrap();
        writer.finalize(&reports).unwrap();

        let (_writer, recorded) = ReportWriter::resume(&target).unwrap();
        assert_eq!(recorded, reports, "a completed run resumes as fully done");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_no_prior_state_starts_empty() {
        let dir = temp_dir("resume-fresh");
        let target = dir.join("report.jsonl");
        let (_writer, recorded) = ReportWriter::resume(&target).unwrap();
        assert!(recorded.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The zero-complete-lines edge cases: a crash so early that the
    // sidecar holds no full outcome line must resume as an *empty*
    // report — usable, not an error — and the next run must stream and
    // finalize normally.

    #[test]
    fn resume_with_an_empty_sidecar_is_an_empty_report() {
        let dir = temp_dir("resume-empty");
        let target = dir.join("report.jsonl");
        // A crash between sidecar creation and the first append.
        std::fs::write(dir.join("report.jsonl.partial"), "").unwrap();

        let (mut writer, recorded) = ReportWriter::resume(&target).unwrap();
        assert!(recorded.is_empty(), "zero complete lines resume as empty");
        let reports: Vec<JobReport> = (0..2).map(sample_report).collect();
        writer.append(&reports[0]).unwrap();
        writer.append(&reports[1]).unwrap();
        writer.finalize(&reports).unwrap();
        let parsed = parse_report(&std::fs::read_to_string(&target).unwrap()).unwrap();
        assert_eq!(parsed, reports);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_only_a_torn_line_is_an_empty_report() {
        let dir = temp_dir("resume-torn-only");
        let target = dir.join("report.jsonl");
        // A crash mid-way through the very first outcome line.
        let torn = &sample_report(0).to_line()[..10];
        std::fs::write(dir.join("report.jsonl.partial"), torn).unwrap();

        let (mut writer, recorded) = ReportWriter::resume(&target).unwrap();
        assert!(recorded.is_empty(), "a lone torn line resumes as empty");
        let sidecar = std::fs::read_to_string(writer.partial_path()).unwrap();
        assert!(sidecar.is_empty(), "sidecar rewritten clean of the torn tail");

        let reports: Vec<JobReport> = (0..2).map(sample_report).collect();
        writer.append(&reports[0]).unwrap();
        writer.append(&reports[1]).unwrap();
        writer.finalize(&reports).unwrap();
        let parsed = parse_report(&std::fs::read_to_string(&target).unwrap()).unwrap();
        assert_eq!(parsed, reports);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The batch of the crash test: eight jobs settle out of manifest
    /// order, then the report is finalized. `done` collects the
    /// outcomes whose append returned `Ok`.
    fn batch(target: &Path, done: &mut Vec<JobReport>) -> std::io::Result<()> {
        let reports: Vec<JobReport> = (0..8).map(sample_report).collect();
        let mut writer = ReportWriter::create(target)?;
        for n in [3, 0, 1, 7, 2, 5, 4, 6] {
            writer.append(&reports[n])?;
            done.push(reports[n].clone());
        }
        writer.finalize(&reports)
    }

    #[test]
    fn crash_report_writer_resumes_to_the_uninterrupted_report() {
        let dir = temp_dir("crash");
        let target = dir.join("report.jsonl");
        batch(&target, &mut Vec::new()).unwrap();
        let uninterrupted = std::fs::read(&target).unwrap();
        let kills = crate::log::crash::sweep(
            &dir,
            |done: &mut Vec<JobReport>| batch(&target, done),
            || ReportWriter::resume(&target),
            |done, (mut writer, recorded)| {
                // Every outcome that returned Ok is recorded exactly
                // once; nothing else is.
                let mut ids: Vec<&str> = recorded.iter().map(|r| r.job_id.as_str()).collect();
                ids.sort_unstable();
                let mut want: Vec<&str> = done.iter().map(|r| r.job_id.as_str()).collect();
                want.sort_unstable();
                if ids.len() == 8 {
                    // A kill inside finalize: every append had landed.
                    want = ids.clone();
                }
                assert_eq!(ids, want);
                // The resumed run settles the rest and finalizes the
                // same report an uninterrupted run does.
                let reports: Vec<JobReport> = (0..8).map(sample_report).collect();
                for report in &reports {
                    if !ids.contains(&report.job_id.as_str()) {
                        writer.append(report).unwrap();
                    }
                }
                writer.finalize(&reports).unwrap();
                assert_eq!(std::fs::read(&target).unwrap(), uninterrupted);
                assert!(!dir.join("report.jsonl.partial").exists());
            },
        );
        assert!(
            kills > 1000,
            "every byte of the batch is a kill point: {kills}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
