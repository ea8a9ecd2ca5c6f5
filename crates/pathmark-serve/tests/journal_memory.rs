//! Resident memory the daemon's journal keeps per settled job. A daemon
//! keeps every settled job for its lifetime (dedup, owner checks and the
//! finalized report need them), so this growth is its floor: 50,000
//! jobs are settled through one [`Journal`] and VmRSS must grow by at
//! most [`MAX_BYTES_PER_JOB`] per job. A dedicated test binary, so no
//! other test's allocations move the reading.

use pathmark_fleet::manifest::{JobReport, JobStatus};
use pathmark_serve::{Journal, Op};

const JOBS: u64 = 50_000;

/// Half of the 476 B per job this binary measured when the journal
/// stored each job id four times and a full `JobReport` per settled job
/// (one compact record per job measures 162 B).
const MAX_BYTES_PER_JOB: f64 = 238.0;

/// The process's resident set, from `/proc/self/status`.
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS in kB");
    kb * 1024
}

/// Accepts and settles jobs `range` as a serve client would: one tenant,
/// embeds and recognitions alternating, short ids, a 128-bit watermark.
fn settle(journal: &mut Journal, range: std::ops::Range<u64>) {
    for n in range {
        let op = if n % 2 == 0 { Op::Embed } else { Op::Recognize };
        let id = format!("t0-{n}");
        let line = format!(
            "{{\"op\":\"{}\",\"tenant\":\"t1\",\"job_id\":\"{id}\",\"program\":\"/srv/copies/{id}.pmvm\"}}",
            op.as_str()
        );
        journal.record_job_intent(op, "t1", &id, &line).unwrap();
        let report = JobReport {
            job_id: id,
            watermark_hex: format!(
                "{:032x}",
                u128::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835)
            ),
            seed: n.wrapping_mul(0x2545_F491_4F6C_DD1D),
            status: JobStatus::Ok,
            attempts: 1,
            wall_ms: 2,
        };
        journal.record_outcome(op, &report).unwrap();
    }
}

#[test]
fn each_settled_job_costs_one_compact_record() {
    let dir = std::env::temp_dir().join(format!("pathmark-journal-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut journal = Journal::create(&dir.join("serve")).unwrap();
    journal
        .record_open_intent(
            "{\"op\":\"open\",\"tenant\":\"t1\",\"seed\":7,\"input\":\"12\",\"bits\":128}",
        )
        .unwrap();
    // Warm the allocator and the journal's tables before measuring.
    settle(&mut journal, 0..1_000);
    let before = vm_rss_bytes();
    settle(&mut journal, 1_000..1_000 + JOBS);
    let per_job = vm_rss_bytes().saturating_sub(before) as f64 / JOBS as f64;
    eprintln!("journal: {per_job:.1} B of VmRSS per settled job");
    assert!(
        per_job <= MAX_BYTES_PER_JOB,
        "{per_job:.1} B per settled job, bound {MAX_BYTES_PER_JOB}"
    );
    // The records still answer dedup, owner and order questions.
    assert!(journal.completed(Op::Embed, "t0-2000").is_some());
    assert!(journal.completed(Op::Embed, "t0-2001").is_none());
    assert_eq!(journal.owner(Op::Recognize, "t0-2001"), Some("t1"));
    assert_eq!(journal.completed_count() as u64, 1_000 + JOBS);
    let (embeds, recognizes) = journal.finalize().unwrap();
    assert_eq!((embeds + recognizes) as u64, 1_000 + JOBS);
    let _ = std::fs::remove_dir_all(&dir);
}
