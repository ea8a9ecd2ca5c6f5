//! Recognition-engine throughput: the fused trace and window scan,
//! stage by stage.
//!
//! Recognition is the paper's dominant cost (Section 3.3 decrypts every
//! sliding 64-bit window of the trace), so this bench watches it
//! closely: a corpus of distinct watermarks is embedded into the
//! CaffeineMark-like workload under one key, then recognized serially,
//! with a fresh [`Recognizer`] per copy (key-derived crypto re-derived
//! every copy, as a per-call API user pays it).
//!
//! The row carries the per-stage wall times (trace / scan_roll /
//! scan_decrypt / vote / graph / crt) from a [`MemorySink`] and the
//! scan counters (windows scanned / skipped by the pre-rejects /
//! actually decrypted), so a regression in any one stage is visible in
//! `BENCH_recognize.json` rather than smeared into a single number.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pathmark_core::java::{JavaConfig, Recognizer};
use pathmark_core::key::Watermark;
use pathmark_crypto::Prng;
use pathmark_telemetry::{Counter, MemorySink, Stage, Telemetry};
use pathmark_workloads::java as workloads;
use stackvm::Program;

use crate::setup;

/// The stages a recognition row reports, in display order.
const STAGES: [Stage; 6] = [
    Stage::Trace,
    Stage::ScanRoll,
    Stage::ScanDecrypt,
    Stage::Vote,
    Stage::Graph,
    Stage::Crt,
];

/// One row of the recognition-throughput table.
#[derive(Debug, Clone)]
pub struct RecognizeRow {
    /// `serial`: one copy at a time.
    pub mode: &'static str,
    /// Worker threads (1: serial).
    pub workers: usize,
    /// Wall-clock time for the whole corpus, in milliseconds: the sum
    /// over copies of the fastest observed per-copy time (see
    /// [`measure`]).
    pub millis: f64,
    /// Copies recognized per second.
    pub copies_per_sec: f64,
    /// Total per-stage wall milliseconds across the corpus, in
    /// `STAGES` order.
    pub stage_ms: [f64; STAGES.len()],
    /// Scan counters: (windows scanned, skipped by the pre-rejects,
    /// actually decrypted).
    pub windows: (u64, u64, u64),
}

impl RecognizeRow {
    /// Fraction of scanned windows the pre-reject skipped (0 when no
    /// windows were scanned).
    pub fn skip_rate(&self) -> f64 {
        let (scanned, skipped, _) = self.windows;
        if scanned == 0 {
            0.0
        } else {
            skipped as f64 / scanned as f64
        }
    }

    /// Windows that actually reached the cipher, per recognized copy.
    pub fn decrypts_per_copy(&self, copies: usize) -> f64 {
        let (_, _, decrypted) = self.windows;
        decrypted as f64 / copies.max(1) as f64
    }
}

/// A complete recognition bench run.
#[derive(Debug, Clone)]
pub struct RecognizeBench {
    /// Whether the quick (CI-sized) grid was used.
    pub quick: bool,
    /// Copies in the corpus.
    pub copies: usize,
    /// Rows: the serial row.
    pub rows: Vec<RecognizeRow>,
}

/// Builds the corpus: `copies` distinct watermarks embedded into the
/// CaffeineMark-like workload under one key (the paper's fingerprinting
/// model with a shared recognition key).
fn corpus(copies: usize, key_input: Vec<i64>, config: &JavaConfig) -> Vec<Program> {
    let program = workloads::caffeinemark();
    let key = setup::key(key_input);
    let embedder = pathmark_core::java::Embedder::builder(key, config.clone())
        .build()
        .expect("bench key/config are sound");
    (0..copies)
        .map(|i| {
            let mut rng = Prng::from_seed(0x5ECD ^ (i as u64) << 8);
            let watermark = Watermark::random(config.watermark_bits, &mut rng);
            embedder
                .embed(&program, &watermark)
                .expect("embeds")
                .program
        })
        .collect()
}

fn row(copies: usize, elapsed: std::time::Duration, sink: &MemorySink) -> RecognizeRow {
    let mut stage_ms = [0.0; STAGES.len()];
    for (slot, stage) in STAGES.iter().enumerate() {
        stage_ms[slot] = sink.stage(*stage).total_nanos as f64 / 1e6;
    }
    RecognizeRow {
        mode: "serial",
        workers: 1,
        millis: elapsed.as_secs_f64() * 1e3,
        copies_per_sec: copies as f64 / elapsed.as_secs_f64(),
        stage_ms,
        windows: (
            sink.counter(Counter::WindowsScanned),
            sink.counter(Counter::WindowsSkipped),
            sink.counter(Counter::WindowsDecrypted),
        ),
    }
}

/// Measures serial recognition throughput over the corpus.
///
/// Each copy is timed individually, the sweep repeats `reps` times, and
/// the row's wall time is the sum of its **per-copy minima** across
/// reps. On a shared or thermally-throttled machine a scheduler stall
/// lands on whatever copy happens to be running; per-copy minima
/// discard those stalls. The stage and counter columns come from the
/// fastest whole rep.
pub fn measure(copies: usize, reps: usize) -> RecognizeRow {
    let key = setup::key(vec![setup::CAFFEINE_INPUT]);
    let config = JavaConfig::for_watermark_bits(128).with_pieces(30);
    let programs = corpus(copies, key.input.clone(), &config);

    // Warm-up pass: fault in the whole corpus and every code path
    // before any timing starts.
    let session = Recognizer::builder(key.clone(), config.clone())
        .build()
        .expect("bench key/config are sound");
    for program in &programs {
        let rec = session.recognize(program).expect("recognizes");
        assert!(rec.watermark.is_some(), "corpus must carry its marks");
    }

    let mut best_copy = vec![std::time::Duration::MAX; copies];
    let mut best_rep: Option<(std::time::Duration, Arc<MemorySink>)> = None;
    for _ in 0..reps.max(1) {
        let sink = Arc::new(MemorySink::new());
        let mut rep_wall = std::time::Duration::ZERO;
        for (c, program) in programs.iter().enumerate() {
            let started = Instant::now();
            let rec = Recognizer::builder(key.clone(), config.clone())
                .telemetry(Telemetry::new(sink.clone()))
                .build()
                .expect("bench key/config are sound")
                .recognize(program)
                .expect("recognizes");
            assert!(rec.watermark.is_some());
            let elapsed = started.elapsed();
            rep_wall += elapsed;
            best_copy[c] = best_copy[c].min(elapsed);
        }
        if best_rep
            .as_ref()
            .is_none_or(|(fastest, _)| rep_wall < *fastest)
        {
            best_rep = Some((rep_wall, sink));
        }
    }
    let (_, sink) = best_rep.expect("reps >= 1");
    row(copies, best_copy.iter().sum(), &sink)
}

/// Runs the bench at the standard grid for `quick`.
pub fn bench(quick: bool) -> RecognizeBench {
    let copies = if quick { 16 } else { 32 };
    let reps = if quick { 4 } else { 5 };
    RecognizeBench {
        quick,
        copies,
        rows: vec![measure(copies, reps)],
    }
}

/// Renders the human-readable stage-level table.
pub fn render(bench: &RecognizeBench) -> String {
    let mut out = String::new();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = writeln!(
        out,
        "recognition engine — CaffeineMark-like, 128-bit W, {} copies, {cores} core(s)",
        bench.copies
    );
    let _ = writeln!(
        out,
        "(stage columns are total wall ms across the corpus; key crypto is\n\
         re-derived per copy)"
    );
    let _ = write!(
        out,
        "\n{:<8} {:>8} {:>10} {:>10}",
        "mode", "workers", "wall ms", "copies/s"
    );
    for stage in STAGES {
        let _ = write!(out, " {:>9}", stage.as_str());
    }
    let _ = writeln!(out, " {:>11} {:>11}", "skipped", "decrypted");
    for r in &bench.rows {
        let _ = write!(
            out,
            "{:<8} {:>8} {:>10.1} {:>10.1}",
            r.mode, r.workers, r.millis, r.copies_per_sec
        );
        for ms in r.stage_ms {
            let _ = write!(out, " {:>9.2}", ms);
        }
        let (scanned, skipped, decrypted) = r.windows;
        let pct = |part: u64| {
            if scanned == 0 {
                0.0
            } else {
                100.0 * part as f64 / scanned as f64
            }
        };
        let _ = writeln!(out, " {:>9.1}% {:>9.1}%", pct(skipped), pct(decrypted));
    }
    out
}

/// Serializes a bench run as the `BENCH_recognize.json` payload
/// (hand-rolled JSON, like everything else in the workspace).
pub fn to_json(bench: &RecognizeBench, generated_unix: u64) -> String {
    let rows: Vec<String> = bench
        .rows
        .iter()
        .map(|r| {
            let stages: Vec<String> = STAGES
                .iter()
                .zip(r.stage_ms)
                .map(|(stage, ms)| format!("\"{}\":{:.3}", stage.as_str(), ms))
                .collect();
            let (scanned, skipped, decrypted) = r.windows;
            format!(
                "{{\"mode\":\"{}\",\"workers\":{},\"wall_ms\":{:.3},\
                 \"copies_per_sec\":{:.3},\
                 \"skip_rate\":{:.4},\"decrypts_per_copy\":{:.1},\
                 \"stages\":{{{}}},\"windows\":{{\"scanned\":{},\"skipped\":{},\"decrypted\":{}}}}}",
                r.mode,
                r.workers,
                r.millis,
                r.copies_per_sec,
                r.skip_rate(),
                r.decrypts_per_copy(bench.copies),
                stages.join(","),
                scanned,
                skipped,
                decrypted
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"recognize\",\"quick\":{},\"copies\":{},\"generated_unix\":{},\"rows\":[{}]}}\n",
        bench.quick,
        bench.copies,
        generated_unix,
        rows.join(","),
    )
}

/// Renders the stage-level table (legacy entry point).
pub fn run(quick: bool) -> String {
    render(&bench(quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_payload_is_well_formed() {
        let bench = RecognizeBench {
            quick: true,
            copies: 8,
            rows: vec![RecognizeRow {
                mode: "serial",
                workers: 1,
                millis: 20.5,
                copies_per_sec: 390.2,
                stage_ms: [8.0, 3.0, 1.0, 0.5, 0.25, 0.125],
                windows: (100_000, 90_000, 10_000),
            }],
        };
        let json = to_json(&bench, 1_700_000_000);
        assert!(json.starts_with("{\"bench\":\"recognize\",\"quick\":true,\"copies\":8,"));
        assert!(json.contains("\"mode\":\"serial\",\"workers\":1"), "{json}");
        assert!(json.contains("\"generated_unix\":1700000000"), "{json}");
        assert!(
            json.contains("\"skip_rate\":0.9000,\"decrypts_per_copy\":1250.0"),
            "{json}"
        );
        assert!(
            json.contains(
                "\"stages\":{\"trace\":8.000,\"scan_roll\":3.000,\"scan_decrypt\":1.000,\"vote\":0.500,"
            ),
            "{json}"
        );
        assert!(json.contains("\"crt\":0.125}"), "{json}");
        assert!(
            json.contains("\"windows\":{\"scanned\":100000,\"skipped\":90000,\"decrypted\":10000}"),
            "{json}"
        );
        assert!(json.ends_with("}\n"), "one newline-terminated object");
    }

    #[test]
    fn tiny_measure_runs_and_orders_rows() {
        // `bench(true)` is the CI shape (16 copies x 4 reps) and far too
        // slow for a debug-build unit test; a 2-copy/1-rep sweep walks
        // the same code path (corpus embed, warm-up, per-copy timing,
        // row construction).
        let row = measure(2, 1);
        assert_eq!(row.mode, "serial");
        assert_eq!(row.workers, 1);
        assert!(row.millis > 0.0);
        assert!(row.copies_per_sec > 0.0);
        assert!(row.windows.0 > 0, "windows must be scanned");
        let table = render(&RecognizeBench {
            quick: true,
            copies: 2,
            rows: vec![row],
        });
        assert!(table.contains("copies/s"), "{table}");
    }
}
