//! End-to-end and per-layer benchmark of pathmark.
//!
//! Four closed-loop workloads (`fingerprint`, `recognize`, `serve`,
//! `native`) run from one command. The untraced run (`--trace 0`)
//! prints seven end-to-end metrics; the traced run (`--trace 1`) times
//! each layer's public entry points from this crate and prints the
//! per-layer metrics. See `README.md` for the workload make-up, the
//! layer map and reference figures.

pub mod bytecode;
pub mod fingerprint;
pub mod native;
pub mod recognize;
pub mod report;
pub mod serve;
pub mod spans;

use std::time::{Duration, Instant};

use report::{median, ms, percentile, Metric};
use spans::Recorder;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["fingerprint", "recognize", "serve", "native"];

/// The end-to-end metrics, in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("mark_insn_overhead", "ratio"),
    ("mark_size_overhead", "ratio"),
];

/// The layers, each reporting `<layer>.calls` and `<layer>.failed`. A
/// span belongs to the longest layer its name starts with.
pub const LAYERS: [&str; 12] = [
    "core.session",
    "stackvm.codec",
    "stackvm",
    "core.scanner",
    "core.recognize",
    "crypto.xtea",
    "math.crt",
    "core.embed",
    "fleet.batch",
    "serve",
    "core.native",
    "nativesim",
];

/// The per-layer metrics other than the layers' call counts, in print
/// order, with unit and better direction. A `…_ms` metric without a
/// workload-supplied value is the mean duration of the spans named by
/// the metric minus its `_ms`/`.ms`.
pub const PER_LAYER: [(&str, &str, &str); 46] = [
    ("core.session.derive_ms", "ms", "lower"),
    ("core.session.derives_per_op", "count", "lower"),
    ("stackvm.codec.encode_ms", "ms", "lower"),
    ("stackvm.codec.decode_ms", "ms", "lower"),
    ("stackvm.compile_ms", "ms", "lower"),
    ("stackvm.trace_ms", "ms", "lower"),
    ("stackvm.insns_per_op", "count", "lower"),
    ("stackvm.minsns_per_s", "M/s", "higher"),
    ("stackvm.full_trace_ms", "ms", "lower"),
    ("core.scanner.fused_ms", "ms", "lower"),
    ("core.scanner.roll_ms", "ms", "lower"),
    ("core.scanner.windows_per_op", "count", "lower"),
    ("core.scanner.survivors_per_op", "count", "lower"),
    ("core.scanner.survivor_ratio", "ratio", "lower"),
    ("core.recognize.decrypt_ms", "ms", "lower"),
    ("core.recognize.cipher_calls_per_op", "count", "lower"),
    ("core.recognize.decode_hit_ratio", "ratio", "higher"),
    ("crypto.xtea.mblocks_per_s", "M/s", "higher"),
    ("math.crt.combine_ms", "ms", "lower"),
    ("math.crt.candidates_per_op", "count", "lower"),
    ("math.crt.vote_keep_ratio", "ratio", "higher"),
    ("core.embed.ms", "ms", "lower"),
    ("core.embed.split_ms", "ms", "lower"),
    ("core.embed.encrypt_ms", "ms", "lower"),
    ("core.embed.codegen_ms", "ms", "lower"),
    ("core.embed.verify_ms", "ms", "lower"),
    ("core.embed.pieces_per_op", "count", "lower"),
    ("fleet.batch.embed_one_ms", "ms", "lower"),
    ("fleet.batch.recognize_one_ms", "ms", "lower"),
    ("serve.rtt_open_ms", "ms", "lower"),
    ("serve.rtt_embed_ms", "ms", "lower"),
    ("serve.rtt_recognize_ms", "ms", "lower"),
    ("serve.rtt_ping_ms", "ms", "lower"),
    ("serve.overhead_embed_ms", "ms", "lower"),
    ("serve.overhead_recognize_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.journal_bytes_per_op", "bytes", "lower"),
    ("serve.decode_hit_ratio", "ratio", "higher"),
    ("serve.decode_cache_entries", "count", "lower"),
    ("core.native.profile_ms", "ms", "lower"),
    ("core.native.embed_ms", "ms", "lower"),
    ("core.native.extract_ms", "ms", "lower"),
    ("nativesim.steps_per_extract", "count", "lower"),
    ("nativesim.msteps_per_s", "M/s", "higher"),
    ("op.residual_ms", "ms", "lower"),
    ("op.tracing_overhead", "ratio", "lower"),
];

/// Every per-layer metric with unit and better direction: [`PER_LAYER`]
/// followed by each layer's `.calls` and `.failed` counts.
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for layer in LAYERS {
        out.push((format!("{layer}.calls"), "count", "higher"));
        out.push((format!("{layer}.failed"), "count", "lower"));
    }
    out
}

/// The layer a span name belongs to.
pub fn layer_of(span: &str) -> Option<&'static str> {
    LAYERS
        .iter()
        .filter(|l| {
            span == **l
                || span
                    .strip_prefix(**l)
                    .is_some_and(|rest| rest.starts_with('.'))
        })
        .max_by_key(|l| l.len())
        .copied()
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Draws every per-copy seed, watermark and attack seed.
    pub seed: u64,
    /// Minimum length of the timed phase; required, as the bounds hold
    /// only for `BENCHMARK.json`'s `run_seconds`.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`. The
    /// seed defaults to 1 and the trace to 0; the workload and the
    /// seconds have no default.
    ///
    /// # Errors
    ///
    /// A usage message.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 0,
            trace: false,
        };
        let mut seconds = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload: expected one of {}, got `{}`",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        args.seconds = seconds.ok_or("--seconds is required")?;
        Ok(args)
    }
}

/// How big a run is. [`Scale::FULL`] is what the command runs;
/// [`Scale::SMOKE`] is the tests' tiny size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Operations a run completes at least, so p99 has ten samples
    /// beyond it.
    pub min_ops: usize,
    /// Shrinks populations to one copy per kind.
    pub smoke: bool,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        setups: 3,
        min_ops: 1000,
        smoke: false,
    };
    /// Tests' size: one set-up, one pass.
    pub const SMOKE: Scale = Scale {
        setups: 1,
        min_ops: 0,
        smoke: true,
    };
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// False when a set-up check failed that no operation accounts for.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable accounting: sample counts, passes, wall length.
    pub accounting: String,
    /// Why operations failed (first few distinct reasons).
    pub problems: Vec<String>,
    /// Every span of a traced run (none for an untraced one).
    pub spans: Vec<spans::Span>,
}

/// No run's timed phase goes past this, whatever `--seconds` says, so a
/// run ends well inside its 180-second limit.
pub const MAX_TIMED: Duration = Duration::from_secs(120);

/// The operations of a closed loop: a fixed cycle that [`run_passes`]
/// runs in whole passes.
pub trait Cycle {
    /// Operations in one pass of the cycle.
    fn cycle_len(&self) -> usize;

    /// Runs operation `i` untraced: its latency (timed from its start,
    /// checks excluded) and whether its output passed the check.
    fn run(&mut self, i: usize) -> (Duration, Result<(), String>);

    /// Runs operation `i` traced as operation `op`: a root span with
    /// the calls it makes as children.
    fn run_traced(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<(), String>;

    /// Runs the attribution calls of operation `i` (traced earlier as
    /// `op`): calls that split a fused call, outside any root span.
    fn attribute(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<(), String>;
}

/// A single-threaded closed-loop workload.
pub trait Workload: Cycle + Sized {
    /// Builds the inputs with the program's own generators, builds
    /// sessions, takes host traces and runs one untimed warm-up pass.
    /// Spans of set-up calls go to `rec` under op 0.
    ///
    /// # Errors
    ///
    /// Why set-up could not finish.
    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Result<Self, String>;

    /// Checks the set-up outputs the timed operations are compared
    /// against; returns the problems found.
    fn check(&mut self) -> Vec<String>;

    /// `(mark_insn_overhead, mark_size_overhead)` over the distinct
    /// marked copies.
    fn mark_overheads(&self) -> (f64, f64);

    /// Per-layer values the spans alone do not give.
    fn layer_values(&self, rec: &Recorder) -> Vec<(&'static str, f64)>;
}

/// Latencies and accounting of a timed phase.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Untraced operation latencies in ms.
    pub latencies: Vec<f64>,
    /// Operations attempted (traced ones included).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Whole passes over the cycle.
    pub passes: u64,
    /// Wall length of the timed phase.
    pub wall: Duration,
    /// First few distinct failure reasons.
    pub problems: Vec<String>,
}

impl Timed {
    /// Counts one operation; returns whether it passed.
    pub fn tally(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        self.fail_if(result)
    }

    /// Counts an already-counted operation as failed when `result` is
    /// an error; returns whether it passed.
    pub fn fail_if(&mut self, result: Result<(), String>) -> bool {
        let Err(why) = result else { return true };
        self.failed += 1;
        if self.problems.len() < 8 && !self.problems.contains(&why) {
            self.problems.push(why);
        }
        false
    }
}

/// What a pass of the cycle does. Untraced runs only run
/// [`Pass::Untraced`]; traced runs rotate through all three, so the
/// traced operations run back to back like untraced ones, undisturbed
/// by the attribution calls' allocations, and both halves of
/// `op.tracing_overhead` see the same host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Operations timed as the end-to-end metrics time them.
    Untraced,
    /// Operations as root spans with their calls as children.
    Traced,
    /// The previous traced pass's attribution calls.
    Attribution,
}

impl Pass {
    /// The kind of pass number `passes` (0-based).
    pub fn of(args: &Args, passes: u64) -> Pass {
        match (args.trace, passes % 3) {
            (false, _) | (true, 0) => Pass::Untraced,
            (true, 1) => Pass::Traced,
            _ => Pass::Attribution,
        }
    }
}

/// Runs set-up `scale.setups` times, keeping the last, and returns it
/// with each set-up's seconds. The first is timed from `process_start`.
///
/// # Errors
///
/// The first set-up failure.
pub fn repeated_setup<T>(
    scale: Scale,
    process_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..scale.setups.max(1) {
        // The previous set-up is gone before the next one starts.
        drop(kept.take());
        let started = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        kept = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Whether a timed phase has run long enough: whole passes until
/// `seconds` have elapsed and at least `min_ops` untraced samples
/// exist, or until [`MAX_TIMED`]. Traced runs end after an attribution
/// pass.
pub fn phase_done(args: &Args, scale: Scale, t: &Timed, elapsed: Duration) -> bool {
    if args.trace && !t.passes.is_multiple_of(3) {
        return false;
    }
    if scale.smoke {
        return t.passes >= 1;
    }
    let enough = elapsed >= Duration::from_secs(args.seconds)
        && t.latencies.len() >= if args.trace { 20 } else { scale.min_ops };
    enough || elapsed >= MAX_TIMED
}

/// Runs whole passes over `ops`' cycle (see [`Pass`]) until `done`,
/// asked after every pass with the tally so far and the time since the
/// first pass started, says the phase is long enough.
pub fn run_passes<C: Cycle>(
    ops: &mut C,
    args: &Args,
    rec: &mut Recorder,
    mut done: impl FnMut(&Timed, Duration) -> bool,
) -> Timed {
    let n = ops.cycle_len();
    let mut t = Timed::default();
    // Each traced operation's id and whether it passed, for the
    // attribution pass after it.
    let mut traced: Vec<(u64, bool)> = Vec::new();
    let started = Instant::now();
    loop {
        match Pass::of(args, t.passes) {
            Pass::Untraced => {
                for i in 0..n {
                    let (latency, result) = ops.run(i);
                    t.latencies.push(ms(latency));
                    t.tally(result);
                }
            }
            Pass::Traced => {
                traced.clear();
                for i in 0..n {
                    let op = rec.begin_op();
                    let result = ops.run_traced(i, op, rec);
                    traced.push((op, t.tally(result)));
                }
            }
            Pass::Attribution => {
                for (i, &(op, passed)) in traced.iter().enumerate() {
                    let result = ops.attribute(i, op, rec);
                    if passed {
                        t.fail_if(result);
                    }
                }
            }
        }
        t.passes += 1;
        if done(&t, started.elapsed()) {
            break;
        }
    }
    t.wall = started.elapsed();
    t
}

/// Runs a single-threaded workload: repeated set-up, checks, then whole
/// passes over its cycle.
///
/// # Errors
///
/// Set-up failures and refused percentiles.
pub fn run_workload<W: Workload>(
    args: &Args,
    scale: Scale,
    process_start: Instant,
) -> Result<RunOutcome, String> {
    let mut rec = Recorder::new();
    let (mut w, setup_times) = repeated_setup(scale, process_start, || {
        let mut setup_rec = Recorder::new();
        let w = W::setup(args.seed, scale, &mut setup_rec)?;
        rec = setup_rec;
        Ok(w)
    })?;
    let setup_problems = w.check();
    let t = run_passes(&mut w, args, &mut rec, |t, elapsed| {
        phase_done(args, scale, t, elapsed)
    });
    let (insn, size) = w.mark_overheads();
    let values = w.layer_values(&rec);
    drop(w);
    let rss = report::peak_rss_mb("self")?;
    finish(
        args,
        scale,
        &setup_times,
        setup_problems,
        t,
        &rec,
        (insn, size, rss),
        values,
    )
}

/// Turns a timed phase into the run's metrics and accounting, and
/// writes a traced run's spans to `.bench_out/spans-<workload>-<seed>.jsonl`.
///
/// # Errors
///
/// A refused percentile or an unwritable span file.
#[allow(clippy::too_many_arguments)]
pub fn finish(
    args: &Args,
    scale: Scale,
    setup_times: &[f64],
    setup_problems: Vec<String>,
    t: Timed,
    rec: &Recorder,
    (insn, size, rss): (f64, f64, f64),
    values: Vec<(&'static str, f64)>,
) -> Result<RunOutcome, String> {
    let samples = t.latencies.len();
    let mut metrics = Vec::new();
    let p50 = percentile(&t.latencies, 0.5);
    if !args.trace {
        let p50 = if scale.smoke {
            p50.unwrap_or(f64::NAN)
        } else {
            p50?
        };
        let p99 = percentile(&t.latencies, 0.99);
        let p99 = if scale.smoke {
            p99.unwrap_or(f64::NAN)
        } else {
            p99?
        };
        let completed = (t.attempted - t.failed) as f64;
        let values = [
            median(setup_times),
            completed / t.wall.as_secs_f64(),
            p50,
            p99,
            rss,
            insn,
            size,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push(Metric {
                name: name.to_string(),
                unit,
                value,
            });
        }
    } else {
        let path = format!(".bench_out/spans-{}-{}.jsonl", args.workload, args.seed);
        rec.write_jsonl(std::path::Path::new(&path))
            .map_err(|e| format!("{path}: {e}"))?;
        let untraced_p50 = p50.unwrap_or_else(|_| median(&t.latencies));
        let traced_p50 = median(&rec.root_ms());
        for (name, unit, _) in per_layer_metrics() {
            let value = layer_value(&name, rec, &values, traced_p50 / untraced_p50);
            metrics.push(Metric { name, unit, value });
        }
    }
    let accounting = format!(
        "workload={} seed={} trace={} nproc={} wall_s={:.3} passes={} attempted={} failed={} \
         latency_samples={samples} p50_samples={samples} p99_samples={samples} traced_ops={} setups={} setup_s={:?}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report::nproc(),
        t.wall.as_secs_f64(),
        t.passes,
        t.attempted,
        t.failed,
        rec.ops(),
        setup_times.len(),
        setup_times,
    );
    // The latency distribution's shape, to see that no reported
    // percentile sits in a gap between operation kinds.
    let mut sorted = t.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let shape: Vec<String> = [1, 5, 10, 25, 40, 50, 60, 75, 90, 95, 98, 99, 100]
        .iter()
        .filter(|_| !sorted.is_empty())
        .map(|&q| format!("q{q}={:.3}", sorted[(sorted.len() - 1) * q / 100]))
        .collect();
    let accounting = format!("{accounting} latency_ms[{}]", shape.join(" "));
    let mut problems = setup_problems.clone();
    problems.extend(t.problems);
    Ok(RunOutcome {
        correct: setup_problems.is_empty(),
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        accounting,
        problems,
        spans: rec.spans().to_vec(),
    })
}

fn layer_value(name: &str, rec: &Recorder, values: &[(&'static str, f64)], overhead: f64) -> f64 {
    if let Some(&(_, v)) = values.iter().find(|(n, _)| *n == name) {
        return v;
    }
    match name {
        "op.residual_ms" => return rec.residual_ms(),
        "op.tracing_overhead" => return overhead,
        _ => {}
    }
    if let Some(layer) = name.strip_suffix(".calls") {
        return layer_calls(rec, layer).0 as f64;
    }
    if let Some(layer) = name.strip_suffix(".failed") {
        return layer_calls(rec, layer).1 as f64;
    }
    let span = name
        .strip_suffix(".ms")
        .or_else(|| name.strip_suffix("_ms"))
        .unwrap_or(name);
    rec.mean_ms(span)
}

fn layer_calls(rec: &Recorder, layer: &str) -> (u64, u64) {
    rec.spans()
        .iter()
        .filter(|s| s.kind != spans::Kind::Root && layer_of(s.name) == Some(layer))
        .fold((0, 0), |(n, f), s| (n + 1, f + u64::from(!s.ok)))
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Arithmetic mean (0 for an empty list).
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct ScratchDir {
    path: std::path::PathBuf,
}

impl ScratchDir {
    /// Creates `.bench_out/tmp-<pid>-<tag>` under the working directory.
    /// The path stays relative, which keeps a unix socket inside it
    /// under the 108-byte address limit wherever the checkout lives.
    ///
    /// # Errors
    ///
    /// The I/O error of creating it.
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let path = std::path::PathBuf::from(format!(".bench_out/tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Runs the workload `args` names.
///
/// # Errors
///
/// Set-up failures and refused percentiles.
pub fn run(args: &Args, scale: Scale, process_start: Instant) -> Result<RunOutcome, String> {
    match args.workload.as_str() {
        "fingerprint" => run_workload::<fingerprint::Fingerprint>(args, scale, process_start),
        "recognize" => run_workload::<recognize::Recognize>(args, scale, process_start),
        "native" => run_workload::<native::Native>(args, scale, process_start),
        "serve" => serve::run(args, scale, process_start, &serve::daemon_exe()?),
        other => Err(format!("unknown workload `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_map_to_the_longest_layer() {
        assert_eq!(layer_of("stackvm.codec.decode"), Some("stackvm.codec"));
        assert_eq!(layer_of("stackvm.compile"), Some("stackvm"));
        assert_eq!(layer_of("core.embed"), Some("core.embed"));
        assert_eq!(layer_of("core.embedder"), None);
        assert_eq!(layer_of("serve.rtt_open"), Some("serve"));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv: Vec<String> = [
            "--workload",
            "native",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = Args::parse(&argv).expect("parses");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        assert!(Args::parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(Args::parse(&argv[..4]).is_err(), "--seconds has no default");
        assert!(Args::parse(&[
            "--workload".into(),
            "serve".into(),
            "--trace".into(),
            "2".into()
        ])
        .is_err());
    }
}
