//! The traced run's span recorder.
//!
//! Spans are timed from the benchmark's own code around public calls
//! into each layer; the program itself carries no span. Each operation
//! is a root span, the calls it makes are its children and share its
//! id, and calls that exist only to split a fused call run outside the
//! root span as *attribution* spans under the same id. Everything stays
//! in memory until [`Recorder::write_jsonl`] at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Where a span sits relative to its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The operation itself.
    Root,
    /// A call the operation makes, inside the root span.
    Child,
    /// A call run outside the root span to split a fused call.
    Attribution,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Root => "root",
            Kind::Child => "child",
            Kind::Attribution => "attribution",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The operation id the span belongs to (0: set-up).
    pub op: u64,
    /// Layer call name, e.g. `core.scanner.fused`.
    pub name: &'static str,
    /// Root, child or attribution.
    pub kind: Kind,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Whether the call returned success.
    pub ok: bool,
}

/// Holds every span of a run in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_op: u64,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; span starts are relative to now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_op: 0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Opens a new operation and returns its id (ids start at 1).
    pub fn begin_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records an already-timed span.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        kind: Kind,
        start: Instant,
        end: Instant,
        ok: bool,
    ) {
        self.spans.push(Span {
            op,
            name,
            kind,
            start_ns: nanos(start.saturating_duration_since(self.origin)),
            dur_ns: nanos(end.saturating_duration_since(start)),
            ok,
        });
    }

    /// Times `f` as a span that always succeeds.
    pub fn time<T>(&mut self, op: u64, name: &'static str, kind: Kind, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(op, name, kind, start, end, true);
        out
    }

    /// Times `f` as a span that failed when `f` returns `Err`.
    pub fn try_time<T, E>(
        &mut self,
        op: u64,
        name: &'static str,
        kind: Kind,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(op, name, kind, start, end, out.is_ok());
        out
    }

    /// Adds `delta` to a named per-run count (instructions, windows,
    /// cipher calls, …) measured where the work happens.
    pub fn count(&mut self, name: &'static str, delta: f64) {
        *self.counts.entry(name).or_insert(0.0) += delta;
    }

    /// A per-run count (0 if never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Moves another recorder's spans and counts into this one, keeping
    /// operation ids distinct and starts relative to this origin.
    pub fn absorb(&mut self, other: Recorder) {
        let ahead = nanos(other.origin.saturating_duration_since(self.origin));
        let behind = nanos(self.origin.saturating_duration_since(other.origin));
        for mut s in other.spans {
            if s.op != 0 {
                s.op += self.next_op;
            }
            s.start_ns = (s.start_ns + ahead).saturating_sub(behind);
            self.spans.push(s);
        }
        self.next_op += other.next_op;
        for (name, value) in other.counts {
            self.count(name, value);
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of operations (root spans).
    pub fn ops(&self) -> usize {
        self.spans.iter().filter(|s| s.kind == Kind::Root).count()
    }

    /// Number of spans with this name, and how many of them failed.
    pub fn calls(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, f), s| (n + 1, f + u64::from(!s.ok)))
    }

    /// Mean duration in ms of the spans with this name (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e6
        }
    }

    /// Per operation: root duration and the root's self time (root
    /// duration minus its children), both in ns, in op order.
    pub fn root_self_times(&self) -> Vec<(u64, u64)> {
        let mut children: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.kind == Kind::Child) {
            *children.entry(s.op).or_insert(0) += s.dur_ns;
        }
        self.spans
            .iter()
            .filter(|s| s.kind == Kind::Root)
            .map(|s| {
                let inside = children.get(&s.op).copied().unwrap_or(0);
                (s.dur_ns, s.dur_ns.saturating_sub(inside))
            })
            .collect()
    }

    /// Mean root self time (the unattributed residual) in ms.
    pub fn residual_ms(&self) -> f64 {
        let times = self.root_self_times();
        if times.is_empty() {
            return 0.0;
        }
        times.iter().map(|&(_, r)| r as f64).sum::<f64>() / times.len() as f64 / 1e6
    }

    /// Root durations in ms (the traced operation latencies).
    pub fn root_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == Kind::Root)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON line, then the per-run counts.
    ///
    /// # Errors
    ///
    /// The I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"op\":{},\"span\":\"{}\",\"kind\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"ok\":{}}}",
                s.op,
                s.name,
                s.kind.as_str(),
                s.start_ns,
                s.dur_ns,
                s.ok
            );
        }
        for (name, value) in &self.counts {
            let _ = writeln!(out, "{{\"count\":\"{name}\",\"value\":{value:?}}}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn residual_is_the_root_time_no_child_covers() {
        let mut rec = Recorder::new();
        for _ in 0..3 {
            let op = rec.begin_op();
            let start = Instant::now();
            rec.time(op, "a", Kind::Child, || {
                std::thread::sleep(Duration::from_millis(2))
            });
            rec.time(op, "b", Kind::Child, || {
                std::thread::sleep(Duration::from_millis(1))
            });
            std::thread::sleep(Duration::from_millis(1));
            rec.record(op, "op", Kind::Root, start, Instant::now(), true);
            // Outside the root: it must not be taken off the residual.
            rec.time(op, "split", Kind::Attribution, || {
                std::thread::sleep(Duration::from_millis(3))
            });
        }
        let roots: Vec<&Span> = rec
            .spans()
            .iter()
            .filter(|s| s.kind == Kind::Root)
            .collect();
        for (root, &(wall, residual)) in roots.iter().zip(&rec.root_self_times()) {
            let children: u64 = rec
                .spans()
                .iter()
                .filter(|s| s.op == root.op && s.kind == Kind::Child)
                .map(|s| s.dur_ns)
                .sum();
            assert_eq!(wall, root.dur_ns);
            assert_eq!(residual, wall - children);
            assert!(residual >= 1_000_000, "the unattributed sleep is residual");
        }
        assert_eq!(rec.ops(), 3);
        assert_eq!(rec.calls("a"), (3, 0));
        assert_eq!(rec.calls("split"), (3, 0));
    }
}
