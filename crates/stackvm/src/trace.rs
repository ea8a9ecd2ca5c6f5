//! Execution traces — the raw material of path-based watermarking.
//!
//! Section 3.1 of the paper: "we instrument the input program to write to
//! a file the sequence of basic blocks it executes. At each trace point we
//! also store the value of every local variable and every static … field."
//! A [`Trace`] holds exactly that, plus one record per dynamic conditional
//! branch with the identity of the block that followed it (which is what
//! the bit-string decoder consumes).

use std::collections::HashMap;

use crate::program::FuncId;

/// A dynamic program point: a function and an instruction index in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Site {
    /// The containing function.
    pub func: FuncId,
    /// Instruction index within the function.
    pub pc: usize,
}

/// One trace record.
///
/// The snapshot payload is boxed so the enum stays pointer-sized-small:
/// recognition traces are almost entirely `Branch` events, and every
/// event in the trace vector occupies the size of the *largest* variant
/// — inline snapshot vectors would triple the memory traffic of the
/// branch-recording hot path for data that recognition never records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A basic block (identified by its leader) began executing.
    EnterBlock {
        /// The block's leader.
        site: Site,
    },
    /// A conditional branch executed; `next` is the leader of the block
    /// control went to (target or fall-through).
    Branch {
        /// The branch instruction.
        site: Site,
        /// Leader pc of the block that followed, in the same function.
        next: usize,
    },
    /// Variable values observed at a block entry (recorded only when
    /// snapshotting is enabled; used by the condition code generator).
    Snapshot {
        /// The block's leader.
        site: Site,
        /// The observed values.
        data: Box<SnapshotData>,
    },
}

/// The payload of a [`TraceEvent::Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    /// Local-variable values, index-aligned with the function frame.
    pub locals: Vec<i64>,
    /// Static-field values, index-aligned with `Program::statics`.
    pub statics: Vec<i64>,
}

/// What the interpreter records while running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Record [`TraceEvent::EnterBlock`] events.
    pub blocks: bool,
    /// Record [`TraceEvent::Branch`] events.
    pub branches: bool,
    /// Record [`TraceEvent::Snapshot`] events at block entries.
    pub snapshots: bool,
    /// At most this many snapshots are kept *per block* (0 = unlimited).
    /// The condition code generator only ever inspects the first two
    /// visits, so a small cap keeps embedding-phase traces of hot
    /// programs from ballooning.
    pub snapshot_limit: u32,
}

impl TraceConfig {
    /// Records nothing (plain execution).
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Records everything the embedder needs, with snapshots capped at
    /// four visits per block.
    pub fn full() -> Self {
        TraceConfig {
            blocks: true,
            branches: true,
            snapshots: true,
            snapshot_limit: 4,
        }
    }

    /// Records only dynamic branches — the recognition-phase
    /// configuration (cheap, and all the decoder needs).
    pub fn branches_only() -> Self {
        TraceConfig {
            blocks: false,
            branches: true,
            snapshots: false,
            snapshot_limit: 0,
        }
    }

    /// Whether any recording is enabled.
    pub fn any(&self) -> bool {
        self.blocks || self.branches || self.snapshots
    }
}

/// The recorded execution trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in execution order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over `(branch site, following leader)` pairs in order —
    /// the sequence the bit-string is decoded from.
    pub fn branch_sequence(&self) -> impl Iterator<Item = (Site, usize)> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Branch { site, next } => Some((*site, *next)),
            _ => None,
        })
    }

    /// How often each basic block was entered. The embedder weights
    /// insertion points inversely by these frequencies ("code is less
    /// likely to be inserted in program hotspots", Section 3.2).
    pub fn block_frequencies(&self) -> HashMap<Site, u64> {
        let mut freq = HashMap::new();
        for e in &self.events {
            if let TraceEvent::EnterBlock { site } = e {
                *freq.entry(*site).or_insert(0) += 1;
            }
        }
        freq
    }

    /// All snapshots taken at a given block leader, in execution order.
    /// The condition code generator compares the first visit's values
    /// with later visits' (Section 3.2.2). Each call scans the whole
    /// trace; the embedder reads the first two snapshots of every leader
    /// in its single pass over the trace instead.
    pub fn snapshots_at(&self, site: Site) -> Vec<(&[i64], &[i64])> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Snapshot { site: s, data } if *s == site => {
                    Some((data.locals.as_slice(), data.statics.as_slice()))
                }
                _ => None,
            })
            .collect()
    }

    /// Distinct block leaders that appear in the trace with their visit
    /// counts, sorted by site (a deterministic order for a weighted
    /// choice). The embedder builds this table, with the snapshots it
    /// needs, in its own single pass over the trace, in the same order.
    pub fn visited_blocks(&self) -> Vec<(Site, u64)> {
        let mut v: Vec<(Site, u64)> = self.block_frequencies().into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Number of dynamic conditional-branch executions.
    pub fn dynamic_branch_count(&self) -> usize {
        self.branch_sequence().count()
    }
}

/// Streaming consumer of trace events.
///
/// The interpreter hot loop hands each event to a sink the moment it
/// happens instead of materializing a `Vec<TraceEvent>`. Recognition only
/// ever needs one bit per dynamic branch, so a streaming sink lets it
/// skip the event vector entirely (the packed-bits sink lives in
/// `pathmark-core`, next to its `BitString` builder); embedding keeps the
/// full event record by sinking into a [`Trace`].
///
/// The interpreter consults its [`TraceConfig`] *before* calling a sink
/// method: a sink only ever receives event kinds that recording was
/// enabled for, so implementations do not re-filter.
pub trait TraceSink {
    /// A basic block (identified by its leader) began executing.
    fn enter_block(&mut self, site: Site);
    /// A conditional branch executed; `next` is the leader of the block
    /// control went to (target or fall-through).
    fn branch(&mut self, site: Site, next: usize);
    /// Variable values observed at a block entry.
    fn snapshot(&mut self, site: Site, locals: &[i64], statics: &[i64]);
}

/// The compatibility sink: collects events into the [`Trace`] vector,
/// exactly as the pre-streaming interpreter recorded them.
impl TraceSink for Trace {
    fn enter_block(&mut self, site: Site) {
        self.events.push(TraceEvent::EnterBlock { site });
    }

    fn branch(&mut self, site: Site, next: usize) {
        self.events.push(TraceEvent::Branch { site, next });
    }

    fn snapshot(&mut self, site: Site, locals: &[i64], statics: &[i64]) {
        self.events.push(TraceEvent::Snapshot {
            site,
            data: Box::new(SnapshotData {
                locals: locals.to_vec(),
                statics: statics.to_vec(),
            }),
        });
    }
}

/// A null sink that only counts events — for callers that want dynamic
/// branch/block totals (cost experiments) without storing anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of block entries observed.
    pub blocks: u64,
    /// Number of dynamic conditional branches observed.
    pub branches: u64,
    /// Number of snapshots observed.
    pub snapshots: u64,
}

impl CountingSink {
    /// A fresh sink with all counts at zero.
    pub fn new() -> Self {
        CountingSink::default()
    }
}

impl TraceSink for CountingSink {
    fn enter_block(&mut self, _site: Site) {
        self.blocks += 1;
    }

    fn branch(&mut self, _site: Site, _next: usize) {
        self.branches += 1;
    }

    fn snapshot(&mut self, _site: Site, _locals: &[i64], _statics: &[i64]) {
        self.snapshots += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(f: u32, pc: usize) -> Site {
        Site {
            func: FuncId(f),
            pc,
        }
    }

    #[test]
    fn branch_sequence_filters_and_orders() {
        let t = Trace {
            events: vec![
                TraceEvent::EnterBlock { site: site(0, 0) },
                TraceEvent::Branch {
                    site: site(0, 2),
                    next: 3,
                },
                TraceEvent::EnterBlock { site: site(0, 3) },
                TraceEvent::Branch {
                    site: site(0, 2),
                    next: 7,
                },
            ],
        };
        let seq: Vec<_> = t.branch_sequence().collect();
        assert_eq!(seq, vec![(site(0, 2), 3), (site(0, 2), 7)]);
        assert_eq!(t.dynamic_branch_count(), 2);
    }

    #[test]
    fn frequencies_count_reentries() {
        let t = Trace {
            events: vec![
                TraceEvent::EnterBlock { site: site(0, 0) },
                TraceEvent::EnterBlock { site: site(0, 4) },
                TraceEvent::EnterBlock { site: site(0, 0) },
            ],
        };
        let freq = t.block_frequencies();
        assert_eq!(freq[&site(0, 0)], 2);
        assert_eq!(freq[&site(0, 4)], 1);
        assert_eq!(
            t.visited_blocks(),
            vec![(site(0, 0), 2), (site(0, 4), 1)]
        );
    }

    #[test]
    fn snapshots_at_filters_by_site() {
        let t = Trace {
            events: vec![
                TraceEvent::Snapshot {
                    site: site(0, 0),
                    data: Box::new(SnapshotData {
                        locals: vec![1, 2],
                        statics: vec![9],
                    }),
                },
                TraceEvent::Snapshot {
                    site: site(0, 5),
                    data: Box::new(SnapshotData {
                        locals: vec![3],
                        statics: vec![9],
                    }),
                },
                TraceEvent::Snapshot {
                    site: site(0, 0),
                    data: Box::new(SnapshotData {
                        locals: vec![4, 5],
                        statics: vec![8],
                    }),
                },
            ],
        };
        let snaps = t.snapshots_at(site(0, 0));
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, &[1, 2]);
        assert_eq!(snaps[1].0, &[4, 5]);
        assert_eq!(snaps[1].1, &[8]);
    }

    #[test]
    fn trace_event_stays_small() {
        // Branch events dominate recognition traces; the snapshot
        // payload is boxed precisely so they stay this size.
        assert!(std::mem::size_of::<TraceEvent>() <= 32);
    }

    #[test]
    fn trace_sink_collects_the_same_events_as_direct_pushes() {
        let mut collected = Trace::new();
        collected.enter_block(site(0, 0));
        collected.branch(site(0, 2), 3);
        collected.snapshot(site(0, 3), &[1, 2], &[9]);
        let expected = Trace {
            events: vec![
                TraceEvent::EnterBlock { site: site(0, 0) },
                TraceEvent::Branch {
                    site: site(0, 2),
                    next: 3,
                },
                TraceEvent::Snapshot {
                    site: site(0, 3),
                    data: Box::new(SnapshotData {
                        locals: vec![1, 2],
                        statics: vec![9],
                    }),
                },
            ],
        };
        assert_eq!(collected, expected);
    }

    #[test]
    fn counting_sink_counts_without_storing() {
        let mut c = CountingSink::new();
        c.enter_block(site(0, 0));
        c.branch(site(0, 1), 2);
        c.branch(site(0, 1), 4);
        c.snapshot(site(0, 0), &[], &[]);
        assert_eq!(
            c,
            CountingSink {
                blocks: 1,
                branches: 2,
                snapshots: 1,
            }
        );
    }

    #[test]
    fn config_presets() {
        assert!(!TraceConfig::off().any());
        assert!(TraceConfig::full().snapshots);
        let r = TraceConfig::branches_only();
        assert!(r.branches && !r.blocks && !r.snapshots && r.any());
    }
}
