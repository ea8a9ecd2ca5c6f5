//! Control-flow graph construction over a [`Function`].
//!
//! Basic-block identity is what the paper's trace records (Figure 2) and
//! what the bit-string decoder keys on: a conditional branch occurrence is
//! "followed by" the block that executes next. The interpreter consults a
//! [`Cfg`] to know which program counters start blocks.

use crate::insn::Insn;
use crate::program::Function;

/// A basic block: the half-open instruction range `start..end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
    /// Successor blocks (indices into [`Cfg::blocks`]).
    pub succs: Vec<usize>,
}

/// The control-flow graph of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// Blocks in ascending `start` order.
    pub blocks: Vec<Block>,
    /// `block_of[pc]` = index of the block containing `pc`.
    pub block_of: Vec<usize>,
    /// `is_leader[pc]` = whether `pc` starts a block.
    pub is_leader: Vec<bool>,
}

impl Cfg {
    /// Builds the CFG of a function. An empty function yields an empty
    /// graph.
    pub fn build(func: &Function) -> Cfg {
        let n = func.code.len();
        if n == 0 {
            return Cfg {
                blocks: Vec::new(),
                block_of: Vec::new(),
                is_leader: Vec::new(),
            };
        }
        let mut is_leader = vec![false; n];
        is_leader[0] = true;
        for (pc, insn) in func.code.iter().enumerate() {
            insn.for_each_target(|t| {
                if t < n {
                    is_leader[t] = true;
                }
            });
            let ends_block = insn.is_branch() || matches!(insn, Insn::Return(_));
            if ends_block && pc + 1 < n {
                is_leader[pc + 1] = true;
            }
        }
        let starts: Vec<usize> = (0..n).filter(|&pc| is_leader[pc]).collect();
        let mut block_of = vec![0usize; n];
        let mut blocks = Vec::with_capacity(starts.len());
        for (b, &start) in starts.iter().enumerate() {
            let end = starts.get(b + 1).copied().unwrap_or(n);
            block_of[start..end].fill(b);
            blocks.push(Block {
                start,
                end,
                succs: Vec::new(),
            });
        }
        // Successors from each block's final instruction. A target past
        // the end (possible only in an unverified function) is no edge:
        // execution falls off the end there.
        for block in &mut blocks {
            let last_pc = block.end - 1;
            let insn = &func.code[last_pc];
            let mut succs = Vec::new();
            insn.for_each_target(|t| succs.extend(block_of.get(t)));
            if !insn.is_terminator() && last_pc + 1 < n {
                succs.push(block_of[last_pc + 1]);
            }
            succs.sort_unstable();
            succs.dedup();
            block.succs = succs;
        }
        Cfg {
            blocks,
            block_of,
            is_leader,
        }
    }

    /// Number of basic blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the function had no code.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Blocks reachable from the entry block, as a bitmap.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        if self.blocks.is_empty() {
            return seen;
        }
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::insn::Cond;

    fn loop_function() -> Function {
        // 0: load 0        <- leader (entry)
        // 1: const 10
        // 2: ifcmp ge -> 7 <- ends block
        // 3: load 0        <- leader (fallthrough)
        // 4: print
        // 5: iinc 0, 1
        // 6: goto 0        <- ends block
        // 7: return        <- leader (target)
        let mut f = FunctionBuilder::new("loop", 0, 1);
        let top = f.new_label();
        let out = f.new_label();
        f.bind(top);
        f.load(0).push(10).if_cmp(Cond::Ge, out);
        f.load(0).print().iinc(0, 1).goto(top);
        f.bind(out);
        f.ret_void();
        f.finish().unwrap()
    }

    #[test]
    fn loop_blocks_and_successors() {
        let cfg = Cfg::build(&loop_function());
        assert_eq!(cfg.len(), 3);
        assert_eq!(cfg.blocks[0].start, 0);
        assert_eq!(cfg.blocks[0].end, 3);
        assert_eq!(cfg.blocks[0].succs, vec![1, 2]); // fallthrough + target
        assert_eq!(cfg.blocks[1].succs, vec![0]); // back edge
        assert!(cfg.blocks[2].succs.is_empty()); // return
        assert_eq!(cfg.block_of[4], 1);
        assert!(cfg.is_leader[0] && cfg.is_leader[3] && cfg.is_leader[7]);
        assert!(!cfg.is_leader[4]);
    }

    #[test]
    fn empty_function_is_empty_cfg() {
        let f = Function {
            name: "e".into(),
            num_params: 0,
            num_locals: 0,
            returns_value: false,
            code: vec![],
        };
        let cfg = Cfg::build(&f);
        assert!(cfg.is_empty());
        assert_eq!(cfg.reachable(), Vec::<bool>::new());
    }

    #[test]
    fn switch_successors_deduplicated() {
        let mut f = FunctionBuilder::new("sw", 1, 0);
        let a = f.new_label();
        let d = f.new_label();
        f.load(0);
        f.switch(&[(1, a), (2, a)], d);
        f.bind(a);
        f.ret_void();
        f.bind(d);
        f.ret_void();
        let cfg = Cfg::build(&f.finish().unwrap());
        // Block 0 = [load, switch]; succs {a, d} deduplicated.
        assert_eq!(cfg.blocks[0].succs.len(), 2);
    }

    #[test]
    fn reachability_marks_dead_blocks() {
        let mut f = FunctionBuilder::new("dead", 0, 0);
        let live = f.new_label();
        f.goto(live);
        f.push(0).print().ret_void(); // unreachable block
        f.bind(live);
        f.ret_void();
        let cfg = Cfg::build(&f.finish().unwrap());
        let reach = cfg.reachable();
        assert_eq!(reach.iter().filter(|&&r| r).count(), 2);
        assert!(!reach[1], "the middle block is dead");
    }

    #[test]
    fn a_target_past_the_end_is_no_edge() {
        // 0: if ne -> 99   1: switch {0 -> 2} default 7   2: return
        let f = Function {
            name: "past".into(),
            num_params: 1,
            num_locals: 1,
            returns_value: false,
            code: vec![
                Insn::If(Cond::Ne, 99),
                Insn::Switch {
                    cases: vec![(0, 2)],
                    default: 7,
                },
                Insn::Return(false),
            ],
        };
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.len(), 3);
        assert_eq!(cfg.blocks[0].succs, vec![1], "fall-through only");
        assert_eq!(cfg.blocks[1].succs, vec![2], "the in-range case only");
    }

    #[test]
    fn call_does_not_end_a_block() {
        let mut f = FunctionBuilder::new("c", 0, 0);
        f.call(crate::program::FuncId(0)).push(1).print().ret_void();
        let cfg = Cfg::build(&f.finish().unwrap());
        assert_eq!(cfg.len(), 1, "calls are not block terminators");
    }
}
