//! The bytecode instruction set.
//!
//! Branch targets are absolute instruction indices within the containing
//! function (the JVM uses byte offsets; instruction indices are equivalent
//! for every algorithm in this system and make editing fix-ups simpler).

use std::fmt;

/// Comparison condition for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// The condition with branch/fall-through roles exchanged
    /// (`a OP b` ⇔ `!(a NEG(OP) b)`).
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }

    /// Evaluates the condition on two operands.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Binary arithmetic/logic operators (operate on the top two stack slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (faults on divide-by-zero).
    Div,
    /// Signed remainder (faults on divide-by-zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (by low 6 bits of rhs).
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Logical shift right.
    UShr,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::UShr => "ushr",
        };
        f.write_str(s)
    }
}

/// One bytecode instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Insn {
    /// Push a constant.
    Const(i64),
    /// Push local variable `n`.
    Load(u16),
    /// Pop into local variable `n`.
    Store(u16),
    /// Add an immediate to local `n` without touching the stack
    /// (the JVM's `iinc`).
    Iinc(u16, i32),
    /// Apply a binary operator to the top two slots (lhs below rhs).
    Bin(BinOp),
    /// Negate the top slot.
    Neg,
    /// Duplicate the top slot.
    Dup,
    /// Discard the top slot.
    Pop,
    /// Exchange the top two slots.
    Swap,
    /// Push static field `s`.
    GetStatic(u32),
    /// Pop into static field `s`.
    PutStatic(u32),
    /// Pop a length, allocate a zeroed array, push its handle.
    NewArray,
    /// Pop index then handle, push `array[index]`.
    ALoad,
    /// Pop value, index, handle; store `array[index] = value`.
    AStore,
    /// Pop a handle, push the array's length.
    ArrayLen,
    /// Unconditional branch to an instruction index.
    Goto(usize),
    /// Pop one value, branch to the target if `value COND 0`.
    If(Cond, usize),
    /// Pop rhs then lhs, branch to the target if `lhs COND rhs`.
    IfCmp(Cond, usize),
    /// Pop a scrutinee; jump to the matching case or the default.
    ///
    /// Deliberately *not* a conditional branch for trace purposes —
    /// mirrors the JVM's `lookupswitch`, which the embedder's loop
    /// code-generator uses for loop control (see `pathmark-core`).
    Switch {
        /// `(match value, target)` pairs.
        cases: Vec<(i64, usize)>,
        /// Target when no case matches.
        default: usize,
    },
    /// Call a function; pops its arguments (last argument on top), pushes
    /// its return value if it has one.
    Call(u32),
    /// Return from the current function, popping a return value if
    /// `true`.
    Return(bool),
    /// Pop a value and append it to the program output.
    Print,
    /// Push the next value of the program's input sequence (0 once the
    /// input is exhausted). This models the paper's "secret input
    /// sequence" `I = I_0, I_1, …` — file IO, GUI interaction, network
    /// packets — whose only requirement is that "the trace be
    /// reproducible during recognition" (Section 3.1).
    ReadInput,
    /// No operation.
    Nop,
}

impl Insn {
    /// Whether this instruction is a *conditional branch* in the sense of
    /// the trace bit-string definition (Section 3.1 of the paper).
    pub fn is_conditional_branch(&self) -> bool {
        matches!(self, Insn::If(..) | Insn::IfCmp(..))
    }

    /// Whether this instruction unconditionally diverts control
    /// (execution never falls through to the next instruction).
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Insn::Goto(_) | Insn::Switch { .. } | Insn::Return(_)
        )
    }

    /// Whether this instruction may branch (conditionally or not).
    pub fn is_branch(&self) -> bool {
        self.is_conditional_branch() || matches!(self, Insn::Goto(_) | Insn::Switch { .. })
    }

    /// Calls `f` on every explicit branch target of this instruction,
    /// allocating nothing (the compile step and the CFG builder visit
    /// every instruction of a program).
    pub fn for_each_target(&self, mut f: impl FnMut(usize)) {
        match self {
            Insn::Goto(t) | Insn::If(_, t) | Insn::IfCmp(_, t) => f(*t),
            Insn::Switch { cases, default } => {
                cases.iter().for_each(|&(_, t)| f(t));
                f(*default);
            }
            _ => {}
        }
    }

    /// All explicit branch targets of this instruction.
    pub fn targets(&self) -> Vec<usize> {
        let mut ts = Vec::new();
        self.for_each_target(|t| ts.push(t));
        ts
    }

    /// Rewrites every branch target with `f`. Used by the editing layer
    /// to fix up targets after insertions and deletions.
    pub fn map_targets(&mut self, mut f: impl FnMut(usize) -> usize) {
        match self {
            Insn::Goto(t) | Insn::If(_, t) | Insn::IfCmp(_, t) => *t = f(*t),
            Insn::Switch { cases, default } => {
                for (_, t) in cases.iter_mut() {
                    *t = f(*t);
                }
                *default = f(*default);
            }
            _ => {}
        }
    }

    /// Net operand-stack effect `(pops, pushes)` of the instruction,
    /// excluding control flow. `Call` is resolved by the verifier, which
    /// knows arities; here it reports `(0, 0)`.
    pub fn stack_effect(&self) -> (usize, usize) {
        match self {
            Insn::Const(_) | Insn::Load(_) | Insn::GetStatic(_) | Insn::ReadInput => (0, 1),
            Insn::Store(_) | Insn::PutStatic(_) | Insn::Pop | Insn::Print => (1, 0),
            Insn::Iinc(..) | Insn::Nop | Insn::Goto(_) => (0, 0),
            Insn::Bin(_) => (2, 1),
            Insn::Neg | Insn::NewArray | Insn::ArrayLen => (1, 1),
            Insn::Dup => (1, 2),
            Insn::Swap => (2, 2),
            Insn::ALoad => (2, 1),
            Insn::AStore => (3, 0),
            Insn::If(..) | Insn::Switch { .. } => (1, 0),
            Insn::IfCmp(..) => (2, 0),
            Insn::Call(_) => (0, 0),
            Insn::Return(pops) => (usize::from(*pops), 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_negation_is_involutive_and_complementary() {
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(0i64, 0i64), (1, 2), (2, 1), (-5, 5)] {
                assert_eq!(c.eval(a, b), !c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn classification_of_branches() {
        assert!(Insn::If(Cond::Eq, 3).is_conditional_branch());
        assert!(Insn::IfCmp(Cond::Lt, 3).is_conditional_branch());
        assert!(!Insn::Goto(3).is_conditional_branch());
        // The crucial property the embedder relies on: Switch is a branch
        // but NOT a conditional branch.
        let sw = Insn::Switch {
            cases: vec![(0, 1)],
            default: 2,
        };
        assert!(sw.is_branch());
        assert!(!sw.is_conditional_branch());
        assert!(sw.is_terminator());
        assert!(!Insn::If(Cond::Eq, 3).is_terminator());
    }

    #[test]
    fn targets_and_map_targets_round_trip() {
        let mut sw = Insn::Switch {
            cases: vec![(1, 10), (2, 20)],
            default: 30,
        };
        assert_eq!(sw.targets(), vec![10, 20, 30]);
        sw.map_targets(|t| t + 5);
        assert_eq!(sw.targets(), vec![15, 25, 35]);
        let mut g = Insn::Goto(7);
        g.map_targets(|t| t * 2);
        assert_eq!(g.targets(), vec![14]);
        assert!(Insn::Nop.targets().is_empty());
    }
}
