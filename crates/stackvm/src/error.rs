use std::error::Error;
use std::fmt;

use crate::program::FuncId;

/// Errors raised while building, verifying, or executing bytecode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmError {
    /// Operand stack underflow at runtime.
    StackUnderflow {
        /// Function in which the fault occurred.
        func: FuncId,
        /// Program counter of the faulting instruction.
        pc: usize,
    },
    /// Division or remainder by zero.
    DivisionByZero {
        /// Function in which the fault occurred.
        func: FuncId,
        /// Program counter of the faulting instruction.
        pc: usize,
    },
    /// An array access was out of bounds or used an invalid handle.
    BadArrayAccess {
        /// Function in which the fault occurred.
        func: FuncId,
        /// Program counter of the faulting instruction.
        pc: usize,
        /// The offending index or handle value.
        value: i64,
    },
    /// Execution fell off the end of a function without `Return`.
    FellOffEnd {
        /// The function that ended without returning.
        func: FuncId,
    },
    /// The configured instruction budget was exhausted (runaway program).
    BudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// The call stack exceeded its depth limit.
    CallStackOverflow,
    /// A structural verification failure (bad branch target, local index,
    /// unbalanced stack, …).
    Verify {
        /// Function that failed verification.
        func_name: String,
        /// Program counter of the offending instruction, when applicable.
        pc: Option<usize>,
        /// Human-readable reason.
        reason: String,
    },
    /// A label was used but never bound while building a function.
    UnboundLabel {
        /// Name of the function being built.
        func_name: String,
    },
    /// A negative array length was requested.
    NegativeArrayLength {
        /// Function in which the fault occurred.
        func: FuncId,
        /// Program counter of the faulting instruction.
        pc: usize,
        /// The requested length.
        len: i64,
    },
    /// A `NewArray` would take the run's heap past
    /// [`MAX_HEAP_CELLS`](crate::interp::MAX_HEAP_CELLS).
    HeapCapExceeded {
        /// Function in which the fault occurred.
        func: FuncId,
        /// Program counter of the faulting instruction.
        pc: usize,
        /// The requested length.
        len: i64,
    },
    /// A call would take the live locals past
    /// [`MAX_LOCALS_CELLS`](crate::interp::MAX_LOCALS_CELLS).
    LocalsCapExceeded {
        /// Function in which the fault occurred.
        func: FuncId,
        /// Program counter of the faulting call.
        pc: usize,
    },
    /// An instruction names a local, static or function that does not
    /// exist, or calls a function whose parameters exceed its frame
    /// (only an unverified program can hold one).
    BadOperand {
        /// Function in which the fault occurred.
        func: FuncId,
        /// Program counter of the faulting instruction.
        pc: usize,
    },
    /// The program's entry names no function (only an unverified
    /// program can have one); raised before the first instruction.
    BadEntry {
        /// The missing entry function.
        func: FuncId,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::StackUnderflow { func, pc } => {
                write!(f, "operand stack underflow in fn#{} at pc {pc}", func.0)
            }
            VmError::DivisionByZero { func, pc } => {
                write!(f, "division by zero in fn#{} at pc {pc}", func.0)
            }
            VmError::BadArrayAccess { func, pc, value } => write!(
                f,
                "bad array access ({value}) in fn#{} at pc {pc}",
                func.0
            ),
            VmError::FellOffEnd { func } => {
                write!(f, "execution fell off the end of fn#{}", func.0)
            }
            VmError::BudgetExhausted { budget } => {
                write!(f, "instruction budget of {budget} exhausted")
            }
            VmError::CallStackOverflow => write!(f, "call stack overflow"),
            VmError::Verify {
                func_name,
                pc,
                reason,
            } => match pc {
                Some(pc) => write!(f, "verification of `{func_name}` failed at pc {pc}: {reason}"),
                None => write!(f, "verification of `{func_name}` failed: {reason}"),
            },
            VmError::UnboundLabel { func_name } => {
                write!(f, "unbound label while building `{func_name}`")
            }
            VmError::NegativeArrayLength { func, pc, len } => write!(
                f,
                "negative array length {len} in fn#{} at pc {pc}",
                func.0
            ),
            VmError::HeapCapExceeded { func, pc, len } => write!(
                f,
                "array of {len} cells exceeds the heap cap in fn#{} at pc {pc}",
                func.0
            ),
            VmError::LocalsCapExceeded { func, pc } => write!(
                f,
                "call exceeds the locals cap in fn#{} at pc {pc}",
                func.0
            ),
            VmError::BadOperand { func, pc } => write!(
                f,
                "operand names a missing local, static or function in fn#{} at pc {pc}",
                func.0
            ),
            VmError::BadEntry { func } => {
                write!(f, "entry fn#{} does not exist", func.0)
            }
        }
    }
}

impl Error for VmError {}
