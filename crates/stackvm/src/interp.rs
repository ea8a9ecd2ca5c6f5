//! The instrumenting interpreter.
//!
//! Executes a verified [`Program`] and, when tracing is enabled, records
//! the basic-block / branch / snapshot events of Section 3.1. Instruction
//! counts stand in for wall-clock time in the cost experiments (Figure 8):
//! they are deterministic and proportional to interpreter work.
//!
//! Two engines share one semantics:
//!
//! * [`Vm::run`] / [`Vm::run_with_sink`] run the compiled threaded-code
//!   form ([`crate::compile`]) under every trace configuration, streaming
//!   events to a [`TraceSink`] — the path embedding and recognition use;
//! * [`Vm::run_reference`] is the original enum-dispatch interpreter,
//!   kept verbatim as the semantic oracle the property tests compare
//!   the compiled engine against.

use crate::cfg::Cfg;
use crate::compile::{run_compiled, trace_mode, Compiled, BRANCHES, FULL, OFF};
use crate::insn::{BinOp, Insn};
use crate::predecode::Predecoded;
use crate::program::{FuncId, Program};
use crate::trace::{Site, SnapshotData, Trace, TraceConfig, TraceEvent, TraceSink};
use crate::VmError;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Default instruction budget (generous; guards against runaway loops in
/// attacked programs).
pub const DEFAULT_BUDGET: u64 = 200_000_000;

/// Maximum call-stack depth.
pub const MAX_CALL_DEPTH: usize = 10_000;

/// Most heap cells (8 bytes each) one run may allocate: 16 MiB. The
/// heap never frees, so this bounds every `NewArray` of the run
/// together; exceeding it is [`VmError::HeapCapExceeded`]. Sized as
/// 1024 times the workloads' measured peak, rounded up to a power of
/// two (DESIGN.md §14).
pub const MAX_HEAP_CELLS: usize = 1 << 21;

/// Heap cells each array is charged beyond its length: its 24-byte
/// header.
const ARRAY_HEADER_CELLS: usize = 3;

/// Most local-variable cells (8 bytes each) live across the call stack
/// at once: 4 MiB. A call that would pass it is
/// [`VmError::LocalsCapExceeded`]. Sized as 1024 times the workloads'
/// measured peak, rounded up to a power of two (DESIGN.md §14).
pub const MAX_LOCALS_CELLS: usize = 1 << 19;

/// Result of a completed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Values printed by the program, in order — its observable output.
    pub output: Vec<i64>,
    /// Number of instructions executed — the deterministic cost metric.
    pub instructions: u64,
    /// The recorded trace (empty unless tracing was enabled).
    pub trace: Trace,
    /// Final static-field values.
    pub statics: Vec<i64>,
}

/// Result of a streaming execution — like [`Outcome`] minus the trace,
/// which went to the caller's [`TraceSink`] as it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Values printed by the program, in order — its observable output.
    pub output: Vec<i64>,
    /// Number of instructions executed — the deterministic cost metric.
    pub instructions: u64,
    /// Final static-field values.
    pub statics: Vec<i64>,
}

/// An interpreter for one program.
///
/// See the [crate-level example](crate) for basic use. For watermarking,
/// enable tracing and provide the secret input:
///
/// ```
/// use stackvm::builder::{FunctionBuilder, ProgramBuilder};
/// use stackvm::interp::Vm;
/// use stackvm::trace::TraceConfig;
///
/// let mut pb = ProgramBuilder::new();
/// let mut f = FunctionBuilder::new("main", 0, 0);
/// f.read_input().print().ret_void();
/// let main = pb.add_function(f.finish()?);
/// let program = pb.finish(main)?;
///
/// let outcome = Vm::new(&program)
///     .with_input(vec![42])
///     .with_trace(TraceConfig::full())
///     .run()?;
/// assert_eq!(outcome.output, vec![42]);
/// assert!(!outcome.trace.is_empty());
/// # Ok::<(), stackvm::VmError>(())
/// ```
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p Program,
    /// The decoded program, until the compile step consumes it (a
    /// program as large as the Jess-like host would otherwise hold both
    /// forms, ~1.3 MB each, for the whole run).
    predecoded: Mutex<Option<Predecoded>>,
    input: Vec<i64>,
    budget: u64,
    trace_config: TraceConfig,
    /// Lazily-built compiled form, for the trace mode of `trace_config`.
    compiled: OnceLock<Compiled>,
}

/// A call frame of the reference engine (per-frame vectors, as the
/// original interpreter allocated them).
struct Frame {
    func: FuncId,
    pc: usize,
    locals: Vec<i64>,
    stack: Vec<i64>,
}

impl<'p> Vm<'p> {
    /// Prepares an interpreter, flattening the program into its dense
    /// [`Predecoded`] form (built once per program, linear in code size).
    pub fn new(program: &'p Program) -> Self {
        Vm {
            program,
            predecoded: Mutex::new(Some(Predecoded::build(program))),
            input: Vec::new(),
            budget: DEFAULT_BUDGET,
            trace_config: TraceConfig::off(),
            compiled: OnceLock::new(),
        }
    }

    /// Sets the input sequence consumed by `ReadInput` (the watermark
    /// key's secret input, during embedding and recognition).
    pub fn with_input(mut self, input: Vec<i64>) -> Self {
        self.input = input;
        self
    }

    /// Sets the instruction budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Enables trace recording.
    pub fn with_trace(mut self, config: TraceConfig) -> Self {
        self.trace_config = config;
        // A form compiled already was compiled for the old trace mode.
        if self.compiled.take().is_some() {
            self.predecoded = Mutex::new(Some(Predecoded::build(self.program)));
        }
        self
    }

    /// Forces the compile step (normally lazy, on the first run).
    /// Sessions call this under a telemetry span so compile time is
    /// observable apart from the run.
    pub fn prepare(&self) {
        self.compiled();
    }

    fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| {
            let predecoded = self
                .predecoded
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("the compile step runs once");
            Compiled::build(&predecoded, trace_mode(&self.trace_config))
        })
    }

    /// Runs the program's entry function to completion, collecting the
    /// trace into a vector (streaming into a [`Trace`] sink).
    ///
    /// # Errors
    ///
    /// Any [`VmError`] runtime fault: stack underflow, division by zero,
    /// bad array access, falling off a function end, budget exhaustion,
    /// call-stack overflow, or a heap or locals cap. (Attacked programs
    /// routinely fault — the resilience experiments rely on observing
    /// this.)
    pub fn run(&self) -> Result<Outcome, VmError> {
        let mut trace = Trace::new();
        let r = self.run_with_sink(&mut trace)?;
        Ok(Outcome {
            output: r.output,
            instructions: r.instructions,
            trace,
            statics: r.statics,
        })
    }

    /// Runs the program, streaming trace events into `sink` the moment
    /// they happen — no `Vec<TraceEvent>` is ever materialized. This is
    /// the recognition hot path: with a packed-bits sink the whole
    /// trace-to-bitstring pipeline allocates nothing per event.
    ///
    /// # Errors
    ///
    /// As for [`Vm::run`].
    pub fn run_with_sink<S: TraceSink>(&self, sink: &mut S) -> Result<RunResult, VmError> {
        let compiled = self.compiled();
        let (program, input, budget, config) =
            (self.program, &self.input, self.budget, &self.trace_config);
        match trace_mode(config) {
            OFF => run_compiled::<S, OFF>(compiled, program, input, budget, config, sink),
            BRANCHES => run_compiled::<S, BRANCHES>(compiled, program, input, budget, config, sink),
            _ => run_compiled::<S, FULL>(compiled, program, input, budget, config, sink),
        }
    }

    /// The original enum-dispatch interpreter, preserved as the semantic
    /// oracle: the `compiled_engine_matches_reference` property test
    /// asserts [`Vm::run`] agrees with it — outcome, trace, and error —
    /// under every trace mode over randomized programs.
    ///
    /// # Errors
    ///
    /// As for [`Vm::run`].
    pub fn run_reference(&self) -> Result<Outcome, VmError> {
        let cfgs: Vec<Cfg> = self.program.functions.iter().map(Cfg::build).collect();
        let mut statics = vec![0i64; self.program.statics.len()];
        let mut heap: Vec<Vec<i64>> = Vec::new();
        let mut heap_cells: usize = 0;
        let mut output = Vec::new();
        let mut trace = Trace::new();
        let mut snapshot_counts: std::collections::HashMap<Site, u32> =
            std::collections::HashMap::new();
        let mut input_pos = 0usize;
        let mut executed: u64 = 0;
        let record_leaders = self.trace_config.blocks || self.trace_config.snapshots;

        let entry_fn = self.program.function(self.program.entry);
        // Locals cells live across all frames (the compiled engine's
        // locals arena length).
        let mut live_locals = entry_fn.num_locals as usize;
        let mut frames = vec![Frame {
            func: self.program.entry,
            pc: 0,
            locals: vec![0i64; entry_fn.num_locals as usize],
            stack: Vec::new(),
        }];

        loop {
            let call_depth = frames.len();
            let Some(frame) = frames.last_mut() else {
                break;
            };
            let func = self.program.function(frame.func);
            let cfg = &cfgs[frame.func.0 as usize];
            let pc = frame.pc;
            if pc >= func.code.len() {
                return Err(VmError::FellOffEnd { func: frame.func });
            }
            executed += 1;
            if executed > self.budget {
                return Err(VmError::BudgetExhausted {
                    budget: self.budget,
                });
            }
            if record_leaders && cfg.is_leader[pc] {
                let site = Site {
                    func: frame.func,
                    pc,
                };
                if self.trace_config.blocks {
                    trace.events.push(TraceEvent::EnterBlock { site });
                }
                if self.trace_config.snapshots {
                    let seen = snapshot_counts.entry(site).or_insert(0);
                    if self.trace_config.snapshot_limit == 0
                        || *seen < self.trace_config.snapshot_limit
                    {
                        *seen += 1;
                        trace.events.push(TraceEvent::Snapshot {
                            site,
                            data: Box::new(SnapshotData {
                                locals: frame.locals.clone(),
                                statics: statics.clone(),
                            }),
                        });
                    }
                }
            }

            macro_rules! pop {
                () => {
                    frame.stack.pop().ok_or(VmError::StackUnderflow {
                        func: frame.func,
                        pc,
                    })?
                };
            }

            match &func.code[pc] {
                Insn::Const(v) => {
                    frame.stack.push(*v);
                    frame.pc += 1;
                }
                Insn::Load(n) => {
                    frame.stack.push(frame.locals[*n as usize]);
                    frame.pc += 1;
                }
                Insn::Store(n) => {
                    let v = pop!();
                    frame.locals[*n as usize] = v;
                    frame.pc += 1;
                }
                Insn::Iinc(n, d) => {
                    let slot = &mut frame.locals[*n as usize];
                    *slot = slot.wrapping_add(*d as i64);
                    frame.pc += 1;
                }
                Insn::Bin(op) => {
                    let b = pop!();
                    let a = pop!();
                    let v = match op {
                        BinOp::Add => a.wrapping_add(b),
                        BinOp::Sub => a.wrapping_sub(b),
                        BinOp::Mul => a.wrapping_mul(b),
                        BinOp::Div => {
                            if b == 0 {
                                return Err(VmError::DivisionByZero {
                                    func: frame.func,
                                    pc,
                                });
                            }
                            a.wrapping_div(b)
                        }
                        BinOp::Rem => {
                            if b == 0 {
                                return Err(VmError::DivisionByZero {
                                    func: frame.func,
                                    pc,
                                });
                            }
                            a.wrapping_rem(b)
                        }
                        BinOp::And => a & b,
                        BinOp::Or => a | b,
                        BinOp::Xor => a ^ b,
                        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
                        BinOp::Shr => a.wrapping_shr(b as u32 & 63),
                        BinOp::UShr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
                    };
                    frame.stack.push(v);
                    frame.pc += 1;
                }
                Insn::Neg => {
                    let v = pop!();
                    frame.stack.push(v.wrapping_neg());
                    frame.pc += 1;
                }
                Insn::Dup => {
                    let v = *frame.stack.last().ok_or(VmError::StackUnderflow {
                        func: frame.func,
                        pc,
                    })?;
                    frame.stack.push(v);
                    frame.pc += 1;
                }
                Insn::Pop => {
                    pop!();
                    frame.pc += 1;
                }
                Insn::Swap => {
                    let b = pop!();
                    let a = pop!();
                    frame.stack.push(b);
                    frame.stack.push(a);
                    frame.pc += 1;
                }
                Insn::GetStatic(s) => {
                    frame.stack.push(statics[*s as usize]);
                    frame.pc += 1;
                }
                Insn::PutStatic(s) => {
                    let v = pop!();
                    statics[*s as usize] = v;
                    frame.pc += 1;
                }
                Insn::NewArray => {
                    let len = pop!();
                    if len < 0 {
                        return Err(VmError::NegativeArrayLength {
                            func: frame.func,
                            pc,
                            len,
                        });
                    }
                    heap_cells = heap_charge(heap_cells, len, frame.func, pc)?;
                    heap.push(vec![0i64; len as usize]);
                    frame.stack.push(heap.len() as i64 - 1);
                    frame.pc += 1;
                }
                Insn::ALoad => {
                    let idx = pop!();
                    let handle = pop!();
                    let v = *array(&heap, handle, frame.func, pc)?
                        .get(idx as usize)
                        .ok_or(VmError::BadArrayAccess {
                            func: frame.func,
                            pc,
                            value: idx,
                        })?;
                    frame.stack.push(v);
                    frame.pc += 1;
                }
                Insn::AStore => {
                    let v = pop!();
                    let idx = pop!();
                    let handle = pop!();
                    let func_id = frame.func;
                    let arr = array_mut(&mut heap, handle, func_id, pc)?;
                    let slot = arr.get_mut(idx as usize).ok_or(VmError::BadArrayAccess {
                        func: func_id,
                        pc,
                        value: idx,
                    })?;
                    *slot = v;
                    frame.pc += 1;
                }
                Insn::ArrayLen => {
                    let handle = pop!();
                    let len = array(&heap, handle, frame.func, pc)?.len() as i64;
                    frame.stack.push(len);
                    frame.pc += 1;
                }
                Insn::Goto(t) => frame.pc = *t,
                Insn::If(cond, t) => {
                    let v = pop!();
                    let next = if cond.eval(v, 0) { *t } else { pc + 1 };
                    if self.trace_config.branches {
                        trace.events.push(TraceEvent::Branch {
                            site: Site {
                                func: frame.func,
                                pc,
                            },
                            next,
                        });
                    }
                    frame.pc = next;
                }
                Insn::IfCmp(cond, t) => {
                    let b = pop!();
                    let a = pop!();
                    let next = if cond.eval(a, b) { *t } else { pc + 1 };
                    if self.trace_config.branches {
                        trace.events.push(TraceEvent::Branch {
                            site: Site {
                                func: frame.func,
                                pc,
                            },
                            next,
                        });
                    }
                    frame.pc = next;
                }
                Insn::Switch { cases, default } => {
                    let v = pop!();
                    frame.pc = cases
                        .iter()
                        .find(|&&(k, _)| k == v)
                        .map(|&(_, t)| t)
                        .unwrap_or(*default);
                }
                Insn::Call(f) => {
                    if call_depth >= MAX_CALL_DEPTH {
                        return Err(VmError::CallStackOverflow);
                    }
                    let callee_id = FuncId(*f);
                    let callee = self.program.function(callee_id);
                    let argc = callee.num_params as usize;
                    if frame.stack.len() < argc {
                        return Err(VmError::StackUnderflow {
                            func: frame.func,
                            pc,
                        });
                    }
                    live_locals =
                        locals_charge(live_locals, callee.num_locals as usize, frame.func, pc)?;
                    let mut locals = vec![0i64; callee.num_locals as usize];
                    let split = frame.stack.len() - argc;
                    for (i, v) in frame.stack.drain(split..).enumerate() {
                        locals[i] = v;
                    }
                    frame.pc += 1; // resume after the call on return
                    frames.push(Frame {
                        func: callee_id,
                        pc: 0,
                        locals,
                        stack: Vec::new(),
                    });
                }
                Insn::Return(with_value) => {
                    let ret = if *with_value { Some(pop!()) } else { None };
                    live_locals -= frame.locals.len();
                    frames.pop();
                    match frames.last_mut() {
                        Some(caller) => {
                            if let Some(v) = ret {
                                caller.stack.push(v);
                            }
                        }
                        None => {
                            return Ok(Outcome {
                                output,
                                instructions: executed,
                                trace,
                                statics,
                            });
                        }
                    }
                }
                Insn::Print => {
                    let v = pop!();
                    output.push(v);
                    frame.pc += 1;
                }
                Insn::ReadInput => {
                    let v = self.input.get(input_pos).copied().unwrap_or(0);
                    input_pos += 1;
                    frame.stack.push(v);
                    frame.pc += 1;
                }
                Insn::Nop => frame.pc += 1,
            }
        }
        unreachable!("loop exits via Return from the entry frame");
    }
}

/// Charges a `NewArray` of `len` cells against [`MAX_HEAP_CELLS`],
/// given the `used` cells the run has allocated so far; returns the new
/// total. An array costs its cells plus the [`ARRAY_HEADER_CELLS`] of
/// its handle, so zero-length arrays are not free. Both engines call
/// it, so the fault is identical on each.
#[inline]
pub(crate) fn heap_charge(used: usize, len: i64, func: FuncId, pc: usize) -> Result<usize, VmError> {
    match usize::try_from(len) {
        Ok(len) if len + ARRAY_HEADER_CELLS <= MAX_HEAP_CELLS - used => {
            Ok(used + len + ARRAY_HEADER_CELLS)
        }
        _ => Err(VmError::HeapCapExceeded { func, pc, len }),
    }
}

/// Charges a callee frame of `frame` cells against [`MAX_LOCALS_CELLS`],
/// given the `live` locals cells below it; returns the new total.
#[inline]
pub(crate) fn locals_charge(
    live: usize,
    frame: usize,
    func: FuncId,
    pc: usize,
) -> Result<usize, VmError> {
    if frame > MAX_LOCALS_CELLS - live {
        return Err(VmError::LocalsCapExceeded { func, pc });
    }
    Ok(live + frame)
}

pub(crate) fn array(
    heap: &[Vec<i64>],
    handle: i64,
    func: FuncId,
    pc: usize,
) -> Result<&Vec<i64>, VmError> {
    usize::try_from(handle)
        .ok()
        .and_then(|h| heap.get(h))
        .ok_or(VmError::BadArrayAccess {
            func,
            pc,
            value: handle,
        })
}

pub(crate) fn array_mut(
    heap: &mut [Vec<i64>],
    handle: i64,
    func: FuncId,
    pc: usize,
) -> Result<&mut Vec<i64>, VmError> {
    usize::try_from(handle)
        .ok()
        .and_then(|h| heap.get_mut(h))
        .ok_or(VmError::BadArrayAccess {
            func,
            pc,
            value: handle,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::insn::Cond;
    use crate::trace::{CountingSink, TraceEvent};

    fn run_program(p: &Program) -> Outcome {
        Vm::new(p).run().expect("program runs")
    }

    fn gcd_program() -> Program {
        // The paper's Figure 2 example: gcd(25, 10) via repeated remainder.
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 3); // a, b, tmp
        f.push(25).store(0).push(10).store(1);
        let head = f.new_label();
        let out = f.new_label();
        f.bind(head);
        f.load(0).load(1).rem().if_zero(Cond::Eq, out);
        f.load(1).load(0).rem().store(2); // tmp = b % a
        f.load(0).store(1); // b = a
        f.load(2).store(0); // a = tmp
        f.goto(head);
        f.bind(out);
        f.load(1).print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        pb.finish(main).unwrap()
    }

    #[test]
    fn gcd_of_25_and_10_is_5() {
        let out = run_program(&gcd_program());
        assert_eq!(out.output, vec![5]);
        assert!(out.instructions > 10);
    }

    #[test]
    fn arithmetic_semantics() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        f.push(7).push(3).bin(crate::insn::BinOp::Div).print();
        f.push(7).push(3).bin(crate::insn::BinOp::Rem).print();
        f.push(-7).push(3).bin(crate::insn::BinOp::Shl).print();
        f.push(-8).push(1).bin(crate::insn::BinOp::Shr).print();
        f.push(-8).push(62).bin(crate::insn::BinOp::UShr).print();
        f.push(5).raw(Insn::Neg).print();
        f.ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let out = run_program(&pb.finish(main).unwrap());
        assert_eq!(out.output, vec![2, 1, -56, -4, 3, -5]);
    }

    #[test]
    fn division_by_zero_faults() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        f.push(1).push(0).div().print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        assert!(matches!(
            Vm::new(&p).run(),
            Err(VmError::DivisionByZero { .. })
        ));
    }

    #[test]
    fn arrays_store_and_load() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 1);
        f.push(3).new_array().store(0);
        f.load(0).push(1).push(42).astore();
        f.load(0).push(1).aload().print();
        f.load(0).array_len().print();
        f.ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let out = run_program(&pb.finish(main).unwrap());
        assert_eq!(out.output, vec![42, 3]);
    }

    #[test]
    fn array_out_of_bounds_faults() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 1);
        f.push(2).new_array().store(0);
        f.load(0).push(5).aload().print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        assert!(matches!(
            Vm::new(&p).run(),
            Err(VmError::BadArrayAccess { value: 5, .. })
        ));
    }

    #[test]
    fn negative_array_length_faults() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        f.push(-1).new_array().pop().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        assert!(matches!(
            Vm::new(&p).run(),
            Err(VmError::NegativeArrayLength { len: -1, .. })
        ));
    }

    #[test]
    fn calls_pass_arguments_and_return_values() {
        let mut pb = ProgramBuilder::new();
        let mut callee = FunctionBuilder::new("sub", 2, 0);
        callee.load(0).load(1).sub().ret();
        let callee_id = pb.add_function(callee.finish().unwrap());
        let mut main = FunctionBuilder::new("main", 0, 0);
        main.push(10).push(4).call(callee_id).print().ret_void();
        let main_id = pb.add_function(main.finish().unwrap());
        let out = run_program(&pb.finish(main_id).unwrap());
        assert_eq!(out.output, vec![6]); // 10 - 4, argument order preserved
    }

    #[test]
    fn statics_are_shared_across_calls() {
        let mut pb = ProgramBuilder::new();
        let g = pb.add_static("g");
        let mut setter = FunctionBuilder::new("set", 1, 0);
        setter.load(0).put_static(g).ret_void();
        let setter_id = pb.add_function(setter.finish().unwrap());
        let mut main = FunctionBuilder::new("main", 0, 0);
        main.push(99).call(setter_id).get_static(g).print().ret_void();
        let main_id = pb.add_function(main.finish().unwrap());
        let out = run_program(&pb.finish(main_id).unwrap());
        assert_eq!(out.output, vec![99]);
        assert_eq!(out.statics, vec![99]);
    }

    #[test]
    fn budget_exhaustion_detected() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        let top = f.new_label();
        f.bind(top);
        f.goto(top);
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        assert_eq!(
            Vm::new(&p).with_budget(1000).run(),
            Err(VmError::BudgetExhausted { budget: 1000 })
        );
    }

    #[test]
    fn deep_recursion_overflows() {
        let mut pb = ProgramBuilder::new();
        let id = pb.declare_function("inf");
        let mut f = FunctionBuilder::new("inf", 0, 0);
        f.call(id).ret_void();
        pb.set_function(id, f.finish().unwrap());
        let p = pb.finish(id).unwrap();
        assert_eq!(Vm::new(&p).run(), Err(VmError::CallStackOverflow));
    }

    #[test]
    fn input_sequence_consumed_then_zero() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        f.read_input().print();
        f.read_input().print();
        f.read_input().print();
        f.ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        let out = Vm::new(&p).with_input(vec![7, 8]).run().unwrap();
        assert_eq!(out.output, vec![7, 8, 0]);
    }

    #[test]
    fn switch_dispatches_and_is_not_traced_as_branch() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        let one = f.new_label();
        let dfl = f.new_label();
        f.push(1);
        f.switch(&[(1, one)], dfl);
        f.bind(one);
        f.push(111).print().ret_void();
        f.bind(dfl);
        f.push(222).print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        let out = Vm::new(&p)
            .with_trace(TraceConfig::full())
            .run()
            .unwrap();
        assert_eq!(out.output, vec![111]);
        assert_eq!(out.trace.dynamic_branch_count(), 0);
    }

    #[test]
    fn trace_records_branches_with_following_block() {
        let p = gcd_program();
        let out = Vm::new(&p).with_trace(TraceConfig::full()).run().unwrap();
        let branches: Vec<_> = out.trace.branch_sequence().collect();
        // gcd(25,10): 25 % 10 = 5 ≠ 0 (fall through), then a=5, b=10;
        // 10 % 5 = 0 (taken). Wait — first iteration: a=25, b=10,
        // a % b = 5 ≠ 0 → loop body; second: a = 10 % 25?  The trace
        // length is what matters here: the branch executed twice, and the
        // two executions went to *different* following blocks.
        assert!(branches.len() >= 2);
        let first_site = branches[0].0;
        assert!(branches.iter().all(|(s, _)| *s == first_site));
        let nexts: std::collections::HashSet<usize> =
            branches.iter().map(|&(_, n)| n).collect();
        assert_eq!(nexts.len(), 2, "loop exit and loop body both followed");
        // Block events and snapshots were recorded too.
        assert!(out
            .trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::EnterBlock { .. })));
        assert!(out
            .trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Snapshot { .. })));
    }

    #[test]
    fn tracing_does_not_change_semantics() {
        let p = gcd_program();
        let plain = Vm::new(&p).run().unwrap();
        let traced = Vm::new(&p).with_trace(TraceConfig::full()).run().unwrap();
        assert_eq!(plain.output, traced.output);
        assert_eq!(plain.instructions, traced.instructions);
    }

    #[test]
    fn streaming_sink_sees_the_collected_trace() {
        let p = gcd_program();
        let collected = Vm::new(&p).with_trace(TraceConfig::full()).run().unwrap();
        let mut counter = CountingSink::new();
        let streamed = Vm::new(&p)
            .with_trace(TraceConfig::full())
            .run_with_sink(&mut counter)
            .unwrap();
        assert_eq!(streamed.output, collected.output);
        assert_eq!(streamed.instructions, collected.instructions);
        assert_eq!(streamed.statics, collected.statics);
        assert_eq!(
            counter.branches as usize,
            collected.trace.dynamic_branch_count()
        );
        assert_eq!(
            counter.blocks as usize,
            collected
                .trace
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::EnterBlock { .. }))
                .count()
        );
        assert_eq!(
            counter.snapshots as usize,
            collected
                .trace
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Snapshot { .. }))
                .count()
        );
    }

    /// Deterministic xorshift64 — the crate is offline, so property
    /// tests hand-roll their randomness.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Generates a random two-function program: bounded loops, forward
    /// branches, switches, calls, arrays, statics. Local/static/callee
    /// indices are always valid (so nothing panics), but stack
    /// discipline and arithmetic are unconstrained — runtime faults
    /// (underflow, division by zero, bad array access, budget
    /// exhaustion) are legitimate outcomes both engines must agree on.
    fn random_program(rng: &mut XorShift) -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.add_static("g");

        let mut helper = FunctionBuilder::new("helper", 2, 2);
        random_body(rng, &mut helper, g, None, 12);
        helper.push(1).ret(); // a value is always available to return
        let helper_id = pb.add_function(helper.finish().unwrap());

        let mut main = FunctionBuilder::new("main", 0, 4);
        random_body(rng, &mut main, g, Some(helper_id), 30);
        main.ret_void();
        let main_id = pb.add_function(main.finish().unwrap());
        // Deliberately unverified: the generator keeps indices valid but
        // not stack discipline, and the engines must agree on faults too.
        pb.finish_unverified(main_id)
    }

    fn random_body(
        rng: &mut XorShift,
        f: &mut FunctionBuilder,
        g: crate::StaticId,
        callee: Option<FuncId>,
        len: usize,
    ) {
        use crate::insn::BinOp;
        let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];
        let bins = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::UShr,
        ];
        let mut pending: Vec<crate::builder::Label> = Vec::new();
        // Tracked operand-stack depth along the emission order. Forward
        // branches only jump *out* past the loop, and the loop back edge
        // re-enters with at least this depth, so gating each op on `d`
        // keeps most programs underflow-free (faults that remain —
        // division by zero, the occasional sneaky underflow — are
        // legitimate outcomes the engines must agree on).
        let mut d: usize = 0;
        // A bounded counting loop around the whole body: local 0 counts
        // down from a small bound, so back edges terminate.
        let head = f.new_label();
        f.push(rng.below(4) as i64 + 2).store(0);
        f.bind(head);
        for _ in 0..len {
            match rng.below(14) {
                0 => {
                    f.push(rng.next() as i64 % 100);
                    d += 1;
                }
                1 => {
                    f.load((rng.below(2) + 1) as u16);
                    d += 1;
                }
                2 => {
                    f.read_input();
                    d += 1;
                }
                3 if d >= 1 => {
                    f.store((rng.below(2) + 1) as u16);
                    d -= 1;
                }
                4 if d >= 2 => {
                    f.bin(bins[rng.below(bins.len() as u64) as usize]);
                    d -= 1;
                }
                5 if d >= 1 => {
                    f.raw(Insn::Dup);
                    d += 1;
                }
                6 if d >= 2 => {
                    f.raw(Insn::Swap);
                }
                7 => {
                    f.iinc((rng.below(2) + 1) as u16, rng.next() as i32 % 5);
                }
                8 => {
                    f.get_static(g);
                    d += 1;
                }
                9 if d >= 1 => {
                    f.put_static(g);
                    d -= 1;
                }
                10 if d >= 1 => {
                    let l = f.new_label();
                    f.if_zero(conds[rng.below(6) as usize], l);
                    pending.push(l);
                    d -= 1;
                }
                11 if d >= 2 => {
                    let l = f.new_label();
                    f.if_cmp(conds[rng.below(6) as usize], l);
                    pending.push(l);
                    d -= 2;
                }
                12 if d >= 1 => {
                    let a = f.new_label();
                    let dfl = f.new_label();
                    f.switch(&[(rng.below(3) as i64, a)], dfl);
                    f.bind(a);
                    f.bind(dfl);
                    d -= 1;
                }
                13 if d >= 2 => {
                    if let Some(id) = callee {
                        f.call(id);
                        d -= 1;
                    } else {
                        f.push(3).new_array().array_len().print();
                    }
                }
                _ => {
                    f.push(rng.next() as i64 % 7);
                    d += 1;
                }
            }
        }
        // Close the loop: while (--counter > 0) repeat.
        f.iinc(0, -1);
        f.load(0).if_zero(Cond::Gt, head);
        for l in pending {
            f.bind(l);
        }
    }

    /// The engine equivalence property: over randomized programs
    /// (faults included), the compiled engine and the reference
    /// interpreter produce identical outcomes — output, instruction
    /// counts, trace events, final statics — and identical `VmError`s
    /// with identical error offsets, under every trace mode: off,
    /// branches only, and full (blocks, branches and capped snapshots).
    #[test]
    fn execution_tiers_match_reference() {
        let mut rng = XorShift(0x5EED_CAFE_F00D_0001);
        let mut completed = 0u32;
        for _ in 0..150 {
            let p = random_program(&mut rng);
            let input: Vec<i64> = (0..4).map(|_| rng.next() as i64 % 50).collect();
            for config in [
                TraceConfig::off(),
                TraceConfig::branches_only(),
                TraceConfig::full(),
                TraceConfig {
                    snapshot_limit: 1,
                    ..TraceConfig::full()
                },
            ] {
                let vm = Vm::new(&p)
                    .with_input(input.clone())
                    .with_budget(50_000)
                    .with_trace(config);
                let reference = vm.run_reference();
                assert_eq!(vm.run(), reference, "compiled diverged on {p:?}");
                if reference.is_ok() {
                    completed += 1;
                }
            }
        }
        // The generator must exercise the success path too, not just
        // agree on faults.
        assert!(completed > 50, "only {completed} runs completed");
    }

    #[test]
    fn programs_past_the_old_compile_budget_compile_and_match_reference() {
        // 70,000 slots: past the 65,536-slot budget past which the
        // compiled engine used to decline, so every trace mode now
        // compiles it, and agrees with the oracle.
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 1);
        for i in 0..14_000 {
            let skip = f.new_label();
            f.load(0).push(i % 7).if_cmp(Cond::Lt, skip);
            f.iinc(0, 1);
            f.bind(skip);
            f.iinc(0, 2);
        }
        f.load(0).print().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        assert!(p.functions[0].code.len() > 1 << 16);
        for config in [TraceConfig::branches_only(), TraceConfig::full()] {
            let vm = Vm::new(&p).with_trace(config);
            vm.prepare();
            assert_eq!(vm.run(), vm.run_reference());
        }
    }

    #[test]
    fn changing_the_trace_after_the_compile_step_recompiles() {
        let p = gcd_program();
        let vm = Vm::new(&p).with_trace(TraceConfig::branches_only());
        vm.prepare();
        let vm = vm.with_trace(TraceConfig::full());
        assert_eq!(vm.run(), vm.run_reference());
    }

    /// Runs `p` on both engines and checks they fail alike with `want`.
    fn both_fail_with(p: &Program, want: VmError) {
        let vm = Vm::new(p);
        assert_eq!(vm.run(), Err(want.clone()), "compiled");
        assert_eq!(vm.run_reference(), Err(want), "reference");
    }

    #[test]
    fn a_huge_array_hits_the_heap_cap_on_both_engines() {
        // Five instructions that would ask for 8 TiB.
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        f.push(1 << 40).new_array().pop().ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        both_fail_with(
            &p,
            VmError::HeapCapExceeded {
                func: main,
                pc: 1,
                len: 1 << 40,
            },
        );
    }

    #[test]
    fn a_loop_of_moderate_arrays_crosses_the_heap_cap_on_both_engines() {
        // Each array is a quarter of the cap plus one cell, so the
        // fourth allocation is the first past it.
        let len = (MAX_HEAP_CELLS / 4 + 1) as i64;
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 1);
        let head = f.new_label();
        f.bind(head);
        f.push(len).new_array().pop(); // pcs 0..=2
        f.iinc(0, 1).load(0).push(10).if_cmp(Cond::Lt, head);
        f.ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        both_fail_with(&p, VmError::HeapCapExceeded { func: main, pc: 1, len });
        // Three of them fit.
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 0, 0);
        for _ in 0..3 {
            f.push(len).new_array().pop();
        }
        f.ret_void();
        let main = pb.add_function(f.finish().unwrap());
        let p = pb.finish(main).unwrap();
        assert_eq!(Vm::new(&p).run().map(|o| o.output), Ok(vec![]));
        assert_eq!(Vm::new(&p).run_reference().map(|o| o.output), Ok(vec![]));
    }

    #[test]
    fn deep_recursion_through_a_wide_frame_hits_the_locals_cap_on_both_engines() {
        // Every frame holds u16::MAX locals, so the cap stops the
        // recursion long before the call-depth limit.
        let mut pb = ProgramBuilder::new();
        let id = pb.declare_function("wide");
        let mut f = FunctionBuilder::new("wide", 0, u16::MAX);
        f.call(id).ret_void();
        pb.set_function(id, f.finish().unwrap());
        let p = pb.finish(id).unwrap();
        assert!(MAX_LOCALS_CELLS / usize::from(u16::MAX) < MAX_CALL_DEPTH);
        both_fail_with(&p, VmError::LocalsCapExceeded { func: id, pc: 0 });
    }
}
