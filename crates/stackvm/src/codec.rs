//! Compact binary serialization of programs.
//!
//! A self-contained byte codec (no external format crates), used to
//! persist programs and — in the attack suite — to model the "class
//! encryption" attack, which stores bytecode in an opaque encrypted form
//! that instrumentation cannot read.

use std::error::Error;
use std::fmt;

use crate::insn::{BinOp, Cond, Insn};
use crate::program::{FuncId, Function, Program};

const MAGIC: &[u8; 4] = b"PMVM";

/// Error decoding a serialized program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program decode failed at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl Error for DecodeError {}

/// Serializes a program to bytes.
pub fn encode_program(program: &Program) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    write_u32(&mut out, program.statics.len() as u32);
    for s in &program.statics {
        write_str(&mut out, s);
    }
    write_u32(&mut out, program.functions.len() as u32);
    for f in &program.functions {
        write_str(&mut out, &f.name);
        write_u16(&mut out, f.num_params);
        write_u16(&mut out, f.num_locals);
        out.push(f.returns_value as u8);
        write_u32(&mut out, f.code.len() as u32);
        for insn in &f.code {
            encode_insn(insn, &mut out);
        }
    }
    write_u32(&mut out, program.entry.0);
    out
}

/// Deserializes a program from bytes (structure only; run
/// [`crate::verify::verify`] afterwards for semantic checks).
///
/// # Errors
///
/// [`DecodeError`] on truncation or malformed tags.
pub fn decode_program(bytes: &[u8]) -> Result<Program, DecodeError> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(r.err("bad magic"));
    }
    let nstatics = r.u32()? as usize;
    let mut statics = Vec::with_capacity(nstatics.min(1 << 16));
    for _ in 0..nstatics {
        statics.push(r.string()?);
    }
    let nfuncs = r.u32()? as usize;
    let mut functions = Vec::with_capacity(nfuncs.min(1 << 16));
    for _ in 0..nfuncs {
        let name = r.string()?;
        let num_params = r.u16()?;
        let num_locals = r.u16()?;
        let returns_value = r.u8()? != 0;
        let ninsns = r.u32()? as usize;
        let mut code = Vec::with_capacity(ninsns.min(1 << 20));
        for _ in 0..ninsns {
            code.push(decode_insn(&mut r)?);
        }
        functions.push(Function {
            name,
            num_params,
            num_locals,
            returns_value,
            code,
        });
    }
    let entry = FuncId(r.u32()?);
    Ok(Program {
        functions,
        statics,
        entry,
    })
}

fn write_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn cond_byte(c: Cond) -> u8 {
    match c {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::Lt => 2,
        Cond::Le => 3,
        Cond::Gt => 4,
        Cond::Ge => 5,
    }
}

fn byte_cond(b: u8) -> Option<Cond> {
    [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge]
        .get(b as usize)
        .copied()
}

fn binop_byte(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::UShr => 10,
    }
}

fn byte_binop(b: u8) -> Option<BinOp> {
    [
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
    ]
    .get(b as usize)
    .copied()
}

fn encode_insn(insn: &Insn, out: &mut Vec<u8>) {
    match insn {
        Insn::Const(v) => {
            out.push(0);
            write_u64(out, *v as u64);
        }
        Insn::Load(n) => {
            out.push(1);
            write_u16(out, *n);
        }
        Insn::Store(n) => {
            out.push(2);
            write_u16(out, *n);
        }
        Insn::Iinc(n, d) => {
            out.push(3);
            write_u16(out, *n);
            write_u32(out, *d as u32);
        }
        Insn::Bin(op) => {
            out.push(4);
            out.push(binop_byte(*op));
        }
        Insn::Neg => out.push(5),
        Insn::Dup => out.push(6),
        Insn::Pop => out.push(7),
        Insn::Swap => out.push(8),
        Insn::GetStatic(s) => {
            out.push(9);
            write_u32(out, *s);
        }
        Insn::PutStatic(s) => {
            out.push(10);
            write_u32(out, *s);
        }
        Insn::NewArray => out.push(11),
        Insn::ALoad => out.push(12),
        Insn::AStore => out.push(13),
        Insn::ArrayLen => out.push(14),
        Insn::Goto(t) => {
            out.push(15);
            write_u32(out, *t as u32);
        }
        Insn::If(c, t) => {
            out.push(16);
            out.push(cond_byte(*c));
            write_u32(out, *t as u32);
        }
        Insn::IfCmp(c, t) => {
            out.push(17);
            out.push(cond_byte(*c));
            write_u32(out, *t as u32);
        }
        Insn::Switch { cases, default } => {
            out.push(18);
            write_u32(out, cases.len() as u32);
            for &(v, t) in cases {
                write_u64(out, v as u64);
                write_u32(out, t as u32);
            }
            write_u32(out, *default as u32);
        }
        Insn::Call(f) => {
            out.push(19);
            write_u32(out, *f);
        }
        Insn::Return(w) => {
            out.push(20);
            out.push(*w as u8);
        }
        Insn::Print => out.push(21),
        Insn::ReadInput => out.push(22),
        Insn::Nop => out.push(23),
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, reason: &'static str) -> DecodeError {
        DecodeError {
            offset: self.pos,
            reason,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.err("truncated input"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid utf-8"))
    }
}

fn decode_insn(r: &mut Reader<'_>) -> Result<Insn, DecodeError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => Insn::Const(r.u64()? as i64),
        1 => Insn::Load(r.u16()?),
        2 => Insn::Store(r.u16()?),
        3 => Insn::Iinc(r.u16()?, r.u32()? as i32),
        4 => {
            let b = r.u8()?;
            Insn::Bin(byte_binop(b).ok_or_else(|| r.err("bad binop"))?)
        }
        5 => Insn::Neg,
        6 => Insn::Dup,
        7 => Insn::Pop,
        8 => Insn::Swap,
        9 => Insn::GetStatic(r.u32()?),
        10 => Insn::PutStatic(r.u32()?),
        11 => Insn::NewArray,
        12 => Insn::ALoad,
        13 => Insn::AStore,
        14 => Insn::ArrayLen,
        15 => Insn::Goto(r.u32()? as usize),
        16 => {
            let c = byte_cond(r.u8()?).ok_or_else(|| r.err("bad cond"))?;
            Insn::If(c, r.u32()? as usize)
        }
        17 => {
            let c = byte_cond(r.u8()?).ok_or_else(|| r.err("bad cond"))?;
            Insn::IfCmp(c, r.u32()? as usize)
        }
        18 => {
            let n = r.u32()? as usize;
            let mut cases = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let v = r.u64()? as i64;
                let t = r.u32()? as usize;
                cases.push((v, t));
            }
            Insn::Switch {
                cases,
                default: r.u32()? as usize,
            }
        }
        19 => Insn::Call(r.u32()?),
        20 => Insn::Return(r.u8()? != 0),
        21 => Insn::Print,
        22 => Insn::ReadInput,
        23 => Insn::Nop,
        _ => return Err(r.err("bad instruction tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.add_static("global");
        let mut f = FunctionBuilder::new("main", 0, 3);
        let a = f.new_label();
        let b = f.new_label();
        f.push(-5).store(0);
        f.load(0).if_zero(Cond::Lt, a);
        f.push(1).put_static(g);
        f.bind(a);
        f.load(0);
        f.switch(&[(1, b)], b);
        f.bind(b);
        f.push(2).new_array().pop();
        f.read_input().print();
        f.ret_void();
        let main = pb.add_function(f.finish().unwrap());
        pb.finish(main).unwrap()
    }

    #[test]
    fn round_trip_preserves_program() {
        let p = sample();
        let bytes = encode_program(&p);
        let q = decode_program(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn every_instruction_round_trips() {
        use crate::insn::{BinOp, Insn};
        let all = vec![
            Insn::Const(i64::MIN),
            Insn::Const(i64::MAX),
            Insn::Load(9),
            Insn::Store(0),
            Insn::Iinc(3, -100),
            Insn::Bin(BinOp::UShr),
            Insn::Neg,
            Insn::Dup,
            Insn::Pop,
            Insn::Swap,
            Insn::GetStatic(7),
            Insn::PutStatic(8),
            Insn::NewArray,
            Insn::ALoad,
            Insn::AStore,
            Insn::ArrayLen,
            Insn::Goto(42),
            Insn::If(Cond::Ge, 1),
            Insn::IfCmp(Cond::Ne, 2),
            Insn::Switch {
                cases: vec![(-1, 0), (i64::MAX, 3)],
                default: 4,
            },
            Insn::Call(2),
            Insn::Return(true),
            Insn::Return(false),
            Insn::Print,
            Insn::ReadInput,
            Insn::Nop,
        ];
        let p = Program {
            functions: vec![Function {
                name: "all".into(),
                num_params: 0,
                num_locals: 10,
                returns_value: true,
                code: all,
            }],
            statics: vec!["s".into()],
            entry: FuncId(0),
        };
        let q = decode_program(&encode_program(&p)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            decode_program(b"NOPE"),
            Err(DecodeError {
                offset: 4,
                reason: "bad magic"
            })
        );
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_program(&sample());
        for cut in [0usize, 3, 10, bytes.len() - 1] {
            assert!(decode_program(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn garbage_tags_rejected() {
        let mut bytes = encode_program(&sample());
        // Corrupt an instruction tag region aggressively.
        let mid = bytes.len() / 2;
        bytes[mid] = 0xEE;
        // Either a decode error or a different program; never a panic.
        let _ = decode_program(&bytes);
    }
}
