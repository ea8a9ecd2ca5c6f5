//! In-place code editing with branch-target fix-up.
//!
//! Both the watermark embedder (inserting branch code at trace-chosen
//! points, Section 3.2) and the attack suite (inserting bogus branches,
//! no-ops, reordering, Section 5.1.2) splice instructions into existing
//! functions. Splicing shifts instruction indices, so every branch target
//! at or beyond the splice point must be adjusted.

use crate::insn::Insn;
use crate::program::Function;

/// Inserts `snippet` so it executes immediately before the instruction
/// currently at index `at` (or at function end if `at == code.len()`).
///
/// Branch targets *inside the snippet* are interpreted relative to the
/// snippet start; a target equal to `snippet.len()` means "the
/// instruction after the snippet". Pre-existing targets strictly beyond
/// `at` are shifted; targets equal to `at` are left pointing at the
/// snippet start, so jumps into the splice point execute the snippet
/// first — which is precisely what block-entry watermark insertion
/// wants (a loop head visited `k` times runs the snippet `k` times).
///
/// # Panics
///
/// Panics if `at > code.len()` or a snippet target exceeds
/// `snippet.len()`.
pub fn insert_snippet(func: &mut Function, at: usize, snippet: Vec<Insn>) {
    assert!(at <= func.code.len(), "insertion point out of range");
    let len = snippet.len();
    if len == 0 {
        return;
    }
    for insn in &mut func.code {
        insn.map_targets(|t| if t > at { t + len } else { t });
    }
    let rebased: Vec<Insn> = snippet
        .into_iter()
        .map(|mut insn| {
            insn.map_targets(|rel| {
                assert!(rel <= len, "snippet target {rel} exceeds snippet length {len}");
                at + rel
            });
            insn
        })
        .collect();
    func.code.splice(at..at, rebased);
}

/// Inserts every `(at, snippet)` pair into `code` in one pass and returns
/// the new code. The result equals calling [`insert_snippet`] once per
/// pair in descending `at` order, pairs with equal `at` in slice order,
/// so at one point the later snippet lands first:
///
/// * an existing target `t` moves past every snippet inserted before it
///   (`at < t`); one equal to an insertion point lands on the first
///   snippet there, and one at or past the end moves like any other;
/// * a snippet-relative target `rel` lands at the snippet's own start
///   plus `rel`, except that `rel == 0` lands on the first snippet at its
///   point (as a later insertion at the same point would have left it).
///
/// Each instruction is written once, so the cost is the function's
/// length plus the snippets', not one pass per snippet.
///
/// # Panics
///
/// As [`insert_snippet`]: if an `at` exceeds `code.len()` or a snippet
/// target exceeds its snippet's length.
pub fn splice_snippets(code: &[Insn], mut snippets: Vec<(usize, Vec<Insn>)>) -> Vec<Insn> {
    let n = code.len();
    // Layout order: ascending point; at one point, later snippets first.
    let mut order: Vec<usize> = (0..snippets.len()).collect();
    order.sort_unstable_by_key(|&i| (snippets[i].0, std::cmp::Reverse(i)));
    // Each insertion point with the snippet length inserted before it.
    let mut points: Vec<(usize, usize)> = Vec::new();
    let mut inserted = 0;
    for &i in &order {
        let (at, ref snippet) = snippets[i];
        assert!(at <= n, "insertion point out of range");
        if points.last().is_none_or(|&(p, _)| p != at) {
            points.push((at, inserted));
        }
        inserted += snippet.len();
    }
    let moved = |t: usize| {
        let after = points.partition_point(|&(p, _)| p < t);
        t + points.get(after).map_or(inserted, |&(_, before)| before)
    };
    let mut out = Vec::with_capacity(n + inserted);
    let mut pending = order.into_iter().peekable();
    for (pc, insn) in code
        .iter()
        .map(Some)
        .chain(std::iter::once(None))
        .enumerate()
    {
        let first_at_point = out.len();
        while let Some(i) = pending.next_if(|&i| snippets[i].0 == pc) {
            let snippet = std::mem::take(&mut snippets[i].1);
            let (start, len) = (out.len(), snippet.len());
            out.extend(snippet.into_iter().map(|mut insn| {
                insn.map_targets(|rel| {
                    assert!(
                        rel <= len,
                        "snippet target {rel} exceeds snippet length {len}"
                    );
                    if rel == 0 {
                        first_at_point
                    } else {
                        start + rel
                    }
                });
                insn
            }));
        }
        if let Some(insn) = insn {
            let mut insn = insn.clone();
            insn.map_targets(moved);
            out.push(insn);
        }
    }
    out
}

/// Deletes the instruction at `at`, retargeting branches: targets beyond
/// `at` shift down by one; targets equal to `at` now point at the
/// instruction that followed it.
///
/// # Panics
///
/// Panics if `at >= code.len()`.
pub fn delete_insn(func: &mut Function, at: usize) {
    assert!(at < func.code.len(), "deletion point out of range");
    func.code.remove(at);
    for insn in &mut func.code {
        insn.map_targets(|t| if t > at { t - 1 } else { t });
    }
}

/// Replaces the instruction at `at`, leaving all targets untouched.
///
/// # Panics
///
/// Panics if `at >= code.len()`.
pub fn replace_insn(func: &mut Function, at: usize, with: Insn) -> Insn {
    assert!(at < func.code.len(), "replacement point out of range");
    std::mem::replace(&mut func.code[at], with)
}

/// Grows the local-variable area by `extra` slots, returning the index of
/// the first new slot. Inserted watermark code uses fresh locals so it
/// cannot clobber program state. Returns `None`, and leaves the function
/// as it was, when the count would pass `u16::MAX`.
pub fn reserve_locals(func: &mut Function, extra: u16) -> Option<u16> {
    let first = func.num_locals;
    func.num_locals = first.checked_add(extra)?;
    Some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::insn::Cond;
    use crate::interp::Vm;
    use crate::program::{FuncId, Program};

    fn counting_function() -> Function {
        // prints 0,1,2 then returns
        let mut f = FunctionBuilder::new("main", 0, 1);
        let top = f.new_label();
        let out = f.new_label();
        f.bind(top);
        f.load(0).push(3).if_cmp(Cond::Ge, out);
        f.load(0).print().iinc(0, 1).goto(top);
        f.bind(out);
        f.ret_void();
        f.finish().unwrap()
    }

    fn run(func: Function) -> Vec<i64> {
        let p = Program {
            functions: vec![func],
            statics: vec![],
            entry: FuncId(0),
        };
        crate::verify::verify(&p).expect("edited program verifies");
        Vm::new(&p).run().expect("edited program runs").output
    }

    #[test]
    fn insert_preserves_loop_semantics() {
        let mut f = counting_function();
        // Insert a no-op-ish snippet at the loop head (pc 0).
        insert_snippet(&mut f, 0, vec![Insn::Const(9), Insn::Pop]);
        assert_eq!(run(f), vec![0, 1, 2]);
    }

    #[test]
    fn insert_mid_block_and_at_end() {
        let mut f = counting_function();
        let end = f.code.len();
        insert_snippet(&mut f, 4, vec![Insn::Nop]);
        insert_snippet(&mut f, end + 1, vec![Insn::Nop]);
        // The trailing Nop sits after Return and is dead but must not
        // break verification (it is unreachable, so depth checks skip it).
        assert_eq!(run(f), vec![0, 1, 2]);
    }

    #[test]
    fn snippet_internal_branches_are_rebased() {
        let mut f = counting_function();
        // Snippet: if local0 >= 0 skip the poison print (always skips).
        let snippet = vec![
            Insn::Load(0),
            Insn::If(Cond::Ge, 4), // relative: skip to snippet end
            Insn::Const(-999),
            Insn::Print,
        ];
        insert_snippet(&mut f, 3, snippet);
        assert_eq!(run(f), vec![0, 1, 2]);
    }

    #[test]
    fn jump_into_insertion_point_executes_snippet() {
        // Insert a print at the loop head: it runs once per iteration
        // (4 entries: three iterations plus the final test).
        let mut f = counting_function();
        insert_snippet(&mut f, 0, vec![Insn::Const(7), Insn::Print]);
        assert_eq!(run(f), vec![7, 0, 7, 1, 7, 2, 7]);
    }

    #[test]
    fn delete_shifts_targets() {
        let mut f = counting_function();
        // Delete the `print` at pc 4; loop still terminates.
        delete_insn(&mut f, 4);
        // load(0) at pc 3 now feeds... nothing pops it: stack depth would
        // break; delete that too.
        delete_insn(&mut f, 3);
        assert_eq!(run(f), Vec::<i64>::new());
    }

    #[test]
    fn replace_swaps_single_instruction() {
        let mut f = counting_function();
        let old = replace_insn(&mut f, 1, Insn::Const(5));
        assert_eq!(old, Insn::Const(3));
        assert_eq!(run(f), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reserve_locals_appends() {
        let mut f = counting_function();
        let first = reserve_locals(&mut f, 3);
        assert_eq!(first, Some(1));
        assert_eq!(f.num_locals, 4);
    }

    #[test]
    fn reserve_locals_refuses_to_pass_u16_max() {
        let mut f = counting_function();
        f.num_locals = u16::MAX - 2;
        assert_eq!(reserve_locals(&mut f, 3), None);
        assert_eq!(
            f.num_locals,
            u16::MAX - 2,
            "a refused reservation changes nothing"
        );
        assert_eq!(reserve_locals(&mut f, 2), Some(u16::MAX - 2));
        assert_eq!(f.num_locals, u16::MAX);
    }

    #[test]
    #[should_panic(expected = "insertion point out of range")]
    fn insert_past_end_panics() {
        let mut f = counting_function();
        let end = f.code.len();
        insert_snippet(&mut f, end + 1, vec![Insn::Nop]);
    }

    #[test]
    #[should_panic(expected = "snippet target")]
    fn oversized_snippet_target_panics() {
        let mut f = counting_function();
        insert_snippet(&mut f, 0, vec![Insn::Goto(5)]);
    }
}
