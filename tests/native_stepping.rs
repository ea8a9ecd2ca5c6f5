//! Equivalence gate for the native stepping loop.
//!
//! `Machine::run`, `profile_image`, `extract` (both tracers),
//! `extract_auto` and `discover_hops` all single-step through
//! `Machine::run_with`. Each once had its own `for _ in 0..budget {
//! machine.step()? … }` loop; those loops survive below, verbatim, as
//! test-only references. On every native workload — the host, its marked
//! copy and each Section 5.2.2 attack on that copy — the shipped
//! functions must return exactly what the references return, values and
//! errors alike: at a generous budget, at exactly the budget the
//! reference needed, and at one step fewer.

use std::collections::HashMap;
use std::fmt::Debug;

use pathmark::attacks::native as attacks;
use pathmark::core::key::{Watermark, WatermarkKey};
use pathmark::core::native::{
    embed_native, extract, extract_auto, profile_image, ExtractionSpec, NativeConfig, Profile,
    TracerKind,
};
use pathmark::core::WatermarkError;
use pathmark::crypto::Prng;
use pathmark::sim::cpu::{Machine, Outcome};
use pathmark::sim::insn::Insn;
use pathmark::sim::{Image, SimError};
use pathmark::workloads::native as workloads;

/// A reference result together with the loop iterations it used: the
/// smallest budget that reproduces it, when it ended before its budget.
type Used<T> = (T, u64);

fn ref_run(image: &Image, input: &[u32], budget: u64) -> Used<Result<Outcome, SimError>> {
    let mut machine = Machine::load(image).with_input(input.to_vec());
    let mut executed = 0u64;
    let result = loop {
        if executed >= budget {
            break Err(SimError::BudgetExhausted { budget });
        }
        let step = match machine.step() {
            Ok(step) => step,
            Err(e) => {
                executed += 1;
                break Err(e);
            }
        };
        executed += 1;
        if step.halted {
            break Ok(Outcome {
                output: std::mem::take(&mut machine.output),
                instructions: executed,
            });
        }
    };
    (result, executed)
}

/// The profile as the reference computed it: counts, first steps, total.
type RefProfile = (HashMap<u32, u64>, HashMap<u32, u64>, u64);

fn ref_profile(
    image: &Image,
    input: &[u32],
    budget: u64,
) -> Used<Result<RefProfile, WatermarkError>> {
    let mut machine = Machine::load(image).with_input(input.to_vec());
    let (mut counts, mut first_step, mut total) = (HashMap::new(), HashMap::new(), 0u64);
    for step_index in 0..budget {
        let step = match machine.step() {
            Ok(step) => step,
            Err(e) => return (Err(e.into()), step_index + 1),
        };
        *counts.entry(step.pc).or_insert(0) += 1;
        first_step.entry(step.pc).or_insert(step_index);
        total += 1;
        if step.halted {
            return (Ok((counts, first_step, total)), step_index + 1);
        }
    }
    (
        Err(WatermarkError::Sim(SimError::BudgetExhausted { budget })),
        budget,
    )
}

#[derive(Clone, Copy)]
struct Record {
    pc: u32,
    next_pc: u32,
    kind: Kind,
}

#[derive(Clone, Copy)]
enum Kind {
    Call { ret_addr: u32 },
    Ret,
    Other,
}

fn ref_extract(
    image: &Image,
    input: &[u32],
    spec: ExtractionSpec,
    tracer: TracerKind,
    budget: u64,
) -> Used<Result<Vec<bool>, WatermarkError>> {
    let mut machine = Machine::load(image).with_input(input.to_vec());
    let mut records: Vec<Record> = Vec::new();
    let mut recording = false;
    let mut reached_end = false;
    let mut used = 0;
    for _ in 0..budget {
        used += 1;
        if machine.eip == spec.begin {
            recording = true;
        }
        if recording && machine.eip == spec.end {
            reached_end = true;
            break;
        }
        let step = match machine.step() {
            Ok(step) => step,
            Err(e) => return (Err(e.into()), used),
        };
        if recording {
            let kind = match step.insn {
                Insn::Call(_) | Insn::CallInd(_) => Kind::Call {
                    ret_addr: step.pc + step.insn.len() as u32,
                },
                Insn::Ret => Kind::Ret,
                _ => Kind::Other,
            };
            records.push(Record {
                pc: step.pc,
                next_pc: step.next_pc,
                kind,
            });
        }
        if step.halted {
            break;
        }
    }
    if !reached_end {
        return (Err(WatermarkError::EndNotReached), used);
    }
    let mut shadow: Vec<(u32, u32, u32)> = Vec::new();
    let mut mis_returns: Vec<((u32, u32, u32), u32)> = Vec::new();
    for r in &records {
        match r.kind {
            Kind::Call { ret_addr } => shadow.push((ret_addr, r.pc, r.next_pc)),
            Kind::Ret => {
                if let Some(frame) = shadow.pop() {
                    if r.next_pc != frame.0 {
                        mis_returns.push((frame, r.next_pc));
                    }
                }
            }
            Kind::Other => {}
        }
    }
    if mis_returns.is_empty() {
        return (Err(WatermarkError::NoBranchFunction), used);
    }
    let hops: Vec<(u32, u32)> = match tracer {
        TracerKind::Smart => mis_returns
            .iter()
            .map(|&((expected_ret, _, _), landing)| (expected_ret - 5, landing))
            .collect(),
        TracerKind::Simple => {
            let f_entry = mis_returns[0].0 .2;
            let mut entries: Vec<u32> = Vec::new();
            for w in records.windows(2) {
                if w[1].pc == f_entry && w[0].next_pc == f_entry {
                    entries.push(w[0].pc);
                }
            }
            entries
                .into_iter()
                .zip(mis_returns.iter().map(|&(_, landing)| landing))
                .collect()
        }
    };
    let mut bits = Vec::new();
    for &(a, b) in &hops {
        if b == spec.end {
            break;
        }
        bits.push(b > a);
    }
    (Ok(bits), used)
}

/// A mis-return: (frame's expected return, call pc, landing).
type MisReturn = (u32, u32, u32);

/// The shadow-stack walk `extract_auto` and `discover_hops` each ran.
fn ref_mis_returns(
    image: &Image,
    input: &[u32],
    budget: u64,
) -> Used<Result<Vec<MisReturn>, SimError>> {
    let mut machine = Machine::load(image).with_input(input.to_vec());
    let mut shadow: Vec<(u32, u32)> = Vec::new();
    let mut hops = Vec::new();
    let mut used = 0;
    for _ in 0..budget {
        used += 1;
        let step = match machine.step() {
            Ok(step) => step,
            Err(e) => return (Err(e), used),
        };
        match step.insn {
            Insn::Call(_) | Insn::CallInd(_) => {
                shadow.push((step.pc + step.insn.len() as u32, step.pc));
            }
            Insn::Ret => {
                if let Some((expected, call_pc)) = shadow.pop() {
                    if step.next_pc != expected {
                        hops.push((expected, call_pc, step.next_pc));
                    }
                }
            }
            _ => {}
        }
        if step.halted {
            break;
        }
    }
    (Ok(hops), used)
}

/// What `extract_auto` and `discover_hops` returned, from one walk.
type HopFinders = (
    Result<(Vec<bool>, ExtractionSpec), String>,
    Result<Vec<attacks::ObservedHop>, SimError>,
);

/// `extract_auto`'s chain selection and `discover_hops`' hop list over
/// the reference walk.
fn ref_hop_finders(image: &Image, input: &[u32], budget: u64) -> Used<HopFinders> {
    let (walk, used) = ref_mis_returns(image, input, budget);
    let walk = match walk {
        Ok(walk) => walk,
        Err(e) => return ((err_text(Err(e.clone().into())), Err(e)), used),
    };
    let hops: Vec<(u32, u32)> = walk
        .iter()
        .map(|&(expected, _, landing)| (expected - 5, landing))
        .collect();
    let mut best: Option<(usize, usize)> = None;
    let mut start = 0usize;
    while start < hops.len() {
        let mut end = start;
        while end + 1 < hops.len() && hops[end].1 == hops[end + 1].0 {
            end += 1;
        }
        if end > start && best.is_none_or(|(s, e)| end - start > e - s) {
            best = Some((start, end));
        }
        start = end + 1;
    }
    let auto = match best {
        Some((start, end)) => Ok((
            hops[start..end].iter().map(|&(a, b)| b > a).collect(),
            ExtractionSpec {
                begin: hops[start].0,
                end: hops[end].1,
            },
        )),
        None => Err(WatermarkError::NoBranchFunction),
    };
    let observed = walk
        .iter()
        .map(|&(_, call_site, landing)| attacks::ObservedHop { call_site, landing })
        .collect();
    ((err_text(auto), Ok(observed)), used)
}

/// Compares a shipped function with its reference at `budget` and,
/// when the reference ended before it, at the budget the reference used
/// and at one fewer.
fn at_budgets<S: Debug, R: Debug>(
    what: &str,
    budget: u64,
    shipped: impl Fn(u64) -> S,
    reference: impl Fn(u64) -> Used<R>,
    same: impl Fn(&S, &R) -> bool,
) {
    let check = |b: u64, want: &R| {
        let got = shipped(b);
        if !same(&got, want) {
            let show = |v: String| v.chars().take(400).collect::<String>();
            panic!(
                "{what} at budget {b}: shipped {} but reference {}",
                show(format!("{got:?}")),
                show(format!("{want:?}"))
            );
        }
    };
    let (want, used) = reference(budget);
    check(budget, &want);
    if used < budget {
        check(used, &want);
        check(used - 1, &reference(used - 1).0);
    }
}

/// `WatermarkError` has no `PartialEq`; its `Debug` form names the
/// variant and every field.
fn err_text<T>(result: Result<T, WatermarkError>) -> Result<T, String> {
    result.map_err(|e| format!("{e:?}"))
}

/// Every profile query a caller can make: each text address (executed
/// or not) and each address the reference saw execute.
fn same_profile(
    image: &Image,
    shipped: &Result<Profile, String>,
    reference: &Result<RefProfile, String>,
) -> bool {
    match (shipped, reference) {
        (Ok(p), Ok((counts, first, total))) => {
            let text = (0..image.text.len() as u32).map(|off| image.text_base + off);
            p.total == *total
                && text.chain(counts.keys().copied()).all(|addr| {
                    p.count(addr) == counts.get(&addr).copied().unwrap_or(0)
                        && p.first(addr) == first.get(&addr).copied()
                })
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Runs every comparison on one copy.
fn check_copy(what: &str, image: &Image, input: &[u32], spec: ExtractionSpec, budget: u64) {
    fn eq<T: PartialEq>(a: &T, b: &T) -> bool {
        a == b
    }
    at_budgets(
        &format!("{what}: run"),
        budget,
        |b| Machine::load(image).with_input(input.to_vec()).run(b),
        |b| ref_run(image, input, b),
        eq,
    );
    at_budgets(
        &format!("{what}: profile_image"),
        budget,
        |b| err_text(profile_image(image, input, b)),
        |b| {
            let (result, used) = ref_profile(image, input, b);
            (err_text(result), used)
        },
        |got, want| same_profile(image, got, want),
    );
    for tracer in [TracerKind::Simple, TracerKind::Smart] {
        at_budgets(
            &format!("{what}: extract {tracer:?}"),
            budget,
            |b| err_text(extract(image, input, spec, tracer, b)),
            |b| {
                let (result, used) = ref_extract(image, input, spec, tracer, b);
                (err_text(result), used)
            },
            eq,
        );
    }
    at_budgets(
        &format!("{what}: extract_auto and discover_hops"),
        budget,
        |b| {
            (
                err_text(extract_auto(image, input, b)),
                attacks::discover_hops(image, input, b),
            )
        },
        |b| ref_hop_finders(image, input, b),
        eq,
    );
}

/// Debug builds, which tier-1 `cargo test` makes, step several times
/// slower than release and check only these two workloads; the release
/// build of the native stepping gate in `scripts/ci.sh` checks all ten.
const DEBUG_WORKLOADS: [&str; 2] = ["parser", "vpr"];

#[test]
fn stepping_loop_matches_the_reference_loops_on_every_workload() {
    let mut rng = Prng::from_seed(0x57E9);
    let workloads = workloads::all()
        .into_iter()
        .filter(|w| !cfg!(debug_assertions) || DEBUG_WORKLOADS.contains(&w.name));
    for w in workloads {
        let key = WatermarkKey::new(
            rng.next_u64(),
            w.training_input.iter().map(|&v| i64::from(v)).collect(),
        );
        let config = NativeConfig {
            training_inputs: vec![w.reference_input.clone()],
            ..NativeConfig::default()
        };
        let bits = Watermark::random(64, &mut rng).to_bits();
        let mark = embed_native(&w.image, &bits, &key, &config)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let spec = ExtractionSpec {
            begin: mark.begin,
            end: mark.end,
        };
        let input = key.native_input();
        let marked_steps = Machine::load(&mark.image)
            .with_input(input.clone())
            .run(config.budget)
            .expect("the marked copy runs on the key input")
            .instructions;
        // Attacked copies may spin forever; four times the marked copy's
        // steps covers every copy that terminates.
        let budget = 4 * marked_steps;

        let hops = attacks::discover_hops(&mark.image, &input, budget).expect("attacker traces");
        let sites: Vec<u32> = hops.iter().map(|h| h.call_site).collect();
        let attacker_key = WatermarkKey::new(rng.next_u64(), key.input.clone());
        let second_bits = Watermark::random(64, &mut rng).to_bits();
        let copies = [
            ("host", w.image.clone()),
            ("marked", mark.image.clone()),
            (
                "one nop",
                attacks::insert_nops(&mark.image, 1, rng.next_u64()).expect("rewrites"),
            ),
            (
                "branch sense inversion",
                attacks::invert_branch_senses(&mark.image, rng.next_u64()).expect("rewrites"),
            ),
            (
                "double watermarking",
                attacks::double_watermark(&mark.image, &second_bits, &attacker_key, &config)
                    .expect("embeds again"),
            ),
            (
                "bypass",
                attacks::bypass_branch_function(&mark.image, &hops).expect("patches"),
            ),
            (
                "reroute",
                attacks::reroute_calls(&mark.image, &sites).expect("patches"),
            ),
        ];
        for (attack, image) in copies {
            check_copy(
                &format!("{} / {attack}", w.name),
                &image,
                &input,
                spec,
                budget,
            );
        }
    }
}
