//! The attack-resilience matrices of Sections 5.1.2 and 5.2.2 (the
//! paper reports these in prose; we render them as tables).

use pathmark_attacks::{java as jattacks, native as nattacks};
use pathmark_core::java::{Embedder, JavaConfig, Recognizer};
use pathmark_core::key::{Watermark, WatermarkKey};
use pathmark_core::native::{
    embed_native, extract, ExtractionSpec, NativeConfig, TracerKind,
};
use pathmark_crypto::Prng;
use pathmark_workloads::{java as jworkloads, native as nworkloads};
use nativesim::cpu::Machine;
use nativesim::Image;
use stackvm::interp::Vm;
use stackvm::Program;
use std::fmt::Write as _;

use crate::setup;

/// A named in-place program transformation from the attack suite.
type BoxedAttack = Box<dyn Fn(&mut Program)>;

/// One row of the bytecode attack matrix.
#[derive(Debug, Clone)]
pub struct JavaRow {
    /// Attack name.
    pub attack: &'static str,
    /// Does the attacked program still behave correctly?
    pub program_runs: bool,
    /// Is the watermark still recognized?
    pub mark_survives: bool,
}

/// Section 5.1.2: the distortive attack suite against a 256-bit mark in
/// the Jess-like workload.
pub fn java_matrix(quick: bool) -> Vec<JavaRow> {
    let input = vec![if quick { 400 } else { setup::JESS_INPUT / 4 }];
    let key = setup::key(input.clone());
    let config = JavaConfig::for_watermark_bits(256).with_pieces(80);
    let watermark = Watermark::random_for(&config, &key);
    let program = jworkloads::jess_like();
    let recognizer = Recognizer::builder(key.clone(), config.clone())
        .build()
        .expect("builds");
    let marked = Embedder::builder(key.clone(), config.clone())
        .build()
        .expect("builds")
        .embed(&program, &watermark)
        .expect("embeds")
        .program;
    let expected = Vm::new(&program)
        .with_input(input.clone())
        .run()
        .expect("runs")
        .output;

    let attacks: Vec<(&'static str, BoxedAttack)> = vec![
        ("none", Box::new(|_: &mut Program| {})),
        ("no-op insertion x500", Box::new(|p: &mut Program| jattacks::insert_nops(p, 500, 1))),
        (
            "branch sense inversion",
            Box::new(|p: &mut Program| jattacks::invert_branch_senses(p, 1.0, 2)),
        ),
        ("block reordering", Box::new(|p: &mut Program| jattacks::reorder_blocks(p, 3))),
        ("block splitting x200", Box::new(|p: &mut Program| jattacks::split_blocks(p, 200, 4))),
        (
            "block copying x50",
            Box::new(|p: &mut Program| {
                jattacks::copy_blocks(p, 50, 5);
            }),
        ),
        (
            "method merging",
            Box::new(|p: &mut Program| {
                jattacks::merge_methods(p, 31);
            }),
        ),
        (
            "method splitting",
            Box::new(|p: &mut Program| {
                jattacks::split_method(p, 32);
            }),
        ),
        (
            "branch insertion 50%",
            Box::new(|p: &mut Program| {
                let n = p.conditional_branch_count() / 2;
                jattacks::insert_random_branches(p, n, 6)
            }),
        ),
        (
            "branch insertion 600%",
            Box::new(|p: &mut Program| {
                let n = p.conditional_branch_count() * 6;
                jattacks::insert_random_branches(p, n, 7)
            }),
        ),
        (
            "stacked (all of the above)",
            Box::new(|p: &mut Program| {
                jattacks::insert_nops(p, 300, 8);
                jattacks::invert_branch_senses(p, 0.5, 9);
                jattacks::reorder_blocks(p, 10);
                jattacks::split_blocks(p, 80, 11);
            }),
        ),
    ];
    let mut rows = Vec::new();
    for (name, attack) in attacks {
        let mut attacked = marked.clone();
        attack(&mut attacked);
        let program_runs = Vm::new(&attacked)
            .with_input(input.clone())
            .with_budget(2_000_000_000)
            .run()
            .map(|o| o.output == expected)
            .unwrap_or(false);
        let mark_survives = recognizer
            .recognize(&attacked)
            .map(|r| r.watermark.as_ref() == Some(watermark.value()))
            .unwrap_or(false);
        rows.push(JavaRow {
            attack: name,
            program_runs,
            mark_survives,
        });
    }
    // Class encryption, with its runtime-tracing counter.
    let encrypted = jattacks::EncryptedProgram::encrypt(&marked, 0x1CE);
    rows.push(JavaRow {
        attack: "class encryption (static recognizer)",
        program_runs: encrypted
            .run(input.clone())
            .map(|o| o.output == expected)
            .unwrap_or(false),
        mark_survives: recognizer
            .recognize(encrypted.stub())
            .map(|r| r.watermark.as_ref() == Some(watermark.value()))
            .unwrap_or(false),
    });
    rows.push(JavaRow {
        attack: "class encryption (runtime tracing)",
        program_runs: true,
        mark_survives: encrypted
            .decrypt_for_runtime_tracing()
            .and_then(|p| recognizer.recognize(&p).ok())
            .map(|r| r.watermark.as_ref() == Some(watermark.value()))
            .unwrap_or(false),
    });
    rows
}

/// One row of the native attack matrix.
#[derive(Debug, Clone)]
pub struct NativeRow {
    /// Attack name.
    pub attack: &'static str,
    /// Does the attacked binary still behave correctly?
    pub program_runs: bool,
    /// Does the simple tracer recover the mark?
    pub simple_recovers: bool,
    /// Does the smart tracer recover the mark?
    pub smart_recovers: bool,
}

/// Each attacked native copy runs, and is traced, under this many times
/// the steps the unattacked marked copy takes on the same input. A
/// working copy needs about 1×: rerouting adds one thunk jump per hop.
/// A copy that exhausts it reports "does not run" or "does not recover",
/// as a copy that never terminates (double watermarking spins) would
/// under any budget.
pub const ATTACKED_BUDGET_FACTOR: u64 = 2;

/// Section 5.2.2: the five native attacks against a 64-bit mark in the
/// parser-like program.
pub fn native_matrix(_quick: bool) -> Vec<NativeRow> {
    /// Budget of the runs that must terminate: the host's and the
    /// unattacked marked copy's.
    const BUDGET: u64 = 500_000_000;
    let w = nworkloads::by_name("parser").expect("parser exists");
    let key = WatermarkKey::new(
        0x7AB1E,
        w.training_input.iter().map(|&v| v as i64).collect(),
    );
    let config = NativeConfig {
        training_inputs: vec![w.reference_input.clone()],
        ..NativeConfig::default()
    };
    let mut rng = Prng::from_seed(0x64);
    let watermark = Watermark::random(64, &mut rng);
    let mark = embed_native(&w.image, &watermark.to_bits(), &key, &config).expect("embeds");
    let spec = ExtractionSpec {
        begin: mark.begin,
        end: mark.end,
    };
    let baseline = Machine::load(&w.image)
        .with_input(w.reference_input.clone())
        .run(BUDGET)
        .expect("baseline runs")
        .output;
    let marked_steps = |input: &[u32]| {
        Machine::load(&mark.image)
            .with_input(input.to_vec())
            .run(BUDGET)
            .expect("the marked copy runs")
            .instructions
    };
    let run_budget = ATTACKED_BUDGET_FACTOR * marked_steps(&w.reference_input);
    let extract_budget = ATTACKED_BUDGET_FACTOR * marked_steps(&key.native_input());
    let hops = nattacks::discover_hops(&mark.image, &key.native_input(), BUDGET)
        .expect("attacker traces");
    let sites: Vec<u32> = hops.iter().map(|h| h.call_site).collect();

    let attacker_key = WatermarkKey::new(
        0xE71,
        w.training_input.iter().map(|&v| v as i64).collect(),
    );
    let mut rng2 = Prng::from_seed(2);
    let second_bits: Vec<bool> = (0..64).map(|_| rng2.chance(0.5)).collect();

    let attacked: Vec<(&'static str, Option<Image>)> = vec![
        ("none", Some(mark.image.clone())),
        (
            "no-op insertion (one nop)",
            nattacks::insert_nops(&mark.image, 1, 5).ok(),
        ),
        (
            "branch sense inversion",
            nattacks::invert_branch_senses(&mark.image, 6).ok(),
        ),
        (
            "double watermarking",
            nattacks::double_watermark(&mark.image, &second_bits, &attacker_key, &config).ok(),
        ),
        (
            "bypass branch function",
            nattacks::bypass_branch_function(&mark.image, &hops).ok(),
        ),
        (
            "reroute via thunks",
            nattacks::reroute_calls(&mark.image, &sites).ok(),
        ),
    ];
    let mut rows = Vec::new();
    for (name, image) in attacked {
        let Some(image) = image else {
            rows.push(NativeRow {
                attack: name,
                program_runs: false,
                simple_recovers: false,
                smart_recovers: false,
            });
            continue;
        };
        let program_runs = Machine::load(&image)
            .with_input(w.reference_input.clone())
            .run(run_budget)
            .map(|o| o.output == baseline)
            .unwrap_or(false);
        let recovers = |tracer| {
            extract(&image, &key.native_input(), spec, tracer, extract_budget)
                .map(|bits| Watermark::from_bits(&bits).value() == watermark.value())
                .unwrap_or(false)
        };
        rows.push(NativeRow {
            attack: name,
            program_runs,
            simple_recovers: recovers(TracerKind::Simple),
            smart_recovers: recovers(TracerKind::Smart),
        });
    }
    rows
}

/// One row of the related-work comparison.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Attack name.
    pub attack: &'static str,
    /// Does the path-based watermark survive?
    pub path_based: bool,
    /// Does the Davidson–Myhrvold block-order watermark survive?
    pub davidson_myhrvold: bool,
    /// Does the Stern et al. frequency watermark survive?
    pub stern: bool,
}

/// Section 6 made measurable: the same distortive attacks against the
/// path-based watermark and the two baseline schemes the paper compares
/// against (block-order and instruction-frequency watermarks).
pub fn comparison_matrix(quick: bool) -> Vec<ComparisonRow> {
    use pathmark_core::baseline::{davidson_myhrvold as dm, stern_frequency as stern};

    let input = vec![if quick { 400 } else { 2000 }];
    let key = setup::key(input.clone());
    let config = JavaConfig::for_watermark_bits(128).with_pieces(50);
    let watermark = Watermark::random_for(&config, &key);
    let original = jworkloads::jess_like();

    // Embed all three schemes into the same subject.
    let recognizer = Recognizer::builder(key.clone(), config.clone())
        .build()
        .expect("builds");
    let mut marked = Embedder::builder(key.clone(), config)
        .build()
        .expect("builds")
        .embed(&original, &watermark)
        .expect("path-based embeds")
        .program;
    // DM gets the block-richest non-entry function (the Stern chips go
    // into `main`; keeping the schemes in separate functions isolates
    // their failures).
    let dm_func = marked
        .iter_functions()
        .filter(|&(id, f)| id != marked.entry && dm::blocks_distinct(f))
        .map(|(id, f)| (id, stackvm::cfg::Cfg::build(f).len()))
        .filter(|&(_, n)| n >= 3)
        .max_by_key(|&(_, n)| n)
        .map(|(id, _)| id)
        .expect("a reorderable non-entry function exists");
    let dm_value = pathmark_math::bigint::BigUint::from(41u64);
    // DM recognition is informed: keep the pre-DM program as its
    // reference.
    let dm_reference = marked.clone();
    dm::embed(&mut marked, dm_func, &dm_value).expect("DM embeds");
    let stern_reference = marked.clone();
    let stern_chips = [true, false, true, true];
    stern::embed(&mut marked, stern_chips, 16);

    let attacks: Vec<(&'static str, BoxedAttack)> = vec![
        ("none", Box::new(|_: &mut Program| {})),
        (
            "no-op insertion x300",
            Box::new(|p: &mut Program| jattacks::insert_nops(p, 300, 21)),
        ),
        (
            "block reordering",
            Box::new(|p: &mut Program| jattacks::reorder_blocks(p, 22)),
        ),
        (
            "redundant instructions",
            Box::new(|p: &mut Program| {
                // Flood the program with dead arithmetic over every
                // carrier opcode (the attack Section 6 describes against
                // frequency-based marks), plus bogus branches.
                let entry = p.entry;
                let f = p.function_mut(entry);
                let scratch = stackvm::edit::reserve_locals(f, 1)
                    .expect("the entry function has a free local");
                let mut flood = Vec::new();
                for _ in 0..64 {
                    for op in pathmark_core::baseline::stern_frequency::CARRIERS {
                        flood.push(stackvm::insn::Insn::Load(scratch));
                        flood.push(stackvm::insn::Insn::Const(0));
                        flood.push(stackvm::insn::Insn::Bin(op));
                        flood.push(stackvm::insn::Insn::Store(scratch));
                    }
                }
                stackvm::edit::insert_snippet(f, 0, flood);
                let n = p.conditional_branch_count() / 4;
                jattacks::insert_random_branches(p, n.max(200), 23)
            }),
        ),
        (
            "branch sense inversion",
            Box::new(|p: &mut Program| jattacks::invert_branch_senses(p, 1.0, 24)),
        ),
    ];
    let mut rows = Vec::new();
    for (name, attack) in attacks {
        let mut attacked = marked.clone();
        attack(&mut attacked);
        let path_based = recognizer
            .recognize(&attacked)
            .map(|r| r.watermark.as_ref() == Some(watermark.value()))
            .unwrap_or(false);
        let davidson_myhrvold =
            dm::recognize(&dm_reference, &attacked, dm_func) == Some(dm_value.clone());
        let stern_ok = stern::recognize(&stern_reference, &attacked, 16) == stern_chips;
        rows.push(ComparisonRow {
            attack: name,
            path_based,
            davidson_myhrvold,
            stern: stern_ok,
        });
    }
    rows
}

/// Renders both matrices.
pub fn run(quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Section 5.1.2: bytecode attack matrix (jess, 256-bit watermark)\n"
    );
    let _ = writeln!(out, "{:<38} {:>6} {:>10}", "attack", "runs?", "mark?");
    for row in java_matrix(quick) {
        let _ = writeln!(
            out,
            "{:<38} {:>6} {:>10}",
            row.attack,
            if row.program_runs { "yes" } else { "NO" },
            if row.mark_survives { "survives" } else { "lost" }
        );
    }
    let _ = writeln!(
        out,
        "\nSection 5.2.2: native attack matrix (parser, 64-bit watermark)\n"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>6} {:>8} {:>8}",
        "attack", "runs?", "simple", "smart"
    );
    for row in native_matrix(quick) {
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>8} {:>8}",
            row.attack,
            if row.program_runs { "yes" } else { "NO" },
            if row.simple_recovers { "yes" } else { "no" },
            if row.smart_recovers { "yes" } else { "no" }
        );
    }
    let _ = writeln!(
        out,
        "\nSection 6 comparison: path-based vs baseline schemes (jess)\n"
    );
    let _ = writeln!(
        out,
        "{:<26} {:>11} {:>14} {:>8}",
        "attack", "path-based", "block-order", "stern"
    );
    for row in comparison_matrix(quick) {
        let mark = |b: bool| if b { "survives" } else { "LOST" };
        let _ = writeln!(
            out,
            "{:<26} {:>11} {:>14} {:>8}",
            row.attack,
            mark(row.path_based),
            mark(row.davidson_myhrvold),
            mark(row.stern)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_matrix_matches_the_paper() {
        let rows = native_matrix(true);
        let by_name = |n: &str| rows.iter().find(|r| r.attack == n).unwrap();
        // Unattacked: everything works.
        let none = by_name("none");
        assert!(none.program_runs && none.simple_recovers && none.smart_recovers);
        // Attacks 1-4 break the program.
        for n in [
            "no-op insertion (one nop)",
            "branch sense inversion",
            "double watermarking",
            "bypass branch function",
        ] {
            assert!(!by_name(n).program_runs, "{n} must break the program");
        }
        // Attack 5: program runs; simple fails; smart recovers.
        let reroute = by_name("reroute via thunks");
        assert!(reroute.program_runs);
        assert!(!reroute.simple_recovers);
        assert!(reroute.smart_recovers);
    }

    #[test]
    fn comparison_shows_path_based_outlasting_baselines() {
        let rows = comparison_matrix(true);
        let by_name = |n: &str| rows.iter().find(|r| r.attack == n).unwrap();
        // Sanity: all three schemes readable when unattacked.
        let none = by_name("none");
        assert!(none.path_based && none.davidson_myhrvold && none.stern);
        // Block reordering kills the block-order mark, not path-based.
        let reorder = by_name("block reordering");
        assert!(reorder.path_based && !reorder.davidson_myhrvold);
        // Redundant-instruction insertion kills the frequency mark, not
        // path-based.
        let redundant = by_name("redundant instructions");
        assert!(redundant.path_based && !redundant.stern);
    }

    #[test]
    fn java_matrix_matches_the_paper() {
        let rows = java_matrix(true);
        let by_name = |n: &str| rows.iter().find(|r| r.attack == n).unwrap();
        // Every attack preserves program behavior (they are
        // semantics-preserving transformations).
        for row in &rows {
            if row.attack != "class encryption (runtime tracing)" {
                assert!(row.program_runs, "{} must preserve semantics", row.attack);
            }
        }
        // Only overwhelming branch insertion and class encryption kill
        // the mark.
        assert!(by_name("none").mark_survives);
        assert!(by_name("branch sense inversion").mark_survives);
        assert!(by_name("block reordering").mark_survives);
        assert!(by_name("branch insertion 50%").mark_survives);
        assert!(!by_name("class encryption (static recognizer)").mark_survives);
        assert!(by_name("class encryption (runtime tracing)").mark_survives);
    }
}
