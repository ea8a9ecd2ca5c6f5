//! End-to-end integration tests for the bytecode watermarking pipeline:
//! workloads × watermark sizes × attacks, spanning `pathmark-core`,
//! `pathmark-workloads`, `pathmark-attacks`, and `stackvm`.

use pathmark::attacks::java as attacks;
use pathmark::core::java::{CodegenPolicy, Embedder, JavaConfig, Recognizer};
use pathmark::core::key::{Watermark, WatermarkKey};
use pathmark::vm::interp::Vm;
use pathmark::vm::Program;
use pathmark::workloads::java as workloads;

/// A named in-place program transformation from the attack suite.
type BoxedAttack = Box<dyn Fn(&mut Program)>;

fn key_for(input: Vec<i64>) -> WatermarkKey {
    WatermarkKey::new(0x0123_4567_89AB, input)
}

fn embedder(key: &WatermarkKey, config: &JavaConfig) -> Embedder {
    Embedder::builder(key.clone(), config.clone())
        .build()
        .expect("test key/config are sound")
}

fn recognizer(key: &WatermarkKey, config: &JavaConfig) -> Recognizer {
    Recognizer::builder(key.clone(), config.clone())
        .build()
        .expect("test key/config are sound")
}

fn output_of(program: &Program, input: &[i64]) -> Vec<i64> {
    Vm::new(program)
        .with_input(input.to_vec())
        .run()
        .expect("program runs")
        .output
}

#[test]
fn paper_watermark_sizes_round_trip_on_both_workloads() {
    // The paper evaluates 128-, 256- and 512-bit watermarks (Sec 5.1.1).
    for workload in workloads::all() {
        for bits in [128usize, 256, 512] {
            let key = key_for(workload.secret_input.clone());
            let config = JavaConfig::for_watermark_bits(bits).with_pieces(80);
            let watermark = Watermark::random_for(&config, &key);
            let marked = embedder(&key, &config).embed(&workload.program, &watermark)
                .unwrap_or_else(|e| panic!("{} {bits}: {e}", workload.name));
            assert_eq!(
                output_of(&workload.program, &workload.secret_input),
                output_of(&marked.program, &workload.secret_input),
                "{} {bits}: semantics",
                workload.name
            );
            let rec = recognizer(&key, &config).recognize(&marked.program).expect("recognizes");
            assert_eq!(
                rec.watermark.as_ref(),
                Some(watermark.value()),
                "{} {bits}-bit round trip",
                workload.name
            );
        }
    }
}

#[test]
fn watermark_survives_the_distortive_suite() {
    let workload = workloads::jess_like();
    let key = key_for(vec![40]);
    let config = JavaConfig::for_watermark_bits(128).with_pieces(60);
    let watermark = Watermark::random_for(&config, &key);
    let marked = embedder(&key, &config).embed(&workload, &watermark).unwrap();
    let expected = output_of(&workload, &[40]);

    let suite: Vec<(&str, BoxedAttack)> = vec![
        ("nops", Box::new(|p: &mut Program| attacks::insert_nops(p, 400, 1))),
        (
            "inversion",
            Box::new(|p: &mut Program| attacks::invert_branch_senses(p, 1.0, 2)),
        ),
        ("reorder", Box::new(|p: &mut Program| attacks::reorder_blocks(p, 3))),
        ("split", Box::new(|p: &mut Program| attacks::split_blocks(p, 150, 4))),
        (
            "copy",
            Box::new(|p: &mut Program| {
                attacks::copy_blocks(p, 30, 5);
            }),
        ),
        (
            "light branch insertion",
            Box::new(|p: &mut Program| attacks::insert_random_branches(p, 40, 6)),
        ),
    ];
    for (name, attack) in suite {
        let mut attacked = marked.program.clone();
        attack(&mut attacked);
        assert_eq!(output_of(&attacked, &[40]), expected, "{name}: semantics");
        let rec = recognizer(&key, &config).recognize(&attacked).expect("recognizes");
        assert_eq!(
            rec.watermark.as_ref(),
            Some(watermark.value()),
            "{name}: watermark must survive"
        );
    }
}

#[test]
fn massive_branch_insertion_eventually_destroys_the_mark() {
    // Figure 8(c)'s other end: with enough random branches, pieces are
    // corrupted faster than redundancy can compensate. Few pieces +
    // overwhelming insertion = destruction.
    let workload = workloads::caffeinemark();
    let key = key_for(vec![6]);
    let config = JavaConfig::for_watermark_bits(512).with_pieces(4);
    let watermark = Watermark::random_for(&config, &key);
    let marked = embedder(&key, &config).embed(&workload, &watermark).unwrap();
    let mut attacked = marked.program.clone();
    let branches = attacked.conditional_branch_count();
    attacks::insert_random_branches(&mut attacked, branches * 12, 9);
    let rec = recognizer(&key, &config).recognize(&attacked).expect("recognition still runs");
    assert_ne!(
        rec.watermark.as_ref(),
        Some(watermark.value()),
        "4 pieces cannot survive a 1200% branch flood"
    );
}

#[test]
fn redundancy_beats_the_same_flood() {
    // Same flood as above, but with heavy piece redundancy: Figure 8(c)
    // says survivable insertion grows with the piece count. 128 pieces
    // is the most `validate()` allows for a 128-bit mark.
    let config = JavaConfig::for_watermark_bits(128).with_pieces(128);
    let workload = workloads::jess_like();
    let key = key_for(vec![40]);
    let watermark = Watermark::random_for(&config, &key);
    let marked = embedder(&key, &config).embed(&workload, &watermark).unwrap();
    let mut attacked = marked.program.clone();
    attacks::insert_random_branches(&mut attacked, 60, 9);
    let rec = recognizer(&key, &config).recognize(&attacked).expect("recognizes");
    assert_eq!(rec.watermark.as_ref(), Some(watermark.value()));
}

#[test]
fn class_encryption_denies_static_recognition_but_not_runtime_tracing() {
    let workload = workloads::caffeinemark();
    let key = key_for(vec![6]);
    let config = JavaConfig::for_watermark_bits(128).with_pieces(30);
    let watermark = Watermark::random_for(&config, &key);
    let marked = embedder(&key, &config).embed(&workload, &watermark).unwrap();

    let encrypted = attacks::EncryptedProgram::encrypt(&marked.program, 0x1CE);
    // Semantics preserved.
    assert_eq!(
        encrypted.run(vec![6]).unwrap().output,
        output_of(&workload, &[6])
    );
    // Static instrumentation sees only the stub: no mark.
    let stub_rec = recognizer(&key, &config).recognize(encrypted.stub()).unwrap();
    assert_eq!(stub_rec.watermark, None);
    // Runtime-level tracing sees the decrypted bytecode: mark intact.
    let runtime = encrypted.decrypt_for_runtime_tracing().unwrap();
    let rec = recognizer(&key, &config).recognize(&runtime).unwrap();
    assert_eq!(rec.watermark.as_ref(), Some(watermark.value()));
}

#[test]
fn cold_spot_insertion_prefers_infrequent_blocks() {
    // The Jess-like workload has hot loop blocks and many cold ones; the
    // frequency-weighted embedder must overwhelmingly choose cold sites.
    use pathmark::vm::trace::TraceConfig;
    let workload = workloads::jess_like();
    let key = key_for(vec![40]);
    let config = JavaConfig::for_watermark_bits(128).with_pieces(60);
    let watermark = Watermark::random_for(&config, &key);
    let marked = embedder(&key, &config).embed(&workload, &watermark).unwrap();
    let trace = Vm::new(&workload)
        .with_input(vec![40])
        .with_trace(TraceConfig::full())
        .run()
        .unwrap()
        .trace;
    let freq = trace.block_frequencies();
    // "Infrequent" per the embedder's own policy: the loop generator
    // prefers once-visited blocks; the condition generator needs 2..=16
    // visits. Hot blocks (hundreds+ of visits) must be avoided.
    let cold = marked
        .report
        .pieces
        .iter()
        .filter(|p| freq.get(&p.site).copied().unwrap_or(0) <= 16)
        .count();
    assert!(
        cold * 10 >= marked.report.pieces.len() * 9,
        "at least 90% of pieces in infrequent blocks ({cold}/{})",
        marked.report.pieces.len()
    );
}

#[test]
fn marked_program_works_on_unrelated_inputs() {
    // The watermark key input is secret; customers run other inputs.
    let workload = workloads::caffeinemark();
    let key = key_for(vec![6]);
    let config = JavaConfig::for_watermark_bits(256).with_pieces(50);
    let watermark = Watermark::random_for(&config, &key);
    let marked = embedder(&key, &config).embed(&workload.clone(), &watermark).unwrap();
    for input in [vec![], vec![1], vec![9], vec![17]] {
        assert_eq!(
            output_of(&workload, &input),
            output_of(&marked.program, &input),
            "input {input:?}"
        );
    }
}

#[test]
fn loop_only_and_condition_codegen_both_round_trip_on_workloads() {
    let workload = workloads::jess_like();
    for policy in [CodegenPolicy::LoopOnly, CodegenPolicy::PreferCondition] {
        let key = key_for(vec![40]);
        let config = JavaConfig::for_watermark_bits(128)
            .with_pieces(40)
            .with_codegen(policy);
        let watermark = Watermark::random_for(&config, &key);
        let marked = embedder(&key, &config).embed(&workload, &watermark).unwrap();
        let rec = recognizer(&key, &config).recognize(&marked.program).unwrap();
        assert_eq!(
            rec.watermark.as_ref(),
            Some(watermark.value()),
            "{policy:?}"
        );
    }
}

#[test]
fn double_java_watermarking_keeps_the_first_mark_readable() {
    // An additive attack: embed a second watermark under a different
    // key. Both marks coexist (the paper: "no protection against
    // additive attacks" — but the original remains readable, so
    // ownership disputes devolve to key escrow, as usual).
    let workload = workloads::jess_like();
    let key1 = key_for(vec![40]);
    let key2 = WatermarkKey::new(0xFFFF_0000_1111, vec![40]);
    let config = JavaConfig::for_watermark_bits(128).with_pieces(40);
    let w1 = Watermark::random_for(&config, &key1);
    let w2 = Watermark::random_for(&config, &key2);
    let once = embedder(&key1, &config).embed(&workload, &w1).unwrap();
    let twice = embedder(&key2, &config).embed(&once.program, &w2).unwrap();
    let rec1 = recognizer(&key1, &config).recognize(&twice.program).unwrap();
    let rec2 = recognizer(&key2, &config).recognize(&twice.program).unwrap();
    assert_eq!(rec1.watermark.as_ref(), Some(w1.value()));
    assert_eq!(rec2.watermark.as_ref(), Some(w2.value()));
}

/// `copy_blocks` with its former candidate scan, which walks the whole
/// function once per block looking for a branch to it. The reference the
/// one-pass scan must reproduce draw for draw.
fn copy_blocks_per_block_scan(program: &mut Program, count: usize, seed: u64) -> usize {
    use pathmark::crypto::Prng;
    use pathmark::vm::cfg::Cfg;
    use pathmark::vm::insn::Insn;

    let mut rng = Prng::from_seed(seed ^ 0x00C0_B1E5);
    let mut made = 0;
    for _ in 0..count {
        let func_idx = rng.index(program.functions.len());
        let func = &mut program.functions[func_idx];
        let cfg = Cfg::build(func);
        let candidates: Vec<usize> = (0..cfg.len())
            .filter(|&b| {
                let block = &cfg.blocks[b];
                block.start > 0
                    && func.code[block.end - 1].is_terminator()
                    && func
                        .code
                        .iter()
                        .any(|i| i.targets().contains(&block.start))
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let b = candidates[rng.index(candidates.len())];
        let block = cfg.blocks[b].clone();
        let copy_start = func.code.len();
        let copied: Vec<Insn> = func.code[block.start..block.end].to_vec();
        func.code.extend(copied);
        let refs: Vec<usize> = (0..copy_start)
            .filter(|&pc| func.code[pc].targets().contains(&block.start))
            .collect();
        let chosen = refs[rng.index(refs.len())];
        func.code[chosen].map_targets(|t| if t == block.start { copy_start } else { t });
        made += 1;
    }
    made
}

#[test]
fn copy_blocks_matches_the_per_block_scan_on_split_marked_hosts() {
    use pathmark::vm::codec::encode_program;

    let config = JavaConfig::for_watermark_bits(64).with_pieces(12);
    for workload in workloads::all() {
        let key = key_for(workload.secret_input.clone());
        let watermark = Watermark::random_for(&config, &key);
        let marked = embedder(&key, &config)
            .embed(&workload.program, &watermark)
            .unwrap()
            .program;
        for seed in 0..4u64 {
            let mut split = marked.clone();
            attacks::split_blocks(&mut split, 100, seed);
            let mut reference = split.clone();
            let made = attacks::copy_blocks(&mut split, 30, seed ^ 1);
            let expected = copy_blocks_per_block_scan(&mut reference, 30, seed ^ 1);
            assert_eq!(made, expected, "{}, seed {seed}: copies made", workload.name);
            assert_eq!(
                encode_program(&split),
                encode_program(&reference),
                "{}, seed {seed}: attacked bytes",
                workload.name
            );
        }
    }
}
