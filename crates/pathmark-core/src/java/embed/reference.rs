//! The per-piece embedding path, kept as a test-only reference for the
//! one-pass embedder: it rebuilds the visited-block table from the trace
//! for every copy, rescans the whole trace for each condition piece's
//! snapshots, and splices each piece into the function with its own
//! [`insert_snippet`] call, in descending (function, pc) order. The
//! snippet generators are shared; the tests below check that both paths
//! produce the same marked program and report, byte for byte.

use pathmark_math::crt::Statement;
use stackvm::edit::{insert_snippet, reserve_locals};
use stackvm::insn::Insn;
use stackvm::trace::{Site, Trace};
use stackvm::Program;

use super::{
    condition_snippet, loop_snippet, pick_live_local, EmbedReport, MarkedProgram, PieceRecord,
};
use crate::java::{CodegenPolicy, Embedder};
use crate::key::Watermark;
use crate::WatermarkError;

/// [`Embedder::embed_with_trace`] as it was before the one-pass rewrite.
pub(super) fn embed_per_piece(
    session: &Embedder,
    program: &Program,
    watermark: &Watermark,
    trace: &Trace,
) -> Result<MarkedProgram, WatermarkError> {
    let (key, config) = (session.key(), session.config());
    let crypto = session.crypto()?;
    let (enumeration, cipher) = (&crypto.enumeration, &crypto.cipher);
    let bound = enumeration.watermark_bound();
    if watermark.value() >= &bound {
        return Err(WatermarkError::WatermarkTooLarge {
            got_bits: watermark.value().bits(),
            max_bits: bound.bits() - 1,
        });
    }
    let mut rng = key.prng();
    let pieces: Vec<Statement> = {
        let mut statements = enumeration.split(watermark.value());
        rng.shuffle(&mut statements);
        statements
            .iter()
            .cycle()
            .take(config.num_pieces)
            .copied()
            .collect()
    };
    let visited = trace.visited_blocks();
    if visited.is_empty() && !pieces.is_empty() {
        return Err(WatermarkError::NoInsertionPoint);
    }
    let weights: Vec<f64> = visited.iter().map(|&(_, c)| 1.0 / c as f64).collect();
    let multi_weights: Vec<f64> = visited
        .iter()
        .map(|&(_, c)| {
            if (2..=16).contains(&c) {
                1.0 / c as f64
            } else {
                0.0
            }
        })
        .collect();

    let mut marked = program.clone();
    let mut plans: Vec<(Site, Vec<Insn>)> = Vec::new();
    let mut records = Vec::new();
    for statement in pieces {
        let encoded = enumeration
            .encode(&statement)
            .expect("split statements always encode");
        let block = cipher.encrypt(encoded);
        let want_condition = match config.codegen {
            CodegenPolicy::LoopOnly => false,
            CodegenPolicy::PreferCondition => true,
            CodegenPolicy::Mixed => rng.chance(0.5),
        };
        let pool = if want_condition {
            &multi_weights
        } else {
            &weights
        };
        let choice = rng
            .weighted_index(pool)
            .or_else(|| rng.weighted_index(&weights))
            .expect("visited set is non-empty");
        let (site, _count) = visited[choice];
        let func = marked.function_mut(site.func);
        let snippet = if want_condition {
            let snaps = trace.snapshots_at(site);
            if snaps.len() < 2 {
                None
            } else {
                condition_snippet(func, snaps[0].0, snaps[1].0, block, &mut rng)
            }
        } else {
            None
        };
        let (snippet, used_condition) = match snippet {
            Some(s) => (s, true),
            None => {
                let locals = reserve_locals(func, 4).expect("reference hosts have free locals");
                let live = pick_live_local(func, &mut rng);
                (loop_snippet(block, locals, live, &mut rng), false)
            }
        };
        plans.push((site, snippet));
        records.push(PieceRecord {
            statement,
            site,
            used_condition_codegen: used_condition,
        });
    }
    plans.sort_by_key(|p| std::cmp::Reverse((p.0.func, p.0.pc)));
    for (site, snippet) in plans {
        insert_snippet(marked.function_mut(site.func), site.pc, snippet);
    }
    stackvm::verify::verify(&marked)?;
    Ok(MarkedProgram {
        report: EmbedReport {
            pieces: records,
            bytes_before: program.byte_size(),
            bytes_after: marked.byte_size(),
        },
        program: marked,
    })
}

mod tests {
    use std::collections::HashSet;

    use pathmark_crypto::Prng;

    use super::*;
    use crate::java::JavaConfig;
    use crate::key::WatermarkKey;

    /// Copies per host and policy: a few in debug builds (tier-1), the
    /// full set in release.
    const SEEDS: u64 = if cfg!(debug_assertions) { 3 } else { 32 };

    struct Case {
        name: &'static str,
        program: Program,
        input: i64,
        config: JavaConfig,
    }

    fn cases() -> Vec<Case> {
        let caffeine = pathmark_workloads::java::caffeinemark();
        vec![
            // The two benchmark hosts under their benchmark configurations.
            Case {
                name: "caffeinemark",
                program: caffeine.clone(),
                input: 12,
                config: JavaConfig::for_watermark_bits(128).with_pieces(30),
            },
            Case {
                name: "jess",
                program: pathmark_workloads::java::jess_like(),
                input: 40,
                config: JavaConfig::for_watermark_bits(256).with_pieces(80),
            },
            // The CLI's `demo` program under the CLI's defaults.
            Case {
                name: "demo",
                program: caffeine.clone(),
                input: 12,
                config: JavaConfig::for_watermark_bits(128),
            },
            // One piece per watermark bit: many pieces share a site.
            Case {
                name: "ties",
                program: caffeine,
                input: 12,
                config: JavaConfig::for_watermark_bits(128).with_pieces(128),
            },
        ]
    }

    #[test]
    fn one_pass_embed_equals_the_per_piece_path() {
        let mut ties = 0;
        for case in cases() {
            let base = WatermarkKey::new(1, vec![case.input]);
            let trace = Embedder::builder(base, case.config.clone())
                .build()
                .unwrap()
                .trace(&case.program)
                .unwrap();
            for policy in [
                CodegenPolicy::Mixed,
                CodegenPolicy::LoopOnly,
                CodegenPolicy::PreferCondition,
            ] {
                let config = case.config.clone().with_codegen(policy);
                let mut draw = Prng::from_seed(0xE0E0 ^ case.input as u64);
                for seed in 0..SEEDS {
                    let key = WatermarkKey::new(draw.next_u64(), vec![case.input]);
                    let watermark = Watermark::random(config.watermark_bits, &mut draw);
                    let session = Embedder::builder(key, config.clone()).build().unwrap();
                    let fast = session
                        .embed_with_trace(&case.program, &watermark, &trace)
                        .unwrap();
                    let slow =
                        embed_per_piece(&session, &case.program, &watermark, &trace).unwrap();
                    assert!(
                        fast == slow,
                        "{} {policy:?} seed {seed}: the one-pass copy differs",
                        case.name
                    );
                    let sites: HashSet<Site> = fast.report.pieces.iter().map(|p| p.site).collect();
                    ties += fast.report.pieces.len() - sites.len();
                }
            }
        }
        assert!(ties > 0, "some copies place two pieces at one site");
    }
}
