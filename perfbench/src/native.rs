//! `native`: the IA-32 branch-function realization (paper §4, Fig. 9)
//! on the ten SPEC-like images. The key uses each image's training
//! input and `training_inputs` is its reference input, the paper's
//! protocol. Operations are `embed_native` of a drawn 128-bit `W` and
//! `extract` with the `Smart` tracer. The only workload through
//! `nativesim` and `pathmark-core::native`.

use std::time::{Duration, Instant};

use pathmark::core::key::{Watermark, WatermarkKey};
use pathmark::core::native::{
    embed_native, extract, profile_image, ExtractionSpec, NativeConfig, NativeMark, TracerKind,
};
use pathmark::crypto::Prng;
use pathmark::sim::cpu::Machine;
use pathmark::sim::Image;
use pathmark::workloads::native::NativeWorkload;

use crate::spans::{Kind, Recorder};
use crate::{mean, ratio, Cycle, Scale, Workload};

/// Extractions per embedding in a pass. Embeds (~60–130 ms) are 1 in 25
/// operations, so the median falls inside the extractions and p99
/// inside the embeds, never in the gap between them, and a pass of 250
/// operations takes ~2.6 s.
const EXTRACTS_PER_EMBED: usize = 24;

/// Watermark width (the paper's smallest native size).
const BITS: usize = 128;

struct Copy {
    workload: NativeWorkload,
    key: WatermarkKey,
    config: NativeConfig,
    bits: Vec<bool>,
    /// The warm-up pass's marked image: the checked copy.
    mark: NativeMark,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Embed(usize),
    Extract(usize),
}

/// The workload's state after set-up.
pub struct Native {
    copies: Vec<Copy>,
    cycle: Vec<Op>,
    bad: Vec<Option<String>>,
    insn_overheads: Vec<f64>,
    size_overheads: Vec<f64>,
}

fn spec(mark: &NativeMark) -> ExtractionSpec {
    ExtractionSpec {
        begin: mark.begin,
        end: mark.end,
    }
}

fn instructions(image: &Image, input: &[u32], budget: u64) -> Result<(Vec<u32>, u64), String> {
    Machine::load(image)
        .with_input(input.to_vec())
        .run(budget)
        .map(|o| (o.output, o.instructions))
        .map_err(|e| e.to_string())
}

impl Native {
    fn embed(&self, c: usize) -> Result<NativeMark, String> {
        let copy = &self.copies[c];
        embed_native(&copy.workload.image, &copy.bits, &copy.key, &copy.config)
            .map_err(|e| format!("{}: embed_native: {e}", copy.workload.name))
    }

    fn extract(&self, c: usize) -> Result<Vec<bool>, String> {
        let copy = &self.copies[c];
        extract(
            &copy.mark.image,
            &copy.key.native_input(),
            spec(&copy.mark),
            TracerKind::Smart,
            copy.config.budget,
        )
        .map_err(|e| format!("{}: extract: {e}", copy.workload.name))
    }

    fn judge(
        &self,
        op: Op,
        embedded: Option<Result<NativeMark, String>>,
        extracted: Option<Result<Vec<bool>, String>>,
    ) -> Result<(), String> {
        let c = match op {
            Op::Embed(c) | Op::Extract(c) => c,
        };
        if let Some(why) = &self.bad[c] {
            return Err(why.clone());
        }
        let copy = &self.copies[c];
        if let Some(mark) = embedded {
            if mark? != copy.mark {
                return Err(format!(
                    "{}: marked image differs from the checked copy",
                    copy.workload.name
                ));
            }
        }
        if let Some(bits) = extracted {
            if bits? != copy.bits {
                return Err(format!(
                    "{}: extracted bits differ from W",
                    copy.workload.name
                ));
            }
        }
        Ok(())
    }
}

impl Workload for Native {
    fn setup(seed: u64, scale: Scale, _rec: &mut Recorder) -> Result<Native, String> {
        let mut rng = Prng::from_seed(seed ^ 0x9A71);
        let mut workloads = pathmark::workloads::native::all();
        if scale.smoke {
            workloads.truncate(1);
        }
        let mut copies = Vec::new();
        for workload in workloads {
            let key = WatermarkKey::new(
                rng.next_u64(),
                workload
                    .training_input
                    .iter()
                    .map(|&v| i64::from(v))
                    .collect(),
            );
            let config = NativeConfig {
                training_inputs: vec![workload.reference_input.clone()],
                ..NativeConfig::default()
            };
            let bits = Watermark::random(BITS, &mut rng).to_bits();
            // The first embed of the warm-up pass, kept as the checked copy.
            let mark = embed_native(&workload.image, &bits, &key, &config)
                .map_err(|e| format!("{}: embed_native: {e}", workload.name))?;
            copies.push(Copy {
                workload,
                key,
                config,
                bits,
                mark,
            });
        }
        let embeds: Vec<Op> = (0..copies.len()).map(Op::Embed).collect();
        let extracts: Vec<Op> = (0..copies.len() * EXTRACTS_PER_EMBED)
            .map(|k| Op::Extract(k % copies.len()))
            .collect();
        let cycle = crate::bytecode::interleave(&extracts, &embeds);
        let w = Native {
            bad: (0..copies.len()).map(|_| None).collect(),
            copies,
            cycle,
            insn_overheads: Vec::new(),
            size_overheads: Vec::new(),
        };
        // The rest of the warm-up pass.
        for &op in &w.cycle {
            match op {
                Op::Embed(_) => {}
                Op::Extract(c) => {
                    w.extract(c)?;
                }
            }
        }
        Ok(w)
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for c in 0..self.copies.len() {
            let copy = &self.copies[c];
            let result = (|| {
                let found = self.extract(c)?;
                if found != copy.bits {
                    return Err(format!(
                        "{}: extracted bits differ from W",
                        copy.workload.name
                    ));
                }
                let input = &copy.workload.reference_input;
                let (want, host_insns) =
                    instructions(&copy.workload.image, input, copy.config.budget)?;
                let (got, marked_insns) =
                    instructions(&copy.mark.image, input, copy.config.budget)?;
                if got != want {
                    return Err(format!(
                        "{}: output on the reference input differs",
                        copy.workload.name
                    ));
                }
                Ok((
                    marked_insns as f64 / host_insns as f64,
                    copy.mark.size_after as f64 / copy.mark.size_before as f64,
                ))
            })();
            match result {
                Ok((insn, size)) => {
                    self.insn_overheads.push(insn);
                    self.size_overheads.push(size);
                }
                Err(why) => {
                    self.bad[c] = Some(why.clone());
                    problems.push(why);
                }
            }
        }
        problems
    }

    fn mark_overheads(&self) -> (f64, f64) {
        (mean(&self.insn_overheads), mean(&self.size_overheads))
    }

    fn layer_values(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let extracts = rec.calls("core.native.extract").0 as f64;
        let steps = rec.counted("nativesim.steps");
        vec![
            ("nativesim.steps_per_extract", ratio(steps, extracts)),
            (
                "nativesim.msteps_per_s",
                ratio(
                    steps / 1e6,
                    rec.mean_ms("core.native.extract") * extracts / 1e3,
                ),
            ),
        ]
    }
}

impl Cycle for Native {
    fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    fn run(&mut self, i: usize) -> (Duration, Result<(), String>) {
        let op = self.cycle[i];
        let started = Instant::now();
        match op {
            Op::Embed(c) => {
                let mark = self.embed(c);
                let latency = started.elapsed();
                (latency, self.judge(op, Some(mark), None))
            }
            Op::Extract(c) => {
                let bits = self.extract(c);
                let latency = started.elapsed();
                (latency, self.judge(op, None, Some(bits)))
            }
        }
    }

    fn run_traced(&mut self, i: usize, id: u64, rec: &mut Recorder) -> Result<(), String> {
        let op = self.cycle[i];
        let started = Instant::now();
        match op {
            Op::Embed(c) => {
                let mark = rec.try_time(id, "core.native.embed", Kind::Child, || self.embed(c));
                rec.record(
                    id,
                    "op.embed",
                    Kind::Root,
                    started,
                    Instant::now(),
                    mark.is_ok(),
                );
                self.judge(op, Some(mark), None)
            }
            Op::Extract(c) => {
                let bits = rec.try_time(id, "core.native.extract", Kind::Child, || self.extract(c));
                rec.record(
                    id,
                    "op.extract",
                    Kind::Root,
                    started,
                    Instant::now(),
                    bits.is_ok(),
                );
                self.judge(op, None, Some(bits))
            }
        }
    }

    fn attribute(&mut self, i: usize, id: u64, rec: &mut Recorder) -> Result<(), String> {
        match self.cycle[i] {
            Op::Embed(c) => {
                // The two profiling runs inside the embed: key input and
                // training (here: reference) input.
                let copy = &self.copies[c];
                for input in [
                    copy.key.native_input(),
                    copy.workload.reference_input.clone(),
                ] {
                    rec.try_time(id, "core.native.profile", Kind::Attribution, || {
                        profile_image(&copy.workload.image, &input, copy.config.budget)
                    })
                    .map_err(|e| format!("{}: profile_image: {e}", copy.workload.name))?;
                }
            }
            Op::Extract(c) => {
                // The machine steps extraction single-steps.
                let copy = &self.copies[c];
                let steps = rec
                    .try_time(id, "nativesim.steps", Kind::Attribution, || {
                        steps_to_end(
                            &copy.mark.image,
                            &copy.key.native_input(),
                            spec(&copy.mark),
                            copy.config.budget,
                        )
                    })
                    .map_err(|e| format!("{}: {e}", copy.workload.name))?;
                rec.count("nativesim.steps", steps as f64);
            }
        }
        Ok(())
    }
}

/// Machine steps `extract` takes on this input: from the start to the
/// first `end` after `begin`.
fn steps_to_end(
    image: &Image,
    input: &[u32],
    spec: ExtractionSpec,
    budget: u64,
) -> Result<u64, String> {
    let mut machine = Machine::load(image).with_input(input.to_vec());
    let mut recording = false;
    for steps in 0..budget {
        recording |= machine.eip == spec.begin;
        if recording && machine.eip == spec.end {
            return Ok(steps);
        }
        if machine.step().map_err(|e| e.to_string())?.halted {
            break;
        }
    }
    Err("extraction end not reached".to_string())
}
