//! The two bytecode hosts and the per-copy jobs drawn from the workload
//! seed, shared by the `fingerprint`, `recognize` and `serve` workloads.

use std::sync::Arc;

use pathmark::core::java::{Embedder, JavaConfig, Recognizer};
use pathmark::core::key::{Watermark, WatermarkKey};
use pathmark::crypto::Prng;
use pathmark::fleet::manifest::{to_hex, EmbedJobSpec};
use pathmark::math::bigint::BigUint;
use pathmark::vm::interp::Vm;
use pathmark::vm::Program;

/// One bytecode host under its paper configuration.
pub struct Host {
    /// `caffeinemark` or `jess`.
    pub name: &'static str,
    /// The unmarked program.
    pub program: Arc<Program>,
    /// The watermark key's secret input.
    pub key_input: Vec<i64>,
    /// A second input the marked copies must agree with the host on.
    pub other_input: Vec<i64>,
    /// Watermark width and piece count.
    pub config: JavaConfig,
    /// The tenant/batch key's numeric secret, drawn from the seed.
    pub key_seed: u64,
}

impl Host {
    /// The batch key.
    pub fn key(&self) -> WatermarkKey {
        WatermarkKey::new(self.key_seed, self.key_input.clone())
    }

    /// An embedding session on the batch key.
    ///
    /// # Errors
    ///
    /// The configuration error, which the fixed configurations never hit.
    pub fn embedder(&self) -> Result<Embedder, String> {
        Embedder::builder(self.key(), self.config.clone())
            .build()
            .map_err(|e| format!("{}: {e}", self.name))
    }

    /// A recognition session on the batch key.
    ///
    /// # Errors
    ///
    /// As [`Host::embedder`].
    pub fn recognizer(&self) -> Result<Recognizer, String> {
        Recognizer::builder(self.key(), self.config.clone())
            .build()
            .map_err(|e| format!("{}: {e}", self.name))
    }
}

/// CaffeineMark-like host: 128-bit `W`, 30 pieces, key input 12.
pub const CAFFEINE: usize = 0;
/// Jess-like host: 256-bit `W`, 80 pieces, key input 40.
pub const JESS: usize = 1;

/// Root-span names of an operation on each host, so a span file can be
/// split by host.
pub const ROOT: [&str; 2] = ["op.caffeinemark", "op.jess"];

/// Both hosts, with batch-key seeds drawn from `rng`.
pub fn hosts(rng: &mut Prng) -> Vec<Host> {
    vec![
        Host {
            name: "caffeinemark",
            program: Arc::new(pathmark::workloads::java::caffeinemark()),
            key_input: vec![12],
            other_input: vec![7],
            config: JavaConfig::for_watermark_bits(128).with_pieces(30),
            key_seed: rng.next_u64(),
        },
        Host {
            name: "jess",
            program: Arc::new(pathmark::workloads::java::jess_like()),
            key_input: vec![40],
            other_input: vec![25],
            config: JavaConfig::for_watermark_bits(256).with_pieces(80),
            key_seed: rng.next_u64(),
        },
    ]
}

/// One fingerprinted copy: its host, pinned per-copy seed and drawn `W`.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index into [`hosts`].
    pub host: usize,
    /// The manifest line with `seed` and `watermark_hex` pinned.
    pub spec: EmbedJobSpec,
    /// The drawn watermark.
    pub watermark: BigUint,
}

impl Job {
    /// The pinned per-copy seed.
    pub fn seed(&self) -> u64 {
        self.spec.seed.expect("jobs pin their seed")
    }

    /// The drawn watermark in manifest hex.
    pub fn hex(&self) -> &str {
        self.spec
            .watermark_hex
            .as_deref()
            .expect("jobs pin their watermark")
    }
}

/// Draws `count` jobs for `host`: a fresh seed and a fresh `W` each.
pub fn draw_jobs(rng: &mut Prng, hosts: &[Host], host: usize, count: usize) -> Vec<Job> {
    (0..count)
        .map(|i| {
            let seed = rng.next_u64();
            let watermark = Watermark::random(hosts[host].config.watermark_bits, rng)
                .value()
                .clone();
            Job {
                host,
                spec: EmbedJobSpec {
                    job_id: format!("{}-{i:03}", hosts[host].name),
                    watermark_hex: Some(to_hex(&watermark)),
                    seed: Some(seed),
                },
                watermark,
            }
        })
        .collect()
}

/// Interleaves two lists evenly, e.g. 12 and 4 items as
/// `a a a b a a a b …`, so every stretch of the cycle has the same mix.
pub fn interleave<T: Clone>(a: &[T], b: &[T]) -> Vec<T> {
    let total = a.len() + b.len();
    let mut out = Vec::with_capacity(total);
    let (mut i, mut j) = (0, 0);
    for k in 0..total {
        // Take from `b` whenever it has fallen behind its share.
        if j < b.len() && (i == a.len() || (j + 1) * total <= (k + 1) * b.len()) {
            out.push(b[j].clone());
            j += 1;
        } else {
            out.push(a[i].clone());
            i += 1;
        }
    }
    out
}

/// Output and executed-instruction count of `program` on `input`.
///
/// # Errors
///
/// The VM error, rendered.
pub fn run(program: &Program, input: &[i64]) -> Result<(Vec<i64>, u64), String> {
    Vm::new(program)
        .with_input(input.to_vec())
        .run()
        .map(|o| (o.output, o.instructions))
        .map_err(|e| e.to_string())
}

/// Checks a marked (possibly attacked) copy against its host: same
/// output on the key input and on the host's other input. Returns the
/// copy's instruction count on the key input.
///
/// # Errors
///
/// What differs.
pub fn check_semantics(host: &Host, copy: &Program, what: &str) -> Result<u64, String> {
    let (want, _) = run(&host.program, &host.key_input)?;
    let (got, insns) = run(copy, &host.key_input)?;
    if got != want {
        return Err(format!(
            "{what}: output differs from {} on the key input",
            host.name
        ));
    }
    let (want, _) = run(&host.program, &host.other_input)?;
    let (got, _) = run(copy, &host.other_input)?;
    if got != want {
        return Err(format!(
            "{what}: output differs from {} on input {:?}",
            host.name, host.other_input
        ));
    }
    Ok(insns)
}

/// Recognizes `copy` under the per-copy key `seed` with a fresh session
/// and returns the recovered watermark, if any.
///
/// # Errors
///
/// The recognition error, rendered.
pub fn recognize_under(host: &Host, seed: u64, copy: &Program) -> Result<Option<BigUint>, String> {
    let session = host.recognizer()?;
    session
        .with_key(WatermarkKey::new(seed, host.key_input.clone()))
        .recognize(copy)
        .map(|r| r.watermark)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_spreads_the_minority_evenly() {
        let a = vec!['a'; 6];
        let b = vec!['b'; 2];
        assert_eq!(
            interleave(&a, &b).into_iter().collect::<String>(),
            "aaabaaab"
        );
        assert_eq!(interleave(&a, &[]).len(), 6);
        assert_eq!(interleave::<char>(&[], &b).len(), 2);
    }
}
