//! Extraction memory on a hostile copy that reaches `begin` and then
//! spins until the budget runs out. A test binary of its own, so the
//! process's peak resident set is this test's alone.

use nativesim::asm::ImageBuilder;
use pathmark_core::native::{extract, ExtractionSpec, TracerKind};
use pathmark_core::WatermarkError;

/// Peak resident set of this process in MB (`VmHWM`, Linux).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in kB");
    kb / 1024.0
}

#[test]
fn a_copy_spinning_after_begin_is_traced_in_bounded_memory() {
    // begin: nop; top: jmp top — `end` (just past the text) never runs.
    let mut b = ImageBuilder::new();
    let a = b.text();
    let top = a.label();
    a.nop();
    a.bind(top);
    a.jmp(top);
    let image = b.finish().expect("assembles");
    let spec = ExtractionSpec {
        begin: image.text_base,
        end: image.text_base + image.text.len() as u32,
    };
    for tracer in [TracerKind::Simple, TracerKind::Smart] {
        let err = extract(&image, &[], spec, tracer, 10_000_000).unwrap_err();
        assert!(
            matches!(err, WatermarkError::EndNotReached),
            "{tracer:?}: {err}"
        );
    }
    // Ten million bracketed steps: a trace that buffered 16 bytes per
    // step would peak above 160 MB here.
    let peak = peak_rss_mb();
    assert!(peak < 32.0, "peak RSS {peak:.1} MB");
}
