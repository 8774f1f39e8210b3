//! Property tests of the corruption-proof checkpoint format
//! (DESIGN.md §6): a real checkpoint round-trips exactly, and **any**
//! random single-byte corruption — bit flip or truncation — is rejected
//! with `CheckpointError::Corrupt` before a single field is parsed; and a
//! checkpoint written in the older line order still loads and resumes.

use heron_core::generate::{GeneratedSpace, SpaceGenerator, SpaceOptions};
use heron_core::tuner::{TuneConfig, Tuner};
use heron_core::{CheckpointError, TuneCheckpoint};
use heron_dla::{v100, FaultPlan, Measurer};
use heron_tensor::ops;
use heron_testkit::property_cases;

/// The checkpoint of [`real_checkpoint_text`]'s session as written before
/// the host-time lines moved to the end of the file: `timing.cga_s`,
/// `timing.sim_s` and `timing.model_s` sit between the error counts and
/// `timing.hw_measure_s`.
const HOST_TIME_MID_FILE: &str = include_str!("fixtures/gemm64_seed7_host_time_mid_file.ckpt");

fn gemm64() -> GeneratedSpace {
    SpaceGenerator::new(v100())
        .generate(&ops::gemm(64, 64, 64), &SpaceOptions::heron())
        .expect("generates")
}

/// One real checkpoint, produced by an actual short tuning session so
/// it exercises every section of the format (curve, samples,
/// survivors, error counts, robustness counters…).
fn real_checkpoint_text() -> String {
    let mut tuner = Tuner::new(gemm64(), Measurer::new(v100()), TuneConfig::quick(6), 7);
    let _ = tuner.run();
    tuner.checkpoint().to_text()
}

fn resumed_record(ckpt: &TuneCheckpoint) -> String {
    Tuner::resume(
        gemm64(),
        Measurer::new(v100()),
        TuneConfig::quick(6),
        FaultPlan::none(7),
        ckpt,
    )
    .expect("resumes")
    .run()
    .deterministic_record()
}

/// The lines of checkpoint text, host time and footer left out, sorted.
fn deterministic_lines(text: &str) -> Vec<&str> {
    let host = ["timing.cga_s", "timing.sim_s", "timing.model_s", "crc32"];
    let mut lines: Vec<&str> = text
        .lines()
        .filter(|l| !host.iter().any(|h| l.starts_with(h)))
        .collect();
    lines.sort_unstable();
    lines
}

#[test]
fn checkpoints_with_host_time_mid_file_still_load_and_resume() {
    let old = TuneCheckpoint::from_text(HOST_TIME_MID_FILE).expect("older layout loads");
    // Re-serialised: the same lines, host ones moved last, new footer.
    let mut before: Vec<&str> = HOST_TIME_MID_FILE.lines().collect();
    let again = old.to_text();
    let mut after: Vec<&str> = again.lines().collect();
    assert_eq!(before.pop(), Some("crc32 = 37979876"));
    assert!(after.pop().unwrap().starts_with("crc32 = "));
    before.sort_unstable();
    after.sort_unstable();
    assert_eq!(before, after);
    // Same session today: identical deterministic lines, identical
    // resumed record.
    let own = real_checkpoint_text();
    assert_eq!(
        deterministic_lines(&own),
        deterministic_lines(HOST_TIME_MID_FILE)
    );
    let own = TuneCheckpoint::from_text(&own).expect("parses");
    assert_eq!(resumed_record(&old), resumed_record(&own));
}

#[test]
fn round_trip_is_exact_and_corruption_is_always_detected() {
    let text = real_checkpoint_text();

    // 1. Clean round-trip: parse → re-serialise is byte-identical.
    let ck = TuneCheckpoint::from_text(&text).expect("clean checkpoint parses");
    assert_eq!(
        ck.to_text(),
        text,
        "checkpoint serialisation must round-trip byte-for-byte"
    );

    // 2. Random single-byte bit flips are always `Corrupt` — never a
    //    silent success, never misreported as a version or field error.
    let bytes = text.as_bytes().to_vec();
    property_cases("checkpoint_bit_flip_rejected", 128, |g| {
        let pos = g.index(0, bytes.len());
        let bit = g.index(0, 8) as u32;
        let mut mutated = bytes.clone();
        mutated[pos] ^= 1u8 << bit;
        // The format is ASCII text; an arbitrary flip may produce
        // invalid UTF-8, which the loader also treats as corruption.
        let parsed = match String::from_utf8(mutated) {
            Ok(s) => TuneCheckpoint::from_text(&s),
            Err(_) => return, // load() maps invalid UTF-8 to Corrupt
        };
        match parsed {
            Err(CheckpointError::Corrupt { .. }) => {}
            Err(other) => {
                panic!("flip at byte {pos} bit {bit}: corruption misclassified as {other:?}")
            }
            Ok(_) => panic!("flip at byte {pos} bit {bit} went undetected"),
        }
    });

    // 3. Random truncations are always `Corrupt` (a prefix of a valid
    //    checkpoint never carries a valid footer).
    property_cases("checkpoint_truncation_rejected", 64, |g| {
        let cut = g.index(0, text.len()); // strictly shorter than full
        let truncated = &text[..floor_char_boundary(&text, cut)];
        match TuneCheckpoint::from_text(truncated) {
            Err(CheckpointError::Corrupt { .. }) => {}
            Err(other) => panic!("truncation at {cut}: misclassified as {other:?}"),
            Ok(_) => panic!("truncation at {cut} went undetected"),
        }
    });
}

/// Stable replacement for the unstable `str::floor_char_boundary`.
fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}
