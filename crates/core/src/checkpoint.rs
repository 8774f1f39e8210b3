//! Checkpoint/resume for tuning sessions.
//!
//! A [`TuneCheckpoint`] captures *everything* a [`crate::tuner::Tuner`]
//! needs to continue an interrupted session bit-for-bit: the session's
//! [`TuneResult`] so far, every measured fingerprint, the quarantine set,
//! the cost-model sample log (replayed on resume), the survivor
//! population, and — critically — the exact RNG stream position.
//!
//! The on-disk format is `heron-checkpoint v3`, written in the sealed
//! `key = value` codec [`heron_trace::kv`]: the CRC-32 footer is verified
//! before anything is parsed (any truncation or byte flip is
//! [`CheckpointError::Corrupt`], an older `v1` or `v2` file a
//! [`CheckpointError::VersionMismatch`]), saving is atomic, and floats are
//! the exact IEEE-754 bits, with a decimal `#` comment where a reader
//! wants one. The lines come in three parts:
//!
//! 1. the **deterministic section**: session ids and RNG state, the
//!    result lines (`write_result`, which is also the body of
//!    [`TuneResult::deterministic_record`]), then the measured and
//!    quarantine lists, samples, survivors and the `insight.*` lines;
//! 2. the **host envelope**: `timing.cga_s`, `timing.sim_s` and
//!    `timing.model_s`, real-clock seconds that differ on every run;
//! 3. the `crc32` footer.
//!
//! Same-seed runs agree on every byte of the deterministic section, and
//! its CRC-32 is the [`content_id`] a postmortem quotes. The reader does
//! not depend on line order, so files written with the host lines in the
//! middle still load.
//!
//! ```text
//! heron-checkpoint v3
//! # tuning-session checkpoint; floats are IEEE-754 bits
//! workload = gemm-256
//! dla = nvidia-v100
//! seed = 42
//! rng = 0123456789abcdef ... (4 words)
//! stall_rounds = 0
//! rounds_total = 9
//! best_gflops = 40b3880000000000 # 5000
//! curve = 40b3880000000000 ...
//! sample = 40b3880000000000 4 16 2 ...
//! survivor = 4 16 2 ...
//! timing.cga_s = 3fd0000000000000
//! timing.sim_s = 3fc0000000000000
//! timing.model_s = 3fb0000000000000
//! crc32 = 89abcdef
//! ```

use std::path::Path;

use heron_csp::Solution;
use heron_insight::SearchLog;
use heron_trace::kv::{self, Bits, Entry, Hex, Words, Writer};

pub use heron_trace::kv::CheckpointError;

use crate::tuner::{IterationStats, TuneResult};

const HEADER: &str = "heron-checkpoint v3";

/// The start of the host envelope: its first line.
const ENVELOPE: &str = "\ntiming.cga_s = ";

/// A complete serialisable snapshot of a tuning session, exact at
/// iteration boundaries. See the [module docs](self) for the format.
#[derive(Debug, Clone, Default)]
pub struct TuneCheckpoint {
    /// Workload name the session tunes (must match the space on resume).
    pub workload: String,
    /// Platform name the session targets (must match on resume).
    pub dla: String,
    /// The session seed (identifies the fork-stream family).
    pub seed: u64,
    /// Exact xoshiro256** state words of the main RNG stream.
    pub rng_state: [u64; 4],
    /// Consecutive stalled ε-greedy rounds at checkpoint time.
    pub stall_rounds: usize,
    /// The session result so far. Not serialised: `best_kernel` (resume
    /// lowers it again from `best_solution`), `termination` and
    /// `model_rank_accuracy` (a resumed session is running and refits its
    /// model); `quarantined` reads back as the length of
    /// [`TuneCheckpoint::quarantined`].
    pub result: TuneResult,
    /// Fingerprints of every measured solution, ascending.
    pub measured: Vec<u64>,
    /// Fingerprints of every *currently* quarantined solution, in
    /// insertion order (the order the `max_quarantined` bound evicts
    /// oldest-first — serialising it keeps eviction deterministic across
    /// resume). Older checkpoints stored ascending order, which is an
    /// equally valid insertion history and still parses.
    pub quarantined: Vec<u64>,
    /// The cost-model training log in measurement order:
    /// `(solution values, trained score)`.
    pub samples: Vec<(Vec<i64>, f64)>,
    /// Raw variable values of the survivor population.
    pub survivors: Vec<Vec<i64>>,
    /// The search-health log, when insight was enabled on the session.
    /// Serialised as `insight.*` keys so a resumed run's `insight.json`
    /// is byte-identical to the uninterrupted run's. Absent (`None`) in
    /// checkpoints written without insight.
    pub insight: Option<SearchLog>,
}

/// Writes the result lines of `r` — the one serialisation of a
/// [`TuneResult`], shared by [`TuneCheckpoint::to_text`] and
/// [`TuneResult::deterministic_record`]. Host time is not among them.
pub(crate) fn write_result(w: &mut Writer, r: &TuneResult) {
    w.line("rounds_total", r.rounds_total);
    w.line("quarantine_evictions", r.quarantine_evictions);
    let exact = |x: f64| format!("{} # {x}", Bits(x));
    w.line("best_gflops", exact(r.best_gflops));
    w.line("best_latency_s", exact(r.best_latency_s));
    if let Some(sol) = &r.best_solution {
        w.line("best_solution", Words(sol.values()));
    }
    w.line("valid_trials", r.valid_trials);
    w.line("invalid_trials", r.invalid_trials);
    w.line("retried_trials", r.retried_trials);
    w.line("total_retries", r.total_retries);
    w.line("timeout_trials", r.timeout_trials);
    w.line("repaired_offspring", r.repaired_offspring);
    w.line("relaxed_constraints", r.relaxed_constraints);
    w.line("fallback_samples", r.fallback_samples);
    for (tag, n) in &r.error_counts {
        w.line(&format!("error.{tag}"), n);
    }
    w.line("timing.hw_measure_s", Bits(r.timing.hw_measure_s));
    if !r.curve.is_empty() {
        w.line("curve", Words(r.curve.iter().map(|&x| Bits(x))));
    }
    for it in &r.iterations {
        w.line(
            "iter",
            format_args!(
                "{} {} {} {} {} {}",
                it.iteration,
                it.trials_done,
                Bits(it.best_gflops),
                Bits(it.batch_mean_gflops),
                u8::from(it.model_fitted),
                it.population
            ),
        );
    }
}

/// The scalar result lines [`write_result`] always writes; a checkpoint
/// without one of them is refused, never read as zero.
const RESULT_KEYS: [&str; 13] = [
    "rounds_total",
    "quarantine_evictions",
    "best_gflops",
    "best_latency_s",
    "valid_trials",
    "invalid_trials",
    "retried_trials",
    "total_retries",
    "timeout_trials",
    "repaired_offspring",
    "relaxed_constraints",
    "fallback_samples",
    "timing.hw_measure_s",
];

/// Reads one line written by [`write_result`] into `r`.
fn read_result(r: &mut TuneResult, e: &Entry<'_>) -> Result<(), CheckpointError> {
    match e.key {
        "rounds_total" => r.rounds_total = e.num(e.value)?,
        "quarantine_evictions" => r.quarantine_evictions = e.num(e.value)?,
        "best_gflops" => r.best_gflops = e.bits(e.value)?,
        "best_latency_s" => r.best_latency_s = e.bits(e.value)?,
        "best_solution" => r.best_solution = Some(Solution::new(e.tokens().rest()?)),
        "valid_trials" => r.valid_trials = e.num(e.value)?,
        "invalid_trials" => r.invalid_trials = e.num(e.value)?,
        "retried_trials" => r.retried_trials = e.num(e.value)?,
        "total_retries" => r.total_retries = e.num(e.value)?,
        "timeout_trials" => r.timeout_trials = e.num(e.value)?,
        "repaired_offspring" => r.repaired_offspring = e.num(e.value)?,
        "relaxed_constraints" => r.relaxed_constraints = e.num(e.value)?,
        "fallback_samples" => r.fallback_samples = e.num(e.value)?,
        "timing.hw_measure_s" => r.timing.hw_measure_s = e.bits(e.value)?,
        "curve" => r.curve = e.tokens().map(|t| e.bits(t)).collect::<Result<_, _>>()?,
        "iter" => {
            let mut t = e.tokens();
            r.iterations.push(IterationStats {
                iteration: t.num()?,
                trials_done: t.num()?,
                best_gflops: t.bits()?,
                batch_mean_gflops: t.bits()?,
                model_fitted: t.flag()?,
                population: t.num()?,
            });
            t.end()?;
        }
        key => match key.strip_prefix("error.") {
            Some(tag) => {
                r.error_counts.insert(tag.to_string(), e.num(e.value)?);
            }
            None => return Err(e.error("unknown key")),
        },
    }
    Ok(())
}

/// The postmortem content id of checkpoint text: the CRC-32 of its
/// deterministic section, every byte before the host envelope. Two
/// checkpoints of one session that differ only in host time share it;
/// any other difference changes it. Text without an envelope is hashed
/// whole.
pub fn content_id(text: &str) -> u32 {
    let end = text.find(ENVELOPE).map_or(text.len(), |i| i + 1);
    kv::crc32(&text.as_bytes()[..end])
}

impl TuneCheckpoint {
    /// Serialises the checkpoint to its versioned text format, CRC footer
    /// included.
    pub fn to_text(&self) -> String {
        let mut w = Writer::new(HEADER);
        w.comment("tuning-session checkpoint; floats are IEEE-754 bits");
        w.line("workload", &self.workload);
        w.line("dla", &self.dla);
        w.line("seed", self.seed);
        w.line("rng", Words(self.rng_state.map(Hex)));
        w.line("stall_rounds", self.stall_rounds);
        write_result(&mut w, &self.result);
        if !self.measured.is_empty() {
            w.line("measured", Words(&self.measured));
        }
        if !self.quarantined.is_empty() {
            w.line("quarantined", Words(&self.quarantined));
        }
        for (values, score) in &self.samples {
            w.line("sample", format_args!("{} {}", Bits(*score), Words(values)));
        }
        for values in &self.survivors {
            w.line("survivor", Words(values));
        }
        if let Some(log) = &self.insight {
            log.write_checkpoint(&mut w);
        }
        let host = &self.result.timing;
        w.line("timing.cga_s", Bits(host.cga_s));
        w.line("timing.sim_s", Bits(host.sim_s));
        w.line("timing.model_s", Bits(host.model_s));
        w.seal()
    }

    /// Parses a checkpoint from its text format (see [`kv::unseal`] for
    /// the order in which integrity, version and lines are checked).
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`], [`CheckpointError::VersionMismatch`]
    /// or [`CheckpointError::Parse`] with the 1-based line number.
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let mut ck = TuneCheckpoint::default();
        let mut seen_rng = false;
        let mut seen_results = [false; RESULT_KEYS.len()];
        for e in kv::unseal(text, HEADER)? {
            let e = e?;
            if let Some(i) = RESULT_KEYS.iter().position(|&k| k == e.key) {
                seen_results[i] = true;
            }
            match e.key {
                "workload" => ck.workload = e.value.to_string(),
                "dla" => ck.dla = e.value.to_string(),
                "seed" => ck.seed = e.num(e.value)?,
                "rng" => {
                    let words: Vec<u64> = e.tokens().map(|t| e.hex(t)).collect::<Result<_, _>>()?;
                    ck.rng_state = words.try_into().map_err(|w: Vec<u64>| {
                        e.error(format!("needs 4 state words, got {}", w.len()))
                    })?;
                    seen_rng = true;
                }
                "stall_rounds" => ck.stall_rounds = e.num(e.value)?,
                "measured" => ck.measured = e.tokens().rest()?,
                "quarantined" => ck.quarantined = e.tokens().rest()?,
                "sample" => {
                    let mut t = e.tokens();
                    let score = t.bits()?;
                    ck.samples.push((t.rest()?, score));
                }
                "survivor" => ck.survivors.push(e.tokens().rest()?),
                "timing.cga_s" => ck.result.timing.cga_s = e.bits(e.value)?,
                "timing.sim_s" => ck.result.timing.sim_s = e.bits(e.value)?,
                "timing.model_s" => ck.result.timing.model_s = e.bits(e.value)?,
                key if key.starts_with("insight.") => ck
                    .insight
                    .get_or_insert_with(|| SearchLog::new("", "", 0, 0))
                    .apply_checkpoint_line(&e)?,
                _ => read_result(&mut ck.result, &e)?,
            }
        }
        if ck.workload.is_empty() || ck.dla.is_empty() || !seen_rng {
            return Err(CheckpointError::Parse {
                line: 1,
                message: "checkpoint is missing workload, dla or rng state".into(),
            });
        }
        if let Some(i) = seen_results.iter().position(|&seen| !seen) {
            return Err(CheckpointError::Parse {
                line: 1,
                message: format!("checkpoint is missing its `{}` line", RESULT_KEYS[i]),
            });
        }
        ck.result.quarantined = ck.quarantined.len();
        Ok(ck)
    }

    /// Writes the checkpoint to `path` atomically ([`kv::save`]).
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        kv::save(path, &self.to_text())
    }

    /// Reads a checkpoint from `path`.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failure, otherwise as
    /// [`TuneCheckpoint::from_text`] (invalid UTF-8 is `Corrupt`).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::from_text(&kv::load(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{SpaceGenerator, SpaceOptions};
    use crate::tuner::{TuneConfig, TuneTiming, Tuner};
    use heron_dla::{v100, FaultPlan, Measurer};
    use std::collections::BTreeMap;

    /// Appends a valid CRC footer to a hand-written body, so tests can
    /// exercise the parser behind the integrity gate.
    fn with_crc(body: &str) -> String {
        format!("{body}crc32 = {:08x}\n", kv::crc32(body.as_bytes()))
    }

    fn sample_checkpoint() -> TuneCheckpoint {
        let mut error_counts = BTreeMap::new();
        error_counts.insert("timeout".to_string(), 3);
        error_counts.insert("capacity".to_string(), 7);
        TuneCheckpoint {
            workload: "gemm-256".into(),
            dla: "nvidia-v100".into(),
            seed: 42,
            rng_state: [
                0x0123_4567_89ab_cdef,
                0xfedc_ba98_7654_3210,
                0xdead_beef_cafe_f00d,
                0x0000_0000_0000_0001,
            ],
            stall_rounds: 2,
            result: TuneResult {
                rounds_total: 9,
                quarantine_evictions: 1,
                best_gflops: 1_234.567_890_123,
                best_latency_s: 3.2e-5,
                best_solution: Some(Solution::new(vec![4, 16, 2, -1, 8])),
                curve: vec![0.0, 100.5, 100.5, 1_234.567_890_123],
                valid_trials: 3,
                invalid_trials: 1,
                retried_trials: 2,
                total_retries: 5,
                quarantined: 1,
                timeout_trials: 1,
                repaired_offspring: 4,
                relaxed_constraints: 9,
                fallback_samples: 1,
                error_counts,
                timing: TuneTiming {
                    cga_s: 0.25,
                    sim_s: 0.125,
                    model_s: 0.0625,
                    hw_measure_s: 17.75,
                },
                iterations: vec![IterationStats {
                    iteration: 0,
                    trials_done: 4,
                    best_gflops: 1_234.567_890_123,
                    batch_mean_gflops: 617.3,
                    model_fitted: true,
                    population: 32,
                }],
                ..TuneResult::default()
            },
            measured: vec![11, 22, 33, 44],
            quarantined: vec![22],
            samples: vec![
                (vec![4, 16, 2, -1, 8], 1_234.567_890_123),
                (vec![2, 8, 4, 0, 16], 100.5),
            ],
            survivors: vec![vec![4, 16, 2, -1, 8], vec![2, 8, 4, 0, 16]],
            insight: None,
        }
    }

    fn gemm64() -> crate::generate::GeneratedSpace {
        SpaceGenerator::new(v100())
            .generate(&heron_tensor::ops::gemm(64, 64, 64), &SpaceOptions::heron())
            .expect("generates")
    }

    fn faulty_session() -> Tuner {
        Tuner::new(gemm64(), Measurer::new(v100()), TuneConfig::quick(24), 11)
            .with_faults(FaultPlan::uniform(11, 0.35))
    }

    #[test]
    fn text_roundtrip_is_exact() {
        // Every section populated by hand: parse → serialise is identity.
        let text = sample_checkpoint().to_text();
        let back = TuneCheckpoint::from_text(&text).expect("parses");
        assert_eq!(back.to_text(), text);
        assert_eq!(back.result.quarantined, 1);
        assert!(text.ends_with(&format!(
            "timing.model_s = {}\ncrc32 = {:08x}\n",
            Bits(0.0625),
            kv::crc32(&text.as_bytes()[..text.rfind("crc32").unwrap()])
        )));

        // A real faulty session (retries, quarantine, error counts) at a
        // round boundary: the reparsed checkpoint re-serialises byte for
        // byte and resumes to the uninterrupted run.
        let expected = faulty_session().run();
        let mut head = faulty_session();
        head.run_until(12);
        let text = head.checkpoint().to_text();
        let back = TuneCheckpoint::from_text(&text).expect("parses");
        assert_eq!(back.to_text(), text);
        let mut resumed = Tuner::resume(
            gemm64(),
            Measurer::new(v100()),
            TuneConfig::quick(24),
            FaultPlan::uniform(11, 0.35),
            &back,
        )
        .expect("resumes");
        assert_eq!(
            resumed.run().deterministic_record(),
            expected.deterministic_record()
        );
    }

    #[test]
    fn resume_refuses_a_sample_of_the_wrong_arity() {
        let mut head = faulty_session();
        head.run_until(12);
        let mut ckpt = head.checkpoint();
        ckpt.samples[3].0.pop();
        let err = Tuner::resume(
            gemm64(),
            Measurer::new(v100()),
            TuneConfig::quick(24),
            FaultPlan::uniform(11, 0.35),
            &ckpt,
        )
        .expect_err("a short sample cannot join the model's store");
        assert!(
            matches!(&err, CheckpointError::Mismatch(m) if m.contains("a recorded sample")),
            "{err}"
        );
    }

    #[test]
    fn insight_log_roundtrips_inside_the_checkpoint() {
        use heron_insight::{RefitRecord, RoundRecord};
        let mut log = SearchLog::new("gemm-256", "nvidia-v100", 42, 3);
        log.set_vars([
            ("tile.C.i".to_string(), 16u64),
            ("vec width".to_string(), 4),
        ]);
        log.observe_assignment(&[8, 2]);
        log.observe_assignment(&[4, 2]);
        let mut r0 = RoundRecord::new(0);
        r0.trials_done = 8;
        r0.best_gflops = 123.456;
        r0.batch_rank_accuracy = Some(0.75);
        r0.entropy_bits = 1.5;
        log.push_round(r0);
        let mut r1 = RoundRecord::new(1);
        r1.stalled = true;
        log.push_round(r1);
        log.push_refit(RefitRecord {
            round: 0,
            samples: 8,
            train_rank_accuracy: 0.9,
            train_spearman: 0.85,
            top_importance: vec![(0, 0.7), (3, 0.2)],
        });
        let mut ck = sample_checkpoint();
        ck.insight = Some(log.clone());
        let text = ck.to_text();
        let back = TuneCheckpoint::from_text(&text).expect("parses");
        assert_eq!(back.insight.as_ref(), Some(&log));
        // Re-serialising is byte-identical (insight lines included).
        assert_eq!(back.to_text(), text);
        // A checkpoint without insight parses to None.
        let plain = sample_checkpoint();
        let back = TuneCheckpoint::from_text(&plain.to_text()).expect("parses");
        assert!(back.insight.is_none());
        // A malformed insight line is a parse error, not a panic.
        let bad = with_crc(&format!(
            "{HEADER}\nworkload = g\ndla = d\nrng = 1 2 3 4\ninsight.round = nonsense\n"
        ));
        let err = TuneCheckpoint::from_text(&bad).expect_err("bad insight line");
        assert!(
            matches!(err, CheckpointError::Parse { line: 5, .. }),
            "{err}"
        );
    }

    #[test]
    fn checkpoints_missing_a_result_line_are_refused_naming_it() {
        // Every scalar result line is required: a checkpoint without one
        // is a parse error naming the key, never a zero.
        let text = sample_checkpoint().to_text();
        for key in RESULT_KEYS {
            let body: String = text
                .lines()
                .filter(|l| !l.starts_with(&format!("{key} = ")))
                .take_while(|l| !l.starts_with("crc32"))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(body.lines().count(), text.lines().count() - 2, "{key}");
            match TuneCheckpoint::from_text(&with_crc(&body)) {
                Err(CheckpointError::Parse { message, .. }) => {
                    assert!(message.contains(&format!("`{key}`")), "{key}: {message}")
                }
                other => panic!("{key}: expected a parse error, got {other:?}"),
            }
        }
        // The optional lines may be absent: an empty session has no
        // `best_solution`, `curve`, `iter` or `error.*` lines.
        let mut ck = sample_checkpoint();
        ck.result = TuneResult::default();
        let empty = ck.to_text();
        assert!(!empty.contains("best_solution") && !empty.contains("\ncurve"));
        TuneCheckpoint::from_text(&empty).expect("optional lines may be absent");
    }

    #[test]
    fn infinity_and_empty_session_roundtrip() {
        let mut ck = sample_checkpoint();
        ck.result = TuneResult::default();
        ck.measured.clear();
        ck.quarantined.clear();
        ck.samples.clear();
        ck.survivors.clear();
        let text = ck.to_text();
        let back = TuneCheckpoint::from_text(&text).expect("parses");
        assert!(back.result.best_latency_s.is_infinite());
        assert!(back.result.best_solution.is_none());
        assert!(back.result.curve.is_empty());
        assert!(back.samples.is_empty());
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn host_time_is_an_envelope_outside_the_content_id() {
        let ck = sample_checkpoint();
        let text = ck.to_text();
        let lines: Vec<&str> = text.lines().collect();
        let n = lines.len();
        assert!(lines[n - 4].starts_with("timing.cga_s = "));
        assert!(lines[n - 3].starts_with("timing.sim_s = "));
        assert!(lines[n - 2].starts_with("timing.model_s = "));
        let section = &text[..text.find("timing.cga_s").unwrap()];
        assert_eq!(content_id(&text), kv::crc32(section.as_bytes()));
        // The record is the checkpoint's result lines plus two.
        let record = ck.result.deterministic_record();
        assert!(section.contains(
            record
                .strip_suffix("quarantined = 1\ntermination = running\n")
                .unwrap()
        ));
    }

    #[test]
    fn v1_and_v2_checkpoints_are_a_version_mismatch() {
        // A pre-CRC v1 file (old header, no footer), and a sealed v2 file
        // (the layout that still carried the solver's step-deadline count).
        let v1 = "heron-checkpoint v1\nworkload = g\ndla = d\nrng = 1 2 3 4\n".to_string();
        let v2 = with_crc("heron-checkpoint v2\nworkload = g\ndla = d\nrng = 1 2 3 4\n");
        for (old, header) in [(v1, "heron-checkpoint v1"), (v2, "heron-checkpoint v2")] {
            let err = TuneCheckpoint::from_text(&old).expect_err(header);
            match &err {
                CheckpointError::VersionMismatch { found, expected } => {
                    assert_eq!(found, header);
                    assert_eq!(expected, HEADER);
                }
                other => panic!("wrong error: {other}"),
            }
            assert!(err.to_string().contains("version mismatch"));
        }
    }

    #[test]
    fn rejects_bad_header_and_malformed_lines() {
        // Foreign format with a valid footer: a parse error on the header.
        let err =
            TuneCheckpoint::from_text(&with_crc("heron-library v1\n")).expect_err("bad header");
        assert!(matches!(err, CheckpointError::Parse { line: 1, .. }));

        let text = with_crc(&format!("{HEADER}\nworkload = g\ndla = d\nrng = 1 2 3\n"));
        let err = TuneCheckpoint::from_text(&text).expect_err("3-word rng");
        match err {
            CheckpointError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("4 state words"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }

        let text = with_crc(&format!("{HEADER}\nnonsense line without equals\n"));
        assert!(TuneCheckpoint::from_text(&text).is_err());

        let text = with_crc(&format!(
            "{HEADER}\nworkload = g\ndla = d\nfrobnicate = 1\n"
        ));
        let err = TuneCheckpoint::from_text(&text).expect_err("unknown key");
        assert!(err.to_string().contains("unknown key"));

        // Missing rng state is rejected even if everything else parses.
        let text = with_crc(&format!("{HEADER}\nworkload = g\ndla = d\n"));
        assert!(TuneCheckpoint::from_text(&text).is_err());
    }

    #[test]
    fn corrupt_file_on_disk_reports_offset() {
        let ck = sample_checkpoint();
        let path = std::env::temp_dir().join(format!(
            "heron-ckpt-corrupt-{}-{}.txt",
            std::process::id(),
            ck.seed
        ));
        ck.save(&path).expect("saves");
        assert_eq!(
            TuneCheckpoint::load(&path).expect("loads").to_text(),
            ck.to_text()
        );
        // Flip one byte mid-file.
        let mut bytes = std::fs::read(&path).expect("reads");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("writes");
        let err = TuneCheckpoint::load(&path).expect_err("corrupt");
        match &err {
            CheckpointError::Corrupt { message, .. } => {
                assert!(err.to_string().contains("byte offset"), "{err}");
                assert!(message.contains("crc mismatch"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
