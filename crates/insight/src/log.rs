//! The per-round structured search log.
//!
//! [`SearchLog`] is the event stream the tuner appends to while it
//! runs: one [`RoundRecord`] per tuning round, one [`RefitRecord`] per
//! cost-model refit, plus per-variable coverage sets. The log carries
//! *semantic* search-health signals (is the population diverse, is the
//! model ranking candidates well, which constraints push back) on top
//! of the mechanical spans/counters `heron-trace` already records.
//!
//! The log has an exact checkpoint encoding as `insight.*` lines of the
//! tuner checkpoint ([`SearchLog::write_checkpoint`] /
//! [`SearchLog::apply_checkpoint_line`], on [`heron_trace::kv`]), so a
//! killed-and-resumed tuning session produces a byte-identical
//! `insight.json` to the uninterrupted run.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use heron_trace::kv::{Bits, CheckpointError, Entry, OptBits, Words, Writer};

/// Search coverage for one tunable CSP variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarCoverage {
    /// The CSP variable name.
    pub name: String,
    /// Domain size at space-generation time.
    pub domain_size: u64,
    /// Distinct values this variable took across every *measured*
    /// candidate (ordered, so reports are deterministic).
    pub seen: BTreeSet<i64>,
}

impl VarCoverage {
    /// Fraction of the domain the search has touched, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.domain_size == 0 {
            0.0
        } else {
            self.seen.len() as f64 / self.domain_size as f64
        }
    }
}

/// One tuning round's search-health record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: u32,
    /// Total measured trials after this round.
    pub trials_done: u32,
    /// Best score (GFLOPS) seen so far, after this round's batch.
    pub best_gflops: f64,
    /// Best score inside this round's measured batch (0 when empty).
    pub batch_best_gflops: f64,
    /// Mean score of this round's measured batch (0 when empty).
    pub batch_mean_gflops: f64,
    /// Number of candidates measured this round.
    pub batch_size: u32,
    /// ε-greedy picks taken from the model-ranked head.
    pub exploit_picks: u32,
    /// ε-greedy picks taken uniformly at random.
    pub explore_picks: u32,
    /// Population size entering selection.
    pub population: u32,
    /// Distinct solutions (by fingerprint) in the population.
    pub distinct_solutions: u32,
    /// `distinct_solutions / population` in `[0, 1]` (0 when empty).
    pub diversity: f64,
    /// Mean per-variable Shannon entropy (bits) of population
    /// assignments over the tunable variables.
    pub entropy_bits: f64,
    /// Pairwise rank accuracy of pre-batch predictions vs. this batch's
    /// measurements (`None` before the first model fit).
    pub batch_rank_accuracy: Option<f64>,
    /// Spearman ρ of the same pairing (`None` before the first fit).
    pub batch_spearman: Option<f64>,
    /// Offspring repaired by constraint-dropping this round.
    pub repaired_offspring: u32,
    /// Crossover constraints relaxed during those repairs.
    pub relaxed_constraints: u32,
    /// Fresh `CSP_initial` fallback samples injected this round.
    pub fallback_samples: u32,
    /// RandSAT assignment attempts this round.
    pub solver_attempts: u64,
    /// RandSAT constraint propagations this round.
    pub solver_propagations: u64,
    /// RandSAT domain wipeouts this round.
    pub solver_wipeouts: u64,
    /// True when the round ended in a stall (no unmeasured candidates
    /// or solver starvation) rather than a measured batch.
    pub stalled: bool,
    /// Deepest solver trail (undo-stack) depth observed this round.
    pub solver_max_trail: u64,
    /// Offspring solves served incrementally from the session's cached
    /// root fixpoint this round.
    pub solver_incremental: u64,
}

impl RoundRecord {
    /// A zeroed record for round `round`.
    pub fn new(round: u32) -> Self {
        RoundRecord {
            round,
            ..RoundRecord::default()
        }
    }
}

/// One cost-model refit's quality + explainability snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitRecord {
    /// Round index the refit happened in.
    pub round: u32,
    /// Training-set size at fit time.
    pub samples: u32,
    /// Pairwise rank accuracy of the refit model on its training set.
    pub train_rank_accuracy: f64,
    /// Spearman ρ of the refit model on its training set.
    pub train_spearman: f64,
    /// Top-k `(feature index, normalized gain importance)` pairs,
    /// importance-descending.
    pub top_importance: Vec<(u32, f64)>,
}

/// The tuner-side search-health event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchLog {
    /// Workload name (space name).
    pub workload: String,
    /// Target DLA name.
    pub dla: String,
    /// Tuning seed.
    pub seed: u64,
    /// How many importance entries each refit snapshot keeps.
    pub top_k: u32,
    /// Per-tunable coverage, index-aligned with the tunable list the
    /// tuner registered via [`SearchLog::set_vars`].
    pub vars: Vec<VarCoverage>,
    /// One record per tuning round, in order.
    pub rounds: Vec<RoundRecord>,
    /// One record per model refit, in order.
    pub refits: Vec<RefitRecord>,
}

impl SearchLog {
    /// An empty log for one tuning session.
    pub fn new(workload: &str, dla: &str, seed: u64, top_k: u32) -> Self {
        SearchLog {
            workload: workload.to_string(),
            dla: dla.to_string(),
            seed,
            top_k,
            vars: Vec::new(),
            rounds: Vec::new(),
            refits: Vec::new(),
        }
    }

    /// Registers the tunable variables (name, domain size), resetting
    /// coverage. Called once by the tuner before the first round.
    pub fn set_vars(&mut self, vars: impl IntoIterator<Item = (String, u64)>) {
        self.vars = vars
            .into_iter()
            .map(|(name, domain_size)| VarCoverage {
                name,
                domain_size,
                seen: BTreeSet::new(),
            })
            .collect();
    }

    /// Records one measured candidate's tunable assignment (values
    /// index-aligned with the registered vars).
    pub fn observe_assignment(&mut self, values: &[i64]) {
        for (var, &v) in self.vars.iter_mut().zip(values) {
            var.seen.insert(v);
        }
    }

    /// Index of the next round to be recorded.
    pub fn next_round(&self) -> u32 {
        self.rounds.len() as u32
    }

    /// Appends a round record.
    pub fn push_round(&mut self, rec: RoundRecord) {
        self.rounds.push(rec);
    }

    /// Appends a refit record, truncating importance to `top_k`.
    pub fn push_refit(&mut self, mut rec: RefitRecord) {
        rec.top_importance.truncate(self.top_k as usize);
        self.refits.push(rec);
    }

    /// Final best score, i.e. the last round's best-so-far.
    pub fn final_best(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.best_gflops)
    }

    // ------------------------------------------------------------------
    // Checkpoint encoding (heron-checkpoint v3 `insight.*` keys)
    // ------------------------------------------------------------------

    /// Writes the log as `insight.*` checkpoint lines. The encoding is
    /// exact: floats are [`Bits`], absent optionals `-`.
    pub fn write_checkpoint(&self, w: &mut Writer) {
        w.line("insight.meta", format_args!("{} {}", self.top_k, self.seed));
        w.line("insight.workload", &self.workload);
        w.line("insight.dla", &self.dla);
        for (i, var) in self.vars.iter().enumerate() {
            w.line(
                "insight.var",
                format_args!("{i} {} {}", var.domain_size, var.name),
            );
            if !var.seen.is_empty() {
                w.line("insight.seen", format_args!("{i} {}", Words(&var.seen)));
            }
        }
        for r in &self.rounds {
            write_round(w, r);
        }
        for f in &self.refits {
            let mut line = format!(
                "{} {} {} {}",
                f.round,
                f.samples,
                Bits(f.train_rank_accuracy),
                Bits(f.train_spearman),
            );
            for (idx, imp) in &f.top_importance {
                let _ = write!(line, " {idx}:{}", Bits(*imp));
            }
            w.line("insight.refit", line);
        }
    }

    /// Applies one checkpoint line previously written by
    /// [`SearchLog::write_checkpoint`].
    ///
    /// # Errors
    /// [`CheckpointError::Parse`] naming the malformed line.
    pub fn apply_checkpoint_line(&mut self, e: &Entry<'_>) -> Result<(), CheckpointError> {
        match e.key {
            "insight.meta" => {
                let mut t = e.tokens();
                self.top_k = t.num()?;
                self.seed = t.num()?;
            }
            "insight.workload" => self.workload = e.value.to_string(),
            "insight.dla" => self.dla = e.value.to_string(),
            "insight.var" => {
                // The name may contain spaces: it is everything after the
                // second field.
                let mut it = e.value.splitn(3, ' ');
                let idx: usize = e.num(it.next().unwrap_or(""))?;
                let domain_size = e.num(it.next().unwrap_or(""))?;
                if idx != self.vars.len() {
                    return Err(e.error(format!("out-of-order index {idx}")));
                }
                self.vars.push(VarCoverage {
                    name: it.next().unwrap_or("").to_string(),
                    domain_size,
                    seen: BTreeSet::new(),
                });
            }
            "insight.seen" => {
                let mut t = e.tokens();
                let idx: usize = t.num()?;
                let var = self
                    .vars
                    .get_mut(idx)
                    .ok_or_else(|| e.error(format!("references unknown var {idx}")))?;
                var.seen.extend(t.rest::<i64>()?);
            }
            "insight.round" => self.rounds.push(read_round(e)?),
            "insight.refit" => {
                let mut t = e.tokens();
                let mut rec = RefitRecord {
                    round: t.num()?,
                    samples: t.num()?,
                    train_rank_accuracy: t.bits()?,
                    train_spearman: t.bits()?,
                    top_importance: Vec::new(),
                };
                for tok in t {
                    let (idx, imp) = tok
                        .split_once(':')
                        .ok_or_else(|| e.error(format!("bad importance pair `{tok}`")))?;
                    rec.top_importance.push((e.num(idx)?, e.bits(imp)?));
                }
                self.refits.push(rec);
            }
            _ => return Err(e.error("unknown insight checkpoint key")),
        }
        Ok(())
    }
}

fn write_round(w: &mut Writer, r: &RoundRecord) {
    w.line(
        "insight.round",
        format_args!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            r.round,
            r.trials_done,
            Bits(r.best_gflops),
            Bits(r.batch_best_gflops),
            Bits(r.batch_mean_gflops),
            r.batch_size,
            r.exploit_picks,
            r.explore_picks,
            r.population,
            r.distinct_solutions,
            Bits(r.diversity),
            Bits(r.entropy_bits),
            OptBits(r.batch_rank_accuracy),
            OptBits(r.batch_spearman),
            r.repaired_offspring,
            r.relaxed_constraints,
            r.fallback_samples,
            r.solver_attempts,
            r.solver_propagations,
            r.solver_wipeouts,
            u8::from(r.stalled),
            r.solver_max_trail,
            r.solver_incremental,
        ),
    );
}

fn read_round(e: &Entry<'_>) -> Result<RoundRecord, CheckpointError> {
    let mut t = e.tokens();
    let r = RoundRecord {
        round: t.num()?,
        trials_done: t.num()?,
        best_gflops: t.bits()?,
        batch_best_gflops: t.bits()?,
        batch_mean_gflops: t.bits()?,
        batch_size: t.num()?,
        exploit_picks: t.num()?,
        explore_picks: t.num()?,
        population: t.num()?,
        distinct_solutions: t.num()?,
        diversity: t.bits()?,
        entropy_bits: t.bits()?,
        batch_rank_accuracy: t.opt_bits()?,
        batch_spearman: t.opt_bits()?,
        repaired_offspring: t.num()?,
        relaxed_constraints: t.num()?,
        fallback_samples: t.num()?,
        solver_attempts: t.num()?,
        solver_propagations: t.num()?,
        solver_wipeouts: t.num()?,
        stalled: t.flag()?,
        solver_max_trail: t.num()?,
        solver_incremental: t.num()?,
    };
    t.end()?;
    Ok(r)
}

// ----------------------------------------------------------------------
// Population statistics helpers (used by the tuner per round)
// ----------------------------------------------------------------------

/// Mean per-variable Shannon entropy (bits) of a population's tunable
/// assignments. `rows` are index-aligned assignment vectors, one per
/// population member. Empty populations (or zero-width rows) yield 0.
pub fn population_entropy_bits(rows: &[Vec<i64>]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let width = rows[0].len();
    if width == 0 {
        return 0.0;
    }
    let n = rows.len() as f64;
    let mut total = 0.0;
    for col in 0..width {
        let mut counts: BTreeMap<i64, u64> = BTreeMap::new();
        for row in rows {
            *counts.entry(row[col]).or_insert(0) += 1;
        }
        let mut h = 0.0;
        for &c in counts.values() {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
        total += h;
    }
    total / width as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> SearchLog {
        let mut log = SearchLog::new("gemm-64", "v100", 42, 3);
        log.set_vars(vec![("tile_x".to_string(), 8), ("tile y".to_string(), 4)]);
        log.observe_assignment(&[2, 1]);
        log.observe_assignment(&[4, 1]);
        let mut r0 = RoundRecord::new(0);
        r0.trials_done = 8;
        r0.best_gflops = 123.456;
        r0.batch_size = 8;
        r0.exploit_picks = 6;
        r0.explore_picks = 2;
        r0.diversity = 0.75;
        r0.entropy_bits = 1.5;
        log.push_round(r0);
        let mut r1 = RoundRecord::new(1);
        r1.trials_done = 16;
        r1.best_gflops = 150.0;
        r1.batch_rank_accuracy = Some(0.8125);
        r1.batch_spearman = Some(0.9);
        r1.solver_attempts = 321;
        r1.stalled = false;
        r1.solver_max_trail = 17;
        r1.solver_incremental = 5;
        log.push_round(r1);
        log.push_refit(RefitRecord {
            round: 1,
            samples: 16,
            train_rank_accuracy: 0.9,
            train_spearman: 0.85,
            top_importance: vec![(3, 0.5), (0, 0.25), (7, 0.125), (9, 0.0625)],
        });
        log
    }

    const HEADER: &str = "insight-lines v1";

    /// The log's checkpoint lines in a sealed kv document.
    fn checkpoint_text(log: &SearchLog) -> String {
        let mut w = Writer::new(HEADER);
        log.write_checkpoint(&mut w);
        w.seal()
    }

    fn apply(log: &mut SearchLog, key: &str, value: &str) -> Result<(), CheckpointError> {
        log.apply_checkpoint_line(&Entry {
            line: 1,
            key,
            value,
        })
    }

    #[test]
    fn checkpoint_lines_roundtrip_exactly() {
        let log = sample_log();
        let text = checkpoint_text(&log);
        let mut back = SearchLog::new("", "", 0, 0);
        for e in heron_trace::kv::unseal(&text, HEADER).unwrap() {
            back.apply_checkpoint_line(&e.unwrap()).unwrap();
        }
        assert_eq!(back, log);
        // Second serialization is byte-identical.
        assert_eq!(checkpoint_text(&back), text);
    }

    #[test]
    fn refit_importance_truncated_to_top_k() {
        let log = sample_log();
        assert_eq!(log.refits[0].top_importance.len(), 3);
    }

    #[test]
    fn malformed_checkpoint_lines_are_rejected() {
        let mut log = SearchLog::new("", "", 0, 0);
        assert!(apply(&mut log, "insight.round", "1 2 3").is_err());
        assert!(apply(&mut log, "insight.bogus", "x").is_err());
        assert!(apply(&mut log, "insight.seen", "0 1").is_err());
        assert!(apply(&mut log, "insight.refit", "0 4 nothex").is_err());
        assert!(apply(&mut log, "insight.var", "1 16 skips-index-0").is_err());
    }

    #[test]
    fn entropy_and_coverage() {
        // Uniform column over 4 values => 2 bits; constant column => 0.
        let rows: Vec<Vec<i64>> = (0..4).map(|i| vec![i, 7]).collect();
        let h = population_entropy_bits(&rows);
        assert!((h - 1.0).abs() < 1e-12, "mean of 2 and 0 bits, got {h}");
        assert_eq!(population_entropy_bits(&[]), 0.0);

        let log = sample_log();
        assert!((log.vars[0].coverage() - 0.25).abs() < 1e-12);
        assert!((log.vars[1].coverage() - 0.25).abs() < 1e-12);
    }
}
