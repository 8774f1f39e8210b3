//! The constraint-based genetic algorithm (paper Algorithms 2 and 3).
//!
//! The defining move: crossover and mutation act on **CSPs**, not on
//! concrete chromosomes. Each offspring is described by
//! `CSP_initial + IN(v, [c1_v, c2_v]) for key variables v` minus one
//! randomly removed crossover constraint (mutation); a `RandSAT` call then
//! materialises a concrete, *guaranteed-valid* chromosome.
//!
//! Hardening (see DESIGN.md §6, "Solver-side failure & repair"): an
//! offspring CSP whose injected `IN` constraints over-constrain the space
//! is *repaired* by dropping the most-recently-injected constraint and
//! retrying, instead of being silently discarded. An offspring that cannot
//! be repaired is replaced by a fresh random sample of `CSP_initial`; the
//! tuner that drives the evolution bails out after a bounded number of
//! stalled rounds instead of spinning forever.

use heron_csp::{Solution, SolvePolicy, SolveSession, SolveStats, SolveStatus, VarRef};
use heron_dla::Measurer;
use heron_rng::HeronRng;
use heron_rng::IndexedRandom;
use heron_rng::Rng;
use heron_trace::Tracer;

use crate::generate::GeneratedSpace;
use crate::model::CostModel;
use crate::tuner::{TuneConfig, Tuner};

use super::{roulette_wheel, Chromosome, Evaluate, Explorer};

/// Builds one offspring: Algorithm 3 for a single offspring, in *pin
/// form* — the crossover `IN` constraints compiled to `(variable, allowed
/// values)` pairs for [`SolveSession::solve_pinned`] instead of posted on
/// a clone of `CSP_initial`.
///
/// `key_vars` are the cost-model-selected variables; `c1`/`c2` the two
/// parent chromosomes. Crossover yields one pin per key variable (values
/// sorted and deduplicated, as `solve_pinned` requires); mutation drops
/// one of them at random (one RNG draw).
pub fn offspring_pins<R: Rng>(
    key_vars: &[VarRef],
    c1: &Solution,
    c2: &Solution,
    rng: &mut R,
) -> Vec<(VarRef, Vec<i64>)> {
    if key_vars.is_empty() {
        return Vec::new();
    }
    // Step-3 mutation: drop one crossover constraint at random.
    let dropped = rng.random_range(0..key_vars.len());
    let mut pins = Vec::with_capacity(key_vars.len().saturating_sub(1));
    for (idx, &v) in key_vars.iter().enumerate() {
        if idx == dropped {
            continue;
        }
        let mut values = vec![c1.value(v), c2.value(v)];
        values.sort_unstable();
        values.dedup();
        pins.push((v, values));
    }
    pins
}

/// Result of materialising one offspring, possibly after repair.
#[derive(Debug, Clone)]
pub struct OffspringOutcome {
    /// The concrete chromosome, or `None` when even the fully relaxed
    /// offspring (== `CSP_initial`) could not be solved.
    pub solution: Option<Solution>,
    /// How many injected crossover constraints were dropped to make the
    /// offspring solvable (0 == solved as posted).
    pub relaxed: u32,
    /// Solver counters aggregated over every solve attempt (initial and
    /// repair retries).
    pub stats: SolveStats,
}

/// Materialises an offspring chromosome from its `pins`
/// (see [`offspring_pins`]), solved incrementally from the session's
/// cached root fixpoint, repairing over-constrained offspring.
///
/// Repair policy: when the pinned space yields no solution, drop the
/// **most recently injected** pin (last first) and retry, until either a
/// solution appears or all pins are gone. Constraints of `CSP_initial` are
/// never touched, so any returned solution satisfies it by construction.
///
/// Emits `csp.repairs` (+1 per repaired offspring) and
/// `csp.relaxed_constraints` (+dropped count) on the tracer.
pub fn materialize_offspring<R: Rng>(
    session: &mut SolveSession,
    mut pins: Vec<(VarRef, Vec<i64>)>,
    rng: &mut R,
    policy: &SolvePolicy,
    tracer: &Tracer,
) -> OffspringOutcome {
    let mut relaxed = 0u32;
    let mut stats = SolveStats::default();
    loop {
        let outcome = session.solve_pinned(&pins, rng, 1, policy, tracer);
        stats.absorb(&outcome.stats);
        let solution = outcome.one();
        if solution.is_some() && relaxed > 0 {
            tracer.counter_add("csp.repairs", 1);
            tracer.counter_add("csp.relaxed_constraints", u64::from(relaxed));
        }
        if solution.is_some() || pins.pop().is_none() {
            return OffspringOutcome {
                solution,
                relaxed,
                stats,
            };
        }
        relaxed += 1;
    }
}

/// Configuration of the CGA explorer.
#[derive(Debug, Clone, Copy)]
pub struct CgaConfig {
    /// Population size per iteration.
    pub population: usize,
    /// Generations evolved between measurement rounds (Algorithm 2 Step 2).
    pub generations: usize,
    /// Offspring produced per generation.
    pub offspring: usize,
    /// Number of key variables extracted from the cost model.
    pub key_vars: usize,
    /// Candidates measured per iteration (Algorithm 2 Step 3).
    pub measure_batch: usize,
    /// Backtracking budget per RandSAT call.
    pub solver_budget: u32,
}

impl CgaConfig {
    /// The solve policy implied by this configuration (budget escalation
    /// enabled, from the configured budget).
    pub fn solver_policy(&self) -> SolvePolicy {
        SolvePolicy::default().with_budget(self.solver_budget)
    }
}

impl Default for CgaConfig {
    fn default() -> Self {
        CgaConfig {
            population: 40,
            generations: 3,
            offspring: 24,
            key_vars: 8,
            measure_batch: 16,
            solver_budget: 400,
        }
    }
}

/// What one [`evolve_population`] call did, for the caller's robustness
/// counters and search-health log.
#[derive(Debug, Clone, Copy)]
pub struct GenerationStats {
    /// Classification of the Step-1 populate solve.
    pub populate_status: SolveStatus,
    /// Solver work on `CSP_initial`: the populate solve plus the fallback
    /// samples.
    pub fresh: SolveStats,
    /// Solver work materialising offspring (pinned re-solves, repair
    /// retries included).
    pub offspring: SolveStats,
    /// Offspring that needed at least one pin dropped.
    pub repaired_offspring: usize,
    /// Total pins dropped across all repairs.
    pub relaxed_constraints: usize,
    /// Offspring replaced by a fresh random sample of `CSP_initial`.
    pub fallback_samples: usize,
}

/// Algorithm 2 Steps 1–2, called once per round by
/// [`crate::tuner::Tuner::step`] (and so by [`CgaExplorer`]): populate
/// the first generation from `survivors` plus fresh `RandSAT` samples of
/// `CSP_initial`, then evolve `cfg.generations` generations on CSPs
/// (roulette-wheel parents, key variables, [`offspring_pins`] +
/// [`materialize_offspring`], a fresh sample in place of an unrecoverable
/// offspring), keeping the best `2 × population` by predicted fitness.
///
/// Key variables come from `model` once it is fitted; before that, or
/// always with `random_keys` (the CGA-1 ablation), they are drawn at
/// random among the tunables. An empty returned population means Step 1
/// produced nothing — [`GenerationStats::populate_status`] says why.
///
/// Records spans `cga.populate` / `cga.evolve` and the `cga.*` counters
/// on `tracer`.
pub fn evolve_population(
    session: &mut SolveSession,
    model: &CostModel,
    survivors: &[Chromosome],
    cfg: &CgaConfig,
    random_keys: bool,
    rng: &mut HeronRng,
    tracer: &Tracer,
) -> (Vec<Chromosome>, GenerationStats) {
    let policy = cfg.solver_policy();
    let scored = |solution: Solution| Chromosome {
        fitness: model.predict(&solution),
        solution,
    };

    // Step-1: first generation = survivors + fresh random solutions.
    let need = cfg.population.saturating_sub(survivors.len());
    let populate_span = tracer.span_with("cga.populate", || [("need", need.to_string())]);
    let outcome = session.solve(rng, need, &policy, tracer);
    let mut stats = GenerationStats {
        populate_status: outcome.status,
        fresh: outcome.stats,
        offspring: SolveStats::default(),
        repaired_offspring: 0,
        relaxed_constraints: 0,
        fallback_samples: 0,
    };
    tracer.counter_add("cga.fresh_sampled", outcome.solutions.len() as u64);
    drop(populate_span);
    let mut pop = survivors.to_vec();
    pop.extend(outcome.solutions.into_iter().map(scored));
    if pop.is_empty() {
        return (pop, stats);
    }

    // Step-2: evolve on CSPs.
    let _evolve_span = tracer.span_with("cga.evolve", || {
        [("generations", cfg.generations.to_string())]
    });
    for _ in 0..cfg.generations {
        let parents = roulette_wheel(&pop, pop.len().min(cfg.population), rng);
        let key_vars = if model.is_fitted() && !random_keys {
            model.key_variables(cfg.key_vars)
        } else {
            let tunables = session.csp().tunables();
            let mut keys = Vec::new();
            for _ in 0..cfg.key_vars.min(tunables.len()) {
                if let Some(&v) = tunables.as_slice().choose(rng) {
                    keys.push(v);
                }
            }
            keys.sort_unstable();
            keys.dedup();
            keys
        };
        let mut children = Vec::with_capacity(cfg.offspring);
        for _ in 0..cfg.offspring {
            let &i1 = parents.as_slice().choose(rng).expect("non-empty");
            let &i2 = parents.as_slice().choose(rng).expect("non-empty");
            let pins = offspring_pins(&key_vars, &pop[i1].solution, &pop[i2].solution, rng);
            tracer.counter_add("cga.offspring_attempted", 1);
            let off = materialize_offspring(session, pins, rng, &policy, tracer);
            stats.offspring.absorb(&off.stats);
            if off.solution.is_some() && off.relaxed > 0 {
                stats.repaired_offspring += 1;
                stats.relaxed_constraints += off.relaxed as usize;
            }
            match off.solution {
                Some(sol) => children.push(scored(sol)),
                None => {
                    tracer.counter_add("cga.offspring_invalid", 1);
                    // Graceful degradation: replace the unrecoverable
                    // offspring with a fresh sample of CSP_initial so the
                    // generation keeps its size.
                    let fallback = session.solve(rng, 1, &policy, tracer);
                    stats.fresh.absorb(&fallback.stats);
                    if let Some(sol) = fallback.one() {
                        stats.fallback_samples += 1;
                        tracer.counter_add("cga.fallback_samples", 1);
                        children.push(scored(sol));
                    }
                }
            }
        }
        pop.extend(children);
        // NaN predictions are sanitised to -inf at the model, so
        // total_cmp yields a strict deterministic order.
        pop.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
        pop.truncate(cfg.population * 2);
    }
    (pop, stats)
}

/// The CGA explorer: an [`Explorer`] adapter over the product [`Tuner`],
/// so Figures 12 and 13 measure the loop every tuning session runs.
#[derive(Debug, Default)]
pub struct CgaExplorer {
    /// CGA-1 ablation: choose key variables at random instead of by
    /// feature importance.
    random_key_vars: bool,
}

impl CgaExplorer {
    /// Full CGA with model-derived key variables.
    pub fn new() -> Self {
        CgaExplorer::default()
    }

    /// The CGA-1 variant (random key variables) of Figure 13.
    pub fn cga1() -> Self {
        CgaExplorer {
            random_key_vars: true,
        }
    }
}

impl Explorer for CgaExplorer {
    fn name(&self) -> &'static str {
        if self.random_key_vars {
            "CGA-1"
        } else {
            "CGA"
        }
    }

    /// Runs a [`Tuner`] for `steps` trials under [`TuneConfig::paper`]
    /// (its CGA settings included), on a fault-free [`Measurer`] of
    /// `space.dla`, seeded with one draw from `rng`, and returns its
    /// best-so-far curve. The tuner measures each candidate itself, so
    /// `measure` is never called.
    fn explore(
        &mut self,
        space: &GeneratedSpace,
        _measure: &mut Evaluate<'_>,
        steps: usize,
        rng: &mut HeronRng,
    ) -> Vec<f64> {
        let config = TuneConfig {
            trials: steps,
            ..TuneConfig::paper()
        };
        let measurer = Measurer::new(space.dla.clone());
        let mut tuner = Tuner::new(space.clone(), measurer, config, rng.random::<u64>());
        tuner.random_key_vars = self.random_key_vars;
        tuner.run().curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_csp::{Csp, Domain, VarCategory};

    fn toy_csp() -> Csp {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::values([1, 2, 4, 8, 16]), VarCategory::Tunable);
        let y = csp.add_var("y", Domain::values([1, 2, 4, 8, 16]), VarCategory::Tunable);
        let n = csp.add_const("n", 16);
        csp.post_prod(n, vec![x, y]);
        csp
    }

    fn materialize(csp: &Csp, pins: Vec<(VarRef, Vec<i64>)>, seed: u64) -> OffspringOutcome {
        materialize_offspring(
            &mut SolveSession::new(csp),
            pins,
            &mut HeronRng::from_seed(seed),
            &SolvePolicy::fixed(500),
            &Tracer::disabled(),
        )
    }

    #[test]
    fn offspring_satisfy_initial_constraints() {
        let csp = toy_csp();
        let mut rng = HeronRng::from_seed(0);
        let parents = heron_testkit::solve_once(&csp, &mut rng, 2, &SolvePolicy::default())
            .expect_sat("toy csp");
        let keys: Vec<VarRef> = csp.tunables();
        let mut session = SolveSession::new(&csp);
        let policy = SolvePolicy::default();
        for _ in 0..20 {
            let pins = offspring_pins(&keys, &parents[0], &parents[1], &mut rng);
            let out = session.solve_pinned(&pins, &mut rng, 2, &policy, &Tracer::disabled());
            for sol in out.solutions {
                assert!(heron_csp::validate(&csp, &sol));
                for (v, allowed) in &pins {
                    assert!(allowed.contains(&sol.value(*v)), "pin not honoured");
                }
            }
        }
    }

    #[test]
    fn mutation_removes_exactly_one_constraint() {
        let csp = toy_csp();
        let mut rng = HeronRng::from_seed(1);
        let parents = heron_testkit::solve_once(&csp, &mut rng, 2, &SolvePolicy::default())
            .expect_sat("toy csp");
        let keys: Vec<VarRef> = csp.tunables();
        let pins = offspring_pins(&keys, &parents[0], &parents[1], &mut rng);
        assert_eq!(pins.len(), keys.len() - 1);
        assert!(offspring_pins(&[], &parents[0], &parents[1], &mut rng).is_empty());
    }

    #[test]
    fn repair_recovers_over_constrained_offspring() {
        // x in {1} alone is satisfiable (y == 16), but y in {3} is not:
        // 3 is outside y's domain, so the pinned space is empty until
        // repair drops that pin.
        let csp = toy_csp();
        let pins = vec![(VarRef(0), vec![1]), (VarRef(1), vec![3])];
        let out = materialize(&csp, pins, 7);
        let sol = out.solution.expect("repair must recover a solution");
        assert!(heron_csp::validate(&csp, &sol));
        assert!(out.relaxed >= 1, "must have dropped the impossible pin");
    }

    #[test]
    fn session_repair_recovers_over_constrained_pins() {
        // x pinned to {2} is satisfiable; the later y pin to {3} (not in
        // the domain) is poison — repair must drop it and keep x == 2.
        let csp = toy_csp();
        let pins = vec![(VarRef(0), vec![2]), (VarRef(1), vec![3])];
        let out = materialize(&csp, pins, 7);
        let sol = out.solution.expect("solvable after one drop");
        assert_eq!(out.relaxed, 1);
        assert_eq!(sol.value(VarRef(0)), 2, "older pin must survive repair");
        assert!(heron_csp::validate(&csp, &sol));
        assert!(out.stats.incremental_hits >= 1);
    }

    #[test]
    fn unrepairable_offspring_returns_none() {
        // CSP_initial itself is infeasible: no amount of relaxation helps.
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::values([1, 2]), VarCategory::Tunable);
        let n = csp.add_const("n", 7);
        csp.post_prod(n, vec![x]);
        let out = materialize(&csp, vec![(x, vec![1])], 3);
        assert!(out.solution.is_none());
        assert_eq!(out.relaxed, 1, "tried dropping the one injected pin");
    }
}
