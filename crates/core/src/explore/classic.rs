//! Classic exploration baselines: random search, simulated annealing, and
//! the traditional genetic algorithm (paper Figures 2 and 12).
//!
//! All three operate on concrete chromosomes. SA and GA mutate/crossover
//! tunable values directly, so in Heron's irregular constrained space most
//! of their offspring are invalid — the inefficiency the paper's Figure 2
//! demonstrates. RAND samples valid programs through the solver, which is
//! why it is a surprisingly strong baseline there.

use heron_csp::{validate, Solution, SolvePolicy, SolveSession, VarRef};
use heron_rng::HeronRng;
use heron_rng::IndexedRandom;
use heron_rng::Rng;
use heron_trace::Tracer;

use crate::generate::GeneratedSpace;

use super::{push_best, roulette_wheel, Chromosome, Evaluate, Explorer};

/// The budget of the baselines' fresh samples.
pub(super) const SAMPLE: SolvePolicy = SolvePolicy::fixed(400);
/// The budget of their re-solves under pinned tunables, and of a random
/// restart after an invalid offspring.
pub(super) const REPAIR: SolvePolicy = SolvePolicy::fixed(200);
/// Population size of every GA baseline (GA, GA-1, GA-2, GA-3).
pub(super) const POPULATION: usize = 20;
/// Share of GA and GA-2 offspring that are mutated after crossover.
const MUTATION_RATE: f64 = 0.3;
/// SA's initial temperature, relative to the first measured score.
const START_TEMP: f64 = 1.0;
/// SA's multiplicative cooling per step.
const COOLING: f64 = 0.98;

/// A baseline's trial budget: spends up to `steps` measurements through
/// the `measure` callback and keeps the best-so-far curve that
/// [`Explorer::explore`] returns.
pub(super) struct Trials<'m, 'a> {
    measure: &'m mut Evaluate<'a>,
    steps: usize,
    curve: Vec<f64>,
}

impl<'m, 'a> Trials<'m, 'a> {
    pub(super) fn new(measure: &'m mut Evaluate<'a>, steps: usize) -> Self {
        Trials {
            measure,
            steps,
            curve: Vec::with_capacity(steps),
        }
    }

    /// Trials not yet spent.
    pub(super) fn left(&self) -> usize {
        self.steps - self.curve.len()
    }

    /// Measures `sol` as one trial and returns its score (0 for an
    /// invalid program).
    pub(super) fn measure(&mut self, sol: &Solution) -> f64 {
        let score = (self.measure)(sol).unwrap_or_default();
        push_best(&mut self.curve, score);
        score
    }

    /// Spends one trial on a program that fails before it runs.
    pub(super) fn waste(&mut self) {
        push_best(&mut self.curve, 0.0);
    }

    /// Draws `n` fresh solver samples and measures them while trials are
    /// left: the seed population (empty when the space yields none).
    pub(super) fn seed(
        &mut self,
        session: &mut SolveSession,
        n: usize,
        rng: &mut HeronRng,
    ) -> Vec<Chromosome> {
        let batch = session.solve(rng, n, &SAMPLE, &Tracer::disabled());
        let left = self.left();
        batch
            .solutions
            .into_iter()
            .take(left)
            .map(|solution| Chromosome {
                fitness: self.measure(&solution),
                solution,
            })
            .collect()
    }

    /// The best-so-far score after each trial spent.
    pub(super) fn curve(self) -> Vec<f64> {
        self.curve
    }
}

/// Random search: every step measures a fresh solver sample.
#[derive(Debug, Default)]
pub struct RandomExplorer;

impl Explorer for RandomExplorer {
    fn name(&self) -> &'static str {
        "RAND"
    }

    fn explore(
        &mut self,
        space: &GeneratedSpace,
        measure: &mut Evaluate<'_>,
        steps: usize,
        rng: &mut HeronRng,
    ) -> Vec<f64> {
        let mut trials = Trials::new(measure, steps);
        let mut session = SolveSession::new(&space.csp);
        while trials.left() > 0 {
            if trials
                .seed(&mut session, trials.left().min(16), rng)
                .is_empty()
            {
                break;
            }
        }
        trials.curve()
    }
}

/// A uniform draw from `var`'s declared domain.
pub(super) fn random_value(space: &GeneratedSpace, var: VarRef, rng: &mut HeronRng) -> i64 {
    let domain = &space.csp.var(var).domain;
    let i = rng.random_range(0..domain.size() as usize);
    domain.iter_values().nth(i).expect("drawn below the size")
}

/// Replaces one random tunable with a random value from its declared
/// domain — the classic mutation that ignores all constraints.
pub fn mutate_tunable(space: &GeneratedSpace, sol: &Solution, rng: &mut HeronRng) -> Solution {
    let tunables = space.csp.tunables();
    let mut values = sol.values().to_vec();
    if let Some(&var) = tunables.as_slice().choose(rng) {
        values[var.0] = random_value(space, var, rng);
    }
    Solution::new(values)
}

/// Repairs the auxiliary variables after tunables changed, by re-solving
/// the session's CSP with every tunable pinned. Returns `None` when the
/// tunable assignment is inconsistent — the common case that makes plain
/// GA/SA flounder.
pub fn complete_from_tunables(
    session: &mut SolveSession,
    tunable_values: &Solution,
    rng: &mut HeronRng,
) -> Option<Solution> {
    let pins: Vec<_> = session
        .csp()
        .tunables()
        .into_iter()
        .map(|var| (var, vec![tunable_values.value(var)]))
        .collect();
    let sol = session
        .solve_pinned(&pins, rng, 1, &REPAIR, &Tracer::disabled())
        .one()?;
    validate(session.csp(), &sol).then_some(sol)
}

/// Simulated annealing over tunable assignments.
#[derive(Debug, Default)]
pub struct SaExplorer;

impl Explorer for SaExplorer {
    fn name(&self) -> &'static str {
        "SA"
    }

    fn explore(
        &mut self,
        space: &GeneratedSpace,
        measure: &mut Evaluate<'_>,
        steps: usize,
        rng: &mut HeronRng,
    ) -> Vec<f64> {
        let mut trials = Trials::new(measure, steps);
        let mut session = SolveSession::new(&space.csp);
        // Initial valid program from the solver (as in the paper's setup).
        let Some(Chromosome {
            solution: mut current,
            fitness: mut current_score,
        }) = trials.seed(&mut session, 1, rng).pop()
        else {
            return trials.curve();
        };
        let mut temp = START_TEMP * current_score.max(1.0);
        while trials.left() > 0 {
            temp *= COOLING;
            let proposal = mutate_tunable(space, &current, rng);
            let Some(candidate) = complete_from_tunables(&mut session, &proposal, rng) else {
                // Invalid neighbour: the move is wasted (a failed trial).
                trials.waste();
                continue;
            };
            let score = trials.measure(&candidate);
            let accept = score >= current_score
                || rng.random::<f64>() < ((score - current_score) / temp.max(1e-9)).exp();
            if accept {
                current = candidate;
                current_score = score;
            }
        }
        trials.curve()
    }
}

/// Traditional GA: single-point crossover and value mutation on concrete
/// chromosomes; invalid offspring are measured as failures (score 0) and
/// replaced by random restarts.
#[derive(Debug, Default)]
pub struct GaExplorer;

/// Single-point crossover over the tunable positions.
pub fn crossover_tunables(
    space: &GeneratedSpace,
    a: &Solution,
    b: &Solution,
    rng: &mut HeronRng,
) -> Solution {
    let tunables = space.csp.tunables();
    let mut values = a.values().to_vec();
    if tunables.len() >= 2 {
        let point = rng.random_range(1..tunables.len());
        for var in &tunables[point..] {
            values[var.0] = b.value(*var);
        }
    }
    Solution::new(values)
}

/// GA and GA-2's offspring genotype: two roulette-wheel parents, crossed
/// over, then mutated at [`MUTATION_RATE`].
pub(super) fn breed(space: &GeneratedSpace, pop: &[Chromosome], rng: &mut HeronRng) -> Solution {
    let parents = roulette_wheel(pop, 2, rng);
    let (a, b) = (&pop[parents[0]].solution, &pop[parents[1]].solution);
    let child = crossover_tunables(space, a, b, rng);
    if rng.random::<f64>() < MUTATION_RATE {
        mutate_tunable(space, &child, rng)
    } else {
        child
    }
}

/// Keeps the [`POPULATION`] fittest chromosomes, fittest first.
pub(super) fn keep_fittest(pop: &mut Vec<Chromosome>) {
    pop.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
    pop.truncate(POPULATION);
}

impl Explorer for GaExplorer {
    fn name(&self) -> &'static str {
        "GA"
    }

    fn explore(
        &mut self,
        space: &GeneratedSpace,
        measure: &mut Evaluate<'_>,
        steps: usize,
        rng: &mut HeronRng,
    ) -> Vec<f64> {
        let mut trials = Trials::new(measure, steps);
        let mut session = SolveSession::new(&space.csp);
        let mut pop = trials.seed(&mut session, POPULATION, rng);
        while !pop.is_empty() && trials.left() > 0 {
            let child = breed(space, &pop, rng);
            match complete_from_tunables(&mut session, &child, rng) {
                Some(solution) => pop.push(Chromosome {
                    fitness: trials.measure(&solution),
                    solution,
                }),
                None => {
                    // Invalid offspring: wasted trial + random restart, the
                    // behaviour the paper observes for plain GA.
                    trials.waste();
                    let restart = session.solve(rng, 1, &REPAIR, &Tracer::disabled());
                    if let Some(solution) = restart.one().filter(|_| trials.left() > 0) {
                        pop.push(Chromosome {
                            fitness: trials.measure(&solution),
                            solution,
                        });
                    }
                }
            }
            keep_fittest(&mut pop);
        }
        trials.curve()
    }
}
