//! Classic exploration baselines: random search, simulated annealing, and
//! the traditional genetic algorithm (paper Figures 2 and 12).
//!
//! All three operate on concrete chromosomes. SA and GA mutate/crossover
//! tunable values directly, so in Heron's irregular constrained space most
//! of their offspring are invalid — the inefficiency the paper's Figure 2
//! demonstrates. RAND samples valid programs through the solver, which is
//! why it is a surprisingly strong baseline there.

use heron_csp::{validate, Solution, SolvePolicy, SolveSession};
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
        let mut curve = Vec::with_capacity(steps);
        let mut session = SolveSession::new(&space.csp);
        let quiet = Tracer::disabled();
        while curve.len() < steps {
            let batch = session.solve(rng, 16.min(steps - curve.len()), &SAMPLE, &quiet);
            if batch.solutions.is_empty() {
                break;
            }
            for sol in batch.solutions {
                let score = measure(&sol).unwrap_or_default();
                push_best(&mut curve, score);
                if curve.len() >= steps {
                    break;
                }
            }
        }
        curve
    }
}

/// Replaces one random tunable with a random value from its declared
/// domain — the classic mutation that ignores all constraints.
pub fn mutate_tunable(space: &GeneratedSpace, sol: &Solution, rng: &mut HeronRng) -> Solution {
    let tunables = space.csp.tunables();
    let mut values = sol.values().to_vec();
    if let Some(&var) = tunables.as_slice().choose(rng) {
        let domain = &space.csp.var(var).domain;
        let options: Vec<i64> = domain.iter_values().collect();
        if let Some(&v) = options.as_slice().choose(rng) {
            values[var.0] = v;
        }
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
#[derive(Debug)]
pub struct SaExplorer {
    /// Initial temperature relative to typical score.
    pub start_temp: f64,
    /// Multiplicative cooling per step.
    pub cooling: f64,
}

impl Default for SaExplorer {
    fn default() -> Self {
        SaExplorer {
            start_temp: 1.0,
            cooling: 0.98,
        }
    }
}

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
        let mut curve = Vec::with_capacity(steps);
        let mut session = SolveSession::new(&space.csp);
        // Initial valid program from the solver (as in the paper's setup).
        let Some(start) = session.solve(rng, 1, &SAMPLE, &Tracer::disabled()).one() else {
            return curve;
        };
        let mut current = start;
        let mut current_score = measure(&current).unwrap_or_default();
        push_best(&mut curve, current_score);
        let mut temp = self.start_temp * current_score.max(1.0);
        while curve.len() < steps {
            temp *= self.cooling;
            let proposal = mutate_tunable(space, &current, rng);
            let Some(candidate) = complete_from_tunables(&mut session, &proposal, rng) else {
                // Invalid neighbour: the move is wasted (a failed trial).
                push_best(&mut curve, 0.0);
                continue;
            };
            let score = measure(&candidate).unwrap_or_default();
            push_best(&mut curve, score);
            let accept = score >= current_score
                || rng.random::<f64>() < ((score - current_score) / temp.max(1e-9)).exp();
            if accept {
                current = candidate;
                current_score = score;
            }
        }
        curve
    }
}

/// Traditional GA: single-point crossover and value mutation on concrete
/// chromosomes; invalid offspring are measured as failures (score 0) and
/// replaced by random restarts.
#[derive(Debug)]
pub struct GaExplorer {
    /// Population size.
    pub population: usize,
    /// Mutation probability per offspring.
    pub mutation_rate: f64,
}

impl Default for GaExplorer {
    fn default() -> Self {
        GaExplorer {
            population: 20,
            mutation_rate: 0.3,
        }
    }
}

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
        let mut curve = Vec::with_capacity(steps);
        let mut session = SolveSession::new(&space.csp);
        let quiet = Tracer::disabled();
        let init = session.solve(rng, self.population, &SAMPLE, &quiet);
        if init.solutions.is_empty() {
            return curve;
        }
        let mut pop: Vec<Chromosome> = Vec::new();
        for sol in init.solutions {
            if curve.len() >= steps {
                break;
            }
            let fitness = measure(&sol).unwrap_or_default();
            push_best(&mut curve, fitness);
            pop.push(Chromosome {
                solution: sol,
                fitness,
            });
        }
        while curve.len() < steps {
            let parents = roulette_wheel(&pop, 2, rng);
            let child = crossover_tunables(
                space,
                &pop[parents[0]].solution,
                &pop[parents[1]].solution,
                rng,
            );
            let child = if rng.random::<f64>() < self.mutation_rate {
                mutate_tunable(space, &child, rng)
            } else {
                child
            };
            match complete_from_tunables(&mut session, &child, rng) {
                Some(sol) => {
                    let fitness = measure(&sol).unwrap_or_default();
                    push_best(&mut curve, fitness);
                    pop.push(Chromosome {
                        solution: sol,
                        fitness,
                    });
                }
                None => {
                    // Invalid offspring: wasted trial + random restart, the
                    // behaviour the paper observes for plain GA.
                    push_best(&mut curve, 0.0);
                    if let Some(sol) = session.solve(rng, 1, &REPAIR, &quiet).one() {
                        if curve.len() < steps {
                            let fitness = measure(&sol).unwrap_or_default();
                            push_best(&mut curve, fitness);
                            pop.push(Chromosome {
                                solution: sol,
                                fitness,
                            });
                        }
                    }
                }
            }
            // Bound the population.
            pop.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
            pop.truncate(self.population);
        }
        curve
    }
}
