//! Constraint-handling GA variants compared in the paper's Figure 13:
//!
//! * **GA-1** — stochastic ranking (Runarsson & Yao): candidates are
//!   ranked by a randomised bubble sort that compares objective value with
//!   probability `p_f` and constraint violation otherwise; invalid
//!   chromosomes survive but sink.
//! * **GA-2** — SAT-decoder (Lukasiewycz et al.): genotypes are free
//!   tunable vectors decoded to the nearest valid phenotype by the CSP
//!   solver; validity is guaranteed but decoded phenotypes drift from the
//!   parents, losing good genes as problems grow.
//! * **GA-3** — infeasibility-driven multi-objective (Ray et al.):
//!   selection keeps a Pareto mix of objective and violation count.

use heron_csp::{Csp, Solution, SolveSession};
use heron_rng::HeronRng;
use heron_rng::IndexedRandom;
use heron_rng::Rng;
use heron_trace::Tracer;

use crate::generate::GeneratedSpace;

use super::classic::{
    breed, complete_from_tunables, crossover_tunables, keep_fittest, mutate_tunable, random_value,
    Trials, POPULATION, REPAIR,
};
use super::{Chromosome, Evaluate, Explorer};

/// GA-1's probability of comparing by objective even for an infeasible
/// pair.
const P_F: f64 = 0.45;
/// Share of GA-3's population reserved for infeasible chromosomes.
const INFEASIBLE_FRACTION: f64 = 0.2;

/// Number of violated constraints of an assignment.
pub fn violation_count(csp: &Csp, sol: &Solution) -> usize {
    let env = |r: heron_csp::VarRef| sol.value(r);
    csp.constraints().iter().filter(|c| !c.check(&env)).count()
}

/// A chromosome annotated with its violation count.
#[derive(Debug, Clone)]
struct Ranked {
    solution: Solution,
    fitness: f64,
    violations: usize,
}

/// GA-1 and GA-3's seed population: half a population of solver
/// samples, measured while trials are left.
fn seed_ranked(
    space: &GeneratedSpace,
    session: &mut SolveSession,
    trials: &mut Trials<'_, '_>,
    rng: &mut HeronRng,
) -> Vec<Ranked> {
    let seeds = trials.seed(session, POPULATION / 2, rng);
    seeds
        .into_iter()
        .map(|c| Ranked {
            violations: violation_count(&space.csp, &c.solution),
            solution: c.solution,
            fitness: c.fitness,
        })
        .collect()
}

/// GA-1 and GA-3's parent pick: a uniformly random member.
fn pick<'p>(pop: &'p [Ranked], rng: &mut HeronRng) -> &'p Solution {
    &pop.choose(rng).expect("non-empty").solution
}

/// GA-1 and GA-3's offspring step: mutates `child`, completes its
/// auxiliaries or keeps the raw (violating) assignment when inconsistent,
/// and measures it only when feasible. An infeasible offspring still
/// spends a trial (a compile failure).
fn offspring(
    space: &GeneratedSpace,
    session: &mut SolveSession,
    trials: &mut Trials<'_, '_>,
    child: &Solution,
    rng: &mut HeronRng,
) -> Ranked {
    let child = mutate_tunable(space, child, rng);
    let solution = complete_from_tunables(session, &child, rng).unwrap_or(child);
    let violations = violation_count(&space.csp, &solution);
    let fitness = if violations == 0 {
        trials.measure(&solution)
    } else {
        trials.waste();
        0.0
    };
    Ranked {
        solution,
        fitness,
        violations,
    }
}

/// GA-1: stochastic ranking.
#[derive(Debug, Default)]
pub struct StochasticRankingGa;

fn stochastic_rank(pop: &mut [Ranked], p_f: f64, rng: &mut HeronRng) {
    let n = pop.len();
    for _ in 0..n {
        let mut swapped = false;
        for i in 0..n.saturating_sub(1) {
            let both_feasible = pop[i].violations == 0 && pop[i + 1].violations == 0;
            let by_objective = both_feasible || rng.random::<f64>() < p_f;
            let should_swap = if by_objective {
                pop[i].fitness < pop[i + 1].fitness
            } else {
                pop[i].violations > pop[i + 1].violations
            };
            if should_swap {
                pop.swap(i, i + 1);
                swapped = true;
            }
        }
        if !swapped {
            break;
        }
    }
}

/// Generates a completely random (likely invalid) tunable assignment with
/// auxiliaries copied from a template solution.
fn random_genotype(space: &GeneratedSpace, base: &Solution, rng: &mut HeronRng) -> Solution {
    let mut values = base.values().to_vec();
    for var in space.csp.tunables() {
        values[var.0] = random_value(space, var, rng);
    }
    Solution::new(values)
}

impl Explorer for StochasticRankingGa {
    fn name(&self) -> &'static str {
        "GA-1"
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
        let mut pop = seed_ranked(space, &mut session, &mut trials, rng);
        while !pop.is_empty() && trials.left() > 0 {
            // Produce an offspring by crossover+mutation on raw genotypes.
            let child = crossover_tunables(space, pick(&pop, rng), pick(&pop, rng), rng);
            pop.push(offspring(space, &mut session, &mut trials, &child, rng));
            stochastic_rank(&mut pop, P_F, rng);
            pop.truncate(POPULATION);
        }
        trials.curve()
    }
}

/// GA-2: SAT-decoder GA.
#[derive(Debug, Default)]
pub struct SatDecoderGa;

/// Decodes a genotype to a valid phenotype of the session's CSP: pins
/// each tunable to its gene value *if the propagated domain still allows
/// it*, otherwise to the nearest remaining value, then solves.
pub fn sat_decode(
    session: &mut SolveSession,
    genotype: &Solution,
    rng: &mut HeronRng,
) -> Option<Solution> {
    use heron_csp::propagate::Propagator;
    let tunables = session.csp().tunables();
    let prop = Propagator::new(session.csp());
    let mut store = prop.store();
    if prop.run_all(&mut store).is_err() {
        return None;
    }
    let quiet = Tracer::disabled();
    for &var in &tunables {
        let gene = genotype.value(var);
        let pick = if store.contains(var.0, gene) {
            gene
        } else {
            // Nearest value in the current domain (of an interval: bound).
            let mut options = Vec::new();
            store.branch_values(var.0, &mut options);
            *options
                .iter()
                .min_by_key(|&&v| (v - gene).abs())
                .expect("domains are non-empty")
        };
        if store.fix(var.0, pick).is_err() || prop.run_from(&mut store, var).is_err() {
            // Re-solve from scratch for the remainder.
            return session.solve(rng, 1, &REPAIR, &quiet).one();
        }
    }
    // Complete any remaining free variables through the solver with pins.
    let pins: Vec<_> = tunables
        .into_iter()
        .filter_map(|var| Some((var, vec![store.fixed_value(var.0)?])))
        .collect();
    session.solve_pinned(&pins, rng, 1, &REPAIR, &quiet).one()
}

impl Explorer for SatDecoderGa {
    fn name(&self) -> &'static str {
        "GA-2"
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
        // Genotypes evolve freely; phenotypes are decoded before measuring.
        let mut pop = trials.seed(&mut session, POPULATION, rng);
        while !pop.is_empty() && trials.left() > 0 {
            let geno = breed(space, &pop, rng);
            let Some(pheno) = sat_decode(&mut session, &geno, rng) else {
                trials.waste();
                continue;
            };
            debug_assert!(heron_csp::validate(&space.csp, &pheno));
            pop.push(Chromosome {
                fitness: trials.measure(&pheno),
                solution: pheno,
            });
            keep_fittest(&mut pop);
        }
        trials.curve()
    }
}

/// GA-3: infeasibility-driven evolutionary algorithm (simplified IDEA):
/// a fraction of the archive is reserved for the *best infeasible*
/// chromosomes, the rest selected by objective among the feasible.
#[derive(Debug, Default)]
pub struct InfeasibilityDrivenGa;

impl Explorer for InfeasibilityDrivenGa {
    fn name(&self) -> &'static str {
        "GA-3"
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
        let mut pop = seed_ranked(space, &mut session, &mut trials, rng);
        let slots_inf = (POPULATION as f64 * INFEASIBLE_FRACTION).round() as usize;
        while !pop.is_empty() && trials.left() > 0 {
            let a = pick(&pop, rng);
            let child = if rng.random::<f64>() < 0.5 {
                crossover_tunables(space, a, pick(&pop, rng), rng)
            } else {
                random_genotype(space, a, rng)
            };
            pop.push(offspring(space, &mut session, &mut trials, &child, rng));

            // IDEA-style environmental selection.
            let (mut feas, mut infeas): (Vec<Ranked>, Vec<Ranked>) =
                pop.drain(..).partition(|c| c.violations == 0);
            feas.sort_by(|x, y| y.fitness.total_cmp(&x.fitness));
            infeas.sort_by_key(|c| c.violations);
            feas.truncate(POPULATION - slots_inf.min(infeas.len()));
            infeas.truncate(slots_inf);
            pop = feas;
            pop.extend(infeas);
        }
        trials.curve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_csp::{Domain, VarCategory};

    fn toy_space() -> GeneratedSpace {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::divisors_of(64), VarCategory::Tunable);
        let y = csp.add_var("y", Domain::divisors_of(64), VarCategory::Tunable);
        let n = csp.add_const("n", 64);
        csp.post_prod(n, vec![x, y]);
        GeneratedSpace {
            csp: csp.into(),
            template: heron_sched::KernelTemplate::default(),
            dla: heron_dla::v100(),
            workload: "toy".into(),
        }
    }

    #[test]
    fn violation_count_detects_broken_prod() {
        let space = toy_space();
        assert_eq!(
            violation_count(&space.csp, &Solution::new(vec![8, 8, 64])),
            0
        );
        assert_eq!(
            violation_count(&space.csp, &Solution::new(vec![8, 4, 64])),
            1
        );
    }

    #[test]
    fn sat_decode_returns_valid_phenotypes() {
        let space = toy_space();
        let mut session = SolveSession::new(&space.csp);
        let mut rng = HeronRng::from_seed(0);
        // Genotype violating x*y == 64.
        let geno = Solution::new(vec![8, 16, 64]);
        let pheno = sat_decode(&mut session, &geno, &mut rng).expect("decodes");
        assert!(heron_csp::validate(&space.csp, &pheno));
        // Decoder keeps the first gene (pinned while consistent).
        assert_eq!(pheno.value(heron_csp::VarRef(0)), 8);
    }

    #[test]
    fn stochastic_rank_sinks_violators() {
        let mut rng = HeronRng::from_seed(1);
        let mut pop: Vec<Ranked> = vec![
            Ranked {
                solution: Solution::new(vec![]),
                fitness: 9.0,
                violations: 5,
            },
            Ranked {
                solution: Solution::new(vec![]),
                fitness: 1.0,
                violations: 0,
            },
            Ranked {
                solution: Solution::new(vec![]),
                fitness: 5.0,
                violations: 0,
            },
        ];
        // With p_f = 0 ranking is purely by violations then objective.
        stochastic_rank(&mut pop, 0.0, &mut rng);
        assert_eq!(pop[0].violations, 0);
        assert!(pop[0].fitness >= pop[1].fitness || pop[1].violations == 0);
        assert_eq!(pop[2].violations, 5);
    }
}
