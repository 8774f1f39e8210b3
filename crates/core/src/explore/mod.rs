//! Constrained space exploration (the paper's Section 5).
//!
//! [`cga`] implements the constraint-based genetic algorithm; [`classic`]
//! the RAND / SA / GA baselines of Figures 2 and 12; [`variants`] the
//! constraint-handling techniques of Figure 13 (CGA-1, GA-1 stochastic
//! ranking, GA-2 SAT-decoder, GA-3 infeasibility-driven).
//!
//! All explorers share one interface: they spend a budget of *measurement
//! steps* (hardware trials) and report the best-so-far score after each
//! step, which is exactly how the paper plots exploration efficiency.
//!
//! No explorer has a setting. The CGA explorers run
//! [`crate::tuner::TuneConfig::paper`]. The baselines are unit structs
//! whose settings are private constants:
//!
//! * every GA (GA, GA-1, GA-2, GA-3) keeps a population of 20
//!   (`classic::POPULATION`); GA-1 and GA-3 seed it with 10 samples;
//! * GA and GA-2 mutate 30 % of their offspring (`classic::MUTATION_RATE`);
//! * GA-1 compares an infeasible pair by objective with probability 0.45
//!   (`variants::P_F`);
//! * GA-3 reserves 20 % of its population for infeasible chromosomes
//!   (`variants::INFEASIBLE_FRACTION`);
//! * SA starts at temperature 1.0 × its first score
//!   (`classic::START_TEMP`) and cools by 0.98 per step
//!   (`classic::COOLING`).

pub mod cga;
pub mod classic;
pub mod variants;

use heron_csp::Solution;
use heron_rng::HeronRng;
use heron_rng::IndexedRandom;
use heron_rng::Rng;

/// Measurement callback: evaluates one candidate, returning its score in
/// Gops, or `None` when the program is invalid (compile/run failure).
pub type Evaluate<'a> = dyn FnMut(&Solution) -> Option<f64> + 'a;

/// A scored population member.
#[derive(Debug, Clone)]
pub struct Chromosome {
    /// The concrete assignment.
    pub solution: Solution,
    /// Fitness score (0 for invalid programs).
    pub fitness: f64,
}

/// An exploration algorithm with a measured-trial budget.
pub trait Explorer {
    /// Short display name (`CGA`, `GA-2`, …).
    fn name(&self) -> &'static str;

    /// Spends up to `steps` measurements and returns the best-so-far score
    /// after each of them (length == number of measurements actually
    /// performed). `measure` scores one candidate, except under
    /// [`cga::CgaExplorer`], which runs the product tuner on its own
    /// fault-free measurer of `space.dla` and never calls `measure`.
    fn explore(
        &mut self,
        space: &crate::generate::GeneratedSpace,
        measure: &mut Evaluate<'_>,
        steps: usize,
        rng: &mut HeronRng,
    ) -> Vec<f64>;
}

/// Roulette-wheel selection: draws `n` indices with probability
/// proportional to fitness (uniform when all fitness is 0).
pub fn roulette_wheel<R: Rng>(pop: &[Chromosome], n: usize, rng: &mut R) -> Vec<usize> {
    assert!(!pop.is_empty(), "cannot select from an empty population");
    let total: f64 = pop.iter().map(|c| c.fitness.max(0.0)).sum();
    let mut picks = Vec::with_capacity(n);
    for _ in 0..n {
        if total <= 0.0 {
            picks.push(rng.random_range(0..pop.len()));
            continue;
        }
        let mut ticket = rng.random::<f64>() * total;
        let mut chosen = pop.len() - 1;
        for (i, c) in pop.iter().enumerate() {
            ticket -= c.fitness.max(0.0);
            if ticket <= 0.0 {
                chosen = i;
                break;
            }
        }
        picks.push(chosen);
    }
    picks
}

/// The result of one ε-greedy selection round, with the exploit/explore
/// split that the search-health log records per round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpsGreedyPicks {
    /// Chosen indices into the candidate slice, in pick order.
    pub picks: Vec<usize>,
    /// Picks that took the greedy (best-predicted) branch.
    pub exploit: u32,
    /// Picks that took the random-exploration branch.
    pub explore: u32,
}

/// ε-greedy selection of `n` candidates for measurement: with probability
/// `1 - eps` the best-predicted unmeasured candidate, otherwise a random
/// one. Returns indices into `predicted` plus counts of how many picks
/// were greedy vs random.
pub fn eps_greedy<R: Rng>(predicted: &[f64], n: usize, eps: f64, rng: &mut R) -> EpsGreedyPicks {
    let mut order: Vec<usize> = (0..predicted.len()).collect();
    // total_cmp: NaN predictions are sanitised to -inf at the model, so
    // the order is strict and deterministic.
    order.sort_by(|&a, &b| predicted[b].total_cmp(&predicted[a]));
    let mut picked = Vec::with_capacity(n);
    let mut used = vec![false; predicted.len()];
    let mut next_best = 0usize;
    let mut exploit = 0u32;
    let mut explore = 0u32;
    while picked.len() < n && picked.len() < predicted.len() {
        let greedy = rng.random::<f64>() >= eps;
        let idx = if greedy {
            while next_best < order.len() && used[order[next_best]] {
                next_best += 1;
            }
            if next_best >= order.len() {
                break;
            }
            order[next_best]
        } else {
            let free: Vec<usize> = (0..predicted.len()).filter(|&i| !used[i]).collect();
            match free.as_slice().choose(rng) {
                Some(&i) => i,
                None => break,
            }
        };
        if greedy {
            exploit += 1;
        } else {
            explore += 1;
        }
        used[idx] = true;
        picked.push(idx);
    }
    EpsGreedyPicks {
        picks: picked,
        exploit,
        explore,
    }
}

/// Extends a best-so-far curve with a new score.
pub(crate) fn push_best(curve: &mut Vec<f64>, score: f64) {
    let prev = curve.last().copied().unwrap_or_default();
    curve.push(prev.max(score));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(fit: &[f64]) -> Vec<Chromosome> {
        fit.iter()
            .map(|&f| Chromosome {
                solution: Solution::new(vec![]),
                fitness: f,
            })
            .collect()
    }

    #[test]
    fn roulette_prefers_fit() {
        let p = pop(&[1.0, 100.0, 1.0]);
        let mut rng = HeronRng::from_seed(0);
        let picks = roulette_wheel(&p, 300, &mut rng);
        let ones = picks.iter().filter(|&&i| i == 1).count();
        assert!(ones > 200, "fit chromosome under-selected: {ones}");
    }

    #[test]
    fn roulette_uniform_when_zero() {
        let p = pop(&[0.0, 0.0, 0.0, 0.0]);
        let mut rng = HeronRng::from_seed(1);
        let picks = roulette_wheel(&p, 400, &mut rng);
        for i in 0..4 {
            let cnt = picks.iter().filter(|&&x| x == i).count();
            assert!(cnt > 50, "index {i} starved: {cnt}");
        }
    }

    #[test]
    fn eps_greedy_zero_eps_is_pure_ranking() {
        let pred = [0.5, 3.0, 1.0, 2.0];
        let mut rng = HeronRng::from_seed(2);
        let picks = eps_greedy(&pred, 3, 0.0, &mut rng).picks;
        assert_eq!(picks, vec![1, 3, 2]);
    }

    #[test]
    fn eps_greedy_never_repeats() {
        let pred = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut rng = HeronRng::from_seed(3);
        let picks = eps_greedy(&pred, 5, 0.8, &mut rng).picks;
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), picks.len());
    }

    #[test]
    fn eps_greedy_splits_exploit_and_explore() {
        let pred = [0.5, 3.0, 1.0, 2.0, 4.0, 0.1];
        for eps in [0.0, 0.3, 1.0] {
            let mut rng = HeronRng::from_seed(9);
            let d = eps_greedy(&pred, 4, eps, &mut rng);
            assert_eq!(
                (d.exploit + d.explore) as usize,
                d.picks.len(),
                "eps = {eps}"
            );
        }
        // Pure greed / pure exploration pin the split exactly.
        let mut rng = HeronRng::from_seed(4);
        let d = eps_greedy(&pred, 3, 0.0, &mut rng);
        assert_eq!((d.exploit, d.explore), (3, 0));
        let d = eps_greedy(&pred, 3, 1.0, &mut rng);
        assert_eq!((d.exploit, d.explore), (0, 3));
    }

    #[test]
    fn best_curve_is_monotone() {
        let mut curve = Vec::new();
        for s in [1.0, 0.5, 3.0, 2.0] {
            push_best(&mut curve, s);
        }
        assert_eq!(curve, vec![1.0, 1.0, 3.0, 3.0]);
    }
}
