//! Seeded worker-kill injection for the chaos harness.
//!
//! A [`ChaosPlan`] decides, as a pure function of *(job, attempt,
//! round)*, whether the worker running that attempt dies at that round
//! boundary — by **crash** (the thread vanishes without a trace, as a
//! killed process would) or by **hang** (the thread stops making
//! progress but stays alive, so only the heartbeat watchdog can tell).
//! Because the decision depends on nothing but those coordinates and
//! the plan itself, a chaos run is exactly reproducible: the same
//! script yields the same kills, the same recoveries, and — the point
//! of the whole exercise — the same final results.
//!
//! A plan is a list of **explicit rules**, one per `kill` script line,
//! for pinpoint scenarios like "crash g1's first attempt at round 3".

/// How a kill manifests to the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillKind {
    /// Worker thread exits silently mid-job — detected because the
    /// thread is finished but no completion event ever arrived.
    Crash,
    /// Worker thread stays alive but stops beating — detected by the
    /// heartbeat watchdog after the grace period.
    Hang,
}

impl std::fmt::Display for KillKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KillKind::Crash => write!(f, "crash"),
            KillKind::Hang => write!(f, "hang"),
        }
    }
}

/// One explicit kill: attempt `attempt` of `job` dies at the boundary
/// of round `round` (after the round's work, before its checkpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillRule {
    /// Job id the rule applies to.
    pub job: String,
    /// Which attempt (0 = first run, 1 = first recovery, …).
    pub attempt: u32,
    /// Lifetime round count (`rounds_total`) at which the kill fires.
    pub round: u64,
    /// Crash or hang.
    pub kind: KillKind,
}

/// A deterministic worker-kill schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    rules: Vec<KillRule>,
}

impl ChaosPlan {
    /// No kills at all.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Adds an explicit kill rule.
    pub fn push(&mut self, rule: KillRule) {
        self.rules.push(rule);
    }

    /// Number of explicit rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// True when no rule can ever fire.
    pub fn is_none(&self) -> bool {
        self.rules.is_empty()
    }

    /// The kill decision for attempt `attempt` of `job` at lifetime
    /// round `round` — pure, so every consultation of the same
    /// coordinates agrees.
    pub fn kill_at(&self, job: &str, attempt: u32, round: u64) -> Option<KillKind> {
        self.rules
            .iter()
            .find(|r| r.job == job && r.attempt == attempt && r.round == round)
            .map(|r| r.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_rules_fire_only_on_their_coordinates() {
        let mut plan = ChaosPlan::none();
        for (attempt, round, kind) in [(0, 3, KillKind::Crash), (1, 2, KillKind::Hang)] {
            plan.push(KillRule {
                job: "g1".to_string(),
                attempt,
                round,
                kind,
            });
        }
        assert_eq!(plan.kill_at("g1", 0, 3), Some(KillKind::Crash));
        assert_eq!(plan.kill_at("g1", 1, 2), Some(KillKind::Hang));
        assert_eq!(plan.kill_at("g1", 0, 2), None);
        assert_eq!(plan.kill_at("g2", 0, 3), None);
        assert!(!plan.is_none());
        assert_eq!(plan.rule_count(), 2);
    }
}
