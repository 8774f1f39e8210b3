//! Searched chaos: every small kill schedule through the service policy.
//!
//! The supervisor's decisions live in `heron_serve::Policy`, a transition
//! function with no threads or clocks, so this suite drives it on one
//! thread with synthetic workers and the real `CheckpointStore`. For
//! small job sets it enumerates every kill schedule — each attempt of each
//! job runs clean or dies at one of its rounds by crash or hang, until the
//! restart budget is spent — and crosses each schedule with
//!
//! * the dead attempt coming back after its epoch was fenced, with a late
//!   report and a late checkpoint save, and
//! * a drain before every event of the run, after which every attempt —
//!   a recovery started later included — must be asked to preempt.
//!
//! Every completed job's final report is then delivered a second time.
//! On every terminal state it checks that no job was lost or double-run,
//! that nothing from a fenced or settled attempt was accepted, that each
//! confirmed death has exactly one postmortem, that the restart budget
//! held, that every result equals the uninterrupted run's, and that the
//! policy's own schedule on the simulated clock places every recorded
//! attempt and no other, and validates with a critical path that sums to
//! its makespan.
//!
//! A synthetic job `j<i>` runs `rounds` rounds, each folding the round
//! number into a value; its record is the final value, and a checkpoint
//! is `"<round> <value>"`. Workers take turns round-robin, one round per
//! turn, exactly like `worker::run_order`: flush, then the kill check,
//! then the periodic save.

use std::collections::{BTreeMap, VecDeque};

use heron::scope::{build_scope, validate_scope};
use heron::serve::{
    parse_script, CheckpointStore, Effect, Event, JobReport, JobRow, JobSpec, JobState, KillKind,
    Policy, ServeConfig,
};

/// One job set: the jobs' round counts and the service configuration.
struct JobSet {
    rounds: Vec<u64>,
    workers: usize,
    checkpoint_every: u64,
    restart_budget: u32,
}

/// A kill schedule: per job, the `(round, kind)` each attempt dies at,
/// in attempt order; attempts past the list run clean.
type Kills = Vec<Vec<(u64, KillKind)>>;

fn fold(value: u64, round: u64) -> u64 {
    (value ^ round)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(17)
}

fn seed(job: usize) -> u64 {
    job as u64 + 1
}

fn round_ns(job: usize) -> u64 {
    (job as u64 + 1) * 1_000_000
}

fn record(job: usize, rounds: u64, value: u64) -> String {
    format!("j{job} rounds={rounds} value={value:016x}")
}

/// The uninterrupted run's final value.
fn reference(job: usize, rounds: u64) -> u64 {
    (1..=rounds).fold(seed(job), fold)
}

fn checkpoint(round: u64, value: u64) -> String {
    format!("{round} {value:x}")
}

fn parse_checkpoint(text: &str) -> (u64, u64) {
    let (round, value) = text.split_once(' ').expect("synthetic checkpoint");
    let value = u64::from_str_radix(value, 16).expect("hex value");
    (round.parse().expect("round"), value)
}

fn report(job: usize, rounds: u64, value: u64, wall_ns: u64) -> Box<JobReport> {
    Box::new(JobReport {
        job: format!("j{job}"),
        record: record(job, rounds, value),
        fingerprint: value,
        best_gflops: 1.0,
        rounds,
        trials: rounds as usize,
        termination: "finished".to_string(),
        insight_json: String::new(),
        metrics_tsv: String::new(),
        wall_ns,
        trace_jsonl: String::new(),
    })
}

/// The service configuration of `set`.
fn config(set: &JobSet) -> ServeConfig {
    ServeConfig {
        workers: set.workers,
        restart_budget: set.restart_budget,
        checkpoint_every: set.checkpoint_every,
        ..ServeConfig::default()
    }
}

/// The job spec of synthetic job `job`.
fn spec(job: usize, rounds: u64) -> JobSpec {
    let mut spec = JobSpec::new(World::id(job), "gemm", "8x8x8");
    spec.trials = rounds as usize;
    spec
}

/// `set` under `kills` as a job script: its directives, one `job` line
/// per job and one `kill` line per death, so a failing schedule can be
/// replayed by `heron_serve --jobs`.
fn script(set: &JobSet, kills: &Kills) -> String {
    let mut text = format!(
        "workers = {}\nrestart_budget = {}\ncheckpoint_every = {}\n",
        set.workers, set.restart_budget, set.checkpoint_every
    );
    for (job, &rounds) in set.rounds.iter().enumerate() {
        text += &format!("job j{job} op=gemm shape=8x8x8 trials={rounds}\n");
    }
    for (job, deaths) in kills.iter().enumerate() {
        for (attempt, (round, kind)) in deaths.iter().enumerate() {
            text += &format!("kill j{job} attempt={attempt} round={round} kind={kind}\n");
        }
    }
    text
}

/// Every kill sequence of one job: attempt `a` resumes from the last
/// checkpoint before its predecessor's fatal round (saves come after the
/// kill check), and may die at any round it runs, until a death past the
/// budget quarantines the job.
fn kill_sequences(set: &JobSet, rounds: u64) -> Vec<Vec<(u64, KillKind)>> {
    fn extend(
        set: &JobSet,
        rounds: u64,
        start: u64,
        prefix: &mut Vec<(u64, KillKind)>,
        out: &mut Vec<Vec<(u64, KillKind)>>,
    ) {
        out.push(prefix.clone());
        if prefix.len() as u32 > set.restart_budget {
            return;
        }
        for round in start + 1..=rounds {
            for kind in [KillKind::Crash, KillKind::Hang] {
                prefix.push((round, kind));
                let saved = (round - 1) / set.checkpoint_every * set.checkpoint_every;
                extend(set, rounds, start.max(saved), prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(set, rounds, 0, &mut Vec::new(), &mut out);
    out
}

/// One synthetic worker attempt.
struct Attempt {
    job: usize,
    attempt: u32,
    epoch: u64,
    slot: usize,
    start_round: u64,
    round: u64,
    value: u64,
    preempt: bool,
    /// Hung at its last round; it beats no more.
    hung: bool,
    /// Declared dead (crashed, or hung and cancelled): its next turn is
    /// its last.
    dead: bool,
}

impl Attempt {
    fn sim_ns(&self) -> u64 {
        (self.round - self.start_round) * round_ns(self.job)
    }

    fn key(&self) -> (usize, u64) {
        (self.job, self.epoch)
    }
}

/// One run's world: the policy, the store, the synthetic workers and
/// everything the checks need.
struct World<'a> {
    set: &'a JobSet,
    kills: &'a Kills,
    late: bool,
    policy: Policy,
    store: CheckpointStore,
    attempts: BTreeMap<(usize, u64), Attempt>,
    turns: VecDeque<(usize, u64)>,
    /// Deaths the policy confirmed: `(job, attempt, reason)`.
    deaths: Vec<(String, u32, &'static str)>,
    postmortems: Vec<(String, u32, &'static str)>,
    /// Each completed job's final report, for redelivery.
    finals: Vec<Event>,
    drained: bool,
    steps: usize,
}

impl World<'_> {
    fn id(job: usize) -> String {
        format!("j{job}")
    }

    fn step(&mut self, event: Event) -> Result<(), String> {
        self.steps += 1;
        self.drained |= event == Event::Drain;
        for effect in self.policy.step(event) {
            match effect {
                Effect::Start {
                    slot,
                    spec,
                    attempt,
                    epoch,
                    ..
                } => {
                    let job: usize = spec.id[1..].parse().expect("synthetic id");
                    if self.store.open_epoch(&spec.id) != epoch {
                        return Err(format!(
                            "{}: policy epoch {epoch} is not the store's",
                            spec.id
                        ));
                    }
                    let (start_round, value) = match self.store.load(&spec.id) {
                        Some(text) => parse_checkpoint(&text),
                        None => (0, seed(job)),
                    };
                    let a = Attempt {
                        job,
                        attempt,
                        epoch,
                        slot,
                        start_round,
                        round: start_round,
                        value,
                        preempt: false,
                        hung: false,
                        dead: false,
                    };
                    self.turns.push_back(a.key());
                    self.attempts.insert(a.key(), a);
                }
                Effect::Fence { job, epoch } => {
                    if self.store.open_epoch(&job) != epoch {
                        return Err(format!("{job}: policy epoch {epoch} is not the store's"));
                    }
                }
                Effect::Preempt { job, epoch } => self.with(&job, epoch, |a| a.preempt = true),
                Effect::Cancel { job, epoch } => self.with(&job, epoch, |a| a.dead = true),
                Effect::Postmortem {
                    job,
                    attempt,
                    reason,
                    ..
                } => self.postmortems.push((job, attempt, reason)),
            }
        }
        // A drain preempts every live attempt, whenever it started.
        if let Some(a) = self
            .attempts
            .values()
            .find(|a| self.drained && !a.dead && !a.preempt)
        {
            return Err(format!(
                "j{} attempt {} runs on after the drain",
                a.job, a.attempt
            ));
        }
        // No job runs twice: an attempt is its job's live one exactly
        // when it is not dead (the policy tracks one per job, so a second
        // working attempt fails here), and live attempts hold distinct
        // slots of the pool.
        let mut slots = vec![false; self.set.workers];
        for a in self.attempts.values() {
            let live = self.policy.is_live(&Self::id(a.job), a.epoch);
            if live == a.dead {
                return Err(format!(
                    "j{} epoch {}: live {live}, dead {}",
                    a.job, a.epoch, a.dead
                ));
            }
            if live && (a.slot >= slots.len() || std::mem::replace(&mut slots[a.slot], true)) {
                return Err(format!("j{}: slot {} is not free", a.job, a.slot));
            }
        }
        Ok(())
    }

    fn with(&mut self, job: &str, epoch: u64, f: impl FnOnce(&mut Attempt)) {
        let job: usize = job[1..].parse().expect("synthetic id");
        if let Some(a) = self.attempts.get_mut(&(job, epoch)) {
            f(a);
        }
    }

    /// Delivers a message that must change nothing: a fenced attempt's
    /// report or a redelivered one.
    fn deliver_stale(&mut self, event: Event) -> Result<(), String> {
        let before: Vec<JobRow> = self.policy.rows();
        self.step(event.clone())?;
        if self.policy.rows() != before {
            return Err(format!("accepted a stale message: {event:?}"));
        }
        Ok(())
    }

    /// One turn of attempt `key`: a round of work, or its death throes.
    fn turn(&mut self, key: (usize, u64)) -> Result<(), String> {
        let mut a = self.attempts.remove(&key).expect("a queued attempt exists");
        let id = Self::id(a.job);
        let rounds = self.set.rounds[a.job];
        let exited = |a: &Attempt| Event::Exited {
            job: id.clone(),
            epoch: a.epoch,
            rounds: a.round,
            sim_ns: a.sim_ns(),
        };
        if a.dead {
            // A fenced attempt's last gasp: a report and a save that must
            // both lose, then (for a hang) its thread's exit.
            if self.late {
                let stale = a.value ^ 1;
                let late = Event::Completed {
                    job: id.clone(),
                    epoch: a.epoch,
                    report: report(a.job, a.round, stale, a.sim_ns()),
                };
                self.deliver_stale(late)?;
                if self.store.save(&id, a.epoch, checkpoint(a.round, stale)) {
                    return Err(format!(
                        "{id}: dead attempt {}'s late save landed",
                        a.attempt
                    ));
                }
            }
            if a.hung {
                self.step(exited(&a))?;
            }
            return Ok(());
        }
        if a.hung {
            // The watchdog confirms the stall; the Cancel effect marks
            // the attempt dead.
            self.deaths.push((id.clone(), a.attempt, "hang"));
            let stalled = Event::Stalled {
                job: id.clone(),
                epoch: a.epoch,
                rounds: a.round,
                sim_ns: a.sim_ns(),
            };
            self.attempts.insert(key, a);
            self.step(stalled)?;
            if !self.attempts[&key].dead {
                return Err(format!("{id}: a confirmed hang was not cancelled"));
            }
            self.turns.push_back(key);
            return Ok(());
        }
        if a.preempt {
            self.store.save(&id, a.epoch, checkpoint(a.round, a.value));
            let preempted = Event::Preempted {
                job: id.clone(),
                epoch: a.epoch,
                rounds: a.round,
                trials: a.round as usize,
                wall_ns: a.sim_ns(),
            };
            self.step(preempted)?;
            return self.step(exited(&a));
        }
        a.round += 1;
        a.value = fold(a.value, a.round);
        let kill = self.kills[a.job]
            .get(a.attempt as usize)
            .filter(|(round, _)| *round == a.round);
        match kill.map(|(_, kind)| *kind) {
            Some(KillKind::Crash) => {
                self.deaths.push((id.clone(), a.attempt, "crash"));
                self.step(exited(&a))?;
                a.dead = true;
            }
            Some(KillKind::Hang) => a.hung = true,
            None => {
                if a.round.is_multiple_of(self.set.checkpoint_every) {
                    self.store.save(&id, a.epoch, checkpoint(a.round, a.value));
                }
                if a.round == rounds {
                    let done = Event::Completed {
                        job: id.clone(),
                        epoch: a.epoch,
                        report: report(a.job, a.round, a.value, a.sim_ns()),
                    };
                    self.finals.push(done.clone());
                    self.step(done)?;
                    return self.step(exited(&a));
                }
            }
        }
        if !a.dead || self.late {
            self.turns.push_back(key);
            self.attempts.insert(key, a);
        }
        Ok(())
    }

    /// The checks on a terminal state.
    fn check(&mut self) -> Result<(), String> {
        if !self.policy.settled() {
            return Err("no worker is left but the policy is not settled".to_string());
        }
        for event in std::mem::take(&mut self.finals) {
            self.deliver_stale(event)?;
        }
        let budget = self.set.restart_budget;
        let mut expected = self.deaths.clone();
        let timeline = heron::serve::timeline(&self.policy);
        let mut left_off = 0;
        for row in self.policy.rows() {
            let job: usize = row.id[1..].parse().expect("synthetic id");
            // The policy's schedule places attempts 0..n of the job: all n
            // it ran, unless a drain's position left some off.
            let placed = timeline.runs.iter().filter(|r| r.job == job);
            let n = placed.clone().count() as u32;
            if !placed.map(|r| r.attempt).eq(0..n)
                || n > row.attempts
                || (!self.drained && n != row.attempts)
            {
                return Err(format!(
                    "{}: ran {} attempts, placed {n}",
                    row.id, row.attempts
                ));
            }
            left_off += (row.attempts - n) as usize;
            let rounds = self.set.rounds[job];
            let deaths = self.deaths.iter().filter(|d| d.0 == row.id).count() as u32;
            let truth = reference(job, rounds);
            match row.state {
                JobState::Completed => {
                    let got = self.policy.report(&row.id).map(|r| r.record.as_str());
                    if got != Some(record(job, rounds, truth).as_str()) {
                        return Err(format!("{}: result {got:?} is not the reference", row.id));
                    }
                }
                JobState::Preempted => {
                    let text = self
                        .store
                        .load(&row.id)
                        .ok_or("preempted without a checkpoint")?;
                    let (round, value) = parse_checkpoint(&text);
                    if (round + 1..=rounds).fold(value, fold) != truth {
                        return Err(format!("{}: its checkpoint does not resume", row.id));
                    }
                }
                JobState::Quarantined => {
                    expected.push((row.id.clone(), row.attempts - 1, "quarantine"))
                }
                JobState::Queued if self.drained => {}
                state => return Err(format!("{} was lost in state {state}", row.id)),
            }
            if row.recoveries != deaths
                || row.attempts > budget + 1
                || (row.state == JobState::Quarantined) != (deaths > budget)
            {
                return Err(format!(
                    "{}: budget {budget}, {deaths} deaths, {row:?}",
                    row.id
                ));
            }
        }
        let completed = self
            .policy
            .rows()
            .iter()
            .filter(|r| r.state == JobState::Completed)
            .count();
        if self
            .policy
            .tracer()
            .counter("serve.jobs_completed")
            .unwrap_or(0)
            != completed as u64
        {
            return Err("a job completed twice".to_string());
        }
        expected.sort();
        self.postmortems.sort();
        if self.postmortems != expected {
            return Err(format!(
                "postmortems {:?}, expected {expected:?}",
                self.postmortems
            ));
        }
        if timeline.unplaced != left_off {
            return Err(format!(
                "the timeline counts {} attempts left off, not {left_off}",
                timeline.unplaced
            ));
        }
        let scope = build_scope(&timeline, &[]);
        validate_scope(&scope)?;
        let ns = |key: &str| scope.get(key).and_then(|v| v.as_u64());
        if ns("critical_sum_ns") != ns("makespan_ns") {
            return Err("the critical path does not sum to the makespan".to_string());
        }
        Ok(())
    }
}

/// Runs one scenario to its terminal state and checks it; returns the
/// number of turns taken (the drain's possible positions) and of policy
/// steps.
fn run(
    set: &JobSet,
    kills: &Kills,
    late: bool,
    drain_at: Option<usize>,
) -> Result<(usize, usize), String> {
    let mut world = World {
        set,
        kills,
        late,
        policy: Policy::new(config(set)),
        store: CheckpointStore::new(),
        attempts: BTreeMap::new(),
        turns: VecDeque::new(),
        deaths: Vec::new(),
        postmortems: Vec::new(),
        finals: Vec::new(),
        drained: false,
        steps: 0,
    };
    for (job, &rounds) in set.rounds.iter().enumerate() {
        world
            .policy
            .submit(spec(job, rounds))
            .map_err(|e| e.to_string())?;
    }
    world.step(Event::Run)?;
    let mut turns = 0;
    while let Some(key) = world.turns.pop_front() {
        if drain_at == Some(turns) {
            world.step(Event::Drain)?;
        }
        turns += 1;
        if turns > 1_000 {
            return Err("no progress after 1000 turns".to_string());
        }
        world.turn(key)?;
    }
    world.check()?;
    Ok((turns, world.steps))
}

/// Every schedule of `set`, crossed with the late zombie and every drain
/// position; returns the numbers of terminal states checked and of policy
/// steps taken.
fn explore(set: &JobSet) -> (usize, usize) {
    let per_job: Vec<_> = set.rounds.iter().map(|&r| kill_sequences(set, r)).collect();
    let mut schedules: Vec<Kills> = vec![Vec::new()];
    for sequences in &per_job {
        schedules = schedules
            .iter()
            .flat_map(|prefix| {
                sequences.iter().map(move |s| {
                    let mut kills = prefix.clone();
                    kills.push(s.clone());
                    kills
                })
            })
            .collect();
    }
    let (mut states, mut steps) = (0, 0);
    for kills in &schedules {
        for late in [false, true] {
            let mut drain_at = None;
            let mut turns = 1;
            while drain_at.is_none_or(|k| k < turns) {
                let (n, s) = run(set, kills, late, drain_at).unwrap_or_else(|e| {
                    let script = script(set, kills);
                    panic!("late {late}, drain before turn {drain_at:?}: {e}\n{script}")
                });
                if drain_at.is_none() {
                    turns = n;
                }
                (states, steps) = (states + 1, steps + s);
                drain_at = Some(drain_at.map_or(0, |k| k + 1));
            }
        }
    }
    (states, steps)
}

#[test]
fn a_failing_schedule_prints_as_a_job_script_that_parses_back() {
    let set = JobSet {
        rounds: vec![3, 1],
        workers: 2,
        checkpoint_every: 2,
        restart_budget: 1,
    };
    let kills: Kills = vec![vec![(2, KillKind::Crash), (3, KillKind::Hang)], vec![]];
    let text = script(&set, &kills);
    assert!(
        text.contains("kill j0 attempt=1 round=3 kind=hang\n"),
        "{text}"
    );
    let parsed = parse_script(&text).expect("the printed script parses");
    assert_eq!(parsed.config, config(&set));
    assert_eq!(parsed.jobs, [spec(0, 3), spec(1, 1)]);
    assert_eq!(parsed.plan.rule_count(), 2);
    for (job, deaths) in kills.iter().enumerate() {
        for (attempt, &(round, kind)) in deaths.iter().enumerate() {
            let id = format!("j{job}");
            assert_eq!(parsed.plan.kill_at(&id, attempt as u32, round), Some(kind));
        }
    }
}

#[test]
fn every_small_kill_schedule_keeps_the_service_contracts() {
    let sets = [
        // One job, three rounds, a checkpoint every two: deaths before
        // and after a checkpoint, and a resumed attempt that dies again.
        JobSet {
            rounds: vec![3],
            workers: 1,
            checkpoint_every: 2,
            restart_budget: 1,
        },
        // Two jobs on one worker: the second waits in the queue behind
        // every recovery of the first.
        JobSet {
            rounds: vec![2, 2],
            workers: 1,
            checkpoint_every: 1,
            restart_budget: 1,
        },
        // Three one-round jobs on two workers: slots freed and reused
        // while a zombie is still around.
        JobSet {
            rounds: vec![1, 1, 1],
            workers: 2,
            checkpoint_every: 1,
            restart_budget: 1,
        },
    ];
    let (mut states, mut steps) = (0, 0);
    for set in &sets {
        let (n, s) = explore(set);
        (states, steps) = (states + n, steps + s);
    }
    eprintln!("serve_explore: {states} terminal states, {steps} policy steps");
    assert!(
        states > 10_000,
        "the search shrank: {states} terminal states"
    );
}
