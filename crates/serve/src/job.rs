//! Job specifications, the deterministic job-script language, and the
//! service configuration.
//!
//! A *job* is one tuning session: workload × platform × budget, plus the
//! session knobs a tenant may set (seed, fault rate, a per-job round
//! deadline). Jobs arrive as lines of a plain-text **job script** — the
//! in-process, no-network stand-in for a submission API — together with
//! service-level directives (`workers`, `queue_capacity`, …) and chaos
//! `kill` rules for the recovery harness:
//!
//! ```text
//! # one tuning service run
//! workers = 3
//! queue_capacity = 5
//! restart_budget = 2
//! checkpoint_every = 2
//!
//! job g1 op=gemm shape=96x96x96 trials=40 seed=11
//! job g2 op=gemv shape=256x256x8 trials=32 seed=13 fault_rate=0.15
//! kill g1 attempt=0 round=3 kind=crash
//! ```
//!
//! Everything here is `Result`-based (no process exits): the daemon must
//! reject a malformed job with a reason, not die.

use heron_dla::DlaSpec;
use heron_tensor::ops::Conv2dConfig;
use heron_trace::kv;
use heron_workloads::{OpKind, Workload};

use crate::plan::{ChaosPlan, KillKind, KillRule};

/// Why a job spec (or the script containing it) was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Operator name not in the supported set.
    UnknownOp(String),
    /// Shape has the wrong number of `x`-separated dimensions for the op.
    BadShape {
        /// Operator whose shape was malformed.
        op: String,
        /// Number of dimensions the operator requires.
        expected: usize,
        /// Number of dimensions actually supplied.
        got: usize,
    },
    /// A shape component that is not a positive integer (a convolution's
    /// padding may also be 0).
    BadDimension {
        /// Operator whose shape was malformed.
        op: String,
        /// The offending component.
        component: String,
    },
    /// A convolution whose kernel is larger than its padded input, so
    /// its output is empty.
    EmptyOutput {
        /// The convolution.
        op: String,
        /// The shape as given.
        shape: String,
    },
    /// No platform with this name in `heron_dla::platforms::all()`.
    UnknownPlatform(String),
    /// A script line that could not be parsed; carries line number and
    /// reason.
    BadScript {
        /// 1-based line number in the job script.
        line: usize,
        /// Human-readable reason the line was rejected.
        reason: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::UnknownOp(op) => write!(f, "unknown op `{op}`"),
            JobError::BadShape { op, expected, got } => {
                write!(
                    f,
                    "op `{op}` expects {expected} shape components, got {got}"
                )
            }
            JobError::BadDimension { op, component } => write!(
                f,
                "op `{op}` shape component `{component}` is not a positive integer"
            ),
            JobError::EmptyOutput { op, shape } => write!(
                f,
                "op `{op}` shape `{shape}` has an empty output: the kernel is larger than the padded input"
            ),
            JobError::UnknownPlatform(p) => write!(f, "unknown platform `{p}`"),
            JobError::BadScript { line, reason } => {
                write!(f, "job script line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// One tuning job: what to tune, where, and with what budget.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job id (admission rejects duplicates).
    pub id: String,
    /// Operator name (`gemm`, `bmm`, `gemv`, `scan`, `c1d`, `c2d`, `c3d`).
    pub op: String,
    /// `x`-separated shape, e.g. `1024x1024x1024`.
    pub shape: String,
    /// Target platform name (see `heron_dla::platforms::all()`).
    pub dla: String,
    /// Trial budget for the session.
    pub trials: usize,
    /// Session seed; the whole run is a deterministic function of it.
    pub seed: u64,
    /// Measurement fault-injection rate (0 disables).
    pub fault_rate: f64,
    /// Per-job lifetime round deadline (0 = none): the session preempts
    /// itself with `Termination::Preempted` once `rounds_total` reaches
    /// this bound — the same path the supervisor's drain uses.
    pub deadline_rounds: u64,
}

impl JobSpec {
    /// A job with the service defaults: v100, 48 trials, seed 2023, no
    /// faults, no deadline.
    pub fn new(id: impl Into<String>, op: impl Into<String>, shape: impl Into<String>) -> Self {
        JobSpec {
            id: id.into(),
            op: op.into(),
            shape: shape.into(),
            dla: "v100".to_string(),
            trials: 48,
            seed: 2023,
            fault_rate: 0.0,
            deadline_rounds: 0,
        }
    }

    /// Resolves the workload, or says exactly why it cannot be built.
    pub fn workload(&self) -> Result<Workload, JobError> {
        parse_workload(&self.op, &self.shape)
    }

    /// Resolves the target platform spec.
    pub fn platform(&self) -> Result<DlaSpec, JobError> {
        heron_dla::platforms::by_name(&self.dla)
            .ok_or_else(|| JobError::UnknownPlatform(self.dla.clone()))
    }

    /// Validates the spec without building anything expensive; admission
    /// runs this so a bad job is rejected at submit time with a reason.
    pub fn validate(&self) -> Result<(), JobError> {
        self.workload()?;
        self.platform()?;
        Ok(())
    }
}

/// Service-level knobs, settable from script directives.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker pool size (max concurrently running sessions).
    pub workers: usize,
    /// Bounded admission queue capacity; submits past it are rejected
    /// with [`crate::queue::AdmitError::QueueFull`].
    pub queue_capacity: usize,
    /// How many *recoveries* a job gets before it is quarantined as
    /// poisoned (budget 2 ⇒ attempts 0, 1, 2 may run; a third failure
    /// quarantines).
    pub restart_budget: u32,
    /// Periodic checkpoint cadence in rounds (every worker snapshots the
    /// session to the store each time `rounds_total` is a multiple).
    pub checkpoint_every: u64,
    /// Supervisor poll period while waiting for worker events.
    pub poll_interval_ms: u64,
    /// Consecutive polls a live worker's heartbeat may stand still
    /// before the supervisor declares a hang. Generous by default so a
    /// slow debug-build round is never mistaken for a hang.
    pub hang_grace_polls: u32,
    /// Simulated backoff (seconds on the service trace's manual clock)
    /// before restart attempt 1; doubles per attempt.
    pub backoff_base_s: f64,
    /// Stop assigning and preempt all running jobs once this many jobs
    /// have completed (0 = never; used to exercise graceful drain
    /// deterministically from a script).
    pub drain_after_completions: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            restart_budget: 2,
            checkpoint_every: 2,
            poll_interval_ms: 10,
            hang_grace_polls: 500,
            backoff_base_s: 0.5,
            drain_after_completions: 0,
        }
    }
}

/// A fully parsed job script: configuration, jobs in submission order,
/// and the chaos kill plan.
#[derive(Debug, Clone, PartialEq)]
pub struct JobScript {
    /// Service configuration assembled from the directives.
    pub config: ServeConfig,
    /// Jobs in script (submission) order.
    pub jobs: Vec<JobSpec>,
    /// Kill-injection rules for the chaos harness.
    pub plan: ChaosPlan,
}

/// Parses a job script. Jobs are validated syntactically (`key=value`
/// form, numeric fields parse) but *not* semantically — admission owns
/// workload/platform validation so a bad job is rejected, not fatal.
/// Lines are read by [`kv::lines`], so blank lines and `#` comments,
/// whole-line or trailing, are skipped.
pub fn parse_script(text: &str) -> Result<JobScript, JobError> {
    let mut config = ServeConfig::default();
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut plan = ChaosPlan::none();

    for line in kv::lines(text) {
        let bad = |reason: String| JobError::BadScript {
            line: line.line,
            reason,
        };
        // Directives are `key = value` with a bare identifier key; job/kill
        // statements start with a keyword and contain spaces before any `=`.
        let directive = line.entry().filter(|d| {
            !d.key.is_empty()
                && d.key
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_')
        });
        if let Some(kv::Entry { key, value: v, .. }) = directive {
            let not_num = || bad(format!("`{key}` is not a number: `{v}`"));
            let c = &mut config;
            match key {
                "workers" => c.workers = v.parse().map_err(|_| not_num())?,
                "queue_capacity" => c.queue_capacity = v.parse().map_err(|_| not_num())?,
                "restart_budget" => c.restart_budget = v.parse().map_err(|_| not_num())?,
                "checkpoint_every" => c.checkpoint_every = v.parse().map_err(|_| not_num())?,
                "poll_interval_ms" => c.poll_interval_ms = v.parse().map_err(|_| not_num())?,
                "hang_grace_polls" => c.hang_grace_polls = v.parse().map_err(|_| not_num())?,
                "drain_after_completions" => {
                    c.drain_after_completions = v.parse().map_err(|_| not_num())?
                }
                other => return Err(bad(format!("unknown directive `{other}`"))),
            }
            continue;
        }
        let mut words = line.tokens();
        match words.next().unwrap_or_default() {
            "job" => {
                let id = words
                    .next()
                    .ok_or_else(|| bad("`job` needs an id".to_string()))?;
                let mut spec = JobSpec::new(id, "", "");
                for field in words {
                    let (k, v) = field
                        .split_once('=')
                        .ok_or_else(|| bad(format!("expected key=value, got `{field}`")))?;
                    let not_num = || bad(format!("`{k}` is not a number: `{v}`"));
                    match k {
                        "op" => spec.op = v.to_string(),
                        "shape" => spec.shape = v.to_string(),
                        "dla" => spec.dla = v.to_string(),
                        "trials" => spec.trials = v.parse().map_err(|_| not_num())?,
                        "seed" => spec.seed = v.parse().map_err(|_| not_num())?,
                        "fault_rate" => spec.fault_rate = v.parse().map_err(|_| not_num())?,
                        "deadline_rounds" => {
                            spec.deadline_rounds = v.parse().map_err(|_| not_num())?
                        }
                        other => return Err(bad(format!("unknown job field `{other}`"))),
                    }
                }
                if spec.op.is_empty() || spec.shape.is_empty() {
                    return Err(bad(format!("job `{}` needs op= and shape=", spec.id)));
                }
                jobs.push(spec);
            }
            "kill" => {
                let job = words
                    .next()
                    .ok_or_else(|| bad("`kill` needs a job id".to_string()))?;
                let mut rule = KillRule {
                    job: job.to_string(),
                    attempt: 0,
                    round: 1,
                    kind: KillKind::Crash,
                };
                for field in words {
                    let (k, v) = field
                        .split_once('=')
                        .ok_or_else(|| bad(format!("expected key=value, got `{field}`")))?;
                    let not_num = || bad(format!("`{k}` is not a number: `{v}`"));
                    match k {
                        "attempt" => rule.attempt = v.parse().map_err(|_| not_num())?,
                        "round" => rule.round = v.parse().map_err(|_| not_num())?,
                        "kind" => {
                            rule.kind = match v {
                                "crash" => KillKind::Crash,
                                "hang" => KillKind::Hang,
                                other => {
                                    return Err(bad(format!(
                                        "kill kind must be crash|hang, got `{other}`"
                                    )))
                                }
                            }
                        }
                        other => return Err(bad(format!("unknown kill field `{other}`"))),
                    }
                }
                plan.push(rule);
            }
            other => return Err(bad(format!("unknown statement `{other}`"))),
        }
    }
    Ok(JobScript { config, jobs, plan })
}

/// Builds the workload for `op` × `shape`: the one operator table of the
/// service and of the command-line tools, which print its error.
pub fn parse_workload(op: &str, shape: &str) -> Result<Workload, JobError> {
    // Every dimension must be at least 1 or building the DAG panics; only
    // a convolution's padding may be 0.
    let padding = match op {
        "c1d" => Some(5),
        "c2d" | "c3d" => Some(6),
        _ => None,
    };
    let d = shape
        .split('x')
        .enumerate()
        .map(|(i, t)| match t.parse::<i64>() {
            Ok(v) if v > 0 || (v == 0 && padding == Some(i)) => Ok(v),
            _ => Err(JobError::BadDimension {
                op: op.to_string(),
                component: t.to_string(),
            }),
        })
        .collect::<Result<Vec<i64>, _>>()?;
    let expect = |n: usize| -> Result<(), JobError> {
        if d.len() == n {
            Ok(())
        } else {
            Err(JobError::BadShape {
                op: op.to_string(),
                expected: n,
                got: d.len(),
            })
        }
    };
    let kind = match op {
        "gemm" => {
            expect(3)?;
            OpKind::Gemm {
                m: d[0],
                n: d[1],
                k: d[2],
            }
        }
        "bmm" => {
            expect(4)?;
            OpKind::Bmm {
                b: d[0],
                m: d[1],
                n: d[2],
                k: d[3],
            }
        }
        "gemv" => {
            expect(3)?;
            OpKind::Gemv {
                m: d[0],
                k: d[1],
                b: d[2],
            }
        }
        "scan" => {
            expect(2)?;
            OpKind::Scan { b: d[0], l: d[1] }
        }
        "c1d" => {
            expect(7)?;
            OpKind::C1d {
                n: d[0],
                l: d[1],
                ci: d[2],
                co: d[3],
                k: d[4],
                p: d[5],
                s: d[6],
            }
        }
        "c2d" => {
            expect(8)?;
            OpKind::C2d(Conv2dConfig::new(
                d[0], d[1], d[2], d[3], d[4], d[5], d[5], d[6], d[7],
            ))
        }
        "c3d" => {
            expect(8)?;
            OpKind::C3d {
                n: d[0],
                d: d[1],
                hw: d[2],
                ci: d[3],
                co: d[4],
                k: d[5],
                s: d[7],
                p: d[6],
            }
        }
        other => return Err(JobError::UnknownOp(other.to_string())),
    };
    // A kernel larger than a padded spatial extent leaves the output
    // empty, and building the DAG panics.
    let empty = match &kind {
        OpKind::C1d { l, k, p, .. } => l + 2 * p < *k,
        OpKind::C2d(c) => c.height.min(c.width) + 2 * c.padding < c.kh.max(c.kw),
        OpKind::C3d { d, hw, k, p, .. } => d.min(hw) + 2 * p < *k,
        _ => false,
    };
    if empty {
        return Err(JobError::EmptyOutput {
            op: op.to_string(),
            shape: shape.to_string(),
        });
    }
    Ok(Workload::new(format!("{op}-{shape}"), kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_round_trips_config_jobs_and_kills() {
        let script = "\
# demo
workers = 3 # trailing comments are skipped
queue_capacity = 5
restart_budget = 1
checkpoint_every = 2

job g1 op=gemm shape=96x96x96 trials=40 seed=11
job g2 op=gemv shape=256x256x8 trials=32 seed=13 fault_rate=0.15 deadline_rounds=4
kill g1 attempt=0 round=3 kind=crash # first attempt dies
kill g2 attempt=1 round=2 kind=hang
";
        let parsed = parse_script(script).expect("parses");
        assert_eq!(parsed.config.workers, 3);
        assert_eq!(parsed.config.queue_capacity, 5);
        assert_eq!(parsed.config.restart_budget, 1);
        assert_eq!(parsed.config.checkpoint_every, 2);
        assert_eq!(parsed.jobs.len(), 2);
        assert_eq!(parsed.jobs[0].id, "g1");
        assert_eq!(parsed.jobs[0].trials, 40);
        assert_eq!(parsed.jobs[1].fault_rate, 0.15);
        assert_eq!(parsed.jobs[1].deadline_rounds, 4);
        assert_eq!(parsed.plan.kill_at("g1", 0, 3), Some(KillKind::Crash));
        assert_eq!(parsed.plan.kill_at("g2", 1, 2), Some(KillKind::Hang));
        assert_eq!(parsed.plan.kill_at("g2", 0, 2), None);
        parsed.jobs[0].validate().expect("g1 is a valid job");
    }

    #[test]
    fn script_errors_carry_line_and_reason() {
        let err = parse_script("job g1 op=gemm\n\nfrobnicate = 7\n").unwrap_err();
        assert_eq!(
            err,
            JobError::BadScript {
                line: 1,
                reason: "job `g1` needs op= and shape=".to_string()
            }
        );
        let err = parse_script("workers = three\n").unwrap_err();
        match err {
            JobError::BadScript { line: 1, reason } => {
                assert!(reason.contains("workers"), "{reason}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_specs_are_refused_with_reasons() {
        assert_eq!(
            JobSpec::new("a", "gemm", "8x8").validate(),
            Err(JobError::BadShape {
                op: "gemm".to_string(),
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            JobSpec::new("a", "fft", "8x8").validate(),
            Err(JobError::UnknownOp("fft".to_string()))
        );
        for (shape, component) in [("8xfoox8x8", "foo"), ("0x8x8", "0"), ("-4x8x8", "-4")] {
            assert_eq!(
                JobSpec::new("a", "gemm", shape).validate(),
                Err(JobError::BadDimension {
                    op: "gemm".to_string(),
                    component: component.to_string()
                })
            );
        }
        JobSpec::new("a", "c2d", "1x8x8x4x4x3x0x1")
            .validate()
            .expect("a convolution's padding may be 0");
        for (op, shape) in [
            ("c1d", "1x2x4x4x5x0x1"),
            ("c2d", "1x2x2x4x4x5x0x1"),
            ("c3d", "1x8x2x4x4x5x1x1"),
        ] {
            assert_eq!(
                JobSpec::new("a", op, shape).validate(),
                Err(JobError::EmptyOutput {
                    op: op.to_string(),
                    shape: shape.to_string()
                })
            );
        }
        let mut spec = JobSpec::new("a", "gemm", "8x8x8");
        spec.dla = "tpu9".to_string();
        assert_eq!(
            spec.validate(),
            Err(JobError::UnknownPlatform("tpu9".to_string()))
        );
    }
}
