//! The service flight recorder: the supervisor-side mailbox where every
//! worker attempt deposits its latest ring snapshot (DESIGN.md §12).
//!
//! A crashed worker cannot be asked for its trace after the fact — the
//! thread is gone and its `Tracer` died with it. So each worker flushes
//! the bounded tail of its trace ([`heron_trace::Tracer::tail_jsonl`])
//! into this shared recorder at every round boundary (*before* the chaos kill
//! check, so the snapshot always covers the fatal round). When the
//! watchdog later confirms a crash, hang, or quarantine, the supervisor
//! harvests the job's last deposit into a postmortem bundle
//! ([`crate::postmortem`]).
//!
//! Deposits are epoch-guarded like checkpoint saves: a fenced-off
//! zombie (stale epoch) can never overwrite the state its replacement
//! attempt is writing. Everything stored is a deterministic function of
//! (script, seeds, chaos plan), so same-seed runs harvest byte-identical
//! snapshots.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One worker attempt's latest flush: where the session stood at its
/// most recent round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Attempt number the snapshot belongs to.
    pub attempt: u32,
    /// Supervisor epoch the attempt was started under.
    pub epoch: u64,
    /// Lifetime rounds at the flush.
    pub rounds: u64,
    /// The session's simulated wall-clock at the flush, nanoseconds.
    pub sim_ns: u64,
    /// The `heron-ring-v1` snapshot of the session trace's tail.
    pub ring_jsonl: String,
}

/// Shared, thread-safe per-job flight-recorder mailbox.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Arc<Mutex<BTreeMap<String, FlightEntry>>>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Deposits `entry` as the job's latest snapshot. Rejected (and
    /// `false` is returned) when a newer epoch has already deposited —
    /// the same fencing rule as [`crate::store::CheckpointStore::save`].
    pub fn save(&self, job: &str, entry: FlightEntry) -> bool {
        let mut inner = self.inner.lock().expect("recorder lock");
        if let Some(existing) = inner.get(job) {
            if entry.epoch < existing.epoch {
                return false;
            }
        }
        inner.insert(job.to_string(), entry);
        true
    }

    /// The job's latest deposit, if any attempt ever flushed.
    pub fn get(&self, job: &str) -> Option<FlightEntry> {
        self.inner.lock().expect("recorder lock").get(job).cloned()
    }

    /// Every `(job, entry)` pair in job-id order.
    pub fn entries(&self) -> Vec<(String, FlightEntry)> {
        self.inner
            .lock()
            .expect("recorder lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(attempt: u32, epoch: u64, rounds: u64) -> FlightEntry {
        FlightEntry {
            attempt,
            epoch,
            rounds,
            sim_ns: rounds * 1_000,
            ring_jsonl: format!("ring for attempt {attempt}\n"),
        }
    }

    #[test]
    fn newer_epochs_win_and_stale_deposits_are_fenced() {
        let rec = FlightRecorder::new();
        assert!(rec.save("g1", entry(0, 1, 3)));
        assert!(rec.save("g1", entry(1, 2, 5)));
        // A zombie from epoch 1 limps in after its replacement started.
        assert!(!rec.save("g1", entry(0, 1, 4)));
        let got = rec.get("g1").expect("entry exists");
        assert_eq!(got.attempt, 1);
        assert_eq!(got.rounds, 5);
        assert_eq!(rec.get("g2"), None);
    }

    #[test]
    fn recorder_is_shared_across_clones_and_threads() {
        let rec = FlightRecorder::new();
        let r2 = rec.clone();
        std::thread::spawn(move || {
            assert!(r2.save("j", entry(0, 1, 1)));
        })
        .join()
        .expect("joins");
        assert_eq!(rec.entries().len(), 1);
        assert_eq!(rec.get("j").expect("saved").epoch, 1);
    }
}
