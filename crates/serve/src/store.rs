//! Epoch-fenced per-job mailbox shared by workers and the supervisor.
//!
//! Each job has one slot holding the policy's current **epoch** — a
//! fencing token — plus the job's latest checkpoint-v2 text and its
//! latest [`FlightEntry`]. The epoch is the [`crate::Policy`]'s: the
//! supervisor hands it over with [`CheckpointStore::fence`] whenever the
//! policy starts an attempt or fences one off, and every worker quotes
//! the epoch it was started under on each save and flush. Whatever
//! quotes any other epoch is refused, so a zombie worker (one declared
//! hung but in fact still limping along) can never clobber the state its
//! replacement is building, not even before that replacement first
//! writes. Refused checkpoint saves are counted, not silently swallowed,
//! so the chaos harness can assert the fence actually fired.
//!
//! The store keeps checkpoint *text* (the CRC-sealed `key = value`
//! format from `heron_core::checkpoint`), not parsed structs: exactly the
//! byte string an on-disk checkpoint holds.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One worker attempt's latest flush: where the session stood at its
/// most recent round boundary (DESIGN.md §12).
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

#[derive(Debug, Default)]
struct Slot {
    epoch: u64,
    text: Option<String>,
    flight: Option<FlightEntry>,
}

#[derive(Debug, Default)]
struct StoreInner {
    slots: BTreeMap<String, Slot>,
    stale_saves: u64,
    saves: u64,
}

/// Shared, thread-safe per-job store with epoch fencing.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<StoreInner>>,
}

impl CheckpointStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Makes `epoch` the job's current one: from now on only saves and
    /// flushes quoting it are accepted. The checkpoint and the last
    /// flush stay, for the next attempt to resume from and for the dead
    /// one's postmortem.
    pub fn fence(&self, job: &str, epoch: u64) {
        let mut inner = self.inner.lock().expect("store lock");
        inner.slots.entry(job.to_string()).or_default().epoch = epoch;
    }

    /// Saves checkpoint text for `job` if `epoch` is still current;
    /// returns whether the save was accepted. A rejected (stale) save
    /// is counted for observability.
    pub fn save(&self, job: &str, epoch: u64, text: String) -> bool {
        let mut guard = self.inner.lock().expect("store lock");
        let inner = &mut *guard;
        let Some(slot) = inner.slots.get_mut(job).filter(|s| s.epoch == epoch) else {
            inner.stale_saves += 1;
            return false;
        };
        slot.text = Some(text);
        inner.saves += 1;
        true
    }

    /// Records `entry` as the job's latest flush if its epoch is still
    /// current; returns whether it was accepted. A refused flush is not
    /// counted: `stale_saves` counts checkpoints only.
    pub(crate) fn flush(&self, job: &str, entry: FlightEntry) -> bool {
        let mut inner = self.inner.lock().expect("store lock");
        match inner.slots.get_mut(job).filter(|s| s.epoch == entry.epoch) {
            Some(slot) => {
                slot.flight = Some(entry);
                true
            }
            None => false,
        }
    }

    /// The latest accepted checkpoint text for `job`, if any.
    pub fn load(&self, job: &str) -> Option<String> {
        let inner = self.inner.lock().expect("store lock");
        inner.slots.get(job).and_then(|s| s.text.clone())
    }

    /// The job's latest flush, if it came from attempt `epoch`.
    pub(crate) fn flight(&self, job: &str, epoch: u64) -> Option<FlightEntry> {
        let inner = self.inner.lock().expect("store lock");
        let flight = inner.slots.get(job).and_then(|s| s.flight.as_ref());
        flight.filter(|f| f.epoch == epoch).cloned()
    }

    /// Every job's latest flush, in job-id order.
    pub fn flights(&self) -> Vec<(String, FlightEntry)> {
        let inner = self.inner.lock().expect("store lock");
        inner
            .slots
            .iter()
            .filter_map(|(job, s)| Some((job.clone(), s.flight.clone()?)))
            .collect()
    }

    /// Accepted saves so far.
    pub fn saves(&self) -> u64 {
        self.inner.lock().expect("store lock").saves
    }

    /// Rejected (fenced-off) saves so far.
    pub fn stale_saves(&self) -> u64 {
        self.inner.lock().expect("store lock").stale_saves
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
    fn epoch_fence_rejects_stale_writers() {
        let store = CheckpointStore::new();
        assert!(!store.save("job", 1, "unopened".to_string()));
        store.fence("job", 1);
        assert!(store.save("job", 1, "first".to_string()));
        assert_eq!(store.load("job").as_deref(), Some("first"));

        // Supervisor decides to recover: epoch bumps, old worker fenced.
        store.fence("job", 2);
        assert!(!store.save("job", 1, "zombie".to_string()));
        assert_eq!(store.load("job").as_deref(), Some("first"));
        assert!(store.save("job", 2, "second".to_string()));
        assert_eq!(store.load("job").as_deref(), Some("second"));
        assert_eq!(store.saves(), 2);
        assert_eq!(store.stale_saves(), 2);
    }

    #[test]
    fn newer_epochs_win_and_stale_flushes_are_fenced() {
        let store = CheckpointStore::new();
        store.fence("g1", 1);
        assert!(store.flush("g1", entry(0, 1, 3)));
        store.fence("g1", 2);
        assert!(store.flush("g1", entry(1, 2, 5)));
        // A zombie from epoch 1 limps in after its replacement flushed.
        assert!(!store.flush("g1", entry(0, 1, 4)));
        let got = store.flight("g1", 2).expect("entry exists");
        assert_eq!((got.attempt, got.rounds), (1, 5));
        assert_eq!(store.flight("g1", 1), None);
        assert_eq!(store.flight("g2", 1), None);
        assert_eq!(store.stale_saves(), 0, "flushes are not checkpoint saves");
    }

    #[test]
    fn a_fenced_flush_is_refused_before_the_new_epoch_flushes() {
        let store = CheckpointStore::new();
        store.fence("g1", 1);
        assert!(store.flush("g1", entry(0, 1, 3)));
        store.fence("g1", 2);
        // Epoch 2 has not flushed yet; epoch 1's late flush must not land.
        assert!(!store.flush("g1", entry(0, 1, 4)));
        assert_eq!(store.flight("g1", 1).expect("kept").rounds, 3);
        assert_eq!(store.flight("g1", 2), None);
        assert_eq!(store.stale_saves(), 0);
    }

    #[test]
    fn store_is_shared_across_clones_and_threads() {
        let store = CheckpointStore::new();
        store.fence("j", 1);
        let s2 = store.clone();
        std::thread::spawn(move || {
            assert!(s2.save("j", 1, "from thread".to_string()));
            assert!(s2.flush("j", entry(0, 1, 1)));
        })
        .join()
        .expect("joins");
        assert_eq!(store.load("j").as_deref(), Some("from thread"));
        assert_eq!(store.flights(), vec![("j".to_string(), entry(0, 1, 1))]);
    }
}
