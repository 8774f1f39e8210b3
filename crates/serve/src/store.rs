//! Epoch-fenced checkpoint store shared by workers and the supervisor.
//!
//! Each job has one slot holding its latest checkpoint-v2 text plus a
//! monotonically increasing **epoch** — a fencing token. A worker is
//! handed the epoch that was current when it was (re)started and every
//! save quotes it; the supervisor bumps the epoch the moment it decides
//! to recover the job, so a zombie worker (one that was declared hung
//! but is in fact still limping along) can never clobber the state its
//! replacement is building. Stale saves are counted, not silently
//! swallowed, so the chaos harness can assert the fence actually fired.
//!
//! The store keeps checkpoint *text* (the CRC-sealed `key = value`
//! format from `heron_core::checkpoint`), not parsed structs: exactly the
//! byte string an on-disk checkpoint holds.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Slot {
    epoch: u64,
    text: Option<String>,
}

#[derive(Debug, Default)]
struct StoreInner {
    slots: BTreeMap<String, Slot>,
    stale_saves: u64,
    saves: u64,
}

/// Shared, thread-safe checkpoint store with per-job epoch fencing.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<StoreInner>>,
}

impl CheckpointStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Bumps and returns the job's epoch. Called by the supervisor at
    /// every (re)start; the returned token is what the new worker must
    /// quote on saves, and every older token is now fenced off.
    pub fn open_epoch(&self, job: &str) -> u64 {
        let mut inner = self.inner.lock().expect("store lock");
        let slot = inner.slots.entry(job.to_string()).or_default();
        slot.epoch += 1;
        slot.epoch
    }

    /// The job's current epoch (0 if never opened).
    pub fn current_epoch(&self, job: &str) -> u64 {
        let inner = self.inner.lock().expect("store lock");
        inner.slots.get(job).map(|s| s.epoch).unwrap_or(0)
    }

    /// Saves checkpoint text for `job` if `epoch` is still current;
    /// returns whether the save was accepted. A rejected (stale) save
    /// is counted for observability.
    pub fn save(&self, job: &str, epoch: u64, text: String) -> bool {
        let mut inner = self.inner.lock().expect("store lock");
        let current = inner.slots.get(job).map(|s| s.epoch).unwrap_or(0);
        if epoch != current {
            inner.stale_saves += 1;
            return false;
        }
        inner.slots.entry(job.to_string()).or_default().text = Some(text);
        inner.saves += 1;
        true
    }

    /// The latest accepted checkpoint text for `job`, if any.
    pub fn load(&self, job: &str) -> Option<String> {
        let inner = self.inner.lock().expect("store lock");
        inner.slots.get(job).and_then(|s| s.text.clone())
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

    #[test]
    fn epoch_fence_rejects_stale_writers() {
        let store = CheckpointStore::new();
        let e1 = store.open_epoch("job");
        assert_eq!(e1, 1);
        assert!(store.save("job", e1, "first".to_string()));
        assert_eq!(store.load("job").as_deref(), Some("first"));

        // Supervisor decides to recover: epoch bumps, old worker fenced.
        let e2 = store.open_epoch("job");
        assert_eq!(e2, 2);
        assert!(!store.save("job", e1, "zombie".to_string()));
        assert_eq!(store.load("job").as_deref(), Some("first"));
        assert!(store.save("job", e2, "second".to_string()));
        assert_eq!(store.load("job").as_deref(), Some("second"));
        assert_eq!(store.saves(), 2);
        assert_eq!(store.stale_saves(), 1);
        assert_eq!(store.current_epoch("job"), 2);
        assert_eq!(store.current_epoch("other"), 0);
    }

    #[test]
    fn store_is_shared_across_clones_and_threads() {
        let store = CheckpointStore::new();
        let e = store.open_epoch("j");
        let s2 = store.clone();
        std::thread::spawn(move || {
            assert!(s2.save("j", e, "from thread".to_string()));
        })
        .join()
        .expect("joins");
        assert_eq!(store.load("j").as_deref(), Some("from thread"));
    }
}
