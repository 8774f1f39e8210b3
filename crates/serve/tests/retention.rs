//! What a finished service keeps: a completed job costs the supervisor
//! its report (record and digest), its store slot's fence and its last
//! flush, not its checkpoint, session trace, insight document or
//! metrics texts.
//!
//! A live-bytes counting global allocator measures the heap a finished
//! `Supervisor` holds as the bytes its drop frees, after a 3-job run
//! with checkpoints every two rounds and no artifact sink. The counter
//! is global, so this binary holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use heron_serve::{parse_script, JobState, Supervisor};

/// Bytes allocated and not yet freed, over every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct LiveBytes;

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter
// update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as above.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

const SCRIPT: &str = "\
workers = 2
checkpoint_every = 2

job a op=gemm shape=64x64x64 trials=24 seed=31
job b op=gemm shape=96x64x96 trials=24 seed=32
job c op=gemm shape=64x96x64 trials=16 seed=33
";

/// Heap a finished supervisor may hold per completed job. A run of this
/// script holds 21 406 B per job, most of it the last flush's ring
/// snapshot; a supervisor that kept each completed job's checkpoint,
/// trace, insight and metrics texts held 83 778 B.
const HELD_PER_JOB: isize = 32 * 1024;

#[test]
fn a_finished_service_holds_no_texts_of_its_completed_jobs() {
    let mut sup = Supervisor::from_script(parse_script(SCRIPT).expect("script parses"));
    sup.run();
    let rows = sup.rows();
    assert!(
        rows.iter().all(|r| r.state == JobState::Completed),
        "{rows:?}"
    );
    assert_eq!(sup.store().load("a"), None, "a completed job's checkpoint");
    let before = LIVE.load(Ordering::Relaxed);
    drop(sup);
    let held = before - LIVE.load(Ordering::Relaxed);
    let per_job = held / rows.len() as isize;
    assert!(
        per_job < HELD_PER_JOB,
        "a finished supervisor holds {held} B, {per_job} B per completed job (bound {HELD_PER_JOB})"
    );
}
