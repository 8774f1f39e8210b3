//! Set-up allocates a fixed set of arrays per session, never per
//! constraint, and the pinned re-solve allocates per *call*, never per
//! branch decision or per propagation pass.
//!
//! A counting global allocator watches a conv2d TensorCore space being
//! generated and given a tuner session, and then
//! `SolveSession::solve_pinned` on it. Generation allocates what the space
//! keeps (names, domains, constraint lists, the template) and little
//! besides. The session shares the generated CSP instead of copying it and
//! builds its propagator straight from it into flat arrays, so building it
//! allocates a fixed number of arrays.
//!
//! Whatever a pinned call has to do — a dive that
//! succeeds at once, or thousands of branch decisions and wipeouts — it
//! may allocate only what it hands back (the outcome's solution list and
//! one value vector per solution) and a few call-scoped buffers.
//! Everything the search itself touches (worklists, change buffer, branch
//! order, candidate values, trail, the scratch store) is owned by the
//! session and reused.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::{TuneConfig, Tuner};
use heron_csp::{Constraint, SolvePolicy, SolveSession, VarRef};
use heron_dla::Measurer;
use heron_rng::{HeronRng, Rng};
use heron_tensor::ops;
use heron_trace::Tracer;

/// Heap allocations made by threads that switched counting on.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted (the test harness's
    /// own threads never are).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn note() {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter
// update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// What one call may allocate besides one value vector per solution. In
/// steady state that is two — the outcome's solution list and the
/// seen-fingerprint set's table (the changed-pin list and a helper
/// boolean's translated pin live in the session); the rest is headroom
/// for a pooled set buffer that has to grow once more.
const PER_CALL: u64 = 8;

/// Offspring tried; the hardest must need more than a thousand branch
/// decisions (most need a few dozen).
const OFFSPRING: u64 = 400;

#[test]
fn pinned_resolve_allocates_per_call_not_per_decision() {
    let dag = ops::conv2d(ops::Conv2dConfig::new(1, 14, 14, 64, 64, 3, 3, 1, 1));
    let space = SpaceGenerator::new(heron_dla::v100())
        .generate_named(&dag, &SpaceOptions::heron(), "c2d-14x64")
        .expect("generates");
    let mut session = SolveSession::new(&space.csp);
    let policy = SolvePolicy::default();
    let tracer = Tracer::disabled();
    let parents = session
        .solve(&mut HeronRng::from_seed(2023), 8, &policy, &tracer)
        .expect_sat("c2d-14x64 root space");
    let tunables = space.csp.tunables();
    // The helper booleans of the candidate sets (`is.<var>.<value>`),
    // which the presolve retires: a pin on one becomes a pin on its
    // selector.
    let helpers: Vec<VarRef> = space
        .csp
        .vars()
        .filter(|(_, d)| d.name.starts_with("is."))
        .map(|(v, _)| v)
        .collect();
    assert!(!helpers.is_empty(), "c2d-14x64 has helper booleans");

    // A strict crossover of two parents on four key variables and one
    // helper boolean: usually easy, now and then a long search,
    // sometimes unsatisfiable.
    let offspring = |rng: &mut HeronRng| -> Vec<(VarRef, Vec<i64>)> {
        let mut pins: Vec<(VarRef, Vec<i64>)> = Vec::new();
        for k in 0..5 {
            let v = if k < 4 {
                tunables[rng.random_range(0..tunables.len())]
            } else {
                helpers[rng.random_range(0..helpers.len())]
            };
            let parent = &parents[rng.random_range(0..parents.len())];
            if pins.iter().all(|(p, _)| *p != v) {
                pins.push((v, vec![parent.value(v)]));
            }
        }
        pins
    };

    // The same seeded calls twice: the first pass grows the session's
    // buffers to their working size, the second is counted.
    for counting in [false, true] {
        let mut hardest = 0u64;
        for seed in 0..OFFSPRING {
            let mut rng = HeronRng::from_seed(seed);
            let pins = offspring(&mut rng);
            let (out, allocs) =
                counted(|| session.solve_pinned(&pins, &mut rng, 1, &policy, &tracer));
            hardest = hardest.max(out.stats.wipeouts);
            assert!(
                !counting || allocs <= PER_CALL + out.solutions.len() as u64,
                "seed {seed}: a pinned solve of {} wipeouts and {} propagation passes \
                 allocated {allocs} times",
                out.stats.wipeouts,
                out.stats.propagations,
            );
        }
        // A wipeout inside a dive ends one branch decision, and only the
        // pins' own fixpoint can add one outside a dive.
        assert!(
            hardest > 1_000,
            "no offspring needed a long search (most wipeouts: {hardest})"
        );
    }
}

/// How often the set-up of one space — `generate_named`, then
/// `Tuner::new` — may allocate or reallocate per variable and per
/// constraint, in eighths. At 16/8, ResNet-50's 21 distinct v100 spaces
/// (3,422 variables and 3,020 constraints) stay under 13,000 (they make
/// 12,790). What the generated space keeps is most of it: 11,578 blocks
/// for those spaces, 14.4/8 per item, one name and one value set per
/// variable and one list per `PROD`, `SUM`, `IN` or `SELECT`.
const SET_UP_EIGHTHS_PER_ITEM: u64 = 16;

/// The arrays `Tuner::new` may allocate, whatever the number of
/// constraints: 37 fixed ones — the presolve's union-find, mention
/// counts, reads and class bounds (5); the value tables, their spans,
/// their dedup map and the shared handle (4); the propagator's kinds,
/// operands, `IN` values, starts, mentions, watch starts, watchers and
/// fast paths (8); the domain store's domains, bounds, dormancy flags and
/// saves (5); the nogood memo's literal tables (2); the worklist's flags
/// and three queues and the learning, `SELECT` and `PROD` buffers (9);
/// the branch order, the tunables and the leaf (3); the tuner's control
/// handle (1) — and a few explicit sets the root fixpoint derives from
/// intervals. A copy of the CSP would add one name per variable, a
/// rewritten constraint list one list per `PROD`, `SUM`, `IN` or
/// `SELECT`.
const SESSION_ARRAYS: u64 = 40;

#[test]
fn set_up_shares_the_csp_and_allocates_fixed_arrays() {
    let dag = ops::conv2d(ops::Conv2dConfig::new(1, 14, 14, 64, 64, 3, 3, 1, 1));
    let (space, generate) = counted(|| {
        SpaceGenerator::new(heron_dla::v100())
            .generate_named(&dag, &SpaceOptions::heron(), "c2d-14x64")
            .expect("generates")
    });
    let csp = &space.csp;
    let items = (csp.num_vars() + csp.num_constraints()) as u64;
    let lists = csp
        .constraints()
        .iter()
        .filter(|c| !matches!(c, Constraint::Eq(..) | Constraint::Le(..)))
        .count() as u64;
    assert!(
        SESSION_ARRAYS < lists.min(csp.num_vars() as u64),
        "a copy of the CSP or of its lists would fit in the session budget"
    );

    // A session built on the space's `Arc` holds the same problem.
    let session = SolveSession::new(&space.csp);
    assert!(
        std::ptr::eq(session.csp(), &**csp),
        "the session copied the CSP"
    );
    drop(session);

    let (shared, measurer) = (space.clone(), Measurer::new(heron_dla::v100()));
    let (tuner, new) = counted(|| Tuner::new(shared, measurer, TuneConfig::quick(48), 2023));
    assert_eq!(
        std::sync::Arc::strong_count(&space.csp),
        3,
        "the space, its clone in the tuner and the tuner's session share one CSP"
    );
    drop(tuner);
    assert!(
        new <= SESSION_ARRAYS,
        "Tuner::new allocated {new} times ({lists} list constraints)"
    );
    assert!(
        8 * (generate + new) <= SET_UP_EIGHTHS_PER_ITEM * items,
        "set-up allocated {generate} + {new} times for {items} variables and constraints"
    );
}
