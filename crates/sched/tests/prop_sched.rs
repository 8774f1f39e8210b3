//! Property tests of the schedule state: random split/fuse/reorder
//! sequences preserve the loop structure's invariants.
//! (heron-testkit harness; see DESIGN.md, "Zero-dependency &
//! determinism policy".)

use heron_sched::{MemScope, ScheduleState, StageRole};
use heron_tensor::{DType, IterKind};
use heron_testkit::{property_cases, Gen};

#[derive(Debug, Clone)]
enum Op {
    Split { loop_idx: usize, parts: usize },
    Fuse { start: usize },
    Reorder { seed: u64 },
}

fn op(g: &mut Gen) -> Op {
    match g.int(0, 3) {
        0 => Op::Split {
            loop_idx: g.index(0, 8),
            parts: g.index(2, 4),
        },
        1 => Op::Fuse {
            start: g.index(0, 8),
        },
        _ => Op::Reorder {
            seed: g.int(0, i64::MAX) as u64,
        },
    }
}

fn fresh_state() -> ScheduleState {
    let mut st = ScheduleState::new();
    st.add_stage(
        "C",
        StageRole::Compute,
        MemScope::Global,
        MemScope::Global,
        DType::F32,
    );
    st.push_loop("C", &["C.i"], IterKind::Spatial, "i");
    st.push_loop("C", &["C.j"], IterKind::Spatial, "j");
    st.push_loop("C", &["C.r"], IterKind::Reduce, "r");
    st
}

/// Random transformation sequences keep invariants: loop names stay
/// unique, origins are preserved per kind, and the template records
/// exactly one primitive per applied transformation.
#[test]
fn transformations_preserve_invariants() {
    property_cases("transformations_preserve_invariants", 128, |g| {
        let ops = g.vec(1, 9, op);
        let mut st = fresh_state();
        let mut fresh = 0usize;
        let mut applied = 0usize;
        for o in ops {
            let loops: Vec<(String, IterKind)> = st
                .nest(st.stage("C").expect("exists"))
                .iter()
                .map(|l| (st.name(l.name).to_string(), l.kind))
                .collect();
            match o {
                Op::Split { loop_idx, parts } => {
                    let idx = loop_idx % loops.len();
                    let names: Vec<String> = (0..parts)
                        .map(|p| {
                            fresh += 1;
                            format!("L{fresh}.{p}")
                        })
                        .collect();
                    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    st.split("C", &loops[idx].0, &refs);
                    applied += 1;
                }
                Op::Fuse { start } => {
                    if loops.len() < 2 {
                        continue;
                    }
                    let idx = start % (loops.len() - 1);
                    // Only fuse same-kind adjacent loops.
                    if loops[idx].1 != loops[idx + 1].1 {
                        continue;
                    }
                    fresh += 1;
                    let fused = format!("F{fresh}");
                    st.fuse(
                        "C",
                        vec![loops[idx].0.clone(), loops[idx + 1].0.clone()],
                        fused,
                    );
                    applied += 1;
                }
                Op::Reorder { seed } => {
                    // Deterministic permutation: rotate by seed.
                    let n = loops.len();
                    let rot = (seed as usize) % n;
                    let order: Vec<&str> =
                        (0..n).map(|x| loops[(x + rot) % n].0.as_str()).collect();
                    st.reorder("C", &order);
                    applied += 1;
                }
            }
        }
        let nest = st.nest(st.stage("C").expect("exists"));
        // Unique loop names.
        let mut names: Vec<&str> = nest.iter().map(|l| st.name(l.name)).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate loop names");
        // Origins only come from the initial axes.
        for l in nest {
            assert!(["i", "j", "r"].contains(&st.name(l.origin)));
            // Reduce loops only descend from r.
            if l.kind == IterKind::Reduce {
                assert_eq!(st.name(l.origin), "r");
            }
        }
        // One template entry per applied transformation.
        assert_eq!(st.template().len(), applied);
    });
}

/// Splitting then fusing the same parts restores a single loop for
/// that origin.
#[test]
fn split_then_fuse_roundtrip() {
    property_cases("split_then_fuse_roundtrip", 128, |g| {
        let parts = g.index(2, 5);
        let mut st = fresh_state();
        let names: Vec<String> = (0..parts).map(|p| format!("C.i{p}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        st.split("C", "C.i", &refs);
        assert_eq!(st.nest(st.stage("C").expect("exists")).len(), 2 + parts);
        // Fuse pairwise back into one.
        let mut current = names.clone();
        while current.len() > 1 {
            let fused = format!("f.{}", current.len());
            st.fuse(
                "C",
                vec![current[0].clone(), current[1].clone()],
                fused.clone(),
            );
            let mut next = vec![fused];
            next.extend(current[2..].iter().cloned());
            current = next;
        }
        let nest = st.nest(st.stage("C").expect("exists"));
        assert_eq!(nest.len(), 3);
        assert_eq!(st.name(nest[0].origin), "i");
    });
}
