//! Equivalence oracle for the flight-recorder tail: the ring buffer it
//! replaced, which evicted whole top-level groups as events arrived,
//! lives on here as the reference. Over random open/close/point
//! sequences, tagged with a drawn context or untagged, and capacities
//! 1–16, `Tracer::tail_jsonl` taken after any
//! event must equal the snapshot that ring would have held: the same
//! events, the same `evicted` count, byte for byte. (heron-testkit
//! harness; see DESIGN.md, "Zero-dependency & determinism policy".)

use std::collections::VecDeque;

use heron_testkit::property;
use heron_trace::{SpanGuard, TraceContext, Tracer};

/// The ring's eviction loop: after each pushed event (`true` = recorded
/// with no span open), how many events it had evicted. Whenever it holds
/// more than `capacity` it drops the whole top-level group at its front,
/// if a later group has begun.
fn ring_evicted(top_level: &[bool], capacity: usize) -> usize {
    let mut buf = VecDeque::new();
    let mut evicted = 0;
    for &b in top_level {
        buf.push_back(b);
        while buf.len() > capacity {
            let Some(cut) = buf.iter().skip(1).position(|&b| b).map(|p| p + 1) else {
                break;
            };
            buf.drain(..cut);
            evicted += cut;
        }
    }
    evicted
}

/// The snapshot the ring would render: the log's lines from `evicted`
/// on, re-sequenced from 0, under a `heron-ring-v1` header.
fn ring_snapshot(t: &Tracer, capacity: usize, evicted: usize) -> String {
    let body: Vec<String> = t
        .to_jsonl()
        .lines()
        .skip(evicted)
        .enumerate()
        .map(|(seq, line)| {
            let rest = &line[line.find(',').expect("a seq member")..];
            format!("{{\"seq\":{seq}{rest}\n")
        })
        .collect();
    format!(
        "{{\"schema\":\"heron-ring-v1\",\"capacity\":{capacity},\"evicted\":{evicted},\
         \"events\":{},\"now_ns\":{}}}\n{}",
        body.len(),
        t.now_ns(),
        body.concat()
    )
}

#[test]
fn tail_equals_the_ring_it_replaced() {
    property("tail_equals_the_ring_it_replaced", |g| {
        let capacity = g.index(1, 17);
        let t = Tracer::manual();
        if g.bool(0.5) {
            t.set_context(Some(TraceContext::new("j", g.index(0, 3) as u32, 1)));
        }
        let mut open: Vec<SpanGuard> = Vec::new();
        let mut top_level = Vec::new();
        for _ in 0..g.index(0, 80) {
            t.advance_ns(g.index(0, 1000) as u64);
            match g.choice(3) {
                0 => {
                    top_level.push(open.is_empty());
                    open.push(t.span("s"));
                }
                1 if !open.is_empty() => {
                    top_level.push(false);
                    open.pop();
                }
                _ => {
                    top_level.push(open.is_empty());
                    t.point("p");
                }
            }
            let evicted = ring_evicted(&top_level, capacity);
            assert_eq!(t.tail_jsonl(capacity), ring_snapshot(&t, capacity, evicted));
        }
    });
}
