//! Fuzz targets for the text formats: the two reading kernels
//! (`heron_trace::kv` and `heron_trace::json`), the job-script and SLO
//! grammars read through kv, and the sealed CSP and kernel-library
//! formats written in it.
//!
//! Every target writes a valid document, mutates it — byte flips,
//! truncations, lines spliced in from elsewhere in the document, deep
//! nesting for JSON — and checks one property: the reader rejects the
//! input with an error naming a line, a byte offset or the header it
//! found, or it accepts the input and the value round-trips through the
//! writer to an equal value. A panic anywhere fails the target. Sealed
//! documents are also mutated above their CRC footer and sealed again, so
//! the line parsers see the damage and not only the integrity check.
//! Failures shrink on the harness tape and replay with
//! `HERON_PROPTEST_REPLAY`.

use heron::core::library::{KernelLibrary, LibraryEntry};
use heron::csp::{self, Csp, Domain, VarCategory};
use heron::pulse::SloSpec;
use heron::serve::{parse_script, JobError, JobScript};
use heron::trace::json::{self, Json};
use heron::trace::kv::{self, Bits, CheckpointError, Hex, Words};
use heron_testkit::{csp_corpus, property_cases, Gen};

/// `text` after one to three mutations; bytes that stop being UTF-8 are
/// read lossily, as a reader of a damaged file would see them.
fn mutate(g: &mut Gen, text: &str) -> String {
    let mut out = text.to_string();
    for _ in 0..g.int_inclusive(1, 3) {
        if out.is_empty() {
            break;
        }
        out = match g.choice(3) {
            0 => {
                let mut bytes = out.into_bytes();
                let at = g.index(0, bytes.len());
                bytes[at] ^= 1 << g.choice(8);
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => String::from_utf8_lossy(&out.as_bytes()[..g.index(0, out.len())]).into_owned(),
            _ => {
                let mut lines: Vec<&str> = out.split_inclusive('\n').collect();
                let line = lines[g.index(0, lines.len())];
                let at = g.index(0, lines.len());
                if g.bool(0.5) {
                    lines[at] = line;
                } else {
                    lines.insert(at, line);
                }
                lines.concat()
            }
        };
    }
    out
}

/// `sealed` with the text above its CRC footer mutated, then sealed again.
fn reseal_mutated(g: &mut Gen, sealed: &str) -> String {
    let body = mutate(g, &sealed[..sealed.rfind("crc32 = ").expect("sealed")]);
    format!("{body}crc32 = {:08x}\n", kv::crc32(body.as_bytes()))
}

/// `err` names where `input` went wrong.
fn assert_located(err: &CheckpointError, input: &str) {
    match err {
        CheckpointError::Parse { line, .. } => {
            assert!((1..=input.lines().count().max(1)).contains(line), "{err}")
        }
        CheckpointError::Corrupt { offset, .. } => assert!(*offset <= input.len(), "{err}"),
        CheckpointError::VersionMismatch { .. } => {}
        other => panic!("error names no place in the input: {other}"),
    }
}

/// A sealed document changed in any byte is rejected before it is parsed.
fn assert_rejects_damage<T: std::fmt::Debug>(
    g: &mut Gen,
    sealed: &str,
    read: impl Fn(&str) -> Result<T, CheckpointError>,
) {
    let damaged = mutate(g, sealed);
    if damaged != sealed {
        let err = read(&damaged).expect_err("a damaged sealed document loads");
        assert!(
            matches!(
                err,
                CheckpointError::Corrupt { .. } | CheckpointError::VersionMismatch { .. }
            ),
            "{err}"
        );
        assert_located(&err, &damaged);
    }
}

const KV_HEADER: &str = "heron-fuzz v2";

/// Every entry of a sealed document, each also read by every typed reader,
/// which must fail on the entry's own line or not at all.
fn kv_entries(text: &str) -> Result<Vec<(String, String)>, CheckpointError> {
    kv::unseal(text, KV_HEADER)?
        .map(|entry| {
            let e = entry?;
            let typed = [
                e.tokens().rest::<i64>().err(),
                e.bits(e.value).err(),
                e.hex(e.value).err(),
                e.tokens().opt_bits().err(),
                e.tokens().flag().err(),
                e.tokens().end().err(),
            ];
            for err in typed.into_iter().flatten() {
                let here = matches!(err, CheckpointError::Parse { line, .. } if line == e.line);
                assert!(here, "line {}: {err}", e.line);
            }
            Ok((e.key.to_string(), e.value.to_string()))
        })
        .collect()
}

#[test]
fn fuzz_kv_kernel() {
    property_cases("fuzz_kv_kernel", 2048, |g| {
        let mut w = kv::Writer::new(KV_HEADER);
        let mut written = Vec::new();
        for _ in 0..g.index(0, 8) {
            let key = *g.pick(&["seed", "curve", "insight.round", "best", "x"]);
            let value = match g.choice(4) {
                0 => Bits(f64::from_bits(g.choice(u64::MAX))).to_string(),
                1 => {
                    let n = g.index(0, 5);
                    let words: Vec<i64> = (0..n).map(|_| g.int(-1000, 1000)).collect();
                    Words(&words).to_string()
                }
                2 => Hex(g.choice(u64::MAX)).to_string(),
                _ => g.pick(&["-", "0 1", "a b c", "x=y", ""]).to_string(),
            };
            if g.bool(0.2) {
                w.comment("a comment");
            }
            w.line(key, &value);
            written.push((key.to_string(), value));
        }
        let text = w.seal();
        assert_eq!(kv_entries(&text).expect("reads its own output"), written);
        assert_rejects_damage(g, &text, kv_entries);

        let resealed = reseal_mutated(g, &text);
        match kv_entries(&resealed) {
            Ok(read) => {
                let mut w = kv::Writer::new(KV_HEADER);
                for (key, value) in &read {
                    w.line(key, value);
                }
                assert_eq!(kv_entries(&w.seal()).expect("rewritten"), read);
            }
            Err(err) => assert_located(&err, &resealed),
        }
    });
}

fn arb_json(g: &mut Gen, depth: usize) -> Json {
    match g.choice(if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(g.bool(0.5)),
        2 => Json::Num(*g.pick(&[0.0, -2.5, 1e300, 7.0, 0.1, -1e-7, 123_456_789.0])),
        3 => Json::Str(
            g.pick(&["", "a\"b\\c", "line\nbreak\t", "µ", "\u{1}/"])
                .to_string(),
        ),
        4 => {
            let n = g.index(0, 4);
            Json::Arr((0..n).map(|_| arb_json(g, depth - 1)).collect())
        }
        _ => {
            let n = g.index(0, 4);
            Json::Obj(
                (0..n)
                    .map(|i| (format!("k{i}"), arb_json(g, depth - 1)))
                    .collect(),
            )
        }
    }
}

#[test]
fn fuzz_json_kernel() {
    property_cases("fuzz_json_kernel", 2048, |g| {
        let value = arb_json(g, 3);
        let text = match g.bool(0.5) {
            true => value.render(),
            false => value.render_pretty(),
        };
        assert_eq!(json::parse(&text).expect("reads its own output"), value);
        let input = match g.choice(4) {
            0 => {
                let n = g.index(0, 2 * json::MAX_DEPTH);
                format!("{}{text}{}", "[".repeat(n), "]".repeat(n))
            }
            1 => format!("{}{text}", "[".repeat(1_000_000)),
            _ => mutate(g, &text),
        };
        match json::parse(&input) {
            Ok(v) => {
                assert_eq!(json::parse(&v.render()).expect("compact"), v);
                assert_eq!(json::parse(&v.render_pretty()).expect("pretty"), v);
            }
            Err(msg) => {
                let at = msg.rsplit("at byte ").next().and_then(|n| n.parse().ok());
                assert!(at.is_some_and(|at: usize| at <= input.len()), "{msg}");
            }
        }
    });
}

/// A job script in the grammar's canonical spelling; kill rules are
/// opaque, so their lines are passed through.
fn render_script(s: &JobScript, kills: &[&str]) -> String {
    let c = &s.config;
    let mut out = format!(
        "workers = {}\nqueue_capacity = {}\nrestart_budget = {}\ncheckpoint_every = {}\n\
         poll_interval_ms = {}\nhang_grace_polls = {}\ndrain_after_completions = {}\n",
        c.workers,
        c.queue_capacity,
        c.restart_budget,
        c.checkpoint_every,
        c.poll_interval_ms,
        c.hang_grace_polls,
        c.drain_after_completions
    );
    for j in &s.jobs {
        out += &format!(
            "job {} op={} shape={} dla={} trials={} seed={} fault_rate={} deadline_rounds={}\n",
            j.id, j.op, j.shape, j.dla, j.trials, j.seed, j.fault_rate, j.deadline_rounds
        );
    }
    for kill in kills {
        out += &format!("{kill}\n");
    }
    out
}

fn arb_script(g: &mut Gen) -> String {
    let mut out = String::new();
    for i in 0..g.index(1, 10) {
        let line = match g.choice(4) {
            0 => format!(
                "{} = {}",
                g.pick(&[
                    "workers",
                    "queue_capacity",
                    "checkpoint_every",
                    "hang_grace_polls"
                ]),
                g.int(0, 100)
            ),
            1 => format!("restart_budget = {}", g.int(0, 100)),
            2 => format!(
                "job j{i} op={} shape={} trials={} fault_rate={} deadline_rounds={}",
                g.pick(&["gemm", "gemv", "c2d", "scan"]),
                g.pick(&["96x96x96", "8xfoox8", "0x8x8", "1x8x8x4x4x3x0x1", "16x64"]),
                g.int(1, 100),
                g.pick(&[0.0, 0.15, 1e-3]),
                g.int(0, 5),
            ),
            _ => format!(
                "kill j{} attempt={} round={} kind={}",
                g.index(0, 5),
                g.int(0, 3),
                g.int(1, 9),
                g.pick(&["crash", "hang"])
            ),
        };
        let comment = if g.bool(0.3) { " # note" } else { "" };
        out += &format!("{line}{comment}\n");
        if g.bool(0.2) {
            out += "\n# a whole-line comment\n";
        }
    }
    out
}

/// `text`'s script, spelled canonically, parses to the same script, and
/// admission judges each of its jobs without panicking.
fn assert_script_round_trips(text: &str, script: &JobScript) {
    let kills: Vec<&str> = kv::lines(text)
        .filter(|l| l.tokens().next() == Some("kill"))
        .map(|l| l.text)
        .collect();
    let again = parse_script(&render_script(script, &kills));
    assert_eq!(again.as_ref(), Ok(script));
    for job in &script.jobs {
        let _ = job.validate();
    }
}

#[test]
fn fuzz_job_script_grammar() {
    property_cases("fuzz_job_script_grammar", 2048, |g| {
        let text = arb_script(g);
        let script = parse_script(&text).expect("a generated script parses");
        assert_script_round_trips(&text, &script);
        let input = mutate(g, &text);
        match parse_script(&input) {
            Ok(script) => assert_script_round_trips(&input, &script),
            Err(JobError::BadScript { line, reason }) => {
                assert!((1..=input.lines().count()).contains(&line), "{line}");
                assert!(!reason.contains("checkpoint parse error"), "{reason}");
            }
            Err(other) => panic!("a script fails only line by line: {other}"),
        }
    });
}

fn render_slo(spec: &SloSpec) -> String {
    let mut out = String::new();
    for r in &spec.rules {
        out += &format!("{} {} {}", r.metric, r.op.symbol(), r.threshold);
        if let Some(w) = r.warn {
            out += &format!(" warn {w}");
        }
        out += "\n";
    }
    out
}

#[test]
fn fuzz_slo_grammar() {
    property_cases("fuzz_slo_grammar", 2048, |g| {
        let mut text = String::new();
        for _ in 0..g.index(1, 6) {
            text += &format!(
                "{} {} {}",
                g.pick(&["reject_rate", "recovery_max_s", "sol_per_kprop", "m"]),
                g.pick(&["<=", ">="]),
                g.pick(&["0.2", "40", "1.5", "1e-9", "-3", "123456"])
            );
            if g.bool(0.4) {
                text += &format!(" warn {}", g.pick(&["2.0", "10", "0.125"]));
            }
            text += if g.bool(0.3) { " # note\n" } else { "\n" };
        }
        let spec = SloSpec::parse(&text).expect("a generated spec parses");
        assert_eq!(SloSpec::parse(&render_slo(&spec)), Ok(spec));
        let input = mutate(g, &text);
        match SloSpec::parse(&input) {
            Ok(spec) => assert_eq!(SloSpec::parse(&render_slo(&spec)), Ok(spec)),
            Err(msg) => {
                let line = msg
                    .strip_prefix("line ")
                    .and_then(|m| m.split(':').next())
                    .and_then(|n| n.parse::<usize>().ok());
                let lines = 1..=input.lines().count();
                assert!(line.is_some_and(|n| lines.contains(&n)), "{msg}");
            }
        }
    });
}

/// Names the kv format refuses to carry: a `#`, a line break, surrounding
/// whitespace, and for a token also inner whitespace or nothing at all.
const BAD_VALUES: [&str; 4] = ["a#b", " lead", "trail\t", "k\nentry = j"];
const BAD_WORDS: [&str; 3] = ["a b", "", "x#"];

#[test]
fn fuzz_csp_format() {
    property_cases("fuzz_csp_format", 1024, |g| {
        let mut csp: Csp = match g.choice(2) {
            0 => csp_corpus::heron_shaped_csp(g),
            _ => csp_corpus::unsat_csp(g),
        };
        let first = csp.vars().map(|(r, _)| r).take(2).collect::<Vec<_>>();
        csp.post_sum(first[0], vec![first[1]]);
        let bad = g.bool(0.1);
        if bad {
            let name = *g.pick(&[BAD_VALUES.as_slice(), &BAD_WORDS].concat());
            csp.add_var(name, Domain::values([1]), VarCategory::Other);
        }
        let text = match csp::to_text(&csp) {
            Err(CheckpointError::Unwritable(_)) if bad => return,
            other => other.expect("every name is a token"),
        };
        let back = csp::from_text(&text).expect("reads its own output");
        assert_eq!(csp::to_text(&back).expect("rewritten"), text);
        assert_rejects_damage(g, &text, csp::from_text);

        let resealed = reseal_mutated(g, &text);
        match csp::from_text(&resealed) {
            Ok(read) => {
                let text = csp::to_text(&read).expect("read names are tokens");
                let again = csp::from_text(&text).expect("reads the rewritten text");
                assert_eq!(csp::to_text(&again).expect("rewritten"), text);
            }
            Err(err) => assert_located(&err, &resealed),
        }
    });
}

#[test]
fn fuzz_library_format() {
    property_cases("fuzz_library_format", 2048, |g| {
        let pick = |g: &mut Gen, good: &[&'static str], bad: &[&'static str]| {
            let from = if g.bool(0.05) { bad } else { good };
            *g.pick(from)
        };
        let mut lib = KernelLibrary::new();
        for _ in 0..g.index(0, 4) {
            let key = pick(
                g,
                &["gemm-256", "c2d-14x64", "k", "a b", "x=y", ""],
                &BAD_VALUES,
            );
            let dla = pick(g, &["v100", "dlboost", "vta"], &BAD_VALUES).to_string();
            let tunables = (0..g.index(0, 3))
                .map(|_| {
                    let name = pick(g, &["tile.C.i0", "vec.A.shared", "t"], &BAD_WORDS);
                    (name.to_string(), g.int(-8, 4096))
                })
                .collect();
            let gflops = match g.bool(0.5) {
                true => f64::from_bits(g.choice(u64::MAX)),
                false => g.f64_in(0.0, 1e5),
            };
            let latency_s = 1.0 / gflops;
            lib.insert(
                key,
                LibraryEntry {
                    dla,
                    gflops,
                    latency_s,
                    tunables,
                },
            );
        }
        let bad = lib.iter().any(|(key, e)| {
            BAD_VALUES.contains(&key.as_str())
                || BAD_VALUES.contains(&e.dla.as_str())
                || e.tunables.keys().any(|n| BAD_WORDS.contains(&n.as_str()))
        });
        let text = match lib.to_text() {
            Err(CheckpointError::Unwritable(_)) if bad => return,
            other => other.expect("every name is carried"),
        };
        let back = KernelLibrary::from_text(&text).expect("reads its own output");
        assert_eq!(back.to_text().expect("rewritten"), text);
        assert_eq!(back.iter().count(), lib.len());
        assert_rejects_damage(g, &text, KernelLibrary::from_text);

        let resealed = reseal_mutated(g, &text);
        match KernelLibrary::from_text(&resealed) {
            Ok(read) => {
                let text = read.to_text().expect("read names are carried");
                let again = KernelLibrary::from_text(&text).expect("reads the rewritten text");
                assert_eq!(again.to_text().expect("rewritten"), text);
            }
            Err(err) => assert_located(&err, &resealed),
        }
    });
}
