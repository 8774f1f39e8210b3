//! The CSP text format, `heron-csp v2`: a sealed [`kv`] document with one
//! variable declaration or constraint per line.
//!
//! Lets generated spaces be cached on disk, inspected, or diffed:
//!
//! ```text
//! heron-csp v2
//! var = tile.C.i0 tunable values 1 2 4 8
//! var = grid other range 1 4096
//! var = m arch values 8 16 32
//! prod = grid tile.C.i0 m
//! in = m 8 16 32
//! le = grid m
//! select = grid m tile.C.i0 m
//! crc32 = 0123abcd
//! ```
//!
//! A `var` line is a name, a category and a domain. `prod`/`sum` name
//! the output, then the operands; `select` the output, the index, then
//! the choices; `in` a variable, then its values. Names are single
//! tokens: [`to_text`] refuses a CSP whose names the format cannot carry.
//! Reading goes through [`kv::unseal`], so a truncated or bit-flipped
//! file is [`CheckpointError::Corrupt`], a `heron-csp v1` file
//! [`CheckpointError::VersionMismatch`], and every malformed line a
//! [`CheckpointError::Parse`] naming it.

use heron_trace::kv::{self, CheckpointError, Entry, Tokens, Words};

use crate::constraint::Constraint;
use crate::domain::Domain;
use crate::problem::{Csp, VarCategory, VarRef};

const HEADER: &str = "heron-csp v2";

fn category_tag(c: VarCategory) -> &'static str {
    match c {
        VarCategory::Arch => "arch",
        VarCategory::LoopLength => "loop",
        VarCategory::Tunable => "tunable",
        VarCategory::Other => "other",
    }
}

fn parse_category(tag: &str) -> Option<VarCategory> {
    Some(match tag {
        "arch" => VarCategory::Arch,
        "loop" => VarCategory::LoopLength,
        "tunable" => VarCategory::Tunable,
        "other" => VarCategory::Other,
        _ => return None,
    })
}

/// Serialises a CSP to the sealed text format.
///
/// # Errors
/// [`CheckpointError::Unwritable`] when a variable name is not a single
/// token without `#`.
pub fn to_text(csp: &Csp) -> Result<String, CheckpointError> {
    let mut w = kv::Writer::new(HEADER);
    for (_, decl) in csp.vars() {
        let (name, tag) = (kv::word(&decl.name)?, category_tag(decl.category));
        match &decl.domain {
            Domain::Values(v) => w.line("var", format_args!("{name} {tag} values {}", Words(v))),
            Domain::Range { lo, hi } => w.line("var", format_args!("{name} {tag} range {lo} {hi}")),
        }
    }
    // Every name below was checked as a declaration above.
    for c in csp.constraints() {
        match c {
            Constraint::Prod { out, factors } => w.line("prod", names(csp, &[*out], factors)),
            Constraint::Sum { out, terms } => w.line("sum", names(csp, &[*out], terms)),
            Constraint::Eq(a, b) => w.line("eq", names(csp, &[*a, *b], &[])),
            Constraint::Le(a, b) => w.line("le", names(csp, &[*a, *b], &[])),
            Constraint::In { var, values } => w.line(
                "in",
                format_args!("{} {}", csp.var(*var).name, Words(values)),
            ),
            Constraint::Select {
                out,
                index,
                choices,
            } => w.line("select", names(csp, &[*out, *index], choices)),
        }
    }
    Ok(w.seal())
}

/// Parses the sealed text format back into a CSP.
///
/// # Errors
/// [`CheckpointError::Corrupt`] or [`CheckpointError::VersionMismatch`]
/// for a damaged file or another version; [`CheckpointError::Parse`]
/// naming the line of any malformed declaration or constraint, a
/// duplicate variable, an empty or negative domain, or a dangling
/// reference.
pub fn from_text(text: &str) -> Result<Csp, CheckpointError> {
    let mut csp = Csp::new();
    for entry in kv::unseal(text, HEADER)? {
        let e = entry?;
        let mut t = e.tokens();
        match e.key {
            "var" => {
                let name = t.word()?;
                let category = parse_category(t.word()?)
                    .ok_or_else(|| e.error("category must be arch|loop|tunable|other"))?;
                let domain = match t.word()? {
                    "values" => {
                        let values = t.rest::<i64>()?;
                        match values.iter().min() {
                            None => return Err(e.error("needs at least one value")),
                            Some(&v) if v < 0 => return Err(e.error("values must be >= 0")),
                            Some(_) => Domain::values(values),
                        }
                    }
                    "range" => {
                        let (lo, hi) = (t.num()?, t.num()?);
                        t.end()?;
                        if !(0 <= lo && lo <= hi) {
                            return Err(e.error(format!("range needs 0 <= lo <= hi: {lo} {hi}")));
                        }
                        Domain::range(lo, hi)
                    }
                    _ => return Err(e.error("domain kind must be values|range")),
                };
                if csp.var_by_name(name).is_some() {
                    return Err(e.error(format!("duplicate variable `{name}`")));
                }
                csp.add_var(name, domain, category);
            }
            "in" => {
                let var = lookup(&csp, &e, t.word()?)?;
                let values = t.rest::<i64>()?;
                if values.is_empty() {
                    return Err(e.error("needs at least one value"));
                }
                csp.post_in(var, values);
            }
            "prod" | "sum" | "eq" | "le" | "select" => {
                let c = match (e.key, lookup_all(&csp, &e, t)?.as_slice()) {
                    ("prod", [out, factors @ ..]) if !factors.is_empty() => Constraint::Prod {
                        out: *out,
                        factors: factors.to_vec(),
                    },
                    ("sum", [out, terms @ ..]) if !terms.is_empty() => Constraint::Sum {
                        out: *out,
                        terms: terms.to_vec(),
                    },
                    ("eq", &[a, b]) => Constraint::Eq(a, b),
                    ("le", &[a, b]) => Constraint::Le(a, b),
                    ("select", [out, index, choices @ ..]) if !choices.is_empty() => {
                        Constraint::Select {
                            out: *out,
                            index: *index,
                            choices: choices.to_vec(),
                        }
                    }
                    ("eq" | "le", _) => return Err(e.error("needs exactly two variables")),
                    ("select", _) => return Err(e.error("needs an output, an index and a choice")),
                    _ => return Err(e.error("needs an output and an operand")),
                };
                csp.post(c);
            }
            other => return Err(e.error(format!("unknown keyword `{other}`"))),
        }
    }
    Ok(csp)
}

/// The names of `head` then `rest`, space-separated.
fn names<'a>(
    csp: &'a Csp,
    head: &'a [VarRef],
    rest: &'a [VarRef],
) -> Words<impl Iterator<Item = &'a String> + Clone> {
    Words(head.iter().chain(rest).map(|r| &csp.var(*r).name))
}

/// The declared variable `name`.
fn lookup(csp: &Csp, e: &Entry<'_>, name: &str) -> Result<VarRef, CheckpointError> {
    csp.var_by_name(name)
        .ok_or_else(|| e.error(format!("unknown variable `{name}`")))
}

/// Every remaining token as a declared variable.
fn lookup_all(csp: &Csp, e: &Entry<'_>, t: Tokens<'_>) -> Result<Vec<VarRef>, CheckpointError> {
    t.map(|name| lookup(csp, e, name)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolvePolicy, SolveSession};
    use heron_rng::HeronRng;
    use heron_trace::Tracer;

    fn sample_csp() -> Csp {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::values([1, 2, 4, 8]), VarCategory::Tunable);
        let y = csp.add_var("y", Domain::values([1, 2, 4, 8]), VarCategory::Tunable);
        let n = csp.add_const("n", 8);
        let s = csp.add_var("s", Domain::range(0, 64), VarCategory::Other);
        let idx = csp.add_var("idx", Domain::values([0, 1]), VarCategory::Tunable);
        let pick = csp.add_var("pick", Domain::range(1, 8), VarCategory::LoopLength);
        csp.post_prod(n, vec![x, y]);
        csp.post_sum(s, vec![x, y]);
        csp.post_le(x, n);
        csp.post_eq(pick, pick);
        csp.post_in(idx, [0, 1]);
        csp.post_select(pick, idx, vec![x, y]);
        csp
    }

    /// `body` sealed under this format's header.
    fn doc(body: &str) -> String {
        let text = format!("{HEADER}\n{body}");
        format!("{text}crc32 = {:08x}\n", kv::crc32(text.as_bytes()))
    }

    #[test]
    fn csp_text_roundtrip() {
        let csp = sample_csp();
        let text = to_text(&csp).expect("writable names");
        assert!(text.contains("\nselect = pick idx x y\n"), "{text}");
        let back = from_text(&text).expect("parses");
        assert_eq!(back.num_vars(), csp.num_vars());
        assert_eq!(back.num_constraints(), csp.num_constraints());
        // Solutions transfer across the round trip.
        let mut rng = HeronRng::from_seed(1);
        let policy = SolvePolicy::default();
        let mut session = SolveSession::new(&csp);
        let sols = session.solve(&mut rng, 8, &policy, &Tracer::disabled());
        for sol in sols.expect_sat("sample csp") {
            assert!(crate::solver::validate(&back, &sol));
        }
        // Second round trip is a fixed point.
        assert_eq!(to_text(&back).unwrap(), text);
    }

    #[test]
    fn parse_errors_have_line_numbers() {
        for (body, line) in [
            ("var = x tunable values 1 2\nwobble = x y\n", 3),
            ("eq = a b\n", 2),
            ("var = x tunable range 5 1\n", 2),
            ("var = x tunable range -1 3\n", 2),
            ("var = x tunable values -1\n", 2),
            ("var = x tunable values\n", 2),
            ("var = x tunable values 1\nvar = x other range 0 4\n", 3),
            ("var = x tunable values 1 trailing junk\n", 2),
            ("var = x tunable range 1 3 junk\n", 2),
            ("var = x tunable values 1\nin = x\n", 3),
            ("var = x tunable values 1\nprod = x\n", 3),
            ("var = x tunable values 1\nle = x x x\n", 3),
            ("var = x tunable values 1\nselect = x x\n", 3),
            ("var = x sideways values 1\n", 2),
            ("no equals sign\n", 2),
        ] {
            match from_text(&doc(body)) {
                Err(CheckpointError::Parse { line: l, .. }) => assert_eq!(l, line, "{body:?}"),
                other => panic!("{body:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn damaged_and_old_files_are_told_apart() {
        let text = to_text(&sample_csp()).unwrap();
        let err = from_text(&text[..text.len() - 3]).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        let v1 = "heron-csp v1\nvar x tunable values 1,2\n";
        let err = from_text(v1).unwrap_err();
        assert!(
            matches!(err, CheckpointError::VersionMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn names_the_format_cannot_carry_are_refused() {
        for bad in ["a b", "a#b", "", "x\n"] {
            let mut csp = Csp::new();
            csp.add_var(bad, Domain::values([1]), VarCategory::Tunable);
            let err = to_text(&csp).unwrap_err();
            assert!(matches!(err, CheckpointError::Unwritable(_)), "{bad:?}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = doc("\n# a comment\nvar = x tunable values 1 2 # trailing\n");
        let csp = from_text(&text).expect("parses");
        assert_eq!(csp.num_vars(), 1);
    }
}
