//! Plain-text (de)serialisation of CSPs and solutions.
//!
//! Lets generated spaces be cached on disk, inspected, or diffed. The
//! format is line-oriented and self-describing:
//!
//! ```text
//! heron-csp v1
//! var tile.C.i0 tunable values 1,2,4,8
//! var grid other range 1..4096
//! var m arch values 8,16,32
//! prod grid = tile.C.i0 m
//! in m 8,16,32
//! le grid m
//! select grid m <- tile.C.i0 m
//! ```

use crate::constraint::Constraint;
use crate::domain::Domain;
use crate::problem::{Csp, Solution, VarCategory, VarRef};

/// Error from parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "csp parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

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

/// Serialises a CSP to the text format.
pub fn to_text(csp: &Csp) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("heron-csp v1\n");
    for (_, decl) in csp.vars() {
        match &decl.domain {
            Domain::Values(v) => {
                let vals: Vec<String> = v.iter().map(|x| x.to_string()).collect();
                let _ = writeln!(
                    out,
                    "var {} {} values {}",
                    decl.name,
                    category_tag(decl.category),
                    vals.join(",")
                );
            }
            Domain::Range { lo, hi } => {
                let _ = writeln!(
                    out,
                    "var {} {} range {lo}..{hi}",
                    decl.name,
                    category_tag(decl.category)
                );
            }
        }
    }
    let name = |r: VarRef| csp.var(r).name.clone();
    for c in csp.constraints() {
        match c {
            Constraint::Prod { out: o, factors } => {
                let fs: Vec<String> = factors.iter().map(|&f| name(f)).collect();
                let _ = writeln!(out, "prod {} = {}", name(*o), fs.join(" "));
            }
            Constraint::Sum { out: o, terms } => {
                let ts: Vec<String> = terms.iter().map(|&t| name(t)).collect();
                let _ = writeln!(out, "sum {} = {}", name(*o), ts.join(" "));
            }
            Constraint::Eq(a, b) => {
                let _ = writeln!(out, "eq {} {}", name(*a), name(*b));
            }
            Constraint::Le(a, b) => {
                let _ = writeln!(out, "le {} {}", name(*a), name(*b));
            }
            Constraint::In { var, values } => {
                let vals: Vec<String> = values.iter().map(|x| x.to_string()).collect();
                let _ = writeln!(out, "in {} {}", name(*var), vals.join(","));
            }
            Constraint::Select {
                out: o,
                index,
                choices,
            } => {
                let cs: Vec<String> = choices.iter().map(|&x| name(x)).collect();
                let _ = writeln!(
                    out,
                    "select {} {} <- {}",
                    name(*o),
                    name(*index),
                    cs.join(" ")
                );
            }
        }
    }
    out
}

/// Parses the text format back into a CSP.
///
/// # Errors
/// Returns [`ParseError`] on any malformed line or dangling reference.
pub fn from_text(text: &str) -> Result<Csp, ParseError> {
    let err = |line: usize, message: &str| ParseError {
        line: line + 1,
        message: message.into(),
    };
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "heron-csp v1")) => {}
        _ => return Err(err(0, "missing `heron-csp v1` header")),
    }
    let mut csp = Csp::new();
    let lookup = |csp: &Csp, ln: usize, name: &str| {
        csp.var_by_name(name)
            .ok_or_else(|| err(ln, &format!("unknown variable `{name}`")))
    };
    let parse_values = |ln: usize, text: &str| -> Result<Vec<i64>, ParseError> {
        text.split(',')
            .map(|v| {
                v.trim()
                    .parse::<i64>()
                    .map_err(|_| err(ln, &format!("bad value `{v}`")))
            })
            .collect()
    };
    for (ln, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let keyword = words.next().expect("non-empty line");
        match keyword {
            "var" => {
                let name = words.next().ok_or_else(|| err(ln, "var needs a name"))?;
                let cat = words
                    .next()
                    .and_then(parse_category)
                    .ok_or_else(|| err(ln, "bad category"))?;
                let kind = words.next().ok_or_else(|| err(ln, "missing domain kind"))?;
                let body = words.next().ok_or_else(|| err(ln, "missing domain body"))?;
                let domain = match kind {
                    "values" => Domain::values(parse_values(ln, body)?),
                    "range" => {
                        let (lo, hi) = body
                            .split_once("..")
                            .ok_or_else(|| err(ln, "range needs lo..hi"))?;
                        let lo = lo.parse().map_err(|_| err(ln, "bad range lo"))?;
                        let hi = hi.parse().map_err(|_| err(ln, "bad range hi"))?;
                        Domain::range(lo, hi)
                    }
                    _ => return Err(err(ln, "domain kind must be values|range")),
                };
                csp.add_var(name, domain, cat);
            }
            "prod" | "sum" => {
                let out_name = words.next().ok_or_else(|| err(ln, "missing output"))?;
                let eq = words.next();
                if eq != Some("=") {
                    return Err(err(ln, "expected `=`"));
                }
                let out = lookup(&csp, ln, out_name)?;
                let operands: Result<Vec<VarRef>, ParseError> =
                    words.map(|w| lookup(&csp, ln, w)).collect();
                let operands = operands?;
                if operands.is_empty() {
                    return Err(err(ln, "needs at least one operand"));
                }
                if keyword == "prod" {
                    csp.post_prod(out, operands);
                } else {
                    csp.post_sum(out, operands);
                }
            }
            "eq" | "le" => {
                let a = lookup(
                    &csp,
                    ln,
                    words.next().ok_or_else(|| err(ln, "missing lhs"))?,
                )?;
                let b = lookup(
                    &csp,
                    ln,
                    words.next().ok_or_else(|| err(ln, "missing rhs"))?,
                )?;
                if keyword == "eq" {
                    csp.post_eq(a, b);
                } else {
                    csp.post_le(a, b);
                }
            }
            "in" => {
                let var = lookup(
                    &csp,
                    ln,
                    words.next().ok_or_else(|| err(ln, "missing var"))?,
                )?;
                let vals =
                    parse_values(ln, words.next().ok_or_else(|| err(ln, "missing values"))?)?;
                csp.post_in(var, vals);
            }
            "select" => {
                let out = lookup(
                    &csp,
                    ln,
                    words.next().ok_or_else(|| err(ln, "missing out"))?,
                )?;
                let index = lookup(
                    &csp,
                    ln,
                    words.next().ok_or_else(|| err(ln, "missing index"))?,
                )?;
                if words.next() != Some("<-") {
                    return Err(err(ln, "expected `<-`"));
                }
                let choices: Result<Vec<VarRef>, ParseError> =
                    words.map(|w| lookup(&csp, ln, w)).collect();
                let choices = choices?;
                if choices.is_empty() {
                    return Err(err(ln, "select needs choices"));
                }
                csp.post_select(out, index, choices);
            }
            other => return Err(err(ln, &format!("unknown keyword `{other}`"))),
        }
    }
    Ok(csp)
}

/// Serialises a solution as `name = value` lines against its CSP.
pub fn solution_to_text(csp: &Csp, sol: &Solution) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("heron-solution v1\n");
    for (r, decl) in csp.vars() {
        let _ = writeln!(out, "{} = {}", decl.name, sol.value(r));
    }
    out
}

/// Parses a solution produced by [`solution_to_text`] for `csp`.
///
/// # Errors
/// Returns [`ParseError`] on malformed lines, unknown variables, or
/// missing assignments.
pub fn solution_from_text(csp: &Csp, text: &str) -> Result<Solution, ParseError> {
    let err = |line: usize, message: &str| ParseError {
        line: line + 1,
        message: message.into(),
    };
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "heron-solution v1")) => {}
        _ => return Err(err(0, "missing `heron-solution v1` header")),
    }
    let mut values = vec![None; csp.num_vars()];
    for (ln, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once('=')
            .ok_or_else(|| err(ln, "expected name = value"))?;
        let var = csp
            .var_by_name(name.trim())
            .ok_or_else(|| err(ln, &format!("unknown variable `{}`", name.trim())))?;
        let v: i64 = value.trim().parse().map_err(|_| err(ln, "bad value"))?;
        values[var.0] = Some(v);
    }
    let values: Option<Vec<i64>> = values.into_iter().collect();
    match values {
        Some(v) => Ok(Solution::new(v)),
        None => Err(ParseError {
            line: 0,
            message: "missing assignments".into(),
        }),
    }
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

    #[test]
    fn csp_text_roundtrip() {
        let csp = sample_csp();
        let text = to_text(&csp);
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
        assert_eq!(to_text(&back), text);
    }

    #[test]
    fn solution_text_roundtrip() {
        let csp = sample_csp();
        let mut rng = HeronRng::from_seed(2);
        let sol = SolveSession::new(&csp)
            .solve(&mut rng, 1, &SolvePolicy::default(), &Tracer::disabled())
            .one()
            .expect("solvable");
        let text = solution_to_text(&csp, &sol);
        let back = solution_from_text(&csp, &text).expect("parses");
        assert_eq!(back, sol);
    }

    #[test]
    fn parse_errors_have_line_numbers() {
        assert!(from_text("nope").is_err());
        let bad = "heron-csp v1\nvar x tunable values 1,2\nwobble x y\n";
        let e = from_text(bad).expect_err("unknown keyword");
        assert_eq!(e.line, 3);
        let dangling = "heron-csp v1\neq a b\n";
        assert!(from_text(dangling).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "heron-csp v1\n\n# a comment\nvar x tunable values 1,2\n";
        let csp = from_text(text).expect("parses");
        assert_eq!(csp.num_vars(), 1);
    }

    #[test]
    fn solution_requires_every_variable() {
        let csp = sample_csp();
        let partial = "heron-solution v1\nx = 2\n";
        assert!(solution_from_text(&csp, partial).is_err());
    }
}
