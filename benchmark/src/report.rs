//! Result documents: the one-line result of a single workload run, the
//! `heron-hostbench-v1` file `run` writes, and `compare` over two files.

use heron_trace::json::Json;

use crate::names::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

/// Schema tag of the file `run` writes.
pub const SCHEMA: &str = "heron-hostbench-v1";

/// `{"value": v, "unit": u}`; a value that could not be measured (no
/// `/proc`) is `null`.
fn metric_json(def: &MetricDef, value: Option<f64>) -> Json {
    Json::Obj(vec![
        ("value".into(), value.map_or(Json::Null, Json::Num)),
        ("unit".into(), Json::Str(def.unit.into())),
    ])
}

/// The one-line result of one workload run: exactly `correct`,
/// `attempted`, `failed` and `metrics`, the latter holding every metric of
/// `defs` by name.
pub fn result_json(
    defs: &[MetricDef],
    value_of: impl Fn(&str) -> Option<f64>,
    attempted: u64,
    failed: u64,
) -> Json {
    let metrics = defs
        .iter()
        .map(|def| (def.name.to_string(), metric_json(def, value_of(def.name))))
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// A table of `defs` as read back from a one-line result, for people.
pub fn render_table(workload: &str, defs: &[MetricDef], result: &Json) -> String {
    let mut out = format!("{workload}\n");
    for def in defs {
        let value = metric_value(result, def.name);
        let text = value.map_or("n/a".to_string(), |v| {
            if def.unit == "count" {
                format!("{v}")
            } else {
                format!("{v:.6}")
            }
        });
        out.push_str(&format!("  {:<32} {:>18} {}\n", def.name, text, def.unit));
    }
    out
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn workload_result<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
}

/// How one (metric, workload) pair moved from file A to file B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The change exceeds the bound but not the run-to-run noise the files
    /// themselves report, so it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on a metric that read `a` before and `b` after. `noise` is
/// the larger relative spread between passes (max÷min − 1) either run saw.
pub fn verdict(def: &MetricDef, a: f64, b: f64, noise: f64) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let worsening = match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let beyond_bound = worsening.abs() > bound;
    if !beyond_bound {
        Verdict::Within
    } else if noise > bound && worsening.abs() <= noise {
        Verdict::Unresolved
    } else if worsening > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// Compares two `run` files: one row per (end-to-end metric, workload),
/// and an exact-equality check of every count both files carry. Returns
/// the rendered report and whether anything was `worse` or mismatched.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    out.push_str(&format!(
        "{:<18} {:<15} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "A", "B", "B/A", "bound", "verdict"
    ));
    for workload in WORKLOADS {
        let (Some(ra), Some(rb)) = (workload_result(a, workload), workload_result(b, workload))
        else {
            out.push_str(&format!("{workload:<18} missing from one of the files\n"));
            bad = true;
            continue;
        };
        // Timings are noisy, sizes and scores are not.
        let noise = [ra, rb]
            .iter()
            .filter_map(|r| metric_value(r, "bench.noise_ratio"))
            .fold(1.0, f64::max)
            - 1.0;
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(ra, def.name), metric_value(rb, def.name))
            else {
                out.push_str(&format!("{workload:<18} {:<15} not measured\n", def.name));
                continue;
            };
            let noise = if def.unit == "s" { noise } else { 0.0 };
            let v = verdict(def, va, vb, noise);
            bad |= v == Verdict::Worse;
            out.push_str(&format!(
                "{workload:<18} {:<15} {va:>14.6} {vb:>14.6} {:>9.4} {:>6.0}%  {}\n",
                def.name,
                vb / va,
                def.bound.unwrap_or(0.0) * 100.0,
                v.as_str()
            ));
        }
        let mut mismatched = Vec::new();
        let mut compared = 0;
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            if let (Some(va), Some(vb)) = (metric_value(ra, def.name), metric_value(rb, def.name)) {
                compared += 1;
                if va.to_bits() != vb.to_bits() {
                    mismatched.push(format!("{} ({va} vs {vb})", def.name));
                }
            }
        }
        for key in ["attempted", "failed"] {
            let (va, vb) = (
                ra.get(key).and_then(Json::as_u64),
                rb.get(key).and_then(Json::as_u64),
            );
            compared += 1;
            if va != vb {
                mismatched.push(format!("{key} ({va:?} vs {vb:?})"));
            }
        }
        bad |= !mismatched.is_empty();
        out.push_str(&format!(
            "{workload:<18} counts          {compared} compared, {}\n",
            if mismatched.is_empty() {
                "all identical".to_string()
            } else {
                format!("MISMATCH: {}", mismatched.join(", "))
            }
        ));
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::lookup;

    fn file(wall: f64, quality: f64, propagations: f64, noise_ratio: f64) -> Json {
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                let mut metrics: Vec<(String, Json)> = END_TO_END
                    .iter()
                    .map(|d| {
                        let v = match d.name {
                            "wall_s" => wall,
                            "quality_gflops" => quality,
                            _ => 1.0,
                        };
                        (d.name.to_string(), metric_json(d, Some(v)))
                    })
                    .collect();
                for (name, v) in [
                    ("csp.propagations", propagations),
                    ("bench.noise_ratio", noise_ratio),
                ] {
                    metrics.push((
                        name.to_string(),
                        metric_json(lookup(name).unwrap(), Some(v)),
                    ));
                }
                Json::Obj(vec![
                    ("name".into(), Json::Str(w.to_string())),
                    ("attempted".into(), Json::Num(10.0)),
                    ("failed".into(), Json::Num(0.0)),
                    ("metrics".into(), Json::Obj(metrics)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("workloads".into(), Json::Arr(workloads)),
        ])
    }

    #[test]
    fn verdicts_follow_direction_bound_and_noise() {
        let wall = lookup("wall_s").unwrap();
        let quality = lookup("quality_gflops").unwrap();
        assert_eq!(verdict(wall, 10.0, 10.5, 0.0), Verdict::Within);
        assert_eq!(verdict(wall, 10.0, 14.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(wall, 10.0, 6.0, 0.0), Verdict::Better);
        assert_eq!(verdict(wall, 10.0, 14.0, 0.6), Verdict::Unresolved);
        assert_eq!(verdict(wall, 10.0, 19.0, 0.6), Verdict::Worse);
        assert_eq!(verdict(quality, 100.0, 90.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(quality, 100.0, 110.0, 0.0), Verdict::Better);
    }

    #[test]
    fn identical_files_compare_clean() {
        let a = file(5.0, 100.0, 1000.0, 1.2);
        let (text, bad) = compare(&a, &a);
        assert!(!bad, "{text}");
        assert!(text.contains("all identical"));
        assert!(!text.contains("worse"));
    }

    #[test]
    fn a_slowdown_or_a_count_mismatch_fails_the_comparison() {
        let a = file(5.0, 100.0, 1000.0, 1.0);
        let (text, bad) = compare(&a, &file(9.0, 100.0, 1000.0, 1.0));
        assert!(bad && text.contains("worse"), "{text}");
        let (text, bad) = compare(&a, &file(5.0, 100.0, 1001.0, 1.0));
        assert!(bad && text.contains("MISMATCH: csp.propagations"), "{text}");
        let (_, bad) = compare(&a, &Json::Obj(vec![]));
        assert!(bad);
    }

    #[test]
    fn a_result_line_has_exactly_the_contract_keys() {
        let line = result_json(&END_TO_END, |n| (n != "peak_rss_mb").then_some(1.5), 7, 0);
        let Json::Obj(members) = &line else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(metric_value(&line, "wall_s"), Some(1.5));
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("peak_rss_mb")
                .unwrap()
                .get("value"),
            Some(&Json::Null)
        );
        let rendered = line.render();
        assert!(!rendered.contains('\n'));
        assert!(render_table("w", &END_TO_END, &line).contains("n/a"));
    }
}
