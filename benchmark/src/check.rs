//! `benchmark check A B`: compare two recorded result sets (directories
//! of `run` result files) metric by metric against the bounds in
//! `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::metrics::FAIL_FRAC;
use crate::stats;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound.
    Within,
    /// B's median is better by more than the bound (or, under a spread
    /// wider than the bound, every B rep beats every A rep).
    Better,
    /// B's median is worse by more than the bound: a regression.
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed change of B's median against A's, as a share of A's, positive
/// when B is worse.
pub fn worsening(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma == mb {
        0.0
    } else if ma == 0.0 {
        f64::INFINITY.copysign(mb)
    } else {
        (mb - ma) / ma.abs()
    };
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// The bound rule for one end-to-end metric.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let worse = worsening(a, b, lower_is_better);
    if stats::spread(a).max(stats::spread(b)) > bound {
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let b_beats_all_a = if lower_is_better {
            max(b) < min(a)
        } else {
            min(b) > max(a)
        };
        return if b_beats_all_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// `fail_frac` has no tolerance: any increase is a regression.
pub fn judge_fail_frac(a: f64, b: f64) -> Verdict {
    if b > a {
        Verdict::Worse
    } else if b < a {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or("spec lacks end_to_end")?;
    list.iter()
        .map(|e| {
            let s = |k: &str| {
                e.get(k)
                    .and_then(Json::str)
                    .map(String::from)
                    .ok_or(format!("metric lacks {k}"))
            };
            Ok(Bound {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: e
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or("metric lacks bound")?,
            })
        })
        .collect()
}

/// Run results in `dir`, by workload name.
fn results(dir: &Path) -> Result<Vec<(String, Json)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let doc = read_json(&path)?;
        if doc.get("mode").and_then(Json::str) == Some("run") {
            let name = doc
                .get("workload")
                .and_then(Json::str)
                .ok_or("result lacks workload")?
                .to_string();
            out.push((name, doc));
        }
    }
    out.sort_by(|x, y| x.0.cmp(&y.0));
    Ok(out)
}

fn values(doc: &Json, metric: &str) -> Option<Vec<f64>> {
    let v = doc.get("metrics")?.get(metric)?.get("values")?.arr()?;
    v.iter().map(Json::num).collect()
}

/// Four decimals, in scientific notation for large values (throughputs)
/// so that columns stay readable.
fn short(x: f64) -> String {
    if x.abs() >= 1e5 {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

fn summary(v: &[f64]) -> String {
    let (q1, med, q3) = stats::quartiles(v);
    format!("{} [{}, {}]", short(med), short(q1), short(q3))
}

/// Print one row per (workload, metric); returns whether any regressed.
/// The bounds come from `BENCHMARK.json` in the working directory.
pub fn check(a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = bounds(&read_json(Path::new("BENCHMARK.json"))?)?;
    let (ra, rb) = (results(a)?, results(b)?);
    println!(
        "{:<20} {:<14} {:<6} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut regressed = false;
    let mut compared = 0;
    for (name, da) in &ra {
        let Some((_, db)) = rb.iter().find(|(n, _)| n == name) else {
            println!("{name:<20} only in {}", a.display());
            continue;
        };
        compared += 1;
        for m in &bounds {
            let (Some(va), Some(vb)) = (values(da, &m.name), values(db, &m.name)) else {
                println!("{name:<20} {:<14} missing from a result", m.name);
                regressed = true;
                continue;
            };
            let verdict = judge(&va, &vb, m.lower_is_better, m.bound);
            regressed |= verdict == Verdict::Worse;
            println!(
                "{name:<20} {:<14} {:<6} {:>30} {:>30} {:>+7.1}% {:>5.0}%  {}",
                m.name,
                m.unit,
                summary(&va),
                summary(&vb),
                100.0 * worsening(&va, &vb, m.lower_is_better),
                100.0 * m.bound,
                verdict.label()
            );
        }
        let ff = |d: &Json| d.get(FAIL_FRAC).and_then(Json::num).unwrap_or(f64::NAN);
        let (fa, fb) = (ff(da), ff(db));
        let verdict = if fa.is_nan() || fb.is_nan() {
            Verdict::Worse
        } else {
            judge_fail_frac(fa, fb)
        };
        regressed |= verdict == Verdict::Worse;
        println!(
            "{name:<20} {FAIL_FRAC:<14} {:<6} {fa:>30.4} {fb:>30.4} {:>8} {:>6}  {}",
            "ratio",
            "",
            "any+",
            verdict.label()
        );
    }
    for (name, _) in rb.iter().filter(|(n, _)| !ra.iter().any(|(m, _)| m == n)) {
        println!("{name:<20} only in {}", b.display());
    }
    if compared == 0 {
        return Err("no workload is in both result sets".into());
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_changes_are_within_the_bound() {
        let a = [2.00, 2.01, 2.02, 2.03, 2.04];
        let b = [2.05, 2.06, 2.07, 2.08, 2.09];
        assert_eq!(judge(&a, &b, true, 0.10), Verdict::Within);
    }

    #[test]
    fn a_slower_median_beyond_the_bound_is_worse() {
        let a = [2.00, 2.01, 2.02, 2.03, 2.04];
        let b = [2.30, 2.31, 2.32, 2.33, 2.34];
        assert_eq!(judge(&a, &b, true, 0.10), Verdict::Worse);
        assert_eq!(judge(&b, &a, true, 0.10), Verdict::Better);
        // For a throughput the direction flips.
        assert_eq!(judge(&a, &b, false, 0.10), Verdict::Better);
        assert_eq!(judge(&b, &a, false, 0.10), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [1.0, 1.5, 2.0, 2.5, 3.0];
        let b = [1.2, 1.8, 2.4, 3.0, 3.6];
        assert_eq!(judge(&a, &b, true, 0.10), Verdict::Unresolved);
        // ...unless every B rep beats every A rep.
        let c = [0.1, 0.2, 0.3, 0.4, 0.5];
        assert_eq!(judge(&a, &c, true, 0.10), Verdict::Better);
    }

    #[test]
    fn any_increase_in_fail_frac_is_worse() {
        assert_eq!(judge_fail_frac(0.0, 0.0), Verdict::Within);
        assert_eq!(judge_fail_frac(0.0, 1e-6), Verdict::Worse);
        assert_eq!(judge_fail_frac(0.1, 0.0), Verdict::Better);
    }

    #[test]
    fn worsening_handles_zero_medians() {
        assert_eq!(worsening(&[0.0], &[0.0], true), 0.0);
        assert_eq!(worsening(&[0.0], &[1.0], true), f64::INFINITY);
    }
}
