//! `run.sh --compare A.json B.json`: two `results.json` files side by
//! side, one row per (workload, end-to-end metric).
//!
//! The verdict of a row uses the bound `BENCHMARK.json` fixes for the
//! metric: `regressed` when B's median is worse than A's by more than
//! the bound, `improved` when it is better by more than the bound,
//! `unchanged` otherwise — and `unresolved`, instead of any of these,
//! when either side's own spread (quartile distance over median) is
//! wider than the bound and the two quartile ranges overlap, because
//! then the runs cannot tell a change of that size from noise.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

type Obj = BTreeMap<String, Value>;

fn load(path: &Path) -> Result<Obj, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match serde_json::from_str(&text) {
        Ok(Value::Obj(o)) => Ok(o),
        Ok(_) => Err(format!("{}: not a JSON object", path.display())),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

fn obj<'a>(o: &'a Obj, key: &str) -> Option<&'a Obj> {
    match o.get(key) {
        Some(Value::Obj(inner)) => Some(inner),
        _ => None,
    }
}

fn num(o: &Obj, key: &str) -> Option<f64> {
    o.get(key).and_then(Value::as_f64)
}

/// One side of a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// The verdict of one row; `higher_is_better` and `bound` come from
/// `BENCHMARK.json`.
pub fn verdict(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Verdict {
    let spread = |s: Side| (s.q3 - s.q1) / s.median.abs();
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if (spread(a) > bound || spread(b) > bound) && overlap {
        return Verdict::Unresolved;
    }
    // Positive when B is worse than A, as a share of A.
    let worse = if higher_is_better {
        (a.median - b.median) / a.median.abs()
    } else {
        (b.median - a.median) / a.median.abs()
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Prints the comparison; `Ok(false)` when any row regressed.
pub fn compare(root: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let bench = load(&root.join("BENCHMARK.json"))?;
    let Some(Value::Arr(end_to_end)) = bench.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".to_string());
    };
    let (a, b) = (load(a)?, load(b)?);
    let workloads = |doc: &Obj| obj(doc, "workloads").cloned().unwrap_or_default();
    let (wa, wb) = (workloads(&a), workloads(&b));
    println!("workload metric A B unit  B/A  bound  verdict");
    let mut regressed = false;
    for (workload, ra) in &wa {
        let (Value::Obj(ra), Some(Value::Obj(rb))) = (ra, wb.get(workload)) else {
            println!("{workload}: missing from B");
            continue;
        };
        for metric in end_to_end {
            let Value::Obj(metric) = metric else { continue };
            let (Some(Value::Str(name)), Some(Value::Str(better)), Some(bound)) = (
                metric.get("name"),
                metric.get("better"),
                num(metric, "bound"),
            ) else {
                return Err("BENCHMARK.json: malformed end_to_end entry".to_string());
            };
            let side = |run: &Obj| {
                let m = obj(obj(run, "metrics")?, name)?;
                Some((
                    Side {
                        median: num(m, "median")?,
                        q1: num(m, "q1")?,
                        q3: num(m, "q3")?,
                    },
                    match m.get("unit") {
                        Some(Value::Str(u)) => u.clone(),
                        _ => String::new(),
                    },
                ))
            };
            let (Some((sa, unit)), Some((sb, _))) = (side(ra), side(rb)) else {
                println!("{workload} {name}: missing from one side");
                continue;
            };
            let v = verdict(sa, sb, better == "higher", bound);
            regressed |= v == Verdict::Regressed;
            println!(
                "{workload} {name} {} {} {unit}  {:.4} of A  {bound}  {}",
                sa.median,
                sb.median,
                sb.median / sa.median,
                format!("{v:?}").to_lowercase()
            );
        }
        let sha = |run: &Obj| run.get("outputs_sha256").cloned();
        if sha(ra) != sha(rb) {
            println!("{workload} outputs differ: {:?} vs {:?}", sha(ra), sha(rb));
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, half_spread: f64) -> Side {
        Side {
            median,
            q1: median * (1.0 - half_spread),
            q3: median * (1.0 + half_spread),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = side(1.0, 0.01);
        // Lower is better: B 20 % slower regresses, 20 % faster improves.
        assert_eq!(verdict(a, side(1.2, 0.01), false, 0.1), Verdict::Regressed);
        assert_eq!(verdict(a, side(0.8, 0.01), false, 0.1), Verdict::Improved);
        assert_eq!(verdict(a, side(1.05, 0.01), false, 0.1), Verdict::Unchanged);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(verdict(a, side(1.2, 0.01), true, 0.1), Verdict::Improved);
        assert_eq!(verdict(a, side(0.8, 0.01), true, 0.1), Verdict::Regressed);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let noisy = side(1.0, 0.2); // spread 0.4 > bound
        assert_eq!(
            verdict(noisy, side(1.05, 0.01), false, 0.1),
            Verdict::Unresolved
        );
        // Wide but disjoint: every quartile of B beyond A's — resolved.
        assert_eq!(
            verdict(noisy, side(2.0, 0.01), false, 0.1),
            Verdict::Regressed
        );
    }
}
