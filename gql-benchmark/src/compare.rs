//! `--compare <a> <b>`: two result sets (the JSON lines the all-workloads
//! mode prints, any number of runs per workload, concatenated) side by
//! side. Per workload and end-to-end metric: both medians, how much worse
//! `b` is than `a` as a share of `a`, the bound, and a verdict —
//! `regressed` beyond the bound, `unresolved` when either side's own
//! run-to-run spread is wider than the bound, else `ok`.

use gql_serve::json::Value;

use crate::metrics::{Better, Decl, END_TO_END};
use crate::stats;
use crate::workload::SPECS;

/// `values[workload][metric]`: one entry per untraced run.
type ResultSet = Vec<Vec<Vec<f64>>>;

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set: ResultSet = vec![vec![Vec::new(); END_TO_END.len()]; SPECS.len()];
    for (n, line) in text.lines().enumerate() {
        if !line.starts_with('{') {
            continue;
        }
        let row = Value::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if row.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = row
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default();
        let Some(w) = SPECS.iter().position(|s| s.name == workload) else {
            return Err(format!("{path}:{}: unknown workload `{workload}`", n + 1));
        };
        let metrics = row
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or(format!("{path}:{}: no result.metrics", n + 1))?;
        for (m, d) in END_TO_END.iter().enumerate() {
            let value = metrics
                .get(d.name)
                .and_then(|x| x.get("value"))
                .and_then(Value::as_f64)
                .ok_or(format!("{path}:{}: no value for `{}`", n + 1, d.name))?;
            set[w][m].push(value);
        }
    }
    Ok(set)
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them. 0 for a single run: one run shows no spread.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median = stats::median(&mut v.clone());
    (quartile(3) - quartile(1)) / median
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

fn verdict(d: &Decl, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (
        stats::median(&mut a.to_vec()),
        stats::median(&mut b.to_vec()),
    );
    let worse = match d.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let v = if spread(a).max(spread(b)) > d.bound {
        Verdict::Unresolved
    } else if worse > d.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (ma, mb, worse, v)
}

/// Print the table. `Ok(true)` when every row is `ok`.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "a", "b", "worse", "bound", "spread_a", "spread_b"
    );
    let mut clean = true;
    for (w, spec) in SPECS.iter().enumerate() {
        for (m, d) in END_TO_END.iter().enumerate() {
            let (va, vb) = (&a[w][m], &b[w][m]);
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{}: `{}` missing from one result set",
                    spec.name, d.name
                ));
            }
            let (ma, mb, worse, v) = verdict(d, va, vb);
            clean &= v == Verdict::Ok;
            println!(
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}% {:>7.1}% {:>7.1}%  {}",
                spec.name,
                d.name,
                ma,
                mb,
                100.0 * worse,
                100.0 * d.bound,
                100.0 * spread(va),
                100.0 * spread(vb),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_pythons_quartiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        assert!((spread(&[13.0, 10.0, 11.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let rps = &END_TO_END[0];
        assert_eq!((rps.name, rps.bound), ("rps", 0.20));
        assert_eq!(verdict(rps, &[100.0], &[85.0]).3, Verdict::Ok);
        assert_eq!(verdict(rps, &[100.0], &[75.0]).3, Verdict::Regressed);
        assert_eq!(
            verdict(rps, &[100.0], &[150.0]).3,
            Verdict::Ok,
            "higher is better"
        );
        let lat = &END_TO_END[1];
        assert_eq!(verdict(lat, &[100.0], &[125.0]).3, Verdict::Regressed);
        assert_eq!(
            verdict(lat, &[70.0, 100.0, 140.0], &[100.0]).3,
            Verdict::Unresolved,
            "a side that spreads wider than the bound resolves nothing"
        );
    }
}
