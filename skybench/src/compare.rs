//! Compare mode: two directories of untraced result files (parent and
//! change, `<workload>-seed<N>.json`), judged per workload and end-to-end
//! metric against the bounds in `BENCHMARK.json`.
//!
//! For each pairing it prints both sides' median and quartiles, the pairs
//! (same workload and seed) the change wins, and a verdict:
//! - `regression`: the change's median is worse than the parent's by
//!   more than the bound;
//! - `unresolved`: the parent's own quartile spread exceeds the bound,
//!   unless every change run beats every parent run;
//! - `gain`: the change wins at least nine tenths of the pairs and the
//!   medians differ by more than the parent's quartile spread;
//! - `same` otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Deserialize;

use crate::stats::{median, quartiles};
use crate::{RunResult, END_TO_END};

/// The part of `BENCHMARK.json` compare reads.
#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Bound>,
}

#[derive(Deserialize)]
struct Bound {
    name: String,
    better: String,
    bound: f64,
}

/// `workload → seed → metric → value` from a directory of result files.
type Runs = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

fn load_dir(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = name.strip_suffix(".json") else {
            continue;
        };
        let Some((workload, seed)) = stem.rsplit_once("-seed") else {
            continue;
        };
        let Ok(seed) = seed.parse::<u64>() else {
            continue; // traced results carry a suffix and are skipped
        };
        let text = std::fs::read_to_string(entry.path()).map_err(|e| e.to_string())?;
        let result: RunResult = serde_json::from_str(text.lines().last().unwrap_or(""))
            .map_err(|e| format!("{name}: {e}"))?;
        let vals = result
            .metrics
            .into_iter()
            .map(|(k, m)| (k, m.value))
            .collect();
        runs.entry(workload.to_string())
            .or_default()
            .insert(seed, vals);
    }
    Ok(runs)
}

/// Bounds and directions of the end-to-end metrics in `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bench: Benchmark =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(bench
        .end_to_end
        .into_iter()
        .map(|m| (m.name, (m.bound, m.better == "lower")))
        .collect())
}

/// The verdict for one workload and metric (see the module docs).
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    bound: f64,
    lower: bool,
) -> (usize, &'static str) {
    let better = |a: f64, b: f64| if lower { a < b } else { a > b };
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let worse_by = if lower {
        (cm - pm) / pm
    } else {
        (pm - cm) / pm
    };
    let spread = (q3 - q1) / pm.abs();
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let v = if worse_by > bound {
        "regression"
    } else if spread > bound && !all_better {
        "unresolved"
    } else if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && (cm - pm).abs() > (q3 - q1) {
        "gain"
    } else {
        "same"
    };
    (wins, v)
}

/// Print the comparison; exit code 1 when any pairing regressed.
pub fn run(parent_dir: &Path, change_dir: &Path) -> i32 {
    let loaded = (|| Ok::<_, String>((load_dir(parent_dir)?, load_dir(change_dir)?, bounds()?)))();
    let (parent, change, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let mut regressed = false;
    println!(
        "{:<14} {:<24} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7} verdict",
        "workload",
        "metric",
        "parent.q1",
        "parent.med",
        "parent.q3",
        "change.q1",
        "change.med",
        "change.q3",
        "wins"
    );
    for (workload, pruns) in &parent {
        let Some(cruns) = change.get(workload) else {
            println!("{workload}: no change runs");
            continue;
        };
        for (metric, _) in END_TO_END {
            let Some(&(bound, lower)) = bounds.get(metric) else {
                continue;
            };
            let col = |runs: &BTreeMap<u64, BTreeMap<String, f64>>| -> Vec<f64> {
                runs.values()
                    .filter_map(|m| m.get(metric).copied())
                    .collect()
            };
            let (p, c) = (col(pruns), col(cruns));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = pruns
                .iter()
                .filter_map(|(seed, m)| Some((*m.get(metric)?, *cruns.get(seed)?.get(metric)?)))
                .collect();
            let (wins, v) = verdict(&p, &c, &pairs, bound, lower);
            regressed |= v == "regression";
            let (pq1, pq3) = quartiles(&p);
            let (cq1, cq3) = quartiles(&c);
            println!(
                "{workload:<14} {metric:<24} {pq1:>12.4} {:>12.4} {pq3:>12.4} {cq1:>12.4} {:>12.4} {cq3:>12.4} {:>3}/{:<3} {v}",
                median(&p),
                median(&c),
                wins,
                pairs.len()
            );
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_result_line() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 1.5e0, "unit": "s"}}}"#;
        let r: RunResult = serde_json::from_str(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (3, 0));
        assert_eq!(r.metrics["setup_s"].value, 1.5);
        let again: RunResult = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(again.metrics["setup_s"].unit, "s");
    }

    #[test]
    fn verdicts_follow_the_pair_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        let pairs = |c: &[f64]| {
            parent
                .iter()
                .copied()
                .zip(c.iter().copied())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            verdict(&parent, &faster, &pairs(&faster), 0.1, true).1,
            "gain"
        );
        assert_eq!(
            verdict(&parent, &slower, &pairs(&slower), 0.1, true).1,
            "regression"
        );
        assert_eq!(
            verdict(&parent, &parent, &pairs(&parent), 0.1, true).1,
            "same"
        );
    }
}
