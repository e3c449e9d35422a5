//! The suite commands: `all` and `trace` run every workload in its own child
//! process (so peak RSS is per workload) and collect the result lines into
//! one file; `compare` judges two such files against the bounds declared in
//! `BENCHMARK.json`.

use crate::json::Json;
use crate::measure::{median, relative_spread};
use crate::workloads::Workload;
use std::process::{Command, Stdio};

/// Runs every workload `runs` times (seeds `seed..seed + runs`) as child
/// processes of this binary and writes `{"runs": {workload: [result, ...]}}`
/// to `out`.
pub fn run_suite(seed: u64, runs: u64, seconds: u64, trace: bool, out: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut per_workload = Vec::new();
    for workload in Workload::ALL {
        let mut results = Vec::new();
        for run in 0..runs {
            let run_seed = seed + run;
            eprintln!(
                "== {} seed {run_seed} trace {}",
                workload.name(),
                u8::from(trace)
            );
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("could not run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            if !output.status.success() {
                return Err(format!(
                    "{} seed {run_seed} exited with {}",
                    workload.name(),
                    output.status
                ));
            }
            let last = stdout.lines().last().unwrap_or_default().to_string();
            let parsed = Json::parse(&last).map_err(|e| format!("bad result line: {e}"))?;
            if parsed.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "{} seed {run_seed}: output checks failed",
                    workload.name()
                ));
            }
            results.push(last);
        }
        per_workload.push(format!("\"{}\": [{}]", workload.name(), results.join(", ")));
    }
    let doc = format!(
        "{{\"seed\": {seed}, \"trace\": {trace}, \"runs\": {{{}}}}}\n",
        per_workload.join(", ")
    );
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// A metric's regression rule from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Every run's value of `metric` for `workload` in a suite file.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(|runs| runs.get(workload))
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judges `after` against `before`: worse when the median moved the wrong
/// way by more than `bound`; unresolved when either side's quartile spread
/// is wider than the bound, unless every `after` run beats every `before`
/// run.
pub fn verdict(before: &[f64], after: &[f64], bound: f64, lower_is_better: bool) -> (f64, Verdict) {
    let (b, a) = (median(before), median(after));
    let worse_by = if lower_is_better {
        (a - b) / b
    } else {
        (b - a) / b
    };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = after.iter().all(|&x| before.iter().all(|&y| better(x, y)));
    let spread = relative_spread(before).max(relative_spread(after));
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Prints each (workload, metric) pair's median change from `before` to
/// `after` against its bound; `Err` names the regressions.
pub fn compare(before_path: &str, after_path: &str) -> Result<(), String> {
    let bounds = bounds(&read_json("BENCHMARK.json")?)?;
    let before = read_json(before_path)?;
    let after = read_json(after_path)?;
    println!(
        "{:<20} {:<14} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "before", "after", "worse by", "bound", "spread"
    );
    let mut worse = Vec::new();
    for workload in Workload::ALL.map(Workload::name) {
        for b in &bounds {
            let (x, y) = (
                values(&before, workload, &b.name),
                values(&after, workload, &b.name),
            );
            if x.is_empty() || y.is_empty() {
                continue;
            }
            let (worse_by, v) = verdict(&x, &y, b.bound, b.lower_is_better);
            println!(
                "{workload:<20} {:<14} {:>12.4} {:>12.4} {:>+8.1}% {:>6.0}% {:>6.1}%  {v:?}",
                b.name,
                median(&x),
                median(&y),
                worse_by * 100.0,
                b.bound * 100.0,
                relative_spread(&x).max(relative_spread(&y)) * 100.0
            );
            if v == Verdict::Worse {
                worse.push(format!("{workload}/{}", b.name));
            }
        }
    }
    if worse.is_empty() {
        Ok(())
    } else {
        Err(format!("regressions: {}", worse.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        assert_eq!(verdict(&steady, &steady, 0.1, true).1, Verdict::Ok);
        assert_eq!(verdict(&steady, &slower, 0.1, true).1, Verdict::Worse);
        // The same move is an improvement when higher is better.
        assert_eq!(verdict(&steady, &slower, 0.1, false).1, Verdict::Ok);
        assert_eq!(verdict(&slower, &steady, 0.1, false).1, Verdict::Worse);
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(verdict(&steady, &noisy, 0.1, true).1, Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        let faster = [4.0, 6.0, 5.0, 4.5, 5.5];
        assert_eq!(verdict(&steady, &faster, 0.1, true).1, Verdict::Ok);
    }
}
