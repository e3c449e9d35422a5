//! `sidco-perf`: the repository benchmark.
//!
//! ```text
//! sidco-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! sidco-perf all   [--seed <n>] [--runs <r>] [--seconds <s>] [--out <file>]
//! sidco-perf trace [--seed <n>] [--runs <r>] [--out <file>]
//! sidco-perf compare <before.json> <after.json>
//! ```
//!
//! A single run prints human-readable lines and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! README.md for the workloads and the metric catalogue.

mod catalog;
mod json;
mod layers;
mod measure;
mod run;
mod suite;
mod workloads;

use run::Plan;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage:
  sidco-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  sidco-perf all   [--seed <n>] [--runs <r>] [--seconds <s>] [--out <file>]
  sidco-perf trace [--seed <n>] [--runs <r>] [--out <file>]
  sidco-perf compare <before.json> <after.json>
workloads: sidco_16Mi, layerwise_256x64Ki, train_mlp_8w, fleet_16job";

/// Parsed `--flag value` pairs plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            flags: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if arg == "--smoke" {
                args.smoke = true;
            } else if let Some(flag) = arg.strip_prefix("--") {
                let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
                args.flags.push((flag.to_string(), value));
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, flag: &str, default: Option<u64>) -> Result<u64, String> {
        match self.get(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag} expects a whole number, got {v:?}")),
            None => default.ok_or(format!("--{flag} is required")),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown flag --{f}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sidco-perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    match args.positional.first().map(String::as_str) {
        None => single_run(&args),
        Some("all") | Some("trace") => {
            args.reject_unknown(&["seed", "runs", "seconds", "out"])?;
            let trace = args.positional[0] == "trace";
            let seed = args.number("seed", Some(1))?;
            let runs = args.number("runs", Some(1))?.max(1);
            let seconds = args.number("seconds", Some(20))?;
            let default_out = format!(
                "target/sidco-perf/{}-seed{seed}.json",
                if trace { "trace" } else { "all" }
            );
            let out = args.get("out").map_or(default_out, str::to_string);
            suite::run_suite(seed, runs, seconds, trace, &out)
        }
        Some("compare") => match &args.positional[1..] {
            [before, after] => suite::compare(before, after),
            _ => Err("compare takes two result files".into()),
        },
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn single_run(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["workload", "seed", "seconds", "trace"])?;
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = args.number("seed", None)?;
    let seconds = args.number("seconds", None)?;
    let trace = match args.number("trace", Some(0))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    let plan = if args.smoke {
        Plan::smoke()
    } else {
        Plan::full(seconds as f64)
    };
    let outcome = run::run(workload, seed, trace, &plan);
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_names_are_declared_in_benchmark_json() {
        let doc = declared();
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert!(ours.len() <= 8);

        for (key, catalogue, limit) in [
            ("end_to_end", &catalog::END_TO_END[..], 16),
            ("per_layer", &catalog::PER_LAYER[..], 128),
        ] {
            let declared = names_and_units(&doc, key);
            let emitted: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, emitted, "{key} differs from the catalogue");
            assert!(emitted.len() <= limit, "{key}: more than {limit} metrics");
        }
        for name in ours.iter().map(String::as_str).chain(
            catalog::END_TO_END
                .iter()
                .chain(&catalog::PER_LAYER)
                .map(|m| m.0),
        ) {
            assert!(catalog::valid_name(name), "{name} is not a valid name");
        }
        assert!(!catalog::valid_name("_x") && !catalog::valid_name("a b"));
    }

    /// Every workload at smoke size, both phases: all checks pass and every
    /// catalogue metric is printed.
    #[test]
    fn smoke_run_of_every_workload_passes_its_checks() {
        let plan = Plan::smoke();
        for workload in Workload::ALL {
            let outcome = run::run(workload, 3, false, &plan);
            assert!(
                outcome.correct(),
                "{}: {:?}",
                workload.name(),
                outcome.lines
            );
            assert!(outcome.attempted >= plan.min_ops);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = catalog::END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, expected);
            let line = Json::parse(&outcome.result_line()).expect("result line is JSON");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        }
        let traced = run::run(Workload::Fleet, 3, true, &plan);
        assert!(traced.correct(), "{:?}", traced.lines);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = catalog::PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_string));
        let args = parse("--workload fleet_16job --seed 4 --smoke").expect("parses");
        assert!(args.smoke);
        assert_eq!(args.number("seed", None), Ok(4));
        assert!(args.number("seconds", None).is_err());
        assert!(args.reject_unknown(&["workload", "seed"]).is_ok());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus 1")
            .expect("parses")
            .reject_unknown(&["seed"])
            .is_err());
    }
}
