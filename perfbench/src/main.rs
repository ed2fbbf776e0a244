//! The repository benchmark: two RkNN serving workloads, measured end to
//! end and layer by layer from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paged-road --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! holds the environment stamp and the sample counts. See README.md.

mod measure;
mod oracle;
mod probe;
mod serve;
mod workloads;

use measure::Tier;
use workloads::Args;

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must lie in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut result = match workloads::run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let tier = if args.trace { Tier::PerLayer } else { Tier::EndToEnd };
    let line = result.result_line(tier);
    println!("{}", result.details_line());
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_obs::JsonValue;

    fn args(workload: &str, seed: u64, seconds: f64, trace: bool) -> Args {
        Args { workload: workload.into(), seed, seconds, trace }
    }

    #[test]
    fn metric_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(JsonValue::Array(items)) = json.get(key) else { panic!("{key} is a list") };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(JsonValue::String(s)) => s.clone(),
                        other => panic!("{key} entry field {f}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        for (key, tier) in [("end_to_end", Tier::EndToEnd), ("per_layer", Tier::PerLayer)] {
            let ours: Vec<(String, String)> = measure::METRICS
                .iter()
                .filter(|m| m.2 == tier)
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect();
            assert_eq!(listed(key), ours, "{key} in BENCHMARK.json vs the metric table");
        }
        let Some(JsonValue::Array(workloads)) = json.get("workloads") else { panic!("workloads") };
        let names: Vec<String> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(JsonValue::String(s)) => s.clone(),
                other => panic!("workload name {other:?}"),
            })
            .collect();
        assert_eq!(names, workloads::WORKLOADS);
    }

    #[test]
    fn every_emitted_metric_is_listed() {
        let mut result = workloads::run(&args("paged-road", 3, 1.0, false)).expect("runs");
        let line = result.result_line(Tier::EndToEnd);
        let json = JsonValue::parse(&line).expect("result line is JSON");
        assert_eq!(json.get("correct"), Some(&JsonValue::Bool(true)), "{}", result.details_line());
        let Some(JsonValue::Object(metrics)) = json.get("metrics") else { panic!("metrics") };
        let expected: Vec<&str> =
            measure::METRICS.iter().filter(|m| m.2 == Tier::EndToEnd).map(|m| m.0).collect();
        let mut emitted: Vec<&str> = metrics.keys().map(String::as_str).collect();
        emitted.sort_unstable();
        let mut want = expected.clone();
        want.sort_unstable();
        assert_eq!(emitted, want);
    }

    /// Count metrics repeat exactly across two runs at one seed.
    #[test]
    fn count_metrics_repeat_at_one_seed() {
        for (workload, names) in [
            (
                "paged-road",
                &["storage.faults_per_query", "storage.accesses_per_query", "core.nodes_settled"][..],
            ),
            ("label-churn", &["index.label_scans", "core.nodes_settled"][..]),
        ] {
            let a = workloads::run(&args(workload, 5, 0.5, true)).expect("runs");
            let b = workloads::run(&args(workload, 5, 0.5, true)).expect("runs");
            assert!(a.errors.is_empty() && b.errors.is_empty(), "{:?} {:?}", a.errors, b.errors);
            for name in names {
                assert!(a.values[name] > 0.0, "{workload}: {name} is measured");
                assert_eq!(a.values[name], b.values[name], "{workload}: {name} repeats");
            }
        }
    }

    #[test]
    fn rejects_bad_arguments() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload paged-road --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload paged-road --seed x --seconds 2").is_err());
        assert!(parse("--workload paged-road --seed 1 --seconds 0").is_err());
        assert!(parse("--workload paged-road --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--seed 1 --seconds 2").is_err());
        assert!(workloads::run(&args("bogus", 1, 1.0, false)).is_err());
    }
}
