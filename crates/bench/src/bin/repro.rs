//! Reproduction harness: prints paper-style rows for every table and figure
//! of the evaluation section.
//!
//! Usage:
//!
//! ```text
//! repro [EXPERIMENT ...] [--full] [--markdown] [--json DIR]
//! repro check --baseline DIR [--fresh DIR]
//!
//! EXPERIMENT   one or more of: table1 table2 fig15 fig16 fig17 fig18 fig19
//!              fig20a fig20b fig21 fig22a fig22b throughput paged-scaling
//!              index label-build serving obs-overhead slo all
//!              (default: all)
//! --full       use the paper's graph cardinalities instead of the quick,
//!              laptop-friendly sizes
//! --markdown   emit Markdown tables (for EXPERIMENTS.md) instead of plain text
//! --json DIR   additionally write each report as DIR/BENCH_<experiment>.json
//!              (machine-readable `rnn-bench-report/v1`, committed per PR so
//!              the perf trajectory is diffable)
//!
//! check        the perf-regression gate: compare every BENCH_*.json in the
//!              baseline directory against the same-named fresh artifact
//!              (default fresh dir: .) with per-metric tolerance bands —
//!              wide for machine-dependent throughput, tight for
//!              determinism/size metrics — and exit 1 on any violation
//! ```

use rnn_bench::experiments::{run_by_name, ALL_EXPERIMENTS};
use rnn_bench::{check, Scale};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The JSON artifact name for an experiment: `BENCH_<name>.json`, except
/// where a historical artifact name is already established.
fn json_name(experiment: &str) -> &str {
    match experiment {
        "label-build" => "labels",
        "obs-overhead" => "obs",
        other => other,
    }
}

/// Reads the value of `flag` from `args` (the argument that follows it).
fn flag_value(args: &[String], flag: &str) -> Option<PathBuf> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(PathBuf::from(v)),
        _ => {
            eprintln!("{flag} requires a directory argument");
            std::process::exit(2);
        }
    }
}

/// `repro check`: sweep every `BENCH_*.json` in the baseline directory and
/// compare it against the same-named artifact in the fresh directory.
/// Returns the number of violations (all printed to stderr).
fn run_check(baseline_dir: &Path, fresh_dir: &Path) -> usize {
    let mut artifacts: Vec<PathBuf> = match std::fs::read_dir(baseline_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("cannot read baseline directory {}: {e}", baseline_dir.display());
            std::process::exit(2);
        }
    };
    artifacts.sort();
    if artifacts.is_empty() {
        eprintln!("no BENCH_*.json baselines in {}", baseline_dir.display());
        std::process::exit(2);
    }

    let mut violations = 0;
    for baseline_path in artifacts {
        let name = baseline_path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{name}: unreadable baseline: {e}");
                violations += 1;
                continue;
            }
        };
        let fresh = match std::fs::read_to_string(fresh_dir.join(&name)) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{name}: missing fresh artifact in {}: {e}", fresh_dir.display());
                violations += 1;
                continue;
            }
        };
        let found = check::compare_artifact(&name, &baseline, &fresh);
        if found.is_empty() {
            eprintln!("# {name}: within tolerance");
        }
        for v in &found {
            eprintln!("REGRESSION {v}");
        }
        violations += found.len();
    }
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check") {
        let rest = &args[1..];
        let baseline = flag_value(rest, "--baseline").unwrap_or_else(|| {
            eprintln!("usage: repro check --baseline DIR [--fresh DIR]");
            std::process::exit(2);
        });
        let fresh = flag_value(rest, "--fresh").unwrap_or_else(|| PathBuf::from("."));
        let violations = run_check(&baseline, &fresh);
        if violations > 0 {
            eprintln!("# perf-regression gate: {violations} violation(s)");
            std::process::exit(1);
        }
        eprintln!("# perf-regression gate: all artifacts within tolerance");
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let markdown = args.iter().any(|a| a == "--markdown");
    let scale = if full { Scale::Full } else { Scale::Quick };
    let json_flag = args.iter().position(|a| a == "--json");
    let json_dir: Option<PathBuf> = json_flag.and_then(|_| flag_value(&args, "--json"));
    let json_dir_arg = json_flag.map(|i| i + 1);

    let mut requested: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && Some(i) != json_dir_arg)
        .map(|(_, a)| a.clone())
        .collect();
    if requested.is_empty() || requested.iter().any(|r| r == "all") {
        requested = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    eprintln!("# reproduction run: scale = {:?}, experiments = {}", scale, requested.join(", "));

    let mut failures = 0;
    for name in &requested {
        let started = Instant::now();
        match run_by_name(name, scale) {
            Some(report) => {
                if markdown {
                    println!("{}", report.to_markdown());
                } else {
                    println!("{report}");
                }
                if let Some(dir) = &json_dir {
                    let path = dir.join(format!("BENCH_{}.json", json_name(name)));
                    if let Err(e) = std::fs::write(&path, report.to_json()) {
                        eprintln!("failed to write {}: {e}", path.display());
                        failures += 1;
                    } else {
                        eprintln!("# wrote {}", path.display());
                    }
                }
                eprintln!("# {name} finished in {:.1?}", started.elapsed());
            }
            None => {
                eprintln!(
                    "unknown experiment '{name}'; available: {} all",
                    ALL_EXPERIMENTS.join(" ")
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(2);
    }
}
