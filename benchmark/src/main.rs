//! Fleet-replay benchmark for the NURD serving engine.
//!
//! One command generates the inputs, runs a workload's phases until the
//! time budget is spent, checks every served outcome against sequential
//! replay, and prints every metric as `workload metric value unit`,
//! followed by one JSON object on the last line (the driver's contract;
//! see `README.md`). `--trace 1` runs the separate traced pass that
//! yields the per-layer numbers and writes the span file.

mod alloc;
mod harness;
mod manifest;
mod probes;
mod reference;
mod stage;
mod stats;
mod traced;
mod untraced;
mod workloads;
mod wrappers;

use std::path::PathBuf;

use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS};
use reference::Tally;
use stats::Summary;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: fleet-bench --workload <name|all> [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--quick] [--repeat-check] | --emit-manifest";

pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    traced: bool,
    /// One round, a tenth of the jobs, correctness guard on.
    pub quick: bool,
    repeat_check: bool,
}

fn parse_u64(text: &str) -> u64 {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("not a number: {text}\n{USAGE}"))
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0x5E8E,
        seconds: RUN_SECONDS as f64,
        traced: false,
        quick: false,
        repeat_check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| panic!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = parse_u64(&value()),
            "--seconds" => args.seconds = parse_u64(&value()) as f64,
            "--trace" => args.traced = parse_u64(&value()) != 0,
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--emit-manifest" => return None,
            _ => panic!("unknown flag {flag}\n{USAGE}"),
        }
    }
    assert!(!args.workload.is_empty(), "{USAGE}");
    Some(args)
}

/// Scratch space for persistence directories and span files, inside the
/// checkout: `benchmark/out`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// This process's scratch directory under [`out_dir`], removed at exit.
pub fn run_dir() -> PathBuf {
    out_dir().join(format!("run-{}", std::process::id()))
}

/// One metric as measured: its value, and the spread of the passes
/// behind it when there were several.
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub spread: Option<Summary>,
}

pub struct Results {
    pub metrics: Vec<Measured>,
    pub tally: Tally,
}

impl Results {
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, unit, _)| (n, unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared in manifest.rs"))
        .1
}

/// Prints `workload metric value unit [q1 q3 n]` per metric, the
/// operation counts, and the driver's JSON object as the last line.
fn print_results(workload: &Workload, results: &Results, declared: &[&str]) {
    for name in declared {
        assert!(
            results.metrics.iter().any(|m| m.name == *name),
            "metric {name} was not measured"
        );
    }
    for m in &results.metrics {
        let unit = unit_of(m.name);
        match m.spread {
            Some(s) => println!(
                "{} {} {} {} q1={} q3={} n={}",
                workload.name, m.name, m.value, unit, s.q1, s.q3, s.n
            ),
            None => println!("{} {} {} {}", workload.name, m.name, m.value, unit),
        }
    }
    let Tally { attempted, failed } = results.tally;
    println!("{} ops_attempted {attempted} count", workload.name);
    println!("{} ops_failed {failed} count", workload.name);
    let metrics: Vec<String> = results
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value,
                unit_of(m.name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
}

fn stamp() {
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    println!(
        "# commit {} | nproc {} | drain_workers {} | {} | {}",
        run("git", &["rev-parse", "--short", "HEAD"]),
        harness::available_parallelism(),
        harness::drain_workers(),
        run("rustc", &["--version"]),
        run("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]),
    );
}

/// `--repeat-check`: two untraced runs side by side with each metric's
/// bound; `false` if any end-to-end metric disagrees by more than it.
fn repeat_check(workload: &Workload, args: &Args) -> bool {
    let first = untraced::run(workload, args);
    let second = untraced::run(workload, args);
    let mut agree = first.tally.failed == 0 && second.tally.failed == 0;
    println!(
        "# {:<16} {:<24} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for m in &END_TO_END {
        let (a, b) = (first.get(m.name), second.get(m.name));
        let diff = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        // Set-up time is reported, not gated: it is exempt from the spread rule.
        let ok = diff <= m.bound || m.name == "setup_s";
        agree &= ok;
        println!(
            "# {:<16} {:<24} {:>14.6} {:>14.6} {:>7.2}% {:>5.0}% {}",
            workload.name,
            m.name,
            a,
            b,
            diff * 100.0,
            m.bound * 100.0,
            if ok { "ok" } else { "DISAGREE" }
        );
    }
    agree
}

fn main() {
    let Some(args) = parse_args() else {
        print!("{}", manifest::benchmark_json());
        return;
    };
    let selected: Vec<Workload> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workloads::by_name(&args.workload)
            .unwrap_or_else(|| panic!("unknown workload {}\n{USAGE}", args.workload))]
    };
    stamp();
    let mut agree = true;
    for workload in &selected {
        if args.repeat_check {
            agree &= repeat_check(workload, &args);
        } else if args.traced {
            let declared: Vec<&str> = PER_LAYER.iter().map(|&(n, _, _)| n).collect();
            print_results(workload, &traced::run(workload, &args), &declared);
        } else {
            let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            print_results(workload, &untraced::run(workload, &args), &declared);
        }
    }
    std::fs::remove_dir_all(run_dir()).ok();
    if !agree {
        eprintln!("repeat-check: end-to-end metrics disagree by more than their bounds");
        std::process::exit(1);
    }
}
