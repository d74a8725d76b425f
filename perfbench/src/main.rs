//! End-to-end and per-layer benchmark of the TreeServer workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <forest-exact|gbt-hist> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer metrics of a separate traced pass.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 1 when
//! any correctness check failed. See `perfbench/README.md` for the
//! workloads and the metric → layer → workload map.

mod endtoend;
mod layers;
mod measure;
mod serving;
mod workload;

use std::process::ExitCode;

use measure::{Metrics, Tally};
use workload::{Bench, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The git revision when run inside a git checkout, else "unknown".
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a digest of every file under `crates/` plus the workspace
/// manifests: identifies the measured source when no git revision exists.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_line(tally: &Tally, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .entries()
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bench = Bench::new(args.workload, args.seed);
    println!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"src_digest\": \"{}\", \"nproc\": {}, {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        source_digest(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        bench.provenance(),
    );

    let mut tally = Tally::default();
    let mut metrics = if args.trace {
        layers::run(&bench, args.seconds, &mut tally)
    } else {
        endtoend::run(&bench, args.seconds, &mut tally)
    };
    for (name, value, unit) in metrics.entries() {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{:<28} {:>16.6} fraction ({} of {} operations failed)",
        "fail_frac",
        measure::ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    for miss in &tally.misses {
        println!("FAILED: {miss}");
    }
    if metrics.entries().iter().any(|(_, v, _)| !v.is_finite()) {
        tally.check(false, || "a metric is not a finite number".into());
        metrics = Metrics::default();
    }
    println!("{}", json_line(&tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
