//! The canonical benchmark of the mtvc workspace. See `README.md`.
//!
//! ```text
//! mtvc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! mtvc-benchmark run --seed <n> [--trace] [--smoke] [--seconds <s>] [--out <file>]
//! mtvc-benchmark compare <A> <B> [--bounds <BENCHMARK.json>]
//! ```

mod alloc;
mod catalog;
mod compare;
mod inputs;
mod jobs;
mod json;
mod probes;
mod report;
mod serving;
mod stats;
mod trace;
mod workloads;

use inputs::Scale;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured section, seconds.
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mtvc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n  \
         mtvc-benchmark run --seed <n> [--trace] [--smoke] [--seconds <s>] [--out <file>]\n  \
         mtvc-benchmark compare <A> <B> [--bounds <BENCHMARK.json>]\n\
         workloads: {}",
        catalog::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// Value of `--flag <value>` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1)?.parse().ok()
}

/// Every workload untraced, then (with `--trace`) once more traced;
/// one result line per run appended to `out`.
fn run_all(seed: u64, seconds: f64, scale: Scale, traced: bool, out: &str) -> ExitCode {
    use std::io::Write as _;
    let mut all_correct = true;
    let mut lines = String::new();
    for traced in [false, true].into_iter().take(1 + usize::from(traced)) {
        for w in catalog::WORKLOADS {
            let opts = RunOpts {
                seed,
                seconds,
                traced,
                scale,
            };
            let outcome = workloads::run(w.name, &opts).expect("catalog workloads exist");
            print!("{}", outcome.table());
            all_correct &= outcome.correct();
            lines.push_str(&outcome.record_json());
            lines.push('\n');
        }
    }
    let written = std::path::Path::new(out)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(out)
        })
        .and_then(|mut f| f.write_all(lines.as_bytes()));
    match written {
        Ok(()) => println!("results appended to {out}"),
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one correctness or validity check failed");
        ExitCode::FAILURE
    }
}

/// Print the comparison of two result files; `Ok(true)` when a gated
/// metric regressed.
fn compare_files(a: &str, b: &str, bounds: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let rules = compare::read_rules(&read(bounds)?)?;
    let (sa, bad_a) = compare::read_results(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let (sb, bad_b) = compare::read_results(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    let (table, regressed) = compare::report(&sa, &sb, &rules);
    print!("{table}");
    if bad_a + bad_b > 0 {
        println!("left out: {bad_a} runs of A and {bad_b} runs of B whose checks failed");
    }
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = if smoke { Scale::Smoke } else { Scale::Full };
    match args.first().map(String::as_str) {
        Some("--workload" | "--seed" | "--seconds" | "--trace" | "--smoke") => {
            let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
                flag::<String>(&args, "--workload"),
                flag::<u64>(&args, "--seed"),
                flag::<f64>(&args, "--seconds"),
                flag::<u8>(&args, "--trace"),
            ) else {
                return usage();
            };
            if !(seconds > 0.0 && seconds <= 600.0) || trace > 1 {
                return usage();
            }
            let opts = RunOpts {
                seed,
                seconds,
                traced: trace == 1,
                scale,
            };
            let Some(outcome) = workloads::run(&workload, &opts) else {
                return usage();
            };
            print!("{}", outcome.table());
            println!("{}", outcome.driver_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("run") => {
            let Some(seed) = flag::<u64>(&args, "--seed") else {
                return usage();
            };
            let seconds = flag::<f64>(&args, "--seconds").unwrap_or(if smoke {
                1.0
            } else {
                f64::from(catalog::RUN_SECONDS)
            });
            let out = flag::<String>(&args, "--out").unwrap_or_else(|| {
                concat!(env!("CARGO_MANIFEST_DIR"), "/out/results.jsonl").into()
            });
            let traced = args.iter().any(|a| a == "--trace");
            run_all(seed, seconds, scale, traced, &out)
        }
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let bounds = flag::<String>(&args, "--bounds").unwrap_or_else(|| {
                concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").into()
            });
            match compare_files(a, b, &bounds) {
                Ok(regressed) if regressed => ExitCode::FAILURE,
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("manifest") => {
            print!("{}", catalog::manifest());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
