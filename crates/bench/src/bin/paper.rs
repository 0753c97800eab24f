//! Render the paper's tables and figures and diff them against their
//! golden CSVs.
//!
//! ```sh
//! cargo run --release -p mtvc-bench --bin paper              # every artifact
//! cargo run --release -p mtvc-bench --bin paper fig04 table4 # some of them
//! MTVC_GOLDEN_REGEN=1 cargo run --release -p mtvc-bench --bin paper
//! ```
//!
//! Every artifact runs, even after one fails. The exit status is
//! non-zero if any artifact's assertion failed or any emitted CSV
//! differs from `crates/bench/golden/<id>.csv`.

use mtvc_bench::{artifacts, check_golden, Paper, REGEN};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names
        .iter()
        .find(|n| artifacts::ALL.iter().all(|(id, _)| id != n))
    {
        let known: Vec<&str> = artifacts::ALL.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown artifact {unknown}; known: {}", known.join(" "));
        return ExitCode::from(2);
    }
    let mut paper = Paper::default();
    let mut failures = Vec::new();
    let mut timings = Vec::new();
    let start = Instant::now();
    for (id, run) in artifacts::ALL {
        if !names.is_empty() && !names.iter().any(|n| n == id) {
            continue;
        }
        let t = Instant::now();
        if catch_unwind(AssertUnwindSafe(|| run(&mut paper))).is_err() {
            failures.push(format!("{id}: assertion failed (see the panic above)"));
        }
        timings.push((id, t.elapsed().as_secs_f64()));
    }
    for (id, csv) in paper.emitted() {
        if let Err(e) = check_golden(id, csv) {
            failures.push(e);
        }
    }

    println!("\nwall time per artifact (shared cells count where first run):");
    for (id, secs) in timings {
        println!("  {id:<7} {secs:>7.1} s");
    }
    println!(
        "total {:.1} s; jobs: {} requested, {} run",
        start.elapsed().as_secs_f64(),
        paper.jobs_requested(),
        paper.jobs_run()
    );
    if std::env::var_os(REGEN).is_some() {
        println!("golden: rewrote {} CSVs", paper.emitted().len());
    }
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    ExitCode::FAILURE
}
