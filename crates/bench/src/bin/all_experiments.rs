//! Runs the experiment harnesses and prints the EXPERIMENTS.md-style report
//! (paper artifact, measured tables, shape checks), writing each
//! experiment's `BENCH_<id>.json` perf report as it goes.
//!
//! Run every experiment in paper order with
//! `cargo run --release -p ptolemy-bench --bin all_experiments`, or one with
//! `cargo run --release -p ptolemy-bench -- --only <id>` (e.g.
//! `--only fig10_accuracy`; an unknown id exits 2 and lists the valid ids).
//! Set `PTOLEMY_BENCH_SCALE=full` for the larger configuration and
//! `PTOLEMY_BENCH_OUT` to redirect the perf reports (default `target/bench/`).

use ptolemy_bench::{experiments, BenchScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match args.as_slice() {
        [] => None,
        [flag, id] if flag == "--only" => Some(id.as_str()),
        _ => {
            eprintln!("usage: all_experiments [--only <id>]");
            std::process::exit(2);
        }
    };
    let mut selected = experiments::all();
    if let Some(id) = only {
        selected.retain(|e| e.id == id);
        if selected.is_empty() {
            eprintln!("unknown experiment: {id}; valid ids:");
            for experiment in experiments::all() {
                eprintln!("  {}", experiment.id);
            }
            std::process::exit(2);
        }
    }

    let scale = BenchScale::from_env();
    let mut failures = 0usize;
    for experiment in selected {
        println!("################################################################");
        println!("# {} — {}", experiment.id, experiment.paper_artifact);
        println!("################################################################");
        match experiments::run_and_emit(&experiment, scale) {
            Ok((tables, report)) => {
                for table in tables {
                    println!("{table}");
                }
                println!("perf report: {}", report.display());
            }
            Err(error) => {
                failures += 1;
                eprintln!("experiment {} failed: {error}", experiment.id);
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
