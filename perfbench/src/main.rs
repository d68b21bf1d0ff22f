//! The repository benchmark: drives the public `Server` API of the Ptolemy
//! stack with fixed, seeded traffic on one of two workloads, checks every
//! served verdict, and prints its metrics.  See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exit codes: 0 a valid, correct run; 1 the correctness gate failed (the
//! JSON line says `"correct": false`); 2 bad arguments, a failed set-up, or
//! a run discarded as invalid (no JSON line).

mod drive;
mod gate;
mod layers;
mod metrics;
mod setup;
#[cfg(test)]
mod tests;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use ptolemy_serve::ServeStats;

use crate::drive::Record;
use crate::gate::GateReport;
use crate::metrics::{Slice, Summary, MIN_SAMPLES};
use crate::setup::Stack;
use crate::workload::{InputStream, Inputs, Load, Workload, MAX_SEND_LAG_P99, SLO, WARMUP};

pub type BoxResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run produced, before it is printed.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics printed in the JSON line.
    pub metrics: Vec<Metric>,
    /// Further figures printed in the human-readable report only.
    pub notes: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Correctness-gate violations: the run is reported as incorrect.
    pub failures: Vec<String>,
    /// Reasons the run does not measure what its workload exists for: the
    /// run is discarded.
    pub invalid: Vec<String>,
}

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}`; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The client's records of one phase, and the server counters it moved.
pub struct Phase {
    pub records: Vec<Record>,
    pub delta: ServeStats,
    pub stream_seed: u64,
    /// Accounting violations: requests that did not resolve exactly once, or
    /// client and server tallies that disagree.
    pub accounting: Vec<String>,
}

/// Runs one phase of `duration` on `stack`'s server.  `phase` numbers the
/// phases of a run so each draws its own inputs; phase 0 is the warm-up and
/// has its own arrivals, every later phase replays the measured arrivals.
pub fn run_phase(
    stack: &Stack,
    workload: &Workload,
    seed: u64,
    phase: u64,
    duration: Duration,
) -> BoxResult<Phase> {
    let stream_seed = workload::mix(seed ^ workload::mix(phase.wrapping_add(1)));
    let stream = InputStream::new(workload, &stack.benign, &stack.adversarial, stream_seed);
    let before = stack.server.stats();
    let (records, expected) = match workload.load {
        Load::Closed { window } => {
            let records =
                drive::closed_loop(&stack.server, window, duration, &|i| stream.input(i))?;
            let sent = records.len();
            (records, sent)
        }
        Load::Poisson { rate } => {
            let arrivals = u64::from(phase > 0);
            let schedule = workload::schedule(rate, seed, arrivals, duration)?;
            let records = drive::open_loop(&stack.server, &schedule, &|i| stream.input(i))?;
            (records, schedule.len())
        }
    };
    let delta = gate::stats_delta(&stack.server.stats(), &before);
    let accounting = gate::check_accounting(&records, expected, &delta);
    Ok(Phase {
        records,
        delta,
        stream_seed,
        accounting,
    })
}

/// A measured phase's end-to-end summary and gate report, with its
/// correctness failures and validity problems appended to `run`.
pub fn judge_phase(
    stack: &Stack,
    workload: &Workload,
    phase: &Phase,
    run: &mut Report,
) -> BoxResult<(Summary, GateReport)> {
    let stream = InputStream::new(
        workload,
        &stack.benign,
        &stack.adversarial,
        phase.stream_seed,
    );
    let summary = metrics::summarize(&phase.records, SLO, &|i| stream.source(i).adversarial);
    let repeated = workload.inputs == Inputs::Repeated;
    let gate = gate::check_verdicts(stack, &stream, &phase.records, repeated)?;
    run.attempted += summary.sent;
    run.failed += summary.errors;
    run.failures.extend(phase.accounting.iter().cloned());
    run.failures.extend(gate.failures.iter().cloned());
    if summary.errors > 0 {
        run.failures.push(format!(
            "{} requests failed with an engine error, cancellation or worker panic",
            summary.errors
        ));
    }
    let max_lag_ms = MAX_SEND_LAG_P99.as_secs_f64() * 1e3;
    let best_lag_ms = summary.best(|s| s.send_lag_p99_ms, true);
    if best_lag_ms > max_lag_ms {
        run.invalid.push(format!(
            "the generator ran at least {best_lag_ms:.3} ms behind schedule at p99 in every \
             slice (bound {max_lag_ms} ms)"
        ));
    }
    if summary.served < MIN_SAMPLES {
        run.invalid.push(format!(
            "{} verdicts are too few for tail slices with ten samples beyond each p95",
            summary.served
        ));
    }
    let hit_rate = phase.delta.cache_hit_rate();
    let (low, high) = workload.hit_rate;
    if !(low..=high).contains(&hit_rate) {
        run.invalid.push(format!(
            "cache hit rate {hit_rate:.4} is outside [{low}, {high}]"
        ));
    }
    Ok((summary, gate))
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> BoxResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .ok_or("no VmHWM line in /proc/self/status")?
        .trim()
        .parse::<f64>()?;
    Ok(kib / 1024.0)
}

/// The untraced run: every end-to-end metric.
fn untraced(args: &Args) -> BoxResult<Report> {
    let workload = args.workload;
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut kept: Option<Stack> = None;
    for _ in 0..workload.setups {
        // Tear the previous server down first so set-ups never overlap.
        if let Some(stack) = kept.take() {
            stack.server.shutdown();
        }
        let stack = setup::build(workload.model, None)?;
        setup_s.push(stack.times.total());
        digests.push(setup::digest(&stack)?);
        kept = Some(stack);
    }
    let stack = kept.ok_or("a workload needs at least one set-up")?;
    println!(
        "set-up digest {:016x} over {} set-ups",
        digests[0],
        digests.len()
    );
    if digests.iter().any(|d| *d != digests[0]) {
        report
            .failures
            .push(format!("set-up is not deterministic: digests {digests:x?}"));
    }

    run_phase(&stack, workload, args.seed, 0, WARMUP)?;
    let measured = Duration::from_secs(args.seconds);
    let phase = run_phase(&stack, workload, args.seed, 1, measured)?;
    // Read before the gate, whose reference threads allocate arenas of their own.
    let peak_rss = peak_rss_mb()?;
    let (summary, gate) = judge_phase(&stack, workload, &phase, &mut report)?;
    stack.server.shutdown();

    let reported = |figure: fn(&Slice) -> f64, lower| summary.reported(figure, lower);
    let best = |figure: fn(&Slice) -> f64, lower| summary.best(figure, lower);
    report.metrics = vec![
        metric("setup_s", metrics::median(&setup_s), "s"),
        metric(
            "throughput_rps",
            reported(|s| s.throughput_rps, false),
            "req/s",
        ),
        metric("latency_p50_ms", reported(|s| s.p50_ms, true), "ms"),
        metric(
            "slo_attainment",
            reported(|s| s.slo_attainment, false),
            "ratio",
        ),
        metric("served_ratio", summary.served_ratio(), "ratio"),
        metric("detection_rate", summary.detection_rate(), "ratio"),
        metric("verdict_agreement", gate.verdict_agreement(), "ratio"),
        metric("peak_rss_mb", peak_rss, "MB"),
    ];
    // The tail is printed, not gated: on a shared host it follows the host's
    // scheduling more than the program (see the README).
    report.notes = vec![
        metric("latency_p95_ms", reported(|s| s.p95_ms, true), "ms"),
        metric("latency_p99_ms", reported(|s| s.p99_ms, true), "ms"),
        metric(
            "best_throughput_rps",
            best(|s| s.throughput_rps, false),
            "req/s",
        ),
        metric("best_latency_p50_ms", best(|s| s.p50_ms, true), "ms"),
        metric("best_latency_p95_ms", best(|s| s.p95_ms, true), "ms"),
        metric("run_throughput_rps", summary.run_throughput_rps(), "req/s"),
        metric("run_latency_p50_ms", summary.run_p50_ms, "ms"),
        metric("run_latency_p95_ms", summary.run_p95_ms, "ms"),
        metric("run_slo_attainment", summary.run_slo_attainment(), "ratio"),
        metric("shed_ratio", summary.shed_ratio(), "ratio"),
        metric("error_ratio", summary.error_ratio(), "ratio"),
        metric(
            "false_positive_rate",
            summary.false_positive_rate(),
            "ratio",
        ),
        metric("latency_samples", summary.served as f64, "count"),
        metric("requests_sent", summary.sent as f64, "count"),
        metric("fresh_verdicts_checked", gate.fresh_checked as f64, "count"),
        metric("cache_hit_rate", phase.delta.cache_hit_rate(), "ratio"),
        metric("send_lag_p99_ms", summary.send_lag_p99_ms, "ms"),
        metric("escalated", phase.delta.escalated as f64, "count"),
    ];
    Ok(report)
}

/// Formats a float for JSON: every digit Rust's shortest round-trip form
/// gives, and never NaN or infinity.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds)
    } else {
        untraced(&args)
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name);
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in report.metrics.iter().chain(&report.notes) {
        println!("  {:<40} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    if !report.invalid.is_empty() {
        for reason in &report.invalid {
            eprintln!("perfbench: invalid run: {reason}");
        }
        eprintln!("perfbench: run discarded, no result reported");
        return ExitCode::from(2);
    }
    for failure in &report.failures {
        println!("  GATE FAILED: {failure}");
    }
    println!("{}", json_line(&report));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
