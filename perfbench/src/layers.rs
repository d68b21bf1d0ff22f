//! The traced run: attributes time and work to the repository's crates from
//! outside the program.
//!
//! * `serve.*` comes from `Server::stats()` and from the stage histograms the
//!   server and both engines record into an attached, enabled `Registry`.
//! * `nn.*`, `core.*` and `tensor.gflops` come from *replays*: the benchmark
//!   times the public call on inputs the measured phase served, at the mean
//!   batch size the server formed.
//! * `tensor.macs_per_input` and `tensor.activation_bytes_per_input` are
//!   computed from layer shapes, not measured.
//! * `accel.*` is the hardware model's estimate for the measured batch and
//!   path density: a deterministic model count, not a timing.
//! * `trace.*` compares an untraced phase (registry attached but disabled)
//!   with the traced phase that follows it on the same server.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ptolemy_accel::{AccelBackend, HardwareConfig};
use ptolemy_core::{extract_paths_streaming_batch, software_cost, DetectionEngine};
use ptolemy_nn::QuantizedNetwork;
use ptolemy_obs::{Histogram, Registry};
use ptolemy_tensor::Tensor;

use crate::drive::Outcome as Resolved;
use crate::metrics::Summary;
use crate::setup::{self, Stack};
use crate::workload::{InputStream, Workload, WARMUP};
use crate::{judge_phase, metric, run_phase, BoxResult, Report};

/// Served inputs each replay runs over.
const REPLAY_INPUTS: usize = 256;
/// Each replay repeats its pass over the inputs for at least this long.
const REPLAY_TIME: Duration = Duration::from_millis(250);

fn mean_ns(hist: &Histogram) -> f64 {
    if hist.is_empty() {
        0.0
    } else {
        hist.sum() as f64 / hist.count() as f64
    }
}

fn p_ms(hist: &Histogram, q: f64) -> f64 {
    hist.percentile(q).map_or(0.0, |ns| ns as f64 / 1e6)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The microseconds per input that `call` takes on `inputs` cut into chunks
/// of `batch`, in the fastest of repeated passes: host interference only adds
/// time (Chen & Revels, arXiv:1608.04295), and `core.extract_us_per_input`
/// subtracts two replays, which medians left noisy enough to go negative.
fn replay_us(
    inputs: &[Tensor],
    batch: usize,
    call: &mut dyn FnMut(&[Tensor]) -> BoxResult<()>,
) -> BoxResult<f64> {
    if inputs.is_empty() {
        return Ok(0.0);
    }
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 5 || (start.elapsed() < REPLAY_TIME && passes.len() < 50) {
        let pass = Instant::now();
        for chunk in inputs.chunks(batch.max(1)) {
            call(black_box(chunk))?;
        }
        passes.push(pass.elapsed().as_secs_f64() * 1e6 / inputs.len() as f64);
    }
    Ok(passes.into_iter().fold(f64::INFINITY, f64::min))
}

/// The reported end-to-end figures the tracing overhead is measured on.
fn throughput(summary: &Summary) -> f64 {
    summary.reported(|s| s.throughput_rps, false)
}

fn p50(summary: &Summary) -> f64 {
    summary.reported(|s| s.p50_ms, true)
}

/// First error of a per-input result list.
fn all_ok<T>(results: Vec<ptolemy_core::Result<T>>) -> BoxResult<()> {
    for result in results {
        black_box(result?);
    }
    Ok(())
}

/// The traced run: every per-layer metric.
pub fn traced(workload: &Workload, seed: u64, seconds: u64) -> BoxResult<Report> {
    let registry = Arc::new(Registry::new("perfbench"));
    registry.set_enabled(false);
    let stack = setup::build(workload.model, Some(&registry))?;
    let mut report = Report::default();

    run_phase(&stack, workload, seed, 0, WARMUP)?;
    let measured = Duration::from_secs(seconds);
    let plain = run_phase(&stack, workload, seed, 1, measured)?;
    registry.set_enabled(true);
    let traced = run_phase(&stack, workload, seed, 2, measured)?;
    registry.set_enabled(false);
    // The last batch's histograms land just after its tickets resolve.
    std::thread::sleep(Duration::from_millis(50));
    let (plain_summary, _) = judge_phase(&stack, workload, &plain, &mut report)?;
    let (summary, _) = judge_phase(&stack, workload, &traced, &mut report)?;
    let d = &traced.delta;

    let hist = |name: &str| registry.histogram(name).snapshot();
    let screen_hist = hist("serve.screen_ns");
    let escalate_hist = hist("serve.escalate[0]_ns");
    let queue_wait = hist("serve.queue_wait_ns");
    let cache_lookup = hist("serve.cache_lookup_ns");
    let score = hist("core.score_ns");
    let detections = registry.counter("core.detections").get();

    let fresh = d.screen_served + d.escalated;
    let escalated_ratio = ratio(d.escalated, fresh);
    let mean_batch = ratio(d.submitted, d.batches);
    let escalating_batches = d.pipelined_batches + d.serial_batches;
    // The serve stages a mean request passes through: every request queues
    // and is looked up; only cache misses wait for the screen pass, and only
    // escalated requests for the escalation pass.
    let stage_ns = mean_ns(&queue_wait)
        + mean_ns(&cache_lookup)
        + ratio(fresh, d.completed) * mean_ns(&screen_hist)
        + ratio(d.escalated, d.completed) * mean_ns(&escalate_hist);

    let replay = replays(
        &stack,
        workload,
        &traced,
        mean_batch,
        d.escalated,
        escalating_batches,
    )?;

    let t = stack.times;
    report.metrics = vec![
        metric("serve.cache_hit_rate", d.cache_hit_rate(), "ratio"),
        metric(
            "serve.cache_lookup_us_per_req",
            cache_lookup.sum() as f64 / 1e3 / d.submitted.max(1) as f64,
            "us",
        ),
        metric("serve.mean_batch", mean_batch, "count"),
        metric("serve.batches", d.batches as f64, "count"),
        metric(
            "serve.batch_form_p50_ms",
            p_ms(&hist("serve.batch_form_ns"), 0.5),
            "ms",
        ),
        metric("serve.queue_wait_p50_ms", p_ms(&queue_wait, 0.5), "ms"),
        metric("serve.queue_wait_p99_ms", p_ms(&queue_wait, 0.99), "ms"),
        metric(
            "serve.screen_ms_per_batch",
            mean_ns(&screen_hist) / 1e6,
            "ms",
        ),
        metric(
            "serve.escalate_ms_per_batch",
            mean_ns(&escalate_hist) / 1e6,
            "ms",
        ),
        metric("serve.escalated_ratio", escalated_ratio, "ratio"),
        metric(
            "serve.pipelined_ratio",
            ratio(d.pipelined_batches, escalating_batches),
            "ratio",
        ),
        metric("serve.shed_ratio", summary.shed_ratio(), "ratio"),
        metric("serve.error_ratio", summary.error_ratio(), "ratio"),
        metric("serve.shed_queue_full", summary.queue_full as f64, "count"),
        metric("nn.forward_us_per_input", replay.forward, "us"),
        metric("nn.forward_batch_us_per_input", replay.forward_batch, "us"),
        metric(
            "nn.forward_int8_batch_us_per_input",
            replay.forward_int8,
            "us",
        ),
        metric("core.extract_us_per_input", replay.extract, "us"),
        metric("core.detect_batch_us_per_input", replay.detect_batch, "us"),
        metric("core.escalate_us_per_input", replay.escalate, "us"),
        metric("core.detect_int8_us_per_input", replay.detect_int8, "us"),
        metric("core.path_density", replay.density, "ratio"),
        metric(
            "core.false_positive_rate",
            summary.false_positive_rate(),
            "ratio",
        ),
        metric(
            "forest.score_us_per_input",
            score.sum() as f64 / 1e3 / detections.max(1) as f64,
            "us",
        ),
        metric("tensor.macs_per_input", replay.macs, "count"),
        metric(
            "tensor.activation_bytes_per_input",
            replay.activation_bytes,
            "bytes",
        ),
        metric("tensor.gflops", replay.gflops, "GFLOP/s"),
        metric("accel.latency_factor", replay.accel_latency, "ratio"),
        metric("accel.energy_factor", replay.accel_energy, "ratio"),
        metric("setup.dataset_s", t.dataset, "s"),
        metric("setup.train_s", t.train, "s"),
        metric("setup.profile_s", t.profile, "s"),
        metric("setup.attack_s", t.attack, "s"),
        metric("setup.calibrate_s", t.calibrate, "s"),
        metric("setup.server_start_s", t.server_start, "s"),
        metric("client.send_lag_p99_ms", summary.send_lag_p99_ms, "ms"),
        metric("client.send_lag_max_ms", summary.send_lag_max_ms, "ms"),
        metric(
            "trace.throughput_overhead",
            1.0 - throughput(&summary) / throughput(&plain_summary).max(1e-9),
            "ratio",
        ),
        metric(
            "trace.latency_p50_overhead",
            p50(&summary) / p50(&plain_summary).max(1e-9) - 1.0,
            "ratio",
        ),
        metric(
            "trace.stage_coverage",
            stage_ns / 1e6 / summary.latency_mean_ms.max(1e-9),
            "ratio",
        ),
    ];
    report.notes = vec![
        metric(
            "untraced.throughput_rps",
            throughput(&plain_summary),
            "req/s",
        ),
        metric("traced.throughput_rps", throughput(&summary), "req/s"),
        metric("untraced.latency_p50_ms", p50(&plain_summary), "ms"),
        metric("traced.latency_p50_ms", p50(&summary), "ms"),
        metric("traced.latency_mean_ms", summary.latency_mean_ms, "ms"),
        metric("replay.batch", replay.batch as f64, "count"),
        metric(
            "replay.escalation_batch",
            replay.escalation_batch as f64,
            "count",
        ),
    ];
    stack.server.shutdown();
    Ok(report)
}

/// Replayed per-layer costs.
struct Replay {
    batch: usize,
    escalation_batch: usize,
    forward: f64,
    forward_batch: f64,
    forward_int8: f64,
    extract: f64,
    detect_batch: f64,
    escalate: f64,
    detect_int8: f64,
    density: f64,
    macs: f64,
    activation_bytes: f64,
    gflops: f64,
    accel_latency: f64,
    accel_energy: f64,
}

fn replays(
    stack: &Stack,
    workload: &Workload,
    phase: &crate::Phase,
    mean_batch: f64,
    escalated: u64,
    escalating_batches: u64,
) -> BoxResult<Replay> {
    let stream = InputStream::new(
        workload,
        &stack.benign,
        &stack.adversarial,
        phase.stream_seed,
    );
    let inputs: Vec<Tensor> = phase
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Resolved::Served(_)))
        .take(REPLAY_INPUTS)
        .map(|r| stream.input(r.index))
        .collect();
    let batch = (mean_batch.round() as usize).max(1);
    let escalation_batch = (ratio(escalated, escalating_batches).round() as usize).max(1);
    let network = &stack.network;
    let screen = &stack.screen;
    // The server screens in f32; the replays report what int8 would cost.
    let qnet = Arc::new(QuantizedNetwork::quantize(network.clone(), &stack.benign)?);

    let forward = replay_us(&inputs, 1, &mut |chunk| {
        black_box(network.forward(&chunk[0])?);
        Ok(())
    })?;
    let forward_batch = replay_us(&inputs, batch, &mut |chunk| {
        black_box(network.forward_batch(chunk)?);
        Ok(())
    })?;
    let forward_int8 = replay_us(&inputs, batch, &mut |chunk| {
        black_box(qnet.forward_batch(chunk)?);
        Ok(())
    })?;
    let streamed = replay_us(&inputs, batch, &mut |chunk| {
        black_box(extract_paths_streaming_batch(
            network,
            screen.program(),
            chunk,
        )?);
        Ok(())
    })?;
    let detect_batch = replay_us(&inputs, batch, &mut |chunk| {
        all_ok(screen.detect_batch_with_paths(chunk))
    })?;
    let detect_int8 = replay_us(&inputs, batch, &mut |chunk| {
        all_ok(screen.detect_batch_quantized_with(&qnet, chunk))
    })?;

    // The escalation replay runs on the inputs the screen left in band; with
    // none in the sample it prices the escalation engine on all of them.
    let mut density = 0.0f64;
    let mut in_band = Vec::new();
    for (input, result) in inputs.iter().zip(screen.detect_batch_with_paths(&inputs)) {
        let (detection, path) = result?;
        density += f64::from(path.density());
        if setup::in_band(detection.score) {
            in_band.push(input.clone());
        }
    }
    density /= inputs.len().max(1) as f64;
    let escalation_inputs = if in_band.is_empty() {
        &inputs
    } else {
        &in_band
    };
    let escalate = replay_us(escalation_inputs, escalation_batch, &mut |chunk| {
        all_ok(stack.escalate.detect_batch_with_paths(chunk))
    })?;

    let macs = network.total_macs() as f64;
    let activation_bytes =
        software_cost(network, screen.program(), density as f32)?.inference_activation_bytes as f64;
    let accel = DetectionEngine::builder(
        network.clone(),
        screen.program().clone(),
        screen.class_paths().clone(),
    )
    .forest(
        screen
            .forest()
            .ok_or("screen engine has no classifier")?
            .clone(),
    )
    .threshold(screen.threshold())
    .backend(Box::new(AccelBackend::new(HardwareConfig::default())))
    .build()?
    .estimate_batch(batch, density as f32)?;

    Ok(Replay {
        batch,
        escalation_batch,
        forward,
        forward_batch,
        forward_int8,
        extract: streamed - forward_batch,
        detect_batch,
        escalate,
        detect_int8,
        density,
        macs,
        activation_bytes,
        gflops: 2.0 * macs / (forward_batch * 1e-6) / 1e9,
        accel_latency: accel.latency_factor.unwrap_or(0.0),
        accel_energy: accel.energy_factor.unwrap_or(0.0),
    })
}
