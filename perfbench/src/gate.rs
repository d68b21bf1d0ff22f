//! The correctness gate run after every measured phase.
//!
//! * Every input is judged against the exact-f32 full pipeline: screen
//!   `detect`, then escalation `detect` when the screen score lies in the
//!   band.
//! * Every fresh verdict (not a cache hit) must have been served by the tier
//!   that pipeline chooses, and must bit-equal that tier's direct `detect`.
//! * Every request resolves exactly once, and the client's tally of served,
//!   rejected and failed requests matches the server's own counters.
//! * `verdict_agreement` compares every served decision, cache hits
//!   included, with the pipeline's.  Prefix-cache hits on near-duplicates can
//!   lower it; it is a metric, not a gate.

use std::collections::HashMap;

use ptolemy_core::Detection;
use ptolemy_serve::{ServeStats, Tier};

use crate::drive::{Outcome, Record};
use crate::setup::{in_band, Stack};
use crate::workload::{InputStream, Source};
use crate::BoxResult;

/// `true` when two verdicts carry the same bits.
pub fn same_bits(a: &Detection, b: &Detection) -> bool {
    a.is_adversary == b.is_adversary
        && a.predicted_class == b.predicted_class
        && a.score.to_bits() == b.score.to_bits()
        && a.similarity.to_bits() == b.similarity.to_bits()
}

/// What the gate found.
#[derive(Debug, Default, Clone)]
pub struct GateReport {
    /// Fresh verdicts compared bit for bit with a direct engine call.
    pub fresh_checked: usize,
    pub agreeing: usize,
    pub served: usize,
    /// Every violation found (empty when the run is correct).
    pub failures: Vec<String>,
}

impl GateReport {
    pub fn verdict_agreement(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.agreeing as f64 / self.served as f64
        }
    }

    fn fail(&mut self, message: String) {
        // Keep the report readable when one defect breaks many requests.
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

/// The exact-f32 full pipeline's verdict on `input`, and the tier that gives
/// it: the screen's `detect`, or the escalation engine's when the screen
/// score is in band.
fn pipeline(stack: &Stack, input: &ptolemy_tensor::Tensor) -> BoxResult<(Detection, Tier)> {
    let screen = stack.screen.detect(input)?;
    if in_band(screen.score) {
        Ok((stack.escalate.detect(input)?, Tier::Escalated))
    } else {
        Ok((screen, Tier::Screen))
    }
}

/// Checks the served verdicts of `records` against direct engine calls.
/// `repeated` says inputs are byte-identical pool items, so references are
/// computed once per pool item.
pub fn check_verdicts(
    stack: &Stack,
    stream: &InputStream<'_>,
    records: &[Record],
    repeated: bool,
) -> BoxResult<GateReport> {
    let served: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Served(_)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = served.len().div_ceil(threads).max(1);
    let parts: Vec<BoxResult<GateReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .chunks(chunk)
            .map(|part| scope.spawn(move || check_part(stack, stream, part, repeated)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a gate thread panicked".into()))
            })
            .collect()
    });
    let mut report = GateReport::default();
    for part in parts {
        let part = part?;
        report.fresh_checked += part.fresh_checked;
        report.agreeing += part.agreeing;
        report.served += part.served;
        for failure in part.failures {
            report.fail(failure);
        }
    }
    Ok(report)
}

fn check_part(
    stack: &Stack,
    stream: &InputStream<'_>,
    records: &[&Record],
    repeated: bool,
) -> BoxResult<GateReport> {
    let mut report = GateReport::default();
    let mut memo: HashMap<Source, (Detection, Tier)> = HashMap::new();
    for record in records {
        let Outcome::Served(served) = record.outcome else {
            continue;
        };
        let key = stream.source(record.index);
        let (expected, tier) = match memo.get(&key) {
            Some(reference) => *reference,
            None => {
                let reference = pipeline(stack, &stream.input(record.index))?;
                if repeated {
                    memo.insert(key, reference);
                }
                reference
            }
        };
        report.served += 1;
        if served.detection.is_adversary == expected.is_adversary {
            report.agreeing += 1;
        }
        if served.cache_hit {
            continue;
        }
        report.fresh_checked += 1;
        if served.tier != tier {
            report.fail(format!(
                "request {}: served by the {:?} tier, but the screen score puts it on the {tier:?} tier",
                record.index, served.tier
            ));
        } else if !same_bits(&served.detection, &expected) {
            report.fail(format!(
                "request {}: served {:?} but the {tier:?} tier's detect gives {expected:?}",
                record.index, served.detection
            ));
        }
    }
    Ok(report)
}

/// Counters a phase moved: `after - before`.
pub fn stats_delta(after: &ServeStats, before: &ServeStats) -> ServeStats {
    ServeStats {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        failed: after.failed - before.failed,
        worker_panics: after.worker_panics - before.worker_panics,
        screen_served: after.screen_served - before.screen_served,
        int8_screens: after.int8_screens - before.int8_screens,
        escalated: after.escalated - before.escalated,
        shed_admission: after.shed_admission - before.shed_admission,
        shed_expired: after.shed_expired - before.shed_expired,
        deadline_misses: after.deadline_misses - before.deadline_misses,
        degraded_served: after.degraded_served - before.degraded_served,
        degrade_entered: after.degrade_entered - before.degrade_entered,
        degrade_exited: after.degrade_exited - before.degrade_exited,
        pipelined_batches: after.pipelined_batches - before.pipelined_batches,
        serial_batches: after.serial_batches - before.serial_batches,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        batches: after.batches - before.batches,
        ..after.clone()
    }
}

/// Checks that every request resolved exactly once and that the client's
/// tally agrees with the server's counters for the phase.
pub fn check_accounting(
    records: &[Record],
    expected_sent: usize,
    delta: &ServeStats,
) -> Vec<String> {
    let mut failures = Vec::new();
    if records.len() != expected_sent {
        failures.push(format!(
            "{} requests sent but {} resolved",
            expected_sent,
            records.len()
        ));
    }
    if records.iter().enumerate().any(|(i, r)| r.index != i) {
        failures.push("a request resolved twice or not at all".into());
    }
    let count =
        |f: &dyn Fn(&Outcome) -> bool| records.iter().filter(|r| f(&r.outcome)).count() as u64;
    let served = count(&|o| matches!(o, Outcome::Served(_)));
    let queue_full = count(&|o| *o == Outcome::QueueFull);
    let errors = count(&|o| *o == Outcome::Error);
    let sent = records.len() as u64;
    if served + queue_full + errors != sent {
        failures.push("completed + failed + shed != sent".into());
    }
    let pairs = [
        ("completed", delta.completed, served),
        ("failed", delta.failed, errors),
        ("submitted", delta.submitted, sent - queue_full),
    ];
    for (name, server, client) in pairs {
        if server != client {
            failures.push(format!(
                "server counted {name} = {server}, the client saw {client}"
            ));
        }
    }
    let cached = records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Served(s) if s.cache_hit))
        .count() as u64;
    if cached != delta.cache_hits {
        failures.push(format!(
            "server counted {} cache hits, the client saw {cached}",
            delta.cache_hits
        ));
    }
    failures
}
