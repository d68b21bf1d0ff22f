//! Live tests of the benchmark machinery on a tiny synthetic configuration:
//! a two-class MLP behind the same FwAb → BwCu server the workloads use.

use std::time::Duration;

use ptolemy_core::Detection;
use ptolemy_serve::{ServeStats, Served, Tier};

use crate::drive::{self, Outcome, Record};
use crate::gate;
use crate::setup::{self, Model, Stack};
use crate::workload::{InputStream, Inputs, Load, Workload};
use crate::{json_line, json_number, metric, parse_args, Args};

const TINY: Workload = Workload {
    name: "tiny",
    model: Model::Tiny,
    load: Load::Poisson { rate: 2000.0 },
    inputs: Inputs::Unique,
    setups: 1,
    hit_rate: (0.0, 1.0),
};

fn tiny_stack() -> Stack {
    setup::build(Model::Tiny, None).expect("tiny set-up")
}

/// Sends `n` requests all due at once, so most are sent late.
fn sent_at_once(stack: &Stack, stream: &InputStream<'_>, n: usize) -> (Vec<u64>, Vec<Record>) {
    let schedule = vec![0; n];
    let records = drive::open_loop(&stack.server, &schedule, &|i| stream.input(i)).unwrap();
    (schedule, records)
}

#[test]
fn set_up_is_deterministic() {
    let a = tiny_stack();
    let b = tiny_stack();
    assert_eq!(setup::digest(&a).unwrap(), setup::digest(&b).unwrap());
}

#[test]
fn open_loop_charges_latency_from_the_scheduled_send() {
    let stack = tiny_stack();
    let stream = InputStream::new(&TINY, &stack.benign, &stack.adversarial, 1);
    let before = stack.server.stats();
    let (schedule, records) = sent_at_once(&stack, &stream, 200);
    assert_eq!(records.len(), schedule.len());
    for record in &records {
        assert_eq!(record.due_ns, 0);
        // Every request queued behind the ones sent before it; its latency
        // includes the time it waited to be sent, not only service time.
        assert!(record.latency_ns() >= record.sent_ns);
        assert!(record.done_ns >= record.sent_ns);
    }
    assert!(records.iter().any(|r| r.sent_ns > 0));
    let delta = gate::stats_delta(&stack.server.stats(), &before);
    assert!(gate::check_accounting(&records, schedule.len(), &delta).is_empty());
}

#[test]
fn served_verdicts_re_derive_bit_for_bit() {
    let stack = tiny_stack();
    let stream = InputStream::new(&TINY, &stack.benign, &stack.adversarial, 2);
    let (_, mut records) = sent_at_once(&stack, &stream, 60);
    let report = gate::check_verdicts(&stack, &stream, &records, false).unwrap();
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.served, 60);
    assert!(report.fresh_checked > 0);

    // Flip one bit of one fresh verdict's score: the gate must see it.
    let tampered = records
        .iter_mut()
        .find(|r| matches!(r.outcome, Outcome::Served(s) if !s.cache_hit))
        .expect("a fresh verdict");
    if let Outcome::Served(served) = &mut tampered.outcome {
        served.detection.score = f32::from_bits(served.detection.score.to_bits() ^ 1);
    }
    let report = gate::check_verdicts(&stack, &stream, &records, false).unwrap();
    assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
}

#[test]
fn a_verdict_served_by_the_wrong_tier_fails_the_gate() {
    let stack = tiny_stack();
    let stream = InputStream::new(&TINY, &stack.benign, &stack.adversarial, 3);
    let (_, mut records) = sent_at_once(&stack, &stream, 60);
    assert!(gate::check_verdicts(&stack, &stream, &records, false)
        .unwrap()
        .failures
        .is_empty());

    // Move one fresh verdict to the other tier, keeping its bits: a server
    // that stopped escalating, or escalated the wrong input, looks like this.
    let tampered = records
        .iter_mut()
        .find(|r| matches!(r.outcome, Outcome::Served(s) if !s.cache_hit))
        .expect("a fresh verdict");
    if let Outcome::Served(served) = &mut tampered.outcome {
        served.tier = match served.tier {
            Tier::Screen => Tier::Escalated,
            Tier::Escalated => Tier::Screen,
        };
    }
    let report = gate::check_verdicts(&stack, &stream, &records, false).unwrap();
    assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
    assert!(report.failures[0].contains("tier"), "{:?}", report.failures);
}

fn served_record(index: usize, cache_hit: bool) -> Record {
    Record {
        index,
        due_ns: 0,
        sent_ns: 0,
        done_ns: 1,
        outcome: Outcome::Served(Served {
            detection: Detection {
                is_adversary: false,
                score: 0.0,
                similarity: 1.0,
                predicted_class: 0,
            },
            tier: Tier::Screen,
            cache_hit,
            degraded: false,
        }),
    }
}

#[test]
fn accounting_catches_lost_duplicate_and_miscounted_requests() {
    let shed = |index, outcome| Record {
        outcome,
        ..served_record(index, false)
    };
    let records = vec![
        served_record(0, false),
        served_record(1, true),
        shed(2, Outcome::QueueFull),
        shed(3, Outcome::Error),
    ];
    let server = ServeStats {
        submitted: 3,
        completed: 2,
        failed: 1,
        cache_hits: 1,
        ..ServeStats::default()
    };
    assert!(gate::check_accounting(&records, 4, &server).is_empty());

    // A request that never resolved.
    assert!(!gate::check_accounting(&records[..3], 4, &server).is_empty());
    // A request that resolved twice.
    let mut twice = records.clone();
    twice[1] = served_record(0, false);
    assert!(!gate::check_accounting(&twice, 4, &server).is_empty());
    // The server's tally disagrees with the client's.
    for miscounted in [
        ServeStats {
            completed: 3,
            ..server.clone()
        },
        ServeStats {
            failed: 0,
            ..server.clone()
        },
        ServeStats {
            cache_hits: 0,
            ..server.clone()
        },
    ] {
        assert!(!gate::check_accounting(&records, 4, &miscounted).is_empty());
    }
}

#[test]
fn every_workload_has_a_schedule_or_a_window() {
    for workload in &crate::workload::WORKLOADS {
        match workload.load {
            Load::Closed { window } => assert!(window > 0),
            Load::Poisson { rate } => {
                let schedule = |seed| {
                    crate::workload::schedule(rate, seed, 1, Duration::from_secs(1)).unwrap()
                };
                let due = schedule(1);
                assert!(!due.is_empty(), "{}", workload.name);
                assert!(due.windows(2).all(|w| w[0] <= w[1]));
                assert_eq!(
                    due,
                    schedule(1),
                    "{}: same seed, same schedule",
                    workload.name
                );
                assert_ne!(
                    due,
                    schedule(2),
                    "{}: the seed moves the gaps",
                    workload.name
                );
            }
        }
    }
}

fn args(list: &[&str]) -> Result<Args, String> {
    parse_args(list.iter().map(|s| s.to_string()))
}

#[test]
fn parses_the_command_line() {
    let parsed = args(&[
        "--workload",
        "lenet_dup_open",
        "--seed",
        "7",
        "--seconds",
        "10",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(parsed.workload.name, "lenet_dup_open");
    assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 10, true));
    assert!(args(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(args(&[
        "--workload",
        "lenet_dup_open",
        "--seed",
        "1",
        "--seconds",
        "1"
    ])
    .is_err());
    assert!(args(&["--trace", "2"]).is_err());
}

#[test]
fn json_line_has_exactly_the_contract_keys() {
    let outcome = crate::Report {
        metrics: vec![metric("latency_p50_ms", 1.25, "ms")],
        attempted: 10,
        ..crate::Report::default()
    };
    assert_eq!(
        json_line(&outcome),
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
         \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
    );
    assert_eq!(json_number(f64::NAN), "null");
    assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
}
