//! End-to-end figures from the client's records: latency percentiles,
//! throughput, SLO attainment, rejection / error accounting and detection
//! quality.
//! Pure functions of the records, so the tests can pin them on hand-made
//! input.

use std::time::Duration;

use crate::drive::{Outcome, Record};

/// Nearest-rank `q`-quantile of an ascending slice (`None` when empty).
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Figures of one slice of a phase: consecutive requests in send order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Requests of the slice that got a verdict within the limit, over the
    /// slice's requests.
    pub slo_attainment: f64,
    /// The slice's verdicts over its span, from its first due time to its
    /// last completion.
    pub throughput_rps: f64,
    /// How far behind its schedule the sender submitted the slice, at p99.
    pub send_lag_p99_ms: f64,
}

/// A phase is cut into this many consecutive, equal-count slices of its
/// requests in send order.  Each reported figure is the better quartile of
/// the slices' figures: the fifth best of twenty.  Host interference only
/// ever adds time, and on a shared host it comes in stalls of seconds to
/// minutes; one that covers up to three quarters of the phase leaves the
/// quartile alone.  A program effect that recurs through the phase (a
/// periodic stall, a slowdown that sets in as a cache or heap grows) moves
/// more than three quarters of the slices, and so the quartile.
pub const SLICES: usize = 20;

/// Where the reported figure sits among the slices, counted from the best.
pub const REPORTED_RANK: f64 = 0.25;

/// The fewest verdicts for which every slice holds at least ten samples
/// beyond its p95.
pub const MIN_SAMPLES: usize = 200 * SLICES;

/// What one measured phase looked like from the client.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub sent: usize,
    pub served: usize,
    /// Refused at submission because the queue was full.
    pub queue_full: usize,
    pub errors: usize,
    /// Served requests that met the workload's latency limit.
    pub slo_met: usize,
    /// From phase start to the last completion.
    pub wall: Duration,
    pub slices: Vec<Slice>,
    /// Latency quantiles over the whole phase.
    pub run_p50_ms: f64,
    pub run_p95_ms: f64,
    pub latency_mean_ms: f64,
    /// How far behind its schedule the sender submitted.
    pub send_lag_p99_ms: f64,
    pub send_lag_max_ms: f64,
    /// Served adversarial requests, and those flagged adversarial.
    pub adversarial_served: usize,
    pub adversarial_flagged: usize,
    /// Served benign requests, and those flagged adversarial.
    pub benign_served: usize,
    pub benign_flagged: usize,
}

impl Summary {
    /// The `share`-quantile of `figure` over the slices, counted from the
    /// best slice (the smallest value when `lower_is_better`, else the
    /// largest): 0 gives the best slice.
    pub fn ranked(&self, figure: fn(&Slice) -> f64, lower_is_better: bool, share: f64) -> f64 {
        let mut values: Vec<f64> = self.slices.iter().map(figure).collect();
        if values.is_empty() {
            return 0.0;
        }
        values.sort_by(f64::total_cmp);
        if !lower_is_better {
            values.reverse();
        }
        let rank = (share * values.len() as f64).ceil() as usize;
        values[rank.clamp(1, values.len()) - 1]
    }

    /// The reported figure: the better quartile of the slices.
    pub fn reported(&self, figure: fn(&Slice) -> f64, lower_is_better: bool) -> f64 {
        self.ranked(figure, lower_is_better, REPORTED_RANK)
    }

    /// The best slice's figure.
    pub fn best(&self, figure: fn(&Slice) -> f64, lower_is_better: bool) -> f64 {
        self.ranked(figure, lower_is_better, 0.0)
    }

    /// Verdicts per second over the whole phase.
    pub fn run_throughput_rps(&self) -> f64 {
        self.served as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// SLO attainment over the whole phase: a rejected or failed request
    /// misses every limit.
    pub fn run_slo_attainment(&self) -> f64 {
        ratio(self.slo_met, self.sent)
    }

    pub fn shed_ratio(&self) -> f64 {
        ratio(self.queue_full, self.sent)
    }

    pub fn error_ratio(&self) -> f64 {
        ratio(self.errors, self.sent)
    }

    /// Requests sent that got a verdict: `1 - shed_ratio - error_ratio`.
    pub fn served_ratio(&self) -> f64 {
        ratio(self.served, self.sent)
    }

    pub fn detection_rate(&self) -> f64 {
        ratio(self.adversarial_flagged, self.adversarial_served)
    }

    pub fn false_positive_rate(&self) -> f64 {
        ratio(self.benign_flagged, self.benign_served)
    }
}

fn met_slo(record: &Record, limit: Duration) -> bool {
    matches!(record.outcome, Outcome::Served(_))
        && u128::from(record.latency_ns()) <= limit.as_nanos()
}

fn served_latencies(records: &[Record]) -> Vec<u64> {
    let mut latencies: Vec<u64> = records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Served(_)))
        .map(Record::latency_ns)
        .collect();
    latencies.sort_unstable();
    latencies
}

fn send_lags(records: &[Record]) -> Vec<u64> {
    let mut lags: Vec<u64> = records
        .iter()
        .map(|r| r.sent_ns.saturating_sub(r.due_ns))
        .collect();
    lags.sort_unstable();
    lags
}

fn slice_of(records: &[Record], limit: Duration) -> Slice {
    let latencies = served_latencies(records);
    let quantile = |q| percentile(&latencies, q).map_or(0.0, ms);
    let first_due = records.iter().map(|r| r.due_ns).min().unwrap_or(0);
    let last_done = records.iter().map(|r| r.done_ns).max().unwrap_or(0);
    let span_s = (last_done.saturating_sub(first_due) as f64 / 1e9).max(1e-9);
    Slice {
        p50_ms: quantile(0.5),
        p95_ms: quantile(0.95),
        p99_ms: quantile(0.99),
        slo_attainment: ratio(
            records.iter().filter(|r| met_slo(r, limit)).count(),
            records.len(),
        ),
        throughput_rps: latencies.len() as f64 / span_s,
        send_lag_p99_ms: percentile(&send_lags(records), 0.99).map_or(0.0, ms),
    }
}

/// Summarises `records` (in send order) against the latency `limit`.
/// `adversarial(i)` says whether request `i` was drawn from the FGSM pool.
pub fn summarize(
    records: &[Record],
    limit: Duration,
    adversarial: &dyn Fn(usize) -> bool,
) -> Summary {
    let slice_len = records.len().div_ceil(SLICES).max(1);
    let latencies = served_latencies(records);
    let lags = send_lags(records);
    let mut summary = Summary {
        sent: records.len(),
        served: latencies.len(),
        queue_full: 0,
        errors: 0,
        slo_met: records.iter().filter(|r| met_slo(r, limit)).count(),
        wall: Duration::from_nanos(records.iter().map(|r| r.done_ns).max().unwrap_or(0)),
        slices: records
            .chunks(slice_len)
            .map(|c| slice_of(c, limit))
            .collect(),
        run_p50_ms: percentile(&latencies, 0.5).map_or(0.0, ms),
        run_p95_ms: percentile(&latencies, 0.95).map_or(0.0, ms),
        latency_mean_ms: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().map(|&l| l as f64).sum::<f64>() / latencies.len() as f64 / 1e6
        },
        send_lag_p99_ms: percentile(&lags, 0.99).map_or(0.0, ms),
        send_lag_max_ms: lags.last().copied().map_or(0.0, ms),
        adversarial_served: 0,
        adversarial_flagged: 0,
        benign_served: 0,
        benign_flagged: 0,
    };
    for record in records {
        match record.outcome {
            Outcome::Served(served) => {
                let flagged = served.detection.is_adversary;
                if adversarial(record.index) {
                    summary.adversarial_served += 1;
                    summary.adversarial_flagged += usize::from(flagged);
                } else {
                    summary.benign_served += 1;
                    summary.benign_flagged += usize::from(flagged);
                }
            }
            Outcome::QueueFull => summary.queue_full += 1,
            Outcome::Error => summary.errors += 1,
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_core::Detection;
    use ptolemy_serve::{Served, Tier};

    fn served(flagged: bool) -> Outcome {
        Outcome::Served(Served {
            detection: Detection {
                is_adversary: flagged,
                score: if flagged { 1.0 } else { 0.0 },
                similarity: 0.5,
                predicted_class: 0,
            },
            tier: Tier::Screen,
            cache_hit: false,
            degraded: false,
        })
    }

    fn record(index: usize, due_ms: u64, sent_ms: u64, done_ms: u64, outcome: Outcome) -> Record {
        Record {
            index,
            due_ns: due_ms * 1_000_000,
            sent_ns: sent_ms * 1_000_000,
            done_ns: done_ms * 1_000_000,
            outcome,
        }
    }

    /// 5000 served requests due 10 ms apart; request `i` takes `latency(i)` ms.
    fn phase(latency: fn(u64) -> u64) -> Summary {
        let records: Vec<Record> = (0..5000u64)
            .map(|i| {
                record(
                    i as usize,
                    10 * i,
                    10 * i,
                    10 * i + latency(i),
                    served(false),
                )
            })
            .collect();
        summarize(&records, Duration::from_millis(5), &|_| false)
    }

    fn p50(s: &Slice) -> f64 {
        s.p50_ms
    }

    fn p95(s: &Slice) -> f64 {
        s.p95_ms
    }

    fn slo(s: &Slice) -> f64 {
        s.slo_attainment
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50));
        assert_eq!(percentile(&sorted, 0.99), Some(99));
        assert_eq!(percentile(&sorted, 1.0), Some(100));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_scheduled_behind_it() {
        // Ten requests due 1 ms apart; the server stalls and resolves all of
        // them at 20 ms.  Each is charged from its own due time, so the later
        // requests are charged less, and none from its (late) actual send.
        let records: Vec<Record> = (0..10u64)
            .map(|i| record(i as usize, i, 15, 20, served(false)))
            .collect();
        let summary = summarize(&records, Duration::from_millis(12), &|_| false);
        assert_eq!(summary.served, 10);
        // Latencies are 20, 19, ..., 11 ms.
        assert_eq!(summary.run_p50_ms, 15.0);
        assert_eq!(summary.run_p95_ms, 20.0);
        // Only the requests due at 8 and 9 ms finish within 12 ms of due.
        assert_eq!(summary.slo_met, 2);
        assert_eq!(summary.run_slo_attainment(), 0.2);
        // The sender itself was late by up to 15 ms, and by 6 ms at best.
        assert_eq!(summary.send_lag_max_ms, 15.0);
        assert_eq!(summary.best(|s| s.send_lag_p99_ms, true), 6.0);
        assert_eq!(summary.run_throughput_rps(), 10.0 / 0.020);
        // Ten one-request slices: the third best is charged 13 ms, the best
        // (the last one sent) 11 ms.
        assert_eq!(summary.slices.len(), 10);
        assert_eq!(summary.reported(p50, true), 13.0);
        assert_eq!(summary.best(p50, true), 11.0);
        assert_eq!(summary.reported(slo, false), 0.0);
        assert_eq!(summary.best(slo, false), 1.0);
    }

    #[test]
    fn a_host_stall_over_most_of_the_phase_leaves_the_reported_figures() {
        // The first 3500 requests, seven tenths of the phase, take 100 ms.
        let summary = phase(|i| if i < 3500 { 100 } else { 1 });
        assert_eq!(summary.run_p95_ms, 100.0);
        assert_eq!(summary.run_slo_attainment(), 0.3);
        assert_eq!(summary.reported(p50, true), 1.0);
        assert_eq!(summary.reported(p95, true), 1.0);
        assert_eq!(summary.reported(slo, false), 1.0);
        // An undisturbed slice's verdicts arrive 10 ms apart and take 1 ms.
        let per_slice = 5000 / SLICES;
        let span_s = ((per_slice - 1) * 10 + 1) as f64 / 1e3;
        assert_eq!(
            summary.reported(|s| s.throughput_rps, false),
            per_slice as f64 / span_s
        );
    }

    #[test]
    fn a_recurring_or_growing_slowdown_moves_the_reported_figures() {
        // Every tenth request stalls for 100 ms: every slice's tail shows it.
        let periodic = phase(|i| if i % 10 == 0 { 100 } else { 1 });
        assert_eq!(periodic.reported(p50, true), 1.0);
        assert_eq!(periodic.reported(p95, true), 100.0);
        assert_eq!(periodic.reported(slo, false), 0.9);
        // Requests slow from 1 to 3 ms after the first fifth of the phase, as
        // a cache or heap grows.  Only the best slice hides it.
        let growing = phase(|i| if i < 1000 { 1 } else { 3 });
        assert_eq!(growing.reported(p50, true), 3.0);
        assert_eq!(growing.best(p50, true), 1.0);
    }

    #[test]
    fn rejected_and_failed_requests_miss_every_limit() {
        let records = vec![
            record(0, 0, 0, 1, served(true)),
            record(1, 0, 0, 0, Outcome::QueueFull),
            record(2, 0, 0, 2, Outcome::Error),
            record(3, 0, 0, 9, served(false)),
        ];
        let summary = summarize(&records, Duration::from_millis(4), &|i| i == 0);
        assert_eq!(summary.sent, 4);
        assert_eq!(
            summary.served + summary.queue_full + summary.errors,
            summary.sent
        );
        // Request 3 is served but past the 4 ms limit; only request 0 counts.
        assert_eq!(summary.slo_met, 1);
        assert_eq!(summary.run_slo_attainment(), 0.25);
        assert_eq!(summary.shed_ratio(), 0.25);
        assert_eq!(summary.error_ratio(), 0.25);
        assert_eq!(summary.served_ratio(), 0.5);
        assert_eq!(summary.detection_rate(), 1.0);
        assert_eq!(summary.false_positive_rate(), 0.0);
    }
}
