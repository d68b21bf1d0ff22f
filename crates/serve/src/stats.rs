//! Serving counters and their user-facing snapshot.
//!
//! Queue-to-result latency percentiles are computed from a
//! [`ptolemy_obs::Histogram`] covering **every completed request since
//! startup** — the historical fixed-size recency ring silently forgot history
//! and conflated warm-up with steady state.  The histogram is log-bucketed
//! (bounded memory, ~12.5% relative resolution) and its percentiles are
//! clamped to the exact recorded `[min, max]`, so reported values are
//! monotone in the quantile and can never leave the observed range.

use ptolemy_obs::Histogram;

/// A point-in-time snapshot of the server's counters, taken with
/// [`crate::Server::stats`].
///
/// Every completed request is counted in exactly one of
/// [`ServeStats::screen_served`], [`ServeStats::escalated`] or
/// [`ServeStats::cache_hits`]; the first two count freshly-scored requests per
/// tier, the third counts requests resolved from the path-prefix cache without
/// re-scoring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests accepted into the submission queue.
    pub submitted: u64,
    /// Requests resolved with a verdict.
    pub completed: u64,
    /// Requests resolved with an engine error.
    pub failed: u64,
    /// Times a worker's screening or escalation pass panicked mid-batch.  The
    /// affected requests resolve as [`crate::ServeError::Canceled`] (counted
    /// under [`ServeStats::failed`]) and the worker keeps draining the queue —
    /// this counter is how operators notice the degradation.
    pub worker_panics: u64,
    /// Requests answered by the tier-1 screening engine alone.
    pub screen_served: u64,
    /// Requests whose tier-1 screening pass ran the **int8 quantized** path
    /// ([`crate::ServerBuilder::quantized_screen`]), whether they were then
    /// screen-served or escalated.  0 in f32 screening mode; equal to the
    /// number of freshly-screened requests (cache hits skip screening) when
    /// the quantized screen is on.
    pub int8_screens: u64,
    /// Requests whose screening score fell in the uncertainty band and were
    /// re-scored by a tier-2 escalation engine (summed over all shards).
    pub escalated: u64,
    /// Requests rejected at submission by admission control
    /// ([`crate::AdmissionPolicy`]): the deadline was predicted unmeetable at
    /// the current queue depth.  Shed submissions never enter the queue and
    /// are **not** counted in [`ServeStats::submitted`].
    pub shed_admission: u64,
    /// Requests dropped at batch formation because their deadline expired
    /// while they waited in the queue.  These entered the queue (counted in
    /// [`ServeStats::submitted`]) and resolve as
    /// [`crate::ServeError::Shed`], counted under [`ServeStats::failed`].
    pub shed_expired: u64,
    /// Requests whose completion latency exceeded their deadline (only
    /// requests submitted with a deadline can miss; sheds are not misses —
    /// they never completed).
    pub deadline_misses: u64,
    /// In-band requests answered by the tier-1 screening verdict because the
    /// server was in degraded mode ([`crate::DegradePolicy`]); a subset of
    /// [`ServeStats::screen_served`], flagged per-request via
    /// [`crate::Served::degraded`].
    pub degraded_served: u64,
    /// Times the server entered degraded (screen-tier-only) mode.
    pub degrade_entered: u64,
    /// Times the server recovered from degraded mode (the queue drained to
    /// the low watermark).  At most [`ServeStats::degrade_entered`]; equal to
    /// it once the server has fully recovered.
    pub degrade_exited: u64,
    /// Escalated requests routed to each tier-2 shard, indexed like the
    /// engine list passed to [`crate::ServerBuilder::escalate_sharded`]
    /// (length 1 for a single [`crate::ServerBuilder::escalate`] engine, empty
    /// without tiered routing).  Sums to [`ServeStats::escalated`].
    pub shard_escalations: Vec<u64>,
    /// Batches whose tier-2 escalation sliver was handed to the worker's
    /// escalation thread, so tier-2 extraction of batch *k* ran concurrently with
    /// tier-1 screening of batch *k+1*.  Only batches with at least one
    /// escalated request count here or in [`ServeStats::serial_batches`].
    pub pipelined_batches: u64,
    /// Batches whose tier-2 sliver ran inline on the worker — pipelining
    /// disabled ([`crate::ServerBuilder::pipeline_escalation`]), or the
    /// escalation thread was still busy with the previous batch (the handoff
    /// is a bounded channel, so tier-2 work can never pile up unboundedly).
    pub serial_batches: u64,
    /// Requests resolved from the path-prefix result cache.
    pub cache_hits: u64,
    /// Cache lookups that missed (always 0 with the cache disabled).
    pub cache_misses: u64,
    /// Entries restored from the persisted cache file at startup
    /// ([`crate::CacheConfig::persist_path`]); 0 when persistence is off or no
    /// usable file existed.
    pub cache_entries_loaded: u64,
    /// 1 if a persisted cache file existed at startup but was ignored —
    /// corrupt, unreadable, or written under a different engine fingerprint or
    /// prefix depth (see [`crate::CacheConfig`]); 0 otherwise.
    pub cache_load_rejected: u64,
    /// Entries written to the persisted cache file at shutdown; 0 when
    /// persistence is off or the write failed.
    pub cache_entries_persisted: u64,
    /// Batches the workers cut.
    pub batches: u64,
    /// Largest batch cut so far.
    pub max_batch: usize,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// Median queue-to-result latency over all completed requests, in
    /// milliseconds (0.0 before the first completion).  Histogram-derived:
    /// ~12.5% bucket resolution with within-bucket rank interpolation,
    /// clamped to the recorded `[min, max]`.
    pub p50_latency_ms: f64,
    /// 90th-percentile queue-to-result latency, in milliseconds (0.0 before
    /// the first completion).  Same derivation as
    /// [`ServeStats::p50_latency_ms`].
    pub p90_latency_ms: f64,
    /// 99th-percentile queue-to-result latency over all completed requests,
    /// in milliseconds (0.0 before the first completion).  Same derivation as
    /// [`ServeStats::p50_latency_ms`].
    pub p99_latency_ms: f64,
}

impl ServeStats {
    /// Fraction of cache lookups that hit (0.0 when the cache is disabled or
    /// nothing was looked up yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// The mutable counters behind [`ServeStats`], guarded by the server's stats
/// mutex.  `Clone` exists so snapshots can copy the counters out under the
/// lock and derive percentiles *outside* it — workers take this lock on
/// every request.  (The histogram walk is O(buckets), far cheaper than the
/// historical ring sort, but the discipline of doing no derived work under
/// the lock stays.)
#[derive(Debug, Default, Clone)]
pub(crate) struct StatsInner {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub worker_panics: u64,
    pub screen_served: u64,
    pub int8_screens: u64,
    pub escalated: u64,
    pub shed_admission: u64,
    pub shed_expired: u64,
    pub deadline_misses: u64,
    pub degraded_served: u64,
    pub degrade_entered: u64,
    pub degrade_exited: u64,
    pub shard_escalations: Vec<u64>,
    pub pipelined_batches: u64,
    pub serial_batches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_entries_loaded: u64,
    pub cache_load_rejected: u64,
    pub cache_entries_persisted: u64,
    pub batches: u64,
    pub max_batch: usize,
    pub batched_requests: u64,
    latency_ns: Histogram,
}

impl StatsInner {
    /// Fresh counters for a server with `num_shards` tier-2 engines.
    pub fn new(num_shards: usize) -> Self {
        StatsInner {
            shard_escalations: vec![0; num_shards],
            ..StatsInner::default()
        }
    }

    /// Records one queue-to-result latency into the all-time histogram
    /// (bounded memory however many requests complete).
    pub fn record_latency(&mut self, ns: u64) {
        self.latency_ns.record(ns);
    }

    /// A copy of the latency histogram, for export alongside the snapshot.
    pub fn latency_histogram(&self) -> Histogram {
        self.latency_ns.clone()
    }

    pub fn snapshot(&self) -> ServeStats {
        let percentile = |q: f64| -> f64 {
            self.latency_ns
                .percentile(q)
                .map_or(0.0, |ns| ns as f64 / 1e6)
        };
        ServeStats {
            submitted: self.submitted,
            completed: self.completed,
            failed: self.failed,
            worker_panics: self.worker_panics,
            screen_served: self.screen_served,
            int8_screens: self.int8_screens,
            escalated: self.escalated,
            shed_admission: self.shed_admission,
            shed_expired: self.shed_expired,
            deadline_misses: self.deadline_misses,
            degraded_served: self.degraded_served,
            degrade_entered: self.degrade_entered,
            degrade_exited: self.degrade_exited,
            shard_escalations: self.shard_escalations.clone(),
            pipelined_batches: self.pipelined_batches,
            serial_batches: self.serial_batches,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_entries_loaded: self.cache_entries_loaded,
            cache_load_rejected: self.cache_load_rejected,
            cache_entries_persisted: self.cache_entries_persisted,
            batches: self.batches,
            max_batch: self.max_batch,
            mean_batch: if self.batches == 0 {
                0.0
            } else {
                self.batched_requests as f64 / self.batches as f64
            },
            p50_latency_ms: percentile(0.50),
            p90_latency_ms: percentile(0.90),
            p99_latency_ms: percentile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_percentiles_are_monotone_and_bounded_by_recorded_extremes() {
        let mut inner = StatsInner::default();
        assert_eq!(inner.snapshot().p50_latency_ms, 0.0);
        assert_eq!(inner.snapshot().p99_latency_ms, 0.0);
        for i in 1..=100u64 {
            inner.record_latency(i * 1_000_000); // 1..=100 ms
        }
        inner.batches = 4;
        inner.batched_requests = 10;
        inner.max_batch = 5;
        let stats = inner.snapshot();
        // Histogram-derived percentiles: monotone and inside [min, max].
        assert!(stats.p50_latency_ms <= stats.p99_latency_ms);
        for p in [stats.p50_latency_ms, stats.p99_latency_ms] {
            assert!((1.0..=100.0).contains(&p), "{p} outside recorded range");
        }
        // And still resolve the distribution: the median of 1..=100 ms sits
        // near 50 ms (log-bucket resolution is ~12.5%).
        assert!((stats.p50_latency_ms - 50.0).abs() <= 50.0 * 0.15);
        assert!(stats.p99_latency_ms >= 85.0);
        assert_eq!(stats.mean_batch, 2.5);
        assert_eq!(stats.max_batch, 5);
    }

    #[test]
    fn percentiles_are_pinned_on_a_known_latency_sequence() {
        // The estimator contract on a fully-known sequence: record
        // 1..=1000 ms of uniformly-spread latencies, whose true p50/p90/p99
        // are 500/900/990 ms.  Within-bucket rank interpolation must land
        // each within one ≈12.5% log bucket of the truth (the old midpoint
        // estimator only guaranteed the bucket's centre), stay mutually
        // monotone, and stay inside the exact recorded extremes.
        let mut inner = StatsInner::default();
        for i in 1..=1_000u64 {
            inner.record_latency(i * 1_000_000);
        }
        let stats = inner.snapshot();
        assert!(
            (stats.p50_latency_ms - 500.0).abs() <= 500.0 * 0.125,
            "p50 drifted: {}",
            stats.p50_latency_ms
        );
        assert!(
            (stats.p90_latency_ms - 900.0).abs() <= 900.0 * 0.125,
            "p90 drifted: {}",
            stats.p90_latency_ms
        );
        assert!(
            (stats.p99_latency_ms - 990.0).abs() <= 990.0 * 0.125,
            "p99 drifted: {}",
            stats.p99_latency_ms
        );
        assert!(stats.p50_latency_ms <= stats.p90_latency_ms);
        assert!(stats.p90_latency_ms <= stats.p99_latency_ms);
        assert!((1.0..=1_000.0).contains(&stats.p99_latency_ms));
        // Evenly-spread bucket occupants interpolate to within 1% of the
        // truth — an order of magnitude tighter than the bucket resolution.
        assert!((stats.p50_latency_ms - 500.0).abs() <= 5.0);
        assert!((stats.p90_latency_ms - 900.0).abs() <= 9.0);
        assert!((stats.p99_latency_ms - 990.0).abs() <= 9.9);
    }

    #[test]
    fn percentiles_cover_full_history_not_a_recency_window() {
        // The historical 4096-entry ring forgot the first regime entirely:
        // after 4096 slow completions the fast warm-up vanished and p50
        // jumped to the slow regime.  The histogram keeps both.
        let mut inner = StatsInner::default();
        for _ in 0..4096 {
            inner.record_latency(1_000_000); // 1 ms regime
        }
        for _ in 0..4096 {
            inner.record_latency(9_000_000); // 9 ms regime
        }
        let stats = inner.snapshot();
        // Half the history is 1 ms, so the median stays in the fast regime
        // (the old ring reported 9.0 here) while the tail sees the slow one.
        assert!(stats.p50_latency_ms <= 1.2, "{}", stats.p50_latency_ms);
        assert!(stats.p99_latency_ms >= 8.0, "{}", stats.p99_latency_ms);
        assert!(stats.p99_latency_ms <= 9.0, "{}", stats.p99_latency_ms);
    }

    #[test]
    fn latency_histogram_is_exported_with_exact_extremes() {
        let mut inner = StatsInner::default();
        inner.record_latency(250);
        inner.record_latency(750);
        let hist = inner.latency_histogram();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.min(), Some(250));
        assert_eq!(hist.max(), Some(750));
    }

    #[test]
    fn cache_hit_rate_handles_empty_and_mixed() {
        let stats = ServeStats::default();
        assert_eq!(stats.cache_hit_rate(), 0.0);
        let stats = ServeStats {
            cache_hits: 3,
            cache_misses: 1,
            ..ServeStats::default()
        };
        assert!((stats.cache_hit_rate() - 0.75).abs() < 1e-12);
    }
}
