//! The multi-worker serving runtime: bounded submission queue, adaptive batch
//! former, two-tier router (optionally sharded across escalation engines, with
//! tier-2 work pipelined against the next batch's screening) and the
//! persistent path-prefix result cache.

use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::TrySendError;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ptolemy_core::{Detection, DetectionEngine};
use ptolemy_nn::QuantizedNetwork;
use ptolemy_obs::json::JsonValue;
use ptolemy_obs::{Clock, HistogramHandle, Registry, Stage, Timeline};
use ptolemy_tensor::Tensor;

use crate::admission::{AdmissionPolicy, DegradePolicy};
use crate::batch::{adaptive_cap_tiered, BatchPolicy};
use crate::cache::{self, CacheConfig, CacheLoad, CachedVerdict, LruCache};
use crate::error::{Result, ServeError, ShedReason};
use crate::stats::{ServeStats, StatsInner};
use crate::sync::{self, lock};

/// Which engine produced a served verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The tier-1 screening engine answered directly.
    Screen,
    /// The screening score fell in the uncertainty band and the tier-2
    /// escalation engine re-scored the input.
    Escalated,
}

/// A resolved serving request: the verdict plus its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    /// The detection verdict.
    pub detection: Detection,
    /// The tier whose engine produced the verdict (for a cache hit: the tier
    /// that produced the cached verdict).
    pub tier: Tier,
    /// `true` if the verdict was resolved from the path-prefix cache instead of
    /// being re-scored.
    pub cache_hit: bool,
    /// `true` if this in-band request would have escalated to tier 2 but was
    /// answered by the screening verdict because the server was in degraded
    /// (screen-tier-only) overload mode ([`crate::DegradePolicy`]).  Always
    /// `false` without a degradation policy, for confident screen verdicts,
    /// for escalated verdicts, and for cache hits.
    pub degraded: bool,
}

#[derive(Debug)]
struct TicketSlot {
    result: Mutex<Option<Result<Served>>>,
    ready: Condvar,
}

/// A handle to one submitted request; resolves to a [`Served`] verdict.
///
/// Tickets resolve in whatever order batches complete, but each ticket always
/// resolves to the result of *its own* input — a submitter that waits on its
/// tickets in submission order observes its results in submission order.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<TicketSlot>,
}

impl Ticket {
    /// Blocks until the server resolves this request.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Engine`] if the detection engine failed on this
    /// input.
    pub fn wait(self) -> Result<Served> {
        let mut guard = lock(&self.slot.result);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = sync::wait(&self.slot.ready, guard);
        }
    }

    /// `true` once the server has resolved this request ([`Ticket::wait`] will
    /// not block).
    pub fn is_ready(&self) -> bool {
        lock(&self.slot.result).is_some()
    }
}

struct Request {
    input: Tensor,
    slot: Arc<TicketSlot>,
    /// Enqueue time on the server's clock ([`Shared::now_ns`]).
    submitted_ns: u64,
    /// Absolute completion deadline on the server's clock
    /// ([`Server::submit_with_deadline`]); `None` for deadline-less
    /// submissions, which sort after every deadline-carrying request.
    deadline_ns: Option<u64>,
}

impl Request {
    /// The EDF ordering key: the absolute deadline, with deadline-less
    /// requests at `u64::MAX` (after everything that can miss).
    fn edf_key(&self) -> u64 {
        self.deadline_ns.unwrap_or(u64::MAX)
    }
}

struct QueueState {
    queue: VecDeque<Request>,
    /// Submitters currently blocked in [`Server::submit`] on a full queue;
    /// the batch former cuts a stalled batch immediately instead of waiting
    /// out the latency budget while the queue provably cannot grow.
    blocked_submitters: usize,
    shutdown: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a round behind the fingerprint seed and the path-prefix cache
/// keys.  Those keys are persisted, so they must be the same in every
/// process; the exact-input fast path uses a per-server SipHash key instead
/// ([`Shared::input_key`]).
fn fnv1a_u64(seed: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = seed;
    for value in values {
        hash ^= value;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// How many of the most recent per-batch [`Timeline`]s the server retains for
/// [`Server::metrics_json`].  A bounded ring: old batches age out, memory
/// stays O(1) however long the server runs.
const TIMELINE_RING: usize = 32;

/// The serving runtime's attachment to a [`ptolemy_obs::Registry`]: stage
/// histograms resolved once at startup (the hot path never touches the
/// registry's name maps) plus a bounded ring of recent per-batch timelines.
///
/// Counters that already exist in [`StatsInner`] are *not* duplicated here —
/// the snapshot renders them straight from the stats plane.
struct ServeObs {
    registry: Arc<Registry>,
    queue_wait_ns: HistogramHandle,
    batch_form_ns: HistogramHandle,
    cache_lookup_ns: HistogramHandle,
    screen_ns: HistogramHandle,
    /// One histogram per escalation shard, indexed like `Shared::escalate`.
    escalate_ns: Vec<HistogramHandle>,
    /// Occupancy of the cross-batch overlap thread: how long each pipelined
    /// tier-2 sliver kept it busy.
    overlap_ns: HistogramHandle,
    timelines: Mutex<VecDeque<Timeline>>,
}

impl ServeObs {
    /// `int8_screen` selects the screening histogram name (and matches the
    /// [`Stage::ScreenInt8`] timeline events the workers will record), so a
    /// registry snapshot unambiguously says which inference path the screen
    /// tier ran.
    fn attach(registry: Arc<Registry>, shards: usize, int8_screen: bool) -> ServeObs {
        let screen_hist = if int8_screen {
            "serve.screen_int8_ns"
        } else {
            "serve.screen_ns"
        };
        ServeObs {
            queue_wait_ns: registry.histogram("serve.queue_wait_ns"),
            batch_form_ns: registry.histogram("serve.batch_form_ns"),
            cache_lookup_ns: registry.histogram("serve.cache_lookup_ns"),
            screen_ns: registry.histogram(screen_hist),
            escalate_ns: (0..shards)
                .map(|shard| {
                    registry.histogram(&format!(
                        "serve.{}_ns",
                        Stage::Escalate(shard as u32).label()
                    ))
                })
                .collect(),
            overlap_ns: registry.histogram("serve.overlap_ns"),
            timelines: Mutex::new(VecDeque::with_capacity(TIMELINE_RING)),
            registry,
        }
    }

    /// Pushes a finished per-batch timeline into the bounded ring.
    fn retain_timeline(&self, timeline: Timeline) {
        let mut ring = lock(&self.timelines);
        if ring.len() == TIMELINE_RING {
            ring.pop_front();
        }
        ring.push_back(timeline);
    }
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals workers that requests arrived (or shutdown began).
    not_empty: Condvar,
    /// Signals blocked submitters that queue space freed up.
    not_full: Condvar,
    /// Wakes the metrics monitor thread early on shutdown.  Dedicated: the
    /// monitor must never steal an enqueue's `not_empty.notify_one` from a
    /// worker.
    monitor_wake: Condvar,
    screen: Arc<DetectionEngine>,
    /// The int8 quantized screening network
    /// ([`ServerBuilder::quantized_screen`]): when set, tier-1 screening runs
    /// the blocked-i8-GEMM quantized inference path instead of f32.
    /// Escalation always re-scores in f32 — the quantized tier is the cheap
    /// first look, never the final word on an uncertain input.
    quantized: Option<Arc<QuantizedNetwork>>,
    /// Tier-2 escalation engines: empty without tiered routing, one entry for
    /// a single escalation engine, several for sharded escalation.
    escalate: Vec<Arc<DetectionEngine>>,
    /// `owner_of[class]` is the index (into `escalate`) of the shard owning
    /// that class's canary path; empty iff `escalate` is empty.
    owner_of: Vec<usize>,
    /// Screening scores in `[band.0, band.1]` escalate to tier 2.
    band: (f32, f32),
    /// Hand tier-2 slivers to the per-worker overlap thread instead of running
    /// them inline.
    pipeline: bool,
    policy: BatchPolicy,
    queue_capacity: usize,
    /// Worker-thread count, cached for the admission wait estimate.
    workers: usize,
    /// Deadline admission control ([`ServerBuilder::admission`]); `None`
    /// admits everything.
    admission: Option<AdmissionPolicy>,
    /// Mixed-criticality degradation ([`ServerBuilder::degradation`]);
    /// `None` never degrades.
    degrade: Option<DegradePolicy>,
    /// Queue depth at/above which the server enters degraded mode
    /// (`usize::MAX` without a degradation policy).
    degrade_enter_at: usize,
    /// Queue depth at/below which a degraded server recovers.
    degrade_exit_at: usize,
    /// Whether the server is currently in degraded (screen-tier-only) mode.
    /// Transitions happen under the state lock (`update_degrade`), so the
    /// entered/exited counters pair exactly.
    degraded: AtomicBool,
    /// EMA of per-request service time (screen and escalation passes), the
    /// denominator of the admission wait estimate.  0 = unseeded: admission
    /// is inert until the first timed batch (and stays inert under manual
    /// clocks, keeping deterministic tests deterministic).
    service_ema_ns: AtomicU64,
    cache: Option<Mutex<LruCache<CachedVerdict>>>,
    /// Exact-duplicate fast path: maps an input fingerprint to the path-prefix
    /// key its screening extraction produced, so a byte-identical repeat skips
    /// even the screen extraction.  Near-duplicates (different bytes, same
    /// early-layer path) still match through the path-prefix key itself.
    input_keys: Option<Mutex<LruCache<u64>>>,
    /// Hash seed derived from [`Shared::cache_fingerprint`], so cache keys
    /// from engines with different build-time fingerprints never collide.
    cache_seed: u64,
    /// Random per-server SipHash keys for [`Shared::input_key`].  A hit on the
    /// exact-input fast path serves the cached verdict with no byte check, so
    /// the key must be one nobody outside this server can compute: with a
    /// public seed, anyone who knows the program could craft an input that
    /// collides with a cached benign one and skip inference.
    input_hasher: RandomState,
    /// The fingerprint the result cache is keyed and persisted under: the
    /// screen engine's build-time fingerprint, suffixed with `+int8` when the
    /// quantized screen is on.  Int8 and f32 screening extract different
    /// paths from the same input, so their verdicts must never alias — in
    /// memory (the seed) or on disk (persisted caches only reload under the
    /// identical mode).
    cache_fingerprint: String,
    prefix_segments: usize,
    /// Where to persist the result cache on shutdown, if configured.
    persist_path: Option<PathBuf>,
    stats: Mutex<StatsInner>,
    /// The registry attachment ([`ServerBuilder::instrument`]); `None` leaves
    /// the serving path entirely uninstrumented.
    obs: Option<ServeObs>,
    /// Clock for queue-wait/latency bookkeeping when no registry is attached
    /// (with one attached, its clock is used so manual-clock tests stay
    /// deterministic end to end).
    fallback_clock: Clock,
    /// Latency budget in nanoseconds (cached off `policy.latency_budget`).
    latency_budget_ns: u64,
    /// Where the periodic snapshot thread writes metrics JSON, if configured.
    snapshot_path: Option<PathBuf>,
    /// Running mean activation-path density (f32 bits), fed back into the
    /// adaptive batch cap.
    density_ema_bits: AtomicU32,
    /// `(density the cap was computed at (bits), cap)` — recomputed when the
    /// observed density drifts.
    cap_cache: Mutex<Option<(f32, usize)>>,
    /// Test-only fault injection: makes the next screening pass panic once
    /// (the flag self-clears), exercising the poison-recovery path end-to-end.
    #[cfg(test)]
    fail_next_screen: std::sync::atomic::AtomicBool,
    /// Test-only fault injection: makes the next escalation pass panic once.
    #[cfg(test)]
    fail_next_escalation: std::sync::atomic::AtomicBool,
}

impl Shared {
    /// The server's clock reading: the attached registry's clock when
    /// instrumented (so a [`Clock::manual`] registry makes every serve timing
    /// deterministic), the private monotonic clock otherwise.
    fn now_ns(&self) -> u64 {
        match &self.obs {
            Some(obs) => obs.registry.clock().now_ns(),
            None => self.fallback_clock.now_ns(),
        }
    }

    /// The stage-timing attachment, `None` when absent **or gated off** — the
    /// disabled path costs one relaxed atomic load.
    fn stage_obs(&self) -> Option<&ServeObs> {
        self.obs.as_ref().filter(|obs| obs.registry.enabled())
    }

    fn density_ema(&self) -> f32 {
        f32::from_bits(self.density_ema_bits.load(Ordering::Relaxed))
    }

    fn observe_density(&self, density: f32) {
        let current = self.density_ema();
        // The unseeded sentinel is exactly +0.0 (the atomic starts at bit
        // pattern 0), so compare bit patterns rather than float values.
        let next = if current.to_bits() == 0 {
            density
        } else {
            0.9 * current + 0.1 * density
        };
        self.density_ema_bits
            .store(next.to_bits(), Ordering::Relaxed);
    }

    /// The adaptive batch cap for the current density regime.  Recomputed
    /// (outside the queue lock — backend estimates can be expensive) only when
    /// the observed density drifts more than 25 % from the one the cached cap
    /// was computed at.  Shard-aware: the cap is the minimum over the screen
    /// *and* every escalation shard, so a batch that escalates wholesale still
    /// fits the latency target (see [`adaptive_cap_tiered`]).
    fn current_cap(&self) -> usize {
        let density = self.density_ema();
        {
            let cached = lock(&self.cap_cache);
            if let Some((at, cap)) = *cached {
                if (density - at).abs() <= 0.25 * at.max(1e-3) {
                    return cap;
                }
            }
        }
        let cap = adaptive_cap_tiered(&self.screen, &self.escalate, &self.policy, density);
        *lock(&self.cap_cache) = Some((density, cap));
        cap
    }

    fn cache_key(&self, path: &ptolemy_core::ActivationPath) -> u64 {
        // One extra FNV round folds the engine-fingerprint seed into the
        // path-prefix fingerprint.
        fnv1a_u64(
            self.cache_seed,
            [path.prefix_fingerprint(self.prefix_segments)],
        )
    }

    /// The exact-input fast-path key: keyed SipHash over the input's shape
    /// and bytes.  Input keys live only in this server's memory, so unlike
    /// the persisted path-prefix keys they need not be reproducible.
    fn input_key(&self, input: &Tensor) -> u64 {
        let mut hasher = self.input_hasher.build_hasher();
        hasher.write_usize(input.dims().len());
        for dim in input.dims() {
            hasher.write_usize(*dim);
        }
        for value in input.as_slice() {
            hasher.write_u32(value.to_bits());
        }
        hasher.finish()
    }
}

/// The serving runtime: N worker threads draining a bounded submission queue
/// through one or two [`DetectionEngine`]s.
///
/// Built with [`Server::builder`].  Dropping the server (or calling
/// [`Server::shutdown`]) stops accepting work, drains every queued request and
/// joins the workers — no ticket is left unresolved.
///
/// # Example
///
/// See the crate-level docs ([`crate`]) and `examples/serving.rs`.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The periodic metrics-snapshot thread ([`ServerBuilder::snapshot_to`]).
    monitor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("screen", &self.shared.screen.fingerprint())
            .field(
                "escalate",
                &self
                    .shared
                    .escalate
                    .iter()
                    .map(|shard| shard.fingerprint())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Server {
    /// Starts building a server around a tier-1 screening engine.
    pub fn builder(screen: impl Into<Arc<DetectionEngine>>) -> ServerBuilder {
        ServerBuilder {
            screen: screen.into(),
            quantized: None,
            escalate: Vec::new(),
            band: (0.0, 0.0),
            workers: 2,
            queue_capacity: 256,
            policy: BatchPolicy::default(),
            admission: None,
            degrade: None,
            cache: None,
            pipeline: true,
            tiering_requested: false,
            registry: None,
            snapshot: None,
        }
    }

    /// Submits one input, blocking while the submission queue is full
    /// (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn submit(&self, input: Tensor) -> Result<Ticket> {
        self.submit_opt(input, None)
    }

    /// Submits one input with a completion deadline, blocking while the
    /// submission queue is full.  The deadline is measured from this call, so
    /// time spent blocked on backpressure consumes budget.
    ///
    /// Deadline-carrying requests are queued in **earliest-deadline-first**
    /// order (ahead of deadline-less requests, FIFO among equal deadlines);
    /// a request whose deadline expires before a worker reaches it is
    /// dropped at batch formation and its ticket resolves as
    /// [`ServeError::Shed`].  Completions past the deadline still resolve
    /// normally but count in [`ServeStats::deadline_misses`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] once shutdown has begun, and
    /// [`ServeError::Shed`] when admission control
    /// ([`ServerBuilder::admission`]) predicts the deadline cannot be met at
    /// the current queue depth.
    pub fn submit_with_deadline(&self, input: Tensor, deadline: Duration) -> Result<Ticket> {
        self.submit_opt(input, Some(deadline))
    }

    /// Submits one input without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] if the queue is at capacity and
    /// [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn try_submit(&self, input: Tensor) -> Result<Ticket> {
        self.try_submit_opt(input, None)
    }

    /// Submits one input with a completion deadline, without blocking — the
    /// non-blocking sibling of [`Server::submit_with_deadline`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] if the queue is at capacity,
    /// [`ServeError::ShuttingDown`] once shutdown has begun, and
    /// [`ServeError::Shed`] when admission control predicts a miss.
    pub fn try_submit_with_deadline(&self, input: Tensor, deadline: Duration) -> Result<Ticket> {
        self.try_submit_opt(input, Some(deadline))
    }

    fn submit_opt(&self, input: Tensor, deadline: Option<Duration>) -> Result<Ticket> {
        let deadline_ns = self.absolute_deadline(deadline);
        let mut state = lock(&self.shared.state);
        loop {
            if state.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if state.queue.len() < self.shared.queue_capacity {
                break;
            }
            state.blocked_submitters += 1;
            // Wake a worker waiting out its latency budget: with a submitter
            // blocked, the current batch cannot grow any further.
            self.shared.not_empty.notify_one();
            let mut woken = sync::wait(&self.shared.not_full, state);
            woken.blocked_submitters -= 1;
            state = woken;
        }
        self.enqueue(&mut state, input, deadline_ns)
    }

    fn try_submit_opt(&self, input: Tensor, deadline: Option<Duration>) -> Result<Ticket> {
        let deadline_ns = self.absolute_deadline(deadline);
        let mut state = lock(&self.shared.state);
        if state.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.queue_capacity {
            return Err(ServeError::QueueFull);
        }
        self.enqueue(&mut state, input, deadline_ns)
    }

    /// Converts a relative deadline into an absolute reading on the server's
    /// clock, taken at submission-call time.
    fn absolute_deadline(&self, deadline: Option<Duration>) -> Option<u64> {
        deadline.map(|d| {
            let budget_ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            self.shared.now_ns().saturating_add(budget_ns)
        })
    }

    fn enqueue(
        &self,
        state: &mut QueueState,
        input: Tensor,
        deadline_ns: Option<u64>,
    ) -> Result<Ticket> {
        let now_ns = self.shared.now_ns();
        // Admission control: estimate this request's completion time from the
        // queue depth ahead of it and the per-request service EMA; shed it
        // now (no ticket, no queue slot) if the deadline is predicted
        // unmeetable.  Deadline-less submissions are never shed.
        if let (Some(policy), Some(deadline)) = (&self.shared.admission, deadline_ns) {
            let ema_ns = self.shared.service_ema_ns.load(Ordering::Relaxed);
            if ema_ns > 0 {
                let depth = state.queue.len() as u64 + 1;
                let rounds = depth.div_ceil(self.shared.workers.max(1) as u64);
                let estimate_ns = (ema_ns.saturating_mul(rounds) as f64 * policy.headroom) as u64;
                if now_ns.saturating_add(estimate_ns) > deadline {
                    lock(&self.shared.stats).shed_admission += 1;
                    return Err(ServeError::Shed(ShedReason::Admission));
                }
            }
        }
        let slot = Arc::new(TicketSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let request = Request {
            input,
            slot: slot.clone(),
            submitted_ns: now_ns,
            deadline_ns,
        };
        // EDF insertion: before every queued request with a strictly later
        // deadline.  `partition_point` keeps FIFO order among equal keys, so
        // deadline-less traffic (key u64::MAX throughout) preserves the exact
        // historical FIFO behavior.
        let key = request.edf_key();
        let at = state
            .queue
            .partition_point(|queued| queued.edf_key() <= key);
        state.queue.insert(at, request);
        lock(&self.shared.stats).submitted += 1;
        update_degrade(&self.shared, state.queue.len());
        self.shared.not_empty.notify_one();
        Ok(Ticket { slot })
    }

    /// Number of requests currently queued (not yet picked up by a worker).
    pub fn pending(&self) -> usize {
        lock(&self.shared.state).queue.len()
    }

    /// A point-in-time snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        // Copy the counters out under the lock; sort/percentile work happens
        // outside it so a polling monitor never stalls the workers.
        let copied = lock(&self.shared.stats).clone();
        copied.snapshot()
    }

    /// The full metrics plane as one JSON value: the [`ServeStats`] counters,
    /// the all-time latency histogram, the attached registry's snapshot (when
    /// [`ServerBuilder::instrument`] was used) and the most recent per-batch
    /// stage timelines.
    ///
    /// Latencies are exported in integer nanoseconds/microseconds — the
    /// workspace JSON dialect is integer-only, and nanoseconds are exact.
    pub fn metrics_json(&self) -> JsonValue {
        metrics_json_of(&self.shared)
    }

    /// The tier-1 screening engine.
    pub fn screen_engine(&self) -> &DetectionEngine {
        &self.shared.screen
    }

    /// The single tier-2 escalation engine, if exactly one is configured
    /// (`None` without tiered routing *and* under sharded escalation — use
    /// [`Server::escalation_shards`] for the general view).
    pub fn escalation_engine(&self) -> Option<&DetectionEngine> {
        match self.shared.escalate.as_slice() {
            [only] => Some(only),
            _ => None,
        }
    }

    /// The tier-2 escalation engines, in shard order (empty without tiered
    /// routing, one entry for a single [`ServerBuilder::escalate`] engine).
    pub fn escalation_shards(&self) -> &[Arc<DetectionEngine>] {
        &self.shared.escalate
    }

    /// Stops accepting submissions, drains every queued request, joins the
    /// workers, flushes the persistent cache (if configured) and returns the
    /// final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        if self.workers.is_empty() {
            return; // already shut down (shutdown() ran; this is the Drop)
        }
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        self.shared.monitor_wake.notify_all();
        for worker in self.workers.drain(..) {
            // A panicked worker already resolved nothing further; the
            // remaining workers drain the queue, so don't propagate here.
            let _ = worker.join();
        }
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        // Every worker is joined, so this final snapshot sees the complete
        // run — a post-mortem reader gets the closing state, not whatever the
        // last periodic tick happened to capture.
        if let Some(path) = &self.shared.snapshot_path {
            write_snapshot(&self.shared, path);
        }
        // With every worker joined the cache is quiescent: flush it to disk.
        // A failed write leaves the counter at 0 rather than failing shutdown.
        if let (Some(cache), Some(path)) = (&self.shared.cache, &self.shared.persist_path) {
            let written = cache::persist(
                path,
                &self.shared.cache_fingerprint,
                self.shared.prefix_segments,
                &lock(cache),
            );
            if let Ok(written) = written {
                lock(&self.shared.stats).cache_entries_persisted = written as u64;
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Renders the metrics snapshot for [`Server::metrics_json`] and the periodic
/// snapshot thread.  Integer-only (the workspace JSON dialect): exact
/// nanoseconds where the source is exact, `mean_batch` scaled by 1000.
fn metrics_json_of(shared: &Shared) -> JsonValue {
    let (stats, latency) = {
        let inner = lock(&shared.stats);
        (inner.clone(), inner.latency_histogram())
    };
    let snapshot = stats.snapshot();
    let shard_escalations = snapshot
        .shard_escalations
        .iter()
        .map(|&n| JsonValue::UInt(n))
        .collect();
    let counters = vec![
        ("submitted".into(), JsonValue::UInt(snapshot.submitted)),
        ("completed".into(), JsonValue::UInt(snapshot.completed)),
        ("failed".into(), JsonValue::UInt(snapshot.failed)),
        (
            "worker_panics".into(),
            JsonValue::UInt(snapshot.worker_panics),
        ),
        (
            "screen_served".into(),
            JsonValue::UInt(snapshot.screen_served),
        ),
        (
            "int8_screens".into(),
            JsonValue::UInt(snapshot.int8_screens),
        ),
        ("escalated".into(), JsonValue::UInt(snapshot.escalated)),
        (
            "shard_escalations".into(),
            JsonValue::Array(shard_escalations),
        ),
        (
            "pipelined_batches".into(),
            JsonValue::UInt(snapshot.pipelined_batches),
        ),
        (
            "serial_batches".into(),
            JsonValue::UInt(snapshot.serial_batches),
        ),
        ("cache_hits".into(), JsonValue::UInt(snapshot.cache_hits)),
        (
            "cache_misses".into(),
            JsonValue::UInt(snapshot.cache_misses),
        ),
        (
            "shed_admission".into(),
            JsonValue::UInt(snapshot.shed_admission),
        ),
        (
            "shed_expired".into(),
            JsonValue::UInt(snapshot.shed_expired),
        ),
        (
            "deadline_misses".into(),
            JsonValue::UInt(snapshot.deadline_misses),
        ),
        (
            "degraded_served".into(),
            JsonValue::UInt(snapshot.degraded_served),
        ),
        (
            "degrade_entered".into(),
            JsonValue::UInt(snapshot.degrade_entered),
        ),
        (
            "degrade_exited".into(),
            JsonValue::UInt(snapshot.degrade_exited),
        ),
        ("batches".into(), JsonValue::UInt(snapshot.batches)),
        (
            "max_batch".into(),
            JsonValue::UInt(snapshot.max_batch as u64),
        ),
        (
            "mean_batch_milli".into(),
            JsonValue::UInt((snapshot.mean_batch * 1000.0).round() as u64),
        ),
        (
            "p50_latency_us".into(),
            JsonValue::UInt((snapshot.p50_latency_ms * 1000.0).round() as u64),
        ),
        (
            "p90_latency_us".into(),
            JsonValue::UInt((snapshot.p90_latency_ms * 1000.0).round() as u64),
        ),
        (
            "p99_latency_us".into(),
            JsonValue::UInt((snapshot.p99_latency_ms * 1000.0).round() as u64),
        ),
    ];
    let mut fields = vec![
        ("stats".into(), JsonValue::Object(counters)),
        ("latency_ns".into(), latency.to_json()),
    ];
    if let Some(obs) = &shared.obs {
        fields.push(("registry".into(), obs.registry.snapshot()));
        let timelines = lock(&obs.timelines).iter().map(Timeline::to_json).collect();
        fields.push(("timelines".into(), JsonValue::Array(timelines)));
    }
    JsonValue::Object(fields)
}

/// Writes one metrics snapshot to `path` (atomically: temp file + rename, so
/// a reader never sees a torn snapshot).  Failures are swallowed — the
/// metrics plane must never take serving down.
fn write_snapshot(shared: &Shared, path: &std::path::Path) {
    let text = metrics_json_of(shared).to_json();
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// One worker: form a batch adaptively, screen it **fused**, hand the tier-2
/// sliver to the worker's bounded overlap thread (so escalation extraction of
/// batch *k* runs concurrently with screening of batch *k+1*), repeat until
/// shutdown drains the queue.
fn worker_loop(shared: &Shared) {
    // The overlap thread is the only inference thread besides the worker: a
    // bounded rendezvous (sync_channel(1)) so at most one tier-2 sliver waits
    // while one executes — tier-2 work can lag the screen by a batch, never
    // pile up unboundedly.  When the channel is full the sliver runs inline
    // (counted as a serial batch), which keeps the worker making progress even
    // when tier 2 is the bottleneck.
    let pipelined = shared.pipeline && !shared.escalate.is_empty();
    std::thread::scope(|scope| {
        let escalator = if pipelined {
            let (tx, rx) = std::sync::mpsc::sync_channel::<EscalationJob>(1);
            let handle = scope.spawn(move || {
                while let Ok(job) = rx.recv() {
                    run_escalations_caught(shared, job);
                }
            });
            Some((tx, handle))
        } else {
            None
        };
        loop {
            // A custom backend whose estimate_batch panics must not kill the
            // worker (queued tickets would never resolve); it just loses the
            // adaptive constraint.
            let cap =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shared.current_cap()))
                    .unwrap_or(shared.policy.max_batch);
            let Some(formed) = next_batch(shared, cap) else {
                break;
            };
            let FormedBatch {
                requests: batch,
                form_start_ns,
                cut_ns,
                degraded,
            } = formed;
            let batch_index;
            {
                let mut stats = lock(&shared.stats);
                stats.batches += 1;
                batch_index = stats.batches;
                stats.batched_requests += batch.len() as u64;
                stats.max_batch = stats.max_batch.max(batch.len());
            }
            // Per-batch stage timeline + queue-wait/batch-form histograms,
            // only when a registry is attached and enabled.
            let timeline = shared.stage_obs().map(|obs| {
                obs.batch_form_ns
                    .record(cut_ns.saturating_sub(form_start_ns));
                let earliest = batch
                    .iter()
                    .map(|r| r.submitted_ns)
                    .min()
                    .unwrap_or(form_start_ns);
                for request in &batch {
                    obs.queue_wait_ns
                        .record(cut_ns.saturating_sub(request.submitted_ns));
                }
                let origin = earliest.min(form_start_ns);
                let mut timeline = Timeline::new(&format!("batch-{batch_index}"), origin);
                timeline.record(Stage::QueueWait, earliest, cut_ns);
                timeline.record(Stage::BatchForm, form_start_ns, cut_ns);
                timeline
            });
            let slots: Vec<Arc<TicketSlot>> = batch.iter().map(|r| r.slot.clone()).collect();
            let screened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                screen_batch(shared, batch, timeline, degraded)
            }));
            match screened {
                Ok(Some(mut job)) => match &escalator {
                    Some((tx, _)) => {
                        job.overlapped = true;
                        match tx.try_send(job) {
                            Ok(()) => lock(&shared.stats).pipelined_batches += 1,
                            Err(TrySendError::Full(mut job))
                            | Err(TrySendError::Disconnected(mut job)) => {
                                job.overlapped = false;
                                lock(&shared.stats).serial_batches += 1;
                                run_escalations_caught(shared, job);
                            }
                        }
                    }
                    None => {
                        lock(&shared.stats).serial_batches += 1;
                        run_escalations_caught(shared, job);
                    }
                },
                Ok(None) => {}
                Err(_) => {
                    // The engine panicked mid-batch (screen_batch resolves
                    // tickets on ordinary errors, so only a panic lands here).
                    // Resolve every still-unresolved ticket of the batch
                    // instead of stranding its waiter, and keep the worker
                    // alive for the rest of the queue.
                    lock(&shared.stats).worker_panics += 1;
                    cancel_unresolved(shared, &slots);
                }
            }
        }
        // Drop the sender so the overlap thread drains its last sliver and
        // exits before this worker reports itself done.
        if let Some((tx, handle)) = escalator {
            drop(tx);
            let _ = handle.join();
        }
    });
}

/// Flips the degradation flag against the watermark thresholds for `depth`
/// queued requests, counting transitions.  Callers hold the state lock, which
/// serialises transitions — the entered/exited counters pair exactly.
fn update_degrade(shared: &Shared, depth: usize) {
    if shared.degrade.is_none() {
        return;
    }
    if depth >= shared.degrade_enter_at {
        if !shared.degraded.swap(true, Ordering::Relaxed) {
            lock(&shared.stats).degrade_entered += 1;
        }
    } else if depth <= shared.degrade_exit_at && shared.degraded.swap(false, Ordering::Relaxed) {
        lock(&shared.stats).degrade_exited += 1;
    }
}

/// Feeds the per-request service-time EMA behind the admission estimate with
/// one timed pass over `requests` inputs.  Skipped without admission control,
/// and a zero per-request cost (manual clocks) leaves the EMA unseeded — so
/// admission stays inert in deterministic-clock tests.
fn observe_service(shared: &Shared, elapsed_ns: u64, requests: usize) {
    if shared.admission.is_none() || requests == 0 {
        return;
    }
    let per_request_ns = elapsed_ns / requests as u64;
    if per_request_ns == 0 {
        return;
    }
    let current = shared.service_ema_ns.load(Ordering::Relaxed);
    let next = if current == 0 {
        per_request_ns
    } else {
        current.saturating_mul(3).saturating_add(per_request_ns) / 4
    };
    shared.service_ema_ns.store(next, Ordering::Relaxed);
}

/// Resolves every still-unresolved ticket in `slots` as canceled.
fn cancel_unresolved(shared: &Shared, slots: &[Arc<TicketSlot>]) {
    for slot in slots {
        if resolve(
            slot,
            Err(ServeError::Canceled(
                "a worker panicked while serving this request".into(),
            )),
        ) {
            lock(&shared.stats).failed += 1;
        }
    }
}

/// Writes `result` into the ticket slot unless it was already resolved, waking
/// the waiter.  Returns whether this call resolved the ticket.
fn resolve(slot: &TicketSlot, result: Result<Served>) -> bool {
    let mut guard = lock(&slot.result);
    if guard.is_some() {
        return false;
    }
    *guard = Some(result);
    drop(guard);
    slot.ready.notify_all();
    true
}

/// A batch cut by [`next_batch`]: the requests plus the clock readings the
/// instrumentation needs (when it is on) to account batch-forming time.
struct FormedBatch {
    requests: Vec<Request>,
    /// When the worker first saw a non-empty queue for this batch.
    form_start_ns: u64,
    /// When the batch was cut.
    cut_ns: u64,
    /// Whether degraded (screen-tier-only) mode was in effect at the cut —
    /// the whole batch routes in the mode it was cut under.
    degraded: bool,
}

/// Blocks until a batch can be cut (queue reached the adaptive cap, the oldest
/// request waited out the latency budget, or shutdown flushes what's left).
/// Returns `None` when the queue is drained and the server is shutting down.
fn next_batch(shared: &Shared, cap: usize) -> Option<FormedBatch> {
    let mut state = lock(&shared.state);
    // Batch-forming starts when the worker first observes a request, not when
    // it starts idling on an empty queue.
    let mut form_start_ns: Option<u64> = None;
    loop {
        if state.queue.is_empty() {
            if state.shutdown {
                return None;
            }
            form_start_ns = None;
            state = sync::wait(&shared.not_empty, state);
            continue;
        }
        let oldest_ns = match state.queue.front() {
            Some(request) => request.submitted_ns,
            None => continue, // re-check emptiness/shutdown at the top
        };
        let now_ns = shared.now_ns();
        let form_start = *form_start_ns.get_or_insert(now_ns);
        let waited_ns = now_ns.saturating_sub(oldest_ns);
        // Cut when the batch is as large as it can get: the adaptive cap is
        // reached, or the queue is at capacity with a submitter blocked on
        // backpressure (it cannot grow, so waiting out the budget would only
        // stall the pipeline).
        let stalled = state.blocked_submitters > 0 && state.queue.len() >= shared.queue_capacity;
        if state.queue.len() >= cap
            || stalled
            || waited_ns >= shared.latency_budget_ns
            || state.shutdown
        {
            // The pre-drain depth decides the degradation transition (it is
            // the pressure that triggered this cut); the batch then routes
            // in whatever mode is in effect at the cut.
            update_degrade(shared, state.queue.len());
            let degraded = shared.degrade.is_some() && shared.degraded.load(Ordering::Relaxed);
            let n = state.queue.len().min(cap);
            let requests: Vec<Request> = state.queue.drain(..n).collect();
            shared.not_full.notify_all();
            return Some(FormedBatch {
                requests,
                form_start_ns: form_start,
                cut_ns: shared.now_ns(),
                degraded,
            });
        }
        let remaining = Duration::from_nanos(shared.latency_budget_ns - waited_ns);
        let (guard, _timeout) = sync::wait_timeout(&shared.not_empty, state, remaining);
        state = guard;
    }
}

/// A request whose input tensor has been moved into the fused-batch buffer:
/// only what resolution still needs.
struct InFlight {
    slot: Arc<TicketSlot>,
    submitted_ns: u64,
    /// Absolute deadline carried from the [`Request`]; drives the expiry
    /// drop at batch formation and the deadline-miss accounting at finish.
    deadline_ns: Option<u64>,
    /// Exact-input cache key, computed in phase 1 while the input was at hand.
    input_key: Option<u64>,
}

/// Resolves one request: updates the completion counters, queue-to-result
/// latency and deadline-miss accounting, then wakes the waiter.
fn finish(shared: &Shared, request: &InFlight, outcome: Result<Served>) {
    let now_ns = shared.now_ns();
    let latency_ns = now_ns.saturating_sub(request.submitted_ns);
    {
        let mut stats = lock(&shared.stats);
        match &outcome {
            Ok(_) => {
                stats.completed += 1;
                if request
                    .deadline_ns
                    .is_some_and(|deadline| now_ns > deadline)
                {
                    stats.deadline_misses += 1;
                }
            }
            Err(_) => stats.failed += 1,
        }
        stats.record_latency(latency_ns);
    }
    resolve(&request.slot, outcome);
}

/// The tier-2 sliver of one screened batch: for each escalation shard, the
/// requests routed to it (by the shard owning each request's screened class)
/// and their inputs, ready for one fused pass per shard.
struct EscalationJob {
    groups: Vec<EscalationGroup>,
    /// The batch's stage timeline, carried through so the escalation passes
    /// (wherever they run) append their events before it is retained.
    timeline: Option<Timeline>,
    /// `true` when the job was handed to the overlap thread — its execution
    /// time then also counts as overlap-thread occupancy.
    overlapped: bool,
}

struct EscalationGroup {
    shard: usize,
    requests: Vec<(InFlight, Option<u64>)>,
    inputs: Vec<Tensor>,
}

impl EscalationJob {
    fn slots(&self) -> Vec<Arc<TicketSlot>> {
        self.groups
            .iter()
            .flat_map(|group| group.requests.iter().map(|(r, _)| r.slot.clone()))
            .collect()
    }
}

/// Runs an escalation job, resolving every ticket even if an engine panics
/// mid-sliver.
fn run_escalations_caught(shared: &Shared, job: EscalationJob) {
    let slots = job.slots();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_escalations(shared, job)
    }));
    if outcome.is_err() {
        lock(&shared.stats).worker_panics += 1;
        cancel_unresolved(shared, &slots);
    }
}

/// One fused tier-2 pass per shard group: verdicts, cache fills, ticket
/// resolution.  Grouping per shard changes only which fused batch an input
/// rides in, and the fused kernels preserve per-input arithmetic — so the
/// union of shard verdicts is bit-for-bit what the unsharded escalation
/// engine returns.
/// Panics iff the given injection flag was armed, consuming it.  Test-only:
/// the drain tests arm these flags to prove a panicking worker degrades
/// (tickets cancelled, `worker_panics` bumped) instead of wedging the server.
#[cfg(test)]
fn maybe_inject_panic(flag: &std::sync::atomic::AtomicBool, what: &str) {
    if flag.swap(false, Ordering::SeqCst) {
        panic!("injected {what} panic");
    }
}

fn run_escalations(shared: &Shared, job: EscalationJob) {
    #[cfg(test)]
    maybe_inject_panic(&shared.fail_next_escalation, "escalation");
    let EscalationJob {
        groups,
        mut timeline,
        overlapped,
    } = job;
    let obs = shared.stage_obs();
    let overlap_start_ns = obs.map(|_| shared.now_ns());
    for group in groups {
        // Timed unconditionally: the admission EMA charges escalated requests
        // their tier-2 cost whether or not a registry is attached.
        let start_ns = shared.now_ns();
        let group_len = group.requests.len();
        let engine = &shared.escalate[group.shard];
        let shard = group.shard;
        let verdicts = engine.detect_batch_with_paths(&group.inputs);
        for ((request, path_key), verdict) in group.requests.into_iter().zip(verdicts) {
            match verdict {
                Ok((detection, _)) => {
                    {
                        let mut stats = lock(&shared.stats);
                        stats.escalated += 1;
                        stats.shard_escalations[group.shard] += 1;
                    }
                    if let (Some(cache), Some(key)) = (&shared.cache, path_key) {
                        lock(cache).insert(
                            key,
                            CachedVerdict {
                                detection,
                                tier: Tier::Escalated,
                            },
                        );
                    }
                    finish(
                        shared,
                        &request,
                        Ok(Served {
                            detection,
                            tier: Tier::Escalated,
                            cache_hit: false,
                            degraded: false,
                        }),
                    );
                }
                Err(e) => finish(shared, &request, Err(e.into())),
            }
        }
        let end_ns = shared.now_ns();
        observe_service(shared, end_ns.saturating_sub(start_ns), group_len);
        if let Some(obs) = obs {
            obs.escalate_ns[shard].record(end_ns.saturating_sub(start_ns));
            if let Some(timeline) = &mut timeline {
                timeline.record(Stage::Escalate(shard as u32), start_ns, end_ns);
            }
        }
    }
    if let Some(obs) = obs {
        if let Some(start_ns) = overlap_start_ns.filter(|_| overlapped) {
            let end_ns = shared.now_ns();
            obs.overlap_ns.record(end_ns.saturating_sub(start_ns));
            if let Some(timeline) = &mut timeline {
                timeline.record(Stage::Overlap, start_ns, end_ns);
            }
        }
        if let Some(timeline) = timeline {
            obs.retain_timeline(timeline);
        }
    }
}

/// Screens one formed batch through the **fused** engine path and returns the
/// tier-2 sliver (if any) for the caller to run inline or hand to the overlap
/// thread:
///
/// 1. exact-duplicate fast path per request (byte-identical repeats resolve
///    straight from the cache, skipping even the screening extraction);
/// 2. one streamed fused tier-1 pass over the whole remainder
///    ([`DetectionEngine::detect_batch_with_paths`] — a single batched
///    im2col/matmul forward pass whose paths are extracted in-flight, stacked
///    activations released eagerly instead of materialising a trace);
/// 3. per-request path-prefix cache lookup and uncertainty-band routing: each
///    in-band request joins the group of the escalation shard that owns its
///    screened class.
///
/// With the cache disabled the results are bit-for-bit what direct engine
/// calls produce: `screen.detect(input)` when the score is outside the
/// uncertainty band, `escalate.detect(input)` on the owning shard when inside
/// — the fused kernels preserve the per-input reduction order, so batching
/// (and sharding, and pipelining) changes scheduling, never arithmetic.  With
/// the int8 quantized screen on, the tier-1 reference is
/// `screen.detect_batch_quantized_with(qnet, &[input])` instead (exactly
/// deterministic, but a *statistical* stand-in for f32 — see
/// [`ServerBuilder::quantized_screen`]); escalation still re-scores in f32.
fn screen_batch(
    shared: &Shared,
    batch: Vec<Request>,
    mut timeline: Option<Timeline>,
    degraded: bool,
) -> Option<EscalationJob> {
    #[cfg(test)]
    maybe_inject_panic(&shared.fail_next_screen, "screening");
    let obs = shared.stage_obs();
    let cache_hit = |cached: CachedVerdict| {
        lock(&shared.stats).cache_hits += 1;
        Served {
            detection: cached.detection,
            tier: cached.tier,
            cache_hit: true,
            degraded: false,
        }
    };

    // Phase 1: deadline-expiry drop, then the exact-duplicate fast path.
    // Inputs that miss are *moved* (not cloned) into the fused-batch buffer.
    let phase1_start_ns = shared.now_ns();
    let mut expired = 0u64;
    let lookup_start_ns = obs
        .filter(|_| shared.cache.is_some())
        .map(|_| phase1_start_ns);
    let mut pending: Vec<InFlight> = Vec::with_capacity(batch.len());
    let mut inputs: Vec<Tensor> = Vec::with_capacity(batch.len());
    for request in batch {
        let Request {
            input,
            slot,
            submitted_ns,
            deadline_ns,
        } = request;
        let input_key = shared.cache.is_some().then(|| shared.input_key(&input));
        let in_flight = InFlight {
            slot,
            submitted_ns,
            deadline_ns,
            input_key,
        };
        // A request whose deadline already passed gets no inference: resolve
        // it shed (the answer could help nobody) and spend the cycles on
        // requests that can still make their deadlines.
        if deadline_ns.is_some_and(|deadline| phase1_start_ns > deadline) {
            expired += 1;
            lock(&shared.stats).shed_expired += 1;
            finish(
                shared,
                &in_flight,
                Err(ServeError::Shed(ShedReason::DeadlineExpired)),
            );
            continue;
        }
        if let (Some(cache), Some(input_keys), Some(key)) =
            (&shared.cache, &shared.input_keys, input_key)
        {
            if let Some(path_key) = lock(input_keys).get(key).copied() {
                if let Some(cached) = lock(cache).get(path_key).copied() {
                    finish(shared, &in_flight, Ok(cache_hit(cached)));
                    continue;
                }
            }
        }
        pending.push(in_flight);
        inputs.push(input);
    }
    if expired > 0 {
        if let Some(timeline) = &mut timeline {
            timeline.record(Stage::Shed, phase1_start_ns, shared.now_ns());
        }
    }
    if let (Some(obs), Some(start_ns)) = (obs, lookup_start_ns) {
        let end_ns = shared.now_ns();
        obs.cache_lookup_ns.record(end_ns.saturating_sub(start_ns));
        if let Some(timeline) = &mut timeline {
            timeline.record(Stage::CacheLookup, start_ns, end_ns);
        }
    }
    if pending.is_empty() {
        if let (Some(obs), Some(timeline)) = (obs, timeline) {
            obs.retain_timeline(timeline);
        }
        return None;
    }

    // Phase 2: one fused screening trace over everything the fast path missed
    // — the int8 quantized pass when the builder enabled it, f32 otherwise.
    // Timed unconditionally: the admission EMA needs the per-request cost
    // whether or not a registry is attached.
    let screen_start_ns = shared.now_ns();
    let screened = match &shared.quantized {
        Some(qnet) => {
            lock(&shared.stats).int8_screens += inputs.len() as u64;
            shared.screen.detect_batch_quantized_with(qnet, &inputs)
        }
        None => shared.screen.detect_batch_with_paths(&inputs),
    };
    let screen_end_ns = shared.now_ns();
    observe_service(
        shared,
        screen_end_ns.saturating_sub(screen_start_ns),
        inputs.len(),
    );
    if let Some(obs) = obs {
        obs.screen_ns
            .record(screen_end_ns.saturating_sub(screen_start_ns));
        if let Some(timeline) = &mut timeline {
            let stage = if shared.quantized.is_some() {
                Stage::ScreenInt8
            } else {
                Stage::Screen
            };
            timeline.record(stage, screen_start_ns, screen_end_ns);
        }
    }

    // Phase 3: density feedback, cache lookup on the path prefix, band routing
    // to the escalation shard owning each screened class.
    let mut degraded_served = 0u64;
    let mut groups: Vec<EscalationGroup> = (0..shared.escalate.len())
        .map(|shard| EscalationGroup {
            shard,
            requests: Vec::new(),
            inputs: Vec::new(),
        })
        .collect();
    for ((request, input), result) in pending.into_iter().zip(inputs).zip(screened) {
        let (detection, path) = match result {
            Ok(traced) => traced,
            Err(e) => {
                finish(shared, &request, Err(e.into()));
                continue;
            }
        };
        shared.observe_density(path.density());
        let path_key = shared.cache.as_ref().map(|_| shared.cache_key(&path));
        if let (Some(cache), Some(key)) = (&shared.cache, path_key) {
            if let (Some(input_keys), Some(input_key)) = (&shared.input_keys, request.input_key) {
                lock(input_keys).insert(input_key, key);
            }
            if let Some(cached) = lock(cache).get(key).copied() {
                finish(shared, &request, Ok(cache_hit(cached)));
                continue;
            }
            lock(&shared.stats).cache_misses += 1;
        }
        let in_band = detection.score >= shared.band.0 && detection.score <= shared.band.1;
        if !shared.escalate.is_empty() && in_band {
            if degraded {
                // Mixed-criticality degradation: the batch was cut while the
                // queue sat above the high watermark, so in-band requests take
                // the tier-1 verdict instead of escalating.  The verdict is
                // flagged and NOT cached — a degraded answer must never
                // masquerade as a full-pipeline verdict on a later hit.
                {
                    let mut stats = lock(&shared.stats);
                    stats.screen_served += 1;
                    stats.degraded_served += 1;
                }
                degraded_served += 1;
                finish(
                    shared,
                    &request,
                    Ok(Served {
                        detection,
                        tier: Tier::Screen,
                        cache_hit: false,
                        degraded: true,
                    }),
                );
                continue;
            }
            // The screened class decides the owning shard; validation pinned
            // tiers to one shared network instance, so the shard's own forward
            // pass predicts the same class and never hits a placeholder
            // canary.  (An out-of-range class cannot happen — owner_of covers
            // every class the network predicts — but a defensive fallback to
            // shard 0 turns the impossible case into that shard's loud
            // non-ownership error rather than a panic.)
            let shard = shared
                .owner_of
                .get(detection.predicted_class)
                .copied()
                .unwrap_or(0);
            groups[shard].requests.push((request, path_key));
            groups[shard].inputs.push(input);
            continue;
        }
        lock(&shared.stats).screen_served += 1;
        if let (Some(cache), Some(key)) = (&shared.cache, path_key) {
            lock(cache).insert(
                key,
                CachedVerdict {
                    detection,
                    tier: Tier::Screen,
                },
            );
        }
        finish(
            shared,
            &request,
            Ok(Served {
                detection,
                tier: Tier::Screen,
                cache_hit: false,
                degraded: false,
            }),
        );
    }
    if degraded_served > 0 {
        if let Some(timeline) = &mut timeline {
            timeline.record(Stage::Degraded, screen_end_ns, shared.now_ns());
        }
    }
    groups.retain(|group| !group.requests.is_empty());
    if groups.is_empty() {
        if let (Some(obs), Some(timeline)) = (obs, timeline) {
            obs.retain_timeline(timeline);
        }
        return None;
    }
    Some(EscalationJob {
        groups,
        timeline,
        overlapped: false,
    })
}

/// Builder for [`Server`]; all validation happens in [`ServerBuilder::start`].
#[derive(Debug)]
pub struct ServerBuilder {
    screen: Arc<DetectionEngine>,
    quantized: Option<Arc<QuantizedNetwork>>,
    escalate: Vec<Arc<DetectionEngine>>,
    band: (f32, f32),
    workers: usize,
    queue_capacity: usize,
    policy: BatchPolicy,
    admission: Option<AdmissionPolicy>,
    degrade: Option<DegradePolicy>,
    cache: Option<CacheConfig>,
    pipeline: bool,
    /// `escalate`/`escalate_sharded` was called: an empty engine list must
    /// then fail loudly instead of silently serving tier-1 only.
    tiering_requested: bool,
    registry: Option<Arc<Registry>>,
    snapshot: Option<(PathBuf, Duration)>,
}

impl ServerBuilder {
    /// Adds a tier-2 escalation engine: inputs whose screening score lands in
    /// the closed uncertainty band `[low, high]` are re-scored by `engine`.
    ///
    /// The screening engine decides cheaply on confident scores; only the
    /// uncertain sliver pays for the expensive engine — the standard tiered
    /// pattern for suspicious-minority workloads.
    pub fn escalate(
        mut self,
        engine: impl Into<Arc<DetectionEngine>>,
        low: f32,
        high: f32,
    ) -> Self {
        self.escalate = vec![engine.into()];
        self.band = (low, high);
        self.tiering_requested = true;
        self
    }

    /// Adds a **sharded** tier-2: `shards` are escalation engines built from
    /// [`ptolemy_core::ClassPathSet::shard`] partitions of one canary set, and
    /// each in-band input is re-scored by the shard owning its screened class.
    /// A many-class model's canary memory and tier-2 extraction work split
    /// across the shards, while the union of shard verdicts stays bit-for-bit
    /// identical to the unsharded escalation engine.
    ///
    /// [`ServerBuilder::start`] validates the pairing via
    /// [`ptolemy_core::DetectionEngine::fingerprint`]: every shard must bind
    /// the same escalation program, share one decision threshold and one
    /// classifier-equipped configuration, serve the *same network instance* as
    /// the screening engine (class routing relies on both tiers predicting the
    /// identical class), and together the shards must own every class exactly
    /// once.
    ///
    /// # Example
    ///
    /// Shard engines reuse the complete escalation engine's fitted forest and
    /// threshold — parity requires the identical classifier:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ptolemy_core::{variants, DetectionEngine, Profiler};
    /// use ptolemy_nn::{zoo, Network, TrainConfig, Trainer};
    /// use ptolemy_serve::Server;
    /// use ptolemy_tensor::{Rng64, Tensor};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = Rng64::new(0);
    /// let mut net = zoo::mlp_net(&[8], 2, &mut rng)?;
    /// let samples: Vec<(Tensor, usize)> = (0..20)
    ///     .map(|i| (Tensor::full(&[8], (i % 2) as f32), i % 2))
    ///     .collect();
    /// Trainer::new(TrainConfig::default()).fit(&mut net, &samples)?;
    /// let network = Arc::new(net); // ONE instance shared by every tier
    /// let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
    ///
    /// let build = |program: ptolemy_core::DetectionProgram| {
    ///     let paths = Profiler::new(program.clone()).profile(&network, &samples)?;
    ///     DetectionEngine::builder(network.clone(), program, paths)
    ///         .calibrate(&inputs[..8], &inputs[8..16])
    ///         .build()
    /// };
    /// let screen = build(variants::fw_ab(&network, 0.05)?)?;
    /// let full = build(variants::bw_cu(&network, 0.5)?)?;
    ///
    /// // Partition the complete canary set across two shard engines.
    /// let shards = full
    ///     .class_paths()
    ///     .shard(2)?
    ///     .into_iter()
    ///     .map(|shard_paths| {
    ///         Ok(Arc::new(
    ///             DetectionEngine::builder(network.clone(), full.program().clone(), shard_paths)
    ///                 .forest(full.forest().expect("calibrated").clone())
    ///                 .threshold(full.threshold())
    ///                 .build()?,
    ///         ))
    ///     })
    ///     .collect::<Result<Vec<_>, ptolemy_core::CoreError>>()?;
    ///
    /// let server = Server::builder(screen)
    ///     .escalate_sharded(shards, 0.25, 0.75)
    ///     .workers(2)
    ///     .start()?;
    /// let served = server.submit(inputs[0].clone())?.wait()?;
    /// assert!((0.0..=1.0).contains(&served.detection.score));
    /// let stats = server.shutdown();
    /// assert_eq!(stats.shard_escalations.len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn escalate_sharded(
        mut self,
        shards: Vec<Arc<DetectionEngine>>,
        low: f32,
        high: f32,
    ) -> Self {
        self.escalate = shards;
        self.band = (low, high);
        self.tiering_requested = true;
        self
    }

    /// Runs the tier-1 screening pass on the **int8 quantized** inference
    /// path: one fused blocked-i8-GEMM forward per batch
    /// ([`ptolemy_core::DetectionEngine::detect_batch_quantized_with`])
    /// instead of the f32 kernels.  `calibration` is the
    /// [`QuantizedNetwork`] calibrated from the screening engine's own
    /// network: `QuantizedNetwork::quantize` over the same `Arc<Network>`
    /// the engine was built from.
    ///
    /// # Contract: statistical, not bit parity
    ///
    /// Every other serving mode is pinned bit-for-bit to direct engine calls.
    /// The quantized screen is the one deliberate exception: int8 rounding
    /// perturbs activations, so screened verdicts are a *statistical* proxy
    /// for f32 — the `quantized_serve` benchmark gates the verdict agreement
    /// rate.  What is still guaranteed:
    ///
    /// * **Determinism** — i32 accumulation is exact, so serving a given
    ///   input always yields the identical verdict, across runs, batch
    ///   shapes and thread counts (served verdicts equal
    ///   `screen.detect_batch_quantized_with(qnet, &[input])` bit-for-bit
    ///   when nothing escalates).
    /// * **f32 escalation** — in-band inputs re-score on the f32 escalation
    ///   tier, so uncertain verdicts are never decided by the quantized
    ///   approximation.
    /// * **No cache aliasing** — cache keys (and persisted cache files) are
    ///   seeded with an `+int8`-suffixed fingerprint, so int8 and f32
    ///   verdicts never answer for each other.
    ///
    /// [`ServerBuilder::start`] rejects a `calibration` network that was not
    /// calibrated from the screening engine's network instance with
    /// [`ServeError::TierMismatch`].
    pub fn quantized_screen(mut self, calibration: impl Into<Arc<QuantizedNetwork>>) -> Self {
        self.quantized = Some(calibration.into());
        self
    }

    /// Enables or disables cross-batch tier-2 pipelining (default **on**):
    /// each worker hands its escalation sliver to a bounded overlap thread and
    /// immediately screens the next batch, so tier-2 extraction of batch *k*
    /// overlaps tier-1 of batch *k+1* (the `forward_with_sink` streaming
    /// drivers make the tier-2 pass itself stream, so the overlap thread holds
    /// only the sliver's retained boundaries).  [`ServeStats::pipelined_batches`]
    /// / [`ServeStats::serial_batches`] report how often the handoff won.
    /// Verdicts are unaffected either way — pipelining reorders work between
    /// batches, never arithmetic within a request.
    pub fn pipeline_escalation(mut self, enabled: bool) -> Self {
        self.pipeline = enabled;
        self
    }

    /// Sets the number of worker threads (default 2).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the submission-queue capacity (default 256).  [`Server::submit`]
    /// blocks and [`Server::try_submit`] errors while the queue is full.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Enables deadline admission control (disabled by default).  With a
    /// policy set, [`Server::submit_with_deadline`] estimates the request's
    /// completion time from the queue depth and a service-time EMA, and sheds
    /// the submission with [`ServeError::Shed`] when the estimate (scaled by
    /// [`AdmissionPolicy::headroom`]) overshoots the deadline.  Submissions
    /// without a deadline are never shed, so plain [`Server::submit`] traffic
    /// is unaffected.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Enables mixed-criticality degradation (disabled by default).  While
    /// the queue depth sits at or above the policy's high watermark, in-band
    /// requests take the tier-1 screening verdict instead of escalating
    /// (flagged via [`Served::degraded`], never cached); the server recovers
    /// once the queue drains to the low watermark.  See [`DegradePolicy`].
    pub fn degradation(mut self, policy: DegradePolicy) -> Self {
        self.degrade = Some(policy);
        self
    }

    /// Sets the adaptive batch-forming policy (default [`BatchPolicy::default`]).
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the path-prefix result cache (disabled by default; disabled
    /// serving is bit-for-bit identical to direct engine calls).
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Attaches a [`ptolemy_obs::Registry`]: the server records per-stage
    /// latency histograms (queue wait, batch forming, cache lookup, screen,
    /// per-shard escalation, overlap-thread occupancy) and retains the most
    /// recent per-batch stage [`Timeline`]s for [`Server::metrics_json`].
    ///
    /// All of it is gated on [`Registry::enabled`] — attached-but-disabled
    /// serving costs one relaxed atomic load per stage (the `obs_overhead`
    /// bench experiment pins this within noise of a server built without this
    /// call).  The server also times queue-to-result latency on the
    /// registry's clock, so a [`ptolemy_obs::Clock::manual`] registry makes
    /// every serve timing deterministic under test.
    pub fn instrument(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Writes the [`Server::metrics_json`] snapshot to `path` every
    /// `interval` (atomic temp-file + rename), plus one final snapshot at
    /// shutdown after the workers drain.  The monitor thread is joined by
    /// [`Server::shutdown`]/`Drop`.
    pub fn snapshot_to(mut self, path: impl Into<PathBuf>, interval: Duration) -> Self {
        self.snapshot = Some((path.into(), interval));
        self
    }

    /// Validates the configuration and tier pairing, loads the persisted
    /// result cache (if configured and written by an identical engine), spawns
    /// the workers and returns the running server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::TierMismatch`] if the tier engines cannot serve
    /// together (the typed rejection carries both build-time fingerprints) and
    /// [`ServeError::InvalidConfig`] for bad knobs.  Sharded escalation
    /// additionally requires every shard to bind the same program fingerprint,
    /// threshold and network instance as its peers (and the network instance
    /// of the screening tier), and the shards to own every class exactly once.
    pub fn start(self) -> Result<Server> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "a server needs at least one worker".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue capacity must be at least 1".into(),
            ));
        }
        self.policy.validate().map_err(ServeError::InvalidConfig)?;
        if let Some(admission) = &self.admission {
            admission.validate().map_err(ServeError::InvalidConfig)?;
        }
        if let Some(degrade) = &self.degrade {
            degrade.validate().map_err(ServeError::InvalidConfig)?;
        }
        if let Some((_, interval)) = &self.snapshot {
            if interval.is_zero() {
                return Err(ServeError::InvalidConfig(
                    "metrics snapshot interval must be non-zero".into(),
                ));
            }
        }
        if let Some(cache) = &self.cache {
            if cache.capacity == 0 {
                return Err(ServeError::InvalidConfig(
                    "cache capacity must be at least 1".into(),
                ));
            }
            if cache.prefix_segments == 0 {
                return Err(ServeError::InvalidConfig(
                    "cache prefix must cover at least one path segment".into(),
                ));
            }
        }
        let mismatch = |escalate: &DetectionEngine, reason: String| ServeError::TierMismatch {
            screen: self.screen.fingerprint().to_string(),
            escalate: escalate.fingerprint().to_string(),
            reason,
        };
        if self.screen.forest().is_none() {
            return Err(ServeError::InvalidConfig(
                "the screening engine has no classifier (build it with .calibrate(..) or \
                 .forest(..))"
                    .into(),
            ));
        }
        if self.tiering_requested && self.escalate.is_empty() {
            return Err(ServeError::InvalidConfig(
                "escalate_sharded requires at least one escalation shard".into(),
            ));
        }
        if let Some(qnet) = &self.quantized {
            // The quantized screen scores against the screen engine's canary
            // paths; a qnet calibrated from any other network instance would
            // be comparing apples to oranges.  Same ptr-eq discipline as the
            // sharded-escalation network check below.
            if !std::ptr::eq(qnet.network().as_ref(), self.screen.network()) {
                return Err(ServeError::TierMismatch {
                    screen: self.screen.fingerprint().to_string(),
                    escalate: "int8 quantized screen".into(),
                    reason: "the quantized screen network was calibrated from a different \
                             network instance than the screening engine serves"
                        .into(),
                });
            }
        }
        let screen_classes = self.screen.class_paths().num_classes();
        let mut owner_of: Vec<usize> = Vec::new();
        if !self.escalate.is_empty() {
            if !self.band.0.is_finite()
                || !self.band.1.is_finite()
                || self.band.0 > self.band.1
                || self.band.0 < 0.0
                || self.band.1 > 1.0
            {
                return Err(ServeError::InvalidConfig(format!(
                    "escalation band [{}, {}] must satisfy 0 <= low <= high <= 1",
                    self.band.0, self.band.1
                )));
            }
            for escalate in &self.escalate {
                if escalate.forest().is_none() {
                    return Err(mismatch(
                        escalate,
                        "the escalation engine has no classifier".into(),
                    ));
                }
                let escalate_classes = escalate.class_paths().num_classes();
                if screen_classes != escalate_classes {
                    return Err(mismatch(
                        escalate,
                        format!(
                            "tier class counts differ ({screen_classes} vs {escalate_classes}); \
                             the tiers were profiled on different tasks"
                        ),
                    ));
                }
            }
            // Sharded escalation pins stronger invariants: routing by the
            // *screened* class is only correct when every tier runs the same
            // network instance (so both tiers predict the identical class),
            // and bit-for-bit parity with the unsharded engine needs one
            // program and one decision threshold across the shards.
            let sharded =
                self.escalate.len() > 1 || self.escalate[0].class_paths().shard_classes().is_some();
            if sharded {
                let first = &self.escalate[0];
                for shard in &self.escalate {
                    if shard.fingerprint() != first.fingerprint() {
                        return Err(mismatch(
                            shard,
                            format!(
                                "escalation shards bind different programs ('{}' vs '{}')",
                                first.fingerprint(),
                                shard.fingerprint()
                            ),
                        ));
                    }
                    if shard.threshold().to_bits() != first.threshold().to_bits() {
                        return Err(mismatch(
                            shard,
                            format!(
                                "escalation shards bind different decision thresholds ({} vs {})",
                                first.threshold(),
                                shard.threshold()
                            ),
                        ));
                    }
                    if !std::ptr::eq(self.screen.network(), shard.network()) {
                        return Err(mismatch(
                            shard,
                            "sharded escalation requires every tier to serve the same \
                             network instance (class routing relies on both tiers \
                             predicting the identical class)"
                                .into(),
                        ));
                    }
                }
            }
            // Every class must be owned by exactly one shard (an unsharded
            // single engine owns them all).
            owner_of = vec![usize::MAX; screen_classes];
            for (index, shard) in self.escalate.iter().enumerate() {
                for class in shard.class_paths().owned_classes() {
                    if class >= screen_classes || owner_of[class] != usize::MAX {
                        return Err(mismatch(
                            shard,
                            format!("class {class} is claimed by more than one escalation shard"),
                        ));
                    }
                    owner_of[class] = index;
                }
            }
            if let Some(unowned) = owner_of.iter().position(|&owner| owner == usize::MAX) {
                return Err(mismatch(
                    &self.escalate[0],
                    format!("class {unowned} is owned by no escalation shard"),
                ));
            }
        }

        // Int8 and f32 screening produce different paths and verdicts for the
        // same input, so both the in-memory key seed and the persisted-cache
        // identity carry the mode: a cache written under one mode is never
        // consulted under the other.
        let cache_fingerprint = if self.quantized.is_some() {
            format!("{}+int8", self.screen.fingerprint())
        } else {
            self.screen.fingerprint().to_string()
        };
        let cache_seed = fnv1a(cache_fingerprint.as_bytes());
        // Build the result cache, reloading a persisted file only when it was
        // written under this screening engine's fingerprint (mode-suffixed)
        // and prefix depth.
        let mut stats = StatsInner::new(self.escalate.len());
        let (cache, input_keys, prefix_segments, persist_path) = match &self.cache {
            None => (None, None, 0, None),
            Some(config) => {
                let mut cache = LruCache::new(config.capacity);
                if let Some(path) = &config.persist_path {
                    match cache::load_persisted(path, &cache_fingerprint, config.prefix_segments) {
                        CacheLoad::Missing => {}
                        CacheLoad::Rejected => stats.cache_load_rejected = 1,
                        CacheLoad::Loaded(entries) => {
                            // Entries are most-recently-used first; insert in
                            // reverse so the restored cache replays the saved
                            // recency (and eviction) order.
                            for (key, verdict) in entries.into_iter().rev() {
                                cache.insert(key, verdict);
                            }
                            stats.cache_entries_loaded = cache.len() as u64;
                        }
                    }
                }
                (
                    Some(Mutex::new(cache)),
                    Some(Mutex::new(LruCache::new(config.capacity))),
                    config.prefix_segments,
                    config.persist_path.clone(),
                )
            }
        };
        let shards = self.escalate.len();
        let int8_screen = self.quantized.is_some();
        let obs = self
            .registry
            .map(|registry| ServeObs::attach(registry, shards, int8_screen));
        let latency_budget_ns =
            u64::try_from(self.policy.latency_budget.as_nanos()).unwrap_or(u64::MAX);
        let (snapshot_path, snapshot_interval) = match self.snapshot {
            Some((path, interval)) => (Some(path), Some(interval)),
            None => (None, None),
        };
        let (degrade_enter_at, degrade_exit_at) = self
            .degrade
            .map(|policy| policy.thresholds(self.queue_capacity))
            .unwrap_or((usize::MAX, 0));
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(self.queue_capacity),
                blocked_submitters: 0,
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            monitor_wake: Condvar::new(),
            screen: self.screen,
            quantized: self.quantized,
            escalate: self.escalate,
            owner_of,
            band: self.band,
            pipeline: self.pipeline,
            policy: self.policy,
            queue_capacity: self.queue_capacity,
            workers: self.workers,
            admission: self.admission,
            degrade: self.degrade,
            degrade_enter_at,
            degrade_exit_at,
            degraded: AtomicBool::new(false),
            service_ema_ns: AtomicU64::new(0),
            cache,
            input_keys,
            cache_seed,
            input_hasher: RandomState::new(),
            cache_fingerprint,
            prefix_segments,
            persist_path,
            stats: Mutex::new(stats),
            obs,
            fallback_clock: Clock::monotonic(),
            latency_budget_ns,
            snapshot_path,
            density_ema_bits: AtomicU32::new(0.0f32.to_bits()),
            cap_cache: Mutex::new(None),
            #[cfg(test)]
            fail_next_screen: std::sync::atomic::AtomicBool::new(false),
            #[cfg(test)]
            fail_next_escalation: std::sync::atomic::AtomicBool::new(false),
        });
        let workers = (0..self.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ptolemy-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| ServeError::InvalidConfig(format!("failed to spawn worker: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        let monitor = match snapshot_interval {
            Some(interval) => {
                let shared = shared.clone();
                Some(
                    std::thread::Builder::new()
                        .name("ptolemy-serve-metrics".into())
                        .spawn(move || monitor_loop(&shared, interval))
                        .map_err(|e| {
                            ServeError::InvalidConfig(format!(
                                "failed to spawn metrics monitor: {e}"
                            ))
                        })?,
                )
            }
            None => None,
        };
        Ok(Server {
            shared,
            workers,
            monitor,
        })
    }
}

/// The periodic metrics-snapshot thread: writes [`Server::metrics_json`] to
/// the configured path every `interval` until shutdown.  Waits on its own
/// `monitor_wake` condvar (never the workers' `not_empty`, whose
/// `notify_one` wake-ups must reach a worker), so timeouts re-check the
/// deadline and the shutdown broadcast ends the loop promptly.
fn monitor_loop(shared: &Shared, interval: Duration) {
    let Some(path) = shared.snapshot_path.as_deref() else {
        return;
    };
    let interval_ns = u64::try_from(interval.as_nanos()).unwrap_or(u64::MAX);
    let mut deadline_ns = shared.now_ns().saturating_add(interval_ns);
    let mut state = lock(&shared.state);
    loop {
        if state.shutdown {
            return; // stop_and_join writes the final snapshot after the join
        }
        let now_ns = shared.now_ns();
        if now_ns >= deadline_ns {
            drop(state);
            write_snapshot(shared, path);
            deadline_ns = shared.now_ns().saturating_add(interval_ns);
            state = lock(&shared.state);
            continue;
        }
        let (guard, _timeout) = sync::wait_timeout(
            &shared.monitor_wake,
            state,
            Duration::from_nanos(deadline_ns - now_ns),
        );
        state = guard;
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_u64(FNV_OFFSET, bytes.iter().map(|b| u64::from(*b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use ptolemy_core::{variants, DetectionEngineBuilder, Profiler};
    use ptolemy_nn::{zoo, TrainConfig, Trainer};
    use ptolemy_tensor::Rng64;

    /// A trained 2-class MLP with benign/adversarial calibration inputs (the
    /// same synthetic setup the core engine tests use).
    struct Fixture {
        network: Arc<ptolemy_nn::Network>,
        samples: Vec<(Tensor, usize)>,
        benign: Vec<Tensor>,
        adversarial: Vec<Tensor>,
    }

    fn fixture(classes: usize) -> Fixture {
        let dims = 8;
        let mut rng = Rng64::new(23 + classes as u64);
        let prototypes: Vec<Vec<f32>> = (0..classes)
            .map(|c| {
                (0..dims)
                    .map(|d| if d % classes == c { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let mut samples = Vec::new();
        for (class, prototype) in prototypes.iter().enumerate() {
            for _ in 0..25 {
                let data: Vec<f32> = prototype.iter().map(|v| v + 0.08 * rng.normal()).collect();
                samples.push((Tensor::from_vec(data, &[dims]).unwrap(), class));
            }
        }
        let mut net = zoo::mlp_net(&[dims], classes, &mut rng).unwrap();
        Trainer::new(TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        })
        .fit(&mut net, &samples)
        .unwrap();

        let benign: Vec<Tensor> = samples.iter().take(20).map(|(x, _)| x.clone()).collect();
        let mut adversarial = Vec::new();
        for (x, y) in samples.iter().take(20) {
            let other = (*y + 1) % classes;
            let data: Vec<f32> = x
                .as_slice()
                .iter()
                .zip(&prototypes[other])
                .map(|(a, b)| a + 1.2 * b)
                .collect();
            adversarial.push(Tensor::from_vec(data, &[dims]).unwrap());
        }
        Fixture {
            network: Arc::new(net),
            samples,
            benign,
            adversarial,
        }
    }

    fn engine(fx: &Fixture, program: ptolemy_core::DetectionProgram) -> DetectionEngineBuilder {
        let class_paths = Profiler::new(program.clone())
            .profile(&fx.network, &fx.samples)
            .unwrap();
        DetectionEngine::builder(fx.network.clone(), program, class_paths)
            .calibrate(&fx.benign, &fx.adversarial)
    }

    /// An int8 network quantized from the fixture's own network instance.
    fn quantize(fx: &Fixture) -> QuantizedNetwork {
        QuantizedNetwork::quantize(fx.network.clone(), &fx.benign).unwrap()
    }

    /// The direct int8 verdict of one input (its batch of one).
    fn detect_int8(
        screen: &DetectionEngine,
        qnet: &QuantizedNetwork,
        input: &Tensor,
    ) -> ptolemy_core::Detection {
        let mut results = screen.detect_batch_quantized_with(qnet, std::slice::from_ref(input));
        results.remove(0).unwrap().0
    }

    fn tiered(fx: &Fixture) -> (Arc<DetectionEngine>, Arc<DetectionEngine>) {
        let screen = engine(fx, variants::fw_ab(&fx.network, 0.3).unwrap())
            .build()
            .unwrap();
        let expensive = engine(fx, variants::bw_cu(&fx.network, 0.5).unwrap())
            .build()
            .unwrap();
        (Arc::new(screen), Arc::new(expensive))
    }

    #[test]
    fn served_verdicts_match_direct_detection_without_cache() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let server = Server::builder(screen.clone())
            .escalate(expensive.clone(), 0.25, 0.75)
            .workers(3)
            .start()
            .unwrap();

        let inputs: Vec<Tensor> = fx.benign.iter().chain(&fx.adversarial).cloned().collect();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for (input, ticket) in inputs.iter().zip(tickets) {
            let served = ticket.wait().unwrap();
            assert!(!served.cache_hit);
            // Routing is decided by the screen score; the verdict must be
            // bit-for-bit what the routed engine returns directly.
            let screen_score = screen.detect(input).unwrap().score;
            let expected_tier = if (0.25..=0.75).contains(&screen_score) {
                Tier::Escalated
            } else {
                Tier::Screen
            };
            assert_eq!(served.tier, expected_tier);
            let direct = match served.tier {
                Tier::Screen => screen.detect(input).unwrap(),
                Tier::Escalated => expensive.detect(input).unwrap(),
            };
            assert_eq!(served.detection, direct);
            assert_eq!(served.detection.score.to_bits(), direct.score.to_bits());
            assert_eq!(
                served.detection.similarity.to_bits(),
                direct.similarity.to_bits()
            );
        }

        let stats = server.shutdown();
        assert_eq!(stats.submitted, inputs.len() as u64);
        assert_eq!(stats.completed, inputs.len() as u64);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.screen_served + stats.escalated, inputs.len() as u64);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert!(stats.batches > 0);
        assert!(stats.p99_latency_ms >= stats.p50_latency_ms);
    }

    #[test]
    fn quantized_screen_serves_bit_identical_int8_verdicts() {
        let fx = fixture(2);
        let screen = Arc::new(
            engine(&fx, variants::fw_ab(&fx.network, 0.3).unwrap())
                .build()
                .unwrap(),
        );
        let qnet = Arc::new(quantize(&fx));
        let server = Server::builder(screen.clone())
            .quantized_screen(qnet.clone())
            .workers(2)
            .start()
            .unwrap();

        let inputs: Vec<Tensor> = fx.benign.iter().chain(&fx.adversarial).cloned().collect();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for (input, ticket) in inputs.iter().zip(tickets) {
            let served = ticket.wait().unwrap();
            assert!(!served.cache_hit);
            // No escalation tier: every verdict is the direct int8 one,
            // bit for bit (the int8 pass is exactly deterministic).
            assert_eq!(served.tier, Tier::Screen);
            let direct = detect_int8(&screen, &qnet, input);
            assert_eq!(served.detection, direct);
            assert_eq!(served.detection.score.to_bits(), direct.score.to_bits());
            assert_eq!(
                served.detection.similarity.to_bits(),
                direct.similarity.to_bits()
            );
        }

        let stats = server.shutdown();
        assert_eq!(stats.completed, inputs.len() as u64);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.screen_served, inputs.len() as u64);
        // Every freshly-screened request went through the int8 path.
        assert_eq!(stats.int8_screens, inputs.len() as u64);
    }

    #[test]
    fn quantized_screen_escalations_rescore_in_f32() {
        let fx = fixture(2);
        let screen = Arc::new(
            engine(&fx, variants::fw_ab(&fx.network, 0.3).unwrap())
                .build()
                .unwrap(),
        );
        let expensive = Arc::new(
            engine(&fx, variants::bw_cu(&fx.network, 0.5).unwrap())
                .build()
                .unwrap(),
        );
        let qnet = Arc::new(quantize(&fx));
        let server = Server::builder(screen.clone())
            .quantized_screen(qnet.clone())
            .escalate(expensive.clone(), 0.25, 0.75)
            .workers(2)
            .start()
            .unwrap();

        let inputs: Vec<Tensor> = fx.benign.iter().chain(&fx.adversarial).cloned().collect();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        let mut escalated = 0u64;
        for (input, ticket) in inputs.iter().zip(tickets) {
            let served = ticket.wait().unwrap();
            // Routing is decided by the *int8* screen score; escalated
            // requests are re-scored by the f32 tier-2 engine.
            let screen_score = detect_int8(&screen, &qnet, input).score;
            let expected_tier = if (0.25..=0.75).contains(&screen_score) {
                Tier::Escalated
            } else {
                Tier::Screen
            };
            assert_eq!(served.tier, expected_tier);
            let direct = match served.tier {
                Tier::Screen => detect_int8(&screen, &qnet, input),
                Tier::Escalated => {
                    escalated += 1;
                    expensive.detect(input).unwrap()
                }
            };
            assert_eq!(served.detection.score.to_bits(), direct.score.to_bits());
        }

        let stats = server.shutdown();
        assert_eq!(stats.escalated, escalated);
        // int8_screens counts every freshly-screened request, whether it was
        // then screen-served or escalated.
        assert_eq!(stats.int8_screens, inputs.len() as u64);
        assert_eq!(stats.screen_served + stats.escalated, inputs.len() as u64);
    }

    #[test]
    fn quantized_screen_calibrated_elsewhere_is_rejected() {
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        // Same architecture, same calibration recipe — but a different
        // network *instance*, so its quantized weights describe a network
        // this screen engine does not serve.
        let foreign = fixture(2);
        let qnet = ptolemy_nn::QuantizedNetwork::quantize(foreign.network.clone(), &foreign.benign)
            .unwrap();
        let err = Server::builder(screen.clone())
            .quantized_screen(qnet)
            .start()
            .unwrap_err();
        match err {
            ServeError::TierMismatch {
                screen: s,
                escalate,
                reason,
            } => {
                assert_eq!(s, screen.fingerprint());
                assert_eq!(escalate, "int8 quantized screen");
                assert!(reason.contains("different network instance"), "{reason}");
            }
            other => panic!("expected TierMismatch, got {other:?}"),
        }
    }

    #[test]
    fn int8_and_f32_verdict_caches_never_alias() {
        let path = std::env::temp_dir().join(format!(
            "ptolemy-serve-int8-cache-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let fx = fixture(2);
        let screen = Arc::new(
            engine(&fx, variants::fw_ab(&fx.network, 0.3).unwrap())
                .build()
                .unwrap(),
        );
        let qnet = Arc::new(quantize(&fx));
        let config = CacheConfig {
            capacity: 64,
            prefix_segments: usize::MAX,
            persist_path: Some(path.clone()),
        };

        // Populate and flush a cache under the int8 screen.
        let server = Server::builder(screen.clone())
            .quantized_screen(qnet.clone())
            .workers(1)
            .cache(config.clone())
            .start()
            .unwrap();
        let first = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(!first.cache_hit);
        let stats = server.shutdown();
        assert!(stats.cache_entries_persisted >= 1);

        // Back in int8 mode the file replays bit for bit.
        let server = Server::builder(screen.clone())
            .quantized_screen(qnet.clone())
            .workers(1)
            .cache(config.clone())
            .start()
            .unwrap();
        assert!(server.stats().cache_entries_loaded >= 1);
        let replayed = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(replayed.cache_hit);
        assert_eq!(
            replayed.detection.score.to_bits(),
            first.detection.score.to_bits()
        );
        drop(server);

        // The *same* engine in f32 mode must reject the int8-fingerprinted
        // file: an int8 verdict may disagree with the f32 one for the same
        // input, so replaying it would silently cross tiers.  (Checked last —
        // every shutdown re-persists under its own fingerprint.)
        let server = Server::builder(screen.clone())
            .workers(1)
            .cache(config)
            .start()
            .unwrap();
        let stats = server.stats();
        assert_eq!(stats.cache_load_rejected, 1);
        assert_eq!(stats.cache_entries_loaded, 0);
        drop(server);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn adaptive_cap_shrinks_to_fit_escalation_shards() {
        use crate::batch::{adaptive_cap, adaptive_cap_tiered};

        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let ops_per_input = |engine: &DetectionEngine| {
            let report = engine.estimate_batch(1, 1.0).unwrap().software.unwrap();
            report.inference_macs
                + report.sort_elements
                + report.compare_ops
                + report.accumulate_ops
        };
        let screen_ops = ops_per_input(&screen);
        let expensive_ops = ops_per_input(&expensive);
        assert!(
            expensive_ops > screen_ops,
            "fixture premise: tier-2 ({expensive_ops} ops) must out-cost tier-1 ({screen_ops})"
        );

        // Tune the policy so the screen alone would allow 8 inputs per batch.
        let policy = BatchPolicy {
            max_batch: 32,
            target_batch_latency_ms: 8.0,
            software_ops_per_ms: screen_ops as f64,
            ..BatchPolicy::default()
        };
        let screen_cap = adaptive_cap(&screen, &policy, 1.0);
        assert_eq!(screen_cap, 8);
        let shard_cap = adaptive_cap(&expensive, &policy, 1.0);
        let tiered_cap =
            adaptive_cap_tiered(&screen, std::slice::from_ref(&expensive), &policy, 1.0);
        // The batch must also fit the worst case — the whole batch escalating
        // to the expensive shard — so the tiered cap is the minimum.
        assert_eq!(tiered_cap, screen_cap.min(shard_cap));
        assert!(tiered_cap < screen_cap, "{tiered_cap} vs {screen_cap}");
        // Without shards the tiered cap degenerates to the screen-only cap.
        assert_eq!(adaptive_cap_tiered(&screen, &[], &policy, 1.0), screen_cap);

        // And the running server applies the shard-aware cap (computed at its
        // current density estimate, which starts at 0.0 before any batch).
        let server = Server::builder(screen.clone())
            .escalate(expensive, 0.25, 0.75)
            .batch_policy(policy)
            .workers(1)
            .start()
            .unwrap();
        let at_density = server.shared.density_ema();
        assert_eq!(
            server.shared.current_cap(),
            adaptive_cap_tiered(&screen, &server.shared.escalate, &policy, at_density)
        );
        server.shutdown();
    }

    #[test]
    fn duplicate_inputs_hit_the_path_prefix_cache() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let server = Server::builder(screen)
            .escalate(expensive, 0.0, 1.0) // everything escalates on a miss
            .workers(1)
            .cache(CacheConfig {
                capacity: 64,
                prefix_segments: usize::MAX, // exact-duplicate matching
                persist_path: None,
            })
            .start()
            .unwrap();

        // Serve the same input twice, waiting in between so the second lookup
        // deterministically sees the first verdict.
        let first = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(!first.cache_hit);
        assert_eq!(first.tier, Tier::Escalated);
        let second = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.detection, first.detection);
        assert_eq!(second.tier, first.tier);

        let stats = server.shutdown();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
        // The cached request skipped tier-2 re-scoring entirely.
        assert_eq!(stats.escalated, 1);
        assert_eq!(stats.completed, 2);
    }

    /// Exact-input keys come from a per-server random SipHash key: two
    /// servers on the same engine key the same tensor differently, so no key
    /// can be precomputed from the public program fingerprint.
    #[test]
    fn input_keys_are_keyed_per_server() {
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        let start = || {
            Server::builder(screen.clone())
                .workers(1)
                .cache(CacheConfig {
                    capacity: 8,
                    prefix_segments: usize::MAX,
                    persist_path: None,
                })
                .start()
                .unwrap()
        };
        let (a, b) = (start(), start());
        let x = &fx.benign[0];
        assert_eq!(a.shared.input_key(x), a.shared.input_key(x));
        assert_ne!(a.shared.input_key(x), b.shared.input_key(x));
        assert_ne!(a.shared.input_key(x), a.shared.input_key(&fx.benign[1]));
        // Path-prefix keys are persisted and stay deterministic.
        let (_, path) = screen
            .detect_batch_with_paths(std::slice::from_ref(x))
            .remove(0)
            .unwrap();
        assert_eq!(a.shared.cache_key(&path), b.shared.cache_key(&path));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn mismatched_tier_engines_are_rejected_with_fingerprints() {
        let two = fixture(2);
        let three = fixture(3);
        let (screen, _) = tiered(&two);
        let other_task = Arc::new(
            engine(&three, variants::bw_cu(&three.network, 0.5).unwrap())
                .build()
                .unwrap(),
        );
        let err = Server::builder(screen.clone())
            .escalate(other_task.clone(), 0.3, 0.7)
            .start()
            .unwrap_err();
        match err {
            ServeError::TierMismatch {
                screen: s,
                escalate: e,
                reason,
            } => {
                assert_eq!(s, screen.fingerprint());
                assert_eq!(e, other_task.fingerprint());
                assert!(reason.contains("class counts"), "{reason}");
            }
            other => panic!("expected TierMismatch, got {other:?}"),
        }

        // An escalation engine that cannot produce verdicts is also mismatched.
        let program = variants::bw_cu(&two.network, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&two.network, &two.samples)
            .unwrap();
        let forestless = DetectionEngine::builder(two.network.clone(), program, class_paths)
            .build()
            .unwrap();
        assert!(matches!(
            Server::builder(screen)
                .escalate(forestless, 0.3, 0.7)
                .start(),
            Err(ServeError::TierMismatch { .. })
        ));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        assert!(matches!(
            Server::builder(screen.clone()).workers(0).start(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Server::builder(screen.clone()).queue_capacity(0).start(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Server::builder(screen.clone())
                .batch_policy(BatchPolicy {
                    max_batch: 0,
                    ..BatchPolicy::default()
                })
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Server::builder(screen.clone())
                .cache(CacheConfig {
                    capacity: 0,
                    prefix_segments: 2,
                    persist_path: None,
                })
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Server::builder(screen.clone())
                .cache(CacheConfig {
                    capacity: 8,
                    prefix_segments: 0,
                    persist_path: None,
                })
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        // An empty shard list must not silently degrade to tier-1-only
        // serving (the band would go unvalidated and nothing would escalate).
        assert!(matches!(
            Server::builder(screen.clone())
                .escalate_sharded(Vec::new(), 0.3, 0.7)
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        // Inverted or out-of-range escalation bands.
        assert!(matches!(
            Server::builder(screen.clone())
                .escalate(expensive.clone(), 0.8, 0.2)
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Server::builder(screen.clone())
                .escalate(expensive, -0.1, 1.2)
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        // A screening engine without a classifier cannot serve verdicts.
        let program = variants::fw_ab(&fx.network, 0.3).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&fx.network, &fx.samples)
            .unwrap();
        let forestless = DetectionEngine::builder(fx.network.clone(), program, class_paths)
            .build()
            .unwrap();
        assert!(matches!(
            Server::builder(forestless).start(),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn blocked_submitters_cut_stalled_batches_immediately() {
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        // Queue of 2, one worker, and a latency budget far beyond the test:
        // only the stalled-batch cut (or shutdown) can release anything.
        let server = Server::builder(screen)
            .workers(1)
            .queue_capacity(2)
            .batch_policy(BatchPolicy {
                max_batch: 16,
                latency_budget: Duration::from_secs(30),
                target_batch_latency_ms: 1e9,
                ..BatchPolicy::default()
            })
            .start()
            .unwrap();

        let started = std::time::Instant::now();
        // The third blocking submit fills the queue; the worker must cut the
        // stalled batch right away instead of waiting out the 30 s budget.
        let tickets: Vec<Ticket> = std::thread::scope(|scope| {
            let server = &server;
            scope
                .spawn(move || {
                    (0..3)
                        .map(|i| server.submit(fx.benign[i].clone()).unwrap())
                        .collect()
                })
                .join()
                .unwrap()
        });
        let mut tickets = tickets.into_iter();
        tickets.next().unwrap().wait().unwrap();
        tickets.next().unwrap().wait().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "stalled batch must cut on backpressure, not on the latency budget"
        );
        // The last request sits alone under the huge budget; shutdown flushes it.
        let last = tickets.next().unwrap();
        server.shutdown();
        last.wait().unwrap();
    }

    #[test]
    fn engine_errors_resolve_tickets_instead_of_stranding_them() {
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        let server = Server::builder(screen).workers(1).start().unwrap();
        // Wrong input shape for the 8-dim MLP: the engine errors, the ticket
        // still resolves, and the failure is counted.
        let bad = Tensor::full(&[3], 0.5);
        let err = server.submit(bad).unwrap().wait().unwrap_err();
        assert!(matches!(err, ServeError::Engine(_)));
        let ok = server.submit(fx.benign[0].clone()).unwrap().wait();
        assert!(ok.is_ok(), "the worker must survive a failed request");
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn bounded_queue_applies_backpressure_and_drains_on_shutdown() {
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        // A huge latency budget keeps the single worker waiting to fill its
        // batch, so the queue deterministically fills up.
        let server = Server::builder(screen)
            .workers(1)
            .queue_capacity(2)
            .batch_policy(BatchPolicy {
                max_batch: 16,
                latency_budget: Duration::from_secs(30),
                target_batch_latency_ms: 1e9,
                ..BatchPolicy::default()
            })
            .start()
            .unwrap();

        let t1 = server.try_submit(fx.benign[0].clone()).unwrap();
        let t2 = server.try_submit(fx.benign[1].clone()).unwrap();
        assert!(matches!(
            server.try_submit(fx.benign[2].clone()),
            Err(ServeError::QueueFull)
        ));
        assert_eq!(server.pending(), 2);
        assert!(!t1.is_ready());

        // Shutdown flushes the partial batch; every ticket resolves.
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert!(t1.is_ready() && t2.is_ready());
        t1.wait().unwrap();
        t2.wait().unwrap();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.max_batch, 2);
        assert_eq!(stats.mean_batch, 2.0);
    }

    /// Escalation shards built from `full`'s canary set, forest and threshold
    /// — the recipe [`ServerBuilder::escalate_sharded`] documents.
    fn shard_engines(
        fx: &Fixture,
        full: &Arc<DetectionEngine>,
        n: usize,
    ) -> Vec<Arc<DetectionEngine>> {
        full.class_paths()
            .shard(n)
            .unwrap()
            .into_iter()
            .map(|paths| {
                Arc::new(
                    DetectionEngine::builder(fx.network.clone(), full.program().clone(), paths)
                        .forest(full.forest().unwrap().clone())
                        .threshold(full.threshold())
                        .build()
                        .unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_escalation_matches_direct_detection_and_counts_per_shard() {
        let fx = fixture(3);
        let (screen, expensive) = tiered(&fx);
        let shards = shard_engines(&fx, &expensive, 2);
        let server = Server::builder(screen)
            .escalate_sharded(shards, 0.0, 1.0) // everything escalates
            .workers(1)
            .start()
            .unwrap();
        assert!(server.escalation_engine().is_none());
        assert_eq!(server.escalation_shards().len(), 2);

        let inputs: Vec<Tensor> = fx.benign.iter().chain(&fx.adversarial).cloned().collect();
        for input in &inputs {
            let served = server.submit(input.clone()).unwrap().wait().unwrap();
            assert_eq!(served.tier, Tier::Escalated);
            // The union of shard verdicts is bit-for-bit the unsharded
            // escalation engine's verdict.
            let direct = expensive.detect(input).unwrap();
            assert_eq!(served.detection, direct);
            assert_eq!(served.detection.score.to_bits(), direct.score.to_bits());
            assert_eq!(
                served.detection.similarity.to_bits(),
                direct.similarity.to_bits()
            );
        }

        let stats = server.shutdown();
        assert_eq!(stats.escalated, inputs.len() as u64);
        assert_eq!(stats.shard_escalations.len(), 2);
        assert_eq!(stats.shard_escalations.iter().sum::<u64>(), stats.escalated);
        // Every batch had an escalation sliver, handled exactly once each.
        assert_eq!(
            stats.pipelined_batches + stats.serial_batches,
            stats.batches
        );
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn pipelining_can_be_disabled_and_is_counted() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let server = Server::builder(screen)
            .escalate(expensive, 0.0, 1.0)
            .workers(1)
            .pipeline_escalation(false)
            .start()
            .unwrap();
        for input in &fx.benign {
            server.submit(input.clone()).unwrap().wait().unwrap();
        }
        let stats = server.shutdown();
        assert!(stats.escalated > 0);
        assert_eq!(stats.pipelined_batches, 0);
        assert!(stats.serial_batches > 0);
    }

    #[test]
    fn invalid_shard_configurations_are_rejected_with_fingerprints() {
        let fx = fixture(3);
        let (screen, expensive) = tiered(&fx);
        let set = expensive.class_paths();
        let shard_from = |paths: ptolemy_core::ClassPathSet, threshold: f32| {
            Arc::new(
                DetectionEngine::builder(fx.network.clone(), expensive.program().clone(), paths)
                    .forest(expensive.forest().unwrap().clone())
                    .threshold(threshold)
                    .build()
                    .unwrap(),
            )
        };
        let reason_of = |err: ServeError| match err {
            ServeError::TierMismatch { reason, .. } => reason,
            other => panic!("expected TierMismatch, got {other:?}"),
        };

        // Overlapping ownership: class 1 claimed twice.
        let overlapping = vec![
            shard_from(set.subset(&[0, 1]).unwrap(), expensive.threshold()),
            shard_from(set.subset(&[1, 2]).unwrap(), expensive.threshold()),
        ];
        let reason = reason_of(
            Server::builder(screen.clone())
                .escalate_sharded(overlapping, 0.3, 0.7)
                .start()
                .unwrap_err(),
        );
        assert!(reason.contains("more than one"), "{reason}");

        // Missing ownership: nobody owns class 1.
        let gappy = vec![
            shard_from(set.subset(&[0]).unwrap(), expensive.threshold()),
            shard_from(set.subset(&[2]).unwrap(), expensive.threshold()),
        ];
        let reason = reason_of(
            Server::builder(screen.clone())
                .escalate_sharded(gappy, 0.3, 0.7)
                .start()
                .unwrap_err(),
        );
        assert!(reason.contains("no escalation shard"), "{reason}");

        // Diverging decision thresholds across shards.
        let skewed = vec![
            shard_from(set.subset(&[0, 1]).unwrap(), expensive.threshold()),
            shard_from(set.subset(&[2]).unwrap(), 0.25),
        ];
        let reason = reason_of(
            Server::builder(screen.clone())
                .escalate_sharded(skewed, 0.3, 0.7)
                .start()
                .unwrap_err(),
        );
        assert!(reason.contains("thresholds"), "{reason}");

        // Shards serving a different network instance than the screen tier:
        // class routing would compare tier-1 and tier-2 predictions of
        // different models, so the pairing is rejected even though the
        // fingerprints, class counts and thresholds all line up.
        let other = fixture(3);
        let (_, other_expensive) = tiered(&other);
        let foreign = other_expensive
            .class_paths()
            .shard(2)
            .unwrap()
            .into_iter()
            .map(|paths| {
                Arc::new(
                    DetectionEngine::builder(
                        other.network.clone(),
                        other_expensive.program().clone(),
                        paths,
                    )
                    .forest(other_expensive.forest().unwrap().clone())
                    .threshold(other_expensive.threshold())
                    .build()
                    .unwrap(),
                )
            })
            .collect();
        let reason = reason_of(
            Server::builder(screen)
                .escalate_sharded(foreign, 0.3, 0.7)
                .start()
                .unwrap_err(),
        );
        assert!(reason.contains("network instance"), "{reason}");
    }

    #[test]
    fn persisted_cache_reloads_for_the_same_engine_and_rejects_others() {
        let path =
            std::env::temp_dir().join(format!("ptolemy-serve-unit-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let config = CacheConfig {
            capacity: 64,
            prefix_segments: usize::MAX,
            persist_path: Some(path.clone()),
        };

        // First run: populate and flush the cache.
        let server = Server::builder(screen.clone())
            .workers(1)
            .cache(config.clone())
            .start()
            .unwrap();
        let first = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(!first.cache_hit);
        let second = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(second.cache_hit);
        let stats = server.shutdown();
        assert_eq!(stats.cache_entries_loaded, 0);
        assert_eq!(stats.cache_load_rejected, 0);
        assert!(stats.cache_entries_persisted >= 1);

        // Restart with the identical engine: the first lookup is already a
        // hit, replaying the pre-restart verdict bit for bit.
        let server = Server::builder(screen.clone())
            .workers(1)
            .cache(config.clone())
            .start()
            .unwrap();
        assert_eq!(
            server.stats().cache_entries_loaded,
            stats.cache_entries_persisted
        );
        let replayed = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(replayed.cache_hit);
        assert_eq!(replayed.detection, first.detection);
        assert_eq!(
            replayed.detection.score.to_bits(),
            first.detection.score.to_bits()
        );
        drop(server);

        // A different screening engine must ignore the file.
        let server = Server::builder(expensive)
            .workers(1)
            .cache(config)
            .start()
            .unwrap();
        let stats = server.stats();
        assert_eq!(stats.cache_load_rejected, 1);
        assert_eq!(stats.cache_entries_loaded, 0);
        let cold = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(!cold.cache_hit);
        drop(server);
        let _ = std::fs::remove_file(&path);
    }
    #[test]
    fn panicking_screen_worker_degrades_and_drains() {
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        let server = Server::builder(screen).workers(1).start().unwrap();

        // Arm the injection: the next screening pass panics mid-batch.
        server.shared.fail_next_screen.store(true, Ordering::SeqCst);
        let err = server
            .submit(fx.benign[0].clone())
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, ServeError::Canceled(_)), "{err:?}");

        // The sole worker survived the panic and still drains the queue.
        let served = server.submit(fx.benign[1].clone()).unwrap().wait().unwrap();
        assert_eq!(served.tier, Tier::Screen);
        let stats = server.shutdown();
        assert_eq!(stats.worker_panics, 1, "{stats:?}");
        assert!(stats.failed >= 1, "{stats:?}");
        assert!(stats.completed >= 1, "{stats:?}");
    }

    #[test]
    fn panicking_escalation_worker_degrades_and_drains() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        // Band [0, 1] covers every calibrated score, so requests escalate;
        // inline escalation keeps the panic on the worker thread itself.
        let server = Server::builder(screen)
            .escalate(expensive, 0.0, 1.0)
            .pipeline_escalation(false)
            .workers(1)
            .start()
            .unwrap();

        server
            .shared
            .fail_next_escalation
            .store(true, Ordering::SeqCst);
        let err = server
            .submit(fx.adversarial[0].clone())
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, ServeError::Canceled(_)), "{err:?}");

        let served = server
            .submit(fx.adversarial[1].clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(served.tier, Tier::Escalated);
        let stats = server.shutdown();
        assert_eq!(stats.worker_panics, 1, "{stats:?}");
    }

    #[test]
    fn panic_on_pipelined_escalation_thread_degrades_and_drains() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        // Same as above, but the panic fires on the per-worker overlap thread,
        // proving the recovery path holds off the worker thread too.
        let server = Server::builder(screen)
            .escalate(expensive, 0.0, 1.0)
            .pipeline_escalation(true)
            .workers(1)
            .start()
            .unwrap();

        server
            .shared
            .fail_next_escalation
            .store(true, Ordering::SeqCst);
        let err = server
            .submit(fx.adversarial[0].clone())
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, ServeError::Canceled(_)), "{err:?}");

        let served = server
            .submit(fx.adversarial[1].clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(served.tier, Tier::Escalated);
        let stats = server.shutdown();
        assert_eq!(stats.worker_panics, 1, "{stats:?}");
    }

    /// Parses a named stage histogram out of a metrics snapshot.
    fn stage_hist(metrics: &JsonValue, name: &str) -> ptolemy_obs::Histogram {
        let hist = metrics
            .get("registry")
            .and_then(|r| r.get("histograms"))
            .and_then(|h| h.get(name))
            .unwrap_or_else(|| panic!("histogram {name} missing from snapshot"));
        ptolemy_obs::Histogram::from_json(hist).expect("valid histogram JSON")
    }

    #[test]
    fn instrumented_server_records_stage_histograms_and_timelines() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let registry = Arc::new(Registry::new("serve-test"));
        // Band [0, 1]: every request escalates, so the escalate/overlap
        // stages are exercised too.
        let server = Server::builder(screen)
            .escalate(expensive, 0.0, 1.0)
            .workers(1)
            .instrument(registry.clone())
            .start()
            .unwrap();
        let tickets: Vec<Ticket> = fx
            .benign
            .iter()
            .take(6)
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }

        // Tickets resolve *inside* the escalation pass, a moment before the
        // batch timeline is retained — poll briefly for the retain.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let parsed = loop {
            // The snapshot is text-stable: render → parse → same structure.
            let parsed = ptolemy_obs::json::parse(&server.metrics_json().to_json())
                .expect("snapshot parses");
            let retained = parsed
                .get("timelines")
                .and_then(JsonValue::as_array)
                .map_or(0, <[JsonValue]>::len);
            if retained > 0 {
                break parsed;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no batch timeline retained"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(
            parsed
                .get("stats")
                .and_then(|s| s.get("completed"))
                .and_then(JsonValue::as_u64),
            Some(6)
        );
        // One queue-wait observation per batched request; the batch stages
        // recorded at least one batch each.
        assert_eq!(stage_hist(&parsed, "serve.queue_wait_ns").count(), 6);
        for name in [
            "serve.batch_form_ns",
            "serve.screen_ns",
            "serve.escalate[0]_ns",
        ] {
            assert!(
                stage_hist(&parsed, name).count() >= 1,
                "{name} recorded nothing"
            );
        }
        let timelines = parsed
            .get("timelines")
            .and_then(JsonValue::as_array)
            .expect("timelines array");
        assert!(!timelines.is_empty());
        // Every retained timeline carries the core stages in order.
        for timeline in timelines {
            let events = timeline
                .get("events")
                .and_then(JsonValue::as_array)
                .expect("events");
            let stages: Vec<&str> = events
                .iter()
                .filter_map(|e| e.get("stage").and_then(JsonValue::as_str))
                .collect();
            assert!(stages.contains(&"queue_wait"), "{stages:?}");
            assert!(stages.contains(&"batch_form"), "{stages:?}");
            assert!(stages.contains(&"screen"), "{stages:?}");
            assert!(stages.contains(&"escalate[0]"), "{stages:?}");
        }
        // The exported latency histogram counts every completion.
        let latency =
            ptolemy_obs::Histogram::from_json(parsed.get("latency_ns").expect("latency_ns"))
                .expect("valid latency histogram");
        assert_eq!(latency.count(), 6);
        let stats = server.shutdown();
        assert_eq!(stats.escalated, 6);
    }

    #[test]
    fn disabled_registry_gates_stage_instrumentation_but_not_stats() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let registry = Arc::new(Registry::new("serve-gated"));
        registry.set_enabled(false);
        let server = Server::builder(screen)
            .escalate(expensive, 0.0, 1.0)
            .workers(1)
            .instrument(registry.clone())
            .start()
            .unwrap();
        for input in fx.benign.iter().take(4) {
            server.submit(input.clone()).unwrap().wait().unwrap();
        }
        let metrics = server.metrics_json();
        // The handles exist (attached at startup) but the gate kept every
        // stage path silent...
        for name in [
            "serve.queue_wait_ns",
            "serve.batch_form_ns",
            "serve.cache_lookup_ns",
            "serve.screen_ns",
            "serve.escalate[0]_ns",
            "serve.overlap_ns",
        ] {
            assert_eq!(stage_hist(&metrics, name).count(), 0, "{name} not gated");
        }
        assert!(metrics
            .get("timelines")
            .and_then(JsonValue::as_array)
            .expect("timelines array")
            .is_empty());
        // ...while the always-on stats plane kept counting.
        let stats = server.shutdown();
        assert_eq!(stats.completed, 4);
        assert!(stats.p99_latency_ms >= stats.p50_latency_ms);
    }

    #[test]
    fn periodic_snapshot_writes_parseable_metrics_file() {
        let path =
            std::env::temp_dir().join(format!("ptolemy-serve-metrics-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        let registry = Arc::new(Registry::new("serve-snapshot"));
        let server = Server::builder(screen)
            .workers(1)
            .instrument(registry)
            // A long interval: this test relies on the guaranteed final
            // snapshot at shutdown, not on timing.
            .snapshot_to(&path, Duration::from_secs(3600))
            .start()
            .unwrap();
        for input in fx.benign.iter().take(3) {
            server.submit(input.clone()).unwrap().wait().unwrap();
        }
        server.shutdown();
        let text = std::fs::read_to_string(&path).expect("final snapshot written");
        let parsed = ptolemy_obs::json::parse(&text).expect("snapshot file parses");
        assert_eq!(
            parsed
                .get("stats")
                .and_then(|s| s.get("completed"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
        assert!(parsed.get("registry").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uninstrumented_and_gated_servers_agree_with_instrumented_verdicts() {
        // The observability plane must be *observational*: attaching a
        // registry (enabled or not) cannot change a single verdict bit.
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let build = |registry: Option<Arc<Registry>>| {
            let mut builder = Server::builder(screen.clone())
                .escalate(expensive.clone(), 0.25, 0.75)
                .workers(2);
            if let Some(registry) = registry {
                builder = builder.instrument(registry);
            }
            builder.start().unwrap()
        };
        let gated = Arc::new(Registry::new("gated"));
        gated.set_enabled(false);
        let servers = [
            build(None),
            build(Some(Arc::new(Registry::new("on")))),
            build(Some(gated)),
        ];
        let inputs: Vec<Tensor> = fx
            .benign
            .iter()
            .chain(&fx.adversarial)
            .take(10)
            .cloned()
            .collect();
        for input in &inputs {
            let mut verdicts = servers
                .iter()
                .map(|s| s.submit(input.clone()).unwrap().wait().unwrap());
            let first = verdicts.next().unwrap();
            for other in verdicts {
                assert_eq!(first.tier, other.tier);
                assert_eq!(
                    first.detection.score.to_bits(),
                    other.detection.score.to_bits()
                );
                assert_eq!(first.detection, other.detection);
            }
        }
    }
}
