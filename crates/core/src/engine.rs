//! The batched, multi-backend serving API for Ptolemy detection.
//!
//! The paper's online phase is naturally a one-shot call that re-validates the
//! program/class-path pairing on every input.  That is fine for reproducing
//! figures and useless for serving: a deployment binds one network, one
//! [`DetectionProgram`] and one [`ClassPathSet`] at startup and then pushes
//! traffic through them for hours.  [`DetectionEngine`] is that session object:
//!
//! * **validate once** — the program/class-path fingerprint, the path layout and
//!   the backend binding are all checked in [`DetectionEngineBuilder::build`],
//!   never per call;
//! * **configurable decision threshold** — the score cut-off the original
//!   one-shot API hard-coded to `0.5` is a builder knob;
//! * **streamed fused batching** — [`DetectionEngine::detect_batch`] runs one
//!   fused NCHW forward pass over the whole batch (batched `im2col`/matmul
//!   across inputs) and extracts each input's [`ActivationPath`] **while the
//!   pass is still running** ([`crate::extract_paths_streaming_batch`]):
//!   forward programs mask each enabled layer's stacked output as soon as
//!   the layer finishes and release the activation eagerly, backward
//!   programs retain only the boundaries the reverse walk reads — peak
//!   activation memory drops from O(network) to the retained set.  Every
//!   fused kernel preserves the per-input reduction order and the selection
//!   kernels are shared with the materialized pipeline, so batch verdicts
//!   stay **bit-for-bit identical** to the single-input entry points, which
//!   are the same code run on a batch of one.  All of it runs on the
//!   caller's thread;
//! * **one pipeline for both precisions** —
//!   [`DetectionEngine::detect_batch_quantized_with`] screens through an
//!   int8 [`QuantizedNetwork`] built from the engine's own network.  Only the
//!   forward pass differs: the streamed extraction, the per-input error
//!   fallback, the scoring and the stage timing are the f32 code, so int8
//!   detection keeps the same streaming memory bound;
//! * **pluggable cost backends** — a [`DetectionBackend`] prices every batch.
//!   [`SoftwareBackend`] reports the algorithm-level op counts of a pure
//!   software implementation ([`crate::software_cost`]); the `AccelBackend` in
//!   `ptolemy-accel` routes the same program through the compiler and the
//!   cycle/energy model, making the co-designed hardware a first-class serving
//!   backend rather than a separate side analysis.
//!
//! # Example
//!
//! ```
//! use ptolemy_core::{variants, DetectionEngine, Profiler};
//! use ptolemy_nn::{zoo, TrainConfig, Trainer};
//! use ptolemy_tensor::{Rng64, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng64::new(0);
//! let mut net = zoo::mlp_net(&[8], 2, &mut rng)?;
//! let samples: Vec<(Tensor, usize)> = (0..20)
//!     .map(|i| (Tensor::full(&[8], (i % 2) as f32), i % 2))
//!     .collect();
//! Trainer::new(TrainConfig::default()).fit(&mut net, &samples)?;
//!
//! let program = variants::fw_ab(&net, 0.05)?;
//! let class_paths = Profiler::new(program.clone()).profile(&net, &samples)?;
//! let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
//!
//! // Build once (fingerprint validated here), then serve batches.
//! let engine = DetectionEngine::builder(net, program, class_paths)
//!     .threshold(0.6)
//!     .calibrate(&inputs[..8], &inputs[8..16])
//!     .build()?;
//! let verdicts = engine.detect_batch(&inputs)?;
//! assert_eq!(verdicts.len(), inputs.len());
//! assert_eq!(verdicts[0], engine.detect(&inputs[0])?);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use ptolemy_forest::{ForestConfig, RandomForest};
use ptolemy_nn::{Network, QuantizedNetwork};
use ptolemy_obs::{Counter, HistogramHandle, Registry};
use ptolemy_tensor::Tensor;

use crate::extraction::{f32_pass, path_layout, stream_batch_with, ForwardPass, FUSED_CHUNK};
use crate::{
    software_cost, ActivationPath, ClassPathSet, CoreError, DetectionProgram, Result,
    SoftwareCostReport,
};

/// The decision threshold the original one-shot detection API hard-coded.
pub const DEFAULT_THRESHOLD: f32 = 0.5;

/// Result of detecting one input at inference time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Final verdict of the random-forest classifier.
    pub is_adversary: bool,
    /// Adversarial probability reported by the classifier (higher = more suspicious).
    pub score: f32,
    /// Path similarity `S` between the input's activation path and the canary path
    /// of its predicted class.
    pub similarity: f32,
    /// The class the DNN predicted for the input.
    pub predicted_class: usize,
}

/// Computes the `(predicted class, path similarity)` pair for one input — the
/// stateless primitive behind both the engine and ROC-style sweeps that score
/// raw similarities without fitting a classifier.
///
/// Unlike the engine's internal path this validates the program/class-path
/// fingerprint on every call, because nothing else guarantees the pairing.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProgram`] if the class paths were not profiled
/// with `program`, and propagates extraction errors.
pub fn path_similarity(
    network: &Network,
    program: &DetectionProgram,
    class_paths: &ClassPathSet,
    input: &Tensor,
) -> Result<(usize, f32)> {
    if class_paths.program_fingerprint != program.fingerprint() {
        return Err(CoreError::InvalidProgram(format!(
            "class paths were profiled with '{}' but detection uses '{}'",
            class_paths.program_fingerprint,
            program.fingerprint()
        )));
    }
    let (predicted, similarity, _) = only(trace_path_batch(
        network,
        &f32_pass(network),
        program,
        class_paths,
        std::slice::from_ref(input),
    ))?;
    Ok((predicted, similarity))
}

/// The one scoring core behind every entry point, f32 and int8: streamed
/// inference + extraction + similarity for each input, with no fingerprint
/// check.  Returns `(predicted class, similarity, activation path)` per
/// input.
///
/// The batch runs as one fused pass of `forward` ([`stream_batch_with`] —
/// forward programs mask each stacked boundary as the layer finishes and
/// drop it, backward programs retain only the boundaries the reverse walk
/// reads), with path-similarity scoring completing each sample.  If the
/// fused pass itself fails (a mis-shaped input), every input streams as its
/// own batch of one, so a bad input fails alone with its exact error while
/// the rest are still served.
fn trace_path_batch(
    network: &Network,
    forward: &ForwardPass<'_>,
    program: &DetectionProgram,
    class_paths: &ClassPathSet,
    inputs: &[Tensor],
) -> Vec<Result<(usize, f32, ActivationPath)>> {
    let finish = |predicted: usize, path: ActivationPath| -> Result<(usize, f32, ActivationPath)> {
        let similarity = path.similarity(class_paths.class_path(predicted)?)?;
        Ok((predicted, similarity, path))
    };
    let stream = |batch: &[Tensor]| stream_batch_with(network, forward, program, batch, &finish);
    match stream(inputs) {
        Ok((samples, _logits, _footprint)) => samples,
        Err(_) => inputs
            .iter()
            .map(|input| only(stream(std::slice::from_ref(input))?.0))
            .collect(),
    }
}

/// The single result of a batch of one.
fn only<T>(results: Vec<Result<T>>) -> Result<T> {
    results.into_iter().next().unwrap_or_else(|| {
        Err(CoreError::InvalidInput(
            "a batch of one produced no result".into(),
        ))
    })
}

/// Cost estimate a [`DetectionBackend`] attaches to one served batch.
///
/// Fields are optional because backends model different things: the software
/// backend reports algorithm-level operation counts, the accelerator backend
/// reports modelled latency/energy.  Whatever the substrate, an estimate
/// always prices the **whole batch as one program** — the fused execution
/// model [`DetectionEngine::detect_batch`] actually runs — never `batch_size`
/// independent single-input passes a consumer would have to multiply out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendEstimate {
    /// Name of the backend that produced the estimate.
    pub backend: &'static str,
    /// Number of inputs in the batch the estimate covers.
    pub batch_size: usize,
    /// Algorithm-level op/memory counts of the whole batched detection pass
    /// (software backend).
    pub software: Option<SoftwareCostReport>,
    /// Modelled wall-clock latency for the whole batch, in milliseconds.
    pub latency_ms: Option<f64>,
    /// Modelled energy for the whole batch, in picojoules.
    pub energy_pj: Option<f64>,
    /// Per-input latency relative to plain inference (`1.0` = fully hidden).
    pub latency_factor: Option<f64>,
    /// Per-input energy relative to plain inference.
    pub energy_factor: Option<f64>,
}

/// A serving backend: binds to the engine's network + program once at build
/// time and prices every batch the engine serves.
///
/// The *functional* result of detection is backend-independent by construction
/// (the engine computes it once, in `ptolemy-core`); what a backend models is
/// the execution substrate — how much a batch costs where.  `ptolemy-accel`
/// implements this trait for the co-designed hardware.
pub trait DetectionBackend: std::fmt::Debug + Send + Sync {
    /// Short backend name used in reports (e.g. `"software"`, `"accel"`).
    fn name(&self) -> &'static str;

    /// Binds the backend to the engine's network and program.  Called exactly
    /// once, from [`DetectionEngineBuilder::build`]; expensive specialisation
    /// (compilation, schedule construction) belongs here.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Backend`] if the backend cannot serve the program.
    fn bind(&mut self, network: &Network, program: &DetectionProgram) -> Result<()>;

    /// Estimates the cost of serving a batch of `batch_size` inputs whose mean
    /// activation-path density was `mean_density`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Backend`] if the backend was never bound or the
    /// cost model rejects the program.
    fn estimate_batch(
        &self,
        network: &Network,
        program: &DetectionProgram,
        batch_size: usize,
        mean_density: f32,
    ) -> Result<BackendEstimate>;
}

/// The pure-software backend: detection runs as ordinary `ptolemy-core`
/// compute, and batches are priced with the paper's Sec. III-B software cost
/// model ([`crate::software_cost`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftwareBackend;

impl DetectionBackend for SoftwareBackend {
    fn name(&self) -> &'static str {
        "software"
    }

    fn bind(&mut self, network: &Network, program: &DetectionProgram) -> Result<()> {
        path_layout(network, program).map(|_| ())
    }

    fn estimate_batch(
        &self,
        network: &Network,
        program: &DetectionProgram,
        batch_size: usize,
        mean_density: f32,
    ) -> Result<BackendEstimate> {
        // Price the batch as the single fused program it executes as: every
        // op/memory count scales with the batch size (the fused im2col/matmul
        // widens the patch matrix B-fold; extraction runs per input).
        let report = software_cost(network, program, mean_density)?.scaled(batch_size as u64);
        Ok(BackendEstimate {
            backend: self.name(),
            batch_size,
            software: Some(report),
            ..BackendEstimate::default()
        })
    }
}

/// The engine's hook into a [`Registry`]: pre-resolved handles for the two
/// detection stages (streamed trace+extraction vs classifier scoring) so the
/// hot path never touches the registry's name maps.
#[derive(Debug)]
struct EngineObs {
    registry: Arc<Registry>,
    trace_ns: HistogramHandle,
    score_ns: HistogramHandle,
    detections: Counter,
}

impl EngineObs {
    fn attach(registry: Arc<Registry>) -> EngineObs {
        EngineObs {
            trace_ns: registry.histogram("core.trace_ns"),
            score_ns: registry.histogram("core.score_ns"),
            detections: registry.counter("core.detections"),
            registry,
        }
    }
}

/// A detection session: network + program + class paths + classifier + backend,
/// bound and validated once, then driven per input or per batch, in f32 or int8.
///
/// Built via [`DetectionEngine::builder`].  See the [module docs](self) for the
/// design rationale and an end-to-end example.
#[derive(Debug)]
pub struct DetectionEngine {
    network: Arc<Network>,
    program: DetectionProgram,
    class_paths: ClassPathSet,
    forest: Option<RandomForest>,
    threshold: f32,
    backend: Box<dyn DetectionBackend>,
    obs: Option<EngineObs>,
}

impl DetectionEngine {
    /// Starts building an engine from the offline artifacts.
    ///
    /// `network` is shared, not copied: pass an owned [`Network`] or an
    /// existing `Arc<Network>`.
    pub fn builder(
        network: impl Into<Arc<Network>>,
        program: DetectionProgram,
        class_paths: ClassPathSet,
    ) -> DetectionEngineBuilder {
        DetectionEngineBuilder {
            network: network.into(),
            program,
            class_paths,
            forest: None,
            forest_config: ForestConfig::default(),
            calibration: None,
            threshold: DEFAULT_THRESHOLD,
            backend: Box::new(SoftwareBackend),
            registry: None,
        }
    }

    /// `(predicted class, path similarity)` of one input, skipping the per-call
    /// fingerprint check the stateless [`path_similarity`] function needs — the
    /// pairing was validated when the engine was built.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn path_similarity(&self, input: &Tensor) -> Result<(usize, f32)> {
        let (predicted, similarity, _) = only(trace_path_batch(
            &self.network,
            &f32_pass(&self.network),
            &self.program,
            &self.class_paths,
            std::slice::from_ref(input),
        ))?;
        Ok((predicted, similarity))
    }

    /// Detects whether one input is adversarial: [`DetectionEngine::detect_batch`]
    /// on a batch of one, so the verdict is bit-for-bit the input's entry in
    /// any batch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the engine was built without a
    /// classifier, and propagates extraction/classifier errors.
    pub fn detect(&self, input: &Tensor) -> Result<Detection> {
        only(self.detect_batch_with_paths(std::slice::from_ref(input))).map(|(d, _)| d)
    }

    /// Detects a whole batch through **one streamed fused forward pass**: the
    /// inputs are stacked into a single NCHW batch, every layer executes its
    /// batched kernel (`im2col`/matmul across all inputs at once), and each
    /// input's activation path is extracted *as the pass runs* — stacked
    /// boundaries are masked and released eagerly instead of materialising
    /// the whole trace (see [`crate::extract_paths_streaming_batch`]).
    ///
    /// `detect_batch(xs)?[i]` is bit-for-bit identical to `detect(&xs[i])?`:
    /// every fused kernel preserves the per-input reduction order, and the
    /// sliced traces feed the same scoring code as the single-input path.
    ///
    /// # Errors
    ///
    /// Returns the first per-input error, if any.
    pub fn detect_batch(&self, inputs: &[Tensor]) -> Result<Vec<Detection>> {
        self.detect_batch_with_paths(inputs)
            .into_iter()
            .map(|r| r.map(|(d, _)| d))
            .collect()
    }

    /// Like [`DetectionEngine::detect_batch`], additionally returning each
    /// input's extracted [`ActivationPath`] and keeping per-input error
    /// granularity (one mis-shaped input fails alone instead of failing the
    /// batch) — the hook serving layers use to run whole formed batches
    /// through the fused trace while still keying result caches on
    /// [`ActivationPath::prefix_fingerprint`].
    pub fn detect_batch_with_paths(
        &self,
        inputs: &[Tensor],
    ) -> Vec<Result<(Detection, ActivationPath)>> {
        self.judge_timed(&f32_pass(&self.network), inputs)
    }

    /// Detects a whole batch through **one fused int8 forward pass** of
    /// `qnet`, streaming extraction exactly as
    /// [`DetectionEngine::detect_batch_with_paths`] does in f32: only the
    /// forward pass differs, so forward programs retain no activation and
    /// backward programs only their planned boundaries.
    ///
    /// Unlike the f32 entry points this is *not* bit-parity pinned against
    /// f32 detection: int8 rounding perturbs activations, so the predicted
    /// class and extracted path may differ — by design.  The behavioural
    /// contract (activation-path agreement rate, detection-AUC delta) is
    /// measured by the `quantized_detect` benchmark.  The quantized pass is
    /// exactly deterministic (i32 accumulation), and sample `i` of a batch is
    /// bit-for-bit its batch of one.
    ///
    /// `qnet` must have been quantized from *this engine's* network instance
    /// (`QuantizedNetwork::quantize(network_arc, calibration)` over the same
    /// `Arc<Network>`): the verdict compares the quantized path against this
    /// engine's canary paths, which only makes sense for the same weights.
    /// Otherwise every input fails with [`CoreError::InvalidInput`].
    pub fn detect_batch_quantized_with(
        &self,
        qnet: &QuantizedNetwork,
        inputs: &[Tensor],
    ) -> Vec<Result<(Detection, ActivationPath)>> {
        if !std::ptr::eq(qnet.network().as_ref(), self.network.as_ref()) {
            return inputs
                .iter()
                .map(|_| {
                    Err(CoreError::InvalidInput(
                        "quantized network was calibrated from a different network \
                         instance than this engine serves"
                            .into(),
                    ))
                })
                .collect();
        }
        self.judge_timed(
            &|batch: &[Tensor], sink: &mut dyn ptolemy_nn::TraceSink| {
                qnet.forward_with_sink_batch(batch, sink)
            },
            inputs,
        )
    }

    /// The one stage-timing site of every detection entry point: runs
    /// [`trace_path_batch`] through `forward` (inference + extraction +
    /// similarity), judges each result, and — while the registry is enabled
    /// — records `core.trace_ns`, `core.score_ns` and `core.detections`.
    fn judge_timed(
        &self,
        forward: &ForwardPass<'_>,
        inputs: &[Tensor],
    ) -> Vec<Result<(Detection, ActivationPath)>> {
        let obs = self.stage_obs();
        let start = obs.map(|o| o.registry.clock().now_ns());
        let traced = trace_path_batch(
            &self.network,
            forward,
            &self.program,
            &self.class_paths,
            inputs,
        );
        let mid = if let (Some(o), Some(start)) = (obs, start) {
            let now = o.registry.clock().now_ns();
            o.trace_ns.record(now.saturating_sub(start));
            Some(now)
        } else {
            None
        };
        let verdicts: Vec<Result<(Detection, ActivationPath)>> = traced
            .into_iter()
            .map(|r| {
                let (predicted, similarity, path) = r?;
                Ok((self.judge(predicted, similarity)?, path))
            })
            .collect();
        if let (Some(o), Some(mid)) = (obs, mid) {
            o.score_ns
                .record(o.registry.clock().now_ns().saturating_sub(mid));
            o.detections.add(verdicts.len() as u64);
        }
        verdicts
    }

    /// Like [`DetectionEngine::detect_batch`], additionally pricing the batch
    /// on the engine's backend (using the batch's mean activation-path density,
    /// which is what the hardware model's sort/accumulate cost scales with).
    /// The backend prices the **whole fused batch as one program**, mirroring
    /// how the batch actually executes.
    ///
    /// # Errors
    ///
    /// Returns the first per-input error or a backend error.
    pub fn detect_batch_with_estimate(
        &self,
        inputs: &[Tensor],
    ) -> Result<(Vec<Detection>, BackendEstimate)> {
        let detected: Vec<(Detection, f32)> = self
            .detect_batch_with_paths(inputs)
            .into_iter()
            .map(|r| r.map(|(d, path)| (d, path.density())))
            .collect::<Result<_>>()?;
        let mean_density = if detected.is_empty() {
            0.0
        } else {
            detected.iter().map(|(_, d)| d).sum::<f32>() / detected.len() as f32
        };
        let estimate = self.backend.estimate_batch(
            &self.network,
            &self.program,
            detected.len(),
            mean_density,
        )?;
        Ok((detected.into_iter().map(|(d, _)| d).collect(), estimate))
    }

    /// Adversarial probability of one input.
    ///
    /// # Errors
    ///
    /// See [`DetectionEngine::detect`].
    pub fn score(&self, input: &Tensor) -> Result<f32> {
        Ok(self.detect(input)?.score)
    }

    /// Prices a hypothetical batch on the backend without running detection
    /// (used by capacity planning and the figure harnesses).
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn estimate_batch(&self, batch_size: usize, mean_density: f32) -> Result<BackendEstimate> {
        self.backend
            .estimate_batch(&self.network, &self.program, batch_size, mean_density)
    }

    /// The single scoring step shared by every detection entry point — the
    /// source of their bit-for-bit parity.
    fn judge(&self, predicted_class: usize, similarity: f32) -> Result<Detection> {
        let forest = self.forest.as_ref().ok_or_else(|| {
            CoreError::InvalidInput(
                "engine was built without a classifier; add .forest(..) or .calibrate(..)".into(),
            )
        })?;
        let score = forest.predict_proba(&[similarity])?;
        Ok(Detection {
            is_adversary: score >= self.threshold,
            score,
            similarity,
            predicted_class,
        })
    }

    /// The attached observability hook, only while its registry is enabled —
    /// the disabled path costs one relaxed atomic load.
    fn stage_obs(&self) -> Option<&EngineObs> {
        self.obs.as_ref().filter(|o| o.registry.enabled())
    }

    /// The network this engine serves.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The extraction program this engine runs.
    pub fn program(&self) -> &DetectionProgram {
        &self.program
    }

    /// The canary class paths this engine compares against.
    pub fn class_paths(&self) -> &ClassPathSet {
        &self.class_paths
    }

    /// The build-time program/class-path fingerprint of this engine (the one
    /// [`DetectionEngineBuilder::build`] validated; identical to
    /// `self.program().fingerprint()` and
    /// `self.class_paths().program_fingerprint`).
    ///
    /// Serving layers use it to tell engines apart — a result cache must not be
    /// shared between engines with different fingerprints, and a router can
    /// verify at construction that its tiers were built from compatible
    /// artifacts.
    pub fn fingerprint(&self) -> &str {
        // The builder verified this equals `self.program.fingerprint()`.
        &self.class_paths.program_fingerprint
    }

    /// The fitted classifier, if the engine has one.
    pub fn forest(&self) -> Option<&RandomForest> {
        self.forest.as_ref()
    }

    /// The decision threshold applied to classifier scores.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Name of the cost backend serving this engine.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }
}

/// Builder for [`DetectionEngine`]; all validation happens in
/// [`DetectionEngineBuilder::build`].
#[derive(Debug)]
pub struct DetectionEngineBuilder {
    network: Arc<Network>,
    program: DetectionProgram,
    class_paths: ClassPathSet,
    forest: Option<RandomForest>,
    forest_config: ForestConfig,
    calibration: Option<(Vec<Tensor>, Vec<Tensor>)>,
    threshold: f32,
    backend: Box<dyn DetectionBackend>,
    registry: Option<Arc<Registry>>,
}

impl DetectionEngineBuilder {
    /// Sets the decision threshold (default [`DEFAULT_THRESHOLD`]): inputs with
    /// classifier score `>= threshold` are flagged adversarial.
    pub fn threshold(mut self, threshold: f32) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the cost backend (default [`SoftwareBackend`]).
    pub fn backend(mut self, backend: Box<dyn DetectionBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Supplies an already-fitted classifier (takes precedence over
    /// [`DetectionEngineBuilder::calibrate`]).
    pub fn forest(mut self, forest: RandomForest) -> Self {
        self.forest = Some(forest);
        self
    }

    /// Sets the forest configuration used when fitting from calibration sets
    /// (default: the paper's 100 trees of depth 12).
    pub fn forest_config(mut self, config: ForestConfig) -> Self {
        self.forest_config = config;
        self
    }

    /// Attaches a metrics registry: the engine records its per-detection
    /// stage breakdown — `core.trace_ns` (streamed forward pass + path
    /// extraction + similarity) and `core.score_ns` (classifier scoring) —
    /// plus a `core.detections` counter into it whenever
    /// [`ptolemy_obs::Registry::enabled`] holds.  Without a registry (the
    /// default) the engine does no timing at all.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Supplies benign and adversarial calibration inputs; `build` fits the
    /// classifier from their path similarities (one feature per input, matching
    /// the paper's lightweight classification module, Sec. III-B).
    pub fn calibrate(mut self, benign: &[Tensor], adversarial: &[Tensor]) -> Self {
        self.calibration = Some((benign.to_vec(), adversarial.to_vec()));
        self
    }

    /// Finalises the engine: validates the threshold, the program/class-path
    /// fingerprint and the path layout, binds the backend, and fits the
    /// classifier if calibration sets were supplied.
    ///
    /// Engines built with neither [`DetectionEngineBuilder::forest`] nor
    /// [`DetectionEngineBuilder::calibrate`] serve raw path similarities only;
    /// their `detect*` methods return an error.
    ///
    /// A *shard* of a canary set ([`ClassPathSet::shard`]) builds exactly like
    /// the complete set — shards keep the full positional structure, so every
    /// validation here applies unchanged — but the resulting engine refuses
    /// (with [`CoreError::InvalidInput`]) to score inputs whose predicted
    /// class the shard does not own.  Because of that, shard engines should be
    /// given the complete engine's fitted classifier via
    /// [`DetectionEngineBuilder::forest`] (and its threshold) rather than
    /// re-calibrated: calibration inputs predicting non-owned classes would
    /// error, and bit-for-bit parity with the complete engine requires the
    /// identical forest anyway.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidProgram`] on a fingerprint or layout
    /// mismatch, [`CoreError::InvalidInput`] on empty calibration sets, and
    /// [`CoreError::Backend`] if the backend rejects the program.
    pub fn build(mut self) -> Result<DetectionEngine> {
        if !self.threshold.is_finite() || !(0.0..=1.0).contains(&self.threshold) {
            return Err(CoreError::InvalidProgram(format!(
                "decision threshold {} outside [0, 1]",
                self.threshold
            )));
        }
        if self.class_paths.program_fingerprint != self.program.fingerprint() {
            return Err(CoreError::InvalidProgram(format!(
                "class paths were profiled with '{}' but the engine binds '{}'",
                self.class_paths.program_fingerprint,
                self.program.fingerprint()
            )));
        }
        // The fingerprint pins the program, not the network: class paths
        // profiled on a different network can carry the same fingerprint with
        // different mask layouts or class counts.  Check the structure here so
        // serving never fails per call.
        let layout = path_layout(&self.network, &self.program)?;
        if self.class_paths.num_classes() != self.network.num_classes() {
            return Err(CoreError::InvalidProgram(format!(
                "class paths cover {} classes but the network predicts {}",
                self.class_paths.num_classes(),
                self.network.num_classes()
            )));
        }
        for class_path in &self.class_paths.class_paths {
            let segments = class_path.path().segments();
            let mismatched = segments.len() != layout.len()
                || segments
                    .iter()
                    .zip(&layout)
                    .any(|(seg, (layer, len))| seg.layer != *layer || seg.mask.len() != *len);
            if mismatched {
                return Err(CoreError::InvalidProgram(format!(
                    "canary path of class {} does not match the engine's path \
                     layout (were the class paths profiled on a different network?)",
                    class_path.class
                )));
            }
        }
        self.backend.bind(&self.network, &self.program)?;

        let forest = match (self.forest, self.calibration) {
            (Some(forest), _) => Some(forest),
            (None, Some((benign, adversarial))) => {
                if benign.is_empty() || adversarial.is_empty() {
                    return Err(CoreError::InvalidInput(
                        "calibration requires both benign and adversarial inputs".into(),
                    ));
                }
                let forward = f32_pass(&self.network);
                let mut features = Vec::with_capacity(benign.len() + adversarial.len());
                let mut labels = Vec::with_capacity(benign.len() + adversarial.len());
                for (inputs, is_adversarial) in [(&benign, false), (&adversarial, true)] {
                    // Calibration runs through the same fused batch trace as
                    // serving, so the fitted forest sees bit-identical
                    // similarities either way.  Chunked: a fused trace holds
                    // every layer's stacked activations at once, so fusing an
                    // arbitrarily large calibration set in one shot would make
                    // peak memory O(set size × total activations).
                    for chunk in inputs.chunks(FUSED_CHUNK) {
                        let similarities = trace_path_batch(
                            &self.network,
                            &forward,
                            &self.program,
                            &self.class_paths,
                            chunk,
                        );
                        for similarity in similarities {
                            features.push(vec![similarity.map(|(_, s, _)| s)?]);
                            labels.push(is_adversarial);
                        }
                    }
                }
                Some(RandomForest::fit(&features, &labels, &self.forest_config)?)
            }
            (None, None) => None,
        };

        Ok(DetectionEngine {
            network: self.network,
            program: self.program,
            class_paths: self.class_paths,
            forest,
            threshold: self.threshold,
            backend: self.backend,
            obs: self.registry.map(EngineObs::attach),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{variants, Profiler};
    use ptolemy_nn::{zoo, TrainConfig, Trainer};
    use ptolemy_tensor::Rng64;

    /// `(network, training samples, benign inputs, adversarial inputs)`.
    type Setup = (Network, Vec<(Tensor, usize)>, Vec<Tensor>, Vec<Tensor>);

    fn setup() -> Setup {
        let mut rng = Rng64::new(23);
        let prototypes: Vec<Vec<f32>> = vec![
            (0..8).map(|d| if d < 4 { 1.0 } else { 0.0 }).collect(),
            (0..8).map(|d| if d < 4 { 0.0 } else { 1.0 }).collect(),
        ];
        let mut samples = Vec::new();
        for (class, prototype) in prototypes.iter().enumerate() {
            for _ in 0..25 {
                let data: Vec<f32> = prototype.iter().map(|v| v + 0.08 * rng.normal()).collect();
                samples.push((Tensor::from_vec(data, &[8]).unwrap(), class));
            }
        }
        let mut net = zoo::mlp_net(&[8], 2, &mut rng).unwrap();
        Trainer::new(TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        })
        .fit(&mut net, &samples)
        .unwrap();

        let benign: Vec<Tensor> = samples.iter().take(20).map(|(x, _)| x.clone()).collect();
        let mut adversarial = Vec::new();
        for (x, y) in samples.iter().take(20) {
            let other = 1 - *y;
            let data: Vec<f32> = x
                .as_slice()
                .iter()
                .zip(&prototypes[other])
                .map(|(a, b)| a + 1.2 * b)
                .collect();
            adversarial.push(Tensor::from_vec(data, &[8]).unwrap());
        }
        (net, samples, benign, adversarial)
    }

    #[test]
    fn engine_detects_and_batches_consistently() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let engine = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &adversarial)
            .build()
            .unwrap();

        assert_eq!(engine.fingerprint(), engine.program().fingerprint());
        assert_eq!(
            engine.fingerprint(),
            engine.class_paths().program_fingerprint
        );

        let all: Vec<Tensor> = benign.iter().chain(&adversarial).cloned().collect();
        let batch = engine.detect_batch(&all).unwrap();
        assert_eq!(batch.len(), all.len());
        for (input, batched) in all.iter().zip(&batch) {
            assert_eq!(*batched, engine.detect(input).unwrap());
            // A batch of one with paths shares the detect code path
            // bit-for-bit and returns a path whose prefix fingerprint is
            // stable.
            let one = std::slice::from_ref(input);
            let (traced, path) = only(engine.detect_batch_with_paths(one)).unwrap();
            assert_eq!(traced.score.to_bits(), batched.score.to_bits());
            assert_eq!(traced.similarity.to_bits(), batched.similarity.to_bits());
            assert!(path.count_ones() > 0);
            let (_, again) = only(engine.detect_batch_with_paths(one)).unwrap();
            assert_eq!(path.prefix_fingerprint(2), again.prefix_fingerprint(2));
            assert_eq!(
                engine.score(input).unwrap().to_bits(),
                batched.score.to_bits()
            );
        }

        // The software backend prices the batch with algorithm-level counts.
        let (again, estimate) = engine.detect_batch_with_estimate(&all).unwrap();
        assert_eq!(again, batch);
        assert_eq!(estimate.backend, "software");
        assert_eq!(estimate.batch_size, all.len());
        let software = estimate.software.expect("software cost report");
        assert!(software.inference_macs > 0);
        assert!(estimate.latency_ms.is_none());
        assert_eq!(engine.backend_name(), "software");
    }

    /// The int8 verdict of one input: its batch of one.
    fn detect_int8(engine: &DetectionEngine, qnet: &QuantizedNetwork, input: &Tensor) -> Detection {
        only(engine.detect_batch_quantized_with(qnet, std::slice::from_ref(input)))
            .unwrap()
            .0
    }

    #[test]
    fn quantized_mode_detects_deterministically_and_mostly_agrees_with_f32() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let net = Arc::new(net);
        let engine = DetectionEngine::builder(Arc::clone(&net), program, class_paths)
            .calibrate(&benign, &adversarial)
            .build()
            .unwrap();
        assert!(QuantizedNetwork::quantize(Arc::clone(&net), &[]).is_err());
        let qnet = QuantizedNetwork::quantize(net, &benign).unwrap();
        assert!(qnet.num_quantized_layers() >= 2);

        let mut verdict_agree = 0;
        for input in benign.iter().chain(&adversarial) {
            let f = engine.detect(input).unwrap();
            let q = detect_int8(&engine, &qnet, input);
            // The quantized path is exactly deterministic.
            let q2 = detect_int8(&engine, &qnet, input);
            assert_eq!(q.score.to_bits(), q2.score.to_bits());
            assert_eq!(q.similarity.to_bits(), q2.similarity.to_bits());
            if q.is_adversary == f.is_adversary {
                verdict_agree += 1;
            }
        }
        // int8 rounding may flip a handful of verdicts, never most of them.
        let total = benign.len() + adversarial.len();
        assert!(
            verdict_agree * 10 >= total * 8,
            "only {verdict_agree}/{total} verdicts agree"
        );
    }

    #[test]
    fn batched_quantized_detection_is_bit_identical_to_single() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let net = Arc::new(net);
        let engine = DetectionEngine::builder(Arc::clone(&net), program, class_paths)
            .calibrate(&benign, &adversarial)
            .build()
            .unwrap();
        let qnet = QuantizedNetwork::quantize(net, &benign).unwrap();

        let all: Vec<Tensor> = benign.iter().chain(&adversarial).cloned().collect();
        let batch = engine.detect_batch_quantized_with(&qnet, &all);
        assert_eq!(batch.len(), all.len());
        for (input, batched) in all.iter().zip(batch) {
            let (batched, path) = batched.unwrap();
            let single = detect_int8(&engine, &qnet, input);
            assert_eq!(single.score.to_bits(), batched.score.to_bits());
            assert_eq!(single.similarity.to_bits(), batched.similarity.to_bits());
            assert_eq!(single.predicted_class, batched.predicted_class);
            assert_eq!(single.is_adversary, batched.is_adversary);
            assert!(path.count_ones() > 0);
        }

        // A mis-shaped input fails alone; the rest of the batch still serves.
        let mut mixed = all[..3].to_vec();
        mixed.push(Tensor::zeros(&[3]));
        let results = engine.detect_batch_quantized_with(&qnet, &mixed);
        assert!(results[..3].iter().all(Result::is_ok));
        assert!(results[3].is_err());

        // A qnet calibrated from a different network instance is rejected
        // per input, never silently scored.
        let (other_net, _, other_benign, _) = setup();
        let foreign = QuantizedNetwork::quantize(Arc::new(other_net), &other_benign[..4]).unwrap();
        let rejected = engine.detect_batch_quantized_with(&foreign, &all[..2]);
        assert_eq!(rejected.len(), 2);
        assert!(rejected.iter().all(Result::is_err));
    }

    #[test]
    fn registry_records_stage_breakdown_and_the_gate_silences_it() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let registry = Arc::new(Registry::new("core-test"));
        let engine = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &adversarial)
            .registry(Arc::clone(&registry))
            .build()
            .unwrap();

        // Calibration happens before the engine exists, so nothing yet.
        assert_eq!(registry.counter("core.detections").get(), 0);

        let baseline = engine.detect(&benign[0]).unwrap();
        engine.detect_batch(&benign[..3]).unwrap();
        assert_eq!(registry.counter("core.detections").get(), 4);
        let trace = registry.histogram("core.trace_ns").snapshot();
        let score = registry.histogram("core.score_ns").snapshot();
        // One per detect call plus one per batch call.
        assert_eq!(trace.count(), 2);
        assert_eq!(score.count(), 2);

        // Disabling the registry stops recording without changing verdicts.
        registry.set_enabled(false);
        let silent = engine.detect(&benign[0]).unwrap();
        assert_eq!(silent, baseline);
        assert_eq!(registry.counter("core.detections").get(), 4);
        assert_eq!(registry.histogram("core.trace_ns").snapshot().count(), 2);
    }

    #[test]
    fn threshold_knob_changes_the_verdict_not_the_score() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let net = Arc::new(net);

        let strict = DetectionEngine::builder(net.clone(), program.clone(), class_paths.clone())
            .calibrate(&benign, &adversarial)
            .threshold(0.0)
            .build()
            .unwrap();
        let lenient = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &adversarial)
            .threshold(1.0)
            .build()
            .unwrap();
        assert_eq!(strict.threshold(), 0.0);

        for input in benign.iter().chain(&adversarial) {
            let s = strict.detect(input).unwrap();
            let l = lenient.detect(input).unwrap();
            // Same forest fit (same calibration, deterministic) -> same score.
            assert!((s.score - l.score).abs() < 1e-6);
            // Threshold 0.0 flags everything; 1.0 only flags certain scores.
            assert!(s.is_adversary);
            assert_eq!(l.is_adversary, l.score >= 1.0);
        }
    }

    #[test]
    fn build_rejects_mismatched_fingerprints_and_bad_thresholds() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let other = variants::bw_cu(&net, 0.9).unwrap();
        let net = Arc::new(net);

        let err = DetectionEngine::builder(net.clone(), other, class_paths.clone())
            .calibrate(&benign, &adversarial)
            .build();
        assert!(matches!(err, Err(CoreError::InvalidProgram(_))));

        let err = DetectionEngine::builder(net.clone(), program.clone(), class_paths.clone())
            .threshold(1.5)
            .build();
        assert!(matches!(err, Err(CoreError::InvalidProgram(_))));

        let err = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &[])
            .build();
        assert!(matches!(err, Err(CoreError::InvalidInput(_))));
    }

    #[test]
    fn forestless_engine_serves_similarities_but_not_verdicts() {
        let (net, samples, benign, _) = setup();
        let program = variants::fw_ab(&net, 0.3).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let engine = DetectionEngine::builder(net, program, class_paths)
            .build()
            .unwrap();
        assert!(engine.forest().is_none());
        let (class, similarity) = engine.path_similarity(&benign[0]).unwrap();
        assert!(class < 2);
        assert!((0.0..=1.0).contains(&similarity));
        assert!(matches!(
            engine.detect(&benign[0]),
            Err(CoreError::InvalidInput(_))
        ));
        // Capacity-planning estimates still work without a classifier.
        let estimate = engine.estimate_batch(32, 0.05).unwrap();
        assert_eq!(estimate.batch_size, 32);
        assert!(estimate.software.is_some());
    }

    #[test]
    fn stateless_path_similarity_still_checks_fingerprints() {
        let (net, samples, benign, _) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let (class, s) = path_similarity(&net, &program, &class_paths, &benign[0]).unwrap();
        assert!(class < 2);
        assert!((0.0..=1.0).contains(&s));
        let other = variants::bw_cu(&net, 0.9).unwrap();
        assert!(path_similarity(&net, &other, &class_paths, &benign[0]).is_err());
    }
}
