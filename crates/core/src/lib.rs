//! # ptolemy-core
//!
//! The Ptolemy adversarial-sample detection framework (the paper's primary
//! contribution, Sec. III): activation paths, class paths, the important-neuron
//! extraction algorithms with their three knobs (extraction direction, thresholding
//! mechanism, selective extraction), offline class-path profiling, and the online
//! detector that combines path similarity with a random-forest classifier.
//!
//! The crate is purely *functional*: it computes what the Ptolemy hardware would
//! compute.  The cost of executing a detection program on the co-designed hardware
//! is modelled separately by `ptolemy-compiler` + `ptolemy-accel`, which consume the
//! same [`DetectionProgram`] description.
//!
//! # Pipeline
//!
//! ```text
//!  offline                                     online (serving)
//!  ───────                                     ────────────────
//!  training set ──► Profiler ──► ClassPathSet ─┐
//!                                              ├─► DetectionEngine::builder(..)
//!  benign + adversarial calibration set ───────┘      .threshold(..)
//!                                                     .backend(..)     ◄ software | accel
//!                                                     .build()?        ◄ fingerprint checked once
//!                                                        │
//!      detect(&x) / detect_batch(&xs) / detect_batch_quantized_with(&qnet, &xs)
//!                                                        ▼
//!                                          Detection { is_adversary, … }
//!                                          + BackendEstimate per batch
//! ```
//!
//! [`DetectionEngine`] is the only online surface (the historical one-shot
//! `Detector` shim is gone): bind once, then drive per input or per fused
//! NCHW batch, in f32 or through an int8 [`ptolemy_nn::QuantizedNetwork`]
//! (see [`engine`]).  A single input is a batch of one.
//!
//! # Streaming extraction
//!
//! Extraction no longer materialises a full forward trace.  The engine (and
//! the offline [`Profiler`]) run one streaming pipeline — the one behind
//! [`extract_path_streaming`] / [`extract_paths_streaming_batch`] — which
//! plugs a path extractor into the forward pass itself via
//! [`ptolemy_nn::TraceSink`].  The forward pass is a parameter of that
//! pipeline, so f32 and int8 detection share it and only the per-layer
//! kernels differ:
//!
//! * **forward programs** select each enabled layer's important neurons the
//!   moment the layer finishes and release the activation immediately,
//!   holding O(largest layer) instead of O(network) activation bytes
//!   (Sec. III-C's compiler insight; the overlap of that selection with the
//!   next layer's compute is modelled by `ptolemy-compiler` and
//!   `ptolemy-accel`, while the CPU path runs it on the caller's thread);
//! * **backward programs** retain only the boundaries the reverse walk reads
//!   (enabled weight layers' inputs/outputs plus data-dependently-routed
//!   pass-through inputs such as max-pool windows) and drop everything else
//!   in flight; early-termination programs never retain layers below their
//!   cut.
//!
//! Streamed extraction is **bit-for-bit identical** to the materialized
//! [`extract_path`] pipeline (same driver, same selection kernels, same
//! tensors — pinned by the `tests/streaming.rs` proptest suite), and
//! [`ActivationFootprint`] reports the measured peak resident activation
//! bytes against the materialized baseline.
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
//!     .map(|i| {
//!         let class = i % 2;
//!         let value = if class == 0 { 1.0 } else { 0.0 };
//!         (Tensor::full(&[8], value), class)
//!     })
//!     .collect();
//! Trainer::new(TrainConfig::default()).fit(&mut net, &samples)?;
//!
//! // Offline: profile class paths with the BwCu algorithm (θ = 0.5).
//! let program = variants::bw_cu(&net, 0.5)?;
//! let class_paths = Profiler::new(program.clone()).profile(&net, &samples)?;
//!
//! // Online: bind an engine once (fingerprint validated here), then serve.
//! let engine = DetectionEngine::builder(net, program, class_paths).build()?;
//! let (class, similarity) = engine.path_similarity(&samples[0].0)?;
//! assert!(class < 2);
//! assert!((0.0..=1.0).contains(&similarity));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod cost;
pub mod engine;
mod error;
mod extraction;
pub use ptolemy_obs::json;
mod parallel;
mod path;
mod profile;
mod program;
pub mod variants;

pub use bits::BitVec;
pub use cost::{software_cost, SoftwareCostReport};
pub use engine::{
    path_similarity, BackendEstimate, Detection, DetectionBackend, DetectionEngine,
    DetectionEngineBuilder, SoftwareBackend,
};
pub use error::CoreError;
pub use extraction::{
    extract_path, extract_path_streaming, extract_paths_streaming_batch, materialized_trace_bytes,
    path_layout, ActivationFootprint, StreamedBatchExtraction, StreamedExtraction,
};
pub use parallel::par_map;
pub use path::{ActivationPath, ClassPath, ClassPathSet, PathSegment};
pub use profile::{class_similarity_matrix, similarity_stats, Profiler, SimilarityStats};
pub use program::{
    DetectionProgram, DetectionProgramBuilder, Direction, ExtractionSpec, ThresholdKind,
};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
