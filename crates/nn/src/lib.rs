//! # ptolemy-nn
//!
//! The DNN inference/training substrate of the Ptolemy reproduction.
//!
//! The Ptolemy detection framework treats a DNN inference like an imperative program
//! execution: every output neuron is a sum of *partial sums*, and the detector needs
//! to ask, for any output neuron of any layer, "which input elements contributed how
//! much?".  This crate therefore exposes, in addition to the usual
//! forward/backward/training machinery:
//!
//! * [`Layer::contributions`] — the per-output-neuron partial-sum decomposition used
//!   by the important-neuron extraction algorithms (paper Fig. 3);
//! * [`Network::forward_with_sink`] / [`Network::forward_with_sink_batch`] —
//!   the **streaming drivers**: a forward pass hands each activation boundary
//!   to a [`TraceSink`] the moment the producing layer finishes, before the
//!   next layer starts.  The driver itself keeps only the current layer's
//!   input and output alive, so what outlives a layer is entirely the sink's
//!   decision — a selective sink observes a whole inference in O(largest
//!   layer) memory.  This is the hook `ptolemy-core` uses to select each
//!   layer's important neurons as soon as the layer finishes and to drop
//!   activations eagerly, on the caller's thread (the paper's Sec. III-C
//!   overlap of extraction with inference is modelled by `ptolemy-compiler`
//!   and `ptolemy-accel`, not by CPU threads);
//! * [`Network::forward_trace`] — the materializing adapter over the streaming
//!   driver: a keep-everything sink recording each activation boundary
//!   **once** (`activations[i + 1]` is both layer `i`'s output and layer
//!   `i + 1`'s input — no duplicated storage) so extraction can run after the
//!   fact;
//! * [`QuantizedNetwork`] — the int8 twin of the batched streaming driver
//!   ([`QuantizedNetwork::forward_with_sink_batch`]): it shares `Network`'s
//!   validation, stacking and layer loop, and only the per-layer step runs
//!   integer kernels, so every sink (path extraction included) consumes
//!   quantized and f32 passes alike;
//! * [`Network::forward_batch`] / [`Network::forward_trace_batch`] — the fused
//!   NCHW batch path: B inputs are stacked into one `[B, C, H, W]` tensor and
//!   executed layer by layer through [`Layer::forward_batch`] (batched
//!   `im2col`/matmul for convolutions, weight-row-reuse kernels for dense
//!   layers).  The resulting [`BatchTrace`] slices back to per-input
//!   [`ForwardTrace`]s **bit-for-bit identical** to the per-input path — each
//!   output element depends only on its own input sample, and every fused
//!   kernel preserves the single-sample reduction order exactly;
//! * [`Network::input_gradient`] — the loss gradient w.r.t. the input, which the
//!   attack generators in `ptolemy-attacks` need;
//! * a [`zoo`] of small architectures standing in for AlexNet, ResNet-18, VGG and
//!   friends at laptop scale.
//!
//! # Example
//!
//! ```
//! use ptolemy_nn::{zoo, TrainConfig, Trainer};
//! use ptolemy_tensor::{Rng64, Tensor};
//!
//! # fn main() -> Result<(), ptolemy_nn::NnError> {
//! let mut rng = Rng64::new(0);
//! let mut net = zoo::mlp_net(&[8], 3, &mut rng)?;
//! let samples = vec![
//!     (Tensor::full(&[8], 1.0), 0usize),
//!     (Tensor::full(&[8], -1.0), 1usize),
//! ];
//! let mut trainer = Trainer::new(TrainConfig { epochs: 5, ..TrainConfig::default() });
//! trainer.fit(&mut net, &samples)?;
//! let class = net.predict(&samples[0].0)?;
//! assert!(class < 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod error;
pub mod layer;
mod loss;
mod network;
mod quant;
mod trace;
mod train;
pub mod zoo;

pub use error::NnError;
pub use layer::{Contribution, Layer, LayerGrads, LayerKind};
pub use loss::{cross_entropy_loss, softmax_cross_entropy_grad};
pub use network::{Network, NetworkGrads};
pub use quant::QuantizedNetwork;
pub use trace::{predicted_class, BatchTrace, ForwardTrace, LayerTimingSink, TraceSink};
pub use train::{TrainConfig, TrainReport, Trainer};

/// The workspace's single cached core count, re-exported from the tensor
/// crate so callers above `ptolemy-nn` need not depend on it directly.
pub use ptolemy_tensor::available_parallelism;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, NnError>;
