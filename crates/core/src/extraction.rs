//! Important-neuron extraction (paper Sec. III-A/III-C, Fig. 3).
//!
//! Backward extraction starts from the predicted-class neuron of the last layer and
//! walks towards the input: at every weight layer it ranks (cumulative threshold) or
//! filters (absolute threshold) the partial sums feeding each currently-important
//! output neuron and keeps the contributing input neurons.  Pass-through layers
//! (ReLU, pooling, flatten) simply re-map indices.
//!
//! Forward extraction selects each layer's important neurons from the layer's own
//! output activations as soon as the layer finishes, which is what allows the
//! compiler to overlap extraction with the next layer's inference.
//!
//! # Streaming pipeline
//!
//! Both algorithms are implemented over *activation boundary sources*, so they
//! run equally on a materialized [`ForwardTrace`] ([`extract_path`]) and on the
//! streaming drivers ([`extract_path_streaming`] /
//! [`extract_paths_streaming_batch`]), which plug a [`ptolemy_nn::TraceSink`]
//! into the forward pass itself:
//!
//! * **forward programs** mask each enabled layer's output the moment the
//!   layer finishes, on the calling thread, and never retain an activation,
//!   so the only trace state is the forward pass's current layer;
//! * **backward programs** retain only the boundaries the reverse walk will
//!   actually read: enabled weight layers' inputs and outputs, plus the inputs
//!   of pass-through layers whose routing is data-dependent
//!   ([`ptolemy_nn::Layer::has_static_routing`] is `false`, e.g. max pooling).
//!   Early-termination programs drop everything below the first disabled
//!   weight layer as it streams past.
//!
//! There is one streaming pass, the fused-batch one: a single input is
//! streamed as a batch of one, and the forward pass driving it is a
//! parameter, so the int8 `QuantizedNetwork` streams through exactly the
//! f32 extraction.  Extraction runs entirely on the caller's thread.  The
//! paper overlaps extraction with the next layer's inference in hardware
//! (Sec. III-C); `ptolemy-compiler` and `ptolemy-accel` model that overlap,
//! and the CPU path does not imitate it with threads.
//!
//! Streamed and materialized extraction are **bit-for-bit identical**: the
//! forward compute is the same driver either way, and both feed the same
//! selection kernels with the same tensors (pinned by `tests/streaming.rs`).

use std::collections::BTreeSet;

use ptolemy_nn::{predicted_class, Contribution, ForwardTrace, Network, TraceSink};
use ptolemy_tensor::Tensor;

use crate::{ActivationPath, CoreError, DetectionProgram, Direction, Result, ThresholdKind};

/// Most inputs one fused streamed pass takes when profiling or calibrating
/// a whole sample set: it bounds peak memory (backward programs retain
/// their planned stacked boundaries for the whole chunk) while keeping the
/// fused kernels' amortisation.
pub(crate) const FUSED_CHUNK: usize = 64;

/// Computes the `(network layer index, mask length)` layout of paths extracted with
/// `program` on `network`.
///
/// Backward extraction records masks over each enabled weight layer's *input*
/// feature map; forward extraction records masks over its *output* feature map.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProgram`] if the program does not describe the same
/// number of weight layers as the network has.
pub fn path_layout(network: &Network, program: &DetectionProgram) -> Result<Vec<(usize, usize)>> {
    let weight_layers = network.weight_layer_indices();
    if weight_layers.len() != program.num_weight_layers() {
        return Err(CoreError::InvalidProgram(format!(
            "program describes {} weight layers but the network has {}",
            program.num_weight_layers(),
            weight_layers.len()
        )));
    }
    let mut layout = Vec::new();
    for ordinal in program.enabled_layers() {
        let layer_idx = weight_layers[ordinal];
        let layer = network.layer(layer_idx)?;
        let len = match program.direction() {
            Direction::Backward => layer.input_len(),
            Direction::Forward => layer.output_len(),
        };
        layout.push((layer_idx, len));
    }
    Ok(layout)
}

/// Activation bytes a fully materialized trace of `network` holds resident for
/// a batch of `batch_size` samples — every boundary (the input plus each
/// layer's output) at once, the baseline the streaming pipeline's
/// [`ActivationFootprint::peak_streamed_bytes`] is measured against.
pub fn materialized_trace_bytes(network: &Network, batch_size: usize) -> usize {
    let input: usize = network.input_shape().iter().product();
    let outputs: usize = network.layers().map(|l| l.output_len()).sum();
    (input + outputs) * std::mem::size_of::<f32>() * batch_size
}

/// Peak activation bytes the streaming extraction pipeline kept resident,
/// against the bytes a materialized trace would have held.
///
/// "Resident" counts the **trace state** that outlives a layer: the
/// boundaries a backward program retains (forward programs retain none, so
/// their peak is zero).  It deliberately
/// excludes state both strategies hold identically, so the two numbers stay
/// comparable: the driver's transient current-layer input/output, and the
/// per-sample extraction scratch of backward batches (the streamed walk
/// slices each retained stacked boundary per sample exactly as the
/// materialized `BatchTrace::trace(b)` does — in fact it slices a subset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivationFootprint {
    /// Peak resident activation bytes of the streamed extraction.
    pub peak_streamed_bytes: usize,
    /// Bytes the materialized trace of the same pass holds (all boundaries).
    pub materialized_bytes: usize,
}

/// Result of one streamed trace + extraction ([`extract_path_streaming`]).
#[derive(Debug, Clone)]
pub struct StreamedExtraction {
    /// The class the network predicted for the input.
    pub predicted_class: usize,
    /// The extracted activation path (bit-for-bit what [`extract_path`] on a
    /// materialized trace of the same input produces).
    pub path: ActivationPath,
    /// The final logits of the forward pass.
    pub logits: Tensor,
    /// Peak-memory accounting of the streamed pass.
    pub footprint: ActivationFootprint,
}

/// Result of one streamed fused-batch trace + extraction
/// ([`extract_paths_streaming_batch`]).
#[derive(Debug, Clone)]
pub struct StreamedBatchExtraction {
    /// Per-sample `(predicted class, activation path)`, in input order; each
    /// entry is bit-for-bit what the per-input path produces.
    pub samples: Vec<(usize, ActivationPath)>,
    /// Peak-memory accounting of the streamed pass (stacked boundaries).
    pub footprint: ActivationFootprint,
}

/// Extracts the activation path of one traced inference under `program` from a
/// fully materialized trace.
///
/// The streaming pipeline ([`extract_path_streaming`]) produces bit-for-bit
/// identical paths without materialising the trace; this entry point remains
/// for callers that already hold a [`ForwardTrace`] (or a
/// [`ptolemy_nn::BatchTrace`] slice) for other reasons.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProgram`] if the program does not match the network,
/// or propagates substrate errors for inconsistent traces.
pub fn extract_path(
    network: &Network,
    trace: &ForwardTrace,
    program: &DetectionProgram,
) -> Result<ActivationPath> {
    if trace.num_layers() != network.num_layers() {
        return Err(CoreError::InvalidInput(format!(
            "trace covers {} layers but the network has {}",
            trace.num_layers(),
            network.num_layers()
        )));
    }
    let layout = path_layout(network, program)?;
    let mut path = ActivationPath::empty(&layout);
    match program.direction() {
        Direction::Backward => {
            let predicted = trace.predicted_class()?;
            extract_backward(network, trace, predicted, program, &mut path)?;
        }
        Direction::Forward => extract_forward(network, trace, program, &mut path)?,
    }
    Ok(path)
}

/// Runs one forward pass and extracts the activation path **while inferring**:
/// the streaming counterpart of `forward_trace` + [`extract_path`].
///
/// The input is streamed as a fused batch of one
/// ([`extract_paths_streaming_batch`]): forward programs mask each enabled
/// layer's output as soon as the layer finishes and release the activation;
/// backward programs retain only the boundaries the reverse walk reads.  The
/// returned path, predicted class and logits are bit-for-bit identical to the
/// materialized pipeline's.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProgram`] if the program does not match the
/// network, and propagates substrate errors (including
/// [`ptolemy_nn::NnError::InvalidLogits`] for logits no class can be predicted
/// from).
pub fn extract_path_streaming(
    network: &Network,
    program: &DetectionProgram,
    input: &Tensor,
) -> Result<StreamedExtraction> {
    let (samples, logits, footprint) = stream_batch_with(
        network,
        &f32_pass(network),
        program,
        std::slice::from_ref(input),
        &|predicted, path| Ok((predicted, path)),
    )?;
    let (predicted_class, path) = samples
        .into_iter()
        .next()
        .ok_or_else(|| CoreError::InvalidInput("a batch of one produced no sample".into()))??;
    Ok(StreamedExtraction {
        predicted_class,
        path,
        logits: logits.slice_batch(0)?,
        footprint,
    })
}

/// Fused-batch counterpart of [`extract_path_streaming`]: one stacked NCHW
/// forward pass drives the extraction of every sample's path.
///
/// Forward programs mask each sample's slice of layer `i`'s stacked output
/// as soon as the layer finishes and drop the stacked boundary; backward
/// programs retain only the planned stacked boundaries and then walk each
/// sample in turn.  Sample `b` of the result is bit-for-bit
/// `extract_path_streaming(network, program, &inputs[b])`.
///
/// # Errors
///
/// Returns an error if the program does not match the network, if `inputs` is
/// empty or mis-shaped (the whole fused pass fails — callers wanting
/// per-input error granularity stream each input on its own), or if any
/// sample's logits admit no prediction.
pub fn extract_paths_streaming_batch(
    network: &Network,
    program: &DetectionProgram,
    inputs: &[Tensor],
) -> Result<StreamedBatchExtraction> {
    let (samples, _logits, footprint) = stream_batch_with(
        network,
        &f32_pass(network),
        program,
        inputs,
        &|predicted, path| Ok((predicted, path)),
    )?;
    Ok(StreamedBatchExtraction {
        samples: samples.into_iter().collect::<Result<_>>()?,
        footprint,
    })
}

/// A fused forward pass over a batch that hands each stacked activation
/// boundary to a sink as it is produced and returns the stacked logits:
/// [`Network::forward_with_sink_batch`] for f32,
/// [`ptolemy_nn::QuantizedNetwork::forward_with_sink_batch`] for int8.  The
/// extraction below is the same for both; only this pass differs.
pub(crate) type ForwardPass<'a> =
    dyn Fn(&[Tensor], &mut dyn TraceSink) -> ptolemy_nn::Result<Tensor> + 'a;

/// The f32 [`ForwardPass`] of `network`.
pub(crate) fn f32_pass(
    network: &Network,
) -> impl Fn(&[Tensor], &mut dyn TraceSink) -> ptolemy_nn::Result<Tensor> + '_ {
    move |inputs, sink| network.forward_with_sink_batch(inputs, sink)
}

/// The one streaming pass behind every extraction entry point, f32 and
/// int8: `forward` runs the fused pass while a sink extracts each sample's
/// path, and `finish(predicted_class, path)` completes each sample in input
/// order, so engine-level completion work (path-similarity scoring) runs
/// right after each sample's walk.  `network` supplies the program layout
/// and the contribution kernels of the backward walk.
///
/// Returns the per-sample results, the stacked logits and the pass's
/// footprint.  The outer error is the pass's own (a mis-shaped or empty
/// batch, a program that does not match the network); a sample whose
/// logits admit no prediction, or whose `finish` fails, fails alone.
pub(crate) fn stream_batch_with<T, F>(
    network: &Network,
    forward: &ForwardPass<'_>,
    program: &DetectionProgram,
    inputs: &[Tensor],
    finish: &F,
) -> Result<(Vec<Result<T>>, Tensor, ActivationFootprint)>
where
    F: Fn(usize, ActivationPath) -> Result<T>,
{
    let layout = path_layout(network, program)?;
    match program.direction() {
        Direction::Forward => {
            stream_forward_batch(network, forward, program, inputs, &layout, finish)
        }
        Direction::Backward => {
            stream_backward_batch(network, forward, program, inputs, &layout, finish)
        }
    }
}

/// Selects contributor indices from weighted partial sums according to a threshold.
///
/// * Cumulative: minimal prefix of the descending-sorted partial sums whose
///   cumulative sum reaches `theta × target` (paper Fig. 3).  If the target is not
///   positive, only the single largest contributor is kept.
/// * Absolute: every partial sum `≥ phi × |target|`.
pub(crate) fn select_contributors(
    pairs: &[(usize, f32)],
    target: f32,
    threshold: ThresholdKind,
) -> Vec<usize> {
    if pairs.is_empty() {
        return Vec::new();
    }
    match threshold {
        ThresholdKind::Cumulative { theta } => {
            let mut sorted: Vec<(usize, f32)> = pairs.to_vec();
            sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            if target <= 0.0 {
                return vec![sorted[0].0];
            }
            let goal = theta * target;
            let mut cum = 0.0;
            let mut selected = Vec::new();
            for (idx, partial) in sorted {
                selected.push(idx);
                cum += partial;
                if cum >= goal {
                    break;
                }
            }
            selected
        }
        ThresholdKind::Absolute { phi } => {
            let cutoff = phi * target.abs();
            pairs
                .iter()
                .filter(|(_, p)| *p >= cutoff && *p > 0.0)
                .map(|(i, _)| *i)
                .collect()
        }
    }
}

/// Selects important neurons of a layer output directly from activation values
/// (forward extraction, where no downstream importance information exists yet).
pub(crate) fn select_from_activations(values: &[f32], threshold: ThresholdKind) -> Vec<usize> {
    if values.is_empty() {
        return Vec::new();
    }
    match threshold {
        ThresholdKind::Cumulative { theta } => {
            let mut order: Vec<usize> = (0..values.len()).collect();
            order.sort_by(|&a, &b| {
                values[b]
                    .partial_cmp(&values[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let total: f32 = values.iter().filter(|v| **v > 0.0).sum();
            if total <= 0.0 {
                return vec![order[0]];
            }
            let goal = theta * total;
            let mut cum = 0.0;
            let mut selected = Vec::new();
            for idx in order {
                if values[idx] <= 0.0 {
                    break;
                }
                selected.push(idx);
                cum += values[idx];
                if cum >= goal {
                    break;
                }
            }
            selected
        }
        ThresholdKind::Absolute { phi } => {
            let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if max <= 0.0 {
                return Vec::new();
            }
            let cutoff = phi * max;
            values
                .iter()
                .enumerate()
                .filter(|(_, v)| **v >= cutoff && **v > 0.0)
                .map(|(i, _)| i)
                .collect()
        }
    }
}

/// Access to the activation boundaries of one forward pass: boundary `i` is
/// the activation entering layer `i`; boundary `num_layers` is the logits.
///
/// Implemented by the materialized [`ForwardTrace`] and by the partial stores
/// the streaming sinks retain, so the extraction walks below run bit-for-bit
/// identically on either.
trait BoundarySource {
    fn boundary(&self, index: usize) -> Result<&Tensor>;
}

impl BoundarySource for ForwardTrace {
    fn boundary(&self, index: usize) -> Result<&Tensor> {
        self.activations().get(index).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "trace has no activation boundary {index} (network has {} layers)",
                self.num_layers()
            ))
        })
    }
}

/// The subset of boundaries a streaming backward pass retained.
struct PartialBoundaries<'a> {
    boundaries: &'a [Option<Tensor>],
}

impl BoundarySource for PartialBoundaries<'_> {
    fn boundary(&self, index: usize) -> Result<&Tensor> {
        self.boundaries
            .get(index)
            .and_then(Option::as_ref)
            .ok_or_else(|| {
                CoreError::InvalidInput(format!(
                    "activation boundary {index} was not retained by the streaming plan"
                ))
            })
    }
}

fn extract_backward<S: BoundarySource + ?Sized>(
    network: &Network,
    source: &S,
    predicted_class: usize,
    program: &DetectionProgram,
    path: &mut ActivationPath,
) -> Result<()> {
    let weight_layers = network.weight_layer_indices();
    // Important neurons at the *output* of the layer currently being examined.
    // The walk starts at the last layer with the predicted class (paper: "the last
    // layer has only one important neuron").
    let mut important: BTreeSet<usize> = BTreeSet::new();
    important.insert(predicted_class);

    for layer_idx in (0..network.num_layers()).rev() {
        if important.is_empty() {
            break;
        }
        let layer = network.layer(layer_idx)?;
        let is_weight = layer.kind().is_weight_layer();

        if is_weight {
            let ordinal = weight_layers
                .iter()
                .position(|&l| l == layer_idx)
                // lint:allow(panic-in-worker): layer_idx was taken from this list
                .expect("weight layer index");
            let spec = program.specs()[ordinal];
            if !spec.enabled {
                // Early termination: the backward walk stops at the first disabled
                // weight layer (Sec. VII-F).
                break;
            }
            let input = source.boundary(layer_idx)?;
            let output = source.boundary(layer_idx + 1)?;
            let mut next: BTreeSet<usize> = BTreeSet::new();
            for &neuron in &important {
                let target = output.as_slice()[neuron];
                match layer.contributions(input, neuron)? {
                    Contribution::Weighted(pairs) => {
                        for idx in select_contributors(&pairs, target, spec.threshold) {
                            next.insert(idx);
                        }
                    }
                    Contribution::PassThrough(indices) => {
                        next.extend(indices);
                    }
                }
            }
            // Record the mask over this layer's input feature map.
            if let Some(segment) = path
                .segments_mut()
                .iter_mut()
                .find(|s| s.layer == layer_idx)
            {
                for &idx in &next {
                    segment.mask.set(idx);
                }
            }
            important = next;
        } else {
            // Pass-through layer: re-map the important output indices to input
            // indices (identity for ReLU/flatten, argmax routing for max pooling,
            // window members for average pooling).  Statically-routed layers
            // never touch their input activations, which is what lets the
            // streaming pipeline drop those boundaries eagerly.
            let mut next: BTreeSet<usize> = BTreeSet::new();
            for &neuron in &important {
                if let Some(route) = layer.static_routing(neuron)? {
                    next.extend(route);
                } else {
                    let input = source.boundary(layer_idx)?;
                    let contribution = layer.contributions(input, neuron)?;
                    next.extend(contribution.indices());
                }
            }
            important = next;
        }
    }
    Ok(())
}

fn extract_forward<S: BoundarySource + ?Sized>(
    network: &Network,
    source: &S,
    program: &DetectionProgram,
    path: &mut ActivationPath,
) -> Result<()> {
    let weight_layers = network.weight_layer_indices();
    for ordinal in program.enabled_layers() {
        let layer_idx = weight_layers[ordinal];
        let spec = program.specs()[ordinal];
        let output = source.boundary(layer_idx + 1)?;
        mask_forward_selection(path, layer_idx, output.as_slice(), spec.threshold);
    }
    Ok(())
}

/// The single forward-program masking step shared by the materialized walk
/// and the streaming sink — one implementation, so both pipelines are
/// bit-for-bit the same selection.
fn mask_forward_selection(
    path: &mut ActivationPath,
    layer_idx: usize,
    output: &[f32],
    threshold: ThresholdKind,
) {
    let selected = select_from_activations(output, threshold);
    if let Some(segment) = path
        .segments_mut()
        .iter_mut()
        .find(|s| s.layer == layer_idx)
    {
        for idx in selected {
            segment.mask.set(idx);
        }
    }
}

fn tensor_bytes(t: &Tensor) -> usize {
    t.len() * std::mem::size_of::<f32>()
}

/// Per-network-layer threshold of enabled weight layers (`None` for disabled
/// or pass-through layers), the lookup table the forward streaming sinks key on.
fn enabled_specs_by_layer(
    network: &Network,
    program: &DetectionProgram,
) -> Vec<Option<ThresholdKind>> {
    let weight_layers = network.weight_layer_indices();
    let mut specs = vec![None; network.num_layers()];
    for ordinal in program.enabled_layers() {
        specs[weight_layers[ordinal]] = Some(program.specs()[ordinal].threshold);
    }
    specs
}

/// Boundaries a streaming backward pass must retain: enabled weight layers'
/// inputs and outputs, data-dependently-routed pass-through layers' inputs,
/// and nothing below the walk's early-termination point.
fn backward_retention(network: &Network, program: &DetectionProgram) -> Result<Vec<bool>> {
    let weight_layers = network.weight_layer_indices();
    let mut retain = vec![false; network.num_layers() + 1];
    for layer_idx in (0..network.num_layers()).rev() {
        let layer = network.layer(layer_idx)?;
        if layer.kind().is_weight_layer() {
            let ordinal = weight_layers
                .iter()
                .position(|&l| l == layer_idx)
                // lint:allow(panic-in-worker): layer_idx was taken from this list
                .expect("weight layer index");
            if !program.specs()[ordinal].enabled {
                // The reverse walk breaks here; nothing below is ever read.
                break;
            }
            retain[layer_idx] = true;
            retain[layer_idx + 1] = true;
        } else if !layer.has_static_routing() {
            retain[layer_idx] = true;
        }
    }
    Ok(retain)
}

/// Streaming sink for forward programs: masks each sample's slice of every
/// enabled stacked output the moment the layer finishes; nothing is ever
/// retained or cloned.
struct ForwardSink<'a> {
    specs: &'a [Option<ThresholdKind>],
    paths: Vec<ActivationPath>,
}

impl TraceSink for ForwardSink<'_> {
    fn on_layer(&mut self, index: usize, output: &Tensor) {
        let Some(threshold) = self.specs[index] else {
            return;
        };
        // Sample `b` is the `b`-th contiguous slab of the stacked output —
        // bit-for-bit the per-sample output, so the selection matches the
        // materialized pipeline exactly.
        let sample_len = output.len() / self.paths.len();
        for (path, sample) in self
            .paths
            .iter_mut()
            .zip(output.as_slice().chunks(sample_len.max(1)))
        {
            mask_forward_selection(path, index, sample, threshold);
        }
    }
}

/// Streaming sink for backward programs: retains exactly the planned
/// boundaries, drops everything else the moment the forward pass moves on.  It
/// only ever adds boundaries, so the bytes it holds at the end are its peak.
struct RetainSink<'a> {
    retain: &'a [bool],
    boundaries: Vec<Option<Tensor>>,
    retained_bytes: usize,
}

impl<'a> RetainSink<'a> {
    fn new(retain: &'a [bool]) -> Self {
        RetainSink {
            retain,
            boundaries: vec![None; retain.len()],
            retained_bytes: 0,
        }
    }

    fn keep(&mut self, boundary: usize, activation: &Tensor) {
        if self.retain[boundary] {
            self.retained_bytes += tensor_bytes(activation);
            self.boundaries[boundary] = Some(activation.clone());
        }
    }
}

impl TraceSink for RetainSink<'_> {
    fn on_input(&mut self, input: &Tensor) {
        self.keep(0, input);
    }

    fn on_layer(&mut self, index: usize, output: &Tensor) {
        self.keep(index + 1, output);
    }
}

fn stream_forward_batch<T, F>(
    network: &Network,
    forward: &ForwardPass<'_>,
    program: &DetectionProgram,
    inputs: &[Tensor],
    layout: &[(usize, usize)],
    finish: &F,
) -> Result<(Vec<Result<T>>, Tensor, ActivationFootprint)>
where
    F: Fn(usize, ActivationPath) -> Result<T>,
{
    let specs = enabled_specs_by_layer(network, program);
    let batch = inputs.len();
    let mut sink = ForwardSink {
        specs: &specs,
        paths: vec![ActivationPath::empty(layout); batch],
    };
    let logits = forward(inputs, &mut sink)?;
    let samples = sink
        .paths
        .into_iter()
        .enumerate()
        .map(|(b, path)| {
            let sample_logits = logits.slice_batch(b)?;
            let predicted = predicted_class(&sample_logits).map_err(CoreError::from)?;
            finish(predicted, path)
        })
        .collect();
    let footprint = ActivationFootprint {
        peak_streamed_bytes: 0,
        materialized_bytes: materialized_trace_bytes(network, batch),
    };
    Ok((samples, logits, footprint))
}

fn stream_backward_batch<T, F>(
    network: &Network,
    forward: &ForwardPass<'_>,
    program: &DetectionProgram,
    inputs: &[Tensor],
    layout: &[(usize, usize)],
    finish: &F,
) -> Result<(Vec<Result<T>>, Tensor, ActivationFootprint)>
where
    F: Fn(usize, ActivationPath) -> Result<T>,
{
    let retain = backward_retention(network, program)?;
    let mut sink = RetainSink::new(&retain);
    let logits = forward(inputs, &mut sink)?;
    let boundaries = sink.boundaries;
    let samples = (0..inputs.len())
        .map(|b| -> Result<T> {
            // Slice this sample's view of every retained stacked boundary —
            // the same slices a materialized `BatchTrace::trace(b)` would
            // hand the walk, so the extraction is bit-for-bit the per-input
            // path.
            let sliced: Vec<Option<Tensor>> = boundaries
                .iter()
                .map(|stacked| {
                    stacked
                        .as_ref()
                        .map(|t| t.slice_batch(b))
                        .transpose()
                        .map_err(CoreError::from)
                })
                .collect::<Result<_>>()?;
            // The logits boundary is usually already retained and sliced;
            // only fall back to slicing the forward pass's stacked logits
            // when it is not.
            let fallback_logits;
            let sample_logits = match sliced.last().and_then(Option::as_ref) {
                Some(retained_logits) => retained_logits,
                None => {
                    fallback_logits = logits.slice_batch(b)?;
                    &fallback_logits
                }
            };
            let predicted = predicted_class(sample_logits).map_err(CoreError::from)?;
            let mut path = ActivationPath::empty(layout);
            let source = PartialBoundaries {
                boundaries: &sliced,
            };
            extract_backward(network, &source, predicted, program, &mut path)?;
            finish(predicted, path)
        })
        .collect();
    let footprint = ActivationFootprint {
        peak_streamed_bytes: sink.retained_bytes,
        materialized_bytes: materialized_trace_bytes(network, inputs.len()),
    };
    Ok((samples, logits, footprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_nn::layer::{Dense, Flatten, ReLU};
    use ptolemy_nn::Layer;
    use ptolemy_tensor::{Rng64, Tensor};

    /// The worked fully-connected example of Fig. 3 (left panel): input feature map
    /// `[0.1, 1.0, 0.4, 0.3, 0.2]`, kernel `[2.1, 0.09, 0.2, 0.2, 0.1]`, θ = 0.6.
    /// The two largest partial sums (0.21 from neuron 0 and 0.09 from neuron 1)
    /// cumulatively exceed 0.6 × 0.46, so neurons {0, 1} are important.
    #[test]
    fn fig3_fully_connected_example() {
        let pairs = vec![
            (0usize, 0.1 * 2.1),
            (1, 1.0 * 0.09),
            (2, 0.4 * 0.2),
            (3, 0.3 * 0.2),
            (4, 0.2 * 0.1),
        ];
        let selected = select_contributors(&pairs, 0.46, ThresholdKind::Cumulative { theta: 0.6 });
        assert_eq!(selected, vec![0, 1]);
        // With θ = 0.9 more neurons are needed.
        let selected = select_contributors(&pairs, 0.46, ThresholdKind::Cumulative { theta: 0.9 });
        assert!(selected.len() > 2);
        // Absolute thresholding keeps only partial sums above φ × |target|.
        let selected = select_contributors(&pairs, 0.46, ThresholdKind::Absolute { phi: 0.4 });
        assert_eq!(selected, vec![0]);
    }

    #[test]
    fn cumulative_selection_is_minimal() {
        let pairs = vec![(0, 0.5), (1, 0.3), (2, 0.2)];
        // θ = 0.5 of target 1.0 is reached by the single largest partial sum.
        assert_eq!(
            select_contributors(&pairs, 1.0, ThresholdKind::Cumulative { theta: 0.5 }),
            vec![0]
        );
        // θ = 1.0 needs all of them.
        assert_eq!(
            select_contributors(&pairs, 1.0, ThresholdKind::Cumulative { theta: 1.0 }).len(),
            3
        );
        // Non-positive target degenerates to the single largest contributor.
        assert_eq!(
            select_contributors(&pairs, -0.2, ThresholdKind::Cumulative { theta: 0.5 }),
            vec![0]
        );
        assert!(select_contributors(&[], 1.0, ThresholdKind::Cumulative { theta: 0.5 }).is_empty());
    }

    #[test]
    fn forward_selection_from_activations() {
        let values = [0.1, 3.0, 0.0, 1.0, -0.5];
        let selected = select_from_activations(&values, ThresholdKind::Cumulative { theta: 0.7 });
        // 3.0 alone is 3.0/4.1 ≈ 0.73 ≥ 0.7 of the positive mass.
        assert_eq!(selected, vec![1]);
        let selected = select_from_activations(&values, ThresholdKind::Absolute { phi: 0.3 });
        assert_eq!(selected, vec![1, 3]);
        // All-negative activations select nothing under absolute thresholds.
        assert!(
            select_from_activations(&[-1.0, -2.0], ThresholdKind::Absolute { phi: 0.1 }).is_empty()
        );
        assert!(select_from_activations(&[], ThresholdKind::Absolute { phi: 0.1 }).is_empty());
    }

    fn two_layer_net() -> Network {
        // 4 -> 3 -> 2 network with hand-written weights so paths are predictable.
        let w1 = Tensor::from_vec(
            vec![
                1.0, 0.0, 0.0, 0.0, // neuron 0 driven by input 0
                0.0, 1.0, 0.0, 0.0, // neuron 1 driven by input 1
                0.0, 0.0, 1.0, 1.0, // neuron 2 driven by inputs 2 and 3
            ],
            &[3, 4],
        )
        .unwrap();
        let w2 = Tensor::from_vec(
            vec![
                1.0, 0.0, 0.0, // class 0 driven by hidden 0
                0.0, 1.0, 1.0, // class 1 driven by hidden 1 and 2
            ],
            &[2, 3],
        )
        .unwrap();
        Network::new(vec![
            Box::new(Flatten::new(&[4])) as Box<dyn Layer>,
            Box::new(Dense::from_parts(w1, Tensor::zeros(&[3])).unwrap()),
            Box::new(ReLU::new(&[3])),
            Box::new(Dense::from_parts(w2, Tensor::zeros(&[2])).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn backward_extraction_follows_the_active_route() {
        let net = two_layer_net();
        let program = DetectionProgram::builder(Direction::Backward, 2)
            .all_layers(ThresholdKind::Cumulative { theta: 0.9 })
            .build()
            .unwrap();
        // Input that activates class 0 through input 0 only.
        let x = Tensor::from_vec(vec![5.0, 0.1, 0.0, 0.0], &[4]).unwrap();
        let trace = net.forward_trace(&x).unwrap();
        assert_eq!(trace.predicted_class().unwrap(), 0);
        let path = extract_path(&net, &trace, &program).unwrap();
        // Layout: weight layers are network layers 1 and 3; masks over their inputs.
        assert_eq!(path.segments().len(), 2);
        let last = path.segment_for_layer(3).unwrap();
        assert!(last.mask.get(0), "hidden neuron 0 must be important");
        assert!(!last.mask.get(1));
        let first = path.segment_for_layer(1).unwrap();
        assert!(first.mask.get(0), "input 0 must be important");
        assert!(!first.mask.get(2));

        // A class-1 input leaves a different path.
        let y = Tensor::from_vec(vec![0.0, 0.0, 4.0, 4.0], &[4]).unwrap();
        let trace_y = net.forward_trace(&y).unwrap();
        assert_eq!(trace_y.predicted_class().unwrap(), 1);
        let path_y = extract_path(&net, &trace_y, &program).unwrap();
        assert!(path_y.segment_for_layer(1).unwrap().mask.get(2));
        assert!(path_y.segment_for_layer(1).unwrap().mask.get(3));
        assert!(!path_y.segment_for_layer(1).unwrap().mask.get(0));
        // Paths of different classes are distinct.
        assert!(path.jaccard(&path_y).unwrap() < 0.5);
    }

    #[test]
    fn forward_extraction_marks_high_activations() {
        let net = two_layer_net();
        let program = DetectionProgram::builder(Direction::Forward, 2)
            .all_layers(ThresholdKind::Absolute { phi: 0.5 })
            .build()
            .unwrap();
        let x = Tensor::from_vec(vec![5.0, 0.1, 0.0, 0.0], &[4]).unwrap();
        let trace = net.forward_trace(&x).unwrap();
        let path = extract_path(&net, &trace, &program).unwrap();
        // Forward masks cover output feature maps.
        let seg = path.segment_for_layer(1).unwrap();
        assert_eq!(seg.mask.len(), 3);
        assert!(seg.mask.get(0));
        assert!(!seg.mask.get(1));
        assert!(path.count_ones() >= 2);
    }

    #[test]
    fn selective_extraction_limits_segments() {
        let net = two_layer_net();
        // Backward with only the last weight layer enabled (early termination).
        let program = DetectionProgram::builder(Direction::Backward, 2)
            .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
            .disable_before(1)
            .build()
            .unwrap();
        let x = Tensor::from_vec(vec![5.0, 0.1, 0.0, 0.0], &[4]).unwrap();
        let trace = net.forward_trace(&x).unwrap();
        let path = extract_path(&net, &trace, &program).unwrap();
        assert_eq!(path.segments().len(), 1);
        assert_eq!(path.segments()[0].layer, 3);
        assert!(path.count_ones() >= 1);

        // The streaming retention plan drops everything below the termination
        // point: boundaries 0..=2 (flatten input, dense-1 input, relu input)
        // are never retained, only the last dense layer's input and output.
        let retain = backward_retention(&net, &program).unwrap();
        assert_eq!(retain, vec![false, false, false, true, true]);
    }

    #[test]
    fn backward_retention_keeps_only_data_dependent_boundaries() {
        let net = two_layer_net();
        let program = DetectionProgram::builder(Direction::Backward, 2)
            .all_layers(ThresholdKind::Cumulative { theta: 0.9 })
            .build()
            .unwrap();
        // Flatten (layer 0) and ReLU (layer 2) route statically, so their
        // input boundaries are dropped; both dense layers retain input+output.
        let retain = backward_retention(&net, &program).unwrap();
        assert_eq!(retain, vec![false, true, true, true, true]);

        // Forward programs retain nothing at all (masking happens in flight).
        let fw = DetectionProgram::builder(Direction::Forward, 2)
            .all_layers(ThresholdKind::Absolute { phi: 0.5 })
            .build()
            .unwrap();
        let streamed = extract_path_streaming(&net, &fw, &Tensor::ones(&[4])).unwrap();
        assert_eq!(streamed.footprint.peak_streamed_bytes, 0);
        assert_eq!(
            streamed.footprint.materialized_bytes,
            materialized_trace_bytes(&net, 1)
        );
    }

    #[test]
    fn streamed_extraction_matches_materialized_bit_for_bit() {
        let mut rng = Rng64::new(7);
        let net = ptolemy_nn::zoo::lenet(1, 4, &mut rng).unwrap();
        let programs = [
            DetectionProgram::builder(Direction::Backward, 4)
                .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
                .build()
                .unwrap(),
            DetectionProgram::builder(Direction::Forward, 4)
                .all_layers(ThresholdKind::Absolute { phi: 0.2 })
                .build()
                .unwrap(),
        ];
        let inputs: Vec<Tensor> = (0..5)
            .map(|i| {
                let data = (0..64)
                    .map(|_| rng.normal() * (0.4 + 0.2 * i as f32))
                    .collect();
                Tensor::from_vec(data, &[1, 8, 8]).unwrap()
            })
            .collect();
        for program in &programs {
            for input in &inputs {
                let trace = net.forward_trace(input).unwrap();
                let materialized = extract_path(&net, &trace, program).unwrap();
                let streamed = extract_path_streaming(&net, program, input).unwrap();
                assert_eq!(streamed.path, materialized, "single-input parity");
                assert_eq!(streamed.predicted_class, trace.predicted_class().unwrap());
                for (s, m) in streamed
                    .logits
                    .as_slice()
                    .iter()
                    .zip(trace.logits().as_slice())
                {
                    assert_eq!(s.to_bits(), m.to_bits());
                }
            }
            // Fused-batch streaming matches too.
            let batch = extract_paths_streaming_batch(&net, program, &inputs).unwrap();
            assert_eq!(batch.samples.len(), inputs.len());
            for (b, input) in inputs.iter().enumerate() {
                let single = extract_path_streaming(&net, program, input).unwrap();
                assert_eq!(batch.samples[b].0, single.predicted_class);
                assert_eq!(batch.samples[b].1, single.path, "batch sample {b} parity");
            }
        }
    }

    #[test]
    fn streamed_forward_peak_memory_beats_materialized_on_a_deep_program() {
        // A deep forward program on the conv model: the streaming pipeline
        // must hold strictly less activation state than the materialized
        // trace — the acceptance bar of the streaming refactor.
        let mut rng = Rng64::new(11);
        let net = ptolemy_nn::zoo::lenet(1, 4, &mut rng).unwrap();
        let program = DetectionProgram::builder(Direction::Forward, 4)
            .all_layers(ThresholdKind::Absolute { phi: 0.2 })
            .build()
            .unwrap();
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| Tensor::from_vec((0..64).map(|_| rng.normal()).collect(), &[1, 8, 8]).unwrap())
            .collect();
        let batch = extract_paths_streaming_batch(&net, &program, &inputs).unwrap();
        assert!(
            batch.footprint.peak_streamed_bytes < batch.footprint.materialized_bytes,
            "streamed peak {} must be under the materialized {} bytes",
            batch.footprint.peak_streamed_bytes,
            batch.footprint.materialized_bytes
        );
        // Forward programs mask inline and retain nothing, on every host,
        // through both the batch and the single-input entry point.
        assert_eq!(batch.footprint.peak_streamed_bytes, 0);
        let single = extract_path_streaming(&net, &program, &inputs[0]).unwrap();
        assert_eq!(single.footprint.peak_streamed_bytes, 0);
        assert_eq!(
            single.footprint.materialized_bytes,
            materialized_trace_bytes(&net, 1)
        );
        // The materialized figure matches what an actual batch trace holds.
        let trace = net.forward_trace_batch(&inputs).unwrap();
        assert_eq!(batch.footprint.materialized_bytes, trace.activation_bytes());

        // Backward programs retain strictly less than the full trace as well
        // (statically-routed ReLU/flatten inputs are dropped in flight).
        let bw = DetectionProgram::builder(Direction::Backward, 4)
            .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
            .build()
            .unwrap();
        let streamed = extract_paths_streaming_batch(&net, &bw, &inputs).unwrap();
        assert!(streamed.footprint.peak_streamed_bytes < streamed.footprint.materialized_bytes);

        // The int8 pass streams through the same extraction and keeps the
        // same bound against its own materialized trace, with paths equal to
        // extraction from that trace.
        let net = std::sync::Arc::new(net);
        let qnet = ptolemy_nn::QuantizedNetwork::quantize(net.clone(), &inputs).unwrap();
        let int8_pass =
            |xs: &[Tensor], sink: &mut dyn TraceSink| qnet.forward_with_sink_batch(xs, sink);
        let qtrace = qnet.forward_trace_batch(&inputs).unwrap();
        for (program, retains) in [(&program, false), (&bw, true)] {
            let (samples, _, footprint) =
                stream_batch_with(&net, &int8_pass, program, &inputs, &|c, p| Ok((c, p))).unwrap();
            assert_eq!(footprint.materialized_bytes, qtrace.activation_bytes());
            if retains {
                assert!(footprint.peak_streamed_bytes > 0);
                assert!(footprint.peak_streamed_bytes < footprint.materialized_bytes);
            } else {
                assert_eq!(footprint.peak_streamed_bytes, 0);
            }
            for (b, sample) in samples.into_iter().enumerate() {
                let trace = qtrace.trace(b).unwrap();
                let expected = extract_path(&net, &trace, program).unwrap();
                let (class, path) = sample.unwrap();
                assert_eq!(class, trace.predicted_class().unwrap());
                assert_eq!(path, expected, "int8 sample {b}");
            }
        }
    }

    #[test]
    fn mismatched_program_is_rejected() {
        let net = two_layer_net();
        let program = DetectionProgram::builder(Direction::Backward, 5)
            .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
            .build()
            .unwrap();
        let x = Tensor::zeros(&[4]);
        let trace = net.forward_trace(&x).unwrap();
        assert!(extract_path(&net, &trace, &program).is_err());
        assert!(path_layout(&net, &program).is_err());
        assert!(extract_path_streaming(&net, &program, &x).is_err());
        assert!(extract_paths_streaming_batch(&net, &program, &[x]).is_err());
    }

    #[test]
    fn streaming_batch_propagates_forward_errors() {
        let net = two_layer_net();
        let program = DetectionProgram::builder(Direction::Forward, 2)
            .all_layers(ThresholdKind::Absolute { phi: 0.5 })
            .build()
            .unwrap();
        // An empty batch and a mis-shaped input both fail the fused pass as a
        // whole; per-input granularity is the engine's fallback concern.
        assert!(extract_paths_streaming_batch(&net, &program, &[]).is_err());
        let bad = vec![Tensor::ones(&[4]), Tensor::ones(&[5])];
        assert!(extract_paths_streaming_batch(&net, &program, &bad).is_err());
    }

    #[test]
    fn extraction_works_on_a_convolutional_model() {
        let mut rng = Rng64::new(1);
        let net = ptolemy_nn::zoo::lenet(1, 4, &mut rng).unwrap();
        let program = DetectionProgram::builder(Direction::Backward, 4)
            .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
            .build()
            .unwrap();
        let x = Tensor::full(&[1, 8, 8], 0.5);
        let trace = net.forward_trace(&x).unwrap();
        let path = extract_path(&net, &trace, &program).unwrap();
        assert_eq!(path.segments().len(), 4);
        assert!(path.count_ones() > 0);
        // The paper observes important-neuron density stays low; with θ=0.5 we
        // should certainly not mark the whole network.
        assert!(path.density() < 0.6, "density {}", path.density());
    }
}
