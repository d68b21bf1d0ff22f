//! Forward-pass observation: the streaming [`TraceSink`] abstraction and the
//! materialized [`ForwardTrace`] / [`BatchTrace`] records built on top of it.
//!
//! A forward pass produces `num_layers + 1` *activation boundaries*: boundary
//! `0` is the network input, boundary `i + 1` is layer `i`'s output (which is
//! also layer `i + 1`'s input — the two were historically stored twice, as
//! `inputs[i + 1]` *and* `outputs[i]`; they are now stored once).  A
//! [`TraceSink`] observes the boundaries as they are produced by
//! [`crate::Network::forward_with_sink`], deciding per layer what to keep —
//! the hook that lets `ptolemy-core` run path extraction *during* inference
//! and drop activations eagerly instead of materialising the whole trace.

use std::sync::Arc;

use ptolemy_obs::{HistogramHandle, Registry};
use ptolemy_tensor::Tensor;

use crate::{NnError, Result};

/// Layer-indexed observer of a forward pass — the streaming alternative to
/// materialising a full [`ForwardTrace`].
///
/// [`crate::Network::forward_with_sink`] (and its batched twin) call
/// [`TraceSink::on_input`] once with the activation entering layer 0, then
/// [`TraceSink::on_layer`] after each layer finishes, **before** the next
/// layer starts.  The sink only borrows the activation: it clones what it
/// needs to keep and lets everything else die with the driver's scratch
/// buffer, so a sink that retains nothing observes an entire forward pass in
/// O(largest layer) memory.  For the batched driver the tensors are stacked
/// (`[B] ++ shape`, NCHW).
///
/// Sinks are infallible by design — a sink whose own work can fail (e.g.
/// slicing a stacked boundary per sample) records the failure internally and
/// surfaces it after the drive; the forward pass itself never turns back.
pub trait TraceSink {
    /// Observes the activation entering layer 0 (boundary 0).
    fn on_input(&mut self, _input: &Tensor) {}

    /// Observes layer `index`'s freshly produced output activation (boundary
    /// `index + 1`), called before layer `index + 1` runs.
    fn on_layer(&mut self, index: usize, output: &Tensor);
}

/// A [`TraceSink`] that keeps nothing — the sink of the plain batched
/// forward passes, which only want the logits.
#[derive(Debug)]
pub(crate) struct Discard;

impl TraceSink for Discard {
    fn on_layer(&mut self, _index: usize, _output: &Tensor) {}
}

/// A [`TraceSink`] that keeps every boundary — the adapter that turns the
/// streaming driver back into a materialized trace.
#[derive(Debug, Default)]
pub(crate) struct TraceRecorder {
    pub(crate) activations: Vec<Tensor>,
}

impl TraceRecorder {
    pub(crate) fn with_capacity(num_layers: usize) -> Self {
        TraceRecorder {
            activations: Vec::with_capacity(num_layers + 1),
        }
    }
}

impl TraceSink for TraceRecorder {
    fn on_input(&mut self, input: &Tensor) {
        self.activations.push(input.clone());
    }

    fn on_layer(&mut self, _index: usize, output: &Tensor) {
        self.activations.push(output.clone());
    }
}

/// A [`TraceSink`] decorator that times the gap between consecutive boundary
/// deliveries — i.e. each layer's compute *plus* whatever per-layer work the
/// wrapped sink does with the boundary (for `ptolemy-core`'s streaming
/// extraction sinks, that is exactly the paper's per-layer
/// forward+extraction cost).
///
/// Timings flow into the `nn.layer_ns` histogram of the supplied
/// [`Registry`] and into a per-drive `(layer index, ns)` list retrievable
/// with [`LayerTimingSink::layer_timings`].  The whole observer is behind
/// the registry's [`Registry::enabled`] gate: when disabled, `on_input` /
/// `on_layer` forward to the wrapped sink with one relaxed atomic load of
/// added cost and record nothing.
#[derive(Debug)]
pub struct LayerTimingSink<S> {
    inner: S,
    registry: Arc<Registry>,
    hist: HistogramHandle,
    last_ns: Option<u64>,
    layers: Vec<(usize, u64)>,
}

impl<S: TraceSink> LayerTimingSink<S> {
    /// Wraps `inner`, recording per-layer timings into `registry`'s
    /// `nn.layer_ns` histogram whenever the registry is enabled.
    pub fn new(inner: S, registry: Arc<Registry>) -> Self {
        let hist = registry.histogram("nn.layer_ns");
        LayerTimingSink {
            inner,
            registry,
            hist,
            last_ns: None,
            layers: Vec::new(),
        }
    }

    /// The per-layer `(layer index, duration ns)` pairs recorded so far, in
    /// delivery order (empty while the registry is disabled).
    pub fn layer_timings(&self) -> &[(usize, u64)] {
        &self.layers
    }

    /// Unwraps the decorated sink, returning it with the recorded timings.
    pub fn into_inner(self) -> (S, Vec<(usize, u64)>) {
        (self.inner, self.layers)
    }
}

impl<S: TraceSink> TraceSink for LayerTimingSink<S> {
    fn on_input(&mut self, input: &Tensor) {
        self.inner.on_input(input);
        if self.registry.enabled() {
            self.last_ns = Some(self.registry.clock().now_ns());
        }
    }

    fn on_layer(&mut self, index: usize, output: &Tensor) {
        self.inner.on_layer(index, output);
        if !self.registry.enabled() {
            return;
        }
        let now = self.registry.clock().now_ns();
        // Without an observed on_input (sink attached mid-drive) the first
        // layer has no start mark; begin timing from here instead.
        if let Some(last) = self.last_ns {
            let dur = now.saturating_sub(last);
            self.hist.record(dur);
            self.layers.push((index, dur));
        }
        self.last_ns = Some(now);
    }
}

/// Picks the predicted class from a logits tensor: the index of the largest
/// non-NaN logit.
///
/// Only NaN is excluded — infinities are totally ordered under `>`, so an
/// overflow-saturated `+∞` logit wins exactly as it does under
/// [`Tensor::argmax`] (and [`crate::Network::predict`]); filtering it out
/// would silently score the input against the wrong class's canary path.
///
/// # Errors
///
/// Returns [`NnError::InvalidLogits`] if `logits` is empty or all-NaN (the
/// historical `argmax().unwrap_or(0)` silently classified those as class 0).
pub fn predicted_class(logits: &Tensor) -> Result<usize> {
    let values = logits.as_slice();
    let mut best: Option<usize> = None;
    for (i, v) in values.iter().enumerate() {
        if !v.is_nan() && best.map_or(true, |b| *v > values[b]) {
            best = Some(i);
        }
    }
    best.ok_or_else(|| {
        NnError::InvalidLogits(if values.is_empty() {
            "logits tensor is empty".into()
        } else {
            format!("all {} logits are NaN", values.len())
        })
    })
}

/// Record of a full forward pass through a [`crate::Network`].
///
/// Stores each activation boundary exactly once: [`ForwardTrace::input`]`(i)`
/// and [`ForwardTrace::output`]`(i)` are views into the same list (layer `i`'s
/// output *is* layer `i + 1`'s input), so a materialized trace costs half of
/// what the historical `inputs`/`outputs` pair did.  The Ptolemy extraction
/// algorithms consume this trace: backward extraction walks it from the last
/// layer to the first, forward extraction walks it in layer order, and the
/// per-layer partial sums are recomputed on demand from `input(i)` via
/// [`crate::Layer::contributions`].
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// `activations[0]` is the network input; `activations[i + 1]` is layer
    /// `i`'s output.
    activations: Vec<Tensor>,
}

impl ForwardTrace {
    /// Assembles a trace from its activation boundaries (`num_layers + 1`
    /// tensors: the network input followed by every layer output in order).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if fewer than two boundaries are
    /// supplied (a non-empty network has at least one layer).
    pub fn from_activations(activations: Vec<Tensor>) -> Result<Self> {
        if activations.len() < 2 {
            return Err(NnError::InvalidConfig(format!(
                "a forward trace needs at least 2 activation boundaries, got {}",
                activations.len()
            )));
        }
        Ok(ForwardTrace { activations })
    }

    /// Number of layers traced.
    pub fn num_layers(&self) -> usize {
        self.activations.len() - 1
    }

    /// All activation boundaries: the network input followed by every layer
    /// output in order.
    pub fn activations(&self) -> &[Tensor] {
        &self.activations
    }

    /// Input activation of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_layers()` (same contract as indexing the
    /// historical `inputs` vector).
    pub fn input(&self, index: usize) -> &Tensor {
        &self.activations[index]
    }

    /// Output activation of layer `index` (identical to `input(index + 1)` for
    /// non-final layers).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_layers()`.
    pub fn output(&self, index: usize) -> &Tensor {
        &self.activations[index + 1]
    }

    /// Final network output (logits).
    pub fn logits(&self) -> &Tensor {
        self.activations
            .last()
            // lint:allow(panic-in-worker): forward_trace always records >= 2 boundaries
            .expect("a trace holds at least two boundaries")
    }

    /// Index of the predicted class (largest finite logit).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLogits`] if the logits contain no finite
    /// value — the historical `argmax().unwrap_or(0)` silently classified an
    /// all-NaN output as class 0.
    pub fn predicted_class(&self) -> Result<usize> {
        predicted_class(self.logits())
    }

    /// Total bytes of activation data this materialized trace holds resident —
    /// the baseline the streaming extraction pipeline's peak footprint is
    /// compared against.
    pub fn activation_bytes(&self) -> usize {
        self.activations
            .iter()
            .map(|t| t.len() * std::mem::size_of::<f32>())
            .sum()
    }
}

/// Record of one fused forward pass over a whole batch
/// ([`crate::Network::forward_trace_batch`]).
///
/// Activations are stored stacked, one tensor per boundary: boundary `i` has
/// shape `[B] ++ layer_shape` (NCHW convention — sample `b` is the contiguous
/// slab `b` of the leading dimension).  [`BatchTrace::trace`] slices one
/// sample's activations back out as an ordinary [`ForwardTrace`]; because the
/// fused kernels are bit-for-bit identical to the per-input path, the sliced
/// trace equals `forward_trace` of that sample exactly, so the extraction
/// algorithms in `ptolemy-core` can consume the slices without any tolerance.
#[derive(Debug, Clone)]
pub struct BatchTrace {
    batch_size: usize,
    /// `activations[0]` is the stacked batch input; `activations[i + 1]` is
    /// layer `i`'s stacked output.
    activations: Vec<Tensor>,
}

impl BatchTrace {
    /// Assembles a batch trace from stacked activation boundaries.
    pub(crate) fn new(batch_size: usize, activations: Vec<Tensor>) -> Self {
        BatchTrace {
            batch_size,
            activations,
        }
    }

    /// Number of samples in the fused batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of layers traced.
    pub fn num_layers(&self) -> usize {
        self.activations.len() - 1
    }

    /// All stacked activation boundaries (`[B] ++ boundary_shape` each).
    pub fn activations(&self) -> &[Tensor] {
        &self.activations
    }

    /// Stacked input activation of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_layers()`.
    pub fn input(&self, index: usize) -> &Tensor {
        &self.activations[index]
    }

    /// Stacked output activation of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_layers()`.
    pub fn output(&self, index: usize) -> &Tensor {
        &self.activations[index + 1]
    }

    /// Slices sample `index` out of the fused trace as a per-input
    /// [`ForwardTrace`] (bit-for-bit what `forward_trace` on that sample alone
    /// records).
    ///
    /// # Errors
    ///
    /// Returns an error if `index >= batch_size()`.
    pub fn trace(&self, index: usize) -> Result<ForwardTrace> {
        let activations = self
            .activations
            .iter()
            .map(|t| Ok(t.slice_batch(index)?))
            .collect::<Result<Vec<Tensor>>>()?;
        ForwardTrace::from_activations(activations)
    }

    /// Final logits of sample `index`.
    ///
    /// # Errors
    ///
    /// Returns an error if `index >= batch_size()`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty; [`crate::Network::forward_trace_batch`]
    /// never produces an empty trace for a non-empty network.
    pub fn logits(&self, index: usize) -> Result<Tensor> {
        Ok(self
            .activations
            .last()
            // lint:allow(panic-in-worker): forward_trace_batch never yields an empty trace
            .expect("batch trace of a non-empty network")
            .slice_batch(index)?)
    }

    /// Total bytes of stacked activation data this materialized batch trace
    /// holds resident.
    pub fn activation_bytes(&self) -> usize {
        self.activations
            .iter()
            .map(|t| t.len() * std::mem::size_of::<f32>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accessors() {
        let trace = ForwardTrace::from_activations(vec![
            Tensor::zeros(&[4]),
            Tensor::from_vec(vec![0.1, 0.9, 0.0], &[3]).unwrap(),
        ])
        .unwrap();
        assert_eq!(trace.num_layers(), 1);
        assert_eq!(trace.predicted_class().unwrap(), 1);
        assert_eq!(trace.logits().len(), 3);
        assert_eq!(trace.input(0).len(), 4);
        assert_eq!(trace.output(0).len(), 3);
        assert_eq!(trace.activations().len(), 2);
        assert_eq!(trace.activation_bytes(), (4 + 3) * 4);
        assert!(ForwardTrace::from_activations(vec![Tensor::zeros(&[4])]).is_err());
    }

    #[test]
    fn predicted_class_rejects_degenerate_logits() {
        // All-NaN logits must error instead of silently classifying as 0.
        let nan = Tensor::from_vec(vec![f32::NAN, f32::NAN], &[2]).unwrap();
        assert!(matches!(
            predicted_class(&nan),
            Err(NnError::InvalidLogits(_))
        ));
        // An empty logits tensor errors too.
        let empty = Tensor::zeros(&[0]);
        assert!(matches!(
            predicted_class(&empty),
            Err(NnError::InvalidLogits(_))
        ));
        // Infinities stay totally ordered: a saturated +inf logit wins exactly
        // as it does under argmax (Network::predict must agree with the
        // detection pipeline's predicted class).
        let saturated = Tensor::from_vec(vec![0.0, f32::INFINITY], &[2]).unwrap();
        assert_eq!(
            predicted_class(&saturated).unwrap(),
            saturated.argmax().unwrap()
        );
        let mixed = Tensor::from_vec(vec![f32::NAN, 0.25, f32::INFINITY], &[3]).unwrap();
        assert_eq!(predicted_class(&mixed).unwrap(), 2);
        // NaN entries are skipped, never poisoning later comparisons.
        let nan_first = Tensor::from_vec(vec![f32::NAN, 2.0, 1.0], &[3]).unwrap();
        assert_eq!(predicted_class(&nan_first).unwrap(), 1);
        // Plain finite logits match argmax exactly.
        let plain = Tensor::from_vec(vec![0.1, 0.9, 0.0], &[3]).unwrap();
        assert_eq!(predicted_class(&plain).unwrap(), plain.argmax().unwrap());
        // Ties keep the first index, like argmax.
        let tie = Tensor::from_vec(vec![0.7, 0.7], &[2]).unwrap();
        assert_eq!(predicted_class(&tie).unwrap(), 0);
    }

    #[test]
    fn batch_trace_slices_back_to_per_sample_traces() {
        // Two samples, one layer: inputs [2, 4], outputs [2, 3].
        let inputs = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 4]).unwrap();
        let outputs = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]).unwrap();
        let batch = BatchTrace::new(2, vec![inputs, outputs]);
        assert_eq!(batch.batch_size(), 2);
        assert_eq!(batch.num_layers(), 1);
        assert_eq!(batch.input(0).dims(), &[2, 4]);
        assert_eq!(batch.output(0).dims(), &[2, 3]);
        assert_eq!(batch.activation_bytes(), (8 + 6) * 4);
        let t0 = batch.trace(0).unwrap();
        assert_eq!(t0.input(0).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(t0.predicted_class().unwrap(), 1);
        let t1 = batch.trace(1).unwrap();
        assert_eq!(t1.predicted_class().unwrap(), 0);
        assert_eq!(batch.logits(1).unwrap().as_slice(), &[0.7, 0.2, 0.1]);
        assert!(batch.trace(2).is_err());
    }

    #[test]
    fn layer_timing_sink_times_gaps_and_respects_the_gate() {
        use ptolemy_obs::Clock;

        /// A sink that scripts the manual clock: each boundary "costs" 100 ns
        /// more than the previous one.
        struct Advancer {
            registry: Arc<Registry>,
            next_cost: u64,
        }
        impl TraceSink for Advancer {
            fn on_layer(&mut self, _index: usize, _output: &Tensor) {
                self.registry.clock().advance(self.next_cost);
                self.next_cost += 100;
            }
        }

        let registry = Arc::new(Registry::with_clock("nn", Clock::manual()));
        let advancer = Advancer {
            registry: Arc::clone(&registry),
            next_cost: 100,
        };
        let mut sink = LayerTimingSink::new(advancer, Arc::clone(&registry));
        let x = Tensor::zeros(&[4]);
        sink.on_input(&x);
        sink.on_layer(0, &x);
        sink.on_layer(1, &x);
        assert_eq!(sink.layer_timings(), &[(0, 100), (1, 200)]);
        let hist = registry.histogram("nn.layer_ns").snapshot();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.min(), Some(100));
        assert_eq!(hist.max(), Some(200));

        // Disabled registry: the decorator forwards but records nothing.
        registry.set_enabled(false);
        let advancer = Advancer {
            registry: Arc::clone(&registry),
            next_cost: 100,
        };
        let mut sink = LayerTimingSink::new(advancer, Arc::clone(&registry));
        sink.on_input(&x);
        sink.on_layer(0, &x);
        let (_, timings) = sink.into_inner();
        assert!(timings.is_empty());
        assert_eq!(registry.histogram("nn.layer_ns").snapshot().count(), 2);
    }

    #[test]
    fn recorder_sink_materializes_all_boundaries() {
        let mut recorder = TraceRecorder::with_capacity(2);
        let x = Tensor::zeros(&[4]);
        let h = Tensor::ones(&[3]);
        let y = Tensor::full(&[2], 0.5);
        recorder.on_input(&x);
        recorder.on_layer(0, &h);
        recorder.on_layer(1, &y);
        let trace = ForwardTrace::from_activations(recorder.activations).unwrap();
        assert_eq!(trace.num_layers(), 2);
        assert_eq!(trace.input(1).as_slice(), h.as_slice());
        assert_eq!(trace.logits().as_slice(), y.as_slice());
    }
}
