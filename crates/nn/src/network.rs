use ptolemy_tensor::Tensor;

use crate::trace::{Discard, TraceRecorder};
use crate::{BatchTrace, ForwardTrace, Layer, NnError, Result, TraceSink};

/// Parameter gradients for a whole network, one entry per layer (in layer order).
#[derive(Debug, Clone)]
pub struct NetworkGrads {
    /// Per-layer parameter gradients (same nesting as `Network::layer(i).params()`).
    pub param_grads: Vec<Vec<Tensor>>,
    /// Gradient of the loss with respect to the network input.
    pub input_grad: Tensor,
}

/// A feed-forward network: an ordered stack of [`Layer`]s operating on one sample.
///
/// Residual/skip structure is encapsulated inside composite layers
/// ([`crate::layer::Residual`]), so the network itself is strictly sequential —
/// which is also how Ptolemy's per-layer path extraction (and its ISA, whose
/// `inf`/`infsp` instructions are per-layer) views the model.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    input_shape: Vec<usize>,
    num_classes: usize,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("input_shape", &self.input_shape)
            .field("num_classes", &self.num_classes)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Network {
    /// Builds a network from a layer stack.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the stack is empty or consecutive
    /// layers disagree about activation shapes.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Result<Self> {
        if layers.is_empty() {
            return Err(NnError::InvalidConfig(
                "network must have at least one layer".into(),
            ));
        }
        let input_shape = layers[0].input_shape();
        let mut cur = input_shape.clone();
        for (i, layer) in layers.iter().enumerate() {
            if layer.input_shape() != cur {
                return Err(NnError::InvalidConfig(format!(
                    "layer {i} ({}) expects shape {:?} but receives {:?}",
                    layer.name(),
                    layer.input_shape(),
                    cur
                )));
            }
            cur = layer.output_shape();
        }
        if cur.len() != 1 {
            return Err(NnError::InvalidConfig(format!(
                "network output must be a class-score vector, got shape {cur:?}"
            )));
        }
        Ok(Network {
            num_classes: cur[0],
            input_shape,
            layers,
        })
    }

    /// Number of layers (including activation/pooling layers).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Expected per-sample input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Borrow a layer by index.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LayerOutOfRange`] if `index >= num_layers()`.
    pub fn layer(&self, index: usize) -> Result<&dyn Layer> {
        self.layers
            .get(index)
            .map(|b| b.as_ref())
            .ok_or(NnError::LayerOutOfRange {
                index,
                num_layers: self.layers.len(),
            })
    }

    /// Iterator over all layers in order.
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|b| b.as_ref())
    }

    /// Indices of layers that carry weights (the layers Ptolemy extracts important
    /// neurons from).
    pub fn weight_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind().is_weight_layer())
            .map(|(i, _)| i)
            .collect()
    }

    /// Total multiply-accumulate count of one inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.kind().macs()).sum()
    }

    /// Runs a plain forward pass and returns the logits.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network input shape.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let mut cur = input.clone();
        for layer in &self.layers {
            cur = layer.forward(&cur)?;
        }
        Ok(cur)
    }

    /// Runs a forward pass, handing every activation boundary to `sink` as it
    /// is produced — the streaming driver both [`Network::forward_trace`] and
    /// the `ptolemy-core` streaming extraction pipeline are adapters over.
    ///
    /// The driver itself holds only the current layer's input and output; what
    /// outlives a layer is entirely the sink's decision, so a selective sink
    /// observes the full pass in O(largest layer) memory.  Returns the final
    /// logits.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network input shape.
    pub fn forward_with_sink<S: TraceSink + ?Sized>(
        &self,
        input: &Tensor,
        sink: &mut S,
    ) -> Result<Tensor> {
        sink.on_input(input);
        let mut cur = input.clone();
        for (index, layer) in self.layers.iter().enumerate() {
            let out = layer.forward(&cur)?;
            sink.on_layer(index, &out);
            cur = out;
        }
        Ok(cur)
    }

    /// Runs a forward pass recording every activation boundary (a thin adapter
    /// over [`Network::forward_with_sink`] with a keep-everything sink).
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network input shape.
    pub fn forward_trace(&self, input: &Tensor) -> Result<ForwardTrace> {
        let mut recorder = TraceRecorder::with_capacity(self.layers.len());
        self.forward_with_sink(input, &mut recorder)?;
        ForwardTrace::from_activations(recorder.activations)
    }

    /// Stacks `inputs` into one `[B] ++ input_shape` batch, validating shapes.
    fn stack_batch(&self, inputs: &[Tensor]) -> Result<Tensor> {
        if inputs.is_empty() {
            return Err(NnError::InvalidConfig(
                "batched forward pass requires at least one input".into(),
            ));
        }
        for input in inputs {
            if input.dims() != self.input_shape {
                return Err(NnError::InvalidConfig(format!(
                    "network expects input shape {:?}, got {:?}",
                    self.input_shape,
                    input.dims()
                )));
            }
        }
        Ok(Tensor::stack(inputs)?)
    }

    /// Runs one fused forward pass over a whole batch and returns the stacked
    /// logits (`[B, num_classes]`).
    ///
    /// Row `b` is bit-for-bit identical to `forward(&inputs[b])` — every layer's
    /// [`Layer::forward_batch`] preserves the per-input reduction order, so
    /// batching changes throughput, never arithmetic.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs` is empty or any input does not match the
    /// network input shape.
    pub fn forward_batch(&self, inputs: &[Tensor]) -> Result<Tensor> {
        self.forward_with_sink_batch(inputs, &mut Discard)
    }

    /// Runs one fused forward pass over a whole batch, handing each stacked
    /// activation boundary (`[B] ++ boundary_shape`) to `sink` as it is
    /// produced — the batched twin of [`Network::forward_with_sink`].  Returns
    /// the stacked logits.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs` is empty or any input does not match the
    /// network input shape.
    pub fn forward_with_sink_batch<S: TraceSink + ?Sized>(
        &self,
        inputs: &[Tensor],
        sink: &mut S,
    ) -> Result<Tensor> {
        self.drive_batch(inputs, sink, |_, layer, batch| layer.forward_batch(batch))
    }

    /// The one batched layer loop behind the f32 and the int8
    /// ([`crate::QuantizedNetwork`]) drivers: validates and stacks `inputs`,
    /// then runs `step(index, layer, stacked_input)` for every layer, handing
    /// each stacked boundary to `sink` as it is produced.  Only the per-layer
    /// step differs between precisions.
    pub(crate) fn drive_batch<S: TraceSink + ?Sized>(
        &self,
        inputs: &[Tensor],
        sink: &mut S,
        step: impl Fn(usize, &dyn Layer, &Tensor) -> Result<Tensor>,
    ) -> Result<Tensor> {
        let mut cur = self.stack_batch(inputs)?;
        sink.on_input(&cur);
        for (index, layer) in self.layers.iter().enumerate() {
            let out = step(index, layer.as_ref(), &cur)?;
            sink.on_layer(index, &out);
            cur = out;
        }
        Ok(cur)
    }

    /// Runs one fused forward pass over a whole batch, recording every stacked
    /// activation boundary (a thin adapter over
    /// [`Network::forward_with_sink_batch`] with a keep-everything sink).
    ///
    /// `forward_trace_batch(xs)?.trace(b)?` is bit-for-bit identical to
    /// `forward_trace(&xs[b])?` — the property that lets `ptolemy-core` extract
    /// each input's activation path from the slices of a single fused trace.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs` is empty or any input does not match the
    /// network input shape.
    pub fn forward_trace_batch(&self, inputs: &[Tensor]) -> Result<BatchTrace> {
        let mut recorder = TraceRecorder::with_capacity(self.layers.len());
        self.forward_with_sink_batch(inputs, &mut recorder)?;
        Ok(BatchTrace::new(inputs.len(), recorder.activations))
    }

    /// Predicted class of `input` (argmax of the logits).
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network input shape.
    pub fn predict(&self, input: &Tensor) -> Result<usize> {
        Ok(self.forward(input)?.argmax()?)
    }

    /// Backward pass given a recorded trace and the gradient of the loss w.r.t. the
    /// logits.  Returns parameter gradients per layer plus the input gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if the trace does not match the network or shapes are
    /// inconsistent.
    pub fn backward(&self, trace: &ForwardTrace, grad_logits: &Tensor) -> Result<NetworkGrads> {
        if trace.num_layers() != self.layers.len() {
            return Err(NnError::InvalidConfig(format!(
                "trace has {} layers but network has {}",
                trace.num_layers(),
                self.layers.len()
            )));
        }
        let mut grad = grad_logits.clone();
        let mut per_layer = vec![Vec::new(); self.layers.len()];
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let grads = layer.backward(trace.input(i), &grad)?;
            per_layer[i] = grads.param_grads;
            grad = grads.input_grad;
        }
        Ok(NetworkGrads {
            param_grads: per_layer,
            input_grad: grad,
        })
    }

    /// Gradient of the softmax-cross-entropy loss (w.r.t. the input) for a given
    /// label — the quantity white-box attacks ascend.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLabel`] if `label` is out of range, or shape errors
    /// from the forward/backward passes.
    pub fn input_gradient(&self, input: &Tensor, label: usize) -> Result<Tensor> {
        if label >= self.num_classes {
            return Err(NnError::InvalidLabel {
                label,
                num_classes: self.num_classes,
            });
        }
        let trace = self.forward_trace(input)?;
        let grad_logits = crate::loss::softmax_cross_entropy_grad(trace.logits(), label)?;
        Ok(self.backward(&trace, &grad_logits)?.input_grad)
    }

    /// Applies a gradient step `p -= lr * g` to every parameter.
    ///
    /// # Errors
    ///
    /// Returns an error if `grads` does not match the network structure.
    pub fn apply_gradients(&mut self, grads: &NetworkGrads, lr: f32) -> Result<()> {
        if grads.param_grads.len() != self.layers.len() {
            return Err(NnError::InvalidConfig(
                "gradient/layer count mismatch".into(),
            ));
        }
        for (layer, layer_grads) in self.layers.iter_mut().zip(&grads.param_grads) {
            let params = layer.params_mut();
            if params.len() != layer_grads.len() {
                return Err(NnError::InvalidConfig(
                    "gradient/parameter count mismatch inside a layer".into(),
                ));
            }
            for (p, g) in params.into_iter().zip(layer_grads) {
                p.add_scaled_inplace(g, -lr)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Flatten, ReLU};
    use ptolemy_tensor::Rng64;

    fn tiny_net(rng: &mut Rng64) -> Network {
        Network::new(vec![
            Box::new(Flatten::new(&[1, 2, 2])),
            Box::new(Dense::new(4, 5, rng).unwrap()),
            Box::new(ReLU::new(&[5])),
            Box::new(Dense::new(5, 3, rng).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn construction_checks_shapes() {
        let mut rng = Rng64::new(0);
        assert!(Network::new(vec![]).is_err());
        // Mismatched consecutive shapes.
        let bad = Network::new(vec![
            Box::new(Dense::new(4, 5, &mut rng).unwrap()) as Box<dyn Layer>,
            Box::new(Dense::new(6, 3, &mut rng).unwrap()),
        ]);
        assert!(bad.is_err());
    }

    #[test]
    fn forward_and_trace_agree() {
        let mut rng = Rng64::new(1);
        let net = tiny_net(&mut rng);
        let x = Tensor::ones(&[1, 2, 2]);
        let logits = net.forward(&x).unwrap();
        let trace = net.forward_trace(&x).unwrap();
        assert_eq!(trace.num_layers(), 4);
        assert_eq!(trace.logits().as_slice(), logits.as_slice());
        assert_eq!(net.predict(&x).unwrap(), logits.argmax().unwrap());
        // Chaining property: output(i) and input(i + 1) are the same boundary.
        for i in 0..trace.num_layers() - 1 {
            assert_eq!(trace.output(i).as_slice(), trace.input(i + 1).as_slice());
        }
        // The trace holds each boundary once: num_layers + 1 activations.
        assert_eq!(trace.activations().len(), trace.num_layers() + 1);
    }

    /// A sink that keeps only the layer indices and boundary lengths it saw —
    /// the streaming driver must visit every layer in order without the sink
    /// retaining any activation.
    #[test]
    fn forward_with_sink_streams_boundaries_in_order() {
        struct Probe {
            seen: Vec<(usize, usize)>,
            input_len: usize,
        }
        impl TraceSink for Probe {
            fn on_input(&mut self, input: &Tensor) {
                self.input_len = input.len();
            }
            fn on_layer(&mut self, index: usize, output: &Tensor) {
                self.seen.push((index, output.len()));
            }
        }
        let mut rng = Rng64::new(9);
        let net = tiny_net(&mut rng);
        let x = Tensor::ones(&[1, 2, 2]);
        let mut probe = Probe {
            seen: Vec::new(),
            input_len: 0,
        };
        let logits = net.forward_with_sink(&x, &mut probe).unwrap();
        assert_eq!(logits.as_slice(), net.forward(&x).unwrap().as_slice());
        assert_eq!(probe.input_len, 4);
        assert_eq!(
            probe.seen,
            vec![(0usize, 4usize), (1, 5), (2, 5), (3, 3)],
            "every layer must be observed in order"
        );

        // The batched driver observes stacked boundaries.
        let mut probe = Probe {
            seen: Vec::new(),
            input_len: 0,
        };
        let batch = vec![x.clone(), x];
        let stacked = net.forward_with_sink_batch(&batch, &mut probe).unwrap();
        assert_eq!(stacked.dims(), &[2, 3]);
        assert_eq!(probe.input_len, 8);
        assert_eq!(probe.seen, vec![(0usize, 8usize), (1, 10), (2, 10), (3, 6)]);
    }

    #[test]
    fn weight_layer_indices_and_macs() {
        let mut rng = Rng64::new(2);
        let net = tiny_net(&mut rng);
        assert_eq!(net.weight_layer_indices(), vec![1, 3]);
        assert_eq!(net.total_macs(), 4 * 5 + 5 * 3);
        assert_eq!(net.num_classes(), 3);
        assert_eq!(net.input_shape(), &[1, 2, 2]);
        assert!(net.layer(4).is_err());
        assert_eq!(net.layer(2).unwrap().name(), "relu");
    }

    #[test]
    fn input_gradient_matches_numeric() {
        let mut rng = Rng64::new(3);
        let net = tiny_net(&mut rng);
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.8, 0.1], &[1, 2, 2]).unwrap();
        let label = 1;
        let grad = net.input_gradient(&x, label).unwrap();
        let loss = |input: &Tensor| {
            let logits = net.forward(input).unwrap();
            crate::loss::cross_entropy_loss(&logits, label).unwrap()
        };
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let ana = grad.as_slice()[i];
            assert!((num - ana).abs() < 1e-2, "grad {i}: {num} vs {ana}");
        }
        assert!(net.input_gradient(&x, 99).is_err());
    }

    #[test]
    fn fused_batch_matches_per_input_path_bit_for_bit() {
        let mut rng = Rng64::new(11);
        // A conv net exercises every fused kernel: conv, relu, pools, flatten,
        // dense and the residual block.
        let net = crate::zoo::resnet_mini(3, &mut rng).unwrap();
        let inputs: Vec<Tensor> = (0..5)
            .map(|i| {
                let data = (0..net.input_shape().iter().product::<usize>())
                    .map(|_| rng.normal() * (1.0 + i as f32 * 0.3))
                    .collect();
                Tensor::from_vec(data, net.input_shape()).unwrap()
            })
            .collect();

        let logits = net.forward_batch(&inputs).unwrap();
        assert_eq!(logits.dims(), &[5, net.num_classes()]);
        let batch_trace = net.forward_trace_batch(&inputs).unwrap();
        assert_eq!(batch_trace.batch_size(), 5);
        assert_eq!(batch_trace.num_layers(), net.num_layers());

        for (b, input) in inputs.iter().enumerate() {
            let single = net.forward(input).unwrap();
            let fused = logits.slice_batch(b).unwrap();
            for (f, s) in fused.as_slice().iter().zip(single.as_slice()) {
                assert_eq!(f.to_bits(), s.to_bits());
            }
            let single_trace = net.forward_trace(input).unwrap();
            let sliced = batch_trace.trace(b).unwrap();
            for layer in 0..net.num_layers() {
                for (f, s) in sliced
                    .output(layer)
                    .as_slice()
                    .iter()
                    .zip(single_trace.output(layer).as_slice())
                {
                    assert_eq!(f.to_bits(), s.to_bits());
                }
                assert_eq!(sliced.input(layer).dims(), single_trace.input(layer).dims());
            }
        }
    }

    #[test]
    fn batched_forward_rejects_empty_and_mismatched_inputs() {
        let mut rng = Rng64::new(12);
        let net = tiny_net(&mut rng);
        assert!(net.forward_batch(&[]).is_err());
        let bad = vec![Tensor::ones(&[1, 2, 2]), Tensor::ones(&[4])];
        assert!(net.forward_batch(&bad).is_err());
        assert!(net.forward_trace_batch(&bad).is_err());
        // A batch of one works and equals the single path.
        let one = vec![Tensor::ones(&[1, 2, 2])];
        let fused = net.forward_batch(&one).unwrap();
        let single = net.forward(&one[0]).unwrap();
        assert_eq!(fused.slice_batch(0).unwrap().as_slice(), single.as_slice());
    }

    #[test]
    fn apply_gradients_moves_parameters_downhill() {
        let mut rng = Rng64::new(4);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::from_vec(vec![0.5, -0.5, 0.25, 1.0], &[1, 2, 2]).unwrap();
        let label = 2;
        let before = {
            let logits = net.forward(&x).unwrap();
            crate::loss::cross_entropy_loss(&logits, label).unwrap()
        };
        for _ in 0..20 {
            let trace = net.forward_trace(&x).unwrap();
            let grad_logits =
                crate::loss::softmax_cross_entropy_grad(trace.logits(), label).unwrap();
            let grads = net.backward(&trace, &grad_logits).unwrap();
            net.apply_gradients(&grads, 0.1).unwrap();
        }
        let after = {
            let logits = net.forward(&x).unwrap();
            crate::loss::cross_entropy_loss(&logits, label).unwrap()
        };
        assert!(after < before, "loss should decrease: {before} -> {after}");
    }
}
