//! Property-based parity suite for the streaming extraction pipeline: across
//! every `variants::*` program (both directions, both threshold kinds, early
//! termination and late start) and batch sizes 1..8, the streamed pipeline —
//! masks computed while the forward pass runs, activations dropped eagerly —
//! must be **bit-for-bit identical** to the materialized trace-then-extract
//! pipeline: same paths, same similarities/scores, same detect verdicts —
//! in f32 and through the int8 `QuantizedNetwork`, which streams through the
//! same extraction.  The suite also pins the memory guarantee: the streamed
//! peak resident activation bytes stay strictly below what the materialized
//! trace holds.

mod common;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use ptolemy::core::{
    extract_path, extract_path_streaming, extract_paths_streaming_batch, variants, ActivationPath,
    Detection, DetectionEngine, DetectionProgram, Profiler,
};
use ptolemy::nn::{Network, QuantizedNetwork};
use ptolemy::prelude::{Attack, Fgsm, Tensor};
use ptolemy::tensor::Rng64;

/// One trained victim plus a calibrated engine per `variants::*` constructor.
struct Fixture {
    network: Arc<Network>,
    /// An int8 network quantized from `network`'s instance.
    qnet: QuantizedNetwork,
    engines: Vec<(&'static str, DetectionEngine)>,
    inputs: Vec<Tensor>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let (network, dataset) = common::trained_lenet(0x57E4);
        let network = Arc::new(network);
        let benign = common::benign_inputs(&dataset);
        let attack = Fgsm::new(0.25);
        let adversarial: Vec<Tensor> = common::correct_samples(&network, &dataset)
            .iter()
            .map(|(x, y)| attack.perturb(&network, x, *y).unwrap().input)
            .collect();

        // Every canned program constructor: both directions, both threshold
        // kinds, the hybrid mix and both selective-extraction modes.
        let programs = vec![
            ("bw_cu", variants::bw_cu(&network, 0.5).unwrap()),
            ("bw_ab", variants::bw_ab(&network, 0.2).unwrap()),
            ("fw_ab", variants::fw_ab(&network, 0.05).unwrap()),
            ("fw_cu", variants::fw_cu(&network, 0.5).unwrap()),
            ("hybrid", variants::hybrid(&network, 0.2, 0.5).unwrap()),
            (
                "bw_cu_early_termination",
                variants::bw_cu_early_termination(&network, 0.5, 2).unwrap(),
            ),
            (
                "fw_ab_late_start",
                variants::fw_ab_late_start(&network, 0.05, 1).unwrap(),
            ),
        ];
        let engines = programs
            .into_iter()
            .map(|(name, program)| {
                let class_paths = Profiler::new(program.clone())
                    .profile(&network, dataset.train())
                    .unwrap();
                let engine = DetectionEngine::builder(network.clone(), program, class_paths)
                    .calibrate(&benign, &adversarial)
                    .build()
                    .unwrap();
                (name, engine)
            })
            .collect();

        let qnet = QuantizedNetwork::quantize(network.clone(), &benign[..8]).unwrap();
        let mut inputs = benign;
        inputs.extend(adversarial);
        Fixture {
            network,
            qnet,
            engines,
            inputs,
        }
    })
}

/// A batch of 1..=8 inputs mixing dataset draws with one arbitrary tensor.
fn batch(seed: u64, len: usize, scale: f32) -> Vec<Tensor> {
    let fx = fixture();
    let mut rng = Rng64::new(seed);
    let mut batch: Vec<Tensor> = (0..len.saturating_sub(1))
        .map(|_| fx.inputs[rng.below(fx.inputs.len())].clone())
        .collect();
    batch.push(
        Tensor::from_vec(
            (0..3 * 8 * 8).map(|_| scale * rng.normal()).collect(),
            &[3, 8, 8],
        )
        .unwrap(),
    );
    batch
}

/// The retired pipeline the streamed one must reproduce exactly: materialize
/// the full trace, extract after the fact.
fn materialized_path(
    network: &Network,
    program: &DetectionProgram,
    input: &Tensor,
) -> (usize, ActivationPath) {
    let trace = network.forward_trace(input).unwrap();
    let predicted = trace.predicted_class().unwrap();
    let path = extract_path(network, &trace, program).unwrap();
    (predicted, path)
}

/// The materialized int8 oracle: the quantized batch-of-one trace, extracted
/// after the fact.
fn materialized_int8_path(
    qnet: &QuantizedNetwork,
    program: &DetectionProgram,
    input: &Tensor,
) -> (usize, ActivationPath) {
    let trace = qnet
        .forward_trace_batch(std::slice::from_ref(input))
        .unwrap()
        .trace(0)
        .unwrap();
    let predicted = trace.predicted_class().unwrap();
    let path = extract_path(qnet.network(), &trace, program).unwrap();
    (predicted, path)
}

/// Class, similarity and forest score of a materialized `(class, path)`
/// against `engine`'s canary paths and classifier.
fn score(engine: &DetectionEngine, (class, path): (usize, ActivationPath)) -> (usize, f32, f32) {
    let similarity = path
        .similarity(engine.class_paths().class_path(class).unwrap())
        .unwrap();
    let score = engine
        .forest()
        .expect("calibrated engine")
        .predict_proba(&[similarity])
        .unwrap();
    (class, similarity, score)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Streamed single-input and fused-batch extraction produce bit-for-bit
    /// the materialized pipeline's paths and predicted classes, for every
    /// `variants::*` program and batch sizes 1..8.
    #[test]
    fn streamed_extraction_matches_materialized_bit_for_bit(
        seed in 0u64..10_000,
        len in 1usize..=8,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let inputs = batch(seed, len, scale);
        for (name, engine) in &fx.engines {
            let program = engine.program();

            // Fused-batch streaming vs per-sample materialized slices.
            let streamed = extract_paths_streaming_batch(&fx.network, program, &inputs).unwrap();
            prop_assert_eq!(streamed.samples.len(), inputs.len());
            let batch_trace = fx.network.forward_trace_batch(&inputs).unwrap();
            for (b, input) in inputs.iter().enumerate() {
                let (expected_class, expected_path) =
                    materialized_path(&fx.network, program, input);
                let (streamed_class, streamed_path) = &streamed.samples[b];
                prop_assert!(
                    *streamed_class == expected_class,
                    "variant {}: predicted class diverged for sample {}",
                    name,
                    b
                );
                prop_assert!(
                    streamed_path == &expected_path,
                    "variant {}: streamed batch path diverged for sample {}",
                    name,
                    b
                );

                // Single-input streaming agrees too, including the logits.
                let single = extract_path_streaming(&fx.network, program, input).unwrap();
                prop_assert_eq!(single.predicted_class, expected_class);
                prop_assert_eq!(&single.path, &expected_path);
                let materialized_trace = batch_trace.trace(b).unwrap();
                for (s, m) in single
                    .logits
                    .as_slice()
                    .iter()
                    .zip(materialized_trace.logits().as_slice())
                {
                    prop_assert_eq!(s.to_bits(), m.to_bits());
                }
            }

            // Memory guarantee: the streamed pipeline never holds the full
            // trace (every variant retains at most a strict subset).
            prop_assert!(
                streamed.footprint.peak_streamed_bytes < batch_trace.activation_bytes(),
                "variant {}: streamed peak {} >= materialized {}",
                name,
                streamed.footprint.peak_streamed_bytes,
                batch_trace.activation_bytes()
            );
        }
    }

    /// Detect verdicts served through the streamed engine (single and fused
    /// batch) are bit-for-bit what the materialized pipeline scores: the
    /// similarity comes from an identical path, so the forest score and the
    /// verdict match exactly.  The int8 entry point streams through the same
    /// extraction and matches the materialized int8 oracle the same way.
    #[test]
    fn streamed_detect_matches_materialized_scoring(
        seed in 0u64..10_000,
        len in 1usize..=8,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let inputs = batch(seed, len, scale);
        for (name, engine) in &fx.engines {
            let batched = engine.detect_batch(&inputs).unwrap();
            prop_assert_eq!(batched.len(), inputs.len());
            let int8: Vec<Detection> = engine
                .detect_batch_quantized_with(&fx.qnet, &inputs)
                .into_iter()
                .map(|r| r.unwrap().0)
                .collect();
            prop_assert_eq!(int8.len(), inputs.len());
            for ((input, served), served_int8) in inputs.iter().zip(&batched).zip(&int8) {
                for (precision, served, expected) in [
                    (
                        "f32",
                        served,
                        score(engine, materialized_path(&fx.network, engine.program(), input)),
                    ),
                    (
                        "int8",
                        served_int8,
                        score(engine, materialized_int8_path(&fx.qnet, engine.program(), input)),
                    ),
                ] {
                    let (expected_class, similarity, score) = expected;
                    prop_assert!(
                        served.predicted_class == expected_class,
                        "variant {} ({}): class diverged",
                        name,
                        precision
                    );
                    prop_assert!(
                        served.similarity.to_bits() == similarity.to_bits(),
                        "variant {} ({}): similarity diverged",
                        name,
                        precision
                    );
                    prop_assert!(
                        served.score.to_bits() == score.to_bits(),
                        "variant {} ({}): score diverged",
                        name,
                        precision
                    );
                    prop_assert_eq!(served.is_adversary, score >= engine.threshold());
                }

                // The single-input engine path agrees with the fused batch.
                let single = engine.detect(input).unwrap();
                prop_assert_eq!(single.score.to_bits(), served.score.to_bits());
                prop_assert_eq!(
                    single.similarity.to_bits(),
                    served.similarity.to_bits()
                );
            }
        }
    }
}
