//! Quickstart: train a small victim network on synthetic data, profile its canary
//! class paths offline, bind a `DetectionEngine` once, and detect FGSM adversarial
//! samples in batches at inference time.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ptolemy::prelude::*;
use ptolemy::tensor::Rng64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data and victim model: a 10-class CIFAR-style synthetic dataset and a small
    //    convolutional network.
    let dataset = SyntheticDataset::synth_cifar10(30, 10, 7)?;
    let mut rng = Rng64::new(7);
    let mut network = ptolemy::nn::zoo::lenet(3, dataset.num_classes(), &mut rng)?;
    let report = Trainer::new(TrainConfig {
        epochs: 40,
        batch_size: 8,
        learning_rate: 0.002,
        ..TrainConfig::default()
    })
    .fit(&mut network, dataset.train())?;
    println!(
        "victim trained: clean accuracy {:.2}",
        report.final_accuracy
    );

    // 2. Offline phase (Fig. 4 left): profile the training set into per-class canary
    //    paths using the BwCu algorithm (backward extraction, cumulative threshold).
    let program = variants::bw_cu(&network, 0.5)?;
    let class_paths = Profiler::new(program.clone()).profile(&network, dataset.train())?;
    println!(
        "profiled {} canary class paths ({} bits each)",
        class_paths.num_classes(),
        class_paths.class_path(0)?.path().total_bits()
    );

    // 3. Build the serving engine: the program/class-path fingerprint is validated
    //    once here, the random-forest classifier is calibrated from benign test
    //    inputs and FGSM adversarial samples, and the decision threshold is an
    //    explicit knob instead of a hard-coded 0.5.
    let attack = Fgsm::new(0.25);
    let benign: Vec<_> = dataset.test().iter().map(|(x, _)| x.clone()).collect();
    let adversarial: Vec<_> = dataset
        .test()
        .iter()
        .map(|(x, y)| attack.perturb(&network, x, *y).map(|e| e.input))
        .collect::<Result<Vec<_>, _>>()?;
    let engine = DetectionEngine::builder(network, program, class_paths)
        .threshold(0.5)
        .calibrate(
            &benign[..benign.len() / 2],
            &adversarial[..adversarial.len() / 2],
        )
        .build()?;

    // 4. Online phase (Fig. 4 right): detect held-out benign and adversarial inputs
    //    in one fused batch each.
    let mut correct = 0usize;
    let mut total = 0usize;
    for (inputs, expected) in [
        (&benign[benign.len() / 2..], false),
        (&adversarial[adversarial.len() / 2..], true),
    ] {
        for verdict in engine.detect_batch(inputs)? {
            if verdict.is_adversary == expected {
                correct += 1;
            }
            total += 1;
        }
    }
    println!(
        "held-out detection accuracy: {:.2} ({correct}/{total})",
        correct as f32 / total as f32
    );

    // 5. AUC over the same held-out split, the metric the paper reports; one
    //    fused batch scores each half.
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for (inputs, is_adv) in [
        (&benign[benign.len() / 2..], false),
        (&adversarial[adversarial.len() / 2..], true),
    ] {
        for verdict in engine.detect_batch(inputs)? {
            scores.push(verdict.score);
            labels.push(is_adv);
        }
    }
    println!("held-out detection AUC: {:.3}", auc(&scores, &labels)?);
    Ok(())
}
