//! The offline set-up every workload pays before its server accepts requests:
//! dataset generation, training, canary-path profiling, FGSM set generation,
//! engine calibration and server start.  Every stage is a call into a public
//! crate API, timed from here, so `setup.*` attributes set-up time to layers.

use std::sync::Arc;
use std::time::Instant;

use ptolemy_attacks::{Attack, Fgsm};
use ptolemy_core::{variants, DetectionEngine, DetectionProgram, Profiler};
use ptolemy_data::{DatasetConfig, SyntheticDataset};
use ptolemy_nn::{zoo, Network, TrainConfig, Trainer};
use ptolemy_obs::Registry;
use ptolemy_serve::{CacheConfig, Server};
use ptolemy_tensor::{Rng64, Tensor};

use crate::BoxResult;

/// The victim model a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `zoo::lenet` on synth-small (4 classes, 3×8×8).
    LeNet,
    /// The AlexNet-class `zoo::conv_net` on a 10-class synth-ImageNet subset
    /// (3×16×16).
    AlexNet,
    /// A two-layer MLP on 8-feature inputs: the tiny configuration the
    /// benchmark's own tests run.
    Tiny,
}

/// Worker threads of every server: the `nproc` of the 2-core host the
/// workloads were sized on.
pub const WORKERS: usize = 2;

/// Capacity of the server's bounded submission queue.
pub const QUEUE_CAPACITY: usize = 256;

/// Screening scores in `[BAND.0, BAND.1]` escalate to the BwCu tier.
pub const BAND: (f32, f32) = (0.3, 0.7);

/// `true` when the server escalates a request the screen scored `score`.
pub fn in_band(score: f32) -> bool {
    score >= BAND.0 && score <= BAND.1
}

/// Wall time of each set-up stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub dataset: f64,
    pub train: f64,
    pub profile: f64,
    pub attack: f64,
    pub calibrate: f64,
    pub server_start: f64,
}

impl SetupTimes {
    /// Time from the first set-up call until the server accepts requests.
    pub fn total(&self) -> f64 {
        self.dataset + self.train + self.profile + self.attack + self.calibrate + self.server_start
    }
}

/// Everything a run needs after set-up: the engines, the running server and
/// the benign / FGSM inputs that traffic is derived from.
pub struct Stack {
    pub network: Arc<Network>,
    pub screen: Arc<DetectionEngine>,
    pub escalate: Arc<DetectionEngine>,
    pub benign: Vec<Tensor>,
    pub adversarial: Vec<Tensor>,
    pub server: Server,
    pub times: SetupTimes,
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn dataset_for(model: Model) -> BoxResult<SyntheticDataset> {
    Ok(match model {
        Model::LeNet => SyntheticDataset::generate(DatasetConfig {
            name: "synth-small".into(),
            num_classes: 4,
            shape: vec![3, 8, 8],
            train_per_class: 20,
            test_per_class: 6,
            noise: 0.12,
            seed: 0x5A11,
        })?,
        Model::AlexNet => SyntheticDataset::synth_imagenet_subset(10, 20, 6, 0xA1E7)?,
        Model::Tiny => SyntheticDataset::generate(DatasetConfig {
            name: "synth-tiny".into(),
            num_classes: 2,
            shape: vec![8],
            train_per_class: 12,
            test_per_class: 8,
            noise: 0.1,
            seed: 0x7171,
        })?,
    })
}

fn network_for(model: Model, classes: usize) -> BoxResult<Network> {
    Ok(match model {
        Model::LeNet => zoo::lenet(3, classes, &mut Rng64::new(0x5A11))?,
        Model::AlexNet => zoo::conv_net(classes, &mut Rng64::new(0xA1E7))?,
        Model::Tiny => zoo::mlp_net(&[8], classes, &mut Rng64::new(0x7171))?,
    })
}

/// The absolute forward threshold φ whose FwAb paths come closest to 10 %
/// density on a few test inputs: the right value depends on the trained
/// weights, so it is measured, not fixed.
fn calibrate_phi(network: &Network, probe: &[(Tensor, usize)]) -> BoxResult<f32> {
    let mut best = (0.01f32, f32::MAX);
    for phi in [0.01f32, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8] {
        let profiler = Profiler::new(variants::fw_ab(network, phi)?);
        let mut density = 0.0f32;
        for (input, _) in probe {
            density += profiler.extract(network, input)?.1.density();
        }
        density /= probe.len().max(1) as f32;
        let err = (density - 0.10).abs();
        if density > 0.0 && err < best.1 {
            best = (phi, err);
        }
    }
    Ok(best.0)
}

fn build_engine(
    network: &Arc<Network>,
    program: DetectionProgram,
    train: &[(Tensor, usize)],
    benign: &[Tensor],
    adversarial: &[Tensor],
    registry: Option<&Arc<Registry>>,
) -> BoxResult<(DetectionEngine, f64)> {
    let start = Instant::now();
    let class_paths = Profiler::new(program.clone()).profile(network, train)?;
    let profile_s = seconds_since(start);
    let mut builder = DetectionEngine::builder(network.clone(), program, class_paths)
        .calibrate(benign, adversarial);
    if let Some(registry) = registry {
        builder = builder.registry(registry.clone());
    }
    Ok((builder.build()?, profile_s))
}

/// Runs the whole set-up for `model` and starts the FwAb screen → BwCu
/// escalation server with the default path-prefix cache.  `registry`, when
/// given, is attached to both engines and the server (the traced run).
pub fn build(model: Model, registry: Option<&Arc<Registry>>) -> BoxResult<Stack> {
    let mut times = SetupTimes::default();

    let start = Instant::now();
    let dataset = dataset_for(model)?;
    times.dataset = seconds_since(start);

    let start = Instant::now();
    let mut network = network_for(model, dataset.num_classes())?;
    Trainer::new(TrainConfig {
        epochs: 40,
        batch_size: 8,
        learning_rate: 0.002,
        ..TrainConfig::default()
    })
    .fit(&mut network, dataset.train())?;
    let network = Arc::new(network);
    times.train = seconds_since(start);

    // Benign traffic: test inputs the clean model classifies correctly.
    // Adversarial traffic: successful FGSM perturbations of them.
    let start = Instant::now();
    let mut benign = Vec::new();
    let mut adversarial = Vec::new();
    let fgsm = Fgsm::new(0.25);
    for (input, label) in dataset.test() {
        if network.predict(input)? != *label {
            continue;
        }
        benign.push(input.clone());
        let example = fgsm.perturb(&network, input, *label)?;
        if example.success {
            adversarial.push(example.input);
        }
    }
    times.attack = seconds_since(start);
    if benign.len() < 4 || adversarial.len() < 4 {
        return Err(format!(
            "set-up produced {} benign and {} adversarial inputs; need at least 4 of each",
            benign.len(),
            adversarial.len()
        )
        .into());
    }

    let start = Instant::now();
    let probe: Vec<(Tensor, usize)> = dataset.test().iter().take(8).cloned().collect();
    let phi = calibrate_phi(&network, &probe)?;
    let screen_program = variants::fw_ab(&network, phi)?;
    let escalate_program = variants::bw_cu(&network, 0.5)?;
    times.profile = seconds_since(start);

    let start = Instant::now();
    let (screen, screen_profile_s) = build_engine(
        &network,
        screen_program,
        dataset.train(),
        &benign,
        &adversarial,
        registry,
    )?;
    let (escalate, escalate_profile_s) = build_engine(
        &network,
        escalate_program,
        dataset.train(),
        &benign,
        &adversarial,
        registry,
    )?;
    let engines_s = seconds_since(start);
    times.profile += screen_profile_s + escalate_profile_s;
    times.calibrate = engines_s - screen_profile_s - escalate_profile_s;
    let screen = Arc::new(screen);
    let escalate = Arc::new(escalate);

    let start = Instant::now();
    let mut builder = Server::builder(screen.clone())
        .escalate(escalate.clone(), BAND.0, BAND.1)
        .workers(WORKERS)
        .queue_capacity(QUEUE_CAPACITY)
        .cache(CacheConfig::default());
    if let Some(registry) = registry {
        builder = builder.instrument(registry.clone());
    }
    let server = builder.start()?;
    times.server_start = seconds_since(start);

    Ok(Stack {
        network,
        screen,
        escalate,
        benign,
        adversarial,
        server,
        times,
    })
}

/// FNV-1a over the engines' fingerprints and thresholds and the verdict bits
/// both engines give every set-up input: equal digests mean two set-ups
/// trained, profiled and calibrated to the same detector.
pub fn digest(stack: &Stack) -> BoxResult<u64> {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for engine in [&stack.screen, &stack.escalate] {
        feed(engine.fingerprint().as_bytes());
        feed(&engine.threshold().to_bits().to_le_bytes());
        for input in stack.benign.iter().chain(&stack.adversarial) {
            let detection = engine.detect(input)?;
            feed(&detection.score.to_bits().to_le_bytes());
            feed(&detection.similarity.to_bits().to_le_bytes());
            feed(&(detection.predicted_class as u64).to_le_bytes());
        }
    }
    Ok(hash)
}
