//! The serving workloads: fixed, seeded request schedules whose rates,
//! windows and input pools are absolute constants.  Nothing here is derived
//! from a capacity probe, so a parent commit and a change face the same
//! traffic.  The seed chooses the draws; the server only ever sees the
//! generated inputs.

use std::time::Duration;

use ptolemy_tensor::{Rng64, Tensor};

use crate::setup::Model;
use crate::BoxResult;

/// How requests arrive.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop, Poisson arrivals at a fixed rate (requests per second).
    Poisson { rate: f64 },
    /// Closed loop: one client keeps `window` requests outstanding.
    Closed { window: usize },
}

/// Which inputs requests carry.  Every input is a benign or FGSM pool item
/// plus uniform noise in `[-AMPLITUDE, AMPLITUDE]` on every element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inputs {
    /// Repeats from a fixed population of [`VARIANTS`] inputs per kind:
    /// variant `j` is pool item `j mod n` plus fixed-seed noise.  Requests
    /// draw a variant Zipf([`SKEW`]) by a fixed popularity rank: the popular
    /// variants stay cached while the tail keeps missing the result cache.
    Repeated,
    /// Every input unique: a pool item plus seeded noise.
    Unique,
}

/// Half-width of the noise added to every input element.
pub const AMPLITUDE: f32 = 0.05;

/// Size of each repeated population (benign and FGSM).
pub const VARIANTS: usize = 1024;

/// Zipf exponent of the repeated populations' popularity.
pub const SKEW: f64 = 1.3;

/// One workload: the model the server detects on and the traffic it gets.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub model: Model,
    pub load: Load,
    pub inputs: Inputs,
    /// Full set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// The cache hit rate a run must show for the workload to have exercised
    /// the layer it exists for; a run outside this range is discarded.
    pub hit_rate: (f64, f64),
}

/// The latency limit a request must meet to count toward `slo_attainment`.
pub const SLO: Duration = Duration::from_millis(5);

/// Share of requests drawn from the FGSM pool (the rest are benign).
pub const ADVERSARIAL_SHARE: f64 = 0.5;

/// Unmeasured traffic before the measured phase, so the result cache and the
/// allocator are warm.
pub const WARMUP: Duration = Duration::from_millis(1000);

/// The open-loop generator must keep within this much of its schedule, at
/// p99, in at least one slice of the phase; a run whose generator lags more
/// everywhere is discarded, because latency is charged from the scheduled
/// send.
pub const MAX_SEND_LAG_P99: Duration = Duration::from_millis(10);

pub const WORKLOADS: [Workload; 2] = [
    // LeNet compute is ~30 µs per input, so the serve layer sets latency:
    // batch forming, the queue, cache reads and ticket hand-off.
    Workload {
        name: "lenet_dup_open",
        model: Model::LeNet,
        load: Load::Poisson { rate: 5000.0 },
        inputs: Inputs::Repeated,
        setups: 5,
        hit_rate: (0.9, 1.0),
    },
    // Every request pays AlexNet-class GEMM/im2col, the forward pass and
    // path extraction (about a third of its latency; the batch-former wait is
    // the rest), and the result cache pays its miss and insert cost.  Four
    // outstanding requests keep both cores short of saturation: a saturating
    // window mostly measures how the host's speed drifts (see the README).
    Workload {
        name: "alexnet_unique_closed",
        model: Model::AlexNet,
        load: Load::Closed { window: 4 },
        inputs: Inputs::Unique,
        setups: 3,
        hit_rate: (0.0, 0.2),
    },
];

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The open-loop schedule of one phase of `duration`: each request's send
/// time in nanoseconds after the phase starts, Poisson at `rate`.  `phase`
/// tells the warm-up and measured phases apart; the gaps also follow `seed`.
pub fn schedule(rate: f64, seed: u64, phase: u64, duration: Duration) -> BoxResult<Vec<u64>> {
    let horizon_ns = u64::try_from(duration.as_nanos())? as f64;
    let mut rng = Rng64::new(mix(seed ^ mix(phase)));
    let mean_gap_ns = 1e9 / rate;
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
        let u = f64::from(rng.next_f32());
        at += -mean_gap_ns * (1.0 - u).max(f64::MIN_POSITIVE).ln();
        if at >= horizon_ns {
            return Ok(out);
        }
        out.push(at as u64);
    }
}

/// The request stream's inputs: request `i` of a phase is a pure function of
/// `(seed, i)`, so the correctness gate can rebuild any input after the run.
pub struct InputStream<'a> {
    benign: &'a [Tensor],
    adversarial: &'a [Tensor],
    inputs: Inputs,
    seed: u64,
    /// The benign and FGSM variant populations, and the Zipf CDF over each
    /// (all empty for unique inputs).
    variants: [Vec<Tensor>; 2],
    cdf: Vec<f64>,
}

/// Where request `i`'s input came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Source {
    pub adversarial: bool,
    pub item: usize,
}

fn zipf_cdf(n: usize, skew: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(skew)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// SplitMix64 finaliser: decorrelates the per-request RNG seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed of the repeated workloads' variant populations: a constant, so every
/// run serves the same population whatever its `--seed`.
const VARIANT_SEED: u64 = 0x005E_ED0F_1A71;

/// `base` plus uniform noise in `[-AMPLITUDE, AMPLITUDE]` on every element.
fn perturbed(base: &Tensor, rng: &mut Rng64) -> Tensor {
    let mut noisy = base.clone();
    for value in noisy.as_mut_slice() {
        *value += rng.uniform(-AMPLITUDE, AMPLITUDE);
    }
    noisy
}

impl<'a> InputStream<'a> {
    pub fn new(
        workload: &Workload,
        benign: &'a [Tensor],
        adversarial: &'a [Tensor],
        seed: u64,
    ) -> InputStream<'a> {
        let (variants, cdf) = match workload.inputs {
            Inputs::Repeated => {
                let population = |pool: &[Tensor], kind: u64| -> Vec<Tensor> {
                    (0..VARIANTS)
                        .map(|j| {
                            let mut rng = Rng64::new(mix(VARIANT_SEED ^ mix(kind) ^ j as u64));
                            perturbed(&pool[j % pool.len()], &mut rng)
                        })
                        .collect()
                };
                (
                    [population(benign, 0), population(adversarial, 1)],
                    zipf_cdf(VARIANTS, SKEW),
                )
            }
            Inputs::Unique => ([Vec::new(), Vec::new()], Vec::new()),
        };
        InputStream {
            benign,
            adversarial,
            inputs: workload.inputs,
            seed,
            variants,
            cdf,
        }
    }

    fn rng(&self, index: usize) -> Rng64 {
        Rng64::new(mix(self.seed ^ mix(index as u64)))
    }

    /// The pool item request `index` is drawn from.
    pub fn source(&self, index: usize) -> Source {
        let mut rng = self.rng(index);
        let adversarial = f64::from(rng.next_f32()) < ADVERSARIAL_SHARE;
        let item = match self.inputs {
            Inputs::Repeated => {
                let u = f64::from(rng.next_f32());
                self.cdf.partition_point(|&c| c < u).min(VARIANTS - 1)
            }
            Inputs::Unique => rng.below(if adversarial {
                self.adversarial.len()
            } else {
                self.benign.len()
            }),
        };
        Source { adversarial, item }
    }

    /// Request `index`'s input.
    pub fn input(&self, index: usize) -> Tensor {
        let source = self.source(index);
        match self.inputs {
            Inputs::Repeated => self.variants[usize::from(source.adversarial)][source.item].clone(),
            Inputs::Unique => {
                let pool = if source.adversarial {
                    self.adversarial
                } else {
                    self.benign
                };
                let mut rng = Rng64::new(mix(self.seed.rotate_left(17) ^ mix(index as u64)));
                perturbed(&pool[source.item], &mut rng)
            }
        }
    }
}
