//! # ptolemy-bench
//!
//! The benchmark harness that regenerates every table and figure of the Ptolemy
//! paper's evaluation (Sec. VII) on this reproduction's scaled-down substrate.
//!
//! The crate is organised as a library so that the per-experiment logic is testable
//! and reusable:
//!
//! * [`Workbench`] — a trained network + dataset pair ("AlexNet-class on
//!   synth-ImageNet", "ResNet18-class on synth-CIFAR-100", …) with helpers for
//!   profiling, attack generation, AUC computation and hardware-cost simulation;
//! * [`BenchScale`] — laptop-friendly `Quick` vs statistics-friendly `Full` sizing;
//! * [`experiments`] — one module per paper artifact (Fig. 5 … Fig. 18, Table II,
//!   Sec. VII-A/G/H and the Sec. III-B software-cost analysis), each returning a
//!   printable report;
//! * `src/bin/all_experiments.rs` — the one binary: it runs every experiment (or
//!   one, with `--only <id>`) and prints the EXPERIMENTS.md-style summary.
//!
//! Absolute numbers differ from the paper (the substrate is a scaled-down simulator,
//! not the authors' 15 nm testbed); what the harnesses reproduce is the *shape* of
//! every result — who wins, by roughly what factor, and where the crossovers fall.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod experiments;
mod scale;
mod table;
mod workbench;

pub use scale::BenchScale;
pub use table::{fmt3, fmt_factor, fmt_percent, Table};
pub use workbench::{auc_summary, standard_attacks, BenchResult, Workbench};
