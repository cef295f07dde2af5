//! # gables-model
//!
//! A faithful implementation of **Gables: A Roofline Model for Mobile
//! SoCs** (Hill & Janapa Reddi, HPCA 2019).
//!
//! Gables retargets the classic Roofline model at a system-on-chip with
//! `N` IP blocks (CPU complex plus accelerators) that operate
//! *concurrently* and share off-chip memory bandwidth. Hardware is modeled
//! by a roofline per IP — peak performance `Ai · Ppeak` and bandwidth `Bi`
//! — plus the shared `Bpeak`; a software usecase apportions work fractions
//! `fi` at operational intensities `Ii` across the IPs. The model computes
//! the usecase's maximal attainable performance and identifies the binding
//! bottleneck.
//!
//! ## Quickstart
//!
//! The paper's Figure 6 walkthrough in four lines:
//!
//! ```
//! use gables_model::two_ip::TwoIpModel;
//!
//! for (name, scenario, expected_gops) in TwoIpModel::figure_6_progression() {
//!     let got = scenario.attainable_gops()?;
//!     assert!((got - expected_gops).abs() < 1e-9, "figure {name}");
//! }
//! # Ok::<(), gables_model::GablesError>(())
//! ```
//!
//! Or with the full N-IP API:
//!
//! ```
//! use gables_model::{evaluate, SocSpec, Workload};
//! use gables_model::units::{BytesPerSec, OpsPerSec};
//!
//! let soc = SocSpec::builder()
//!     .ppeak(OpsPerSec::from_gops(40.0))
//!     .bpeak(BytesPerSec::from_gbps(20.0))
//!     .cpu("CPU", BytesPerSec::from_gbps(6.0))
//!     .accelerator("GPU", 5.0, BytesPerSec::from_gbps(15.0))?
//!     .build()?;
//! let usecase = Workload::two_ip(0.75, 8.0, 8.0)?;
//! let eval = evaluate(&soc, &usecase)?;
//! assert_eq!(eval.attainable().to_gops(), 160.0);
//! # Ok::<(), gables_model::GablesError>(())
//! ```
//!
//! ## Module map
//!
//! * [`units`] — newtyped quantities (Gops/s, GB/s, ops/byte, …).
//! * [`soc`] / [`workload`] — the hardware and software inputs of Table II.
//! * [`model`] — the base N-IP model (Equations 9–14), time form and
//!   performance form.
//! * [`two_ip`] — the Section III-B two-IP primer and appendix scenarios.
//! * [`ext`] — Section V extensions: memory-side SRAM, interconnect
//!   topologies, serialized work.
//! * [`analysis`] — sweeps, balance solvers, sensitivity analysis.
//! * [`par`] — deterministic std-only parallel execution for grid and
//!   sweep evaluation ([`Parallelism`] policies, order-stable map).
//! * [`obs`] — structured leveled logging, hierarchical spans with
//!   deterministic IDs, and cross-thread span-context propagation.
//! * [`prof`] — a deterministic-overhead sampling profiler over the
//!   span stack (folded-stack / flamegraph export) and process-wide
//!   and per-thread allocation counters via a counting global allocator.
//! * [`baselines`] — Roofline, Amdahl, Gustafson, MultiAmdahl, bottleneck
//!   combinators (Section VI).
//! * [`viz`] — sampled multi-roofline plot data (Section III-C), rendered
//!   by the companion `gables-plot` crate.
//! * [`rng`] — a tiny deterministic SplitMix64 PRNG used by tests,
//!   benches, and the market synthesizer (the workspace builds offline,
//!   with no registry dependencies).
//! * [`sketch`] — deterministic DDSketch-style streaming quantile
//!   sketches with exact merge, plus the rolling multi-window ring
//!   behind the serving tier's SLO engine.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod baselines;
pub mod carm;
pub mod decfmt;
pub mod error;
pub mod explore;
pub mod ext;
mod inline;
pub mod json;
pub mod model;
pub mod obs;
pub mod par;
pub mod prof;
pub mod rng;
pub mod sketch;
pub mod soc;
pub mod two_ip;
pub mod units;
pub mod viz;
pub mod whatif;
pub mod workload;

/// Every binary in the workspace allocates through the counting
/// wrapper so [`prof`]'s allocation counters cover the whole process;
/// see [`prof::CountingAllocator`] for the (tiny, constant) cost.
#[global_allocator]
static GLOBAL_ALLOCATOR: prof::CountingAllocator = prof::CountingAllocator;

pub use error::{ErrorKind, GablesError};
pub use model::{evaluate, Bottleneck, Evaluation, IpLimit};
pub use par::Parallelism;
pub use soc::{IpSpec, SocSpec};
pub use workload::{WorkAssignment, Workload};

#[cfg(test)]
mod invariant_tests {
    //! Cross-module randomized invariant tests for the properties
    //! DESIGN.md calls out. Each test draws a few hundred seeded random
    //! SoC/workload pairs from [`rng::SplitMix64`], so failures are
    //! reproducible from the seed embedded in the test.

    use crate::ext::serialized::evaluate_serialized;
    use crate::ext::sram::MemorySideSram;
    use crate::model::{attainable_perf_form, evaluate};
    use crate::rng::SplitMix64;
    use crate::soc::SocSpec;
    use crate::units::{BytesPerSec, OpsPerSec};
    use crate::workload::Workload;

    const CASES: usize = 256;

    /// A plausible 2–5-IP SoC with positive parameters.
    fn random_soc(rng: &mut SplitMix64) -> SocSpec {
        let ppeak = rng.range_f64(0.5, 500.0);
        let bpeak = rng.range_f64(0.5, 100.0);
        let b0 = rng.range_f64(0.1, 50.0);
        let n_acc = rng.range_usize(1, 4);
        let mut b = SocSpec::builder();
        b.ppeak(OpsPerSec::from_gops(ppeak))
            .bpeak(BytesPerSec::from_gbps(bpeak))
            .cpu("CPU", BytesPerSec::from_gbps(b0));
        for idx in 0..n_acc {
            let acc = rng.range_f64(0.1, 100.0);
            let bw = rng.range_f64(0.1, 50.0);
            b.accelerator(format!("ACC{idx}"), acc, BytesPerSec::from_gbps(bw))
                .unwrap();
        }
        b.build().unwrap()
    }

    /// A workload for an `n`-IP SoC with normalized fractions.
    fn random_workload(rng: &mut SplitMix64, n: usize) -> Workload {
        let weights: Vec<f64> = (0..n).map(|_| rng.range_f64(0.001, 1.0)).collect();
        let intensities: Vec<f64> = (0..n).map(|_| rng.range_f64(0.01, 1024.0)).collect();
        let total: f64 = weights.iter().sum();
        let mut b = Workload::builder();
        // Assign exact residual to the last IP to defeat rounding.
        let mut assigned = 0.0_f64;
        for i in 0..n {
            let f = if i == n - 1 {
                (1.0 - assigned).max(0.0)
            } else {
                weights[i] / total
            };
            assigned += f;
            b.work(f.min(1.0), intensities[i]).unwrap();
        }
        b.build().unwrap()
    }

    fn random_pair(rng: &mut SplitMix64) -> (SocSpec, Workload) {
        let soc = random_soc(rng);
        let n = soc.ip_count();
        let w = random_workload(rng, n);
        (soc, w)
    }

    /// The time form and performance form are exact duals.
    #[test]
    fn duals_agree() {
        let mut rng = SplitMix64::new(0xD0A1);
        for _ in 0..CASES {
            let (soc, w) = random_pair(&mut rng);
            let t = evaluate(&soc, &w).unwrap().attainable().value();
            let p = attainable_perf_form(&soc, &w).unwrap().value();
            assert!((t - p).abs() <= 1e-9 * t.max(p), "time {t} vs perf {p}");
        }
    }

    /// Pattainable never exceeds any individual component bound.
    #[test]
    fn attainable_below_every_bound() {
        let mut rng = SplitMix64::new(0xB0B1);
        for _ in 0..CASES {
            let (soc, w) = random_pair(&mut rng);
            let eval = evaluate(&soc, &w).unwrap();
            let p = eval.attainable().value();
            for ip in eval.ips() {
                if let Some(bound) = ip.perf_bound {
                    assert!(p <= bound.value() * (1.0 + 1e-12));
                }
            }
            assert!(p <= eval.memory_bound().value() * (1.0 + 1e-12));
        }
    }

    /// More off-chip bandwidth never hurts.
    #[test]
    fn monotone_in_bpeak() {
        let mut rng = SplitMix64::new(0xBEA7);
        for _ in 0..CASES {
            let (soc, w) = random_pair(&mut rng);
            let scale = rng.range_f64(1.0, 10.0);
            let base = evaluate(&soc, &w).unwrap().attainable().value();
            let wider = soc.with_bpeak(soc.bpeak() * scale).unwrap();
            let better = evaluate(&wider, &w).unwrap().attainable().value();
            assert!(better >= base * (1.0 - 1e-12));
        }
    }

    /// Raising any active IP's operational intensity never hurts.
    #[test]
    fn monotone_in_intensity() {
        let mut rng = SplitMix64::new(0x17EA);
        for _ in 0..CASES {
            let (soc, w) = random_pair(&mut rng);
            let scale = rng.range_f64(1.0, 10.0);
            let base = evaluate(&soc, &w).unwrap().attainable().value();
            for i in w.active_ips().collect::<Vec<_>>() {
                let ii = w.assignment(i).unwrap().intensity().value();
                let raised = w.with_intensity(i, ii * scale).unwrap();
                let better = evaluate(&soc, &raised).unwrap().attainable().value();
                assert!(better >= base * (1.0 - 1e-12));
            }
        }
    }

    /// The SRAM extension with all-miss ratios equals the base model,
    /// and any filtering only helps.
    #[test]
    fn sram_extension_brackets_base() {
        let mut rng = SplitMix64::new(0x54A3);
        for _ in 0..CASES {
            let (soc, w) = random_pair(&mut rng);
            let m = rng.next_f64();
            let base = evaluate(&soc, &w).unwrap().attainable().value();
            let all_miss = MemorySideSram::uniform(soc.ip_count(), 1.0)
                .unwrap()
                .evaluate(&soc, &w)
                .unwrap()
                .attainable()
                .value();
            assert!((all_miss - base).abs() <= 1e-9 * base);
            let filtered = MemorySideSram::uniform(soc.ip_count(), m)
                .unwrap()
                .evaluate(&soc, &w)
                .unwrap()
                .attainable()
                .value();
            assert!(filtered >= base * (1.0 - 1e-12));
        }
    }

    /// Serialized execution never beats concurrent execution.
    #[test]
    fn serialized_below_concurrent() {
        let mut rng = SplitMix64::new(0x5E1A);
        for _ in 0..CASES {
            let (soc, w) = random_pair(&mut rng);
            let concurrent = evaluate(&soc, &w).unwrap().attainable().value();
            let serial = evaluate_serialized(&soc, &w).unwrap().attainable().value();
            assert!(serial <= concurrent * (1.0 + 1e-9));
        }
    }

    /// Iavg lies between the smallest and largest active intensity.
    #[test]
    fn iavg_within_active_range() {
        let mut rng = SplitMix64::new(0x1A76);
        for _ in 0..CASES {
            let (_soc, w) = random_pair(&mut rng);
            let iavg = w.iavg().unwrap().value();
            let actives: Vec<f64> = w
                .assignments()
                .iter()
                .filter(|a| a.is_active())
                .map(|a| a.intensity().value())
                .collect();
            let lo = actives.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = actives.iter().cloned().fold(0.0, f64::max);
            assert!(iavg >= lo * (1.0 - 1e-9));
            assert!(iavg <= hi * (1.0 + 1e-9));
        }
    }
}
