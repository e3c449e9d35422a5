//! Benchmark harness for the SIDCo reproduction.
//!
//! Every table and figure of the paper's evaluation has a corresponding experiment
//! function here, invoked through the `sidco-experiments` binary:
//!
//! | paper artefact | module / function |
//! |---|---|
//! | Table 1 | [`table1::run`] |
//! | Figure 1 (compression speed-up + estimation quality) | [`micro::fig1`] |
//! | Figure 2 (SID fits, no EC) | [`fitting::fig2`] |
//! | Figure 3 (LSTM-PTB / LSTM-AN4 end-to-end) | [`end_to_end::fig3`] |
//! | Figure 4 (loss + ratio tracking at δ=0.001) | [`training::fig4`] |
//! | Figure 5 (ResNet20 / VGG16 on CIFAR-10) | [`end_to_end::fig5`] |
//! | Figure 6 (ResNet50 / VGG19 on ImageNet) | [`end_to_end::fig6`] |
//! | Figure 7 (gradient compressibility) | [`fitting::fig7`] |
//! | Figure 8 (SID fits with EC) | [`fitting::fig8`] |
//! | Figure 9 (smoothed achieved ratio) | [`end_to_end::fig9`] |
//! | Figure 10 (loss vs wall-time) | [`training::fig10`] |
//! | Figure 11 (VGG19 ratio + loss) | [`training::fig11`] |
//! | Figure 12 (CPU as compression device) | [`end_to_end::fig12`] |
//! | Figure 13 (single 8-GPU node) | [`end_to_end::fig13`] |
//! | Figures 14/15 (per-model speed-up / latency) | [`micro::fig14_15`] |
//! | Figures 16/17 (synthetic tensors) | [`micro::fig16_17`] |
//! | Figure 18 (all SIDs end-to-end) | [`end_to_end::fig18`] |
//! | Design-choice ablations (DESIGN.md §5) | [`ablation`] |
//!
//! Figures 2 and 8 report the fit SIDCo itself computes:
//! [`fit_sid_from_moments`](sidco_stats::fit::fit_sid_from_moments) over the
//! gradient's absolute-value moments, the same estimator every compression
//! stage runs.
//!
//! Each function prints a self-describing text report (the "rows/series" of the
//! corresponding figure) and returns it as a `String` so integration tests can
//! assert on the content. Pass `Scale::Quick` for CI-sized runs and `Scale::Full`
//! for the paper-scale sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod end_to_end;
pub mod fitting;
pub mod micro;
pub mod report;
pub mod table1;
pub mod training;

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced iteration counts and tensor sizes; finishes in seconds. Used by tests.
    Quick,
    /// Paper-scale sweep (minutes).
    Full,
}

impl Scale {
    /// Picks between the quick and full value.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
