//! The benchmark matrix of Table 1 in the paper.

/// Task category of a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Word-level language modelling (LSTM on PTB).
    LanguageModeling,
    /// Speech recognition (LSTM on AN4).
    SpeechRecognition,
    /// Image classification (CNNs on CIFAR-10 / ImageNet).
    ImageClassification,
}

/// Local optimizer used by a benchmark (Table 1's "Local Optimizer" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// Vanilla SGD.
    Sgd,
    /// SGD with Nesterov momentum.
    NesterovMomentumSgd,
}

/// Identifier of one of the six benchmarks in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// 2-layer LSTM (1500 hidden units) on the Penn Treebank corpus.
    LstmPtb,
    /// 5-layer LSTM (1024 hidden units) on the AN4 speech corpus.
    LstmAn4,
    /// ResNet-20 on CIFAR-10.
    ResNet20Cifar10,
    /// VGG16 on CIFAR-10.
    Vgg16Cifar10,
    /// ResNet-50 on ImageNet.
    ResNet50ImageNet,
    /// VGG19 on ImageNet.
    Vgg19ImageNet,
}

impl BenchmarkId {
    /// All benchmarks, in the order Table 1 lists them.
    pub const ALL: [BenchmarkId; 6] = [
        BenchmarkId::LstmPtb,
        BenchmarkId::LstmAn4,
        BenchmarkId::ResNet20Cifar10,
        BenchmarkId::Vgg16Cifar10,
        BenchmarkId::ResNet50ImageNet,
        BenchmarkId::Vgg19ImageNet,
    ];

    /// The full specification row for this benchmark.
    pub fn spec(&self) -> BenchmarkSpec {
        match self {
            BenchmarkId::LstmPtb => BenchmarkSpec {
                name: "LSTM-PTB",
                task: TaskKind::LanguageModeling,
                model: "2-layer LSTM, 1500 hidden units",
                dataset: "Penn Treebank",
                parameters: 66_034_000,
                per_worker_batch: 20,
                learning_rate: 22.0,
                epochs: 30,
                communication_overhead: 0.94,
                optimizer: OptimizerKind::NesterovMomentumSgd,
                quality_metric: "test perplexity",
            },
            BenchmarkId::LstmAn4 => BenchmarkSpec {
                name: "LSTM-AN4",
                task: TaskKind::SpeechRecognition,
                model: "5-layer LSTM, 1024 hidden units",
                dataset: "AN4",
                parameters: 43_476_256,
                per_worker_batch: 20,
                learning_rate: 0.004,
                epochs: 150,
                communication_overhead: 0.80,
                optimizer: OptimizerKind::NesterovMomentumSgd,
                quality_metric: "WER & CER",
            },
            BenchmarkId::ResNet20Cifar10 => BenchmarkSpec {
                name: "ResNet20-CIFAR10",
                task: TaskKind::ImageClassification,
                model: "ResNet-20",
                dataset: "CIFAR-10",
                parameters: 269_467,
                per_worker_batch: 512,
                learning_rate: 0.1,
                epochs: 140,
                communication_overhead: 0.10,
                optimizer: OptimizerKind::Sgd,
                quality_metric: "top-1 accuracy",
            },
            BenchmarkId::Vgg16Cifar10 => BenchmarkSpec {
                name: "VGG16-CIFAR10",
                task: TaskKind::ImageClassification,
                model: "VGG16",
                dataset: "CIFAR-10",
                parameters: 14_982_987,
                per_worker_batch: 512,
                learning_rate: 0.1,
                epochs: 140,
                communication_overhead: 0.60,
                optimizer: OptimizerKind::Sgd,
                quality_metric: "top-1 accuracy",
            },
            BenchmarkId::ResNet50ImageNet => BenchmarkSpec {
                name: "ResNet50-ImageNet",
                task: TaskKind::ImageClassification,
                model: "ResNet-50",
                dataset: "ImageNet",
                parameters: 25_559_081,
                per_worker_batch: 160,
                learning_rate: 0.2,
                epochs: 90,
                communication_overhead: 0.72,
                optimizer: OptimizerKind::NesterovMomentumSgd,
                quality_metric: "top-1 accuracy",
            },
            BenchmarkId::Vgg19ImageNet => BenchmarkSpec {
                name: "VGG19-ImageNet",
                task: TaskKind::ImageClassification,
                model: "VGG19",
                dataset: "ImageNet",
                parameters: 143_671_337,
                per_worker_batch: 160,
                learning_rate: 0.05,
                epochs: 90,
                communication_overhead: 0.83,
                optimizer: OptimizerKind::NesterovMomentumSgd,
                quality_metric: "top-1 accuracy",
            },
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkSpec {
    /// Human-readable name (e.g. `"VGG16-CIFAR10"`).
    pub name: &'static str,
    /// Task category.
    pub task: TaskKind,
    /// Model description.
    pub model: &'static str,
    /// Dataset name.
    pub dataset: &'static str,
    /// Number of trainable parameters (the gradient dimension `d`).
    pub parameters: usize,
    /// Per-worker mini-batch size.
    pub per_worker_batch: usize,
    /// Base learning rate.
    pub learning_rate: f64,
    /// Number of training epochs.
    pub epochs: usize,
    /// Fraction of the no-compression iteration time spent in communication
    /// (Table 1's "Comm Overhead" column). Drives the simulator's network model.
    pub communication_overhead: f64,
    /// Local optimizer.
    pub optimizer: OptimizerKind,
    /// Quality metric the paper reports for this benchmark.
    pub quality_metric: &'static str,
}

impl BenchmarkSpec {
    /// Gradient size in bytes assuming 32-bit floats.
    pub fn gradient_bytes(&self) -> usize {
        self.parameters * std::mem::size_of::<f32>()
    }

    /// A deterministic, plausible per-tensor decomposition of the model's
    /// parameters, in flat parameter order (layers nearest the input first,
    /// the same convention as `DifferentiableModel::layer_sizes`).
    /// The reproduction has no PyTorch graphs to read shapes from, so this
    /// synthesises the profile each architecture family exhibits — CNNs: conv
    /// tensors growing geometrically into a few huge classifier tensors;
    /// LSTMs: a handful of enormous gate matrices each paired with a small
    /// bias. Sizes are all positive and sum exactly to
    /// [`parameters`](Self::parameters), so the result is a valid
    /// layer layout for the distributed trainer's bucket policies.
    pub fn representative_layer_sizes(&self) -> Vec<usize> {
        // (tensor count, geometric growth per tensor) per architecture
        // family. The count is capped by the parameter total so hand-built
        // tiny specs still get a valid (if degenerate) decomposition.
        let (tensors, growth) = match self.task {
            // Conv stacks: ~2 tensors per conv block, growing toward the head.
            TaskKind::ImageClassification => (24usize, 1.45f64),
            // Stacked LSTMs: few tensors, nearly flat sizes.
            TaskKind::LanguageModeling => (8usize, 1.1f64),
            TaskKind::SpeechRecognition => (12usize, 1.15f64),
        };
        let tensors = tensors.min(self.parameters.max(1));
        let weights: Vec<f64> = (0..tensors).map(|i| growth.powi(i as i32)).collect();
        let total_weight: f64 = weights.iter().sum();
        let mut sizes: Vec<usize> = weights
            .iter()
            .map(|w| {
                ((w / total_weight) * self.parameters as f64)
                    .floor()
                    .max(1.0) as usize
            })
            .collect();
        // Reconcile rounding: give any shortfall to the largest (last)
        // tensor; reclaim any excess (the 1-element floors can overshoot on
        // tiny hand-built specs) from the largest tensors, never below 1.
        let assigned: usize = sizes.iter().sum();
        if assigned <= self.parameters {
            // INVARIANT: every benchmark spec declares at least one tensor.
            *sizes.last_mut().expect("at least one tensor") += self.parameters - assigned;
        } else {
            let mut excess = assigned - self.parameters;
            while excess > 0 {
                let largest = (0..sizes.len())
                    .max_by_key(|&i| sizes[i])
                    // INVARIANT: every benchmark spec declares at least one
                    // tensor.
                    .expect("at least one tensor");
                let take = excess.min(sizes[largest] - 1);
                debug_assert!(take > 0, "tensor count exceeds the parameter total");
                sizes[largest] -= take;
                excess -= take;
            }
        }
        sizes
    }

    /// Relative backward-pass cost of each representative tensor, aligned
    /// with [`representative_layer_sizes`](Self::representative_layer_sizes)
    /// — the Table-1 analogue of
    /// `DifferentiableModel::layer_backward_costs`. Flop-proportional (one
    /// unit of backward work per parameter), which matches the dense
    /// conv/FC/gate blocks these architectures are built from; only the
    /// ratios matter to the arrival-time model. The backward pass runs
    /// output-to-input, so the last tensor's gradient arrives first.
    // lint: test-only arrival-time input of the pinned overlap goldens (tests/overlap_golden.rs)
    pub fn representative_backward_costs(&self) -> Vec<f64> {
        self.representative_layer_sizes()
            .iter()
            .map(|&s| s as f64)
            .collect()
    }
}

/// The compression ratios the paper sweeps in every end-to-end experiment.
pub const EVALUATED_RATIOS: [f64; 3] = [0.1, 0.01, 0.001];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_benchmarks_with_table1_parameters() {
        assert_eq!(BenchmarkId::ALL.len(), 6);
        let params: Vec<usize> = BenchmarkId::ALL
            .iter()
            .map(|b| b.spec().parameters)
            .collect();
        assert_eq!(
            params,
            vec![
                66_034_000,
                43_476_256,
                269_467,
                14_982_987,
                25_559_081,
                143_671_337
            ]
        );
    }

    #[test]
    fn communication_overheads_match_table1() {
        assert_eq!(BenchmarkId::LstmPtb.spec().communication_overhead, 0.94);
        assert_eq!(BenchmarkId::LstmAn4.spec().communication_overhead, 0.80);
        assert_eq!(
            BenchmarkId::ResNet20Cifar10.spec().communication_overhead,
            0.10
        );
        assert_eq!(
            BenchmarkId::Vgg16Cifar10.spec().communication_overhead,
            0.60
        );
        assert_eq!(
            BenchmarkId::ResNet50ImageNet.spec().communication_overhead,
            0.72
        );
        assert_eq!(
            BenchmarkId::Vgg19ImageNet.spec().communication_overhead,
            0.83
        );
    }

    #[test]
    fn optimizers_and_metrics() {
        assert_eq!(
            BenchmarkId::ResNet20Cifar10.spec().optimizer,
            OptimizerKind::Sgd
        );
        assert_eq!(
            BenchmarkId::LstmPtb.spec().optimizer,
            OptimizerKind::NesterovMomentumSgd
        );
        assert_eq!(
            BenchmarkId::LstmPtb.spec().quality_metric,
            "test perplexity"
        );
        assert_eq!(BenchmarkId::LstmPtb.to_string(), "LSTM-PTB");
    }

    #[test]
    fn gradient_bytes() {
        assert_eq!(
            BenchmarkId::ResNet20Cifar10.spec().gradient_bytes(),
            269_467 * 4
        );
    }

    #[test]
    fn evaluated_ratios_span_paper_range() {
        assert_eq!(EVALUATED_RATIOS, [0.1, 0.01, 0.001]);
    }

    #[test]
    fn representative_layers_form_a_valid_layout() {
        for benchmark in BenchmarkId::ALL {
            let spec = benchmark.spec();
            let layers = spec.representative_layer_sizes();
            assert!(layers.len() > 1, "{benchmark}: expected several tensors");
            assert!(layers.iter().all(|&s| s > 0), "{benchmark}: empty tensor");
            assert_eq!(
                layers.iter().sum::<usize>(),
                spec.parameters,
                "{benchmark}: layers must cover every parameter"
            );
            // Deterministic.
            assert_eq!(layers, spec.representative_layer_sizes());
        }
        // CNNs grow toward the classifier head; the last tensor dominates.
        let vgg = BenchmarkId::Vgg16Cifar10
            .spec()
            .representative_layer_sizes();
        assert!(vgg.last().unwrap() > vgg.first().unwrap());
        assert!(*vgg.last().unwrap() > BenchmarkId::Vgg16Cifar10.spec().parameters / 10);
        // LSTM tensors are much flatter.
        let lstm = BenchmarkId::LstmPtb.spec().representative_layer_sizes();
        let ratio = *lstm.last().unwrap() as f64 / *lstm.first().unwrap() as f64;
        assert!(
            ratio < 4.0,
            "LSTM tensors should be near-uniform, got {ratio}"
        );
    }

    #[test]
    fn representative_backward_costs_align_with_layers() {
        for benchmark in BenchmarkId::ALL {
            let spec = benchmark.spec();
            let layers = spec.representative_layer_sizes();
            let costs = spec.representative_backward_costs();
            assert_eq!(costs.len(), layers.len(), "{benchmark}: misaligned");
            assert!(costs.iter().all(|&c| c > 0.0), "{benchmark}: zero cost");
            // Flop-proportional: one unit of backward work per parameter.
            for (&size, &cost) in layers.iter().zip(&costs) {
                assert_eq!(cost, size as f64, "{benchmark}");
            }
        }
    }

    #[test]
    fn representative_layers_survive_tiny_hand_built_specs() {
        // The fields are public, so a caller can shrink a spec below the
        // synthesized tensor count; the decomposition must stay valid.
        for parameters in [1usize, 5, 23, 24, 25, 40] {
            let spec = BenchmarkSpec {
                parameters,
                ..BenchmarkId::Vgg16Cifar10.spec()
            };
            let layers = spec.representative_layer_sizes();
            assert!(layers.iter().all(|&s| s > 0), "{parameters}: empty tensor");
            assert_eq!(layers.iter().sum::<usize>(), parameters);
            assert!(layers.len() <= parameters.max(1));
        }
    }
}
