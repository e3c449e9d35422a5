//! Local optimizers matching Table 1's "Local Optimizer" column.

use sidco_tensor::GradientVector;

/// The optimizer applied to the aggregated gradient each iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Vanilla SGD: `θ ← θ − lr·g`.
    Sgd,
    /// SGD with (optionally Nesterov) momentum.
    Momentum {
        /// Momentum coefficient `μ`.
        momentum: f64,
        /// Use the Nesterov look-ahead form.
        nesterov: bool,
    },
}

impl Optimizer {
    /// Vanilla SGD when `momentum` is zero, momentum SGD otherwise.
    pub fn from_hyperparameters(momentum: f64, nesterov: bool) -> Self {
        if momentum == 0.0 {
            Optimizer::Sgd
        } else {
            Optimizer::Momentum { momentum, nesterov }
        }
    }

    /// Applies one update in place: `params` and the persistent `velocity`
    /// buffer are updated from the aggregated gradient `grad` at rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if the three buffers disagree in length.
    pub fn step(
        &self,
        params: &mut GradientVector,
        velocity: &mut GradientVector,
        grad: &GradientVector,
        lr: f64,
    ) {
        assert_eq!(
            params.len(),
            grad.len(),
            "parameter/gradient length mismatch"
        );
        assert_eq!(
            params.len(),
            velocity.len(),
            "parameter/velocity length mismatch"
        );
        match *self {
            Optimizer::Sgd => params.axpy(-(lr as f32), grad),
            Optimizer::Momentum { momentum, nesterov } => {
                // v ← μ·v + g
                velocity.scale(momentum as f32);
                velocity.add_assign(grad);
                if nesterov {
                    // θ ← θ − lr·(g + μ·v)
                    params.axpy(-(lr * momentum) as f32, velocity);
                    params.axpy(-(lr as f32), grad);
                } else {
                    params.axpy(-(lr as f32), velocity);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs() -> (GradientVector, GradientVector, GradientVector) {
        (
            GradientVector::from_vec(vec![1.0, -2.0]),
            GradientVector::zeros(2),
            GradientVector::from_vec(vec![0.5, 0.5]),
        )
    }

    #[test]
    fn sgd_takes_plain_steps() {
        let (mut p, mut v, g) = vecs();
        Optimizer::Sgd.step(&mut p, &mut v, &g, 0.1);
        assert_eq!(p.as_slice(), &[0.95, -2.05]);
        assert_eq!(v.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let (mut p, mut v, g) = vecs();
        let opt = Optimizer::Momentum {
            momentum: 0.5,
            nesterov: false,
        };
        opt.step(&mut p, &mut v, &g, 0.1);
        opt.step(&mut p, &mut v, &g, 0.1);
        // v₁ = 0.5, v₂ = 0.75 → θ = 1 − 0.1·(0.5 + 0.75) = 0.875
        assert!((p.as_slice()[0] - 0.875).abs() < 1e-6);
    }

    #[test]
    fn nesterov_looks_ahead() {
        let (mut p, mut v, g) = vecs();
        let opt = Optimizer::Momentum {
            momentum: 0.5,
            nesterov: true,
        };
        opt.step(&mut p, &mut v, &g, 0.1);
        // v = 0.5; θ = 1 − 0.1·(0.5·0.5 + 0.5) = 0.925
        assert!((p.as_slice()[0] - 0.925).abs() < 1e-6);
    }

    #[test]
    fn constructors_pick_the_right_variant() {
        assert_eq!(Optimizer::from_hyperparameters(0.0, true), Optimizer::Sgd);
        assert_eq!(
            Optimizer::from_hyperparameters(0.9, true),
            Optimizer::Momentum {
                momentum: 0.9,
                nesterov: true
            }
        );
    }
}
