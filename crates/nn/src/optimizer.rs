//! First-order optimizers operating on flat parameter vectors.

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub learning_rate: f64,
    /// Optional momentum coefficient (0 disables).
    pub momentum: f64,
}

impl Sgd {
    /// SGD with the given learning rate and no momentum.
    pub fn with_learning_rate(learning_rate: f64) -> SgdState {
        SgdState {
            config: Sgd {
                learning_rate,
                momentum: 0.0,
            },
            velocity: Vec::new(),
        }
    }
}

/// SGD with its momentum buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdState {
    config: Sgd,
    velocity: Vec<f64>,
}

impl SgdState {
    /// Creates SGD with momentum.
    pub fn with_momentum(learning_rate: f64, momentum: f64) -> Self {
        SgdState {
            config: Sgd {
                learning_rate,
                momentum,
            },
            velocity: Vec::new(),
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    step: u64,
    m: Vec<f64>,
    v: Vec<f64>,
    /// [`fixed_point_ulps`] of `beta1`.
    stuck_ulps: u64,
}

/// The largest `k` such that every first moment `1..=k` units in the
/// last place away from zero is a fixed point of `m ← RN(β₁·m)`: a
/// moment that decays into the subnormal range under zero gradients
/// settles there for good. 5 for `β₁ = 0.9`.
fn fixed_point_ulps(beta1: f64) -> u64 {
    let mut k = 0;
    while beta1 * f64::from_bits(k + 1) == f64::from_bits(k + 1) {
        k += 1;
    }
    k
}

impl Adam {
    /// Adam with standard `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e−8`.
    pub fn with_learning_rate(learning_rate: f64) -> Self {
        Self::restore(learning_rate, 0, Vec::new(), Vec::new())
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Bias-correction step counter (number of updates applied).
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// First-moment buffer (empty until the first update).
    pub fn first_moment(&self) -> &[f64] {
        &self.m
    }

    /// Second-moment buffer (empty until the first update).
    pub fn second_moment(&self) -> &[f64] {
        &self.v
    }

    /// Rebuilds an Adam instance from checkpointed state, with standard
    /// `β₁/β₂/ε`. The moment buffers must be equal-length (both may be
    /// empty for an optimizer that never stepped).
    ///
    /// # Panics
    ///
    /// Panics if `m` and `v` differ in length.
    pub fn restore(learning_rate: f64, step: u64, m: Vec<f64>, v: Vec<f64>) -> Self {
        assert_eq!(m.len(), v.len(), "moment buffers must be equal length");
        let beta1 = 0.9;
        Adam {
            learning_rate,
            beta1,
            beta2: 0.999,
            epsilon: 1e-8,
            step,
            m,
            v,
            stuck_ulps: fixed_point_ulps(beta1),
        }
    }

    /// Starts one update of `len` parameters: allocates the moments on
    /// first use, advances the step counter, and returns the step's
    /// coefficients with the moment buffers, in the caller's parameter
    /// order. [`AdamStep::apply`] then updates any split of the
    /// parameters into contiguous runs.
    ///
    /// # Panics
    ///
    /// Panics if `len` differs from an earlier update's.
    pub(crate) fn begin_step(&mut self, len: usize) -> (AdamStep, &mut [f64], &mut [f64]) {
        if self.m.is_empty() {
            self.m = vec![0.0; len];
            self.v = vec![0.0; len];
        }
        assert_eq!(self.m.len(), len, "optimizer reuse across networks");
        self.step += 1;
        let b1t = 1.0 - self.beta1.powi(self.step as i32);
        // A stuck moment `m` (|m| ≤ k ulps) enters the update as
        // `lr·m`, which rounds to a signed zero when `|lr|·k ≤ 0.25`.
        let stuck_ulps = if self.learning_rate.abs() * self.stuck_ulps as f64 <= 0.25 {
            self.stuck_ulps
        } else {
            0
        };
        let step = AdamStep {
            learning_rate: self.learning_rate,
            beta1: self.beta1,
            beta2: self.beta2,
            epsilon: self.epsilon,
            b1t,
            b2t: 1.0 - self.beta2.powi(self.step as i32),
            stuck_ulps,
        };
        (step, &mut self.m, &mut self.v)
    }
}

/// The coefficients of one Adam update, from [`Adam::begin_step`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdamStep {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    /// Bias corrections `1 − β₁ᵗ` and `1 − β₂ᵗ`.
    b1t: f64,
    b2t: f64,
    /// First moments at most this many ulps from zero are stuck under a
    /// zero gradient (0: none are treated as stuck).
    stuck_ulps: u64,
}

const SIGN: u64 = 1 << 63;

impl AdamStep {
    /// Updates one contiguous run of parameters and their moments:
    ///
    /// ```text
    /// m ← β₁·m + (1 − β₁)·g      v ← β₂·v + (1 − β₂)·g·g
    /// p ← p − lr·(m / (1 − β₁ᵗ)) / (√(v / (1 − β₂ᵗ)) + ε)
    /// ```
    ///
    /// Once `1 − β₁ᵗ` has rounded to 1 (from `t ≈ 356` for `β₁ = 0.9`)
    /// the first division is dropped, `x / 1.0 == x`. From then on a
    /// first moment stuck at a subnormal fixed point under a zero
    /// gradient is kept as it is, and its signed zero `copysign(0, m)`
    /// enters the arithmetic in its place: `lr·m` rounds to exactly that
    /// zero (checked in [`Adam::begin_step`]), so the bits agree with
    /// the plain formula while the lane's arithmetic sees no subnormal
    /// operand, which would cost a microcode assist on every step.
    ///
    /// # Panics
    ///
    /// Panics if the four slices differ in length.
    pub(crate) fn apply(&self, params: &mut [f64], grads: &[f64], m: &mut [f64], v: &mut [f64]) {
        if self.b1t == 1.0 {
            self.run::<true>(params, grads, m, v);
        } else {
            self.run::<false>(params, grads, m, v);
        }
    }

    #[inline(always)]
    fn run<const SETTLED: bool>(
        &self,
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
    ) {
        let n = params.len();
        assert!(
            grads.len() == n && m.len() == n && v.len() == n,
            "parameter/gradient/moment length mismatch"
        );
        let Self {
            learning_rate: lr,
            beta1: b1,
            beta2: b2,
            epsilon: eps,
            b1t,
            b2t,
            stuck_ulps,
        } = *self;
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
            let (g_bits, m_bits) = (g.to_bits(), m.to_bits());
            // All ones in a stuck lane, else 0. Bitwise blends rather
            // than branches keep the loop vectorised and give the
            // compiler no condition to duplicate the arithmetic on.
            let stuck = u64::from(
                SETTLED & (g_bits & !SIGN == 0) & ((m_bits & !SIGN).wrapping_sub(1) < stuck_ulps),
            )
            .wrapping_neg();
            // A stuck lane computes `m1 = β₁·0 + (1 − β₁)·0`, exactly the
            // moment's signed zero, and keeps its moment.
            let zero = m_bits & SIGN;
            let m_in = f64::from_bits(m_bits & !stuck | zero);
            let g_in = f64::from_bits(g_bits & !stuck | zero & stuck);
            let m1 = b1 * m_in + (1.0 - b1) * g_in;
            *m = f64::from_bits(m1.to_bits() | m_bits & stuck);
            *v = b2 * *v + (1.0 - b2) * g * g;
            let m_hat = if SETTLED { m1 } else { m1 / b1t };
            let v_hat = *v / b2t;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

/// A stateful optimizer that applies a gradient step to a flat parameter
/// vector. State buffers are allocated lazily on first use and keyed by
/// position, so an optimizer must be used with a single network.
pub trait Optimizer {
    /// Applies one update: `params ← params − f(grads)`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`, or if the vector length
    /// changes between calls.
    fn step(&mut self, params: &mut [f64], grads: &[f64]);
}

impl Optimizer for SgdState {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient mismatch");
        if self.config.momentum == 0.0 {
            for (p, g) in params.iter_mut().zip(grads) {
                *p -= self.config.learning_rate * g;
            }
            return;
        }
        if self.velocity.is_empty() {
            self.velocity = vec![0.0; params.len()];
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "optimizer reuse across networks"
        );
        for ((p, g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            *v = self.config.momentum * *v + g;
            *p -= self.config.learning_rate * *v;
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient mismatch");
        let (step, m, v) = self.begin_step(params.len());
        step.apply(params, grads, m, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x − 3)² from x = 0.
    fn minimize<O: Optimizer>(opt: &mut O, iterations: usize) -> f64 {
        let mut x = [0.0f64];
        for _ in 0..iterations {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::with_learning_rate(0.1);
        assert!((minimize(&mut sgd, 200) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let mut sgd = SgdState::with_momentum(0.02, 0.9);
        assert!((minimize(&mut sgd, 500) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::with_learning_rate(0.1);
        assert!((minimize(&mut adam, 500) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn adam_handles_ill_scaled_gradients() {
        // Two coordinates with gradients 1000× apart: Adam normalizes.
        let mut adam = Adam::with_learning_rate(0.05);
        let mut x = [0.0f64, 0.0];
        for _ in 0..3000 {
            let g = [2000.0 * (x[0] - 1.0), 2.0 * (x[1] - 1.0)];
            adam.step(&mut x, &g);
        }
        assert!((x[0] - 1.0).abs() < 1e-2, "x0 = {}", x[0]);
        assert!((x[1] - 1.0).abs() < 1e-2, "x1 = {}", x[1]);
    }

    #[test]
    fn restored_adam_steps_bit_exactly() {
        let mut original = Adam::with_learning_rate(0.05);
        let mut x = [0.2f64, -0.7, 1.3];
        for i in 0..10 {
            let g = [0.1 * i as f64, -0.3, 0.5 * (i as f64 - 4.0)];
            original.step(&mut x, &g);
        }
        let mut restored = Adam::restore(
            original.learning_rate(),
            original.step_count(),
            original.first_moment().to_vec(),
            original.second_moment().to_vec(),
        );
        let mut x2 = x;
        let g = [0.25, -0.5, 0.75];
        original.step(&mut x, &g);
        restored.step(&mut x2, &g);
        assert_eq!(x, x2);
    }

    #[test]
    fn stuck_moment_bound_is_five_ulps_for_beta1_0_9() {
        assert_eq!(fixed_point_ulps(0.9), 5);
        assert_eq!(Adam::with_learning_rate(1e-3).stuck_ulps, 5);
    }

    #[test]
    #[should_panic]
    fn mismatched_moment_buffers_rejected() {
        let _ = Adam::restore(0.1, 1, vec![0.0], vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut adam = Adam::with_learning_rate(0.1);
        adam.step(&mut [0.0, 0.0], &[1.0]);
    }

    #[test]
    #[should_panic]
    fn reuse_across_networks_panics() {
        let mut adam = Adam::with_learning_rate(0.1);
        adam.step(&mut [0.0, 0.0], &[1.0, 1.0]);
        adam.step(&mut [0.0], &[1.0]);
    }
}
