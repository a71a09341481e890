//! The multi-layer perceptron with exact backpropagation.
//!
//! Two equivalent training paths exist:
//!
//! * the **per-sample** path ([`Mlp::forward`], [`Mlp::loss_and_gradient`],
//!   [`Mlp::train_batch`]) — simple, allocation-per-call;
//! * the **batched** path ([`Mlp::forward_batch`],
//!   [`Mlp::loss_and_gradient_batch`], [`Mlp::train_minibatch`]) — one
//!   packed [`Batch`] per layer, reusable [`BatchScratch`] buffers, and
//!   blocked matrix–matrix kernels. [`Mlp::loss_and_gradient_gather`]
//!   is its DQN form: per-sample scalar targets for one taken action
//!   each, with the output layer evaluated and differentiated only at
//!   those actions. The gradient stays in the scratch's per-layer
//!   buffers, where [`Mlp::adam_step`] reads it to update the weights
//!   in place.
//!
//! The paths are **bit-exact**: every dot product accumulates in the
//! same order, so swapping one for the other cannot perturb a single
//! reproducible run (property-tested in `tests/properties.rs`).

use crate::activation::Activation;
use crate::batch::Batch;
use crate::kernel;
use crate::loss::Loss;
use crate::matrix::{gemm_tn_scaled_into, Matrix};
use crate::optimizer::{Adam, Optimizer};
use rand::Rng;

/// Largest magnitude in `xs` (`0.0` when empty), or a non-finite value
/// if any entry is NaN or infinite: with the sign bit cleared, IEEE-754
/// bit patterns order like the magnitudes they encode, and NaN/∞ sit
/// above every finite value.
fn max_abs(xs: &[f64]) -> f64 {
    f64::from_bits(
        xs.iter()
            .map(|v| v.to_bits() & !(1 << 63))
            .max()
            .unwrap_or(0),
    )
}

/// One dense layer: `a = act(W·x + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    weights: Matrix,
    /// `Wᵀ`, kept in sync with `weights` (refreshed on every parameter
    /// write) so the batched forward kernel reads both operands
    /// contiguously without a per-call transpose.
    weights_t: Matrix,
    biases: Vec<f64>,
    activation: Activation,
}

impl DenseLayer {
    /// Xavier/Glorot-uniform initialization.
    fn init<R: Rng + ?Sized>(
        input: usize,
        output: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let limit = (6.0 / (input + output) as f64).sqrt();
        let mut layer = DenseLayer {
            weights: Matrix::from_fn(output, input, |_, _| rng.gen_range(-limit..limit)),
            weights_t: Matrix::zeros(input, output),
            biases: vec![0.0; output],
            activation,
        };
        layer.refresh_transpose();
        layer
    }

    /// Rebuilds the cached transpose after `weights` changed.
    fn refresh_transpose(&mut self) {
        let (rows, cols) = (self.weights.rows(), self.weights.cols());
        debug_assert_eq!(self.weights_t.rows(), cols);
        debug_assert_eq!(self.weights_t.cols(), rows);
        let w = self.weights.as_slice();
        let wt = self.weights_t.as_mut_slice();
        for o in 0..rows {
            for k in 0..cols {
                wt[k * rows + o] = w[o * cols + k];
            }
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.weights.cols()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.weights.rows()
    }

    /// Parameters in this layer (weights + biases).
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.biases.len()
    }

    /// The weight matrix (`output_size × input_size`, row-major).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector (`output_size` entries).
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut z = self.weights.mul_vec(x);
        for (zi, b) in z.iter_mut().zip(&self.biases) {
            *zi += b;
        }
        let mut a = z.clone();
        self.activation.apply_slice(&mut a);
        (z, a)
    }
}

/// A fully connected network.
///
/// Build with [`MlpBuilder`]; see the crate docs for a training example.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    loss: Loss,
}

/// Builder for [`Mlp`].
///
/// ```
/// use ctjam_nn::mlp::MlpBuilder;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // The paper's architecture: 3·I inputs, two ReLU hidden layers, C·PL
/// // linear outputs.
/// let net = MlpBuilder::new(24).hidden(40).hidden(40).output(160).build(&mut rng);
/// assert_eq!(net.shape(), vec![24, 40, 40, 160]);
/// ```
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    sizes: Vec<usize>,
    loss: Loss,
}

impl MlpBuilder {
    /// Starts a network with `input` features.
    ///
    /// # Panics
    ///
    /// Panics if `input == 0`.
    pub fn new(input: usize) -> Self {
        assert!(input > 0, "input width must be positive");
        MlpBuilder {
            sizes: vec![input],
            loss: Loss::Mse,
        }
    }

    /// Appends a ReLU hidden layer of `width` units.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn hidden(mut self, width: usize) -> Self {
        assert!(width > 0, "hidden width must be positive");
        self.sizes.push(width);
        self
    }

    /// Selects the training loss (default MSE).
    #[must_use]
    pub fn loss(mut self, loss: Loss) -> Self {
        self.loss = loss;
        self
    }

    /// Appends the linear output layer and finalizes the architecture.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn output(mut self, width: usize) -> MlpFinal {
        assert!(width > 0, "output width must be positive");
        self.sizes.push(width);
        MlpFinal {
            sizes: self.sizes,
            loss: self.loss,
        }
    }
}

/// A finalized architecture awaiting weight initialization.
#[derive(Debug, Clone)]
pub struct MlpFinal {
    sizes: Vec<usize>,
    loss: Loss,
}

impl MlpFinal {
    /// Initializes weights (Xavier uniform) and produces the network.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Mlp {
        let n = self.sizes.len();
        let layers = (0..n - 1)
            .map(|i| {
                let activation = if i + 2 == n {
                    Activation::Identity
                } else {
                    Activation::Relu
                };
                DenseLayer::init(self.sizes[i], self.sizes[i + 1], activation, rng)
            })
            .collect();
        Mlp {
            layers,
            loss: self.loss,
        }
    }
}

impl Mlp {
    /// Layer widths including input and output.
    pub fn shape(&self) -> Vec<usize> {
        let mut shape = vec![self.layers[0].input_size()];
        shape.extend(self.layers.iter().map(DenseLayer::output_size));
        shape
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.layers[0].input_size()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.layers
            .last()
            .expect("at least one layer")
            .output_size()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(DenseLayer::param_count).sum()
    }

    /// The training loss in force.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_size(), "input width mismatch");
        let mut a = x.to_vec();
        for layer in &self.layers {
            a = layer.forward(&a).1;
        }
        a
    }

    /// Forward pass keeping every layer's pre-activation and activation —
    /// the trace backpropagation consumes.
    fn forward_trace(&self, x: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut activations = vec![x.to_vec()];
        let mut preacts = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (z, a) = layer.forward(activations.last().expect("nonempty"));
            preacts.push(z);
            activations.push(a);
        }
        (activations, preacts)
    }

    /// Flattens all parameters (per layer: weights row-major, then biases).
    pub fn flatten_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.weights.as_slice());
            out.extend_from_slice(&layer.biases);
        }
        out
    }

    /// Writes back a flat parameter vector (inverse of
    /// [`Mlp::flatten_params`]).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match [`Mlp::param_count`].
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.param_count(), "parameter count mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            let w = layer.weights.len();
            layer
                .weights
                .as_mut_slice()
                .copy_from_slice(&params[offset..offset + w]);
            layer.refresh_transpose();
            offset += w;
            let b = layer.biases.len();
            layer.biases.copy_from_slice(&params[offset..offset + b]);
            offset += b;
        }
    }

    /// Copies another network's weights into this one (target-network
    /// synchronization in DQN), without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn copy_weights_from(&mut self, other: &Mlp) {
        let same_shape = self.layers.len() == other.layers.len()
            && self.layers.iter().zip(&other.layers).all(|(a, b)| {
                (a.input_size(), a.output_size()) == (b.input_size(), b.output_size())
            });
        assert!(same_shape, "architecture mismatch");
        for (layer, src) in self.layers.iter_mut().zip(&other.layers) {
            layer
                .weights
                .as_mut_slice()
                .copy_from_slice(src.weights.as_slice());
            layer
                .weights_t
                .as_mut_slice()
                .copy_from_slice(src.weights_t.as_slice());
            layer.biases.copy_from_slice(&src.biases);
        }
    }

    /// Computes the mean per-sample loss and its gradient over a batch
    /// without updating weights. The gradient is flat, aligned with
    /// [`Mlp::flatten_params`].
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched widths.
    pub fn loss_and_gradient(&self, batch: &[(&[f64], &[f64])]) -> (f64, Vec<f64>) {
        assert!(!batch.is_empty(), "empty training batch");
        let out_dim = self.output_size() as f64;
        let scale = 1.0 / batch.len() as f64;

        let mut grad_w: Vec<Matrix> = self
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.output_size(), l.input_size()))
            .collect();
        let mut grad_b: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; l.output_size()])
            .collect();
        let mut total_loss = 0.0;

        for &(x, t) in batch {
            assert_eq!(t.len(), self.output_size(), "target width mismatch");
            let (activations, preacts) = self.forward_trace(x);
            let prediction = activations.last().expect("output exists");
            total_loss += self.loss.mean(prediction, t);

            // dL/da at the output (per-sample loss is the mean over dims).
            let mut delta: Vec<f64> = prediction
                .iter()
                .zip(t)
                .map(|(&p, &y)| self.loss.gradient(p, y) / out_dim)
                .collect();

            for l in (0..self.layers.len()).rev() {
                let layer = &self.layers[l];
                // dz = dL/da ⊙ act′(z).
                let dz: Vec<f64> = delta
                    .iter()
                    .zip(&preacts[l])
                    .map(|(&d, &z)| d * layer.activation.derivative(z))
                    .collect();
                grad_w[l].add_outer(&dz, &activations[l], scale);
                for (g, d) in grad_b[l].iter_mut().zip(&dz) {
                    *g += d * scale;
                }
                if l > 0 {
                    delta = layer.weights.mul_vec_transposed(&dz);
                }
            }
        }

        let mut flat = Vec::with_capacity(self.param_count());
        for (gw, gb) in grad_w.iter().zip(&grad_b) {
            flat.extend_from_slice(gw.as_slice());
            flat.extend_from_slice(gb);
        }
        (total_loss * scale, flat)
    }

    /// One optimization step on a batch; returns the pre-update mean loss.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched widths.
    pub fn train_batch<O: Optimizer>(&mut self, batch: &[(&[f64], &[f64])], opt: &mut O) -> f64 {
        let (loss, grads) = self.loss_and_gradient(batch);
        let mut params = self.flatten_params();
        opt.step(&mut params, &grads);
        self.set_params(&params);
        loss
    }

    /// Batched forward pass over every row of `x` at once, recording the
    /// full activation trace in `scratch` (consumed by
    /// [`Mlp::backward_batch`]). Returns the output batch.
    ///
    /// Bit-exact with calling [`Mlp::forward`] on each row.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the input width.
    pub fn forward_batch<'s>(&self, x: &Batch, scratch: &'s mut BatchScratch) -> &'s Batch {
        self.forward_layers(x, self.layers.len(), scratch);
        scratch
            .activations
            .last()
            .expect("at least the input activation")
    }

    /// Runs the first `count` layers over `x`, recording their trace in
    /// `scratch` (`activations[0..=count]`, `preacts[0..count]`).
    fn forward_layers(&self, x: &Batch, count: usize, scratch: &mut BatchScratch) {
        assert_eq!(x.cols(), self.input_size(), "input width mismatch");
        scratch.activations[0].copy_from(x);
        for (l, layer) in self.layers[..count].iter().enumerate() {
            let (head, tail) = scratch.activations.split_at_mut(l + 1);
            let z = &mut scratch.preacts[l];
            head[l].matmul_bias_into(&layer.weights_t, Some(&layer.biases), z);
            let a = &mut tail[0];
            a.copy_from(z);
            layer.activation.apply_slice(a.as_mut_slice());
        }
    }

    /// Backward pass over the activation trace left in `scratch` by the
    /// most recent [`Mlp::forward_batch`] call (with this network and the
    /// inputs whose predictions `targets` refers to). Returns the mean
    /// per-sample loss and leaves the gradient in `scratch`
    /// ([`BatchScratch::gradient`]).
    ///
    /// Bit-exact with [`Mlp::loss_and_gradient`] on the same pairs.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or its shape disagrees with the
    /// recorded trace.
    pub fn backward_batch(&self, targets: &Batch, scratch: &mut BatchScratch) -> f64 {
        let rows = targets.rows();
        assert!(rows > 0, "empty training batch");
        assert_eq!(targets.cols(), self.output_size(), "target width mismatch");
        let output = scratch.activations.last().expect("output exists");
        assert_eq!(
            output.rows(),
            rows,
            "trace/target batch-size mismatch (run forward_batch first)"
        );
        let out_dim = self.output_size() as f64;
        let scale = 1.0 / rows as f64;

        // dL/da at the output, one row per sample, accumulating the loss
        // in ascending sample order (same order as the per-sample path).
        let mut total_loss = 0.0;
        scratch.delta.set_shape(rows, self.output_size());
        for s in 0..rows {
            let prediction = output.row(s);
            let target = targets.row(s);
            total_loss += self.loss.mean(prediction, target);
            for ((d, &p), &y) in scratch
                .delta
                .row_mut(s)
                .iter_mut()
                .zip(prediction)
                .zip(target)
            {
                *d = self.loss.gradient(p, y) / out_dim;
            }
        }

        self.backprop_layers(self.layers.len(), rows, scale, scratch);
        total_loss * scale
    }

    /// Backpropagates `scratch.delta` (`dL/da` of layer `top − 1`'s
    /// output) through layers `top − 1 … 0` on the dense kernels, into
    /// their gradient buffers.
    fn backprop_layers(&self, top: usize, rows: usize, scale: f64, scratch: &mut BatchScratch) {
        for l in (0..top).rev() {
            let layer = &self.layers[l];
            let (out_size, in_size) = (layer.output_size(), layer.input_size());
            // dz = dL/da ⊙ act′(z), for the whole batch.
            scratch.dz.set_shape(rows, out_size);
            for ((d, &dl), &z) in scratch
                .dz
                .as_mut_slice()
                .iter_mut()
                .zip(scratch.delta.as_slice())
                .zip(scratch.preacts[l].as_slice())
            {
                *d = dl * layer.activation.derivative(z);
            }
            // dW = (dz·scale)ᵀ · a as one transposed GEMM. Each gradient
            // element folds over samples in ascending order from 0.0,
            // adding the identical `(dz[s][j]·scale)·a[s][i]` terms the
            // per-sample rank-1 updates added — bit-exact, but every
            // cache line of the activations is now read once instead of
            // once per sample.
            gemm_tn_scaled_into(
                scratch.dz.as_slice(),
                rows,
                out_size,
                scale,
                scratch.activations[l].as_slice(),
                in_size,
                scratch.grad_w[l].as_mut_slice(),
            );
            let gb = &mut scratch.grad_b[l];
            gb.iter_mut().for_each(|g| *g = 0.0);
            for s in 0..rows {
                for (g, &d) in gb.iter_mut().zip(scratch.dz.row(s)) {
                    *g += d * scale;
                }
            }
            if l > 0 {
                scratch.dz.matmul_into(&layer.weights, &mut scratch.delta);
            }
        }
    }

    /// Gather-form loss and gradient: the mean over samples of
    /// `loss(Q(x_s)[actions[s]], targets[s])`, the standard DQN loss
    /// `(Q(s, a) − y)²` in which only the taken action's output carries
    /// gradient.
    ///
    /// Bit-exact with [`Mlp::loss_and_gradient_batch`] on a dense target
    /// batch equal to the network's own predictions except
    /// `targets[s]` in column `actions[s]`. The hidden layers run on the
    /// [`Mlp::forward_batch`] kernels; the output layer is evaluated
    /// only at `actions[s]`, and its weight/bias gradients and the delta
    /// into the last hidden layer touch only those rows. The dense path
    /// adds nothing but `±0` terms beyond these to sums that start at
    /// `+0.0`, and the kept terms fold in the same order, so the bits
    /// agree — provided every dense output is finite. When that cannot
    /// be proven (a non-finite input, target, hidden activation or
    /// output parameter, an output that could overflow, a negative
    /// Huber threshold, or the SIMD backend active) the call runs the
    /// dense [`Mlp::forward_batch`] + [`Mlp::backward_batch`] path
    /// instead.
    ///
    /// Returns the loss and leaves the gradient in `scratch`. On the
    /// gather path the full output activation is never computed:
    /// [`BatchScratch::output`] is left unset (stale) afterwards.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, mismatched lengths or widths, or an
    /// action index outside the output width.
    pub fn loss_and_gradient_gather(
        &self,
        x: &Batch,
        actions: &[usize],
        targets: &[f64],
        scratch: &mut BatchScratch,
    ) -> f64 {
        let rows = x.rows();
        assert!(rows > 0, "empty training batch");
        assert_eq!(actions.len(), rows, "action/batch size mismatch");
        assert_eq!(targets.len(), rows, "target/batch size mismatch");
        let out_size = self.output_size();
        assert!(
            actions.iter().all(|&a| a < out_size),
            "action index out of range"
        );

        let last = self.layers.len() - 1;
        self.forward_layers(x, last, scratch);
        if !self.gather_is_exact(x, targets, &scratch.activations[last]) {
            let mut dense = std::mem::take(&mut scratch.targets);
            dense.copy_from(self.forward_batch(x, scratch));
            for (s, (&a, &y)) in actions.iter().zip(targets).enumerate() {
                dense.row_mut(s)[a] = y;
            }
            let loss = self.backward_batch(&dense, scratch);
            scratch.targets = dense;
            return loss;
        }

        let out = &self.layers[last];
        let in_size = out.input_size();
        let out_dim = out_size as f64;
        let scale = 1.0 / rows as f64;
        let w = out.weights.as_slice();
        let hidden = &scratch.activations[last];
        let gw = scratch.grad_w[last].as_mut_slice();
        let gb = &mut scratch.grad_b[last];
        gw.fill(0.0);
        gb.fill(0.0);
        scratch.delta.set_shape(rows, in_size);
        let mut total_loss = 0.0;
        for (s, (&a, &y)) in actions.iter().zip(targets).enumerate() {
            let w_row = &w[a * in_size..(a + 1) * in_size];
            let h = hidden.row(s);
            let mut z = 0.0;
            for (&wk, &hk) in w_row.iter().zip(h) {
                z += wk * hk;
            }
            z += out.biases[a];
            let q = out.activation.apply(z);
            total_loss += self.loss.value(q, y) / out_dim;
            let dz = self.loss.gradient(q, y) / out_dim * out.activation.derivative(z);
            let d = dz * scale;
            for (g, &hk) in gw[a * in_size..(a + 1) * in_size].iter_mut().zip(h) {
                *g += d * hk;
            }
            gb[a] += dz * scale;
            if last > 0 {
                for (dl, &wk) in scratch.delta.row_mut(s).iter_mut().zip(w_row) {
                    // `0.0 +` turns a `-0.0` product into `+0.0`, as the
                    // dense sum, which starts at `+0.0`, does.
                    *dl = 0.0 + wk * dz;
                }
            }
        }

        self.backprop_layers(last, rows, scale, scratch);
        total_loss * scale
    }

    /// Whether [`Mlp::loss_and_gradient_gather`] may take its gather
    /// path: the scalar backend is active, the inputs and targets are
    /// finite, the loss is zero with zero gradient wherever prediction
    /// equals target, and `k·max|a|·max|W_out| + max|b_out|` — a bound
    /// on every dense output — is finite with room to spare (which also
    /// proves `hidden` and the output parameters finite).
    fn gather_is_exact(&self, x: &Batch, targets: &[f64], hidden: &Batch) -> bool {
        /// Far enough below `f64::MAX` that rounding cannot push a
        /// bounded dot product to infinity.
        const OUTPUT_BOUND: f64 = 1e300;
        if kernel::simd_active() {
            return false;
        }
        if let Loss::Huber { delta } = self.loss {
            if delta.is_nan() || delta < 0.0 {
                return false;
            }
        }
        let out = self.layers.last().expect("at least one layer");
        let bound =
            out.input_size() as f64 * max_abs(hidden.as_slice()) * max_abs(out.weights.as_slice())
                + max_abs(&out.biases);
        max_abs(x.as_slice()).is_finite() && max_abs(targets).is_finite() && bound < OUTPUT_BOUND
    }

    /// Batched mean loss and gradient — [`Mlp::loss_and_gradient`]
    /// over packed inputs/targets with zero per-sample allocation. The
    /// gradient stays in `scratch` ([`BatchScratch::gradient`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched widths.
    pub fn loss_and_gradient_batch(
        &self,
        x: &Batch,
        targets: &Batch,
        scratch: &mut BatchScratch,
    ) -> f64 {
        assert_eq!(x.rows(), targets.rows(), "input/target batch mismatch");
        self.forward_batch(x, scratch);
        self.backward_batch(targets, scratch)
    }

    /// One Adam step on a packed minibatch; returns the pre-update mean
    /// loss. Bit-exact with [`Mlp::train_batch`] on the same pairs.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched widths.
    pub fn train_minibatch(
        &mut self,
        x: &Batch,
        targets: &Batch,
        scratch: &mut BatchScratch,
        adam: &mut Adam,
    ) -> f64 {
        let loss = self.loss_and_gradient_batch(x, targets, scratch);
        self.adam_step(scratch, adam);
        loss
    }

    /// One Adam update from the gradient the most recent backward pass
    /// left in `scratch`, written straight into each layer's weights,
    /// their cached transpose and its biases. The moments stay in
    /// [`Mlp::flatten_params`] order, so this is bit-exact with
    /// `flatten_params` → [`Optimizer::step`] on
    /// [`BatchScratch::gradient`] → [`Mlp::set_params`], without the
    /// three flat copies.
    ///
    /// # Panics
    ///
    /// Panics if `adam` already holds moments for a different parameter
    /// count, or `scratch` was built for another architecture.
    pub fn adam_step(&mut self, scratch: &BatchScratch, adam: &mut Adam) {
        assert_eq!(
            scratch.grad_w.len(),
            self.layers.len(),
            "scratch/network mismatch"
        );
        let (step, m, v) = adam.begin_step(self.param_count());
        let mut at = 0;
        let mut update = |params: &mut [f64], grads: &[f64]| {
            let run = at..at + params.len();
            at = run.end;
            step.apply(params, grads, &mut m[run.clone()], &mut v[run]);
        };
        for ((layer, gw), gb) in self
            .layers
            .iter_mut()
            .zip(&scratch.grad_w)
            .zip(&scratch.grad_b)
        {
            update(layer.weights.as_mut_slice(), gw.as_slice());
            layer.refresh_transpose();
            update(&mut layer.biases, gb);
        }
    }
}

/// Reusable buffers for the batched forward/backward path: layer
/// activations and pre-activations for a whole minibatch, and the
/// per-layer gradient accumulators. Create one
/// per network with [`BatchScratch::for_network`] and reuse it across
/// training steps — after warm-up no path through
/// [`Mlp::train_minibatch`] allocates.
#[derive(Debug, Clone)]
pub struct BatchScratch {
    /// `activations[0]` is the input batch, `activations[l + 1]` the
    /// output of layer `l`.
    activations: Vec<Batch>,
    /// Pre-activation `z` of each layer.
    preacts: Vec<Batch>,
    /// `dL/da` of the layer currently being backpropagated.
    delta: Batch,
    /// `dL/dz` of the layer currently being backpropagated.
    dz: Batch,
    grad_w: Vec<Matrix>,
    grad_b: Vec<Vec<f64>>,
    /// Dense target batch for the fallback of
    /// [`Mlp::loss_and_gradient_gather`].
    targets: Batch,
}

impl BatchScratch {
    /// Buffers sized for `net`'s architecture (row counts grow lazily to
    /// whatever batch size shows up).
    pub fn for_network(net: &Mlp) -> Self {
        let mut activations = vec![Batch::with_cols(net.input_size())];
        activations.extend(net.layers.iter().map(|l| Batch::with_cols(l.output_size())));
        BatchScratch {
            activations,
            preacts: net
                .layers
                .iter()
                .map(|l| Batch::with_cols(l.output_size()))
                .collect(),
            delta: Batch::default(),
            dz: Batch::default(),
            grad_w: net
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.output_size(), l.input_size()))
                .collect(),
            grad_b: net
                .layers
                .iter()
                .map(|l| vec![0.0; l.output_size()])
                .collect(),
            targets: Batch::default(),
        }
    }

    /// The gradient left by the most recent backward pass, flattened
    /// into a new vector aligned with [`Mlp::flatten_params`].
    pub fn gradient(&self) -> Vec<f64> {
        self.gradient_parts().flatten().copied().collect()
    }

    /// The gradient component at `index` in [`Mlp::flatten_params`]
    /// order, for writing in place.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the parameter count.
    pub fn gradient_mut(&mut self, mut index: usize) -> &mut f64 {
        for (gw, gb) in self.grad_w.iter_mut().zip(&mut self.grad_b) {
            for part in [gw.as_mut_slice(), gb.as_mut_slice()] {
                if index < part.len() {
                    return &mut part[index];
                }
                index -= part.len();
            }
        }
        panic!("gradient index out of range")
    }

    /// Whether every gradient component is finite.
    pub fn gradient_is_finite(&self) -> bool {
        self.gradient_parts().all(|part| max_abs(part).is_finite())
    }

    /// Each layer's weight gradient (row-major), then its bias gradient.
    fn gradient_parts(&self) -> impl Iterator<Item = &[f64]> {
        self.grad_w
            .iter()
            .zip(&self.grad_b)
            .flat_map(|(gw, gb)| [gw.as_slice(), gb.as_slice()])
    }

    /// The network output left by the most recent
    /// [`Mlp::forward_batch`] call. [`Mlp::loss_and_gradient_gather`]
    /// does not set it on its gather path, so after that call it holds
    /// whatever an earlier forward pass left.
    pub fn output(&self) -> &Batch {
        self.activations
            .last()
            .expect("at least the input activation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn shape_and_param_count() {
        let net = MlpBuilder::new(24)
            .hidden(40)
            .hidden(40)
            .output(160)
            .build(&mut rng());
        assert_eq!(net.shape(), vec![24, 40, 40, 160]);
        // 24·40+40 + 40·40+40 + 40·160+160 = 9240... computed exactly:
        let expected = 24 * 40 + 40 + 40 * 40 + 40 + 40 * 160 + 160;
        assert_eq!(net.param_count(), expected);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = MlpBuilder::new(4).hidden(8).output(2).build(&mut rng());
        let x = [0.1, -0.2, 0.3, -0.4];
        assert_eq!(net.forward(&x), net.forward(&x));
    }

    #[test]
    fn params_roundtrip() {
        let mut net = MlpBuilder::new(3).hidden(5).output(2).build(&mut rng());
        let flat = net.flatten_params();
        assert_eq!(flat.len(), net.param_count());
        let mut changed = flat.clone();
        changed[0] += 1.0;
        net.set_params(&changed);
        assert_eq!(net.flatten_params(), changed);
    }

    #[test]
    fn copy_weights_synchronizes_outputs() {
        let mut r = rng();
        let a = MlpBuilder::new(4).hidden(6).output(3).build(&mut r);
        let mut b = MlpBuilder::new(4).hidden(6).output(3).build(&mut r);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_ne!(a.forward(&x), b.forward(&x));
        b.copy_weights_from(&a);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let net = MlpBuilder::new(3)
            .hidden(5)
            .hidden(4)
            .output(2)
            .build(&mut rng());
        let x = [0.5, -1.0, 0.25];
        let t = [1.0, -1.0];
        let batch: Vec<(&[f64], &[f64])> = vec![(&x, &t)];
        let (_, analytic) = net.loss_and_gradient(&batch);

        let params = net.flatten_params();
        let eps = 1e-6;
        let mut worst = 0.0f64;
        for i in (0..params.len()).step_by(7) {
            let mut plus = net.clone();
            let mut p = params.clone();
            p[i] += eps;
            plus.set_params(&p);
            let mut minus = net.clone();
            p[i] -= 2.0 * eps;
            minus.set_params(&p);
            let (lp, _) = plus.loss_and_gradient(&batch);
            let (lm, _) = minus.loss_and_gradient(&batch);
            let numeric = (lp - lm) / (2.0 * eps);
            worst = worst.max((numeric - analytic[i]).abs());
        }
        assert!(worst < 1e-5, "max gradient error {worst}");
    }

    #[test]
    fn training_reduces_loss_on_regression() {
        let mut net = MlpBuilder::new(1).hidden(16).output(1).build(&mut rng());
        let mut adam = Adam::with_learning_rate(0.01);
        let xs: Vec<[f64; 1]> = (0..32).map(|i| [i as f64 / 16.0 - 1.0]).collect();
        let ys: Vec<[f64; 1]> = xs.iter().map(|x| [x[0].sin()]).collect();
        let batch: Vec<(&[f64], &[f64])> =
            xs.iter().zip(&ys).map(|(x, y)| (&x[..], &y[..])).collect();
        let initial = net.train_batch(&batch, &mut adam);
        let mut last = initial;
        for _ in 0..1500 {
            last = net.train_batch(&batch, &mut adam);
        }
        assert!(
            last < initial / 20.0,
            "loss did not shrink: {initial} -> {last}"
        );
    }

    #[test]
    fn huber_loss_trains_too() {
        let mut net = MlpBuilder::new(2)
            .hidden(8)
            .loss(Loss::Huber { delta: 1.0 })
            .output(1)
            .build(&mut rng());
        let mut adam = Adam::with_learning_rate(0.02);
        let xs = [[0.0, 1.0], [1.0, 0.0]];
        let ys = [[1.0], [-1.0]];
        let batch: Vec<(&[f64], &[f64])> =
            xs.iter().zip(&ys).map(|(x, y)| (&x[..], &y[..])).collect();
        let initial = net.train_batch(&batch, &mut adam);
        let mut last = initial;
        for _ in 0..800 {
            last = net.train_batch(&batch, &mut adam);
        }
        assert!(last < initial / 5.0);
    }

    #[test]
    fn forward_batch_is_bit_exact_with_per_sample() {
        let net = MlpBuilder::new(5)
            .hidden(9)
            .hidden(7)
            .output(3)
            .build(&mut rng());
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|s| (0..5).map(|k| ((s * 5 + k) as f64).sin()).collect())
            .collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
        let x = Batch::from_rows(&row_refs);
        let mut scratch = BatchScratch::for_network(&net);
        let out = net.forward_batch(&x, &mut scratch);
        for (s, row) in rows.iter().enumerate() {
            assert_eq!(out.row(s), &net.forward(row)[..]);
        }
    }

    #[test]
    fn batched_gradient_is_bit_exact_with_per_sample() {
        let net = MlpBuilder::new(4)
            .hidden(6)
            .hidden(5)
            .output(2)
            .build(&mut rng());
        let xs: Vec<Vec<f64>> = (0..8)
            .map(|s| (0..4).map(|k| ((s * 4 + k) as f64 * 0.37).cos()).collect())
            .collect();
        let ts: Vec<Vec<f64>> = (0..8)
            .map(|s| (0..2).map(|k| ((s * 2 + k) as f64 * 0.11).sin()).collect())
            .collect();
        let pairs: Vec<(&[f64], &[f64])> =
            xs.iter().zip(&ts).map(|(x, t)| (&x[..], &t[..])).collect();
        let (ref_loss, ref_grad) = net.loss_and_gradient(&pairs);

        let x_refs: Vec<&[f64]> = xs.iter().map(|r| &r[..]).collect();
        let t_refs: Vec<&[f64]> = ts.iter().map(|r| &r[..]).collect();
        let x = Batch::from_rows(&x_refs);
        let t = Batch::from_rows(&t_refs);
        let mut scratch = BatchScratch::for_network(&net);
        let loss = net.loss_and_gradient_batch(&x, &t, &mut scratch);
        assert_eq!(loss, ref_loss);
        assert_eq!(scratch.gradient(), ref_grad);
    }

    #[test]
    fn train_minibatch_is_bit_exact_with_train_batch() {
        let mut per_sample = MlpBuilder::new(3).hidden(8).output(2).build(&mut rng());
        let mut batched = per_sample.clone();
        let xs: Vec<Vec<f64>> = (0..5)
            .map(|s| (0..3).map(|k| (s + k) as f64 / 4.0 - 0.5).collect())
            .collect();
        let ts: Vec<Vec<f64>> = (0..5)
            .map(|s| vec![(s as f64).sin(), (s as f64).cos()])
            .collect();
        let pairs: Vec<(&[f64], &[f64])> =
            xs.iter().zip(&ts).map(|(x, t)| (&x[..], &t[..])).collect();
        let x_refs: Vec<&[f64]> = xs.iter().map(|r| &r[..]).collect();
        let t_refs: Vec<&[f64]> = ts.iter().map(|r| &r[..]).collect();
        let x = Batch::from_rows(&x_refs);
        let t = Batch::from_rows(&t_refs);

        let mut adam_a = Adam::with_learning_rate(0.01);
        let mut adam_b = Adam::with_learning_rate(0.01);
        let mut scratch = BatchScratch::for_network(&batched);
        for _ in 0..25 {
            let la = per_sample.train_batch(&pairs, &mut adam_a);
            let lb = batched.train_minibatch(&x, &t, &mut scratch, &mut adam_b);
            assert_eq!(la, lb);
        }
        assert_eq!(per_sample.flatten_params(), batched.flatten_params());
    }

    #[test]
    #[should_panic]
    fn backward_without_forward_trace_panics() {
        let net = MlpBuilder::new(3).hidden(4).output(2).build(&mut rng());
        let mut scratch = BatchScratch::for_network(&net);
        let t = Batch::from_rows(&[&[0.0, 0.0]]);
        net.backward_batch(&t, &mut scratch);
    }

    #[test]
    #[should_panic]
    fn wrong_input_width_panics() {
        let net = MlpBuilder::new(3).hidden(4).output(1).build(&mut rng());
        net.forward(&[1.0]);
    }

    #[test]
    #[should_panic]
    fn empty_batch_panics() {
        let mut net = MlpBuilder::new(3).hidden(4).output(1).build(&mut rng());
        let mut adam = Adam::with_learning_rate(0.01);
        net.train_batch(&[], &mut adam);
    }
}
