//! Property-based tests for the neural-network substrate.

use ctjam_nn::batch::Batch;
use ctjam_nn::loss::Loss;
use ctjam_nn::matrix::Matrix;
use ctjam_nn::mlp::{BatchScratch, MlpBuilder};
use ctjam_nn::serialize::{from_bytes, to_bytes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn matvec_is_linear(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in any::<u64>(),
        alpha in -3.0f64..3.0,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64) * 2.0 - 1.0
        };
        let m = Matrix::from_fn(rows, cols, |_, _| next());
        let x: Vec<f64> = (0..cols).map(|_| next()).collect();
        let y: Vec<f64> = (0..cols).map(|_| next()).collect();
        let combo: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + alpha * b).collect();
        let lhs = m.mul_vec(&combo);
        let mx = m.mul_vec(&x);
        let my = m.mul_vec(&y);
        for i in 0..rows {
            prop_assert!((lhs[i] - (mx[i] + alpha * my[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn loss_nonnegative_and_zero_at_target(p in -10.0f64..10.0, delta in 0.1f64..5.0) {
        for loss in [Loss::Mse, Loss::Huber { delta }] {
            prop_assert!(loss.value(p, p) == 0.0);
            prop_assert!(loss.value(p, 0.0) >= 0.0);
            prop_assert!(loss.gradient(p, p) == 0.0);
        }
    }

    #[test]
    fn serialization_roundtrip(seed in any::<u64>(), hidden in 1usize..24, out in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MlpBuilder::new(5).hidden(hidden).output(out).build(&mut rng);
        let back = from_bytes(&to_bytes(&net)).unwrap();
        prop_assert_eq!(back.shape(), net.shape());
        let x = [0.1, 0.2, 0.3, 0.4, 0.5];
        let a = net.forward(&x);
        let b = back.forward(&x);
        for (p, q) in a.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }

    #[test]
    fn gradient_check_random_architectures(
        seed in any::<u64>(),
        h1 in 2usize..8,
        h2 in 2usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MlpBuilder::new(3).hidden(h1).hidden(h2).output(2).build(&mut rng);
        let x = [0.3, -0.6, 0.9];
        let t = [0.5, -0.5];
        let batch: Vec<(&[f64], &[f64])> = vec![(&x, &t)];
        let (l0, grads) = net.loss_and_gradient(&batch);
        let params = net.flatten_params();
        let eps = 1e-6;
        // Spot-check a handful of coordinates.
        for i in (0..params.len()).step_by(params.len() / 5 + 1) {
            let mut p = params.clone();
            p[i] += eps;
            let mut plus = net.clone();
            plus.set_params(&p);
            p[i] -= 2.0 * eps;
            let mut minus = net.clone();
            minus.set_params(&p);
            let lp = plus.loss_and_gradient(&batch).0;
            let lm = minus.loss_and_gradient(&batch).0;
            // A ReLU kink inside the probed interval makes the central
            // difference meaningless; detect it by the two one-sided
            // slopes disagreeing and skip (the loss is piecewise smooth).
            let forward = (lp - l0) / eps;
            let backward = (l0 - lm) / eps;
            if (forward - backward).abs() > 1e-4 {
                continue;
            }
            let numeric = (lp - lm) / (2.0 * eps);
            prop_assert!((numeric - grads[i]).abs() < 1e-4, "coord {}: {} vs {}", i, numeric, grads[i]);
        }
    }

    #[test]
    fn flatten_set_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = MlpBuilder::new(4).hidden(6).output(3).build(&mut rng);
        let flat = net.flatten_params();
        net.set_params(&flat);
        prop_assert_eq!(net.flatten_params(), flat);
    }

    /// Tentpole invariant: the blocked batch kernels reproduce the
    /// per-sample matrix products bit-for-bit over random shapes
    /// (covering the 8-wide register tile and its remainder loop).
    #[test]
    fn batched_matmuls_are_bit_exact(
        seed in any::<u64>(),
        rows in 1usize..20,
        k in 1usize..20,
        out in 1usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next = move || rng.gen_range(-2.0..2.0);
        let w = Matrix::from_fn(out, k, |_, _| next());
        let mut x = Batch::with_cols(k);
        for _ in 0..rows {
            let row: Vec<f64> = (0..k).map(|_| next()).collect();
            x.push_row(&row);
        }
        let bias: Vec<f64> = (0..out).map(|_| next()).collect();

        let mut nt = Batch::default();
        x.matmul_transposed_into(&w, Some(&bias), &mut nt);
        for (s, row) in x.iter_rows().enumerate() {
            let mut want = w.mul_vec(row);
            for (z, b) in want.iter_mut().zip(&bias) {
                *z += b;
            }
            prop_assert_eq!(nt.row(s), &want[..]);
        }

        let w2 = Matrix::from_fn(x.cols(), out, |_, _| next());
        let mut nn = Batch::default();
        x.matmul_into(&w2, &mut nn);
        for (s, row) in x.iter_rows().enumerate() {
            prop_assert_eq!(nn.row(s), &w2.mul_vec_transposed(row)[..]);
        }
    }

    /// Tentpole invariant: a batched forward pass equals `rows`
    /// per-sample forward passes bit-for-bit over random architectures
    /// and batch sizes.
    #[test]
    fn forward_batch_equals_per_sample(
        seed in any::<u64>(),
        input in 1usize..10,
        h1 in 1usize..12,
        out in 1usize..10,
        rows in 1usize..17,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MlpBuilder::new(input).hidden(h1).output(out).build(&mut rng);
        let mut x = Batch::with_cols(input);
        for _ in 0..rows {
            let row: Vec<f64> = (0..input).map(|_| rng.gen_range(-1.5..1.5)).collect();
            x.push_row(&row);
        }
        let mut scratch = BatchScratch::for_network(&net);
        let y = net.forward_batch(&x, &mut scratch);
        for (s, row) in x.iter_rows().enumerate() {
            prop_assert_eq!(y.row(s), &net.forward(row)[..]);
        }
    }

    /// Tentpole invariant: the batched loss/gradient equals the
    /// per-sample path bit-for-bit — same loss, same flat gradient — so
    /// swapping the training path cannot perturb a seeded run.
    #[test]
    fn batched_gradient_equals_per_sample(
        seed in any::<u64>(),
        input in 1usize..8,
        h1 in 1usize..10,
        h2 in 1usize..10,
        out in 1usize..8,
        rows in 1usize..17,
        huber in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let builder = MlpBuilder::new(input).hidden(h1).hidden(h2);
        let builder = if huber {
            builder.loss(Loss::Huber { delta: 1.0 })
        } else {
            builder
        };
        let net = builder.output(out).build(&mut rng);

        let xs: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..input).map(|_| rng.gen_range(-1.5..1.5)).collect())
            .collect();
        let ts: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..out).map(|_| rng.gen_range(-1.5..1.5)).collect())
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
        prop_assert_eq!(loss, ref_loss);
        prop_assert_eq!(scratch.gradient(), ref_grad);
    }
}

/// How [`gather_gradient_equals_dense_targets`] damages its inputs.
const POISON_NONE: u8 = 0;
const POISON_NAN_INPUT: u8 = 1;
const POISON_INF_INPUT: u8 = 2;
const POISON_INF_WEIGHT: u8 = 3;
const POISON_OVERFLOW: u8 = 4;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// The gather-form DQN loss/gradient equals the dense batched path
    /// on targets that copy the predictions except in the taken
    /// action's column, bit for bit — on the gather path itself and on
    /// its fallback, which non-finite inputs, an infinite output weight
    /// and overflowing output weights must take.
    #[test]
    fn gather_gradient_equals_dense_targets(
        seed in any::<u64>(),
        input in 1usize..8,
        h1 in 1usize..12,
        h2 in 0usize..12,
        out in 1usize..10,
        rows in 1usize..65,
        huber in any::<bool>(),
        poison in 0u8..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let builder = MlpBuilder::new(input).hidden(h1);
        let builder = if h2 > 0 { builder.hidden(h2) } else { builder };
        let builder = if huber {
            builder.loss(Loss::Huber { delta: 1.0 })
        } else {
            builder
        };
        let mut net = builder.output(out).build(&mut rng);
        let last = net.layers().last().unwrap();
        let out_weights = last.weights().len();
        let out_start = net.param_count() - out_weights - out;
        let mut params = net.flatten_params();
        match poison {
            POISON_INF_WEIGHT => {
                params[out_start + rng.gen_range(0..out_weights)] = f64::INFINITY;
            }
            POISON_OVERFLOW => {
                // Huge biases too, so the outputs overflow even when the
                // last hidden layer is all zero after its ReLU.
                for p in &mut params[out_start..out_start + out_weights] {
                    *p *= 1e307;
                }
                for b in &mut params[out_start + out_weights..] {
                    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    *b = sign * rng.gen_range(1.0..1.7) * 1e308;
                }
            }
            _ => {}
        }
        net.set_params(&params);

        let mut x = Batch::with_cols(input);
        for _ in 0..rows {
            let row: Vec<f64> = (0..input).map(|_| rng.gen_range(-1.5..1.5)).collect();
            x.push_row(&row);
        }
        if poison == POISON_NAN_INPUT || poison == POISON_INF_INPUT {
            let value = if poison == POISON_NAN_INPUT { f64::NAN } else { f64::NEG_INFINITY };
            let s = rng.gen_range(0..rows);
            x.row_mut(s)[rng.gen_range(0..input)] = value;
        }
        let mut actions: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..out)).collect();
        if rows > 1 {
            actions[rows - 1] = actions[0];
        }
        let targets: Vec<f64> = (0..rows).map(|_| rng.gen_range(-3.0..3.0)).collect();

        let mut dense_scratch = BatchScratch::for_network(&net);
        let mut dense = net.forward_batch(&x, &mut dense_scratch).clone();
        for (s, (&a, &y)) in actions.iter().zip(&targets).enumerate() {
            dense.row_mut(s)[a] = y;
        }
        let ref_loss = net.backward_batch(&dense, &mut dense_scratch);

        let mut scratch = BatchScratch::for_network(&net);
        let loss = net.loss_and_gradient_gather(&x, &actions, &targets, &mut scratch);
        prop_assert_eq!(loss.to_bits(), ref_loss.to_bits());
        prop_assert_eq!(bits(&scratch.gradient()), bits(&dense_scratch.gradient()));
        // Only the fallback runs the full output layer.
        let fell_back = scratch.output().rows() == rows;
        prop_assert_eq!(fell_back, poison != POISON_NONE);
    }
}
