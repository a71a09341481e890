//! Neural-network substrate costs: MLP forward/backward at the paper's
//! shape, and the RNN predictor the adaptive jammer trains online.

use criterion::{criterion_group, criterion_main, Criterion};
use ctjam_nn::batch::Batch;
use ctjam_nn::mlp::{BatchScratch, MlpBuilder};
use ctjam_nn::optimizer::Adam;
use ctjam_nn::rnn::Rnn;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let net = MlpBuilder::new(24)
        .hidden(48)
        .hidden(42)
        .output(160)
        .build(&mut rng);
    let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.13).sin()).collect();

    c.bench_function("mlp_forward_paper_shape", |b| {
        b.iter(|| std::hint::black_box(net.forward(&x)));
    });

    let target: Vec<f64> = (0..160).map(|i| (i as f64 * 0.07).cos()).collect();
    let batch: Vec<(&[f64], &[f64])> = vec![(&x, &target); 32];
    c.bench_function("mlp_gradient_batch32_paper_shape", |b| {
        b.iter(|| std::hint::black_box(net.loss_and_gradient(&batch)));
    });

    // The same minibatch through the packed, scratch-reusing kernels —
    // bit-identical output (see the property tests), far fewer allocations
    // and cache misses.
    let xs = Batch::from_rows(&vec![&x[..]; 32]);
    let ys = Batch::from_rows(&vec![&target[..]; 32]);
    let mut scratch = BatchScratch::for_network(&net);
    c.bench_function("mlp_gradient_batch32_batched", |b| {
        b.iter(|| {
            let loss = net.loss_and_gradient_batch(&xs, &ys, &mut scratch);
            std::hint::black_box(loss)
        });
    });

    c.bench_function("mlp_forward_batch32_batched", |b| {
        b.iter(|| std::hint::black_box(net.forward_batch(&xs, &mut scratch).rows()));
    });

    let mut rnn = Rnn::new(4, 16, 4, &mut rng);
    let xs: Vec<Vec<f64>> = (0..32)
        .map(|t| {
            let mut v = vec![0.0; 4];
            v[t % 4] = 1.0;
            v
        })
        .collect();
    c.bench_function("rnn_run_32_steps", |b| {
        b.iter(|| std::hint::black_box(rnn.run(&xs)));
    });

    let ys = xs.clone();
    let mut adam = Adam::with_learning_rate(5e-3);
    c.bench_function("rnn_bptt_train_32_steps", |b| {
        b.iter(|| std::hint::black_box(rnn.train_sequence(&xs, &ys, &mut adam)));
    });
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
