//! The in-place Adam update ([`Mlp::adam_step`]) against the flat-vector
//! round trip it replaced (`flatten_params` → [`Optimizer::step`] →
//! `set_params`) and against the textbook update written out below, bit
//! for bit on the parameters and both moment buffers.
//!
//! The cases aim at the update's exact shortcuts: steps on both sides
//! of the point where `1 − β₁ᵗ` rounds to 1, signed-zero gradients and
//! parameters, first moments of ±1…±7 ulps (the last fixed point of
//! `RN(0.9·m)` is 5 ulps) and other subnormals, zero and infinite second
//! moments, and learning rates on both sides of the bound under which a
//! stuck moment's `lr·m` underflows to a signed zero.

use ctjam_nn::batch::Batch;
use ctjam_nn::mlp::{BatchScratch, Mlp, MlpBuilder};
use ctjam_nn::optimizer::{Adam, Optimizer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Adam's update as first written here: per element, in order, with
/// both bias corrections applied by division.
fn textbook_adam(
    lr: f64,
    step: &mut u64,
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    let (beta1, beta2, epsilon) = (0.9f64, 0.999f64, 1e-8);
    *step += 1;
    let b1t = 1.0 - beta1.powi(*step as i32);
    let b2t = 1.0 - beta2.powi(*step as i32);
    for i in 0..params.len() {
        m[i] = beta1 * m[i] + (1.0 - beta1) * grads[i];
        v[i] = beta2 * v[i] + (1.0 - beta2) * grads[i] * grads[i];
        let m_hat = m[i] / b1t;
        let v_hat = v[i] / b2t;
        params[i] -= lr * m_hat / (v_hat.sqrt() + epsilon);
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn signed<R: Rng>(rng: &mut R, x: f64) -> f64 {
    if rng.gen_bool(0.5) {
        -x
    } else {
        x
    }
}

/// ±1…±7 ulps, another subnormal, ±0, or an ordinary moment.
fn first_moment<R: Rng>(rng: &mut R) -> f64 {
    let x = match rng.gen_range(0..5) {
        0 | 1 => f64::from_bits(rng.gen_range(1..8)),
        2 => f64::from_bits(rng.gen_range(8..1 << 52)),
        3 => 0.0,
        _ => rng.gen_range(1e-6..1e-2),
    };
    signed(rng, x)
}

/// 0, ±∞, a subnormal, or an ordinary second moment.
fn second_moment<R: Rng>(rng: &mut R) -> f64 {
    match rng.gen_range(0..8) {
        0 | 1 => 0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::from_bits(rng.gen_range(1..1 << 52)),
        _ => rng.gen_range(1e-12..1e-3),
    }
}

/// Mostly ±0, so stuck moments meet zero gradients.
fn gradient<R: Rng>(rng: &mut R) -> f64 {
    match rng.gen_range(0..4) {
        0 | 1 => signed(rng, 0.0),
        _ => rng.gen_range(-1.0..1.0),
    }
}

/// ±0 or an ordinary weight.
fn parameter<R: Rng>(rng: &mut R) -> f64 {
    match rng.gen_range(0..3) {
        0 => signed(rng, 0.0),
        _ => rng.gen_range(-1.0..1.0),
    }
}

fn random_net<R: Rng>(rng: &mut R) -> Mlp {
    let builder = MlpBuilder::new(rng.gen_range(1..6)).hidden(rng.gen_range(1..10));
    let h2 = rng.gen_range(0..10);
    let builder = if h2 > 0 { builder.hidden(h2) } else { builder };
    let mut net = builder.output(rng.gen_range(1..8)).build(rng);
    let params: Vec<f64> = (0..net.param_count()).map(|_| parameter(rng)).collect();
    net.set_params(&params);
    net
}

/// `forward_batch` reads the cached transposes, per-row `forward` the
/// weights. `net` after the in-place step must agree bit for bit with
/// `reference`, whose transposes `set_params` rebuilt, and with per-row
/// `forward` up to the sign of zero outputs (with ±0 parameters the two
/// kernels can end on zeros of opposite sign) and NaN payloads.
fn assert_transposes_in_sync<R: Rng>(net: &Mlp, reference: &Mlp, rng: &mut R) {
    let rows: Vec<Vec<f64>> = (0..rng.gen_range(1..5))
        .map(|_| {
            (0..net.input_size())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
    let x = Batch::from_rows(&refs);
    let mut scratch = BatchScratch::for_network(net);
    let mut reference_scratch = BatchScratch::for_network(reference);
    let out = net.forward_batch(&x, &mut scratch);
    assert_eq!(
        bits(out.as_slice()),
        bits(
            reference
                .forward_batch(&x, &mut reference_scratch)
                .as_slice()
        )
    );
    for (s, row) in rows.iter().enumerate() {
        for (a, b) in out.row(s).iter().zip(net.forward(row)) {
            assert!(*a == b || (a.is_nan() && b.is_nan()), "{a:e} vs {b:e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn in_place_adam_matches_the_flat_round_trip_and_the_textbook_update(
        seed in any::<u64>(),
        fresh in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = random_net(&mut rng);
        let n = net.param_count();
        let lr = [1e-3, 5e-3, 0.05, 0.1, 0.3, -1e-3][rng.gen_range(0..6usize)];
        // 1 − 0.9ᵗ first rounds to 1 at t = 356.
        let start: u64 = [0, 1, 353, 354, 355, 356, 5_000][rng.gen_range(0..7usize)];
        let (mut m, mut v): (Vec<f64>, Vec<f64>) = if fresh {
            (Vec::new(), Vec::new())
        } else {
            (0..n).map(|_| (first_moment(&mut rng), second_moment(&mut rng))).unzip()
        };
        let mut adam = Adam::restore(lr, start, m.clone(), v.clone());
        let mut flat_adam = adam.clone();
        let mut flat_net = net.clone();
        let mut params = net.flatten_params();
        if fresh {
            m = vec![0.0; n];
            v = vec![0.0; n];
        }
        let mut step = start;
        let mut scratch = BatchScratch::for_network(&net);
        for _ in 0..3 {
            for i in 0..n {
                *scratch.gradient_mut(i) = gradient(&mut rng);
            }
            let grads = scratch.gradient();

            net.adam_step(&scratch, &mut adam);
            let mut flat = flat_net.flatten_params();
            flat_adam.step(&mut flat, &grads);
            flat_net.set_params(&flat);
            textbook_adam(lr, &mut step, &mut params, &grads, &mut m, &mut v);

            prop_assert_eq!(adam.step_count(), step);
            prop_assert_eq!(flat_adam.step_count(), step);
            prop_assert_eq!(bits(&net.flatten_params()), bits(&params));
            prop_assert_eq!(bits(&flat_net.flatten_params()), bits(&params));
            prop_assert_eq!(bits(adam.first_moment()), bits(&m));
            prop_assert_eq!(bits(flat_adam.first_moment()), bits(&m));
            prop_assert_eq!(bits(adam.second_moment()), bits(&v));
            prop_assert_eq!(bits(flat_adam.second_moment()), bits(&v));
            assert_transposes_in_sync(&net, &flat_net, &mut rng);
        }
    }
}

#[test]
fn first_moments_stick_at_up_to_five_ulps_for_beta1_0_9() {
    for k in 1..=5 {
        assert_eq!(0.9 * f64::from_bits(k), f64::from_bits(k), "{k} ulps");
    }
    assert_eq!(0.9 * f64::from_bits(6), f64::from_bits(5));

    // Past t = 356, under zero gradients: 1–5 ulps stay, 6 decays to 5,
    // and ±0 parameters keep their exact signed zeros.
    let moments: Vec<f64> = (1..=6)
        .flat_map(|k| [f64::from_bits(k), -f64::from_bits(k)])
        .collect();
    let mut net = MlpBuilder::new(3)
        .output(3)
        .build(&mut StdRng::seed_from_u64(5));
    let params: Vec<f64> = (0..12)
        .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
        .collect();
    net.set_params(&params);
    let mut adam = Adam::restore(1e-3, 400, moments.clone(), vec![1e-6; 12]);
    let mut scratch = BatchScratch::for_network(&net);
    for i in 0..12 {
        *scratch.gradient_mut(i) = if i % 3 == 0 { -0.0 } else { 0.0 };
    }
    net.adam_step(&scratch, &mut adam);
    let mut expected = moments;
    expected[10] = f64::from_bits(5);
    expected[11] = -f64::from_bits(5);
    assert_eq!(bits(adam.first_moment()), bits(&expected));
    // `lr·m` underflows to copysign(0, m), so each parameter becomes
    // `p − (±0)`: −0 only for −0 − (+0), +0 otherwise.
    let stepped: Vec<f64> = params
        .iter()
        .zip(&expected)
        .map(|(&p, &m)| {
            p - 1e-3 * m / ((1e-6f64 * 0.999 / (1.0 - 0.999f64.powi(401))).sqrt() + 1e-8)
        })
        .collect();
    assert_eq!(bits(&net.flatten_params()), bits(&stepped));
}
