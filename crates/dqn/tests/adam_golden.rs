//! Golden Adam state: a DQN agent trained for more than 8 000 steps on
//! a small synthetic channel-hopping task, pinned by an FNV-1a digest of
//! its weights, both Adam moment buffers and its last loss.
//!
//! The run is long enough that the first moments of dead ReLU units
//! decay through the subnormal range and settle on the fixed points of
//! `m ← RN(β₁·m)` (1–5 units in the last place), and that the bias
//! correction `1 − β₁ᵗ` has rounded to exactly 1. Any rewrite of the
//! optimizer must reproduce this state bit for bit.

use ctjam_dqn::agent::DqnAgent;
use ctjam_dqn::config::DqnConfig;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Observations fed to the agent; it trains on each from the 64th on.
const STEPS: usize = 8_100;

/// FNV-1a of the agent's state after [`STEPS`] observations, recorded
/// with the flat-vector Adam update.
const ADAM_STATE_FNV: u64 = 0x8865_8712_265c_1188;

/// 64-bit FNV-1a, folded over 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Moments sitting 1–5 units in the last place from zero: subnormal
/// fixed points of `RN(0.9·m)` under a zero gradient.
fn stuck_subnormals(m: &[f64]) -> usize {
    m.iter()
        .filter(|x| (1..=5).contains(&(x.to_bits() & !(1 << 63))))
        .count()
}

/// Trains the agent on a jammer that moves to a random one of four
/// channels with probability 0.3 per slot; the observation is the last
/// four (channel, power, jammed) triples.
fn trained_agent() -> DqnAgent {
    let config = DqnConfig {
        history_len: 4,
        num_channels: 4,
        num_power_levels: 2,
        hidden: (32, 32),
        learning_rate: 1e-3,
        replay_capacity: 1_000,
        batch_size: 32,
        target_sync_interval: 100,
        epsilon_decay_steps: 2_000,
        warmup: 64,
        ..DqnConfig::default()
    };
    let input = config.input_size();
    let mut rng = StdRng::seed_from_u64(1);
    let mut jammer = StdRng::seed_from_u64(101);
    let mut agent = DqnAgent::new(config, &mut rng);
    let mut jammed_channel = 0;
    let mut obs = vec![0.0; input];
    for _ in 0..STEPS {
        let action = agent.act(&obs, &mut rng);
        if jammer.gen_bool(0.3) {
            jammed_channel = jammer.gen_range(0..4);
        }
        let (channel, power) = (action / 2, action % 2);
        let jammed = channel == jammed_channel;
        let reward = if jammed {
            -10.0
        } else {
            1.0 - power as f64 * 0.5
        };
        let mut next = obs.clone();
        next.rotate_left(3);
        next[input - 3] = channel as f64 / 3.0;
        next[input - 2] = power as f64;
        next[input - 1] = if jammed { 1.0 } else { 0.0 };
        agent.observe(obs, action, reward, next.clone(), &mut rng);
        obs = next;
    }
    agent
}

#[test]
fn long_run_adam_state_is_pinned() {
    let agent = trained_agent();
    let opt = agent.optimizer();
    assert!(
        agent.train_steps() >= 8_000,
        "{} steps",
        agent.train_steps()
    );
    assert_eq!(opt.step_count(), agent.train_steps() as u64);
    assert_eq!(1.0 - 0.9f64.powi(opt.step_count() as i32), 1.0);
    let stuck = stuck_subnormals(opt.first_moment());
    assert!(stuck > 0, "the run holds no stuck-subnormal first moment");

    let params = agent.network().flatten_params();
    let words = params
        .iter()
        .chain(opt.first_moment())
        .chain(opt.second_moment())
        .map(|x| x.to_bits())
        .chain([agent.last_loss().expect("trained").to_bits()]);
    let digest = fnv1a(words);
    assert_eq!(
        digest, ADAM_STATE_FNV,
        "Adam state digest {digest:#018x} ({stuck} stuck moments)"
    );
}
