//! The DQN agent: ε-greedy action selection, replay training, and a
//! target network.

use crate::config::DqnConfig;
use crate::replay::{Experience, ReplayBuffer};
use ctjam_fault::{FaultPoint, FaultSite, NullFaultPlan};
use ctjam_nn::batch::Batch;
use ctjam_nn::mlp::{BatchScratch, Mlp, MlpBuilder};
use ctjam_nn::optimizer::Adam;
use ctjam_nn::optimizer::Optimizer;
use rand::Rng;

/// A deep Q-network agent over `C × PL` (channel, power) actions.
///
/// See the crate-level example for basic usage. The typical loop is:
///
/// 1. [`DqnAgent::act`] on the current observation,
/// 2. step the environment,
/// 3. [`DqnAgent::observe`] the transition — which trains the online
///    network from replay and periodically syncs the target network.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    config: DqnConfig,
    online: Mlp,
    target: Mlp,
    optimizer: Adam,
    replay: ReplayBuffer,
    scratch: TrainScratch,
    steps: usize,
    train_steps: usize,
    skipped_train_steps: usize,
    last_loss: Option<f64>,
}

/// Reusable buffers for [`DqnAgent::train_step`] and the scratch-based
/// inference path: the packed minibatch, the network scratch spaces, the
/// per-sample Q-targets, and the single-row observation workspace. Kept
/// inside the agent so steady-state training *and* evaluation perform
/// no per-step allocation.
#[derive(Debug, Clone)]
struct TrainScratch {
    states: Batch,
    actions: Vec<usize>,
    rewards: Vec<f64>,
    next_states: Batch,
    /// Replay slot of each sampled transition.
    slots: Vec<usize>,
    /// Traced forward/backward workspace of the online network.
    online: BatchScratch,
    /// Forward-only workspace for the target (and, under double DQN, the
    /// online-next) pass.
    aux: BatchScratch,
    /// Per-sample bootstrap, then Q-target `r + γ·bootstrap`.
    targets: Vec<f64>,
    /// Vanilla DQN: the samples whose bootstrap was not memoised, and
    /// their packed next-states.
    misses: Vec<usize>,
    miss_states: Batch,
    /// Double DQN: per-sample action selected by the online network.
    selected: Vec<usize>,
    params: Vec<f64>,
    /// Single-row observation batch for scratch-based inference.
    obs: Batch,
    /// Forward-only workspace for scratch-based inference (kept separate
    /// from `online`/`aux` so an inference between `train_step` calls
    /// cannot clobber a training trace).
    infer: BatchScratch,
    /// Reusable weight buffer for [`DqnAgent::act_softmax_scratch`].
    softmax_weights: Vec<f64>,
}

impl TrainScratch {
    /// Buffers for `online`; the per-sample ones are sized for
    /// `batch_size` up front, so even the first train step adds no
    /// allocation of its own for them.
    fn for_networks(online: &Mlp, batch_size: usize) -> Self {
        TrainScratch {
            states: Batch::with_cols(online.input_size()),
            actions: Vec::with_capacity(batch_size),
            rewards: Vec::with_capacity(batch_size),
            next_states: Batch::with_cols(online.input_size()),
            slots: Vec::with_capacity(batch_size),
            online: BatchScratch::for_network(online),
            aux: BatchScratch::for_network(online),
            targets: Vec::with_capacity(batch_size),
            misses: Vec::with_capacity(batch_size),
            miss_states: {
                // Emptied, keeping the allocation for `batch_size` rows.
                let mut rows = Batch::zeros(batch_size, online.input_size());
                rows.clear();
                rows
            },
            selected: Vec::with_capacity(batch_size),
            params: Vec::new(),
            obs: Batch::with_cols(online.input_size()),
            infer: BatchScratch::for_network(online),
            softmax_weights: Vec::new(),
        }
    }
}

impl DqnAgent {
    /// Creates an agent with freshly initialized networks.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`DqnConfig::validate`]).
    pub fn new<R: Rng + ?Sized>(config: DqnConfig, rng: &mut R) -> Self {
        config.validate();
        let online = MlpBuilder::new(config.input_size())
            .hidden(config.hidden.0)
            .hidden(config.hidden.1)
            .output(config.num_actions())
            .build(rng);
        let target = online.clone();
        let optimizer = Adam::with_learning_rate(config.learning_rate);
        let replay = ReplayBuffer::new(config.replay_capacity);
        let scratch = TrainScratch::for_networks(&online, config.batch_size);
        DqnAgent {
            config,
            online,
            target,
            optimizer,
            last_loss: None,
            replay,
            scratch,
            steps: 0,
            train_steps: 0,
            skipped_train_steps: 0,
        }
    }

    /// Rebuilds an agent from checkpointed parts, re-deriving the
    /// training scratch space. The counterpart of reading every field
    /// back through the public accessors; used by the `checkpoint`
    /// module.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the networks' shapes
    /// do not match it.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        config: DqnConfig,
        online: Mlp,
        target: Mlp,
        optimizer: Adam,
        replay: ReplayBuffer,
        steps: usize,
        train_steps: usize,
        skipped_train_steps: usize,
        last_loss: Option<f64>,
    ) -> Self {
        config.validate();
        assert_eq!(online.input_size(), config.input_size(), "online input");
        assert_eq!(online.output_size(), config.num_actions(), "online output");
        assert_eq!(target.input_size(), config.input_size(), "target input");
        assert_eq!(target.output_size(), config.num_actions(), "target output");
        let scratch = TrainScratch::for_networks(&online, config.batch_size);
        DqnAgent {
            config,
            online,
            target,
            optimizer,
            replay,
            scratch,
            steps,
            train_steps,
            skipped_train_steps,
            last_loss,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// The online (trained) network.
    pub fn network(&self) -> &Mlp {
        &self.online
    }

    /// The target network used for bootstrap estimates.
    pub fn target_network(&self) -> &Mlp {
        &self.target
    }

    /// The replay buffer.
    pub fn replay(&self) -> &ReplayBuffer {
        &self.replay
    }

    /// Loads pre-trained weights into both networks (the paper trains
    /// offline, then loads the result onto the hub).
    ///
    /// # Panics
    ///
    /// Panics if the architecture differs from the configuration's.
    pub fn load_network(&mut self, net: &Mlp) {
        self.online.copy_weights_from(net);
        self.target.copy_weights_from(net);
        self.replay.forget_bootstraps();
    }

    /// Environment steps observed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Gradient updates performed so far.
    pub fn train_steps(&self) -> usize {
        self.train_steps
    }

    /// Optimizer steps skipped by the non-finite-gradient guard (only
    /// possible on the fault-injected training path).
    pub fn skipped_train_steps(&self) -> usize {
        self.skipped_train_steps
    }

    /// The optimizer state (checkpointing).
    pub fn optimizer(&self) -> &Adam {
        &self.optimizer
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon_at(self.steps)
    }

    /// Transitions currently held in the replay buffer (telemetry:
    /// replay occupancy).
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Replay buffer capacity.
    pub fn replay_capacity(&self) -> usize {
        self.replay.capacity()
    }

    /// Loss of the most recent gradient step, if any ran yet.
    pub fn last_loss(&self) -> Option<f64> {
        self.last_loss
    }

    /// Q-values of every action at an observation.
    pub fn q_values(&self, observation: &[f64]) -> Vec<f64> {
        self.online.forward(observation)
    }

    /// Q-values through the agent's reusable inference scratch.
    ///
    /// Bit-exact with [`DqnAgent::q_values`] ([`Mlp::forward_batch`] is
    /// bit-exact with per-row [`Mlp::forward`]) but allocation-free in
    /// steady state — the observation row and every layer activation
    /// live in buffers reused across calls.
    pub fn q_values_scratch(&mut self, observation: &[f64]) -> &[f64] {
        let Self {
            online, scratch, ..
        } = self;
        scratch.obs.set_shape(1, observation.len());
        scratch.obs.row_mut(0).copy_from_slice(observation);
        online
            .forward_batch(&scratch.obs, &mut scratch.infer)
            .row(0)
    }

    /// Greedy action (no exploration).
    pub fn act_greedy(&self, observation: &[f64]) -> usize {
        argmax(&self.q_values(observation))
    }

    /// ε-greedy action selection (paper §III.C): the best action with
    /// probability `1 − ε`, otherwise one of the remaining actions
    /// uniformly (`ε/(C·PL − 1)` each).
    pub fn act<R: Rng + ?Sized>(&self, observation: &[f64], rng: &mut R) -> usize {
        let best = self.act_greedy(observation);
        let epsilon = self.epsilon();
        let n = self.config.num_actions();
        if n == 1 || !rng.gen_bool(epsilon.clamp(0.0, 1.0)) {
            return best;
        }
        // Uniform over the other n−1 actions.
        let mut pick = rng.gen_range(0..n - 1);
        if pick >= best {
            pick += 1;
        }
        pick
    }

    /// Greedy action through the reusable inference scratch (bit-exact
    /// with [`DqnAgent::act_greedy`], allocation-free in steady state).
    pub fn act_greedy_scratch(&mut self, observation: &[f64]) -> usize {
        argmax(self.q_values_scratch(observation))
    }

    /// [`DqnAgent::act`] through the reusable inference scratch: same
    /// ε-greedy policy, same RNG draw order, no per-call allocation.
    pub fn act_scratch<R: Rng + ?Sized>(&mut self, observation: &[f64], rng: &mut R) -> usize {
        let best = self.act_greedy_scratch(observation);
        let epsilon = self.epsilon();
        let n = self.config.num_actions();
        if n == 1 || !rng.gen_bool(epsilon.clamp(0.0, 1.0)) {
            return best;
        }
        let mut pick = rng.gen_range(0..n - 1);
        if pick >= best {
            pick += 1;
        }
        pick
    }

    /// Boltzmann (softmax) action selection: samples an action with
    /// probability `∝ exp(Q(s, a)/τ)`.
    ///
    /// A randomized deployment policy: unlike ε-greedy — whose greedy arm
    /// is deterministic and therefore learnable by a traffic-predicting
    /// (DeepJam-class) jammer — softmax sampling spreads probability over
    /// all near-optimal actions, trading a little reward for
    /// unpredictability.
    ///
    /// # Panics
    ///
    /// Panics if `temperature` is not strictly positive.
    pub fn act_softmax<R: Rng + ?Sized>(
        &self,
        observation: &[f64],
        temperature: f64,
        rng: &mut R,
    ) -> usize {
        assert!(temperature > 0.0, "softmax temperature must be positive");
        let q = self.q_values(observation);
        let max = q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = q.iter().map(|v| ((v - max) / temperature).exp()).collect();
        let total: f64 = weights.iter().sum();
        let mut u = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// [`DqnAgent::act_softmax`] through the reusable inference scratch:
    /// same Boltzmann policy, same RNG draw order, no per-call
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `temperature` is not strictly positive.
    pub fn act_softmax_scratch<R: Rng + ?Sized>(
        &mut self,
        observation: &[f64],
        temperature: f64,
        rng: &mut R,
    ) -> usize {
        assert!(temperature > 0.0, "softmax temperature must be positive");
        let Self {
            online, scratch, ..
        } = self;
        scratch.obs.set_shape(1, observation.len());
        scratch.obs.row_mut(0).copy_from_slice(observation);
        let q = online
            .forward_batch(&scratch.obs, &mut scratch.infer)
            .row(0);
        let max = q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let weights = &mut scratch.softmax_weights;
        weights.clear();
        weights.extend(q.iter().map(|v| ((v - max) / temperature).exp()));
        let total: f64 = weights.iter().sum();
        let mut u = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// Records a transition and performs the training schedule: push to
    /// replay, train every `train_interval` steps once `warmup` is
    /// reached, and sync the target network every
    /// `target_sync_interval` steps. Returns the training loss when a
    /// gradient step ran.
    pub fn observe<R: Rng + ?Sized>(
        &mut self,
        state: Vec<f64>,
        action: usize,
        reward: f64,
        next_state: Vec<f64>,
        rng: &mut R,
    ) -> Option<f64> {
        self.observe_with_fault(state, action, reward, next_state, rng, &mut NullFaultPlan)
    }

    /// [`DqnAgent::observe`] with a fault-injection plan threaded into
    /// the training step (see [`DqnAgent::train_step_with_fault`]).
    /// With a [`NullFaultPlan`] this monomorphizes to exactly
    /// [`DqnAgent::observe`].
    pub fn observe_with_fault<R: Rng + ?Sized, F: FaultPoint + ?Sized>(
        &mut self,
        state: Vec<f64>,
        action: usize,
        reward: f64,
        next_state: Vec<f64>,
        rng: &mut R,
        fault: &mut F,
    ) -> Option<f64> {
        self.replay.push(Experience {
            state,
            action,
            reward,
            next_state,
        });
        self.steps += 1;

        let mut loss = None;
        if self.replay.len() >= self.config.warmup
            && self.steps.is_multiple_of(self.config.train_interval)
        {
            loss = Some(self.train_step_with_fault(rng, fault));
        }
        if self.steps.is_multiple_of(self.config.target_sync_interval) {
            self.sync_target();
        }
        loss
    }

    /// One gradient step on a replay minibatch; returns the loss.
    ///
    /// The loss is the standard DQN `(Q(s, a) − y)²` with target
    /// `y = r + γ·max_{a′} Q_target(s′, a′)` (double DQN:
    /// `Q_target(s′, argmax_{a′} Q_online(s′, a′))`), taken in gather
    /// form by [`Mlp::loss_and_gradient_gather`]: the online output layer
    /// is evaluated and differentiated only at the taken actions.
    ///
    /// Under vanilla targets the bootstrap `max_{a′} Q_target(s′, a′)`
    /// is memoised per replay slot until the target network or the
    /// slot changes; only the misses run through one packed target
    /// forward. Double DQN runs one online and one target forward over
    /// all next-states. Bit-exact with the per-sample formulation that
    /// writes `y` into the online network's own prediction vector
    /// (regression-tested below).
    pub fn train_step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.train_step_with_fault(rng, &mut NullFaultPlan)
    }

    /// [`DqnAgent::train_step`] with fault injection and its recovery
    /// guard.
    ///
    /// An enabled plan may fire:
    ///
    /// * [`FaultSite::ReplayCorruption`] — one stored transition has
    ///   every scalar overwritten with a poisoned (NaN/Inf) value before
    ///   sampling;
    /// * [`FaultSite::GradientPoison`] — one gradient component is
    ///   replaced with NaN/Inf after backprop.
    ///
    /// Recovery: on the fault-injected path the gradient is checked and
    /// a non-finite gradient **skips the optimizer step** (weights and
    /// Adam moments untouched, [`DqnAgent::skipped_train_steps`]
    /// incremented) instead of silently destroying the network. The
    /// returned loss may still be non-finite — it is a measurement, not
    /// an update.
    ///
    /// All fault work is gated on [`FaultPoint::is_enabled`], so with a
    /// [`NullFaultPlan`] this monomorphizes to exactly
    /// [`DqnAgent::train_step`] (no gradient scan, no extra branch in
    /// the hot loop).
    pub fn train_step_with_fault<R: Rng + ?Sized, F: FaultPoint + ?Sized>(
        &mut self,
        rng: &mut R,
        fault: &mut F,
    ) -> f64 {
        if fault.is_enabled()
            && !self.replay.is_empty()
            && fault.should_fire(FaultSite::ReplayCorruption)
        {
            let index = fault.pick_index(FaultSite::ReplayCorruption, self.replay.len());
            let value = fault.poison(FaultSite::ReplayCorruption);
            self.replay.corrupt_at(index, value);
        }
        let Self {
            config,
            online,
            target,
            optimizer,
            replay,
            scratch,
            train_steps,
            skipped_train_steps,
            last_loss,
            ..
        } = self;
        replay.sample_into(
            config.batch_size,
            &mut scratch.states,
            &mut scratch.actions,
            &mut scratch.rewards,
            &mut scratch.next_states,
            &mut scratch.slots,
            rng,
        );
        let rows = scratch.states.rows();

        let targets = &mut scratch.targets;
        targets.clear();
        if config.double_dqn {
            // The online network selects, the target network evaluates.
            let online_next = online.forward_batch(&scratch.next_states, &mut scratch.aux);
            scratch.selected.clear();
            for s in 0..rows {
                scratch.selected.push(argmax(online_next.row(s)));
            }
            let next_q = target.forward_batch(&scratch.next_states, &mut scratch.aux);
            for (s, &a) in scratch.selected.iter().enumerate() {
                targets.push(next_q.row(s)[a]);
            }
        } else {
            // Memo hits first; a NaN marks a miss.
            targets.extend(scratch.slots.iter().map(|&slot| replay.bootstrap(slot)));
            scratch.misses.clear();
            scratch.miss_states.reset(scratch.next_states.cols());
            for (s, t) in targets.iter().enumerate() {
                if t.is_nan() {
                    scratch.misses.push(s);
                    scratch.miss_states.push_row(scratch.next_states.row(s));
                }
            }
            if !scratch.misses.is_empty() {
                let next_q = target.forward_batch(&scratch.miss_states, &mut scratch.aux);
                for (m, &s) in scratch.misses.iter().enumerate() {
                    let bootstrap = next_q
                        .row(m)
                        .iter()
                        .cloned()
                        .fold(f64::NEG_INFINITY, f64::max);
                    replay.memoise_bootstrap(scratch.slots[s], bootstrap);
                    targets[s] = bootstrap;
                }
            }
        }
        for (t, &r) in targets.iter_mut().zip(&scratch.rewards) {
            *t = r + config.gamma * *t;
        }

        *train_steps += 1;
        let (loss, _) = online.loss_and_gradient_gather(
            &scratch.states,
            &scratch.actions,
            targets,
            &mut scratch.online,
        );
        online.flatten_params_into(&mut scratch.params);
        if fault.is_enabled() {
            let mut grads = scratch.online.gradient().to_vec();
            if fault.should_fire(FaultSite::GradientPoison) {
                let index = fault.pick_index(FaultSite::GradientPoison, grads.len());
                grads[index] = fault.poison(FaultSite::GradientPoison);
            }
            if grads.iter().all(|g| g.is_finite()) {
                optimizer.step(&mut scratch.params, &grads);
                online.set_params(&scratch.params);
            } else {
                *skipped_train_steps += 1;
            }
        } else {
            optimizer.step(&mut scratch.params, scratch.online.gradient());
            online.set_params(&scratch.params);
        }
        *last_loss = Some(loss);
        loss
    }

    /// Copies the online network into the target network.
    pub fn sync_target(&mut self) {
        self.target.copy_weights_from(&self.online);
        self.replay.forget_bootstraps();
    }
}

/// Index of the largest value. Total over all `f64` inputs: ties resolve
/// to the last maximum (matching `Iterator::max_by` on a total order) and
/// NaN entries behave like `NEG_INFINITY` — never selected unless nothing
/// else exists, in which case index 0 is returned. A NaN sneaking out of
/// a diverged network thus yields an arbitrary-but-valid action instead
/// of a panic mid-deployment.
///
/// Shared with [`crate::policy`] so a detached [`crate::policy::GreedyPolicy`]
/// resolves ties and NaNs exactly like the agent it was snapshotted from.
pub(crate) fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    let mut best_value = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        // NaN compares false, leaving `best` untouched.
        if v >= best_value {
            best = i;
            best_value = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> DqnConfig {
        DqnConfig {
            history_len: 2,
            num_channels: 4,
            num_power_levels: 2,
            hidden: (16, 16),
            learning_rate: 5e-3,
            replay_capacity: 2_000,
            batch_size: 16,
            target_sync_interval: 50,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay_steps: 500,
            train_interval: 1,
            warmup: 32,
            gamma: 0.8,
            double_dqn: false,
        }
    }

    #[test]
    fn act_returns_valid_actions() {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = DqnAgent::new(small_config(), &mut rng);
        let obs = vec![0.0; agent.config().input_size()];
        for _ in 0..100 {
            assert!(agent.act(&obs, &mut rng) < agent.config().num_actions());
        }
    }

    #[test]
    fn scratch_inference_is_bit_exact_with_allocating_paths() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut agent = DqnAgent::new(small_config(), &mut rng);
        let input = agent.config().input_size();
        for i in 0..50 {
            let obs: Vec<f64> = (0..input).map(|j| ((i * 31 + j) as f64).sin()).collect();
            let plain = agent.q_values(&obs);
            let scratch = agent.q_values_scratch(&obs).to_vec();
            assert_eq!(plain, scratch, "q_values diverged at obs {i}");
            assert_eq!(agent.act_greedy(&obs), agent.act_greedy_scratch(&obs));
            // Same RNG stream → identical ε-greedy and softmax draws.
            let mut rng_a = StdRng::seed_from_u64(1_000 + i as u64);
            let mut rng_b = rng_a.clone();
            assert_eq!(agent.act(&obs, &mut rng_a), {
                let a = agent.act_scratch(&obs, &mut rng_b);
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "rng diverged");
                a
            });
            let mut rng_c = StdRng::seed_from_u64(2_000 + i as u64);
            let mut rng_d = rng_c.clone();
            assert_eq!(
                agent.act_softmax(&obs, 0.7, &mut rng_c),
                agent.act_softmax_scratch(&obs, 0.7, &mut rng_d)
            );
        }
        // Interleaving inference with training must not disturb either:
        // the inference workspace is separate from the training trace.
        for i in 0..100 {
            let obs = vec![0.1 * (i % 7) as f64; input];
            agent.observe(obs.clone(), i % 4, -1.0, obs, &mut rng);
        }
        let obs = vec![0.3; input];
        assert_eq!(agent.q_values(&obs), agent.q_values_scratch(&obs).to_vec());
    }

    #[test]
    fn epsilon_greedy_explores_and_exploits() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = DqnAgent::new(
            DqnConfig {
                epsilon_end: 0.0,
                ..small_config()
            },
            &mut rng,
        );
        // Force ε to its floor of 0 → always the greedy action.
        agent.steps = 10_000;
        let obs = vec![0.1; agent.config().input_size()];
        let greedy = agent.act_greedy(&obs);
        for _ in 0..50 {
            assert_eq!(agent.act(&obs, &mut rng), greedy);
        }
        // ε = 1 → never stuck on one action.
        agent.steps = 0;
        let seen: std::collections::HashSet<usize> =
            (0..200).map(|_| agent.act(&obs, &mut rng)).collect();
        assert!(seen.len() > 3, "exploration too narrow: {seen:?}");
    }

    #[test]
    fn learns_a_contextual_bandit() {
        // Reward 0 for the action equal to the context tag, −10 otherwise.
        // With γ > 0 and identical next-states the optimal Q still ranks
        // the matching action highest.
        let mut rng = StdRng::seed_from_u64(2);
        let config = small_config();
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        let contexts: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                let mut v = vec![0.0; config.input_size()];
                v[c] = 1.0;
                v
            })
            .collect();
        for step in 0..3_000 {
            let c = step % 4;
            let obs = contexts[c].clone();
            let action = agent.act(&obs, &mut rng);
            let reward = if action == c { 0.0 } else { -10.0 };
            let next = contexts[(c + 1) % 4].clone();
            agent.observe(obs, action, reward, next, &mut rng);
        }
        let mut correct = 0;
        for (c, obs) in contexts.iter().enumerate() {
            if agent.act_greedy(obs) == c {
                correct += 1;
            }
        }
        assert!(correct >= 3, "only {correct}/4 contexts learned");
    }

    #[test]
    fn target_sync_happens_on_schedule() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = small_config();
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        let obs = vec![0.0; config.input_size()];
        for _ in 0..config.target_sync_interval {
            agent.observe(obs.clone(), 0, -1.0, obs.clone(), &mut rng);
        }
        // Right after a sync the two networks agree.
        assert_eq!(agent.online.forward(&obs), agent.target.forward(&obs));
    }

    #[test]
    fn warmup_gates_training() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = small_config();
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        let obs = vec![0.0; config.input_size()];
        for i in 0..config.warmup - 1 {
            let loss = agent.observe(obs.clone(), 0, -1.0, obs.clone(), &mut rng);
            assert!(loss.is_none(), "trained too early at step {i}");
        }
        let loss = agent.observe(obs.clone(), 0, -1.0, obs.clone(), &mut rng);
        assert!(loss.is_some(), "training never started");
        assert!(agent.train_steps() == 1);
    }

    #[test]
    fn softmax_policy_is_randomized_but_value_seeking() {
        let mut rng = StdRng::seed_from_u64(9);
        let agent = DqnAgent::new(small_config(), &mut rng);
        let obs = vec![0.4; agent.config().input_size()];
        // Low temperature concentrates on the greedy action.
        let greedy = agent.act_greedy(&obs);
        let cold: Vec<usize> = (0..100)
            .map(|_| agent.act_softmax(&obs, 1e-4, &mut rng))
            .collect();
        assert!(
            cold.iter().all(|&a| a == greedy),
            "cold softmax must be greedy"
        );
        // High temperature spreads over many actions.
        let hot: std::collections::HashSet<usize> = (0..300)
            .map(|_| agent.act_softmax(&obs, 100.0, &mut rng))
            .collect();
        assert!(hot.len() > 4, "hot softmax too concentrated: {hot:?}");
    }

    #[test]
    #[should_panic]
    fn softmax_rejects_nonpositive_temperature() {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = DqnAgent::new(small_config(), &mut rng);
        let obs = vec![0.0; agent.config().input_size()];
        agent.act_softmax(&obs, 0.0, &mut rng);
    }

    #[test]
    fn double_dqn_also_learns_the_bandit() {
        let mut rng = StdRng::seed_from_u64(6);
        let config = DqnConfig {
            double_dqn: true,
            ..small_config()
        };
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        let contexts: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                let mut v = vec![0.0; config.input_size()];
                v[c] = 1.0;
                v
            })
            .collect();
        for step in 0..3_000 {
            let c = step % 4;
            let obs = contexts[c].clone();
            let action = agent.act(&obs, &mut rng);
            let reward = if action == c { 0.0 } else { -10.0 };
            let next = contexts[(c + 1) % 4].clone();
            agent.observe(obs, action, reward, next, &mut rng);
        }
        let mut correct = 0;
        for (c, obs) in contexts.iter().enumerate() {
            if agent.act_greedy(obs) == c {
                correct += 1;
            }
        }
        assert!(correct >= 3, "double DQN learned only {correct}/4 contexts");
    }

    #[test]
    fn double_dqn_targets_never_exceed_vanilla() {
        // The double estimator is bounded above by the max estimator for
        // the same networks: Q_t(s', argmax Q_o) <= max Q_t(s').
        let mut rng = StdRng::seed_from_u64(7);
        let config = small_config();
        let agent = DqnAgent::new(config.clone(), &mut rng);
        let obs = vec![0.25; config.input_size()];
        let online = agent.online.forward(&obs);
        let target = agent.target.forward(&obs);
        let double = target[argmax(&online)];
        let vanilla = target.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(double <= vanilla + 1e-12);
    }

    #[test]
    fn argmax_is_total_over_nan_and_ties() {
        // NaN behaves like NEG_INFINITY — skipped, no panic.
        assert_eq!(argmax(&[1.0, f64::NAN, 3.0, 2.0]), 2);
        assert_eq!(argmax(&[f64::NAN, 5.0]), 1);
        // All-NaN and empty inputs fall back to index 0.
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), 0);
        assert_eq!(argmax(&[]), 0);
        // Ties resolve to the LAST maximum, matching the previous
        // `max_by(partial_cmp)` behaviour.
        assert_eq!(argmax(&[2.0, 7.0, 7.0, 1.0]), 2);
        assert_eq!(argmax(&[f64::NEG_INFINITY, f64::NEG_INFINITY]), 1);
    }

    #[test]
    fn act_greedy_survives_nan_q_values() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut agent = DqnAgent::new(small_config(), &mut rng);
        // Poison every parameter so the forward pass emits NaN logits.
        let poisoned = vec![f64::NAN; agent.network().param_count()];
        let mut net = agent.network().clone();
        net.set_params(&poisoned);
        agent.load_network(&net);
        let obs = vec![0.5; agent.config().input_size()];
        assert!(agent.q_values(&obs).iter().all(|q| q.is_nan()));
        let action = agent.act_greedy(&obs); // must not panic
        assert!(action < agent.config().num_actions());
    }

    /// Reference implementation of the pre-batching `train_step`: one
    /// per-sample forward per network per transition, per-sample target
    /// assembly, then `Mlp::train_batch`.
    fn reference_train_step<R: Rng + ?Sized>(
        online: &mut Mlp,
        target: &Mlp,
        replay: &crate::replay::ReplayBuffer,
        config: &DqnConfig,
        opt: &mut Adam,
        rng: &mut R,
    ) -> f64 {
        let (loss, grads) = reference_loss_and_gradient(online, target, replay, config, rng);
        let mut params = online.flatten_params();
        opt.step(&mut params, &grads);
        online.set_params(&params);
        loss
    }

    /// The loss and gradient half of [`reference_train_step`]: the
    /// per-sample `Mlp::loss_and_gradient` on targets written into the
    /// online network's own prediction vectors.
    fn reference_loss_and_gradient<R: Rng + ?Sized>(
        online: &Mlp,
        target: &Mlp,
        replay: &crate::replay::ReplayBuffer,
        config: &DqnConfig,
        rng: &mut R,
    ) -> (f64, Vec<f64>) {
        let batch = replay.sample(config.batch_size, rng);
        let mut inputs: Vec<Vec<f64>> = Vec::new();
        let mut targets: Vec<Vec<f64>> = Vec::new();
        for e in &batch {
            let mut target_vec = online.forward(&e.state);
            let next_q = target.forward(&e.next_state);
            let bootstrap = if config.double_dqn {
                let online_next = online.forward(&e.next_state);
                next_q[argmax(&online_next)]
            } else {
                next_q.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            };
            target_vec[e.action] = e.reward + config.gamma * bootstrap;
            inputs.push(e.state.clone());
            targets.push(target_vec);
        }
        let pairs: Vec<(&[f64], &[f64])> = inputs
            .iter()
            .zip(&targets)
            .map(|(i, t)| (i.as_slice(), t.as_slice()))
            .collect();
        online.loss_and_gradient(&pairs)
    }

    /// [`DqnAgent::observe_with_fault`]'s schedule — replay push,
    /// replay corruption, training with the non-finite-gradient guard,
    /// target sync — on [`reference_loss_and_gradient`], with no
    /// bootstrap memo.
    struct ReferenceAgent {
        config: DqnConfig,
        online: Mlp,
        target: Mlp,
        optimizer: Adam,
        replay: ReplayBuffer,
        steps: usize,
        skipped_train_steps: usize,
        last_loss: Option<f64>,
    }

    impl ReferenceAgent {
        fn new(agent: &DqnAgent) -> Self {
            let config = agent.config().clone();
            ReferenceAgent {
                online: agent.network().clone(),
                target: agent.target_network().clone(),
                optimizer: Adam::with_learning_rate(config.learning_rate),
                replay: ReplayBuffer::new(config.replay_capacity),
                steps: 0,
                skipped_train_steps: 0,
                last_loss: None,
                config,
            }
        }

        fn observe<R: Rng + ?Sized, F: FaultPoint>(
            &mut self,
            experience: Experience,
            rng: &mut R,
            fault: &mut F,
        ) -> Option<f64> {
            self.replay.push(experience);
            self.steps += 1;
            let mut loss = None;
            if self.replay.len() >= self.config.warmup
                && self.steps.is_multiple_of(self.config.train_interval)
            {
                if fault.should_fire(FaultSite::ReplayCorruption) {
                    let index = fault.pick_index(FaultSite::ReplayCorruption, self.replay.len());
                    let value = fault.poison(FaultSite::ReplayCorruption);
                    self.replay.corrupt_at(index, value);
                }
                let (step_loss, mut grads) = reference_loss_and_gradient(
                    &self.online,
                    &self.target,
                    &self.replay,
                    &self.config,
                    rng,
                );
                if fault.should_fire(FaultSite::GradientPoison) {
                    let index = fault.pick_index(FaultSite::GradientPoison, grads.len());
                    grads[index] = fault.poison(FaultSite::GradientPoison);
                }
                if grads.iter().all(|g| g.is_finite()) {
                    let mut params = self.online.flatten_params();
                    self.optimizer.step(&mut params, &grads);
                    self.online.set_params(&params);
                } else {
                    self.skipped_train_steps += 1;
                }
                self.last_loss = Some(step_loss);
                loss = Some(step_loss);
            }
            if self.steps.is_multiple_of(self.config.target_sync_interval) {
                self.target.copy_weights_from(&self.online);
            }
            loss
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// FNV-1a of the checkpoints of the agent below after 260 and after
    /// all 400 observations, as encoded by the train step before the
    /// bootstrap memo and the gather-form gradient existed: the memo is
    /// derived state and must not reach the checkpoint, and the run must
    /// not move a bit.
    const MID_WINDOW_CHECKPOINT_FNV: u64 = 7_960_956_261_912_146_255;
    const FINAL_CHECKPOINT_FNV: u64 = 10_896_609_203_614_093_342;

    #[test]
    fn bootstrap_memo_is_invisible_across_syncs_wraps_faults_reloads_and_restores() {
        use crate::checkpoint::{decode_agent, encode_agent};
        use ctjam_fault::{FaultPlan, FaultRates};

        let config = DqnConfig {
            replay_capacity: 48,
            target_sync_interval: 25,
            warmup: 20,
            ..small_config()
        };
        let input = config.input_size();
        let mut rng = StdRng::seed_from_u64(51);
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        let mut reference = ReferenceAgent::new(&agent);
        let mut ref_rng = rng.clone();
        let rates = FaultRates::zero().with(FaultSite::ReplayCorruption, 0.05);
        let mut plan = FaultPlan::new(9, rates);
        let mut ref_plan = FaultPlan::new(9, rates);
        let donor = DqnAgent::new(config.clone(), &mut StdRng::seed_from_u64(52));
        let observation = |i: usize| -> Vec<f64> {
            (0..input)
                .map(|j| ((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.4)
                .collect()
        };
        for i in 0..400 {
            if i == 130 {
                agent.load_network(donor.network());
                reference.online.copy_weights_from(donor.network());
                reference.target.copy_weights_from(donor.network());
            }
            if i == 260 {
                // Mid sync window (260 % 25 == 10), with memoised slots.
                assert!((0..agent.replay_len()).any(|s| !agent.replay.bootstrap(s).is_nan()));
                let mut bytes = Vec::new();
                encode_agent(&agent, &mut bytes);
                let memo_free = DqnAgent::from_parts(
                    agent.config().clone(),
                    agent.network().clone(),
                    agent.target_network().clone(),
                    agent.optimizer().clone(),
                    ReplayBuffer::restore(
                        agent.replay().capacity(),
                        agent.replay().items().to_vec(),
                        agent.replay().write_index(),
                    ),
                    agent.steps(),
                    agent.train_steps(),
                    agent.skipped_train_steps(),
                    agent.last_loss(),
                );
                let mut memo_free_bytes = Vec::new();
                encode_agent(&memo_free, &mut memo_free_bytes);
                assert_eq!(bytes, memo_free_bytes, "the memo reached the checkpoint");
                assert_eq!(fnv1a(&bytes), MID_WINDOW_CHECKPOINT_FNV);
                agent = decode_agent(&mut &bytes[..]).expect("checkpoint decodes");
            }
            let (state, next) = (observation(i), observation(i + 1));
            let action = (i * 5) % config.num_actions();
            let reward = -((i % 9) as f64);
            let a = agent.observe_with_fault(
                state.clone(),
                action,
                reward,
                next.clone(),
                &mut rng,
                &mut plan,
            );
            let b = reference.observe(
                Experience {
                    state,
                    action,
                    reward,
                    next_state: next,
                },
                &mut ref_rng,
                &mut ref_plan,
            );
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "loss at step {i}");
        }
        assert!(plan.fired(FaultSite::ReplayCorruption) > 0);
        assert!(agent.skipped_train_steps() > 0);
        assert_eq!(agent.skipped_train_steps(), reference.skipped_train_steps);
        assert_eq!(
            agent.last_loss().map(f64::to_bits),
            reference.last_loss.map(f64::to_bits)
        );
        assert_eq!(
            bits(&agent.network().flatten_params()),
            bits(&reference.online.flatten_params())
        );
        assert_eq!(
            bits(&agent.target_network().flatten_params()),
            bits(&reference.target.flatten_params())
        );
        let (opt, ref_opt) = (agent.optimizer(), &reference.optimizer);
        assert_eq!(opt.step_count(), ref_opt.step_count());
        assert_eq!(bits(opt.first_moment()), bits(ref_opt.first_moment()));
        assert_eq!(bits(opt.second_moment()), bits(ref_opt.second_moment()));
        assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>());
        let mut bytes = Vec::new();
        encode_agent(&agent, &mut bytes);
        assert_eq!(fnv1a(&bytes), FINAL_CHECKPOINT_FNV);
    }

    fn assert_batched_train_step_matches_reference(double_dqn: bool) {
        let mut rng = StdRng::seed_from_u64(21);
        let config = DqnConfig {
            double_dqn,
            warmup: 10_000, // gate automatic training off while filling
            ..small_config()
        };
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        for i in 0..200 {
            let mut state = vec![0.0; config.input_size()];
            state[i % config.input_size()] = (i as f64).sin();
            let mut next = vec![0.0; config.input_size()];
            next[(i + 1) % config.input_size()] = (i as f64).cos();
            agent.observe(
                state,
                i % config.num_actions(),
                -(i as f64 % 7.0),
                next,
                &mut rng,
            );
        }
        // Drive the reference path with a clone of everything, including
        // the RNG, so both draw the same minibatch.
        let mut reference = agent.network().clone();
        let target = agent.target_network().clone();
        let mut opt = Adam::with_learning_rate(config.learning_rate);
        let mut ref_rng = rng.clone();
        let ref_loss = reference_train_step(
            &mut reference,
            &target,
            agent.replay(),
            &config,
            &mut opt,
            &mut ref_rng,
        );
        let loss = agent.train_step(&mut rng);
        assert_eq!(loss, ref_loss, "batched loss deviates from per-sample");
        assert_eq!(
            agent.network().flatten_params(),
            reference.flatten_params(),
            "batched weight update deviates from per-sample"
        );
    }

    #[test]
    fn batched_train_step_is_bit_exact_with_per_sample() {
        assert_batched_train_step_matches_reference(false);
    }

    #[test]
    fn double_dqn_batched_target_selection_is_unchanged() {
        assert_batched_train_step_matches_reference(true);
    }

    #[test]
    fn zero_rate_faulted_training_is_bit_exact_with_plain() {
        use ctjam_fault::{FaultPlan, FaultRates};

        let config = small_config();
        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = rng_a.clone();
        let mut plain = DqnAgent::new(config.clone(), &mut rng_a);
        let mut faulted = DqnAgent::new(config.clone(), &mut rng_b);
        let mut plan = FaultPlan::new(77, FaultRates::zero());
        for i in 0..200 {
            let mut state = vec![0.0; config.input_size()];
            state[i % config.input_size()] = (i as f64).sin();
            let next = state.clone();
            let a = plain.observe(state.clone(), i % 4, -1.0, next.clone(), &mut rng_a);
            let b = faulted.observe_with_fault(state, i % 4, -1.0, next, &mut rng_b, &mut plan);
            assert_eq!(a, b, "loss diverged at step {i}");
        }
        assert_eq!(
            plain.network().flatten_params(),
            faulted.network().flatten_params()
        );
        assert_eq!(faulted.skipped_train_steps(), 0);
        assert_eq!(plan.total_fired(), 0);
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn poisoned_gradient_skips_the_optimizer_step() {
        use ctjam_fault::{FaultPlan, FaultRates};

        let config = small_config();
        let mut rng = StdRng::seed_from_u64(33);
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        let obs = vec![0.3; config.input_size()];
        for i in 0..config.warmup {
            agent.observe(obs.clone(), i % 4, -1.0, obs.clone(), &mut rng);
        }
        let before = agent.network().flatten_params();
        let step_before = agent.optimizer().step_count();
        let mut plan = FaultPlan::new(1, FaultRates::zero().with(FaultSite::GradientPoison, 1.0));
        agent.train_step_with_fault(&mut rng, &mut plan);
        // Weights and Adam state must be exactly what they were.
        assert_eq!(agent.network().flatten_params(), before);
        assert_eq!(agent.optimizer().step_count(), step_before);
        assert_eq!(agent.skipped_train_steps(), 1);
        assert_eq!(plan.fired(FaultSite::GradientPoison), 1);
    }

    #[test]
    fn corrupted_replay_never_destroys_the_network() {
        use ctjam_fault::{FaultPlan, FaultRates};

        let config = small_config();
        let mut rng = StdRng::seed_from_u64(34);
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        let mut plan = FaultPlan::new(2, FaultRates::zero().with(FaultSite::ReplayCorruption, 0.5));
        let obs = vec![0.1; config.input_size()];
        for i in 0..300 {
            agent.observe_with_fault(obs.clone(), i % 4, -2.0, obs.clone(), &mut rng, &mut plan);
        }
        assert!(plan.fired(FaultSite::ReplayCorruption) > 0);
        // NaN-tainted minibatches skipped their updates...
        assert!(agent.skipped_train_steps() > 0);
        // ...so the surviving weights stay finite.
        assert!(agent
            .network()
            .flatten_params()
            .iter()
            .all(|p| p.is_finite()));
    }

    #[test]
    fn from_parts_reproduces_training_bit_exactly() {
        let config = small_config();
        let mut rng = StdRng::seed_from_u64(35);
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        let obs = vec![0.2; config.input_size()];
        for i in 0..100 {
            agent.observe(obs.clone(), i % 4, -1.0, obs.clone(), &mut rng);
        }
        let mut resumed = DqnAgent::from_parts(
            agent.config().clone(),
            agent.network().clone(),
            agent.target_network().clone(),
            agent.optimizer().clone(),
            ReplayBuffer::restore(
                agent.replay().capacity(),
                agent.replay().items().to_vec(),
                agent.replay().write_index(),
            ),
            agent.steps(),
            agent.train_steps(),
            agent.skipped_train_steps(),
            agent.last_loss(),
        );
        let mut rng2 = rng.clone();
        for i in 0..50 {
            let a = agent.observe(obs.clone(), i % 4, -1.0, obs.clone(), &mut rng);
            let b = resumed.observe(obs.clone(), i % 4, -1.0, obs.clone(), &mut rng2);
            assert_eq!(a, b, "loss diverged at resumed step {i}");
        }
        assert_eq!(
            agent.network().flatten_params(),
            resumed.network().flatten_params()
        );
        assert_eq!(agent.steps(), resumed.steps());
        assert_eq!(agent.train_steps(), resumed.train_steps());
    }

    #[test]
    fn load_network_overrides_both_nets() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = small_config();
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        let donor = DqnAgent::new(config.clone(), &mut rng);
        agent.load_network(donor.network());
        let obs = vec![0.5; config.input_size()];
        assert_eq!(agent.online.forward(&obs), donor.online.forward(&obs));
        assert_eq!(agent.target.forward(&obs), donor.online.forward(&obs));
    }
}
