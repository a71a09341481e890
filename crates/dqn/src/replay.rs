//! Experience replay buffer.

use ctjam_nn::batch::Batch;
use rand::Rng;

/// One transition `(s, a, r, s′)` of the continuing anti-jamming task
/// (no terminal states — the competition never ends).
#[derive(Debug, Clone, PartialEq)]
pub struct Experience {
    /// Observation before acting.
    pub state: Vec<f64>,
    /// Action index taken.
    pub action: usize,
    /// Immediate reward.
    pub reward: f64,
    /// Observation after the environment stepped.
    pub next_state: Vec<f64>,
}

/// A fixed-capacity ring buffer of experiences with uniform sampling.
///
/// # Example
///
/// ```
/// use ctjam_dqn::replay::{Experience, ReplayBuffer};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut buf = ReplayBuffer::new(100);
/// buf.push(Experience { state: vec![0.0], action: 1, reward: -5.0, next_state: vec![1.0] });
/// let mut rng = StdRng::seed_from_u64(0);
/// let batch = buf.sample(1, &mut rng);
/// assert_eq!(batch[0].action, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    items: Vec<Experience>,
    write: usize,
    /// Per-slot memo of the training step's bootstrap
    /// `max_a′ Q_target(s′, a′)`, `NaN` meaning "not computed". Derived
    /// state: never checkpointed, cleared whenever a slot's `next_state`
    /// changes, and cleared wholesale by the agent whenever the target
    /// network changes.
    bootstraps: Vec<f64>,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` experiences.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            capacity,
            items: Vec::with_capacity(capacity.min(4096)),
            write: 0,
            bootstraps: Vec::with_capacity(capacity.min(4096)),
        }
    }

    /// Maximum number of stored experiences.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored experiences.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The stored experiences in internal (ring) order — checkpointing
    /// and diagnostics; sampling does not depend on this order.
    pub fn items(&self) -> &[Experience] {
        &self.items
    }

    /// The ring-buffer write cursor (next overwrite position).
    pub fn write_index(&self) -> usize {
        self.write
    }

    /// Rebuilds a buffer from checkpointed state.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `items.len() > capacity`, or the write
    /// cursor is out of range.
    pub fn restore(capacity: usize, items: Vec<Experience>, write: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        assert!(items.len() <= capacity, "more items than capacity");
        assert!(write < capacity, "write cursor out of range");
        let bootstraps = vec![f64::NAN; items.len()];
        ReplayBuffer {
            capacity,
            items,
            write,
            bootstraps,
        }
    }

    /// Overwrites every scalar of the transition at `index` with
    /// `value` — fault injection's replay-corruption hook
    /// (`FaultSite::ReplayCorruption`). Returns `false` when the index
    /// is out of range.
    pub fn corrupt_at(&mut self, index: usize, value: f64) -> bool {
        let Some(e) = self.items.get_mut(index) else {
            return false;
        };
        e.state.fill(value);
        e.next_state.fill(value);
        e.reward = value;
        self.bootstraps[index] = f64::NAN;
        true
    }

    /// Inserts an experience, overwriting the oldest once full.
    pub fn push(&mut self, experience: Experience) {
        if self.items.len() < self.capacity {
            self.items.push(experience);
            self.bootstraps.push(f64::NAN);
        } else {
            self.items[self.write] = experience;
            self.bootstraps[self.write] = f64::NAN;
        }
        self.write = (self.write + 1) % self.capacity;
    }

    /// The memoised bootstrap of `slot`, or `NaN` if none is stored.
    pub(crate) fn bootstrap(&self, slot: usize) -> f64 {
        self.bootstraps[slot]
    }

    /// Stores the bootstrap of `slot` under the current target network.
    pub(crate) fn memoise_bootstrap(&mut self, slot: usize, value: f64) {
        self.bootstraps[slot] = value;
    }

    /// Forgets every memoised bootstrap (the target network changed).
    pub(crate) fn forget_bootstraps(&mut self) {
        self.bootstraps.fill(f64::NAN);
    }

    /// Samples `batch` experiences uniformly with replacement.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn sample<'a, R: Rng + ?Sized>(&'a self, batch: usize, rng: &mut R) -> Vec<&'a Experience> {
        assert!(
            !self.items.is_empty(),
            "cannot sample an empty replay buffer"
        );
        (0..batch)
            .map(|_| &self.items[rng.gen_range(0..self.items.len())])
            .collect()
    }

    /// Samples `batch` experiences uniformly with replacement directly
    /// into packed, reusable buffers (the batched training path's
    /// zero-allocation counterpart of [`ReplayBuffer::sample`]).
    ///
    /// Draws exactly the same RNG sequence as `sample`, so a seeded run
    /// picks identical transitions whichever entry point it uses.
    /// `slots` receives the index (into [`ReplayBuffer::items`]) of each
    /// drawn transition.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    #[allow(clippy::too_many_arguments)] // one output buffer per field
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        batch: usize,
        states: &mut Batch,
        actions: &mut Vec<usize>,
        rewards: &mut Vec<f64>,
        next_states: &mut Batch,
        slots: &mut Vec<usize>,
        rng: &mut R,
    ) {
        assert!(
            !self.items.is_empty(),
            "cannot sample an empty replay buffer"
        );
        states.reset(self.items[0].state.len());
        next_states.reset(self.items[0].next_state.len());
        actions.clear();
        rewards.clear();
        slots.clear();
        for _ in 0..batch {
            let slot = rng.gen_range(0..self.items.len());
            let e = &self.items[slot];
            slots.push(slot);
            states.push_row(&e.state);
            actions.push(e.action);
            rewards.push(e.reward);
            next_states.push_row(&e.next_state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exp(tag: f64) -> Experience {
        Experience {
            state: vec![tag],
            action: 0,
            reward: tag,
            next_state: vec![tag + 1.0],
        }
    }

    #[test]
    fn fills_then_wraps() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(exp(i as f64));
        }
        assert_eq!(buf.len(), 3);
        // Items 0 and 1 were overwritten by 3 and 4.
        let rewards: Vec<f64> = buf.items.iter().map(|e| e.reward).collect();
        assert!(rewards.contains(&2.0));
        assert!(rewards.contains(&3.0));
        assert!(rewards.contains(&4.0));
        assert!(!rewards.contains(&0.0));
    }

    #[test]
    fn sampling_covers_contents() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..10 {
            buf.push(exp(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let seen: std::collections::HashSet<i64> = buf
            .sample(500, &mut rng)
            .iter()
            .map(|e| e.reward as i64)
            .collect();
        assert_eq!(seen.len(), 10, "uniform sampling should hit everything");
    }

    #[test]
    fn sample_into_draws_the_same_transitions_as_sample() {
        let mut buf = ReplayBuffer::new(32);
        for i in 0..20 {
            buf.push(Experience {
                state: vec![i as f64, -(i as f64)],
                action: i % 5,
                reward: i as f64 * 0.5,
                next_state: vec![i as f64 + 1.0, 0.0],
            });
        }
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = rng_a.clone();
        let reference = buf.sample(12, &mut rng_a);

        let mut states = Batch::default();
        let mut next_states = Batch::default();
        let mut actions = Vec::new();
        let mut rewards = Vec::new();
        let mut slots = Vec::new();
        buf.sample_into(
            12,
            &mut states,
            &mut actions,
            &mut rewards,
            &mut next_states,
            &mut slots,
            &mut rng_b,
        );
        assert_eq!(states.rows(), 12);
        for (s, e) in reference.iter().enumerate() {
            assert_eq!(&buf.items()[slots[s]], *e);
            assert_eq!(states.row(s), &e.state[..]);
            assert_eq!(actions[s], e.action);
            assert_eq!(rewards[s], e.reward);
            assert_eq!(next_states.row(s), &e.next_state[..]);
        }
        // Both RNGs advanced identically.
        assert_eq!(rng_a.gen_range(0..u32::MAX), rng_b.gen_range(0..u32::MAX));
    }

    #[test]
    fn restore_reproduces_the_buffer() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(exp(i as f64));
        }
        let copy = ReplayBuffer::restore(buf.capacity(), buf.items().to_vec(), buf.write_index());
        assert_eq!(copy.items(), buf.items());
        assert_eq!(copy.write_index(), buf.write_index());
        // Sampling draws identically from original and restored buffers.
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = rng_a.clone();
        let a: Vec<f64> = buf.sample(8, &mut rng_a).iter().map(|e| e.reward).collect();
        let b: Vec<f64> = copy
            .sample(8, &mut rng_b)
            .iter()
            .map(|e| e.reward)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_at_poisons_one_transition() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..4 {
            buf.push(exp(i as f64));
        }
        buf.memoise_bootstrap(2, -1.5);
        buf.memoise_bootstrap(1, -2.5);
        assert!(buf.corrupt_at(2, f64::NAN));
        assert!(buf.bootstrap(2).is_nan(), "corruption forgets the memo");
        assert_eq!(buf.bootstrap(1), -2.5);
        assert!(buf.items()[2].reward.is_nan());
        assert!(buf.items()[2].state.iter().all(|v| v.is_nan()));
        // Neighbours untouched.
        assert_eq!(buf.items()[1].reward, 1.0);
        assert!(!buf.corrupt_at(99, 0.0));
    }

    #[test]
    fn overwriting_a_slot_forgets_only_its_bootstrap() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..3 {
            buf.push(exp(i as f64));
            assert!(buf.bootstrap(i).is_nan(), "a new slot starts empty");
            buf.memoise_bootstrap(i, i as f64);
        }
        buf.push(exp(3.0));
        assert!(buf.bootstrap(0).is_nan());
        assert_eq!((buf.bootstrap(1), buf.bootstrap(2)), (1.0, 2.0));
        buf.forget_bootstraps();
        assert!((0..3).all(|i| buf.bootstrap(i).is_nan()));
        let restored =
            ReplayBuffer::restore(buf.capacity(), buf.items().to_vec(), buf.write_index());
        assert!((0..3).all(|i| restored.bootstrap(i).is_nan()));
    }

    #[test]
    #[should_panic]
    fn empty_sample_panics() {
        let buf = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        buf.sample(1, &mut rng);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        ReplayBuffer::new(0);
    }
}
