//! Allocation gate for the DQN train step: once the replay buffer has
//! stopped growing and the training scratch has seen its largest
//! shapes, `DqnAgent::train_step` makes no heap allocation — under
//! vanilla targets (bootstrap memo hits and misses), double DQN, and
//! `train_step_with_fault` under an enabled zero-rate fault plan.
//!
//! Allocation counts are deterministic where wall time is not, so this
//! is the train step's hard performance gate. The counter is per thread
//! so the test harness's own threads cannot disturb it.

use ctjam_dqn::agent::DqnAgent;
use ctjam_dqn::config::DqnConfig;
use ctjam_fault::{FaultPlan, FaultPoint, FaultRates};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting allocations per thread.
struct Counting;

thread_local! {
    // `const` initialisation and no destructor: touching this from
    // inside the allocator never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; counting
// touches only a const-initialised thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by `train_step` over 300 steady-state steps, with a
/// target sync (outside the count) every 20 steps so memo misses recur.
/// With `faulted`, the steps run through `train_step_with_fault` under
/// an enabled plan whose rates are all zero, so the fault path's
/// gradient checks run on every step.
fn steady_state_train_step_allocations(double_dqn: bool, faulted: bool) -> u64 {
    let config = DqnConfig {
        replay_capacity: 500,
        warmup: 64,
        double_dqn,
        ..DqnConfig::default()
    };
    let input = config.input_size();
    let mut rng = StdRng::seed_from_u64(7);
    let mut agent = DqnAgent::new(config.clone(), &mut rng);
    for i in 0..config.replay_capacity {
        let state: Vec<f64> = (0..input).map(|j| ((i + j) % 5) as f64 * 0.2).collect();
        let next: Vec<f64> = (0..input).map(|j| ((i + j + 1) % 5) as f64 * 0.2).collect();
        let action = i % config.num_actions();
        agent.observe(state, action, -((i % 3) as f64), next, &mut rng);
    }
    assert_eq!(agent.replay_len(), config.replay_capacity);
    // Warm-up: right after a sync every sampled bootstrap misses, so the
    // scratch reaches its largest shapes here.
    let mut plan = FaultPlan::new(3, FaultRates::zero());
    let mut train_step = |agent: &mut DqnAgent, rng: &mut StdRng| {
        if faulted {
            agent.train_step_with_fault(rng, &mut plan);
        } else {
            agent.train_step(rng);
        }
    };
    agent.sync_target();
    train_step(&mut agent, &mut rng);
    train_step(&mut agent, &mut rng);

    let mut counted = 0;
    for step in 0..300 {
        if step % 20 == 0 {
            agent.sync_target();
        }
        let before = allocations();
        train_step(&mut agent, &mut rng);
        counted += allocations() - before;
    }
    assert_eq!(plan.total_fired(), 0);
    counted
}

#[test]
fn steady_state_train_step_does_not_allocate() {
    // Sanity: the counter sees allocations on this thread.
    let before = allocations();
    let probe = std::hint::black_box(vec![1u8; 64]);
    assert!(allocations() > before, "counting allocator not installed");
    drop(probe);

    assert_eq!(
        steady_state_train_step_allocations(false, false),
        0,
        "vanilla DQN"
    );
    assert_eq!(
        steady_state_train_step_allocations(true, false),
        0,
        "double DQN"
    );
    assert_eq!(
        steady_state_train_step_allocations(false, true),
        0,
        "vanilla DQN under a zero-rate fault plan"
    );
}
