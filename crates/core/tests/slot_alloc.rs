//! Allocation gates for the evaluation slot loops: once warmed up, a
//! frozen DQN defender makes no heap allocation per slot, neither on the
//! slot-level `CompetitionEnv` nor through a `FieldExperiment` Tx slot,
//! which also runs the star network's packet loop (a few hundred data
//! frames per 3 s slot).
//!
//! Allocation counts are deterministic where wall time is not, so these
//! are the slot loops' hard performance gates. The counter is per thread
//! so the test harness's own threads cannot disturb it.

use ctjam_core::defender::{Defender, DqnDefender};
use ctjam_core::env::{CompetitionEnv, EnvParams};
use ctjam_core::field::{FieldConfig, FieldExperiment};
use ctjam_core::runner::RunBuilder;
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

/// A paper-default DQN defender, briefly trained, then frozen.
fn frozen_dqn(env: &EnvParams, rng: &mut StdRng) -> DqnDefender {
    let mut defender = DqnDefender::paper_default(env, rng);
    RunBuilder::new(env).train(&mut defender, 500, rng);
    defender.set_training(false);
    defender
}

fn assert_counter_installed() {
    let before = allocations();
    let probe = std::hint::black_box(vec![1u8; 64]);
    assert!(allocations() > before, "counting allocator not installed");
    drop(probe);
}

#[test]
fn frozen_dqn_competition_slot_does_not_allocate() {
    assert_counter_installed();
    let env = EnvParams::default();
    let mut rng = StdRng::seed_from_u64(11);
    let mut defender = frozen_dqn(&env, &mut rng);
    let mut world = CompetitionEnv::new(env, &mut rng);
    let mut slot = |rng: &mut StdRng| {
        let decision = defender.decide(rng);
        let result = world.step(decision, rng);
        defender.feedback(&result, rng);
    };
    for _ in 0..50 {
        slot(&mut rng);
    }

    let slots = 500;
    let before = allocations();
    for _ in 0..slots {
        slot(&mut rng);
    }
    assert_eq!(allocations() - before, 0, "allocations over {slots} slots");
}

#[test]
fn frozen_dqn_field_tx_slot_does_not_allocate() {
    assert_counter_installed();
    let config = FieldConfig::default();
    let mut rng = StdRng::seed_from_u64(12);
    let defender = frozen_dqn(&config.env, &mut rng);
    let mut exp = FieldExperiment::new(config, defender, &mut rng);
    // Warm-up: the star network's reusable frame and CCA scratch grow
    // to their steady-state sizes in the first slot.
    exp.run(5, &mut rng);

    let slots = 40;
    let before = allocations();
    let report = exp.run(slots, &mut rng);
    let counted = allocations() - before;
    assert!(
        report.goodput.packets_per_slot() > 100.0,
        "the slots carried too few packets to exercise the loop"
    );
    assert_eq!(counted, 0, "allocations over {slots} Tx slots");
}
