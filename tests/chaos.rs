//! Chaos/property harness for the fault-injection subsystem
//! (`ctjam-fault`): drives the full net + training stacks under seeded
//! fault schedules and asserts the three contracts every fault site must
//! honour:
//!
//! 1. **No panics, ever** — any mix of faults at any rate may degrade a
//!    run, never kill it (and recovery must keep the learner's weights
//!    finite).
//! 2. **Zero probability ⇒ bit-exact** — an attached plan whose rates
//!    are all zero reproduces the fault-free run exactly, RNG stream
//!    included. Fault injection costs nothing when it does nothing.
//! 3. **Replayability** — a failing `(seed, rates)` pair is the complete
//!    reproduction recipe: rebuilding the plan from its seed replays the
//!    identical schedule.
//!
//! The quick matrix below stays within the CI smoke budget; the
//! extended sweep is `#[ignore]`d and opts in via `--ignored`
//! (`CTJAM_CHAOS_SLOTS` scales its per-run depth).

use ctjam_core::defender::{DqnDefender, RandomFh};
use ctjam_core::env::{CompetitionEnv, EnvParams};
use ctjam_core::runner::RunBuilder;
use ctjam_fault::{FaultPlan, FaultPoint, FaultRates, FaultSite, RetryPolicy};
use ctjam_net::star::StarNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The fault mixes of the quick matrix: a light uniform drizzle, a heavy
/// uniform storm, and every site individually at certainty (the rate
/// that flushes out any "this can never happen twice in a row"
/// assumption in a recovery path).
fn fault_mixes() -> Vec<(String, FaultRates)> {
    let mut mixes = vec![
        ("uniform_0.05".to_string(), FaultRates::uniform(0.05)),
        ("uniform_0.5".to_string(), FaultRates::uniform(0.5)),
    ];
    for site in FaultSite::ALL {
        mixes.push((
            format!("only_{}", site.name()),
            FaultRates::zero().with(site, 1.0),
        ));
    }
    mixes
}

/// Contract 1: the seed × mix matrix must complete without panics, with
/// sane metrics and finite network weights, no matter what fired.
#[test]
fn fault_matrix_never_panics_and_keeps_weights_finite() {
    let params = EnvParams::default();
    let slots = 400;
    for seed in [1u64, 0xDEAD_BEEF, 42] {
        for (label, rates) in fault_mixes() {
            let mut r = rng(seed);
            let mut defender = DqnDefender::small_for_tests(&params, &mut r);
            let mut plan = FaultPlan::new(seed ^ 0x5EED, rates);
            let report =
                RunBuilder::new(&params)
                    .fault_plan(&mut plan)
                    .train(&mut defender, slots, &mut r);
            assert_eq!(
                report.metrics.slots(),
                slots as u64,
                "run under {label} (seed {seed}) lost slots"
            );
            assert!(
                report.total_reward.is_finite(),
                "non-finite reward under {label} (seed {seed})"
            );
            assert!(
                defender
                    .agent()
                    .network()
                    .flatten_params()
                    .iter()
                    .all(|w| w.is_finite()),
                "poisoned weights survived recovery under {label} (seed {seed})"
            );
            if !rates_are_zero(&report, &plan) {
                assert_eq!(
                    report.health.faults_fired,
                    plan.fired_counts().iter().sum::<u64>(),
                    "health accounting disagrees with the plan under {label}"
                );
            }
        }
    }
}

fn rates_are_zero(report: &ctjam_core::runner::EpisodeReport, plan: &FaultPlan) -> bool {
    report.health.is_clean() && plan.total_fired() == 0
}

/// Contract 2 at the runner level: a zero-rate plan is bit-exact with
/// the fault-free path — report, health, and the main RNG stream.
#[test]
fn zero_probability_faults_are_bit_exact_with_the_fault_free_run() {
    let params = EnvParams::default();
    for seed in [3u64, 0xCAFE] {
        let mut r1 = rng(seed);
        let mut d1 = DqnDefender::small_for_tests(&params, &mut r1);
        let plain = RunBuilder::new(&params).train(&mut d1, 600, &mut r1);

        let mut r2 = rng(seed);
        let mut d2 = DqnDefender::small_for_tests(&params, &mut r2);
        let mut plan = FaultPlan::new(seed, FaultRates::zero());
        let faulted = RunBuilder::new(&params)
            .fault_plan(&mut plan)
            .train(&mut d2, 600, &mut r2);

        assert_eq!(
            plain, faulted,
            "zero-rate plan changed the run (seed {seed})"
        );
        assert!(faulted.health.is_clean());
        assert_eq!(plan.total_fired(), 0);
        assert_eq!(
            r1.gen::<u64>(),
            r2.gen::<u64>(),
            "main RNG streams diverged (seed {seed})"
        );
    }
}

/// Contract 3: a `(seed, rates)` pair rebuilt from scratch replays the
/// identical faulted run — the chaos harness's failure-reproduction
/// recipe.
#[test]
fn a_faulted_run_replays_bit_exactly_from_its_seed() {
    let params = EnvParams::default();
    let rates = FaultRates::uniform(0.1);
    let run = |plan_seed: u64| {
        let mut r = rng(77);
        let mut defender = DqnDefender::small_for_tests(&params, &mut r);
        let mut plan = FaultPlan::new(plan_seed, rates);
        let report =
            RunBuilder::new(&params)
                .fault_plan(&mut plan)
                .train(&mut defender, 500, &mut r);
        (report, plan.fired_counts())
    };
    let (first, fired_first) = run(0xFA17);
    let (second, fired_second) = run(0xFA17);
    assert_eq!(first, second, "same plan seed must replay the same run");
    assert_eq!(fired_first, fired_second);
    assert!(first.health.faults_fired > 0, "the 10% mix should fire");
}

/// Network-stack property: goodput under frame corruption degrades
/// monotonically **in expectation** as the corruption rate rises. Mean
/// delivery over a bundle of seeds must be non-increasing across
/// escalating rates (per-seed wiggle is expected; the mean must not be).
#[test]
fn goodput_degrades_monotonically_in_expectation_with_corruption_rate() {
    let retry = RetryPolicy::default();
    let rates = [0.0, 0.4, 0.9];
    let mut mean_delivered = Vec::new();
    for &rate in &rates {
        let mut total = 0u64;
        for seed in 0..8u64 {
            let mut net = StarNetwork::new(4);
            let mut r = rng(1000 + seed);
            let mut plan = FaultPlan::new(
                seed,
                FaultRates::zero().with(FaultSite::FrameCorruption, rate),
            );
            for _ in 0..12 {
                total += net
                    .run_slot_with_faults(2.0, true, 0.05, &retry, &mut r, &mut plan)
                    .outcome
                    .delivered;
            }
        }
        mean_delivered.push(total as f64 / 8.0);
    }
    assert!(
        mean_delivered[0] >= mean_delivered[1] && mean_delivered[1] >= mean_delivered[2],
        "mean goodput must not rise with the corruption rate: {mean_delivered:?}"
    );
    assert!(
        mean_delivered[0] > mean_delivered[2],
        "certain corruption must actually hurt: {mean_delivered:?}"
    );
}

/// The checkpoint/resume contract end to end: a DQN training run killed
/// at slot `N` and resumed from its checkpoint reproduces the
/// uninterrupted run's metrics bit-exactly (the caller owns the RNG, so
/// the persistent env + RNG pair carries across the kill).
#[test]
fn killed_and_resumed_dqn_run_reproduces_uninterrupted_metrics() {
    let params = EnvParams::default();
    let (head_slots, tail_slots) = (400, 300);

    // Uninterrupted reference.
    let mut r = rng(0xFEED);
    let mut d = DqnDefender::small_for_tests(&params, &mut r);
    let mut env = CompetitionEnv::new(params.clone(), &mut r);
    let head = RunBuilder::new(&params).run_in(&mut env, &mut d, head_slots, &mut r);
    let tail = RunBuilder::new(&params).run_in(&mut env, &mut d, tail_slots, &mut r);

    // Killed at `head_slots`, resumed from the checkpoint file.
    let mut r2 = rng(0xFEED);
    let mut d2 = DqnDefender::small_for_tests(&params, &mut r2);
    let mut env2 = CompetitionEnv::new(params.clone(), &mut r2);
    let head2 = RunBuilder::new(&params).run_in(&mut env2, &mut d2, head_slots, &mut r2);
    assert_eq!(head, head2, "pre-kill halves must already agree");
    let path = std::env::temp_dir().join("ctjam_chaos_resume.ckpt");
    d2.save_checkpoint(&path).expect("checkpoint write");
    drop(d2); // the "kill"
    let mut resumed = DqnDefender::load_checkpoint(&path).expect("checkpoint read");
    std::fs::remove_file(&path).ok();
    let tail2 = RunBuilder::new(&params).run_in(&mut env2, &mut resumed, tail_slots, &mut r2);
    assert_eq!(
        tail, tail2,
        "resumed run diverged from the uninterrupted reference"
    );
}

/// Contract 1 at fleet scale: a faulted campaign spread across an
/// oversubscribed shard pool may degrade episodes, never kill the pool.
/// Covers a frozen-policy campaign under the light drizzle, the
/// every-slot deadline-overrun mix, and a (small) training campaign
/// under the drizzle — the three fault regimes with distinct recovery
/// paths.
#[test]
fn faulted_fleet_campaigns_never_panic_across_the_pool() {
    use ctjam_core::runner::SweepBudget;
    use ctjam_fault::FaultSite;
    use ctjam_fleet::{CampaignFaults, CampaignPolicy, CampaignSpec, Fleet};

    let points: Vec<EnvParams> = [50.0, 200.0]
        .iter()
        .map(|&l_j| EnvParams {
            l_j,
            ..EnvParams::default()
        })
        .collect();
    let mixes = [
        ("uniform_0.2", FaultRates::uniform(0.2)),
        (
            "only_deadline_overrun_1.0",
            FaultRates::zero().with(FaultSite::DeadlineOverrun, 1.0),
        ),
    ];

    for (label, rates) in mixes {
        let spec = CampaignSpec {
            name: format!("chaos_fleet_{label}"),
            points: points.clone(),
            seeds: vec![1, 2, 3],
            policy: CampaignPolicy::RandomFh,
            slots: 200,
            kernel: false,
            base_seed: 0xC4A0_5000,
            faults: Some(CampaignFaults {
                seed: 0xFA17,
                rates,
            }),
        };
        let result = Fleet::new().threads(4).run(&spec);
        assert_eq!(result.outcomes.len(), spec.episodes());
        assert_eq!(
            result.metrics.slots(),
            (spec.episodes() * spec.slots) as u64,
            "campaign under {label} lost slots"
        );
        assert!(
            result.health.faults_fired > 0,
            "{label} must fire somewhere across the campaign"
        );
        for o in &result.outcomes {
            assert!(
                o.total_reward.is_finite(),
                "non-finite reward in episode {} under {label}",
                o.episode
            );
        }
    }

    // Training campaign: every episode trains its own DQN under the
    // drizzle, then evaluates — recovery must keep every episode alive.
    let spec = CampaignSpec {
        name: "chaos_fleet_train".into(),
        points: vec![points[0].clone()],
        seeds: vec![1, 2],
        policy: CampaignPolicy::TrainDqn(SweepBudget {
            train_slots: 200,
            eval_slots: 150,
        }),
        slots: 150,
        kernel: false,
        base_seed: 0xC4A0_5001,
        faults: Some(CampaignFaults {
            seed: 0xFA18,
            rates: FaultRates::uniform(0.2),
        }),
    };
    let result = Fleet::new().threads(4).run(&spec);
    assert_eq!(result.outcomes.len(), 2);
    assert_eq!(result.metrics.slots(), 2 * 150);
    assert!(result.health.faults_fired > 0);
}

/// Contract 2 at fleet scale, twice over: a campaign carrying a
/// zero-rate fault plan is bit-exact with the same campaign carrying no
/// plan at all, and the 8-worker fleet path is bit-exact with a plain
/// sequential loop over `RunBuilder` — the fleet machinery (shard pool,
/// per-shard sinks, telemetry merge) adds exactly nothing to the
/// numbers.
#[test]
fn zero_rate_fleet_campaign_is_bit_exact_with_the_non_fleet_path() {
    use ctjam_fleet::{CampaignFaults, CampaignPolicy, CampaignSpec, Fleet};
    use ctjam_telemetry::ShardSink;

    let points: Vec<EnvParams> = [50.0, 200.0]
        .iter()
        .map(|&l_j| EnvParams {
            l_j,
            ..EnvParams::default()
        })
        .collect();
    let spec = CampaignSpec {
        name: "chaos_zero_rate".into(),
        points,
        seeds: vec![7, 8, 9],
        policy: CampaignPolicy::RandomFh,
        slots: 250,
        kernel: false,
        base_seed: 0x2E80_4A7E,
        faults: Some(CampaignFaults {
            seed: 0xFA19,
            rates: FaultRates::zero(),
        }),
    };
    let mut plain_spec = spec.clone();
    plain_spec.faults = None;

    let faulted = Fleet::new().threads(8).run(&spec);
    let plain = Fleet::new().threads(8).run(&plain_spec);
    assert_eq!(
        faulted.outcomes, plain.outcomes,
        "a zero-rate campaign fault plan changed episode outcomes"
    );
    assert_eq!(
        faulted.telemetry.to_json().to_string_compact(),
        plain.telemetry.to_json().to_string_compact(),
        "a zero-rate campaign fault plan changed merged telemetry"
    );
    assert!(faulted.health.is_clean());

    // The hand-rolled non-fleet reference: one sequential loop over the
    // grid, same per-episode seed derivation, one shared sink.
    let mut reference_sink = ShardSink::new();
    for e in 0..plain_spec.episodes() {
        let point = plain_spec.episode_point(e);
        let mut r = rng(plain_spec.episode_seed(e));
        let mut defender = RandomFh::new(point, &mut r);
        let report = RunBuilder::new(point)
            .kernel(plain_spec.kernel)
            .sink(&mut reference_sink)
            .evaluate(&mut defender, plain_spec.slots, &mut r);
        let outcome = &plain.outcomes[e];
        assert_eq!(
            outcome.metrics, report.metrics,
            "fleet episode {e} diverged from the sequential reference"
        );
        assert_eq!(outcome.total_reward, report.total_reward);
        assert_eq!(outcome.health, report.health);
    }
    assert_eq!(
        plain.telemetry.to_json().to_string_compact(),
        reference_sink.to_json().to_string_compact(),
        "fleet-merged telemetry diverged from the sequential single-sink reference"
    );
}

/// The fleet's kill/resume contract end to end through disk: a campaign
/// killed mid-run, checkpointed from its shard progress, reloaded, and
/// resumed on a *different* worker count reproduces the uninterrupted
/// campaign bit-exactly — outcomes, merged metrics, and telemetry JSON.
#[test]
fn killed_fleet_campaign_resumes_bit_exactly_from_checkpointed_progress() {
    use ctjam_fleet::{CampaignFaults, CampaignPolicy, CampaignProgress, CampaignSpec, Fleet};

    let points: Vec<EnvParams> = [50.0, 100.0]
        .iter()
        .map(|&l_j| EnvParams {
            l_j,
            ..EnvParams::default()
        })
        .collect();
    let spec = CampaignSpec {
        name: "chaos_kill_resume".into(),
        points,
        seeds: vec![4, 5, 6],
        policy: CampaignPolicy::RandomFh,
        slots: 200,
        kernel: false,
        base_seed: 0x0DD0_5EED,
        faults: Some(CampaignFaults {
            seed: 0xFA20,
            rates: FaultRates::uniform(0.1),
        }),
    };

    let full = Fleet::new().threads(2).run(&spec);

    // Kill after 4 of 6 episodes, checkpoint through disk, resume wider.
    let progress = Fleet::new().threads(2).run_partial(&spec, 4);
    let path = std::env::temp_dir().join("ctjam_chaos_fleet_resume.ckpt");
    progress.save(&path).expect("progress save");
    let reloaded = CampaignProgress::load(&path).expect("progress load");
    std::fs::remove_file(&path).ok();
    let resumed = Fleet::new()
        .threads(8)
        .resume(&spec, &reloaded)
        .expect("the checkpoint belongs to this spec");

    assert_eq!(
        resumed.outcomes, full.outcomes,
        "resumed campaign outcomes diverged from the uninterrupted run"
    );
    assert_eq!(resumed.metrics, full.metrics);
    assert_eq!(resumed.health, full.health);
    assert_eq!(
        resumed.telemetry.to_json().to_string_compact(),
        full.telemetry.to_json().to_string_compact(),
        "resumed merged telemetry diverged from the uninterrupted run"
    );
}

/// Extended sweep: a much wider seed × mix grid at a configurable depth.
/// Opt in with `cargo test --test chaos -- --ignored`; scale with
/// `CTJAM_CHAOS_SLOTS` (default 2000 slots per run).
#[test]
#[ignore = "slow chaos sweep — run with --ignored, scale via CTJAM_CHAOS_SLOTS"]
fn extended_chaos_sweep() {
    let slots: usize = std::env::var("CTJAM_CHAOS_SLOTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let params = EnvParams::default();
    for seed in 0..10u64 {
        for (label, rates) in fault_mixes() {
            let mut r = rng(seed);
            let mut defender = DqnDefender::small_for_tests(&params, &mut r);
            let mut plan = FaultPlan::new(seed.wrapping_mul(0x9E37_79B9), rates);
            let report =
                RunBuilder::new(&params)
                    .fault_plan(&mut plan)
                    .train(&mut defender, slots, &mut r);
            assert_eq!(
                report.metrics.slots(),
                slots as u64,
                "{label} (seed {seed})"
            );
            assert!(
                defender
                    .agent()
                    .network()
                    .flatten_params()
                    .iter()
                    .all(|w| w.is_finite()),
                "non-finite weights under {label} (seed {seed})"
            );
        }
    }

    // Frame-mutation stress on the MAC layer: a RandomFh-style sanity
    // check that the star network also survives every mix at depth.
    let retry = RetryPolicy::default();
    for seed in 0..10u64 {
        for (label, rates) in fault_mixes() {
            let mut net = StarNetwork::new(5);
            let mut r = rng(seed ^ 0xABCD);
            let mut plan = FaultPlan::new(seed, rates);
            let mut hopper = RandomFh::new(&params, &mut r);
            for _ in 0..40 {
                use ctjam_core::defender::Defender;
                let d = hopper.decide(&mut r);
                let link_up = d.channel.is_multiple_of(2); // arbitrary but seeded
                let out = net.run_slot_with_faults(2.0, link_up, 0.1, &retry, &mut r, &mut plan);
                assert!(out.outcome.overhead_s.is_finite(), "{label} (seed {seed})");
            }
        }
    }
}
