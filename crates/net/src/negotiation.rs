//! Polling-mode FH/PC negotiation (paper §IV.D.1 "Polling Mode" and
//! Fig. 9(b)).
//!
//! At the start of each slot the hub announces next-slot channel and power
//! to every peripheral in turn, waits for each confirmation, then commands
//! the simultaneous switch. A node that is off-channel (e.g. it lost the
//! previous announcement to jamming) must be recovered over the control
//! channel, which costs seconds — the outliers visible in Fig. 9(b).

use crate::timing::TimingModel;
use ctjam_fault::{FaultPoint, FaultSite, NullFaultPlan, RetryPolicy};
use rand::Rng;

/// Breakdown of one negotiation round.
#[derive(Debug, Clone, PartialEq)]
pub struct NegotiationReport {
    /// Total wall-clock duration, seconds.
    pub total_s: f64,
    /// Time spent on regular polling, seconds.
    pub polling_s: f64,
    /// Time spent recovering stragglers over the control channel, seconds.
    pub recovery_s: f64,
    /// Number of nodes that had to be recovered.
    pub stragglers: u64,
}

/// Simulates one polling round over `num_nodes` peripherals.
///
/// Every node costs one [`TimingModel::poll_one_node`] draw; nodes flagged
/// as stragglers additionally cost a control-channel recovery. This is
/// [`negotiate_with_faults`] with no fault plan.
///
/// # Example
///
/// ```
/// use ctjam_net::negotiation::negotiate;
/// use ctjam_net::timing::TimingModel;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let report = negotiate(&TimingModel::noiseless(), 3, &mut rng);
/// assert!((report.total_s - 3.0 * 0.0131).abs() < 1e-9);
/// ```
pub fn negotiate<R: Rng + ?Sized>(
    timing: &TimingModel,
    num_nodes: usize,
    rng: &mut R,
) -> NegotiationReport {
    negotiate_with_faults(
        timing,
        num_nodes,
        &RetryPolicy::default(),
        rng,
        &mut NullFaultPlan,
    )
    .report
}

/// A [`NegotiationReport`] augmented with fault-injection accounting.
///
/// Produced by [`negotiate_with_faults`]; with no faults firing the
/// embedded `report` is bit-exact with [`negotiate`] on the same RNG
/// state and every counter is zero.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyNegotiationReport {
    /// The timing breakdown (fault costs are folded into `recovery_s`
    /// and `total_s`).
    pub report: NegotiationReport,
    /// Announcements lost to [`FaultSite::ControlDrop`].
    pub drops: u64,
    /// Announcements answered twice ([`FaultSite::ControlDuplicate`]).
    pub duplicates: u64,
    /// Announcements stalled by [`FaultSite::ControlDelay`].
    pub delays: u64,
    /// Re-poll attempts spent recovering dropped announcements.
    pub retries: u64,
    /// Number of nodes whose retry budget ran out and fell back to a
    /// control-channel recovery.
    pub exhausted: u64,
    /// Seconds charged purely to fault handling (backoffs, re-polls,
    /// duplicate answers, delay stalls, fallback recoveries).
    pub fault_time_s: f64,
}

/// [`negotiate`], with deterministic fault injection and bounded-retry
/// recovery.
///
/// Per node, after the regular poll the plan may fire:
///
/// * [`FaultSite::ControlDrop`] — the announcement is lost. The hub
///   re-polls under `retry` (each attempt charges a jittered backoff
///   plus one more poll); if every attempt is dropped too, the node is
///   recovered over the control channel like a straggler.
/// * [`FaultSite::ControlDuplicate`] — the node answers twice, costing
///   one extra poll's worth of airtime.
/// * [`FaultSite::ControlDelay`] — the exchange stalls for one
///   base-backoff interval before completing.
///
/// All fault-only RNG draws happen inside fired branches, so when no
/// fault fires (a [`ctjam_fault::NullFaultPlan`] or an all-zero-rate
/// plan) this consumes exactly the same `rng` stream as [`negotiate`].
pub fn negotiate_with_faults<R: Rng + ?Sized, F: FaultPoint>(
    timing: &TimingModel,
    num_nodes: usize,
    retry: &RetryPolicy,
    rng: &mut R,
    fault: &mut F,
) -> FaultyNegotiationReport {
    let mut polling = 0.0;
    let mut recovery = 0.0;
    let mut stragglers = 0;
    let mut faulty = FaultyNegotiationReport {
        report: NegotiationReport {
            total_s: 0.0,
            polling_s: 0.0,
            recovery_s: 0.0,
            stragglers: 0,
        },
        drops: 0,
        duplicates: 0,
        delays: 0,
        retries: 0,
        exhausted: 0,
        fault_time_s: 0.0,
    };
    for _ in 0..num_nodes {
        polling += timing.poll_one_node(rng);
        if fault.should_fire(FaultSite::ControlDrop) {
            faulty.drops += 1;
            let mut recovered = false;
            for attempt in 1..=retry.max_attempts.max(1) {
                faulty.retries += 1;
                faulty.fault_time_s += retry.backoff_s(attempt, rng);
                faulty.fault_time_s += timing.poll_one_node(rng);
                if !fault.should_fire(FaultSite::ControlDrop) {
                    recovered = true;
                    break;
                }
            }
            if !recovered {
                faulty.fault_time_s += timing.straggler_recovery(rng);
                faulty.exhausted += 1;
            }
        }
        if fault.should_fire(FaultSite::ControlDuplicate) {
            faulty.duplicates += 1;
            faulty.fault_time_s += timing.poll_one_node(rng);
        }
        if fault.should_fire(FaultSite::ControlDelay) {
            faulty.delays += 1;
            faulty.fault_time_s += retry.backoff_s(1, rng);
        }
        if timing.is_straggler(rng) {
            recovery += timing.straggler_recovery(rng);
            stragglers += 1;
        }
    }
    faulty.report = NegotiationReport {
        total_s: polling + recovery + faulty.fault_time_s,
        polling_s: polling,
        recovery_s: recovery + faulty.fault_time_s,
        stragglers,
    };
    faulty
}

/// Mean negotiation duration over `trials` rounds — one Fig. 9(b) point.
pub fn mean_negotiation_s<R: Rng + ?Sized>(
    timing: &TimingModel,
    num_nodes: usize,
    trials: usize,
    rng: &mut R,
) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    (0..trials)
        .map(|_| negotiate(timing, num_nodes, rng).total_s)
        .sum::<f64>()
        / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_cost_is_linear_in_nodes() {
        let t = TimingModel::noiseless();
        let mut rng = StdRng::seed_from_u64(0);
        for n in 0..10 {
            let r = negotiate(&t, n, &mut rng);
            assert!((r.total_s - n as f64 * 0.0131).abs() < 1e-9);
            assert_eq!(r.stragglers, 0);
        }
    }

    #[test]
    fn mean_grows_with_network_size() {
        // Fig. 9(b): negotiation time scales with the number of peripherals.
        // Strict monotonicity of the sample mean only holds in expectation:
        // with the default 1% straggler rate a single 1.2 s recovery shifts a
        // 400-trial mean by ~3 ms — more than the 25 ms/node slope — so the
        // per-n comparison is made straggler-free (polling cost only, where
        // jitter noise is ~80x below the slope) and the straggler tail is
        // checked separately as a level shift at fixed n.
        let polling_only = TimingModel {
            straggler_prob: 0.0,
            ..TimingModel::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut prev = 0.0;
        for n in 1..=10 {
            let mean = mean_negotiation_s(&polling_only, n, 400, &mut rng);
            assert!(mean > prev, "mean at {n} nodes did not grow");
            prev = mean;
        }
        // Stragglers can only add time: at n = 10 the default model's mean
        // must exceed the straggler-free mean (expected gap 10 * 0.01 * 1.2 s
        // = 120 ms, ~6 sigma over 400 trials).
        let with_stragglers = mean_negotiation_s(&TimingModel::default(), 10, 400, &mut rng);
        assert!(
            with_stragglers > prev,
            "straggler recoveries did not raise the mean ({with_stragglers} <= {prev})"
        );
    }

    #[test]
    fn stragglers_cost_seconds() {
        let t = TimingModel {
            straggler_prob: 1.0,
            ..TimingModel::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let r = negotiate(&t, 4, &mut rng);
        assert_eq!(r.stragglers, 4);
        assert!(
            r.total_s > 4.0,
            "4 stragglers should cost > 4 s, got {}",
            r.total_s
        );
    }

    #[test]
    fn occasional_outliers_exist_at_default_rate() {
        // Fig. 9(b): "in some cases, it can be several seconds".
        let t = TimingModel::default();
        let mut rng = StdRng::seed_from_u64(2);
        let worst = (0..500)
            .map(|_| negotiate(&t, 10, &mut rng).total_s)
            .fold(0.0f64, f64::max);
        assert!(
            worst > 1.0,
            "no multi-second outlier in 500 rounds ({worst})"
        );
    }

    #[test]
    fn zero_rate_faulted_negotiation_matches_plain_path() {
        use ctjam_fault::{FaultPlan, FaultRates};

        let t = TimingModel::default();
        let retry = RetryPolicy::default();
        for seed in 0..5u64 {
            let mut plain_rng = StdRng::seed_from_u64(seed);
            let plain = negotiate(&t, 8, &mut plain_rng);

            let mut zero_rng = StdRng::seed_from_u64(seed);
            let mut zero = FaultPlan::new(seed, FaultRates::zero());
            let with_zero = negotiate_with_faults(&t, 8, &retry, &mut zero_rng, &mut zero);

            assert_eq!(with_zero.report, plain);
            assert_eq!(with_zero.fault_time_s, 0.0);
            assert_eq!(zero.total_fired(), 0);
            // The main streams stayed aligned past the call too.
            let follow: u64 = plain_rng.gen();
            assert_eq!(zero_rng.gen::<u64>(), follow);
        }
    }

    #[test]
    fn dropped_announcements_are_retried_and_charged() {
        use ctjam_fault::{FaultPlan, FaultPoint, FaultRates, FaultSite};

        let t = TimingModel::noiseless();
        let retry = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(3);
        // 50% drops: some polls need retries, and with 3 bounded
        // attempts a few nodes should exhaust and fall back.
        let mut plan = FaultPlan::new(11, FaultRates::zero().with(FaultSite::ControlDrop, 0.5));
        let out = negotiate_with_faults(&t, 200, &retry, &mut rng, &mut plan);
        assert!(out.drops > 50, "drops = {}", out.drops);
        assert!(out.retries >= out.drops);
        assert!(out.exhausted > 0, "no node exhausted its retries");
        assert!(out.fault_time_s > 0.0);
        assert!(out.report.total_s > 200.0 * 0.0131);
        // Every initial drop fired the site once; retry-round drops add more.
        assert!(plan.fired(FaultSite::ControlDrop) >= out.drops);
    }

    #[test]
    fn duplicates_and_delays_only_add_time() {
        use ctjam_fault::{FaultPlan, FaultRates, FaultSite};

        let t = TimingModel::noiseless();
        let retry = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(4);
        let rates = FaultRates::zero()
            .with(FaultSite::ControlDuplicate, 1.0)
            .with(FaultSite::ControlDelay, 1.0);
        let mut plan = FaultPlan::new(2, rates);
        let out = negotiate_with_faults(&t, 10, &retry, &mut rng, &mut plan);
        assert_eq!(out.duplicates, 10);
        assert_eq!(out.delays, 10);
        assert_eq!(out.drops, 0);
        assert_eq!(out.exhausted, 0);
        // 10 regular polls + 10 duplicate polls + 10 base backoffs.
        assert!(out.fault_time_s > 10.0 * 0.0131);
        assert!((out.report.polling_s - 10.0 * 0.0131).abs() < 1e-9);
    }

    #[test]
    fn zero_trials_mean_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            mean_negotiation_s(&TimingModel::default(), 5, 0, &mut rng),
            0.0
        );
    }
}
