//! Golden pins for the star network's slot and negotiation loops.
//!
//! Each test drives a fixed sequence of calls from one seeded RNG and
//! folds every outcome field (floats by their bit patterns) plus the
//! RNG's next word into an FNV-1a digest. The digests were recorded from
//! the serializing, two-loop implementation, so any change to an RNG
//! draw, its order, or the arithmetic of the packet loop shows up here.

use ctjam_fault::{FaultPlan, FaultRates, FaultSite, RetryPolicy};
use ctjam_net::negotiation::negotiate;
use ctjam_net::star::StarNetwork;
use ctjam_net::timing::TimingModel;
use ctjam_telemetry::manifest::fnv1a_64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Negotiation overhead above this means a straggler was recovered: a
/// clean round over ten nodes costs about 0.14 s.
const STRAGGLER_OVERHEAD_S: f64 = 0.5;

#[test]
fn run_slot_sequence_matches_golden_digest() {
    let mut rng = StdRng::seed_from_u64(0x5eed_57a2);
    let mut bytes = Vec::new();
    let mut straggler_slots = 0;
    let mut delivered = 0;
    for &peripherals in &[0usize, 3, 10] {
        // One network per size, so sequence numbers and the hub's
        // duplicate state carry across every slot below.
        let mut net = StarNetwork::new(peripherals);
        for &slot_s in &[0.2f64, 1.0, 3.0, 5.0] {
            for &link_up in &[true, false] {
                for &residual_per in &[0.0f64, 0.1, 0.4] {
                    for _ in 0..3 {
                        let o = net.run_slot(slot_s, link_up, residual_per, &mut rng);
                        bytes.extend_from_slice(&o.delivered.to_le_bytes());
                        bytes.extend_from_slice(&o.attempted.to_le_bytes());
                        bytes.extend_from_slice(&o.payload_bytes.to_le_bytes());
                        bytes.extend_from_slice(&o.overhead_s.to_bits().to_le_bytes());
                        bytes.extend_from_slice(&o.data_time_s.to_bits().to_le_bytes());
                        straggler_slots += usize::from(o.overhead_s > STRAGGLER_OVERHEAD_S);
                        delivered += o.delivered;
                    }
                }
            }
        }
    }
    bytes.extend_from_slice(&rng.gen::<u64>().to_le_bytes());

    assert!(straggler_slots > 0, "the sequence never hit a straggler");
    assert!(delivered > 0, "the sequence never delivered a packet");
    assert_eq!(
        fnv1a_64(&bytes),
        0xe12e_4e1f_a698_dded,
        "run_slot outcomes moved ({straggler_slots} straggler slots, {delivered} delivered)"
    );
}

#[test]
fn negotiate_sequence_matches_golden_digest() {
    let timing = TimingModel::default();
    let mut rng = StdRng::seed_from_u64(0x5eed_9e60);
    let mut bytes = Vec::new();
    let mut stragglers = 0;
    for nodes in 0..=10usize {
        for _ in 0..40 {
            let r = negotiate(&timing, nodes, &mut rng);
            bytes.extend_from_slice(&r.total_s.to_bits().to_le_bytes());
            bytes.extend_from_slice(&r.polling_s.to_bits().to_le_bytes());
            bytes.extend_from_slice(&r.recovery_s.to_bits().to_le_bytes());
            stragglers += r.stragglers;
        }
    }
    bytes.extend_from_slice(&stragglers.to_le_bytes());
    bytes.extend_from_slice(&rng.gen::<u64>().to_le_bytes());

    assert!(stragglers > 0, "the sequence never hit a straggler");
    assert_eq!(
        fnv1a_64(&bytes),
        0x7098_aa32_a747_b6c9,
        "negotiate totals moved ({stragglers} stragglers)"
    );
}

#[test]
fn faulted_slot_sequence_matches_golden_digest() {
    let rates = FaultRates::zero()
        .with(FaultSite::HubStall, 0.05)
        .with(FaultSite::ControlDrop, 0.3)
        .with(FaultSite::ControlDuplicate, 0.1)
        .with(FaultSite::ControlDelay, 0.1)
        .with(FaultSite::FrameCorruption, 0.02);
    let retry = RetryPolicy::default();
    let mut plan = FaultPlan::new(0x5eed_fa17, rates);
    let mut rng = StdRng::seed_from_u64(0x5eed_5107);
    let mut net = StarNetwork::new(4);
    let mut bytes = Vec::new();
    let mut exhausted = 0;
    let mut corrupted = 0;
    for &slot_s in &[0.2f64, 1.0, 3.0] {
        for &link_up in &[true, false] {
            for _ in 0..4 {
                let f = net.run_slot_with_faults(slot_s, link_up, 0.1, &retry, &mut rng, &mut plan);
                let o = f.outcome;
                let n = &f.negotiation;
                for word in [
                    o.delivered,
                    o.attempted,
                    o.payload_bytes,
                    o.overhead_s.to_bits(),
                    o.data_time_s.to_bits(),
                    f.corrupted_frames,
                    u64::from(f.hub_stalled),
                    f.stall_s.to_bits(),
                    n.drops,
                    n.duplicates,
                    n.delays,
                    n.retries,
                    n.exhausted,
                    n.fault_time_s.to_bits(),
                    n.report.stragglers,
                ] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
                exhausted += n.exhausted;
                corrupted += f.corrupted_frames;
            }
        }
    }
    bytes.extend_from_slice(&rng.gen::<u64>().to_le_bytes());

    assert!(exhausted > 0, "no negotiation exhausted its retries");
    assert!(corrupted > 0, "no frame was corrupted");
    assert_eq!(
        fnv1a_64(&bytes),
        0x5887_f530_3c1b_79f7,
        "faulted slot outcomes moved ({exhausted} exhausted, {corrupted} corrupted)"
    );
}
