//! The star-topology ZigBee network of the field experiment: one hub and
//! N peripherals exchanging data in time slots.
//!
//! Each slot proceeds exactly like the paper's testbed run (§IV.D):
//!
//! 1. the hub runs the anti-jamming decision (DQN inference time),
//! 2. polls every peripheral with the FH/PC announcement (negotiation),
//! 3. the remaining slot time carries round-robin data exchanges, each
//!    gated by LBT and acknowledged by the hub.
//!
//! The slot-level *jamming outcome* (is the chosen channel jammed, and did
//! the power win) is decided upstream by the competition environment; the
//! star network turns that outcome into packet counts via a per-packet
//! delivery probability.

use crate::frame::{MacFrame, NodeId};
use crate::hub::Hub;
use crate::mac::{csma_ca, CsmaConfig};
use crate::negotiation::{negotiate, negotiate_with_faults, FaultyNegotiationReport};
use crate::node::Peripheral;
use crate::timing::TimingModel;
use ctjam_fault::{FaultPoint, FaultSite, NullFaultPlan, RetryPolicy};
use rand::Rng;

/// Outcome of one time slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotOutcome {
    /// Unique data packets delivered to the hub.
    pub delivered: u64,
    /// Data transmissions attempted (incl. lost and duplicate).
    pub attempted: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Per-slot negotiation + inference overhead, seconds.
    pub overhead_s: f64,
    /// Time actually spent exchanging data, seconds.
    pub data_time_s: f64,
}

impl SlotOutcome {
    /// Fraction of the slot that was usable for data.
    pub fn utilization(&self, slot_s: f64) -> f64 {
        if slot_s <= 0.0 {
            0.0
        } else {
            1.0 - self.overhead_s / slot_s
        }
    }
}

/// A [`SlotOutcome`] augmented with fault-injection accounting.
///
/// Produced by [`StarNetwork::run_slot_with_faults`]; with no faults
/// firing the embedded `outcome` is bit-exact with
/// [`StarNetwork::run_slot`] on the same RNG state.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultySlotOutcome {
    /// The packet/timing outcome (fault costs are folded into
    /// `overhead_s`).
    pub outcome: SlotOutcome,
    /// Data frames corrupted in flight by [`FaultSite::FrameCorruption`]
    /// and rejected by the hub's FCS check.
    pub corrupted_frames: u64,
    /// Whether the hub stalled at the start of the slot.
    pub hub_stalled: bool,
    /// Dead air charged to the hub stall, seconds.
    pub stall_s: f64,
    /// The faulted negotiation round's accounting.
    pub negotiation: FaultyNegotiationReport,
}

/// The hub + peripherals assembly.
#[derive(Debug, Clone)]
pub struct StarNetwork {
    hub: Hub,
    peripherals: Vec<Peripheral>,
    timing: TimingModel,
    csma: CsmaConfig,
    payload_len: usize,
    /// Probability a CCA finds the channel busy from neighbor traffic.
    cca_busy_prob: f64,
    /// Reusable buffer for the per-turn CCA pre-draws.
    cca_scratch: Vec<bool>,
    /// The data frame every packet turn refills in place; with it and
    /// `cca_scratch` grown, a fault-free slot allocates nothing.
    data_frame: MacFrame,
    /// Reusable buffer for the peripheral id list used by
    /// [`StarNetwork::apply_decision`].
    ids_scratch: Vec<NodeId>,
}

impl StarNetwork {
    /// Creates a network with `num_peripherals` nodes on channel 11 using
    /// the paper's default timing model and a 100-byte payload.
    pub fn new(num_peripherals: usize) -> Self {
        StarNetwork::with_config(num_peripherals, TimingModel::default(), 100)
    }

    /// Creates a network with explicit timing and payload configuration.
    pub fn with_config(num_peripherals: usize, timing: TimingModel, payload_len: usize) -> Self {
        let peripherals = (1..=num_peripherals)
            .map(|i| Peripheral::new(NodeId(i as u8), 11, 0))
            .collect();
        StarNetwork {
            hub: Hub::new(11, 0),
            peripherals,
            timing,
            csma: CsmaConfig::default(),
            payload_len,
            cca_busy_prob: 0.05,
            cca_scratch: Vec::new(),
            data_frame: MacFrame::Data {
                src: NodeId::HUB,
                seq: 0,
                payload: Vec::new(),
            },
            ids_scratch: Vec::new(),
        }
    }

    /// The hub.
    pub fn hub(&self) -> &Hub {
        &self.hub
    }

    /// The peripherals.
    pub fn peripherals(&self) -> &[Peripheral] {
        &self.peripherals
    }

    /// The timing model in force.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Announces a new channel/power decision to all peripherals and
    /// returns the negotiation duration (the slot's overhead component).
    pub fn apply_decision<R: Rng + ?Sized>(
        &mut self,
        channel: u8,
        power_level: u8,
        rng: &mut R,
    ) -> f64 {
        self.ids_scratch.clear();
        self.ids_scratch
            .extend(self.peripherals.iter().map(Peripheral::id));
        let announcements = self.hub.announce(channel, power_level, &self.ids_scratch);
        for announcement in &announcements {
            for peripheral in &mut self.peripherals {
                if peripheral.handle_negotiation(announcement).is_some() {
                    break;
                }
            }
        }
        negotiate(&self.timing, self.peripherals.len(), rng).total_s
    }

    /// Runs one data slot of `slot_s` seconds.
    ///
    /// `link_up` is whether the slot's channel/power decision defeated the
    /// jammer (decided by the competition environment); `residual_per` is
    /// the per-packet loss probability on an up link (interference that
    /// degrades but does not kill the link, e.g. the paper's `TJ` state).
    ///
    /// This is [`StarNetwork::run_slot_with_faults`] with no fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `residual_per` is outside `[0, 1]`.
    pub fn run_slot<R: Rng + ?Sized>(
        &mut self,
        slot_s: f64,
        link_up: bool,
        residual_per: f64,
        rng: &mut R,
    ) -> SlotOutcome {
        self.run_slot_with_faults(
            slot_s,
            link_up,
            residual_per,
            &RetryPolicy::default(),
            rng,
            &mut NullFaultPlan,
        )
        .outcome
    }

    /// [`StarNetwork::run_slot`], with deterministic fault injection and
    /// recovery.
    ///
    /// On top of the regular slot the plan may fire:
    ///
    /// * [`FaultSite::HubStall`] — the hub stalls at the start of the
    ///   slot (recovery-scale dead air charged as overhead),
    /// * negotiation faults — see
    ///   [`crate::negotiation::negotiate_with_faults`],
    /// * [`FaultSite::FrameCorruption`] — a data frame's serialized PSDU
    ///   gets a bit flipped in flight; the hub's FCS check rejects it,
    ///   so the transmission is attempted but never delivered.
    ///
    /// All fault-only work is gated on [`FaultPoint::is_enabled`] or
    /// happens inside fired branches, so with an all-zero-rate plan this
    /// is bit-exact with [`StarNetwork::run_slot`] (which runs it with a
    /// [`NullFaultPlan`]) on the same RNG state.
    ///
    /// # Panics
    ///
    /// Panics if `residual_per` is outside `[0, 1]`.
    pub fn run_slot_with_faults<R: Rng + ?Sized, F: FaultPoint>(
        &mut self,
        slot_s: f64,
        link_up: bool,
        residual_per: f64,
        retry: &RetryPolicy,
        rng: &mut R,
        fault: &mut F,
    ) -> FaultySlotOutcome {
        assert!(
            (0.0..=1.0).contains(&residual_per),
            "residual_per must be a probability, got {residual_per}"
        );
        // Phase 0: the hub itself may stall (GC pause, flash write).
        let mut stall_s = 0.0;
        let hub_stalled = fault.should_fire(FaultSite::HubStall);
        if hub_stalled {
            stall_s = self.timing.straggler_recovery(rng);
        }

        // Phase 1+2: decision inference + polling negotiation.
        let mut overhead = stall_s + self.timing.dqn_inference(rng);
        let negotiation =
            negotiate_with_faults(&self.timing, self.peripherals.len(), retry, rng, fault);
        overhead += negotiation.report.total_s;

        let mut faulty = FaultySlotOutcome {
            outcome: SlotOutcome {
                delivered: 0,
                attempted: 0,
                payload_bytes: 0,
                overhead_s: overhead,
                data_time_s: 0.0,
            },
            corrupted_frames: 0,
            hub_stalled,
            stall_s,
            negotiation,
        };

        let budget = slot_s - overhead;
        if budget <= 0.0 || self.peripherals.is_empty() {
            return faulty;
        }

        // Phase 3: round-robin data exchange until the slot closes.
        let num_peripherals = self.peripherals.len();
        let mut elapsed = 0.0;
        let mut turn = 0usize;
        loop {
            let index = turn % num_peripherals;
            turn += 1;

            let busy = self.cca_busy_prob;
            // Pre-draw the (at most max_backoffs+1) CCA outcomes into the
            // reusable scratch so the closure does not capture `rng`
            // alongside its other uses (draw order is unchanged).
            self.cca_scratch.clear();
            for _ in 0..=self.csma.max_backoffs {
                self.cca_scratch.push(rng.gen_bool(busy));
            }
            let cca_draws = &self.cca_scratch;
            let access = csma_ca(&self.csma, rng, |attempt| cca_draws[attempt as usize]);
            elapsed += access.elapsed_s;
            if elapsed >= budget {
                break;
            }
            if !access.granted {
                continue;
            }

            self.peripherals[index].refill_data_frame(self.payload_len, &mut self.data_frame);
            let frame = &self.data_frame;
            let cycle = self.timing.packet_cycle(frame.airtime_s(), rng);
            if elapsed + cycle > budget {
                break;
            }
            elapsed += cycle;
            faulty.outcome.attempted += 1;

            // In-flight corruption beyond the channel model: flip one
            // bit of the serialized PSDU and let the FCS decide. Gated
            // on is_enabled() so the fault-free path never serializes.
            let mut corrupted = false;
            if fault.is_enabled() {
                if let Ok(mut psdu) = frame.to_psdu() {
                    if fault.corrupt_bytes(FaultSite::FrameCorruption, &mut psdu)
                        && MacFrame::from_psdu(&psdu).is_err()
                    {
                        corrupted = true;
                        faulty.corrupted_frames += 1;
                    }
                }
            }

            let delivered = link_up && !rng.gen_bool(residual_per);
            if delivered && !corrupted {
                if let Some(ack) = self.hub.handle_data(frame) {
                    let granted = self.peripherals[index].handle_ack(&ack);
                    debug_assert!(granted);
                    faulty.outcome.delivered += 1;
                    if let MacFrame::Data { payload, .. } = frame {
                        faulty.outcome.payload_bytes += payload.len() as u64;
                    }
                }
            }
        }
        faulty.outcome.data_time_s = elapsed.min(budget);
        faulty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn clean_slot_delivers_hundreds_of_packets() {
        let mut net = StarNetwork::new(3);
        let mut rng = rng(1);
        let o = net.run_slot(3.0, true, 0.0, &mut rng);
        assert!(
            (350..700).contains(&(o.delivered as i64)),
            "delivered = {}",
            o.delivered
        );
        assert_eq!(o.delivered, o.attempted);
    }

    #[test]
    fn jammed_slot_delivers_nothing() {
        let mut net = StarNetwork::new(3);
        let mut rng = rng(2);
        let o = net.run_slot(3.0, false, 0.0, &mut rng);
        assert_eq!(o.delivered, 0);
        assert!(o.attempted > 0, "transmissions should still be attempted");
    }

    #[test]
    fn residual_per_degrades_goodput() {
        let mut rng1 = rng(3);
        let clean = StarNetwork::new(3).run_slot(3.0, true, 0.0, &mut rng1);
        let mut rng2 = rng(3);
        let lossy = StarNetwork::new(3).run_slot(3.0, true, 0.4, &mut rng2);
        assert!(lossy.delivered < clean.delivered);
        assert!(lossy.delivered > 0);
    }

    #[test]
    fn longer_slots_deliver_more() {
        let mut out = Vec::new();
        for (i, slot) in [1.0f64, 3.0, 5.0].iter().enumerate() {
            let mut net = StarNetwork::new(3);
            let mut r = rng(10 + i as u64);
            out.push(net.run_slot(*slot, true, 0.0, &mut r).delivered);
        }
        assert!(out[0] < out[1] && out[1] < out[2], "{out:?}");
    }

    #[test]
    fn utilization_improves_with_slot_length() {
        let mut net = StarNetwork::new(3);
        let mut r = rng(4);
        let short = net.run_slot(1.0, true, 0.0, &mut r);
        let long = net.run_slot(5.0, true, 0.0, &mut r);
        assert!(long.utilization(5.0) > short.utilization(1.0));
        assert!(short.utilization(1.0) > 0.8);
        assert!(long.utilization(5.0) < 1.0);
    }

    #[test]
    fn overhead_shorter_than_slot_leaves_data_time() {
        let mut net = StarNetwork::new(3);
        let mut r = rng(5);
        let o = net.run_slot(2.0, true, 0.0, &mut r);
        assert!(o.overhead_s < 0.5);
        assert!(o.data_time_s > 1.0);
    }

    #[test]
    fn tiny_slot_consumed_by_negotiation() {
        // Paper §IV.D.4: below ~0.5 s the FH negotiation can eat the slot.
        let mut net = StarNetwork::new(10);
        let mut r = rng(6);
        let mut worst_ratio = 1.0f64;
        for _ in 0..50 {
            let o = net.run_slot(0.2, true, 0.0, &mut r);
            let ratio = o.data_time_s / 0.2;
            worst_ratio = worst_ratio.min(ratio);
        }
        assert!(
            worst_ratio < 0.6,
            "negotiation never dominated: {worst_ratio}"
        );
    }

    #[test]
    fn apply_decision_reaches_every_peripheral() {
        let mut net = StarNetwork::new(4);
        let mut r = rng(7);
        let overhead = net.apply_decision(22, 5, &mut r);
        assert!(overhead > 0.0);
        for p in net.peripherals() {
            assert_eq!(p.channel(), 22);
            assert_eq!(p.power_level(), 5);
        }
        assert_eq!(net.hub().channel(), 22);
    }

    #[test]
    fn zero_rate_faulted_slot_matches_plain_path() {
        use ctjam_fault::{FaultPlan, FaultRates};

        let retry = RetryPolicy::default();
        for seed in 0..3u64 {
            let mut plain_net = StarNetwork::new(4);
            let mut plain_rng = rng(seed);
            let plain = plain_net.run_slot(2.0, true, 0.1, &mut plain_rng);

            let mut zero_net = StarNetwork::new(4);
            let mut zero_rng = rng(seed);
            let mut zero = FaultPlan::new(seed, FaultRates::zero());
            let with_zero =
                zero_net.run_slot_with_faults(2.0, true, 0.1, &retry, &mut zero_rng, &mut zero);

            assert_eq!(with_zero.outcome, plain);
            assert_eq!(with_zero.corrupted_frames, 0);
            assert_eq!(zero.total_fired(), 0);
            let follow: u64 = plain_rng.gen();
            assert_eq!(zero_rng.gen::<u64>(), follow);
        }
    }

    #[test]
    fn frame_corruption_suppresses_delivery() {
        use ctjam_fault::{FaultPlan, FaultRates, FaultSite};

        let retry = RetryPolicy::default();
        let mut net = StarNetwork::new(3);
        let mut r = rng(21);
        let mut plan = FaultPlan::new(5, FaultRates::zero().with(FaultSite::FrameCorruption, 1.0));
        let o = net.run_slot_with_faults(2.0, true, 0.0, &retry, &mut r, &mut plan);
        // Every frame is corrupted; CRC-16 catches all single-bit flips.
        assert!(o.outcome.attempted > 0);
        assert_eq!(o.outcome.delivered, 0);
        assert_eq!(o.corrupted_frames, o.outcome.attempted);
    }

    #[test]
    fn hub_stall_eats_slot_budget() {
        use ctjam_fault::{FaultPlan, FaultRates, FaultSite};

        let retry = RetryPolicy::default();
        let mut clean_net = StarNetwork::new(3);
        let mut r1 = rng(22);
        let clean = clean_net.run_slot(1.5, true, 0.0, &mut r1);

        let mut net = StarNetwork::new(3);
        let mut r2 = rng(22);
        let mut plan = FaultPlan::new(6, FaultRates::zero().with(FaultSite::HubStall, 1.0));
        let o = net.run_slot_with_faults(1.5, true, 0.0, &retry, &mut r2, &mut plan);
        assert!(o.hub_stalled);
        assert!(o.stall_s > 1.0, "stall_s = {}", o.stall_s);
        assert!(o.outcome.overhead_s > clean.overhead_s);
        assert!(o.outcome.delivered < clean.delivered);
    }

    #[test]
    fn empty_network_idles() {
        let mut net = StarNetwork::new(0);
        let mut r = rng(8);
        let o = net.run_slot(1.0, true, 0.0, &mut r);
        assert_eq!(o.delivered, 0);
        assert_eq!(o.attempted, 0);
    }
}
