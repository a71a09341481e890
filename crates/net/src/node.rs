//! A peripheral node of the star network.

use crate::frame::{MacFrame, NodeId, MAX_PAYLOAD};

/// A peripheral (sensor) node: holds its radio configuration and produces
/// a stream of data frames toward the hub.
///
/// # Example
///
/// ```
/// use ctjam_net::node::Peripheral;
/// use ctjam_net::frame::{MacFrame, NodeId};
///
/// let mut node = Peripheral::new(NodeId(1), 11, 0);
/// let frame = node.next_data_frame(20);
/// assert!(matches!(frame, MacFrame::Data { src: NodeId(1), seq: 0, .. }));
/// let frame = node.next_data_frame(20);
/// assert!(matches!(frame, MacFrame::Data { seq: 1, .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Peripheral {
    id: NodeId,
    channel: u8,
    power_level: u8,
    next_seq: u16,
    sent: u64,
    acked: u64,
}

impl Peripheral {
    /// Creates a peripheral on a channel with a power level index.
    ///
    /// # Panics
    ///
    /// Panics if `id` is the hub address.
    pub fn new(id: NodeId, channel: u8, power_level: u8) -> Self {
        assert!(id != NodeId::HUB, "peripherals cannot use the hub address");
        Peripheral {
            id,
            channel,
            power_level,
            next_seq: 0,
            sent: 0,
            acked: 0,
        }
    }

    /// The node's address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current channel.
    pub fn channel(&self) -> u8 {
        self.channel
    }

    /// Current transmit power level index.
    pub fn power_level(&self) -> u8 {
        self.power_level
    }

    /// Frames sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Frames acknowledged so far.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Builds the next data frame with a synthetic payload of
    /// `payload_len` bytes (clamped to [`MAX_PAYLOAD`]).
    pub fn next_data_frame(&mut self, payload_len: usize) -> MacFrame {
        let mut frame = MacFrame::NegotiateAck { src: self.id };
        self.refill_data_frame(payload_len, &mut frame);
        frame
    }

    /// Overwrites `frame` with what [`Peripheral::next_data_frame`] would
    /// return, reusing the payload buffer when `frame` already is a data
    /// frame, so a caller that keeps one frame allocates nothing once its
    /// buffer has grown to `payload_len`.
    pub(crate) fn refill_data_frame(&mut self, payload_len: usize, frame: &mut MacFrame) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.sent += 1;
        let len = payload_len.min(MAX_PAYLOAD);
        let mut payload = match std::mem::replace(frame, MacFrame::NegotiateAck { src: self.id }) {
            MacFrame::Data { payload, .. } => payload,
            _ => Vec::new(),
        };
        // Synthetic sensor payload: deterministic pattern keyed by seq so
        // duplicates are detectable end-to-end.
        payload.clear();
        payload.extend((0..len).map(|i| (usize::from(seq) + i) as u8 ^ self.id.0));
        *frame = MacFrame::Data {
            src: self.id,
            seq,
            payload,
        };
    }

    /// Processes an ACK from the hub addressed to this node.
    ///
    /// Returns `true` when the ACK matched this node.
    pub fn handle_ack(&mut self, frame: &MacFrame) -> bool {
        if let MacFrame::Ack { dst, .. } = frame {
            if *dst == self.id {
                self.acked += 1;
                return true;
            }
        }
        false
    }

    /// Applies a negotiation announcement addressed to this node,
    /// returning the confirmation frame, or `None` when the announcement
    /// targets someone else.
    pub fn handle_negotiation(&mut self, frame: &MacFrame) -> Option<MacFrame> {
        if let MacFrame::Negotiate {
            dst,
            channel,
            power_level,
        } = frame
        {
            if *dst == self.id {
                self.channel = *channel;
                self.power_level = *power_level;
                return Some(MacFrame::NegotiateAck { src: self.id });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_increment_and_wrap() {
        let mut n = Peripheral::new(NodeId(1), 11, 0);
        n.next_seq = u16::MAX;
        let f = n.next_data_frame(4);
        assert!(matches!(f, MacFrame::Data { seq: u16::MAX, .. }));
        let f = n.next_data_frame(4);
        assert!(matches!(f, MacFrame::Data { seq: 0, .. }));
    }

    #[test]
    fn refill_matches_fresh_frames_and_reuses_the_buffer() {
        let mut fresh = Peripheral::new(NodeId(5), 11, 0);
        let mut reused = fresh.clone();
        let mut frame = MacFrame::Ack {
            dst: NodeId(1),
            seq: 3,
        };
        let mut buffer = None;
        for len in [40, 12, 40, 0, 10_000] {
            reused.refill_data_frame(len, &mut frame);
            assert_eq!(frame, fresh.next_data_frame(len));
            let MacFrame::Data { payload, .. } = &frame else {
                unreachable!("refill always leaves a data frame")
            };
            if len <= 40 {
                let first = *buffer.get_or_insert(payload.as_ptr());
                assert_eq!(payload.as_ptr(), first, "payload reallocated at {len}");
            }
        }
        assert_eq!(reused, fresh);
    }

    #[test]
    fn negotiation_updates_radio_state() {
        let mut n = Peripheral::new(NodeId(2), 11, 0);
        let announce = MacFrame::Negotiate {
            dst: NodeId(2),
            channel: 19,
            power_level: 7,
        };
        let ack = n.handle_negotiation(&announce).unwrap();
        assert_eq!(ack, MacFrame::NegotiateAck { src: NodeId(2) });
        assert_eq!(n.channel(), 19);
        assert_eq!(n.power_level(), 7);
    }

    #[test]
    fn negotiation_for_other_node_ignored() {
        let mut n = Peripheral::new(NodeId(2), 11, 0);
        let announce = MacFrame::Negotiate {
            dst: NodeId(3),
            channel: 19,
            power_level: 7,
        };
        assert!(n.handle_negotiation(&announce).is_none());
        assert_eq!(n.channel(), 11);
    }

    #[test]
    fn ack_accounting() {
        let mut n = Peripheral::new(NodeId(1), 11, 0);
        let _ = n.next_data_frame(8);
        assert!(n.handle_ack(&MacFrame::Ack {
            dst: NodeId(1),
            seq: 0
        }));
        assert!(!n.handle_ack(&MacFrame::Ack {
            dst: NodeId(9),
            seq: 0
        }));
        assert_eq!(n.sent(), 1);
        assert_eq!(n.acked(), 1);
    }

    #[test]
    fn payload_clamped_to_max() {
        let mut n = Peripheral::new(NodeId(1), 11, 0);
        if let MacFrame::Data { payload, .. } = n.next_data_frame(10_000) {
            assert_eq!(payload.len(), MAX_PAYLOAD);
        } else {
            panic!("expected data frame");
        }
    }

    #[test]
    #[should_panic]
    fn hub_address_rejected() {
        Peripheral::new(NodeId::HUB, 11, 0);
    }
}
