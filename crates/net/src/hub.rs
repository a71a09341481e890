//! The star network's hub: receives data, acknowledges it, and issues
//! FH/PC announcements decided by an anti-jamming strategy upstream.

use crate::frame::{MacFrame, NodeId};

/// One duplicate-detection slot per possible [`NodeId`].
const NODE_SLOTS: usize = u8::MAX as usize + 1;

/// The hub node.
///
/// # Example
///
/// ```
/// use ctjam_net::hub::Hub;
/// use ctjam_net::frame::{MacFrame, NodeId};
///
/// let mut hub = Hub::new(11, 0);
/// let data = MacFrame::Data { src: NodeId(1), seq: 0, payload: vec![1, 2] };
/// let ack = hub.handle_data(&data).unwrap();
/// assert_eq!(ack, MacFrame::Ack { dst: NodeId(1), seq: 0 });
/// assert_eq!(hub.delivered(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hub {
    channel: u8,
    power_level: u8,
    delivered: u64,
    duplicates: u64,
    payload_bytes: u64,
    /// Sequence number of each node's last delivery, indexed by
    /// `NodeId.0`.
    last_seq: [Option<u16>; NODE_SLOTS],
}

impl Hub {
    /// Creates a hub on `channel` with power level index `power_level`.
    pub fn new(channel: u8, power_level: u8) -> Self {
        Hub {
            channel,
            power_level,
            delivered: 0,
            duplicates: 0,
            payload_bytes: 0,
            last_seq: [None; NODE_SLOTS],
        }
    }

    /// Current channel.
    pub fn channel(&self) -> u8 {
        self.channel
    }

    /// Current power level index.
    pub fn power_level(&self) -> u8 {
        self.power_level
    }

    /// Unique data frames delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Duplicate data frames discarded.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Total payload bytes delivered (goodput numerator).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Processes a received data frame, returning the ACK to send back,
    /// or `None` for non-data frames.
    ///
    /// Retransmissions (same `(src, seq)` as the previous delivery) are
    /// acknowledged but counted as duplicates, not goodput.
    pub fn handle_data(&mut self, frame: &MacFrame) -> Option<MacFrame> {
        if let MacFrame::Data { src, seq, payload } = frame {
            let last = &mut self.last_seq[usize::from(src.0)];
            if *last == Some(*seq) {
                self.duplicates += 1;
            } else {
                *last = Some(*seq);
                self.delivered += 1;
                self.payload_bytes += payload.len() as u64;
            }
            Some(MacFrame::Ack {
                dst: *src,
                seq: *seq,
            })
        } else {
            None
        }
    }

    /// Adopts a new channel/power decision (made by the anti-jamming
    /// strategy) and returns the per-node announcements to poll out.
    pub fn announce(&mut self, channel: u8, power_level: u8, nodes: &[NodeId]) -> Vec<MacFrame> {
        self.channel = channel;
        self.power_level = power_level;
        nodes
            .iter()
            .map(|&dst| MacFrame::Negotiate {
                dst,
                channel,
                power_level,
            })
            .collect()
    }

    /// Clears per-slot counters while keeping radio state (used between
    /// experiment repetitions).
    pub fn reset_counters(&mut self) {
        self.delivered = 0;
        self.duplicates = 0;
        self.payload_bytes = 0;
        self.last_seq = [None; NODE_SLOTS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_and_duplicate_accounting() {
        let mut hub = Hub::new(11, 0);
        let data = MacFrame::Data {
            src: NodeId(1),
            seq: 5,
            payload: vec![0; 10],
        };
        assert!(hub.handle_data(&data).is_some());
        assert!(hub.handle_data(&data).is_some()); // retransmission
        assert_eq!(hub.delivered(), 1);
        assert_eq!(hub.duplicates(), 1);
        assert_eq!(hub.payload_bytes(), 10);
    }

    #[test]
    fn different_nodes_tracked_independently() {
        let mut hub = Hub::new(11, 0);
        // The extremes of the address space get slots of their own.
        for node in [0, 1, 2, 3, 255] {
            hub.handle_data(&data(node, 0));
        }
        assert_eq!(hub.delivered(), 5);
        assert_eq!(hub.duplicates(), 0);
        for node in [0, 255] {
            hub.handle_data(&data(node, 0));
        }
        assert_eq!(hub.duplicates(), 2);
    }

    fn data(src: u8, seq: u16) -> MacFrame {
        MacFrame::Data {
            src: NodeId(src),
            seq,
            payload: vec![0; 3],
        }
    }

    #[test]
    fn duplicates_detected_per_node_across_interleaved_sources() {
        let mut hub = Hub::new(11, 0);
        // Interleaved streams: each node's retransmission is a duplicate
        // even though another node delivered in between, and equal
        // sequence numbers from different nodes are not.
        let frames = [
            (1, 0),
            (2, 0),
            (1, 0),
            (3, 0),
            (2, 0),
            (1, 1),
            (2, 1),
            (1, 1),
        ];
        for (src, seq) in frames {
            hub.handle_data(&data(src, seq));
        }
        assert_eq!(hub.delivered(), 5);
        assert_eq!(hub.duplicates(), 3);
        assert_eq!(hub.payload_bytes(), 15);
        // Only the last delivery counts: going back to an older sequence
        // number is a new delivery, not a duplicate.
        hub.handle_data(&data(1, 0));
        assert_eq!(hub.delivered(), 6);
    }

    #[test]
    fn non_data_frames_ignored() {
        let mut hub = Hub::new(11, 0);
        assert!(hub
            .handle_data(&MacFrame::Ack {
                dst: NodeId(1),
                seq: 0
            })
            .is_none());
        assert_eq!(hub.delivered(), 0);
    }

    #[test]
    fn announce_updates_state_and_addresses_every_node() {
        let mut hub = Hub::new(11, 0);
        let nodes = [NodeId(1), NodeId(2)];
        let frames = hub.announce(20, 9, &nodes);
        assert_eq!(hub.channel(), 20);
        assert_eq!(hub.power_level(), 9);
        assert_eq!(frames.len(), 2);
        assert_eq!(
            frames[1],
            MacFrame::Negotiate {
                dst: NodeId(2),
                channel: 20,
                power_level: 9
            }
        );
    }

    #[test]
    fn reset_clears_counters_not_radio() {
        let mut hub = Hub::new(11, 3);
        for src in [0, 1, 255] {
            hub.handle_data(&data(src, 4));
        }
        hub.reset_counters();
        assert_eq!(hub, Hub::new(11, 3));
        assert_eq!(hub.delivered(), 0);
        assert_eq!(hub.payload_bytes(), 0);
        assert_eq!(hub.channel(), 11);
        assert_eq!(hub.power_level(), 3);
        // The last sequence numbers are forgotten too: a repeat of a
        // pre-reset frame is a new delivery.
        hub.handle_data(&data(255, 4));
        assert_eq!((hub.delivered(), hub.duplicates()), (1, 0));
    }
}
