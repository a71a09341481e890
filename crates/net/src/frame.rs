//! MAC-layer frames carried inside ZigBee PHY PSDUs.
//!
//! The star network exchanges four frame kinds: data (peripheral → hub),
//! ACK (hub → peripheral), negotiation announcements (hub → peripherals,
//! carrying next-slot channel and power level), and negotiation
//! acknowledgements. Frames serialize into a PSDU with an 802.15.4-style
//! FCS so the full PHY stack can carry them.

use crate::fcs;
use ctjam_phy::zigbee::frame::{FrameError, PhyFrame, MAX_PSDU_LEN};
use std::fmt;

/// A node address within the star network (hub is [`NodeId::HUB`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u8);

impl NodeId {
    /// The hub's well-known address.
    pub const HUB: NodeId = NodeId(0);
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::HUB {
            write!(f, "hub")
        } else {
            write!(f, "node{}", self.0)
        }
    }
}

/// The MAC frame variants used by the star network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacFrame {
    /// Application data from a peripheral to the hub.
    Data {
        /// Sender.
        src: NodeId,
        /// Sequence number (wraps).
        seq: u16,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// Hub acknowledgement of a data frame.
    Ack {
        /// Original sender being acknowledged.
        dst: NodeId,
        /// Sequence number being acknowledged.
        seq: u16,
    },
    /// Hub → peripheral announcement of the next slot's channel and
    /// transmit power level (polling mode).
    Negotiate {
        /// Addressed peripheral.
        dst: NodeId,
        /// ZigBee channel (11..=26) to use next slot.
        channel: u8,
        /// Transmit power level index.
        power_level: u8,
    },
    /// Peripheral confirmation of a [`MacFrame::Negotiate`].
    NegotiateAck {
        /// Confirming peripheral.
        src: NodeId,
    },
}

/// Errors from MAC frame (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacError {
    /// The payload would overflow the PSDU limit.
    PayloadTooLong {
        /// Bytes requested.
        len: usize,
    },
    /// The FCS check failed (corrupted frame).
    BadFcs,
    /// The frame body is malformed (bad kind tag or truncated fields).
    Malformed,
    /// The PHY layer rejected the frame.
    Phy(FrameError),
}

impl fmt::Display for MacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacError::PayloadTooLong { len } => {
                write!(f, "payload of {len} bytes does not fit in a psdu")
            }
            MacError::BadFcs => write!(f, "frame check sequence mismatch"),
            MacError::Malformed => write!(f, "malformed mac frame body"),
            MacError::Phy(e) => write!(f, "phy error: {e}"),
        }
    }
}

impl std::error::Error for MacError {}

impl From<FrameError> for MacError {
    fn from(e: FrameError) -> Self {
        MacError::Phy(e)
    }
}

const KIND_DATA: u8 = 0x01;
const KIND_ACK: u8 = 0x02;
const KIND_NEGOTIATE: u8 = 0x03;
const KIND_NEGOTIATE_ACK: u8 = 0x04;

/// Bytes the FCS appends to a frame body.
const FCS_LEN: usize = 2;

/// Maximum application payload once MAC header (4 B) and FCS (2 B) are
/// accounted for.
pub const MAX_PAYLOAD: usize = MAX_PSDU_LEN - 6;

impl MacFrame {
    /// Serializes into a PSDU (body + FCS).
    ///
    /// # Errors
    ///
    /// Returns [`MacError::PayloadTooLong`] when a data payload exceeds
    /// [`MAX_PAYLOAD`].
    pub fn to_psdu(&self) -> Result<Vec<u8>, MacError> {
        let mut body = Vec::new();
        match self {
            MacFrame::Data { src, seq, payload } => {
                if payload.len() > MAX_PAYLOAD {
                    return Err(MacError::PayloadTooLong { len: payload.len() });
                }
                body.push(KIND_DATA);
                body.push(src.0);
                body.extend_from_slice(&seq.to_le_bytes());
                body.extend_from_slice(payload);
            }
            MacFrame::Ack { dst, seq } => {
                body.push(KIND_ACK);
                body.push(dst.0);
                body.extend_from_slice(&seq.to_le_bytes());
            }
            MacFrame::Negotiate {
                dst,
                channel,
                power_level,
            } => {
                body.push(KIND_NEGOTIATE);
                body.push(dst.0);
                body.push(*channel);
                body.push(*power_level);
            }
            MacFrame::NegotiateAck { src } => {
                body.push(KIND_NEGOTIATE_ACK);
                body.push(src.0);
            }
        }
        Ok(fcs::append_fcs(body))
    }

    /// Parses a PSDU, verifying the FCS.
    ///
    /// # Errors
    ///
    /// [`MacError::BadFcs`] on checksum failure, [`MacError::Malformed`]
    /// on an unknown kind tag or truncated fields.
    pub fn from_psdu(psdu: &[u8]) -> Result<Self, MacError> {
        let body = fcs::verify_and_strip(psdu).ok_or(MacError::BadFcs)?;
        let (&kind, rest) = body.split_first().ok_or(MacError::Malformed)?;
        match kind {
            KIND_DATA => {
                if rest.len() < 3 {
                    return Err(MacError::Malformed);
                }
                Ok(MacFrame::Data {
                    src: NodeId(rest[0]),
                    seq: u16::from_le_bytes([rest[1], rest[2]]),
                    payload: rest[3..].to_vec(),
                })
            }
            KIND_ACK => {
                if rest.len() != 3 {
                    return Err(MacError::Malformed);
                }
                Ok(MacFrame::Ack {
                    dst: NodeId(rest[0]),
                    seq: u16::from_le_bytes([rest[1], rest[2]]),
                })
            }
            KIND_NEGOTIATE => {
                if rest.len() != 3 {
                    return Err(MacError::Malformed);
                }
                Ok(MacFrame::Negotiate {
                    dst: NodeId(rest[0]),
                    channel: rest[1],
                    power_level: rest[2],
                })
            }
            KIND_NEGOTIATE_ACK => {
                if rest.len() != 1 {
                    return Err(MacError::Malformed);
                }
                Ok(MacFrame::NegotiateAck {
                    src: NodeId(rest[0]),
                })
            }
            _ => Err(MacError::Malformed),
        }
    }

    /// Wraps the frame in a full PHY frame (preamble/SFD/PHR/PSDU).
    ///
    /// # Errors
    ///
    /// Propagates serialization failures as [`MacError`].
    pub fn to_phy(&self) -> Result<PhyFrame, MacError> {
        Ok(PhyFrame::new(self.to_psdu()?)?)
    }

    /// Extracts a MAC frame from a received PHY frame.
    ///
    /// # Errors
    ///
    /// Same as [`MacFrame::from_psdu`].
    pub fn from_phy(phy: &PhyFrame) -> Result<Self, MacError> {
        MacFrame::from_psdu(phy.psdu())
    }

    /// Length in bytes of the PSDU [`MacFrame::to_psdu`] produces, without
    /// serializing: MAC header, payload and FCS. A data payload over
    /// [`MAX_PAYLOAD`] cannot be serialized and counts as a full
    /// [`MAX_PSDU_LEN`] PSDU.
    pub fn psdu_len(&self) -> usize {
        match self {
            MacFrame::Data { payload, .. } if payload.len() > MAX_PAYLOAD => MAX_PSDU_LEN,
            MacFrame::Data { payload, .. } => 4 + payload.len() + FCS_LEN,
            MacFrame::Ack { .. } | MacFrame::Negotiate { .. } => 4 + FCS_LEN,
            MacFrame::NegotiateAck { .. } => 2 + FCS_LEN,
        }
    }

    /// Over-the-air duration of this frame at the 250 kb/s PHY rate,
    /// including PHY overhead, in seconds.
    pub fn airtime_s(&self) -> f64 {
        let total_bytes = self.psdu_len() + ctjam_channel::per::PHY_OVERHEAD_BYTES;
        (total_bytes * 8) as f64 / ctjam_phy::zigbee::BIT_RATE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_roundtrip() {
        let frame = MacFrame::Data {
            src: NodeId(3),
            seq: 0xBEEF,
            payload: vec![9; 40],
        };
        let psdu = frame.to_psdu().unwrap();
        assert_eq!(MacFrame::from_psdu(&psdu).unwrap(), frame);
    }

    #[test]
    fn all_kinds_roundtrip() {
        let frames = [
            MacFrame::Data {
                src: NodeId(1),
                seq: 7,
                payload: vec![],
            },
            MacFrame::Ack {
                dst: NodeId(2),
                seq: 7,
            },
            MacFrame::Negotiate {
                dst: NodeId(3),
                channel: 15,
                power_level: 9,
            },
            MacFrame::NegotiateAck { src: NodeId(3) },
        ];
        for frame in frames {
            let psdu = frame.to_psdu().unwrap();
            assert_eq!(MacFrame::from_psdu(&psdu).unwrap(), frame);
        }
    }

    #[test]
    fn phy_roundtrip() {
        let frame = MacFrame::Data {
            src: NodeId(2),
            seq: 1,
            payload: b"sensor-reading".to_vec(),
        };
        let phy = frame.to_phy().unwrap();
        assert_eq!(MacFrame::from_phy(&phy).unwrap(), frame);
    }

    #[test]
    fn corrupted_psdu_rejected() {
        let frame = MacFrame::Ack {
            dst: NodeId(1),
            seq: 99,
        };
        let mut psdu = frame.to_psdu().unwrap();
        psdu[1] ^= 0x40;
        assert_eq!(MacFrame::from_psdu(&psdu), Err(MacError::BadFcs));
    }

    #[test]
    fn oversized_payload_rejected() {
        let frame = MacFrame::Data {
            src: NodeId(1),
            seq: 0,
            payload: vec![0; MAX_PAYLOAD + 1],
        };
        assert!(matches!(
            frame.to_psdu(),
            Err(MacError::PayloadTooLong { .. })
        ));
    }

    #[test]
    fn max_payload_fits_in_phy() {
        let frame = MacFrame::Data {
            src: NodeId(1),
            seq: 0,
            payload: vec![0xAB; MAX_PAYLOAD],
        };
        assert!(frame.to_phy().is_ok());
    }

    #[test]
    fn unknown_kind_is_malformed() {
        let psdu = fcs::append_fcs(vec![0x7F, 1, 2, 3]);
        assert_eq!(MacFrame::from_psdu(&psdu), Err(MacError::Malformed));
    }

    #[test]
    fn airtime_scales_with_payload() {
        let small = MacFrame::Data {
            src: NodeId(1),
            seq: 0,
            payload: vec![0; 10],
        };
        let large = MacFrame::Data {
            src: NodeId(1),
            seq: 0,
            payload: vec![0; 100],
        };
        assert!(large.airtime_s() > small.airtime_s());
        // 100 B payload + 4 B header + 2 B FCS + 6 B PHY = 112 B = 3.584 ms.
        assert!((large.airtime_s() - 0.003584).abs() < 1e-9);
    }

    /// The serializing airtime formula `airtime_s` replaced, kept as the
    /// reference it must match bit for bit.
    fn serialized_airtime_s(frame: &MacFrame) -> f64 {
        let psdu_len = frame.to_psdu().map(|p| p.len()).unwrap_or(MAX_PSDU_LEN);
        let total_bytes = psdu_len + ctjam_channel::per::PHY_OVERHEAD_BYTES;
        (total_bytes * 8) as f64 / ctjam_phy::zigbee::BIT_RATE
    }

    #[test]
    fn psdu_len_and_airtime_match_serialization_for_every_kind_and_length() {
        let mut frames = vec![
            MacFrame::Ack {
                dst: NodeId(255),
                seq: u16::MAX,
            },
            MacFrame::Negotiate {
                dst: NodeId(0),
                channel: 26,
                power_level: 9,
            },
            MacFrame::NegotiateAck { src: NodeId(7) },
        ];
        frames.extend((0..=MAX_PAYLOAD + 8).map(|len| MacFrame::Data {
            src: NodeId(len as u8),
            seq: len as u16,
            payload: vec![len as u8; len],
        }));
        for frame in &frames {
            let serialized = frame.to_psdu().map(|p| p.len()).unwrap_or(MAX_PSDU_LEN);
            assert_eq!(frame.psdu_len(), serialized, "{frame:?}");
            assert_eq!(
                frame.airtime_s().to_bits(),
                serialized_airtime_s(frame).to_bits(),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId::HUB.to_string(), "hub");
        assert_eq!(NodeId(4).to_string(), "node4");
    }
}
