//! Wire format (version 3).
//!
//! Every datagram carries one [`Message`]. Layout (all integers
//! big-endian):
//!
//! ```text
//!     0      2      3      4          8          12
//!     +------+------+------+----------+----------+------ ... ----+
//!     | MAGIC| VER  | TYPE | CKSUM    | SESSION  |  type body    |
//!     +------+------+------+----------+----------+------ ... ----+
//! ```
//!
//! `Packet` unifies data and parity: an FEC-block index `< k` is a data
//! packet, `>= k` a parity — receivers treat both uniformly, which is the
//! whole point of parity repair. Block geometry `(k, n)` rides in every
//! packet so receivers are stateless per group.
//!
//! ## Integrity (wire v3: CRC-32C)
//!
//! `CKSUM` is the CRC-32C (Castagnoli) of the *entire* datagram with the
//! checksum field itself taken as zero, stored big-endian. UDP's 16-bit
//! ones-complement checksum is optional (and absent on many paths);
//! relying on it left bit-flipped datagrams free to mis-parse into
//! valid-looking `Message`s. A checksum mismatch surfaces as the
//! *recoverable* [`NetError::Corrupt`]; the header magic guards against
//! foreign datagrams on the group, which stay a silent skip.
//!
//! What the digest guarantees:
//! - Damage confined to one byte, anywhere (the checksum field
//!   included), is always detected.
//! - Any burst of up to 32 bits — a non-zero XOR over at most four
//!   consecutive bytes — is always detected when it lies wholly outside
//!   the checksum field or wholly inside it. This is CRC-32C's burst
//!   property.
//! - A three- or four-byte burst that crosses an edge of the field
//!   splits into two pieces, one in the checked bytes and one in the
//!   stored digest, which the burst property does not cover. Like any
//!   other damage it slips through with probability `2^-32`.
//!
//! Why CRC-32C: the sender seals and every receiver verifies each
//! datagram, so the digest is paid twice per packet, and §5 of the paper
//! bounds NP's throughput by exactly this end-host per-packet work. Wire
//! v2's FNV-1a (`h = (h ^ b) * PRIME`) is one serial multiply per byte,
//! ≈1.5 µs over a 1 KiB packet, and was the largest per-packet cost of a
//! lossless transfer. CRC-32C has a stronger burst guarantee and runs on
//! the x86-64 SSE4.2 `crc32` instruction, 8 bytes per step (≈0.1 µs per
//! packet), with a slicing-by-8 table path elsewhere. The kernel lives in
//! `pm-simd` and is chosen once per process by its dispatch; every path
//! gives the same digest.
//!
//! Versions are not negotiated: corruption detection is load-bearing for
//! the hostile-network guarantees, so each change of the digest bumps the
//! version byte. Version 1 (no checksum; `SESSION` at offset 4) and
//! version 2 (the same layout, FNV-1a checksum) are not accepted. A group
//! that mixes v2 and v3 peers reads the other version's traffic as
//! damage: its digest does not match, so it is a recoverable
//! [`NetError::Corrupt`] and is counted and dropped like any damaged
//! datagram, just as v1 traffic read under v2.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::transport::NetError;

/// Wire magic: "PM".
pub const MAGIC: u16 = 0x504D;
/// Current protocol version. Bumped 1 → 2 when the integrity checksum
/// was inserted at offset 4 (v1 peers would mis-read every field after
/// the type byte, so the formats are deliberately incompatible), and
/// 2 → 3 when that checksum changed from FNV-1a to CRC-32C.
pub const VERSION: u8 = 3;
/// Fixed header bytes before the type-specific body:
/// magic(2) + version(1) + type(1) + checksum(4) + session(4).
pub const HEADER_LEN: usize = 12;
/// Maximum payload bytes carried by one packet (fits a UDP datagram with
/// ample headroom).
pub const MAX_PAYLOAD: usize = 60_000;

/// CRC-32C of a datagram split into its fixed header and the rest, with
/// the checksum field (header bytes `4..8`) taken as zero.
fn digest(mut head: [u8; HEADER_LEN], body: &[u8]) -> u32 {
    head[4..8].fill(0);
    pm_simd::crc32c(pm_simd::crc32c(0, &head), body)
}

/// Integrity digest of a full datagram: CRC-32C with the checksum field
/// (bytes `4..8`) taken as zero. Returns `None` for buffers too short to
/// carry the fixed header.
pub fn checksum_of(datagram: &[u8]) -> Option<u32> {
    let head: [u8; HEADER_LEN] = datagram.get(..HEADER_LEN)?.try_into().ok()?;
    Some(digest(head, &datagram[HEADER_LEN..]))
}

/// Recompute and install the checksum of a raw datagram in place.
///
/// A test/chaos utility: after hand-patching bytes of an encoded
/// datagram (to probe structural validation *past* the integrity layer),
/// call this to re-seal it. Buffers shorter than the fixed header are
/// left untouched.
pub fn reseal(datagram: &mut [u8]) {
    if let Some(sum) = checksum_of(datagram) {
        datagram[4..8].copy_from_slice(&sum.to_be_bytes());
    }
}

const TYPE_PACKET: u8 = 1;
const TYPE_POLL: u8 = 2;
const TYPE_NAK: u8 = 3;
const TYPE_NAK_PACKET: u8 = 4;
const TYPE_ANNOUNCE: u8 = 5;
const TYPE_DONE: u8 = 6;
const TYPE_FIN: u8 = 7;
const TYPE_FEC_FRAME: u8 = 8;

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A data (`index < k`) or parity (`index >= k`) packet of a
    /// transmission group.
    Packet {
        /// Session this packet belongs to.
        session: u32,
        /// Transmission-group number.
        group: u32,
        /// FEC-block index within the group (`0..n`).
        index: u16,
        /// Data packets per group.
        k: u16,
        /// FEC block size (data + maximum parities).
        n: u16,
        /// Payload bytes (equal length across one group).
        payload: Bytes,
    },
    /// Sender poll `POLL(group, sent)`: asks receivers for the number of
    /// packets they still need to decode `group`; `sent` is the number of
    /// packets transmitted in the just-finished round (the NAK slotting
    /// parameter `s`), `round` the round number.
    Poll {
        session: u32,
        group: u32,
        sent: u16,
        round: u16,
    },
    /// Receiver NAK `NAK(group, needed)` — protocol NP's per-group
    /// feedback: "I need `needed` more packets to decode `group`".
    Nak {
        session: u32,
        group: u32,
        needed: u16,
        round: u16,
    },
    /// Per-packet NAK — protocol N2's feedback: "retransmit packet `index`
    /// of `group`".
    NakPacket {
        session: u32,
        group: u32,
        index: u16,
    },
    /// Session announcement: geometry of the transfer.
    Announce {
        session: u32,
        /// Number of transmission groups.
        groups: u32,
        /// Data packets per full group.
        k: u16,
        /// FEC block size per group.
        n: u16,
        /// Data packets in the final (possibly short) group.
        last_k: u16,
        /// Payload size of every packet.
        payload_len: u32,
        /// Exact byte length of the transfer (strips final-packet padding).
        total_bytes: u64,
    },
    /// A receiver reports the whole session decoded.
    Done { session: u32, receiver: u32 },
    /// Sender closes the session.
    Fin { session: u32 },
    /// A frame of the transparent layered-FEC transport
    /// ([`crate::fec_layer::FecTransport`]): one slot of an FEC block whose
    /// payloads are *opaque inner datagrams* (length-prefixed and padded
    /// for data slots, raw parity bytes otherwise). `session` carries the
    /// sender tag that keeps concurrent senders' blocks apart.
    FecFrame {
        session: u32,
        /// Block sequence number of this sender.
        block: u32,
        /// Slot within the FEC block (`< k` data, `>= k` parity).
        index: u16,
        /// Data slots per block.
        k: u16,
        /// Block size (data + parities).
        n: u16,
        /// Padded inner datagram or parity bytes.
        payload: Bytes,
    },
}

impl Message {
    /// Session id of any message.
    pub fn session(&self) -> u32 {
        match *self {
            Message::Packet { session, .. }
            | Message::Poll { session, .. }
            | Message::Nak { session, .. }
            | Message::NakPacket { session, .. }
            | Message::Announce { session, .. }
            | Message::Done { session, .. }
            | Message::Fin { session }
            | Message::FecFrame { session, .. } => session,
        }
    }

    /// Observability classification of this message. `Packet` splits into
    /// data vs parity by FEC-block index, like the protocol does.
    pub fn obs_kind(&self) -> pm_obs::MsgKind {
        use pm_obs::MsgKind;
        match self {
            Message::Packet { index, k, .. } => {
                if index < k {
                    MsgKind::Data
                } else {
                    MsgKind::Parity
                }
            }
            Message::Poll { .. } => MsgKind::Poll,
            Message::Nak { .. } => MsgKind::Nak,
            Message::NakPacket { .. } => MsgKind::NakPacket,
            Message::Announce { .. } => MsgKind::Announce,
            Message::Done { .. } => MsgKind::Done,
            Message::Fin { .. } => MsgKind::Fin,
            Message::FecFrame { .. } => MsgKind::FecFrame,
        }
    }

    fn type_byte(&self) -> u8 {
        match self {
            Message::Packet { .. } => TYPE_PACKET,
            Message::Poll { .. } => TYPE_POLL,
            Message::Nak { .. } => TYPE_NAK,
            Message::NakPacket { .. } => TYPE_NAK_PACKET,
            Message::Announce { .. } => TYPE_ANNOUNCE,
            Message::Done { .. } => TYPE_DONE,
            Message::Fin { .. } => TYPE_FIN,
            Message::FecFrame { .. } => TYPE_FEC_FRAME,
        }
    }

    /// Encode into a fresh buffer, sealed with the integrity checksum.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64);
        b.put_u16(MAGIC);
        b.put_u8(VERSION);
        b.put_u8(self.type_byte());
        b.put_u32(0); // checksum placeholder, sealed below
        b.put_u32(self.session());
        match self {
            Message::Packet {
                group,
                index,
                k,
                n,
                payload,
                ..
            } => {
                b.put_u32(*group);
                b.put_u16(*index);
                b.put_u16(*k);
                b.put_u16(*n);
                // pm-audit: allow(lossy-cast): payload bounded far below 4 GiB
                b.put_u32(payload.len() as u32);
                b.extend_from_slice(payload);
            }
            Message::Poll {
                group, sent, round, ..
            } => {
                b.put_u32(*group);
                b.put_u16(*sent);
                b.put_u16(*round);
            }
            Message::Nak {
                group,
                needed,
                round,
                ..
            } => {
                b.put_u32(*group);
                b.put_u16(*needed);
                b.put_u16(*round);
            }
            Message::NakPacket { group, index, .. } => {
                b.put_u32(*group);
                b.put_u16(*index);
            }
            Message::Announce {
                groups,
                k,
                n,
                last_k,
                payload_len,
                total_bytes,
                ..
            } => {
                b.put_u32(*groups);
                b.put_u16(*k);
                b.put_u16(*n);
                b.put_u16(*last_k);
                b.put_u32(*payload_len);
                b.put_u64(*total_bytes);
            }
            Message::Done { receiver, .. } => {
                b.put_u32(*receiver);
            }
            Message::Fin { .. } => {}
            Message::FecFrame {
                block,
                index,
                k,
                n,
                payload,
                ..
            } => {
                b.put_u32(*block);
                b.put_u16(*index);
                b.put_u16(*k);
                b.put_u16(*n);
                // pm-audit: allow(lossy-cast): payload bounded far below 4 GiB
                b.put_u32(payload.len() as u32);
                b.extend_from_slice(payload);
            }
        }
        reseal(&mut b);
        b.freeze()
    }

    /// Decode one datagram. Total: never panics on arbitrary bytes.
    ///
    /// # Errors
    /// [`NetError::Decode`] on bad magic/version/type, truncation, or an
    /// over-size payload; [`NetError::Corrupt`] when the header carries
    /// our magic but the integrity checksum does not match (damaged in
    /// flight). Both are recoverable
    /// ([`NetError::is_recoverable`]).
    pub fn decode(mut buf: Bytes) -> Result<Message, NetError> {
        fn need(buf: &Bytes, n: usize, what: &'static str) -> Result<(), NetError> {
            if buf.remaining() < n {
                Err(NetError::Decode(format!("truncated {what}")))
            } else {
                Ok(())
            }
        }
        need(&buf, HEADER_LEN, "header")?;
        let mut head = [0u8; HEADER_LEN];
        head.copy_from_slice(&buf[..HEADER_LEN]);
        let [m0, m1, version, ty, c0, c1, c2, c3, s0, s1, s2, s3] = head;
        let magic = u16::from_be_bytes([m0, m1]);
        if magic != MAGIC {
            return Err(NetError::Decode(format!("bad magic {magic:#06x}")));
        }
        // Integrity comes before any other field: a flipped version/type
        // byte must read as corruption, not as a foreign datagram.
        let stored = u32::from_be_bytes([c0, c1, c2, c3]);
        let session = u32::from_be_bytes([s0, s1, s2, s3]);
        let computed = digest(head, &buf[HEADER_LEN..]);
        buf.advance(HEADER_LEN);
        if stored != computed {
            return Err(NetError::Corrupt(format!(
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        if version != VERSION {
            return Err(NetError::Decode(format!("unsupported version {version}")));
        }
        match ty {
            TYPE_PACKET => {
                need(&buf, 14, "packet header")?;
                let group = buf.get_u32();
                let index = buf.get_u16();
                let k = buf.get_u16();
                let n = buf.get_u16();
                let len = buf.get_u32() as usize;
                if len > MAX_PAYLOAD {
                    return Err(NetError::Decode(format!("payload {len} exceeds max")));
                }
                need(&buf, len, "payload")?;
                let payload = buf.split_to(len);
                if index >= n {
                    return Err(NetError::Decode(format!("index {index} >= n {n}")));
                }
                if k == 0 || k > n {
                    return Err(NetError::Decode(format!("bad geometry k={k} n={n}")));
                }
                Ok(Message::Packet {
                    session,
                    group,
                    index,
                    k,
                    n,
                    payload,
                })
            }
            TYPE_POLL => {
                need(&buf, 8, "poll")?;
                Ok(Message::Poll {
                    session,
                    group: buf.get_u32(),
                    sent: buf.get_u16(),
                    round: buf.get_u16(),
                })
            }
            TYPE_NAK => {
                need(&buf, 8, "nak")?;
                Ok(Message::Nak {
                    session,
                    group: buf.get_u32(),
                    needed: buf.get_u16(),
                    round: buf.get_u16(),
                })
            }
            TYPE_NAK_PACKET => {
                need(&buf, 6, "nak-packet")?;
                Ok(Message::NakPacket {
                    session,
                    group: buf.get_u32(),
                    index: buf.get_u16(),
                })
            }
            TYPE_ANNOUNCE => {
                need(&buf, 22, "announce")?;
                let groups = buf.get_u32();
                let k = buf.get_u16();
                let n = buf.get_u16();
                let last_k = buf.get_u16();
                let payload_len = buf.get_u32();
                let total_bytes = buf.get_u64();
                if k == 0 || k > n || last_k == 0 || last_k > k {
                    return Err(NetError::Decode(format!(
                        "bad announce geometry k={k} n={n} last_k={last_k}"
                    )));
                }
                Ok(Message::Announce {
                    session,
                    groups,
                    k,
                    n,
                    last_k,
                    payload_len,
                    total_bytes,
                })
            }
            TYPE_DONE => {
                need(&buf, 4, "done")?;
                Ok(Message::Done {
                    session,
                    receiver: buf.get_u32(),
                })
            }
            TYPE_FIN => Ok(Message::Fin { session }),
            TYPE_FEC_FRAME => {
                need(&buf, 14, "fec frame header")?;
                let block = buf.get_u32();
                let index = buf.get_u16();
                let k = buf.get_u16();
                let n = buf.get_u16();
                let len = buf.get_u32() as usize;
                if len > MAX_PAYLOAD {
                    return Err(NetError::Decode(format!("fec payload {len} exceeds max")));
                }
                need(&buf, len, "fec payload")?;
                let payload = buf.split_to(len);
                if index >= n || k == 0 || k > n {
                    return Err(NetError::Decode(format!(
                        "bad fec geometry index={index} k={k} n={n}"
                    )));
                }
                Ok(Message::FecFrame {
                    session,
                    block,
                    index,
                    k,
                    n,
                    payload,
                })
            }
            other => Err(NetError::Decode(format!("unknown message type {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Message) {
        let encoded = m.encode();
        let decoded = Message::decode(encoded).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(Message::Packet {
            session: 42,
            group: 7,
            index: 3,
            k: 5,
            n: 9,
            payload: Bytes::from_static(b"hello world"),
        });
        roundtrip(Message::Poll {
            session: 1,
            group: 2,
            sent: 20,
            round: 1,
        });
        roundtrip(Message::Nak {
            session: 1,
            group: 2,
            needed: 3,
            round: 2,
        });
        roundtrip(Message::NakPacket {
            session: 9,
            group: 0,
            index: 11,
        });
        roundtrip(Message::Announce {
            session: 5,
            groups: 100,
            k: 20,
            n: 60,
            last_k: 13,
            payload_len: 1024,
            total_bytes: 2_036_481,
        });
        roundtrip(Message::Done {
            session: 5,
            receiver: 17,
        });
        roundtrip(Message::Fin { session: 5 });
    }

    #[test]
    fn fec_frame_roundtrips() {
        roundtrip(Message::FecFrame {
            session: 0xBEEF,
            block: 42,
            index: 8,
            k: 7,
            n: 10,
            payload: Bytes::from_static(b"opaque inner datagram bytes"),
        });
    }

    #[test]
    fn fec_frame_rejects_bad_geometry() {
        let good = Message::FecFrame {
            session: 1,
            block: 1,
            index: 9,
            k: 7,
            n: 10,
            payload: Bytes::new(),
        }
        .encode();
        // Patch index beyond n (index lives right after block), then
        // re-seal so the structural check is what rejects it.
        let mut raw = good.to_vec();
        // header(12) + block(4) => index at offset 16.
        raw[16] = 0xFF;
        raw[17] = 0xFF;
        reseal(&mut raw);
        assert!(matches!(
            Message::decode(Bytes::from(raw)),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn empty_payload_roundtrips() {
        roundtrip(Message::Packet {
            session: 0,
            group: 0,
            index: 0,
            k: 1,
            n: 1,
            payload: Bytes::new(),
        });
    }

    #[test]
    fn rejects_foreign_datagrams() {
        assert!(matches!(
            Message::decode(Bytes::from_static(b"")),
            Err(NetError::Decode(_))
        ));
        assert!(matches!(
            Message::decode(Bytes::from_static(b"\x00\x00\x01\x01\x00\x00\x00\x00")),
            Err(NetError::Decode(_))
        ));
        // Right magic, wrong version, valid checksum: rejected as a
        // foreign (incompatible) datagram, not corruption.
        let mut bad = BytesMut::new();
        bad.put_u16(MAGIC);
        bad.put_u8(99);
        bad.put_u8(TYPE_FIN);
        bad.put_u32(0); // checksum placeholder
        bad.put_u32(0); // session
        reseal(&mut bad);
        assert!(matches!(
            Message::decode(bad.freeze()),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn single_byte_damage_is_always_caught() {
        let full = Message::Packet {
            session: 7,
            group: 3,
            index: 2,
            k: 4,
            n: 6,
            payload: Bytes::from_static(b"integrity matters"),
        }
        .encode();
        for pos in 0..full.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut raw = full.to_vec();
                raw[pos] ^= mask;
                let got = Message::decode(Bytes::from(raw));
                match got {
                    Err(e) => assert!(e.is_recoverable(), "flip at {pos}: {e}"),
                    Ok(m) => panic!("flip at {pos} mask {mask:#04x} mis-parsed as {m:?}"),
                }
            }
        }
    }

    #[test]
    fn damage_outside_magic_reads_as_corrupt() {
        let full = Message::Fin { session: 9 }.encode();
        // Any flip past the magic bytes must surface as Corrupt, so the
        // drivers can tell damaged own-traffic from foreign datagrams.
        for pos in 2..full.len() {
            let mut raw = full.to_vec();
            raw[pos] ^= 0x10;
            assert!(
                matches!(Message::decode(Bytes::from(raw)), Err(NetError::Corrupt(_))),
                "flip at {pos} should be Corrupt"
            );
        }
    }

    /// Wire v2 sealed this same layout with FNV-1a. A v3 reader must take
    /// such a datagram for damage — recoverable `Corrupt`, never a parsed
    /// `Message` — which is what a group mixing v2 and v3 peers sees.
    #[test]
    fn wire_v2_datagram_reads_as_damage() {
        /// The v2 digest: FNV-1a 32 with the checksum field taken as zero.
        fn fnv1a_v2(datagram: &[u8]) -> u32 {
            let mut h: u32 = 0x811C_9DC5;
            for (i, &b) in datagram.iter().enumerate() {
                let b = if (4..8).contains(&i) { 0 } else { b };
                h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
            }
            h
        }
        fn seal_v2(m: &Message) -> Vec<u8> {
            let mut raw = m.encode().to_vec();
            raw[2] = 2;
            let sum = fnv1a_v2(&raw);
            raw[4..8].copy_from_slice(&sum.to_be_bytes());
            raw
        }

        // The reference digest reproduces what the v2 encoder sent.
        assert_eq!(
            seal_v2(&Message::Fin { session: 9 }),
            [0x50, 0x4D, 2, 7, 0x51, 0xCF, 0x32, 0x66, 0, 0, 0, 9]
        );

        let messages = [
            Message::Packet {
                session: 7,
                group: 3,
                index: 2,
                k: 4,
                n: 6,
                payload: Bytes::from(vec![0x5A; 1024]),
            },
            Message::Poll {
                session: 7,
                group: 3,
                sent: 20,
                round: 1,
            },
            Message::Nak {
                session: 7,
                group: 3,
                needed: 2,
                round: 1,
            },
            Message::Announce {
                session: 7,
                groups: 410,
                k: 20,
                n: 255,
                last_k: 12,
                payload_len: 1024,
                total_bytes: 8 << 20,
            },
            Message::Done {
                session: 7,
                receiver: 1,
            },
            Message::Fin { session: 7 },
        ];
        for m in messages {
            match Message::decode(Bytes::from(seal_v2(&m))) {
                Err(NetError::Corrupt(_)) => {}
                Err(e) => panic!("v2 {m:?} should read as damage, got {e}"),
                Ok(parsed) => panic!("v2 {m:?} parsed as {parsed:?}"),
            }
        }
    }

    #[test]
    fn reseal_restores_decodability() {
        let full = Message::Done {
            session: 11,
            receiver: 4,
        }
        .encode();
        let mut raw = full.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0xAA; // damage the receiver id
        assert!(Message::decode(Bytes::from(raw.clone())).is_err());
        reseal(&mut raw);
        let reparsed = Message::decode(Bytes::from(raw)).unwrap();
        assert!(matches!(reparsed, Message::Done { .. }));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = Message::Packet {
            session: 1,
            group: 2,
            index: 0,
            k: 3,
            n: 5,
            payload: Bytes::from_static(b"abcdef"),
        }
        .encode();
        for cut in 0..full.len() {
            let sliced = full.slice(0..cut);
            assert!(
                Message::decode(sliced).is_err(),
                "cut at {cut} of {} should fail",
                full.len()
            );
        }
    }

    #[test]
    fn rejects_bad_geometry() {
        // index >= n
        let mut b = BytesMut::new();
        b.put_u16(MAGIC);
        b.put_u8(VERSION);
        b.put_u8(TYPE_PACKET);
        b.put_u32(0); // checksum placeholder
        b.put_u32(0); // session
        b.put_u32(0); // group
        b.put_u16(9); // index
        b.put_u16(3); // k
        b.put_u16(5); // n
        b.put_u32(0); // payload len
        reseal(&mut b);
        assert!(Message::decode(b.freeze()).is_err());
        // k > n in announce
        let mut b = BytesMut::new();
        b.put_u16(MAGIC);
        b.put_u8(VERSION);
        b.put_u8(TYPE_ANNOUNCE);
        b.put_u32(0); // checksum placeholder
        b.put_u32(0); // session
        b.put_u32(1); // groups
        b.put_u16(9); // k
        b.put_u16(5); // n
        b.put_u16(1); // last_k
        b.put_u32(16);
        b.put_u64(16);
        reseal(&mut b);
        assert!(Message::decode(b.freeze()).is_err());
    }

    #[test]
    fn checksum_helpers() {
        assert_eq!(checksum_of(&[0u8; 4]), None);
        let enc = Message::Fin { session: 1 }.encode();
        let stored = u32::from_be_bytes([enc[4], enc[5], enc[6], enc[7]]);
        assert_eq!(checksum_of(&enc), Some(stored));
        // Resealing an already-sealed datagram is a no-op.
        let mut raw = enc.to_vec();
        reseal(&mut raw);
        assert_eq!(&raw[..], &enc[..]);
    }

    #[test]
    fn session_accessor() {
        assert_eq!(Message::Fin { session: 77 }.session(), 77);
        assert_eq!(
            Message::Done {
                session: 3,
                receiver: 1
            }
            .session(),
            3
        );
    }
}
