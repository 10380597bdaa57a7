//! Shared-socket UDP farm transport: one descriptor, N sessions.
//!
//! The [`crate::udp::UdpHub`] gives every endpoint the whole multicast
//! feed and lets the protocol machines discard what is not theirs — fine
//! for a handful of sessions, quadratic in traffic for a farm. A
//! [`FarmHub`] instead owns **one non-blocking UDP socket** and
//! demultiplexes arriving datagrams by the wire header's session id (plus the
//! message's direction: data-plane kinds go to the session's receiver
//! half, feedback kinds to its sender half). One `Mux` can therefore
//! drive hundreds of sessions over a single descriptor, which is the
//! farm mode ROADMAP item 3 asks for.
//!
//! Datagrams that demux to **no registered session** — late packets from
//! a finished or shed session, strangers on the port — are counted and
//! dropped, never buffered: a shed session's state cannot be resurrected
//! by its own stragglers. Per-session queues are bounded
//! ([`FARM_QUEUE_CAP`]); overflow behaves like any other UDP loss (drop
//! newest, count), so farm memory stays proportional to the number of
//! *live* sessions no matter how hostile the port is.
//!
//! There is no reader thread: whichever endpoint polls first drains the
//! socket (budget-bounded) into everyone's queues, which is exactly the
//! event-driven mux's sweep pattern.

use std::collections::{BTreeMap, VecDeque};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use pm_obs::{Event, Obs, Stopwatch};

use crate::poll::PollTransport;
use crate::transport::{classify_recv_err, NetError, RecvClass, Transport};
use crate::wire::Message;

/// Maximum datagram we ever read (mirrors [`crate::udp`]).
const RECV_BUF: usize = 65_536;
/// Socket drains per `poll_recv` call: bounds the work one endpoint's
/// poll can do on everyone's behalf before returning to the sweep.
const DRAIN_BUDGET: usize = 256;
/// Bound on one session half's pending-datagram queue. Overflow is
/// dropped-and-counted exactly like kernel-buffer loss would be.
pub const FARM_QUEUE_CAP: usize = 8_192;

/// Which half of a session an endpoint serves. The demux routes
/// data-plane kinds (packets, polls, announce, FIN, FEC frames) to the
/// `Receiver` half and feedback kinds (NAKs, DONE) to the `Sender` half,
/// so the two halves of one session can share the socket without
/// stealing each other's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FarmRole {
    /// The session's sending half (receives feedback).
    Sender,
    /// A session's receiving half (receives the data plane).
    Receiver,
}

/// Which half of session `s` a message belongs to.
fn dest_role(msg: &Message) -> FarmRole {
    match msg {
        Message::Nak { .. } | Message::NakPacket { .. } | Message::Done { .. } => FarmRole::Sender,
        Message::Packet { .. }
        | Message::Poll { .. }
        | Message::Announce { .. }
        | Message::Fin { .. }
        | Message::FecFrame { .. } => FarmRole::Receiver,
    }
}

/// `dest_role` from a raw wire type byte (used to route datagrams whose
/// checksum failed but whose header is intact).
fn dest_role_of_type(ty: u8) -> FarmRole {
    // TYPE_NAK = 3, TYPE_NAK_PACKET = 4, TYPE_DONE = 6 (see wire.rs).
    match ty {
        3 | 4 | 6 => FarmRole::Sender,
        _ => FarmRole::Receiver,
    }
}

/// Counters a farm maintains about traffic it refused to deliver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Datagrams that demuxed to no registered `(session, role)` —
    /// strangers, or stragglers of finished/shed sessions.
    pub unknown_session: u64,
    /// Datagrams dropped because a session half's queue was full.
    pub queue_overflow: u64,
    /// Datagrams that were not ours at all (bad magic / truncated
    /// header); skipped silently, tallied here for diagnostics.
    pub foreign: u64,
}

struct FarmCore {
    socket: UdpSocket,
    peer: SocketAddr,
    queues: BTreeMap<(u32, FarmRole), VecDeque<Result<Message, NetError>>>,
    stats: FarmStats,
    /// First fatal socket error; once set, every endpoint's poll fails.
    fatal: Option<std::io::ErrorKind>,
    buf: Vec<u8>,
    obs: Obs,
    clock: Stopwatch,
}

impl FarmCore {
    /// Drain up to `DRAIN_BUDGET` datagrams from the socket into the
    /// per-session queues. Returns the first fatal error, if any.
    fn drain_socket(&mut self) -> Result<(), NetError> {
        if let Some(kind) = self.fatal {
            return Err(NetError::Io(kind.into()));
        }
        for _ in 0..DRAIN_BUDGET {
            match self.socket.recv_from(&mut self.buf) {
                Ok((len, _src)) => {
                    let raw = bytes::Bytes::copy_from_slice(&self.buf[..len]);
                    self.route(raw);
                }
                Err(e) => match classify_recv_err(&e) {
                    RecvClass::WouldBlock => break,
                    RecvClass::Transient => continue,
                    RecvClass::Fatal => {
                        self.fatal = Some(e.kind());
                        return Err(NetError::Io(e));
                    }
                },
            }
        }
        Ok(())
    }

    /// Demultiplex one raw datagram into a session queue, the unknown
    /// counter, or the foreign tally.
    fn route(&mut self, raw: bytes::Bytes) {
        // Header: magic u16 | version u8 | type u8 | cksum u32 | session u32.
        let header = |raw: &bytes::Bytes| -> Option<(u32, FarmRole)> {
            if raw.len() < 12 {
                return None;
            }
            let session = u32::from_be_bytes([raw[8], raw[9], raw[10], raw[11]]);
            Some((session, dest_role_of_type(raw[3])))
        };
        match Message::decode(raw.clone()) {
            Ok(msg) => {
                let key = (msg.session(), dest_role(&msg));
                self.deliver(key, Ok(msg));
            }
            // Ours but damaged in flight: the header's session claim is
            // the best routing information there is. The owning session's
            // resilience policy counts it; with no owner it is an unknown
            // drop like any other stray.
            Err(e @ NetError::Corrupt(_)) => match header(&raw) {
                Some(key) => self.deliver(key, Err(e)),
                None => self.count_unknown(0),
            },
            // Not our wire format at all.
            Err(_) => self.stats.foreign += 1,
        }
    }

    fn deliver(&mut self, key: (u32, FarmRole), item: Result<Message, NetError>) {
        match self.queues.get_mut(&key) {
            Some(q) => {
                if q.len() >= FARM_QUEUE_CAP {
                    self.stats.queue_overflow += 1;
                } else {
                    q.push_back(item);
                }
            }
            None => self.count_unknown(key.0),
        }
    }

    fn count_unknown(&mut self, session: u32) {
        self.stats.unknown_session += 1;
        self.obs
            .emit(self.clock.now(), || Event::FarmUnknownDrop { session });
    }
}

/// One non-blocking UDP socket shared by every session of a farm, with
/// wire-session-id demultiplexing. See the module docs.
pub struct FarmHub {
    core: Arc<Mutex<FarmCore>>,
}

impl FarmHub {
    /// Bind a non-blocking socket on `addr` (port 0 for ephemeral). Until
    /// [`FarmHub::set_peer`] is called, endpoints send to the socket's
    /// own address — the loopback-farm topology where every session's
    /// both halves share the descriptor.
    ///
    /// # Errors
    /// Propagates socket errors (bind, local-address lookup).
    pub fn bind(addr: SocketAddrV4) -> Result<Self, NetError> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        let peer = socket.local_addr()?;
        // An unspecified bind address is not a routable destination;
        // steer self-sends through loopback instead.
        let peer = match peer {
            SocketAddr::V4(v4) if v4.ip().is_unspecified() => {
                SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, v4.port()))
            }
            other => other,
        };
        Ok(FarmHub {
            core: Arc::new(Mutex::new(FarmCore {
                socket,
                peer,
                queues: BTreeMap::new(),
                stats: FarmStats::default(),
                fatal: None,
                buf: vec![0u8; RECV_BUF],
                obs: Obs::null(),
                clock: Stopwatch::start(),
            })),
        })
    }

    /// A loopback farm on an ephemeral port.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn loopback() -> Result<Self, NetError> {
        Self::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
    }

    /// Where endpoint sends go (defaults to the socket's own address).
    pub fn set_peer(&self, peer: SocketAddr) {
        self.core.lock().peer = peer;
    }

    /// The socket's local address.
    ///
    /// # Errors
    /// Propagates the socket's local-address lookup failure.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.core.lock().socket.local_addr()?)
    }

    /// Emit `farm_unknown_drop` events to `obs`.
    pub fn with_obs(self, obs: Obs) -> Self {
        self.core.lock().obs = obs;
        self
    }

    /// Register the `role` half of `session` and return its endpoint.
    /// Datagrams for the pair demux to it until the endpoint is dropped;
    /// after that they fall into the unknown-session counter.
    ///
    /// # Errors
    /// `NetError::Io(AlreadyExists)` if that half is already registered —
    /// two live transports demuxing the same key would split its traffic
    /// unpredictably.
    pub fn endpoint(&self, session: u32, role: FarmRole) -> Result<FarmEndpoint, NetError> {
        let mut core = self.core.lock();
        let key = (session, role);
        if core.queues.contains_key(&key) {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("farm session {session} {role:?} half already registered"),
            )));
        }
        core.queues.insert(key, VecDeque::new());
        Ok(FarmEndpoint {
            core: self.core.clone(),
            key,
        })
    }

    /// Refused-traffic counters (unknown-session, overflow, foreign).
    pub fn stats(&self) -> FarmStats {
        self.core.lock().stats
    }

    /// Session halves currently registered.
    pub fn len(&self) -> usize {
        self.core.lock().queues.len()
    }

    /// True when no session half is registered.
    pub fn is_empty(&self) -> bool {
        self.core.lock().queues.is_empty()
    }

    /// Raw send of `bytes` to the hub's peer, bypassing encode — lets
    /// tests and drills inject damaged or foreign datagrams on the wire.
    ///
    /// # Errors
    /// Propagates socket send errors.
    pub fn inject_raw(&self, bytes: &[u8]) -> Result<(), NetError> {
        let core = self.core.lock();
        core.socket.send_to(bytes, core.peer)?;
        Ok(())
    }
}

/// One `(session, role)` half of a [`FarmHub`]. Sends go out the shared
/// socket to the hub's peer address; receives are the datagrams the hub
/// demultiplexed to this half. Dropping the endpoint deregisters the
/// half: later datagrams for it are counted-and-dropped.
pub struct FarmEndpoint {
    core: Arc<Mutex<FarmCore>>,
    key: (u32, FarmRole),
}

impl FarmEndpoint {
    /// The session id this endpoint demuxes.
    pub fn session(&self) -> u32 {
        self.key.0
    }

    /// The session half this endpoint serves.
    pub fn role(&self) -> FarmRole {
        self.key.1
    }
}

impl Drop for FarmEndpoint {
    fn drop(&mut self) {
        self.core.lock().queues.remove(&self.key);
    }
}

impl Transport for FarmEndpoint {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let core = self.core.lock();
        let encoded = msg.encode();
        match core.socket.send_to(&encoded, core.peer) {
            Ok(_) => Ok(()),
            // Transient pushback (full socket buffer) surfaces as an I/O
            // error; the drivers' retry-with-backoff machinery owns it.
            Err(e) => Err(NetError::Io(e)),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        // pm-audit: allow(determinism-time): blocking recv deadline on a real transport, wall-clock by design
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.poll_recv()? {
                Some(msg) => return Ok(Some(msg)),
                None => {
                    // pm-audit: allow(determinism-time): blocking recv deadline on a real transport, wall-clock by design
                    if std::time::Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }
}

impl PollTransport for FarmEndpoint {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        let mut core = self.core.lock();
        // Serve from the queue first: the socket drain below may park a
        // fatal error that must not eat already-demuxed datagrams.
        if let Some(item) = core.queues.get_mut(&self.key).and_then(VecDeque::pop_front) {
            return item.map(Some);
        }
        core.drain_socket()?;
        match core.queues.get_mut(&self.key).and_then(VecDeque::pop_front) {
            Some(item) => item.map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> FarmHub {
        FarmHub::loopback().expect("loopback farm socket")
    }

    fn wait_recv(ep: &mut FarmEndpoint) -> Option<Message> {
        ep.recv_timeout(Duration::from_secs(2)).expect("recv ok")
    }

    /// Poll `ep` (expecting nothing for it) until `pred` holds or ~2s.
    fn drain_until(ep: &mut FarmEndpoint, mut pred: impl FnMut() -> bool) -> bool {
        // pm-audit: allow(determinism-time): test polls a real socket
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !pred() {
            assert_eq!(ep.poll_recv().expect("poll ok"), None);
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    #[test]
    fn demuxes_by_session_and_direction() {
        let hub = hub();
        let mut s1 = hub.endpoint(1, FarmRole::Sender).unwrap();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        let mut r2 = hub.endpoint(2, FarmRole::Receiver).unwrap();

        // Session 1's sender transmits a control message: only session
        // 1's receiver half sees it.
        s1.send(&Message::Fin { session: 1 }).unwrap();
        assert_eq!(wait_recv(&mut r1), Some(Message::Fin { session: 1 }));
        assert_eq!(r2.poll_recv().unwrap(), None);

        // Session 1's receiver NAKs: it routes to the sender half, not
        // back to the receiver.
        let nak = Message::Nak {
            session: 1,
            group: 0,
            needed: 2,
            round: 1,
        };
        r1.send(&nak).unwrap();
        assert_eq!(wait_recv(&mut s1), Some(nak));
        assert_eq!(r1.poll_recv().unwrap(), None);
        assert_eq!(hub.stats().unknown_session, 0);
    }

    #[test]
    fn unknown_session_datagrams_are_counted_and_dropped() {
        let hub = hub();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        r1.send(&Message::Fin { session: 99 }).unwrap();
        assert!(
            drain_until(&mut r1, || hub.stats().unknown_session == 1),
            "stray for unregistered session 99 must be counted"
        );
    }

    #[test]
    fn dropped_endpoint_turns_its_traffic_into_unknown_drops() {
        let hub = hub();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        let mut s1 = hub.endpoint(1, FarmRole::Sender).unwrap();
        s1.send(&Message::Fin { session: 1 }).unwrap();
        assert_eq!(wait_recv(&mut r1), Some(Message::Fin { session: 1 }));
        drop(r1);
        // Late traffic for the retired half must not resurrect it.
        s1.send(&Message::Fin { session: 1 }).unwrap();
        assert!(
            drain_until(&mut s1, || hub.stats().unknown_session == 1),
            "late datagram for retired half must be counted"
        );
        // Re-registering the half starts clean.
        let mut r1b = hub.endpoint(1, FarmRole::Receiver).unwrap();
        assert_eq!(r1b.poll_recv().unwrap(), None, "no resurrected backlog");
    }

    #[test]
    fn corrupt_datagrams_route_to_their_claimed_session() {
        let hub = hub();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        let mut raw = Message::Fin { session: 1 }.encode().to_vec();
        raw[5] ^= 0xFF; // damage the stored checksum; session claim stays 1
        hub.inject_raw(&raw).unwrap();
        // pm-audit: allow(determinism-time): test polls a real socket
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            match r1.poll_recv() {
                Err(e) => {
                    assert!(e.is_recoverable(), "corrupt is recoverable, got {e}");
                    break;
                }
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                other => panic!("expected Corrupt error, got {other:?}"),
            }
        }
        assert_eq!(hub.stats().unknown_session, 0);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let hub = hub();
        let _r = hub.endpoint(4, FarmRole::Receiver).unwrap();
        match hub.endpoint(4, FarmRole::Receiver) {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists),
            Err(other) => panic!("expected AlreadyExists, got {other:?}"),
            Ok(_) => panic!("duplicate registration must be rejected"),
        }
        // The other half is free.
        assert!(hub.endpoint(4, FarmRole::Sender).is_ok());
    }

    #[test]
    fn foreign_datagrams_are_skipped_silently() {
        let hub = hub();
        let mut r1 = hub.endpoint(1, FarmRole::Receiver).unwrap();
        hub.inject_raw(b"\x00\x00not ours").unwrap();
        assert!(
            drain_until(&mut r1, || hub.stats().foreign == 1),
            "foreign datagram must be tallied"
        );
        assert_eq!(hub.stats().unknown_session, 0);
    }
}
