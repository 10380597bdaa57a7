//! Sender pacing under the mux: the send schedule, not the timer, sets
//! the rate.
//!
//! 1. **Golden schedule** — a seeded 1-sender, 4-receiver NP session
//!    behind 5 % drop injection, driven turn by turn under a
//!    [`VirtualClock`], reproduces `tests/golden/mux_pacing_schedule.txt`
//!    datagram for datagram: virtual time, endpoint, direction and the
//!    decoded (type, group, index, round). The file was recorded before
//!    the mux anchored its Pace timers to the send schedule; stored
//!    decoded, it survives wire-format changes.
//! 2. **Oversleep** — a clock that lands a fixed δ past every deadline
//!    (timer slack) must not stretch the mean gap when δ is within the
//!    catch-up credit, and must not cause bursts when it is beyond it.
//! 3. **Sub-tick spacings** — spacings the 50 µs tick does not divide
//!    keep their configured rate on average.

use std::time::Duration;

use parity_multicast::mux::{Mux, MuxClock, MuxConfig, VirtualClock};
use parity_multicast::net::{
    FaultConfig, FaultyTransport, MemHub, Message, PollTransport, Transcript, TranscriptTransport,
};
use parity_multicast::protocol::runtime::RuntimeConfig;
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender};

/// Read access to one endpoint's shared transcript.
type Log = Box<dyn Fn(&mut dyn FnMut(&Transcript))>;

fn log_of<T: PollTransport>(tp: &TranscriptTransport<T>) -> Log {
    let shared = tp.transcript();
    Box::new(move |f| f(&shared.lock()))
}

fn payload(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
        .collect()
}

fn np_cfg(receivers: u32, payload_len: usize) -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(receivers));
    c.k = 20;
    c.h = 40;
    c.payload_len = payload_len;
    c.nak_slot = 0.001;
    c
}

fn rt(spacing_us: u64) -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(spacing_us),
        stall_timeout: Duration::from_secs(5),
        complete_linger: Duration::from_millis(250),
        ..RuntimeConfig::default()
    }
}

/// Mux time in whole nanoseconds (virtual times sit on the tick grid, so
/// rounding is exact).
fn ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

/// One timestamped, decoded datagram of an endpoint's transcript.
struct Stamped {
    t_ns: u64,
    endpoint: String,
    tx: bool,
    msg: Message,
}

impl Stamped {
    /// `t_ns endpoint dir type group index round`, `-` for a field the
    /// message does not carry.
    fn line(&self) -> String {
        let dash = || "-".to_string();
        let (kind, group, index, round) = match &self.msg {
            Message::Packet {
                group, index, k, ..
            } => {
                let kind = if index < k { "data" } else { "parity" };
                (kind, group.to_string(), index.to_string(), dash())
            }
            Message::Poll { group, round, .. } => {
                ("poll", group.to_string(), dash(), round.to_string())
            }
            Message::Nak { group, round, .. } => {
                ("nak", group.to_string(), dash(), round.to_string())
            }
            Message::NakPacket { group, index, .. } => {
                ("nak_packet", group.to_string(), index.to_string(), dash())
            }
            Message::Announce { .. } => ("announce", dash(), dash(), dash()),
            Message::Done { .. } => ("done", dash(), dash(), dash()),
            Message::Fin { .. } => ("fin", dash(), dash(), dash()),
            Message::FecFrame { block, index, .. } => {
                ("fec_frame", block.to_string(), index.to_string(), dash())
            }
        };
        let dir = if self.tx { "tx" } else { "rx" };
        format!(
            "{} {} {dir} {kind} {group} {index} {round}",
            self.t_ns, self.endpoint
        )
    }
}

/// Stamps each endpoint's newly transcribed datagrams with the mux clock
/// after every turn. A turn that sends or receives anything never moves
/// the clock (the mux only advances time on an empty turn), so the stamp
/// is the instant of the I/O.
struct Stamper {
    endpoints: Vec<(String, Log, usize, usize)>,
    out: Vec<Stamped>,
}

impl Stamper {
    fn new() -> Self {
        Stamper {
            endpoints: Vec::new(),
            out: Vec::new(),
        }
    }

    fn watch(&mut self, name: &str, log: Log) {
        self.endpoints.push((name.to_string(), log, 0, 0));
    }

    fn stamp(&mut self, now: f64) {
        let out = &mut self.out;
        for (name, log, seen_tx, seen_rx) in &mut self.endpoints {
            log(&mut |t: &Transcript| {
                for (tx, seen, all) in [
                    (true, &mut *seen_tx, &t.sent),
                    (false, &mut *seen_rx, &t.received),
                ] {
                    for bytes in &all[*seen..] {
                        out.push(Stamped {
                            t_ns: ns(now),
                            endpoint: name.clone(),
                            tx,
                            msg: Message::decode(bytes.clone())
                                .expect("transcribed datagram decodes"),
                        });
                    }
                    *seen = all.len();
                }
            });
        }
    }
}

/// Drive `mux` to empty with `turn_once`, stamping after every turn.
fn drive<C: MuxClock>(mux: &mut Mux<Box<dyn PollTransport>, C>, stamper: &mut Stamper) {
    let mut turns = 0u64;
    while !mux.is_empty() {
        mux.turn_once();
        stamper.stamp(mux.clock().now());
        turns += 1;
        assert!(turns < 10_000_000, "mux failed to drain");
    }
    for (tok, out) in mux.take_outcomes() {
        assert!(out.is_ok(), "session {tok:?} failed: {:?}", out.err());
    }
}

fn golden_schedule() -> Vec<String> {
    const RECEIVERS: u32 = 4;
    let mut mux: Mux<Box<dyn PollTransport>, VirtualClock> =
        Mux::new(MuxConfig::default(), VirtualClock::new());
    let mut stamper = Stamper::new();
    let hub = MemHub::new();
    let data = payload(100 * 64);
    let sender_tp = TranscriptTransport::new(Box::new(hub.join()) as Box<dyn PollTransport>);
    stamper.watch("s", log_of(&sender_tp));
    mux.add_sender(
        NpSender::new(5, &data, np_cfg(RECEIVERS, 64)).expect("valid config"),
        Box::new(sender_tp),
        rt(100),
    );
    for r in 0..RECEIVERS {
        let faulty =
            FaultyTransport::new(hub.join(), FaultConfig::drop_only(0.05), 0x601D + r as u64);
        let tp = TranscriptTransport::new(Box::new(faulty) as Box<dyn PollTransport>);
        stamper.watch(&format!("r{r}"), log_of(&tp));
        mux.add_receiver(
            NpReceiver::new(50 + r, 5, 0.001, 17 + r as u64),
            Box::new(tp),
            rt(100),
        );
    }
    drive(&mut mux, &mut stamper);
    stamper.out.iter().map(Stamped::line).collect()
}

#[test]
fn virtual_clock_schedule_matches_the_golden_recording() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/mux_pacing_schedule.txt"
    );
    let got = golden_schedule();
    assert!(
        got.iter().any(|l| l.contains(" parity ")),
        "the seeded losses must exercise repairs"
    );
    let want = std::fs::read_to_string(path).expect("golden file present");
    let want: Vec<&str> = want.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "golden schedule diverges at datagram {i}");
    }
    assert_eq!(got.len(), want.len(), "datagram count differs from golden");
}

/// A virtual clock with timer slack: every `advance_to` lands `slack`
/// past the requested deadline, as a wall-clock nap oversleeps.
struct OversleepClock {
    inner: VirtualClock,
    slack: f64,
}

impl MuxClock for OversleepClock {
    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn advance_to(&mut self, deadline: f64) {
        self.inner.advance_to(deadline + self.slack);
    }
}

/// A lossless 1000-data-packet transfer at `spacing_us`; returns the
/// sender's transmissions as (time ns, message).
fn paced_sends<C: MuxClock>(clock: C, spacing_us: u64) -> Vec<(u64, Message)> {
    let mut mux: Mux<Box<dyn PollTransport>, C> = Mux::new(MuxConfig::default(), clock);
    let mut stamper = Stamper::new();
    let hub = MemHub::new();
    let data = payload(1000 * 32);
    let sender_tp = TranscriptTransport::new(Box::new(hub.join()) as Box<dyn PollTransport>);
    stamper.watch("s", log_of(&sender_tp));
    mux.add_sender(
        NpSender::new(1, &data, np_cfg(1, 32)).expect("valid config"),
        Box::new(sender_tp),
        rt(spacing_us),
    );
    mux.add_receiver(
        NpReceiver::new(10, 1, 0.001, 3),
        Box::new(hub.join()),
        rt(spacing_us),
    );
    drive(&mut mux, &mut stamper);
    let sends: Vec<(u64, Message)> = stamper
        .out
        .into_iter()
        .filter(|s| s.tx)
        .map(|s| (s.t_ns, s.msg))
        .collect();
    let data_sends = sends.iter().filter(|(_, m)| is_data(m)).count();
    assert_eq!(data_sends, 1000, "lossless: every data packet once");
    sends
}

fn is_data(m: &Message) -> bool {
    matches!(m, Message::Packet { index, k, .. } if index < k)
}

/// From the first to the last data send: (span in ns, paced sends in the
/// span). Every send in between is paced — the data packets plus one
/// poll per group — so the span should be `(sends - 1) × spacing`.
fn data_span(sends: &[(u64, Message)]) -> (u64, u64) {
    let first = sends.iter().position(|(_, m)| is_data(m)).unwrap();
    let last = sends.iter().rposition(|(_, m)| is_data(m)).unwrap();
    (sends[last].0 - sends[first].0, (last - first + 1) as u64)
}

const TICK_NS: u64 = 50_000;

#[test]
fn oversleep_within_the_credit_keeps_the_configured_rate() {
    let clock = OversleepClock {
        inner: VirtualClock::new(),
        slack: 60e-6,
    };
    let sends = paced_sends(clock, 100);
    let (span, n) = data_span(&sends);
    let want = (n - 1) * 100_000;
    assert!(
        span.abs_diff(want) <= 100_000,
        "{n} paced sends spanned {span} ns, want {want} ns ± one spacing \
         (re-arming from the fire tick adds the slack to every gap)"
    );
}

#[test]
fn oversleep_beyond_the_credit_never_bursts() {
    let clock = OversleepClock {
        inner: VirtualClock::new(),
        slack: 250e-6,
    };
    let sends = paced_sends(clock, 100);
    let data: Vec<u64> = sends
        .iter()
        .filter(|(_, m)| is_data(m))
        .map(|&(t, _)| t)
        .collect();
    for w in data.windows(2) {
        assert!(
            w[1] - w[0] >= TICK_NS,
            "data sends {} ns and {} ns are less than one tick apart",
            w[0],
            w[1]
        );
    }
}

#[test]
fn spacings_the_tick_does_not_divide_keep_their_rate() {
    for spacing_us in [80, 30] {
        let sends = paced_sends(VirtualClock::new(), spacing_us);
        let (span, n) = data_span(&sends);
        let want = (n - 1) * spacing_us * 1000;
        assert!(
            span.abs_diff(want) <= TICK_NS,
            "{spacing_us} µs spacing: {n} paced sends spanned {span} ns, want {want} ns ± one tick"
        );
    }
}
