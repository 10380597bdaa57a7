//! Wrappers that observe each layer from outside, through its public
//! trait: transports (`Transport` / `PollTransport`), protocol machines
//! (`SenderMachine` / `ReceiverMachine`), the mux clock (`MuxClock`) and
//! the telemetry sink (`Recorder`). Each one forwards every call unchanged
//! and records a span and work counts around it.
//!
//! [`FaultProbe`] is the one wrapper untraced runs use too: it only
//! publishes the injector's counters when the mux drops the transport.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pm_core::error::ProtocolError;
use pm_core::runtime::{ReceiverMachine, SenderMachine};
use pm_core::{CostCounters, NpReceiver, NpSender, ReceiverAction, SenderStep};
use pm_mux::MuxClock;
use pm_net::{FaultStats, FaultyTransport, Message, NetError, PollTransport, Transport};
use pm_obs::{Event, Histogram, Recorder};
use pm_rse::CacheStats;

use crate::trace::{self, Layer, NO_SESSION};

/// A shared list that wrappers publish their final counters into when
/// the mux drops them.
pub type Sink<T> = Arc<Mutex<Vec<T>>>;

/// A new empty [`Sink`].
pub fn sink<T>() -> Sink<T> {
    Arc::new(Mutex::new(Vec::new()))
}

fn publish<T>(sink: &Sink<T>, value: T) {
    // A poisoned sink means a benchmark thread panicked; the run is lost
    // anyway, and Drop must not panic.
    if let Ok(mut v) = sink.lock() {
        v.push(value);
    }
}

/// What a [`Tap`] records besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapRole {
    /// The mux polls this transport directly: count polls and hits.
    pub facing: bool,
    /// This transport is the endpoint: time wire encode/decode on a copy
    /// of every message and count datagrams and bytes.
    pub wire: bool,
    /// This is a sender's transport: record inter-packet send gaps.
    pub pace: bool,
}

/// Traced transport wrapper.
pub struct Tap<T> {
    inner: T,
    session: u32,
    role: TapRole,
    last_packet: Option<Instant>,
}

impl<T> Tap<T> {
    pub fn new(inner: T, session: u32, role: TapRole) -> Self {
        Tap {
            inner,
            session,
            role,
            last_packet: None,
        }
    }

    fn after_send(&mut self, msg: &Message, ok: bool) {
        if self.role.pace && ok && matches!(msg, Message::Packet { .. }) {
            let now = Instant::now();
            if let Some(prev) = self.last_packet.replace(now) {
                let gap = now.duration_since(prev).as_nanos() as u64;
                trace::count(|c| c.pace_gaps.push(gap));
            }
        }
        if self.role.wire {
            // The copy's encode stands for the encode inside `send`.
            let bytes = trace::span(Layer::Trace, self.session, || {
                trace::span(Layer::WireEnc, self.session, || {
                    std::hint::black_box(msg.encode()).len()
                })
            });
            trace::count(|c| {
                c.dgrams_sent += 1;
                c.bytes_sent += bytes as u64;
            });
        }
    }

    fn after_recv(&self, got: &Result<Option<Message>, NetError>) {
        if self.role.facing {
            let hit = !matches!(got, Ok(None));
            trace::count(|c| {
                c.polls += 1;
                c.poll_hits += u64::from(hit);
            });
        }
        if let (true, Ok(Some(msg))) = (self.role.wire, got) {
            // The copy's decode stands for the decode inside the receive.
            trace::span(Layer::Trace, self.session, || {
                let raw = msg.encode();
                trace::span(Layer::WireDec, self.session, || {
                    std::hint::black_box(Message::decode(raw)).is_ok()
                })
            });
            trace::count(|c| c.dgrams_recv += 1);
        }
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let r = trace::span(Layer::Send, self.session, || self.inner.send(msg));
        self.after_send(msg, r.is_ok());
        r
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        let r = trace::span(Layer::Recv, self.session, || {
            self.inner.recv_timeout(timeout)
        });
        self.after_recv(&r);
        r
    }
}

impl<T: PollTransport> PollTransport for Tap<T> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        let r = trace::span(Layer::Recv, self.session, || self.inner.poll_recv());
        self.after_recv(&r);
        r
    }
}

/// A [`FaultyTransport`] that publishes its fault counters when dropped.
pub struct FaultProbe<T: Transport> {
    inner: FaultyTransport<T>,
    sink: Sink<FaultStats>,
}

impl<T: Transport> FaultProbe<T> {
    pub fn new(inner: FaultyTransport<T>, sink: Sink<FaultStats>) -> Self {
        FaultProbe { inner, sink }
    }
}

impl<T: Transport> Drop for FaultProbe<T> {
    fn drop(&mut self) {
        publish(&self.sink, self.inner.stats());
    }
}

impl<T: Transport> Transport for FaultProbe<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.inner.send(msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        self.inner.recv_timeout(timeout)
    }
}

impl<T: Transport> PollTransport for FaultProbe<T> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        self.inner.poll_recv()
    }
}

/// Reads a machine's codec timer after each call and records the codec
/// time it gained as an `Rse` child span of the call.
struct CodecTimer {
    hist: Histogram,
    count: u64,
    sum: u64,
}

impl CodecTimer {
    fn new() -> Self {
        CodecTimer {
            hist: Histogram::new(),
            count: 0,
            sum: 0,
        }
    }

    /// New (calls, ns) since the last look, recorded as a span.
    fn take(&mut self, session: u32) -> Option<(u64, u64)> {
        let count = self.hist.count();
        if count == self.count {
            return None;
        }
        let sum = self.hist.snapshot().sum;
        let delta = (count - self.count, sum.saturating_sub(self.sum));
        self.count = count;
        self.sum = sum;
        trace::synthetic(Layer::Rse, session, delta.1);
        Some(delta)
    }
}

fn core_call() {
    trace::count(|c| c.core_calls += 1);
}

/// Traced [`NpSender`]; publishes its per-receiver state size when dropped.
pub struct TracedSender {
    machine: NpSender,
    session: u32,
    encode: CodecTimer,
    state_sink: Sink<f64>,
}

impl TracedSender {
    pub fn new(mut machine: NpSender, session: u32, state_sink: Sink<f64>) -> Self {
        let encode = CodecTimer::new();
        machine.set_encode_timer(encode.hist.clone());
        TracedSender {
            machine,
            session,
            encode,
            state_sink,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut NpSender) -> R) -> R {
        core_call();
        let idx = trace::enter(Layer::Core, self.session);
        let r = f(&mut self.machine);
        if let Some((n, ns)) = self.encode.take(self.session) {
            trace::count(|c| {
                c.rse_enc += n;
                c.rse_enc_ns += ns;
            });
        }
        trace::exit(idx);
        r
    }
}

impl Drop for TracedSender {
    fn drop(&mut self) {
        publish(&self.state_sink, self.machine.state_bytes_per_receiver());
    }
}

impl SenderMachine for TracedSender {
    fn next_step(&mut self, now: f64) -> SenderStep {
        self.timed(|m| m.next_step(now))
    }
    fn handle(&mut self, msg: &Message, now: f64) -> Result<(), ProtocolError> {
        self.timed(|m| m.handle(msg, now))
    }
    fn is_finished(&self) -> bool {
        core_call();
        self.machine.is_finished()
    }
    fn counters(&self) -> &CostCounters {
        core_call();
        self.machine.counters()
    }
    fn done_count(&self) -> usize {
        core_call();
        self.machine.done_count()
    }
    fn done_ids(&self) -> Vec<u32> {
        core_call();
        trace::span(Layer::Core, self.session, || self.machine.done_ids())
    }
    fn outstanding(&self) -> u32 {
        core_call();
        self.machine.outstanding()
    }
    fn evict_outstanding(&mut self) -> u32 {
        self.timed(|m| m.evict_outstanding())
    }
    fn state_bytes(&self) -> usize {
        core_call();
        self.machine.state_bytes()
    }
}

/// Traced [`NpReceiver`]; publishes its decode-cache counters when dropped.
pub struct TracedReceiver {
    machine: NpReceiver,
    session: u32,
    decode: CodecTimer,
    cache_sink: Sink<CacheStats>,
}

impl TracedReceiver {
    pub fn new(mut machine: NpReceiver, session: u32, cache_sink: Sink<CacheStats>) -> Self {
        let decode = CodecTimer::new();
        machine.set_decode_timer(decode.hist.clone());
        TracedReceiver {
            machine,
            session,
            decode,
            cache_sink,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut NpReceiver) -> R) -> R {
        core_call();
        let idx = trace::enter(Layer::Core, self.session);
        let r = f(&mut self.machine);
        if let Some((n, ns)) = self.decode.take(self.session) {
            trace::count(|c| {
                c.rse_dec += n;
                c.rse_dec_ns += ns;
            });
        }
        trace::exit(idx);
        r
    }
}

impl Drop for TracedReceiver {
    fn drop(&mut self) {
        publish(&self.cache_sink, self.machine.decode_cache_stats());
    }
}

impl ReceiverMachine for TracedReceiver {
    fn handle(&mut self, msg: &Message, now: f64) -> Result<Vec<ReceiverAction>, ProtocolError> {
        self.timed(|m| ReceiverMachine::handle(m, msg, now))
    }
    fn on_timer(&mut self, now: f64) -> Vec<ReceiverAction> {
        self.timed(|m| ReceiverMachine::on_timer(m, now))
    }
    fn next_deadline(&self) -> Option<f64> {
        core_call();
        ReceiverMachine::next_deadline(&self.machine)
    }
    fn is_complete(&self) -> bool {
        core_call();
        ReceiverMachine::is_complete(&self.machine)
    }
    fn fin_seen(&self) -> bool {
        core_call();
        ReceiverMachine::fin_seen(&self.machine)
    }
    fn take_data(&self) -> Result<Vec<u8>, ProtocolError> {
        core_call();
        trace::span(Layer::Core, self.session, || {
            ReceiverMachine::take_data(&self.machine)
        })
    }
    fn counters(&self) -> &CostCounters {
        core_call();
        ReceiverMachine::counters(&self.machine)
    }
}

/// Traced mux clock: time inside `advance_to` is the mux's idle time.
pub struct TracedClock<C> {
    inner: C,
}

impl<C> TracedClock<C> {
    pub fn new(inner: C) -> Self {
        TracedClock { inner }
    }
}

impl<C: MuxClock> MuxClock for TracedClock<C> {
    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn advance_to(&mut self, deadline: f64) {
        trace::span(Layer::Idle, NO_SESSION, || self.inner.advance_to(deadline));
    }
}

/// Traced telemetry sink.
pub struct TracedRecorder {
    inner: Arc<dyn Recorder>,
}

impl TracedRecorder {
    pub fn new(inner: Arc<dyn Recorder>) -> Self {
        TracedRecorder { inner }
    }
}

impl Recorder for TracedRecorder {
    fn record(&self, t: f64, event: &Event) {
        trace::count(|c| c.obs_events += 1);
        trace::span(Layer::Obs, NO_SESSION, || self.inner.record(t, event));
    }

    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }
}
