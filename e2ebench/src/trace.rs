//! The benchmark's span tracer.
//!
//! Spans are opened and closed by the wrappers in [`crate::probe`] around
//! calls into each layer; every span records its layer, start, end, parent
//! span and session. Spans live in memory: every so often (between mux
//! turns, when no span is open) the tracer folds the accumulated spans
//! into per-layer self times with [`self_times`], keeps the first batch of
//! raw spans for writing out when the run ends, and starts over. The fold
//! itself is timed so the driver can take it out of the traced wall time.
//!
//! The tracer is thread-local: the whole benchmark drives its sessions on
//! one thread, and a thread-local keeps the wrappers `Send` without a lock.

use std::cell::RefCell;
use std::time::Instant;

/// The layers spans are attributed to, named after the repository's crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `pm-mux`: `Mux::turn_once` plus `Mux::take_outcomes`.
    Mux,
    /// `pm-mux` pacing: time inside `MuxClock::advance_to`.
    Idle,
    /// `pm-core`: calls into `SenderMachine` / `ReceiverMachine`.
    Core,
    /// `pm-rse`: parity encode / group decode, read from the machines'
    /// encode and decode timers (a synthetic child of the `Core` span).
    Rse,
    /// `pm-net` transports: `Transport::send`.
    Send,
    /// `pm-net` transports: `PollTransport::poll_recv` / `recv_timeout`.
    Recv,
    /// `pm-net` wire: encoding a copy of a message the transport sent.
    WireEnc,
    /// `pm-net` wire: decoding a copy of a datagram the transport received.
    WireDec,
    /// `pm-obs`: `Recorder::record`.
    Obs,
    /// The tracer's own duplicate work (preparing the wire copies).
    Trace,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 10;

impl Layer {
    /// Index into per-layer arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short name used in the written span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Mux => "mux",
            Layer::Idle => "mux.idle",
            Layer::Core => "core",
            Layer::Rse => "rse",
            Layer::Send => "transport.send",
            Layer::Recv => "transport.recv",
            Layer::WireEnc => "wire.encode",
            Layer::WireDec => "wire.decode",
            Layer::Obs => "obs",
            Layer::Trace => "trace",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Session id of a span that belongs to no session (a mux turn).
pub const NO_SESSION: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch;
/// `parent` indexes the span list the span was recorded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub session: u32,
}

impl Span {
    fn dur(&self) -> i64 {
        self.end.saturating_sub(self.start) as i64
    }
}

/// Self time per layer of a span list, plus the time its root spans cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Per [`Layer::index`]: span time minus the time of direct children.
    pub self_ns: [i64; LAYERS],
    /// Total duration of root spans (spans without a parent).
    pub root_ns: i64,
}

impl LayerTimes {
    fn add(&mut self, other: &LayerTimes) {
        for (a, b) in self.self_ns.iter_mut().zip(other.self_ns) {
            *a += b;
        }
        self.root_ns += other.root_ns;
    }

    /// Self time of one layer.
    pub fn get(&self, layer: Layer) -> i64 {
        self.self_ns[layer.index()]
    }
}

/// A layer's self time is its span's duration minus the durations of its
/// direct children; parents must precede their children in `spans`.
pub fn self_times(spans: &[Span]) -> LayerTimes {
    let mut out = LayerTimes::default();
    for s in spans {
        let d = s.dur();
        out.self_ns[s.layer.index()] += d;
        if s.parent == NO_PARENT {
            out.root_ns += d;
        } else {
            let parent = spans[s.parent as usize].layer;
            out.self_ns[parent.index()] -= d;
        }
    }
    out
}

/// Work counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Mux turns driven.
    pub turns: u64,
    /// `poll_recv` calls the mux made.
    pub polls: u64,
    /// Of those, calls that returned a datagram or an error.
    pub poll_hits: u64,
    /// Datagrams the endpoints received (before fault injection); each
    /// one's copy is decoded for wire timing.
    pub dgrams_recv: u64,
    /// Datagrams the endpoints sent; each one's copy is encoded for wire
    /// timing.
    pub dgrams_sent: u64,
    /// Bytes the endpoints sent, as encoded on the wire.
    pub bytes_sent: u64,
    /// Calls into the protocol machines (timed or not).
    pub core_calls: u64,
    /// Parities encoded and groups decoded, from the machines' timers.
    pub rse_enc: u64,
    pub rse_dec: u64,
    pub rse_enc_ns: u64,
    pub rse_dec_ns: u64,
    /// Events recorded through `Recorder::record`.
    pub obs_events: u64,
    /// Wall-clock gaps between consecutive packet sends of one sender (ns).
    pub pace_gaps: Vec<u64>,
}

/// Spans of one fold window plus the running per-layer ledger.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    ledger: LayerTimes,
    counts: Counts,
    kept: Vec<Span>,
    fold_ns: u64,
}

/// Spans per fold window; the fold runs between turns once this many
/// have accumulated.
const FOLD_AT: usize = 1 << 16;
/// Raw spans kept for writing out at the end of the run.
const KEEP: usize = 100_000;

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(FOLD_AT + 1024),
            stack: Vec::new(),
            ledger: LayerTimes::default(),
            counts: Counts::default(),
            kept: Vec::new(),
            fold_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fold(&mut self) {
        let t0 = Instant::now();
        self.ledger.add(&self_times(&self.spans));
        if self.kept.is_empty() {
            let n = self.spans.len().min(KEEP);
            self.kept.extend_from_slice(&self.spans[..n]);
        }
        self.spans.clear();
        self.fold_ns += t0.elapsed().as_nanos() as u64;
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Open a span; returns its index for [`exit`].
pub fn enter(layer: Layer, session: u32) -> u32 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let idx = t.spans.len() as u32;
        let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
        let start = t.now();
        t.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
            session,
        });
        t.stack.push(idx);
        idx
    })
}

/// Close the span `idx` returned by [`enter`].
pub fn exit(idx: u32) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end = t.now();
        t.spans[idx as usize].end = end;
        let top = t.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    })
}

/// Time `f` as a span of `layer`.
pub fn span<R>(layer: Layer, session: u32, f: impl FnOnce() -> R) -> R {
    let idx = enter(layer, session);
    let r = f();
    exit(idx);
    r
}

/// Record a child span of the innermost open span that ended just now and
/// lasted `dur_ns` (for work timed by the program's own timers).
pub fn synthetic(layer: Layer, session: u32, dur_ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
        let end = t.now();
        let start = end.saturating_sub(dur_ns);
        t.spans.push(Span {
            layer,
            start,
            end,
            parent,
            session,
        });
    })
}

/// Update the work counts.
pub fn count(f: impl FnOnce(&mut Counts)) {
    TRACER.with(|t| f(&mut t.borrow_mut().counts));
}

/// Fold the spans recorded so far into the ledger if enough have
/// accumulated. Call only between turns, when no span is open.
pub fn maybe_fold() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.spans.len() >= FOLD_AT && t.stack.is_empty() {
            t.fold();
        }
    })
}

/// What the tracer accumulated since the last [`reset`].
#[derive(Debug, Clone, Default)]
pub struct TraceTotals {
    pub times: LayerTimes,
    pub counts: Counts,
    /// Time spent folding spans (tracer bookkeeping inside the driving
    /// window, to be taken out of the traced wall time).
    pub fold_ns: u64,
}

/// Fold what is left and return the totals since the last [`reset`].
pub fn totals() -> TraceTotals {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "totals taken with a span open");
        t.fold();
        TraceTotals {
            times: t.ledger,
            counts: t.counts.clone(),
            fold_ns: t.fold_ns,
        }
    })
}

/// Clear the ledger, counts and fold time (kept spans stay).
pub fn reset() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.spans.clear();
        t.stack.clear();
        t.ledger = LayerTimes::default();
        t.counts = Counts::default();
        t.fold_ns = 0;
    })
}

/// The raw spans kept from the first fold window.
pub fn kept_spans() -> Vec<Span> {
    TRACER.with(|t| t.borrow().kept.clone())
}
