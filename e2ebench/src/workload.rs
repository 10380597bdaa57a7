//! The four workloads and the driver of one batch: every session admitted
//! before the first turn, then `Mux::turn_once` + `Mux::take_outcomes`
//! until the mux is empty.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_core::{
    CompletionPolicy, CostCounters, NpConfig, NpReceiver, NpSender, ResiliencePolicy, RuntimeConfig,
};
use pm_mux::{Mux, MuxClock, MuxConfig, SessionOutcome, VirtualClock, WallClock};
use pm_net::{
    FarmHub, FarmRole, FarmStats, FaultConfig, FaultStats, FaultyTransport, MemHub, PollTransport,
};
use pm_obs::{MetricsRegistry, Obs, Recorder, Role, WindowConfig, WindowTelemetry};
use pm_par::{mix_seed, splitmix64};
use pm_rse::CacheStats;

use crate::probe::{
    sink, FaultProbe, Sink, Tap, TapRole, TracedClock, TracedReceiver, TracedRecorder, TracedSender,
};
use crate::sysinfo;
use crate::trace::{self, Layer, TraceTotals, NO_SESSION};

/// Data packets per transmission group (the paper's k).
pub const K: usize = 20;
/// Parities available per group (n = 255).
pub const H: usize = 235;
/// Payload bytes per packet (P).
pub const PAYLOAD: usize = 1024;
/// NAK suppression slot width, seconds.
pub const NAK_SLOT: f64 = 0.002;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MemCeiling,
    MemLossR16,
    UdpPaced,
    UdpFarm,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Concurrent sessions in one batch.
    pub sessions: u32,
    /// Receivers per session (R).
    pub receivers: u32,
    /// Input bytes per session.
    pub bytes: usize,
    /// Receive-side drop probability injected at every receiver (p).
    pub drop: f64,
    /// Loopback UDP (`FarmHub`) under `WallClock`; otherwise `MemHub`
    /// under `VirtualClock`.
    pub udp: bool,
    /// Mux metrics plus windowed telemetry on, as `file_multicast
    /// --export` runs a farm.
    pub telemetry: bool,
    /// Times one batch sets up: its own sessions plus `setups - 1` sets
    /// dropped undriven, so that a workload with few batches per run
    /// still samples `setup_s` often.
    pub setups: u32,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MemCeiling,
        Workload::MemLossR16,
        Workload::UdpPaced,
        Workload::UdpFarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemCeiling => "mem_ceiling",
            Workload::MemLossR16 => "mem_loss_r16",
            Workload::UdpPaced => "udp_paced",
            Workload::UdpFarm => "udp_farm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        const MIB: usize = 1 << 20;
        match self {
            Workload::MemCeiling => Spec {
                sessions: 1,
                receivers: 1,
                bytes: 8 * MIB,
                drop: 0.0,
                udp: false,
                telemetry: false,
                setups: 1,
            },
            Workload::MemLossR16 => Spec {
                sessions: 1,
                receivers: 16,
                bytes: 2 * MIB,
                drop: 0.05,
                udp: false,
                telemetry: false,
                setups: 1,
            },
            Workload::UdpPaced => Spec {
                sessions: 1,
                receivers: 1,
                bytes: 8 * MIB,
                drop: 0.01,
                udp: true,
                telemetry: false,
                setups: 4,
            },
            Workload::UdpFarm => Spec {
                sessions: 256,
                receivers: 1,
                bytes: 256 * 1024,
                drop: 0.01,
                udp: true,
                telemetry: true,
                setups: 4,
            },
        }
    }
}

impl Spec {
    /// Transmission groups per session.
    pub fn groups_per_session(&self) -> u64 {
        self.bytes.div_ceil(K * PAYLOAD) as u64
    }
}

/// NP at the ROADMAP operating point, with `file_multicast`'s timing.
pub fn np_config(receivers: u32) -> NpConfig {
    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(receivers));
    cfg.k = K;
    cfg.h = H;
    cfg.payload_len = PAYLOAD;
    cfg.nak_slot = NAK_SLOT;
    cfg.round_timeout = 0.2;
    cfg
}

/// `file_multicast`'s driver timing: 100 µs packet spacing.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(100),
        stall_timeout: Duration::from_secs(15),
        complete_linger: Duration::from_millis(300),
        resilience: ResiliencePolicy::default(),
    }
}

/// The input of session `session` in a batch seeded `seed`: `len`
/// pseudo-random bytes, regenerated (not stored) for verification.
pub fn session_input(seed: u64, session: u32, len: usize) -> Vec<u8> {
    let mut state = mix_seed(seed, u64::from(session));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = splitmix64(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Per-layer extras of a traced batch.
#[derive(Debug, Clone, Default)]
pub struct TraceExtras {
    pub totals: TraceTotals,
    /// `mux.session_drives` histogram: p50 and max drive passes.
    pub drives_p50: u64,
    pub drives_max: u64,
    /// `mux.session_queue_depth` histogram: sum and count.
    pub queue_depth_sum: u64,
    pub queue_depth_count: u64,
    /// Per-receiver sender state at session end, one value per sender.
    pub state_bytes: Vec<f64>,
    pub cache: CacheStats,
}

/// Everything measured and checked in one batch.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Set-up times of the program (senders, endpoints, sockets, mux),
    /// one per set-up of this batch ([`Spec::setups`]). The benchmark's
    /// own input generation is not counted.
    pub setups_s: Vec<f64>,
    /// First turn to the last receiver outcome (traced: minus tracer
    /// bookkeeping).
    pub drive_s: f64,
    /// On-CPU time of the process over the same window.
    pub cpu_ns: u64,
    /// Per-receiver completion times, ms from the first turn.
    pub completions_ms: Vec<f64>,
    /// Input bytes delivered intact to every receiver of their session.
    pub bytes_delivered: u64,
    pub receivers: u64,
    pub receivers_failed: u64,
    /// Human-readable failures (receivers and senders).
    pub failures: Vec<String>,
    /// Sender-side and receiver-side counters, summed over sessions.
    pub sender: CostCounters,
    pub receiver: CostCounters,
    pub groups: u64,
    pub fault: FaultStats,
    pub farm: Option<FarmStats>,
    pub rcvbuf_drops: u64,
    pub trace: Option<TraceExtras>,
}

impl Batch {
    /// Packets the senders transmitted (data + repair).
    pub fn packets_sent(&self) -> u64 {
        self.sender.packets_sent()
    }

    /// Goodput in MiB/s.
    pub fn goodput_mib_s(&self) -> f64 {
        self.bytes_delivered as f64 / self.drive_s / (1u64 << 20) as f64
    }

    /// On-CPU µs per transmitted packet.
    pub fn cpu_us_per_pkt(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.packets_sent().max(1) as f64
    }
}

/// Run one batch of `workload` seeded `seed`, traced or not.
pub fn run_batch(workload: Workload, seed: u64, traced: bool) -> Batch {
    let spec = workload.spec();
    match (spec.udp, traced) {
        (false, false) => drive(spec, seed, false, VirtualClock::new),
        (false, true) => drive(spec, seed, true, || TracedClock::new(VirtualClock::new())),
        (true, false) => drive(spec, seed, false, WallClock::new),
        (true, true) => drive(spec, seed, true, || TracedClock::new(WallClock::new())),
    }
}

type Transport = Box<dyn PollTransport>;

fn boxed<T: PollTransport + 'static>(t: T) -> Transport {
    Box::new(t)
}

/// Wrap `t` in a [`Tap`] when tracing; otherwise return it unchanged.
fn tap(t: Transport, traced: bool, session: u32, role: TapRole) -> Transport {
    if traced {
        boxed(Tap::new(t, session, role))
    } else {
        t
    }
}

fn fault_seed(seed: u64, receiver: u64) -> u64 {
    mix_seed(seed ^ 0xFA17, receiver)
}

fn receiver_seed(seed: u64, receiver: u64) -> u64 {
    mix_seed(seed ^ 0x0EC5, receiver)
}

/// One batch set up and ready to drive.
struct Rig<C: MuxClock> {
    mux: Mux<Transport, C>,
    farm: Option<FarmHub>,
    registry: MetricsRegistry,
    faults: Sink<FaultStats>,
    states: Sink<f64>,
    caches: Sink<CacheStats>,
    /// Mux slot -> session index, for receivers.
    receiver_of_slot: Vec<Option<u32>>,
    /// The program's set-up time, input generation not counted.
    setup_s: f64,
}

fn set_up<C: MuxClock>(spec: Spec, seed: u64, traced: bool, clock: C) -> Rig<C> {
    let setup = Instant::now();
    let mut input_gen = Duration::ZERO;
    let registry = MetricsRegistry::new();
    let telemetry = spec
        .telemetry
        .then(|| Arc::new(WindowTelemetry::new(WindowConfig::default())));
    let obs = match &telemetry {
        Some(tel) if traced => Obs::new(Arc::new(TracedRecorder::new(tel.clone()))),
        Some(tel) => Obs::new(tel.clone() as Arc<dyn Recorder>),
        None => Obs::null(),
    };
    let farm = spec.udp.then(|| {
        FarmHub::loopback()
            .expect("loopback UDP socket")
            .with_obs(obs.clone())
    });
    let mut mux: Mux<Transport, C> = Mux::new(MuxConfig::default(), clock).with_obs(obs.clone());
    if spec.telemetry || traced {
        mux.bind_metrics(&registry);
    }
    if let Some(tel) = &telemetry {
        mux.bind_telemetry(tel.clone());
    }
    let faults: Sink<FaultStats> = sink();
    let states: Sink<f64> = sink();
    let caches: Sink<CacheStats> = sink();
    let cfg = np_config(spec.receivers);
    let rt = runtime_config();
    let mut receiver_of_slot: Vec<Option<u32>> = Vec::new();
    for s in 0..spec.sessions {
        let id = 0xF000 + s;
        let gen = Instant::now();
        let data = session_input(seed, s, spec.bytes);
        input_gen += gen.elapsed();
        let sender = NpSender::new(id, &data, cfg.clone()).expect("valid NP config");
        drop(data);
        let (sender_ep, receiver_eps): (Transport, Vec<Transport>) = match &farm {
            Some(hub) => {
                assert_eq!(spec.receivers, 1, "a farm session has one receiver half");
                (
                    boxed(hub.endpoint(id, FarmRole::Sender).expect("farm sender")),
                    vec![boxed(
                        hub.endpoint(id, FarmRole::Receiver).expect("farm receiver"),
                    )],
                )
            }
            None => {
                let hub = MemHub::new();
                let sender_ep = boxed(hub.join());
                let eps = (0..spec.receivers).map(|_| boxed(hub.join())).collect();
                (sender_ep, eps)
            }
        };
        let all = TapRole {
            facing: true,
            wire: true,
            pace: true,
        };
        let sender_tp = tap(sender_ep, traced, id, all);
        if traced {
            mux.add_sender(TracedSender::new(sender, id, states.clone()), sender_tp, rt);
        } else {
            mux.add_sender(sender, sender_tp, rt);
        }
        for (r, ep) in receiver_eps.into_iter().enumerate() {
            let global = u64::from(s) * u64::from(spec.receivers) + r as u64;
            let lossy = spec.drop > 0.0;
            let endpoint = TapRole {
                facing: !lossy,
                wire: true,
                pace: false,
            };
            let inner = tap(ep, traced, id, endpoint);
            let transport = if lossy {
                let faulty = FaultyTransport::new(
                    inner,
                    FaultConfig::drop_only(spec.drop),
                    fault_seed(seed, global),
                );
                let facing = TapRole {
                    facing: true,
                    ..TapRole::default()
                };
                let probe = boxed(FaultProbe::new(faulty, faults.clone()));
                tap(probe, traced, id, facing)
            } else {
                inner
            };
            let machine = NpReceiver::new(r as u32, id, NAK_SLOT, receiver_seed(seed, global));
            let token = if traced {
                let machine = TracedReceiver::new(machine, id, caches.clone());
                mux.add_receiver(machine, transport, rt)
            } else {
                mux.add_receiver(machine, transport, rt)
            };
            if receiver_of_slot.len() <= token.slot() {
                receiver_of_slot.resize(token.slot() + 1, None);
            }
            receiver_of_slot[token.slot()] = Some(s);
        }
    }
    Rig {
        mux,
        farm,
        registry,
        faults,
        states,
        caches,
        receiver_of_slot,
        setup_s: (setup.elapsed() - input_gen).as_secs_f64(),
    }
}

fn drive<C: MuxClock>(spec: Spec, seed: u64, traced: bool, clock: impl Fn() -> C) -> Batch {
    // The extra set-ups only sample `setup_s`; they are dropped undriven.
    let mut setups_s: Vec<f64> = (1..spec.setups)
        .map(|_| set_up(spec, seed, traced, clock()).setup_s)
        .collect();
    let Rig {
        mut mux,
        farm,
        registry,
        faults,
        states,
        caches,
        receiver_of_slot,
        setup_s,
    } = set_up(spec, seed, traced, clock());
    setups_s.push(setup_s);

    // Driving.
    let expected = u64::from(spec.sessions) * u64::from(spec.receivers);
    let rcvbuf0 = if spec.udp {
        sysinfo::udp_rcvbuf_errors()
    } else {
        0
    };
    let mut outcomes = Vec::with_capacity(2 * spec.sessions as usize);
    let mut completions_ms = Vec::with_capacity(expected as usize);
    let mut trace_totals = None;
    let mut drive_s = 0.0;
    let mut cpu_ns = 0;
    if traced {
        trace::reset();
    }
    let cpu0 = sysinfo::cpu_ns();
    let t0 = Instant::now();
    while !mux.is_empty() {
        let outs = if traced {
            trace::count(|c| c.turns += 1);
            trace::span(Layer::Mux, NO_SESSION, || {
                mux.turn_once();
                mux.take_outcomes()
            })
        } else {
            mux.turn_once();
            mux.take_outcomes()
        };
        if !outs.is_empty() {
            let t = t0.elapsed().as_secs_f64();
            for (token, outcome) in outs {
                let is_receiver = match &outcome {
                    SessionOutcome::Receiver(_) => true,
                    SessionOutcome::Sender(_) => false,
                    SessionOutcome::Shed(rep) => rep.role == Role::Receiver,
                };
                if is_receiver {
                    completions_ms.push(t * 1e3);
                    if completions_ms.len() as u64 == expected {
                        cpu_ns = sysinfo::cpu_ns().saturating_sub(cpu0);
                        drive_s = t;
                        if traced {
                            let totals = trace::totals();
                            drive_s -= totals.fold_ns as f64 / 1e9;
                            trace_totals = Some(totals);
                        }
                    }
                }
                outcomes.push((token, outcome));
            }
        }
        if traced {
            trace::maybe_fold();
        }
    }
    let rcvbuf_drops = if spec.udp {
        sysinfo::udp_rcvbuf_errors().saturating_sub(rcvbuf0)
    } else {
        0
    };
    let farm_stats = farm.as_ref().map(FarmHub::stats);
    drop(mux);

    let mut batch = Batch {
        setups_s,
        drive_s,
        cpu_ns,
        completions_ms,
        receivers: expected,
        groups: spec.groups_per_session() * u64::from(spec.sessions),
        farm: farm_stats,
        rcvbuf_drops,
        ..Batch::default()
    };
    verify(&mut batch, spec, seed, &receiver_of_slot, outcomes);
    for f in faults.lock().expect("fault sink").iter() {
        batch.fault.dropped += f.dropped;
        batch.fault.delivered += f.delivered;
    }
    if let Some(totals) = trace_totals {
        let drives = registry.histogram("mux.session_drives").snapshot();
        let depth = registry.histogram("mux.session_queue_depth").snapshot();
        let mut cache = CacheStats::default();
        for c in caches.lock().expect("cache sink").iter() {
            cache.hits += c.hits;
            cache.misses += c.misses;
        }
        batch.trace = Some(TraceExtras {
            totals,
            drives_p50: drives.quantile(0.5),
            drives_max: drives.max,
            queue_depth_sum: depth.sum,
            queue_depth_count: depth.count,
            state_bytes: states.lock().expect("state sink").clone(),
            cache,
        });
    }
    batch
}

/// Check every receiver's bytes against its session's input and sum the
/// counters.
fn verify(
    batch: &mut Batch,
    spec: Spec,
    seed: u64,
    receiver_of_slot: &[Option<u32>],
    outcomes: Vec<(pm_net::Token, SessionOutcome)>,
) {
    let mut received: Vec<Vec<Vec<u8>>> = vec![Vec::new(); spec.sessions as usize];
    for (token, outcome) in outcomes {
        let session = receiver_of_slot.get(token.slot()).copied().flatten();
        match (outcome, session) {
            (SessionOutcome::Receiver(Ok(rep)), Some(s)) => {
                batch.receiver.merge(&rep.counters);
                received[s as usize].push(rep.data);
            }
            (SessionOutcome::Receiver(Err(e)), s) => {
                batch.receivers_failed += 1;
                batch
                    .failures
                    .push(format!("receiver of session {s:?}: {e}"));
            }
            (SessionOutcome::Sender(Ok(rep)), _) => batch.sender.merge(&rep.counters),
            (SessionOutcome::Sender(Err(e)), _) => {
                batch.failures.push(format!("sender {token:?}: {e}"));
            }
            (SessionOutcome::Shed(rep), _) => {
                if rep.role == Role::Receiver {
                    batch.receivers_failed += 1;
                }
                batch
                    .failures
                    .push(format!("{:?} {token:?} shed", rep.role));
            }
            (SessionOutcome::Receiver(Ok(_)), None) => {
                batch.receivers_failed += 1;
                batch
                    .failures
                    .push(format!("receiver {token:?} of no session"));
            }
        }
    }
    for (s, datas) in received.iter().enumerate() {
        let expected = session_input(seed, s as u32, spec.bytes);
        let good = datas.iter().filter(|d| **d == expected).count();
        let bad = datas.len() - good;
        if bad > 0 {
            batch.receivers_failed += bad as u64;
            batch
                .failures
                .push(format!("session {s}: {bad} receivers got wrong bytes"));
        }
        if good == spec.receivers as usize {
            batch.bytes_delivered += spec.bytes as u64;
        }
    }
}
