//! Metrics of a run: end-to-end (from untraced batches) and per-layer
//! (from traced batches), and the JSON they are printed as.

use crate::run::{em_of, Run};
use crate::stats::{median, quantile, supports_percentile};
use crate::sysinfo;
use crate::trace::{Layer, LayerTimes};
use crate::workload::Batch;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // Undefined ratios (nothing to divide by on this workload) read 0.
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name, value, unit }
}

/// `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics listed in `BENCHMARK.json`, from the untraced
/// batches (the warm-up batch is excluded from timings).
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let b = &run.untraced;
    let completions = completions(b);
    vec![
        m(
            "goodput_mib_s",
            median(&b.iter().map(Batch::goodput_mib_s).collect::<Vec<_>>()),
            "MiB/s",
        ),
        m(
            "cpu_us_per_pkt",
            median(&b.iter().map(Batch::cpu_us_per_pkt).collect::<Vec<_>>()),
            "us",
        ),
        m("completion_ms_p50", quantile(&completions, 0.5), "ms"),
        m("em_tx_per_pkt", em_of(run.independent()), "ratio"),
        m(
            "setup_s",
            median(
                &b.iter()
                    .flat_map(|x| x.setups_s.iter().copied())
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        m("rss_peak_mib", sysinfo::vm_hwm_kib() as f64 / 1024.0, "MiB"),
    ]
}

fn completions(batches: &[Batch]) -> Vec<f64> {
    batches
        .iter()
        .flat_map(|b| b.completions_ms.iter().copied())
        .collect()
}

/// End-to-end metrics printed beside the `BENCHMARK.json` set:
/// `completion_ms_p95` where at least ten completions lie beyond it, and
/// `fail_ratio` (also carried by the result's `attempted` / `failed`).
pub fn supplementary(run: &Run) -> Vec<Metric> {
    let completions = completions(&run.untraced);
    let mut out = Vec::new();
    if supports_percentile(completions.len(), 95.0) {
        out.push(m("completion_ms_p95", quantile(&completions, 0.95), "ms"));
    }
    let attempted: u64 = run.all().map(|b| b.receivers).sum();
    out.push(m(
        "fail_ratio",
        run.receivers_failed() as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    out
}

/// The per-layer ledger of a set of traced batches: self time per layer
/// with the wire copies moved from transport time to wire time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// Traced driving wall time (tracer bookkeeping removed), ns.
    pub wall_ns: f64,
    pub wire_ns: f64,
    pub transport_ns: f64,
    pub rse_ns: f64,
    pub core_ns: f64,
    pub mux_ns: f64,
    pub idle_ns: f64,
    pub obs_ns: f64,
    /// The tracer's duplicate work: preparing and timing the wire copies.
    pub trace_ns: f64,
    /// Driving wall time covered by no span.
    pub unattributed_ns: f64,
}

impl Ledger {
    /// Attribute `times` measured over `wall_ns`. The wire copies stand for
    /// the encode/decode inside the transports, so their time is taken out
    /// of transport self time and booked as wire; the copies themselves are
    /// tracing cost.
    pub fn from_times(times: &LayerTimes, wall_ns: f64) -> Ledger {
        let t = |l: Layer| times.get(l) as f64;
        let wire = t(Layer::WireEnc) + t(Layer::WireDec);
        Ledger {
            wall_ns,
            wire_ns: wire,
            transport_ns: t(Layer::Send) + t(Layer::Recv) - wire,
            rse_ns: t(Layer::Rse),
            core_ns: t(Layer::Core),
            mux_ns: t(Layer::Mux),
            idle_ns: t(Layer::Idle),
            obs_ns: t(Layer::Obs),
            trace_ns: t(Layer::Trace) + wire,
            unattributed_ns: wall_ns - times.root_ns as f64,
        }
    }

    /// Layers in report order with their time, ns.
    pub fn layers(&self) -> [(&'static str, f64); 9] {
        [
            ("wire", self.wire_ns),
            ("transport", self.transport_ns),
            ("rse", self.rse_ns),
            ("core", self.core_ns),
            ("mux", self.mux_ns),
            ("mux.idle", self.idle_ns),
            ("obs", self.obs_ns),
            ("trace", self.trace_ns),
            ("unattributed", self.unattributed_ns),
        ]
    }

    /// The program layer with the largest time (tracing cost, idle time
    /// and unattributed time excluded).
    pub fn largest(&self) -> (&'static str, f64) {
        self.layers()
            .into_iter()
            .filter(|(n, _)| !matches!(*n, "trace" | "unattributed" | "mux.idle"))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("nonempty")
    }
}

/// Sum a set of traced batches into one ledger.
pub fn ledger(traced: &[Batch]) -> Ledger {
    let mut times = LayerTimes::default();
    let mut wall = 0.0;
    for b in traced {
        let Some(t) = &b.trace else { continue };
        for (a, x) in times.self_ns.iter_mut().zip(t.totals.times.self_ns) {
            *a += x;
        }
        times.root_ns += t.totals.times.root_ns;
        wall += b.drive_s * 1e9;
    }
    Ledger::from_times(&times, wall)
}

/// The per-layer metrics listed in `BENCHMARK.json`, from the traced
/// batches of a traced run (per-packet figures divide by the packets the
/// senders transmitted in those batches).
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let traced = &run.traced;
    let l = ledger(traced);
    let pkts: f64 = traced.iter().map(|b| b.packets_sent() as f64).sum();
    let per_pkt = |x: f64| ratio(x, pkts);
    let share = |x: f64| ratio(x, l.wall_ns);
    let extras: Vec<_> = traced.iter().filter_map(|b| b.trace.as_ref()).collect();
    let c = |f: &dyn Fn(&crate::trace::Counts) -> u64| -> f64 {
        extras.iter().map(|e| f(&e.totals.counts) as f64).sum()
    };
    let t = |layer: Layer| -> f64 {
        extras
            .iter()
            .map(|e| e.totals.times.get(layer) as f64)
            .sum()
    };
    let sum = |f: &dyn Fn(&Batch) -> u64| -> f64 { traced.iter().map(|b| f(b) as f64).sum() };
    let n = traced.len().max(1) as f64;

    let gaps_us: Vec<f64> = extras
        .iter()
        .flat_map(|e| e.totals.counts.pace_gaps.iter().map(|&g| g as f64 / 1e3))
        .collect();
    let p99 = if supports_percentile(gaps_us.len(), 99.0) {
        quantile(&gaps_us, 0.99)
    } else {
        0.0
    };
    let state: Vec<f64> = extras.iter().flat_map(|e| e.state_bytes.clone()).collect();
    let (hits, misses) = extras.iter().fold((0.0, 0.0), |(h, mi), e| {
        (h + e.cache.hits as f64, mi + e.cache.misses as f64)
    });
    let dropped = sum(&|b| b.fault.dropped);
    let delivered = sum(&|b| b.fault.delivered);
    let wire_enc = t(Layer::WireEnc);
    let wire_dec = t(Layer::WireDec);
    let untraced = median(
        &run.untraced
            .iter()
            .map(Batch::goodput_mib_s)
            .collect::<Vec<_>>(),
    );
    let traced_goodput = median(&traced.iter().map(Batch::goodput_mib_s).collect::<Vec<_>>());

    vec![
        // pm-net wire
        m(
            "wire.encode_ns_per_msg",
            ratio(wire_enc, c(&|k| k.dgrams_sent)),
            "ns",
        ),
        m(
            "wire.decode_ns_per_msg",
            ratio(wire_dec, c(&|k| k.dgrams_recv)),
            "ns",
        ),
        m("wire.bytes_per_pkt", per_pkt(c(&|k| k.bytes_sent)), "B"),
        m("wire.ns_per_pkt", per_pkt(l.wire_ns), "ns"),
        m("wire.share", share(l.wire_ns), "ratio"),
        // pm-net transports
        m(
            "transport.send_ns_per_pkt",
            ratio(t(Layer::Send) - wire_enc, c(&|k| k.dgrams_sent)),
            "ns",
        ),
        m(
            "transport.recv_ns_per_dgram",
            ratio(t(Layer::Recv) - wire_dec, c(&|k| k.dgrams_recv)),
            "ns",
        ),
        m(
            "transport.dgrams_recv_per_pkt",
            per_pkt(c(&|k| k.dgrams_recv)),
            "ratio",
        ),
        m(
            "transport.poll_hit_ratio",
            ratio(c(&|k| k.poll_hits), c(&|k| k.polls)),
            "ratio",
        ),
        m("transport.self_ns_per_pkt", per_pkt(l.transport_ns), "ns"),
        m("transport.share", share(l.transport_ns), "ratio"),
        // pm-net farm + kernel
        m(
            "farm.queue_overflow",
            sum(&|b| b.farm.map_or(0, |f| f.queue_overflow)) / n,
            "count",
        ),
        m(
            "farm.unknown_session",
            sum(&|b| b.farm.map_or(0, |f| f.unknown_session)) / n,
            "count",
        ),
        m(
            "udp.rcvbuf_drops_per_pkt",
            per_pkt(sum(&|b| b.rcvbuf_drops)),
            "ratio",
        ),
        m(
            "fault.injected_drop_ratio",
            ratio(dropped, dropped + delivered),
            "ratio",
        ),
        // pm-rse
        m(
            "rse.encode_ns_per_parity",
            ratio(c(&|k| k.rse_enc_ns), c(&|k| k.rse_enc)),
            "ns",
        ),
        m(
            "rse.decode_ns_per_group",
            ratio(c(&|k| k.rse_dec_ns), c(&|k| k.rse_dec)),
            "ns",
        ),
        m(
            "rse.parities_per_pkt",
            per_pkt(sum(&|b| b.sender.parities_encoded)),
            "ratio",
        ),
        m(
            "rse.decode_cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        m("rse.ns_per_pkt", per_pkt(l.rse_ns), "ns"),
        m("rse.share", share(l.rse_ns), "ratio"),
        // pm-core
        m("core.self_ns_per_pkt", per_pkt(l.core_ns), "ns"),
        m("core.calls_per_pkt", per_pkt(c(&|k| k.core_calls)), "ratio"),
        m(
            "core.naks_per_group",
            ratio(sum(&|b| b.sender.feedback_received), sum(&|b| b.groups)),
            "ratio",
        ),
        m(
            "core.unneeded_ratio",
            ratio(
                sum(&|b| b.receiver.unneeded_receptions),
                sum(&|b| b.receiver.packets_received),
            ),
            "ratio",
        ),
        m(
            "core.sender_state_bytes_per_receiver",
            ratio(state.iter().sum(), state.len() as f64),
            "B",
        ),
        m("core.share", share(l.core_ns), "ratio"),
        // pm-mux
        m("mux.self_ns_per_pkt", per_pkt(l.mux_ns), "ns"),
        m("mux.turns_per_pkt", per_pkt(c(&|k| k.turns)), "ratio"),
        m("mux.idle_share", share(l.idle_ns), "ratio"),
        m("mux.idle_ns_per_pkt", per_pkt(l.idle_ns), "ns"),
        m(
            "mux.drives_per_session_p50",
            median(
                &extras
                    .iter()
                    .map(|e| e.drives_p50 as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        m(
            "mux.drives_per_session_max",
            extras.iter().map(|e| e.drives_max).max().unwrap_or(0) as f64,
            "count",
        ),
        m(
            "mux.queue_depth_mean",
            ratio(
                extras.iter().map(|e| e.queue_depth_sum as f64).sum(),
                extras.iter().map(|e| e.queue_depth_count as f64).sum(),
            ),
            "count",
        ),
        m("mux.pace_gap_us_p50", quantile(&gaps_us, 0.5), "us"),
        m("mux.pace_gap_us_p99", p99, "us"),
        m("mux.share", share(l.mux_ns), "ratio"),
        // pm-obs
        m("obs.events_per_pkt", per_pkt(c(&|k| k.obs_events)), "ratio"),
        m(
            "obs.record_ns_per_event",
            ratio(l.obs_ns, c(&|k| k.obs_events)),
            "ns",
        ),
        m("obs.ns_per_pkt", per_pkt(l.obs_ns), "ns"),
        m("obs.share", share(l.obs_ns), "ratio"),
        // reconciliation and tracing cost
        m("unattributed.share", share(l.unattributed_ns), "ratio"),
        m("unattributed.ns_per_pkt", per_pkt(l.unattributed_ns), "ns"),
        m("trace.dup_share", share(l.trace_ns), "ratio"),
        m("trace.wall_ns_per_pkt", per_pkt(l.wall_ns), "ns"),
        m("trace.goodput_traced_mib_s", traced_goodput, "MiB/s"),
        m("trace.goodput_untraced_mib_s", untraced, "MiB/s"),
        m(
            "trace.overhead_share",
            1.0 - ratio(traced_goodput, untraced),
            "ratio",
        ),
    ]
}

/// A metric map as a JSON object body.
pub fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite number as JSON (Rust's shortest round-trip form).
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// A string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
