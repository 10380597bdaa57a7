//! Tests of the benchmark itself: the wrappers change nothing the
//! program does, the tail-percentile rule, and the self-time arithmetic.

use pm_e2ebench::metrics::Ledger;
use pm_e2ebench::run::em_of;
use pm_e2ebench::stats::{quantile, samples_beyond, supports_percentile};
use pm_e2ebench::trace::{self, self_times, Layer, Span, NO_PARENT, NO_SESSION};
use pm_e2ebench::workload::{run_batch, Workload};

#[test]
fn traced_and_untraced_runs_do_the_same_work() {
    let seed = 0x5EED;
    let plain = run_batch(Workload::MemLossR16, seed, false);
    let traced = run_batch(Workload::MemLossR16, seed, true);
    assert!(plain.failures.is_empty(), "{:?}", plain.failures);
    assert!(traced.failures.is_empty(), "{:?}", traced.failures);
    assert_eq!(plain.sender, traced.sender, "sender CostCounters");
    assert_eq!(plain.receiver, traced.receiver, "receiver CostCounters");
    assert_eq!(em_of([&plain]), em_of([&traced]), "E[M]");
    assert_eq!(plain.bytes_delivered, traced.bytes_delivered);
    assert_eq!(plain.bytes_delivered, 2 << 20);
    assert_eq!(plain.fault, traced.fault, "fault injection draws");
    assert!(plain.sender.repairs_sent > 0, "the repair path ran");
    assert!(plain.trace.is_none());
    let t = traced.trace.expect("traced batch has a ledger");
    // The codec timer saw every parity the sender counted.
    assert_eq!(t.totals.counts.rse_enc, traced.sender.parities_encoded);
    assert!(t.totals.counts.rse_dec > 0);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(200, 95.0), 10);
    assert!(supports_percentile(200, 95.0));
    assert!(!supports_percentile(199, 95.0));
    assert!(supports_percentile(1000, 99.0));
    assert!(!supports_percentile(999, 99.0));
    assert!(supports_percentile(20, 50.0));
    assert!(!supports_percentile(19, 50.0));
    // The pace-gap p99 needs 1000 gaps; the completion p95 200 completions.
    let pick = |n: usize| {
        [50.0, 90.0, 95.0, 99.0, 99.9]
            .into_iter()
            .rev()
            .find(|&p| supports_percentile(n, p))
    };
    assert_eq!(pick(10_000), Some(99.9));
    assert_eq!(pick(1_000), Some(99.0));
    assert_eq!(pick(250), Some(95.0));
    assert_eq!(pick(100), Some(90.0));
    assert_eq!(pick(19), None);
}

#[test]
fn quantiles_interpolate() {
    let v = [4.0, 1.0, 3.0, 2.0, 5.0];
    assert_eq!(quantile(&v, 0.5), 3.0);
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 5.0);
    assert_eq!(quantile(&v, 0.125), 1.5);
    assert!(quantile(&[], 0.5).is_nan());
}

fn span(layer: Layer, start: u64, end: u64, parent: u32) -> Span {
    Span {
        layer,
        start,
        end,
        parent,
        session: NO_SESSION,
    }
}

/// Two turns: the first polls a receiver (whose wire copy is timed), runs
/// the machine (which decodes) and sends; the second only idles.
fn hand_built_tree() -> Vec<Span> {
    vec![
        span(Layer::Mux, 0, 100, NO_PARENT),   // 0
        span(Layer::Recv, 5, 25, 0),           // 1
        span(Layer::Trace, 25, 35, 0),         // 2: the wire copy
        span(Layer::WireDec, 27, 33, 2),       // 3
        span(Layer::Core, 40, 70, 0),          // 4
        span(Layer::Rse, 50, 60, 4),           // 5
        span(Layer::Send, 75, 90, 0),          // 6
        span(Layer::Mux, 200, 250, NO_PARENT), // 7
        span(Layer::Idle, 210, 240, 7),        // 8
    ]
}

#[test]
fn self_time_is_span_time_minus_children() {
    let t = self_times(&hand_built_tree());
    assert_eq!(t.get(Layer::Mux), (100 - 20 - 10 - 30 - 15) + (50 - 30));
    assert_eq!(t.get(Layer::Recv), 20);
    assert_eq!(t.get(Layer::Trace), 4);
    assert_eq!(t.get(Layer::WireDec), 6);
    assert_eq!(t.get(Layer::Core), 20);
    assert_eq!(t.get(Layer::Rse), 10);
    assert_eq!(t.get(Layer::Send), 15);
    assert_eq!(t.get(Layer::Idle), 30);
    assert_eq!(t.get(Layer::Obs), 0);
    assert_eq!(t.root_ns, 150);
    assert_eq!(
        t.self_ns.iter().sum::<i64>(),
        t.root_ns,
        "self times partition the roots"
    );
}

#[test]
fn ledger_reconciles_with_the_driving_wall() {
    let t = self_times(&hand_built_tree());
    let wall = 180.0; // 30 ns of the window lie outside every span
    let l = Ledger::from_times(&t, wall);
    // The 6 ns decode copy stands for the decode inside the receive.
    assert_eq!(l.wire_ns, 6.0);
    assert_eq!(l.transport_ns, 20.0 + 15.0 - 6.0);
    assert_eq!(l.trace_ns, 4.0 + 6.0);
    assert_eq!(l.rse_ns, 10.0);
    assert_eq!(l.core_ns, 20.0);
    assert_eq!(l.idle_ns, 30.0);
    assert_eq!(l.unattributed_ns, 30.0);
    let sum: f64 = l.layers().iter().map(|(_, ns)| ns).sum();
    assert_eq!(sum, wall);
    assert_eq!(l.largest().0, "mux");
}

#[test]
fn live_tracer_matches_the_offline_arithmetic() {
    trace::reset();
    let outer = trace::enter(Layer::Mux, NO_SESSION);
    let inner = trace::enter(Layer::Core, 7);
    std::thread::sleep(std::time::Duration::from_millis(2));
    trace::synthetic(Layer::Rse, 7, 1_000_000);
    trace::exit(inner);
    trace::span(Layer::Send, 7, || {
        std::thread::sleep(std::time::Duration::from_millis(1))
    });
    trace::exit(outer);
    let totals = trace::totals();
    let t = totals.times;
    assert_eq!(t.self_ns.iter().sum::<i64>(), t.root_ns);
    assert!(t.get(Layer::Core) >= 1_000_000, "core keeps its own share");
    assert_eq!(t.get(Layer::Rse), 1_000_000);
    assert!(t.get(Layer::Send) >= 1_000_000);
    assert!(t.get(Layer::Mux) >= 0);
}
