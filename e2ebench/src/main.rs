//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds`, verifies every receiver, and prints
//! a human-readable summary followed, as the last line of standard output,
//! by one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end set, with `--trace 1`
//! the per-layer set. Exits non-zero when any correctness check fails.

use std::io::Write;
use std::process::ExitCode;

use pm_e2ebench::metrics::{self, json_metrics, json_string, Metric};
use pm_e2ebench::run::{run, Run, RunConfig};
use pm_e2ebench::stats::median;
use pm_e2ebench::workload::Workload;
use pm_e2ebench::{sysinfo, trace};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: e2ebench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn provenance(cfg: &RunConfig) -> String {
    let features: Vec<String> = sysinfo::cpu_features()
        .iter()
        .map(|f| json_string(f))
        .collect();
    let cmd: Vec<String> = std::env::args().map(|a| json_string(&a)).collect();
    format!(
        "{{\"provenance\": {{\"nproc\": {}, \"cpu_features\": [{}], \"simd_backend\": {}, \
         \"git_rev\": {}, \"command\": [{}], \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}}}}}",
        sysinfo::nproc(),
        features.join(", "),
        json_string(pm_simd::backend_name()),
        json_string(&sysinfo::git_rev()),
        cmd.join(", "),
        json_string(cfg.workload.name()),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
    )
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}:");
    for x in ms {
        println!("  {:<40} {:>16.6} {}", x.name, x.value, x.unit);
    }
}

fn summary(cfg: &RunConfig, run: &Run) {
    let spec = cfg.workload.spec();
    println!(
        "workload {}: {} session(s) x R={} x {} B, p={}, {}; {} measured batch(es) + 1 warm-up",
        cfg.workload.name(),
        spec.sessions,
        spec.receivers,
        spec.bytes,
        spec.drop,
        if spec.udp {
            "loopback UDP FarmHub, WallClock"
        } else {
            "MemHub, VirtualClock"
        },
        run.untraced.len() + run.traced.len(),
    );
    for (i, b) in run.untraced.iter().enumerate() {
        println!(
            "batch {:>3}: goodput {:9.3} MiB/s  cpu {:8.3} us/pkt  drive {:8.4} s  setup {:.4} s  \
             E[M] {:.4}  rcvbuf drops {}",
            i + 1,
            b.goodput_mib_s(),
            b.cpu_us_per_pkt(),
            b.drive_s,
            median(&b.setups_s),
            pm_e2ebench::run::em_of([b]),
            b.rcvbuf_drops,
        );
    }
    for g in &run.gates {
        println!(
            "check {:<22} {}  {}",
            g.name,
            if g.ok { "ok  " } else { "FAIL" },
            g.detail
        );
    }
    if spec.udp {
        let (unknown, overflow, foreign) = run
            .all()
            .filter_map(|b| b.farm)
            .fold((0, 0, 0), |(u, o, f), s| {
                (u + s.unknown_session, o + s.queue_overflow, f + s.foreign)
            });
        println!(
            "FarmStats (all batches): unknown_session {unknown}, queue_overflow {overflow}, \
             foreign {foreign}"
        );
    }
    print_metrics("end-to-end (untraced batches)", &metrics::end_to_end(run));
    print_metrics("supplementary", &metrics::supplementary(run));
    if cfg.trace {
        let l = metrics::ledger(&run.traced);
        let pkts: u64 = run.traced.iter().map(|b| b.packets_sent()).sum();
        println!("per-layer ledger (traced batches, ns per transmitted packet):");
        let mut total = 0.0;
        for (name, ns) in l.layers() {
            total += ns;
            println!(
                "  {name:<14} {:>12.1} ns/pkt  {:>6.2}%",
                ns / pkts.max(1) as f64,
                100.0 * ns / l.wall_ns
            );
        }
        println!(
            "  {:<14} {:>12.1} ns/pkt  (driving wall {:.1})",
            "sum",
            total / pkts.max(1) as f64,
            l.wall_ns / pkts.max(1) as f64
        );
        let (name, ns) = l.largest();
        println!(
            "largest per-packet cost: {name} ({:.1} ns/pkt)",
            ns / pkts.max(1) as f64
        );
    }
}

/// Write the kept spans as TSV under `e2ebench/out/`.
fn write_spans(cfg: &RunConfig) -> std::io::Result<String> {
    let dir = std::path::Path::new("e2ebench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-{}.tsv", cfg.workload.name(), cfg.seed));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "index\tlayer\tstart_ns\tend_ns\tparent\tsession")?;
    let opt = |v: u32, none: u32| {
        if v == none {
            "-".to_string()
        } else {
            v.to_string()
        }
    };
    for (i, s) in trace::kept_spans().iter().enumerate() {
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{}\t{}",
            s.layer.name(),
            s.start,
            s.end,
            opt(s.parent, trace::NO_PARENT),
            opt(s.session, trace::NO_SESSION),
        )?;
    }
    w.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&cfg));
    let run = run(cfg);
    summary(&cfg, &run);
    if cfg.trace {
        match write_spans(&cfg) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }
    let ms = if cfg.trace {
        metrics::per_layer(&run)
    } else {
        metrics::end_to_end(&run)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct(),
        run.attempted(),
        run.failed(),
        json_metrics(&ms)
    );
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
