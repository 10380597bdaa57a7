//! One benchmark run: a warm-up batch, then batches until the time is up;
//! then the correctness gate.

use std::time::{Duration, Instant};

use pm_analysis::montecarlo::integrated_lower_bound;
use pm_analysis::{integrated, Population};
use pm_par::{mix_seed, Pool};

use crate::workload::{run_batch, Batch, Workload, H, K};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One check of the correctness gate.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Batches of one run.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// The warm-up batch: checked, not timed.
    pub warmup: Batch,
    /// Untraced batches (the end-to-end sample; in a traced run, the
    /// untraced half of each traced/untraced pair).
    pub untraced: Vec<Batch>,
    /// Traced batches (traced runs only).
    pub traced: Vec<Batch>,
    pub gates: Vec<Gate>,
}

impl Run {
    /// Every batch, warm-up included.
    pub fn all(&self) -> impl Iterator<Item = &Batch> {
        std::iter::once(&self.warmup)
            .chain(&self.untraced)
            .chain(&self.traced)
    }

    /// The warm-up and untraced batches: independent samples (a traced
    /// batch repeats its untraced twin's seed).
    pub fn independent(&self) -> impl Iterator<Item = &Batch> {
        std::iter::once(&self.warmup).chain(&self.untraced)
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    /// Receivers attempted plus gate checks made.
    pub fn attempted(&self) -> u64 {
        self.all().map(|b| b.receivers).sum::<u64>() + self.gates.len() as u64
    }

    /// Receivers failed plus gate checks failed.
    pub fn failed(&self) -> u64 {
        self.receivers_failed() + self.gates.iter().filter(|g| !g.ok).count() as u64
    }

    pub fn receivers_failed(&self) -> u64 {
        self.all().map(|b| b.receivers_failed).sum()
    }
}

/// Seed of batch `i` of a run seeded `seed`. Batch 0 is the warm-up.
pub fn batch_seed(seed: u64, i: u64) -> u64 {
    mix_seed(seed, i)
}

/// Run `cfg`: a warm-up batch, then untraced batches (or traced/untraced
/// pairs with the same batch seed) until `cfg.seconds` have passed, at
/// least one.
pub fn run(cfg: RunConfig) -> Run {
    let mut out = Run {
        warmup: run_batch(cfg.workload, batch_seed(cfg.seed, 0), false),
        ..Run::default()
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut i = 1;
    while out.untraced.is_empty() || start.elapsed() < budget {
        let seed = batch_seed(cfg.seed, i);
        if cfg.trace {
            out.traced.push(run_batch(cfg.workload, seed, true));
        }
        out.untraced.push(run_batch(cfg.workload, seed, false));
        i += 1;
    }
    out.gates = gates(cfg.workload, &out);
    out
}

/// Transmissions per data packet over a set of batches (the paper's E[M]).
pub fn em_of<'a>(batches: impl IntoIterator<Item = &'a Batch>) -> f64 {
    let (mut data, mut all) = (0u64, 0u64);
    for b in batches {
        data += b.sender.data_sent;
        all += b.sender.packets_sent();
    }
    all as f64 / data.max(1) as f64
}

/// Per-group standard deviation of transmissions per data packet under
/// the idealized integrated-FEC model, by Monte Carlo.
fn em_group_sd(p: f64, receivers: u64) -> f64 {
    const TRIALS: usize = 20_000;
    let pop = Population::homogeneous(p, receivers);
    let est = integrated_lower_bound(K, 0, &pop, TRIALS, 0xE3, &Pool::serial());
    est.stderr * (TRIALS as f64).sqrt()
}

/// The correctness gate.
fn gates(workload: Workload, run: &Run) -> Vec<Gate> {
    let spec = workload.spec();
    let mut out = Vec::new();
    let failures: Vec<&String> = run.all().flat_map(|b| &b.failures).collect();
    out.push(Gate {
        name: "receivers_verified",
        ok: failures.is_empty(),
        detail: if failures.is_empty() {
            let n: u64 = run.all().map(|b| b.receivers).sum();
            format!("{n} receivers got bytes equal to their session's input")
        } else {
            format!("{} failures, first: {}", failures.len(), failures[0])
        },
    });
    if workload == Workload::MemLossR16 {
        // E[M] against pm-analysis. Groups are independent, so the pooled
        // mean's standard error is the per-group spread over sqrt(groups);
        // four standard errors leave a false alarm about once in 16 000 runs.
        let groups: u64 = run.independent().map(|b| b.groups).sum();
        let measured = em_of(run.independent());
        let analytic = integrated::finite(
            K,
            H,
            0,
            &Population::homogeneous(spec.drop, u64::from(spec.receivers)),
        );
        let tol = 4.0 * em_group_sd(spec.drop, u64::from(spec.receivers)) / (groups as f64).sqrt();
        out.push(Gate {
            name: "em_vs_analysis",
            ok: (measured - analytic).abs() <= tol,
            detail: format!(
                "E[M] {measured:.5} vs pm-analysis {analytic:.5}, tolerance {tol:.5} over {groups} groups"
            ),
        });
    }
    if spec.drop > 0.0 {
        let (dropped, delivered) = run.independent().fold((0u64, 0u64), |(d, v), b| {
            (d + b.fault.dropped, v + b.fault.delivered)
        });
        let n = (dropped + delivered).max(1) as f64;
        let ratio = dropped as f64 / n;
        let tol = 5.0 * (spec.drop * (1.0 - spec.drop) / n).sqrt();
        out.push(Gate {
            name: "injected_drop_ratio",
            ok: (ratio - spec.drop).abs() <= tol,
            detail: format!(
                "{ratio:.5} of {n} datagrams dropped vs p = {}, tolerance {tol:.5}",
                spec.drop
            ),
        });
    }
    out
}
