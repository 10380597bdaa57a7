//! Readings taken from `/proc`: on-CPU time, peak resident set, kernel
//! UDP receive-buffer drops; plus the run's provenance.

use std::fs;

/// On-CPU nanoseconds of every thread of this process, from
/// `/proc/self/task/*/schedstat` (first field: time spent running).
///
/// The kernel brings a running thread's figure up to date only at a
/// scheduler tick or a context switch, so a thread that has computed
/// without a syscall for a while reads up to one tick stale (4 ms at
/// 250 Hz).
/// Yielding first makes the scheduler account the calling thread's
/// current slice.
pub fn cpu_ns() -> u64 {
    std::thread::yield_now();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set of this process in KiB (`VmHWM`).
pub fn vm_hwm_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The kernel's `Udp RcvbufErrors` counter from `/proc/net/snmp`
/// (datagrams dropped because a socket's receive buffer was full).
pub fn udp_rcvbuf_errors() -> u64 {
    let Ok(snmp) = fs::read_to_string("/proc/net/snmp") else {
        return 0;
    };
    let mut udp = snmp.lines().filter(|l| l.starts_with("Udp:"));
    let (Some(names), Some(values)) = (udp.next(), udp.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(n, _)| *n == "RcvbufErrors")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// CPU features relevant to the codec and checksum kernels.
pub fn cpu_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {
                $(if std::arch::is_x86_feature_detected!($f) {
                    out.push($f);
                })*
            };
        }
        probe!("sse4.2", "pclmulqdq", "avx2", "bmi2", "avx512f", "avx512bw");
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            out.push("neon");
        }
        if std::arch::is_aarch64_feature_detected!("crc") {
            out.push("crc");
        }
    }
    out
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
