//! Facts about the machine and the process, read from `/proc`.

use std::fs;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model name, or `"unknown"`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built this benchmark.
pub fn rustc_version() -> &'static str {
    env!("E2EBENCH_RUSTC_VERSION")
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Bytes the loopback interface has carried (`lo` transmit bytes of
/// `/proc/net/dev`): every byte of a loopback connection, in both
/// directions, TCP/IP headers included.
pub fn loopback_bytes() -> Option<u64> {
    fs::read_to_string("/proc/net/dev")
        .ok()?
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("lo:"))?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}
