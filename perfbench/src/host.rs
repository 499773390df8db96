//! What the host was: the fingerprint every result carries, and the
//! process's peak memory.

use std::fs;

/// Identity of the machine, toolchain and tree a result came from.
/// Results are comparable only when their fingerprints are equal.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::env::var("SALAMANDER_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "nproc={nproc}; cpu={cpu}; rustc={}; commit={}; SALAMANDER_THREADS={threads}",
        env!("PERFBENCH_RUSTC"),
        git_commit().unwrap_or_else(|| "none".into()),
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git. `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(sha.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
