//! Host and build context, and the `/proc/self` counters the benchmark
//! reads (Linux; elsewhere the counters read as absent).

use std::process::Command;

/// Where a number was measured. Absolute timings only compare on the same
/// host, so every result carries this.
#[derive(Debug, Clone)]
pub struct HostContext {
    /// CPU model name.
    pub cpu: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
}

impl HostContext {
    /// Collects the context of the current process.
    pub fn collect() -> HostContext {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        // `output()` waits for the child, so no process outlives the call.
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        HostContext {
            cpu,
            nproc,
            rustc,
            profile,
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }
}

/// The commit `.git/HEAD` points at, read without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}

/// Host-wide CPU ticks as (stolen by the hypervisor, total), from
/// `/proc/stat`; the share stolen during a run explains a slow run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in KiB.
pub fn status_kb(field: &str) -> Option<u64> {
    status_field(field)?.split_whitespace().next()?.parse().ok()
}

/// OS threads of this process right now.
pub fn threads() -> Option<u64> {
    status_field("Threads")?.trim().parse().ok()
}

fn status_field(field: &str) -> Option<String> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':').map(str::to_string))
}

/// Bytes this process has passed to write-class syscalls
/// (`/proc/self/io` `wchar`).
pub fn wchar() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/io").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Total size of the regular files directly in `dir`, KiB.
pub fn dir_kb(dir: &std::path::Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum::<u64>() as f64
                / 1024.0
        })
        .unwrap_or(0.0)
}

/// Reference-kernel time, seconds, of the host that `norm_ops_per_s`
/// rescales every repetition to.
pub const REFERENCE_NOMINAL_S: f64 = 0.12;

/// Threads the reference kernel runs on at once: as many as the workloads
/// load (campaign workers, serve clients).
const REFERENCE_LANES: usize = 2;

/// Seconds this host takes, right now, for a fixed piece of
/// interpreter-like work, run on [`REFERENCE_LANES`] threads at once (mean
/// over the threads): branchy dispatch over a xorshift stream, hashed table probes
/// and inserts, and small allocations. It uses none of the measured
/// crates, so no change to them can move it; on a shared host its time
/// follows the CPU speed the workloads get (the same code ran between 0.18
/// and 0.34 s for minutes at a time on a 2-vCPU Xeon virtual machine),
/// which is what `norm_ops_per_s` divides out. Every thread it starts is
/// joined before it returns.
pub fn reference_kernel_s() -> f64 {
    let others: Vec<_> = (1..REFERENCE_LANES)
        .map(|_| std::thread::spawn(kernel_once))
        .collect();
    let mut total = kernel_once();
    for t in others {
        total += t.join().unwrap_or(f64::NAN);
    }
    total / REFERENCE_LANES as f64
}

fn kernel_once() -> f64 {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    use std::hint::black_box;

    let t = std::time::Instant::now();
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut acc = 0u64;
    for i in 0..black_box(3_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 8192;
        match x % 5 {
            0 => {
                table.insert(k, i);
            }
            1 => acc = acc.wrapping_add(table.get(&k).copied().unwrap_or(3)),
            2 => acc = acc.wrapping_add(k.to_string().len() as u64),
            3 => acc = acc.wrapping_add((0..k % 16).collect::<Vec<u64>>().iter().sum::<u64>()),
            _ => acc = acc.rotate_left(3) ^ k,
        }
    }
    black_box((acc, table.len()));
    t.elapsed().as_secs_f64()
}
