//! Host fingerprint and process facts that go into every result file.

use serde_json::{json, Value};
use std::path::Path;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `VmHWM` of this process in MB (peak resident set size).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1e3)
}

/// Keep every heap allocation of this process in glibc's main arena.
///
/// glibc gives a new thread an arena of its own (up to eight per core),
/// and memory freed in one arena is never reused from another. The code
/// under test starts short-lived threads on every parallel call, so how
/// much address space ends up resident depends on which arena each of
/// them happened to get: `peak_rss_mb` of one and the same two-tenant run
/// came out at 380 MB or at 465 MB. With one arena it repeats within 3%
/// and says what the program asked for. Called before any thread starts;
/// the same as running under `MALLOC_ARENA_MAX=1`.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` is glibc's own tuning call; it takes two
        // integers and only sets a limit consulted when an arena is
        // created.
        if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
            eprintln!("warning: mallopt(M_ARENA_MAX, 1) refused; peak_rss_mb will be noisier");
        }
    }
}

/// Filesystem type and mount point holding `path` (longest matching
/// mount in `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), format!("{fstype} on {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, s)| s)
}

/// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Which third-party crates this binary was built against:
/// `shims/config.toml` sets `LLMT_LEDGER_DEPS` for the offline build, a
/// plain `cargo build` leaves it unset. Timings of the two builds are not
/// comparable (no thread pool behind the stand-in `rayon`, a value-tree
/// `serde_json`).
pub fn deps() -> &'static str {
    option_env!("LLMT_LEDGER_DEPS").unwrap_or("crates.io registry")
}

/// Cores, CPU model, the SIMD/crypto flags the ROADMAP cares about,
/// kernel, memory.
pub fn fingerprint() -> Value {
    let cpuinfo = read("/proc/cpuinfo");
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(String::new, |v| v.trim().to_string())
    };
    let flags = field("flags");
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    let mem_total_mb = read("/proc/meminfo")
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb / 1024);
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "cpu": field("model name"),
        "sha_ni": has("sha_ni"),
        "avx2": has("avx2"),
        "kernel": read("/proc/sys/kernel/osrelease").trim(),
        "mem_total_mb": mem_total_mb,
        "deps": deps(),
    })
}
