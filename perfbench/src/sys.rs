//! Process plumbing: building the `campaign` binary, waiting for a
//! child with its resource usage, peak memory and run provenance.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// The cargo target directory the benchmark and the program build into:
/// `CARGO_TARGET_DIR` when set (relative to the checkout root), else
/// `.bench_build`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
}

/// This run's scratch directory, under the target directory.
pub fn work_dir(workload: &str, seed: u64) -> PathBuf {
    target_dir()
        .join("perfbench")
        .join(format!("{workload}-{seed}-{}", std::process::id()))
}

/// Builds the release `campaign` binary from the checkout in the
/// current directory and returns its path.
pub fn build_campaign() -> Result<PathBuf, String> {
    if !Path::new("crates/bench/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/bench/Cargo.toml not found".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "anneal-bench",
            "--bin",
            "campaign",
        ])
        .env("CARGO_TARGET_DIR", target_dir())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the campaign binary failed ({status})"));
    }
    let bin = target_dir().join("release").join("campaign");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed
/// by fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a waited-for child ended.
pub struct Exit {
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
    /// The child's peak resident set, KiB.
    pub maxrss_kib: u64,
}

/// Waits for `child` and reads its own peak resident set from the
/// kernel. The child is reaped here; `child` must not be waited again.
pub fn wait_with_rusage(child: &Child) -> Result<Exit, String> {
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out
        // as the C types `wait4` expects (`int`, `struct rusage` on a
        // 64-bit Linux target); `pid` names our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok(Exit {
        code,
        maxrss_kib: usage.maxrss.max(0) as u64,
    })
}

/// Peak resident set of this process so far, KiB (`VmHWM`).
pub fn self_peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git rev-parse HEAD` of the checkout, or `None` outside a git
/// repository.
pub fn git_revision() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
