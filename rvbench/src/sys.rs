//! What the run observed about the machine it ran on: peak memory,
//! hypervisor steal, CPU model, core count, and the identity of the code
//! under test.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU ticks from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    /// All ticks, every state summed.
    pub total: u64,
}

impl CpuTicks {
    /// Reads the counters now (zeros where `/proc/stat` is unavailable).
    pub fn now() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            // user nice system idle iowait irq softirq steal ...
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Ticks elapsed from `earlier` to `self`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }
}

/// Logical cores the OS reports. Recorded, never used to size the run.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git commit of the working directory, or `unknown` outside a
/// repository (the benchmark also runs from plain source exports).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A 64-bit FNV-1a digest of the source files under `roots` (paths
/// relative to `base`, visited in sorted order), identifying the code
/// under test where no commit is available.
pub fn source_digest(base: &Path, roots: &[&str]) -> String {
    let mut files = Vec::new();
    for root in roots {
        collect_files(&base.join(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        let rel = file.strip_prefix(base).unwrap_or(file);
        feed(rel.to_string_lossy().as_bytes());
        feed(&std::fs::read(file).unwrap_or_default());
    }
    format!("{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        let keep = matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock")
        );
        if keep {
            out.push(path.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        collect_files(&entry.path(), out);
    }
}
