//! Host readings recorded beside the metrics, so a noisy run can be
//! recognised: CPU count, load, steal time, memory and the spill
//! directory's filesystem. All come from Linux `/proc`.

use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The 1-, 5- and 15-minute load averages.
pub fn load_average() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<f64>().ok());
    Some([fields.next()??, fields.next()??, fields.next()??])
}

/// Jiffies the hypervisor has stolen from the CPUs so far, all CPUs summed.
pub fn steal_jiffies() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    // cpu user nice system idle iowait irq softirq steal ...
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident memory of this process so far (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Resident memory of this process now (`VmRSS`) in MiB.
pub fn rss_mb() -> Option<f64> {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Type of the filesystem `path` lives on: the mount with the longest
/// mount point that is a prefix of the canonical path.
pub fn filesystem(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let text = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    text.lines()
        .filter_map(|line| {
            // id parent dev root mount-point options ... - fstype source ...
            let mount = line.split_whitespace().nth(4)?;
            let fstype = line.split(" - ").nth(1)?.split_whitespace().next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}
