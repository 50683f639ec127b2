//! Process and host facts: the hermetic-environment guard, peak resident
//! memory, and the filesystem a directory lives on.

use std::path::Path;

/// Names of ambient `FPDT_*` variables. Every one of them would change a
/// workload (runtime knobs, kernel backend, link bandwidth, fault
/// injection), so the benchmark refuses to run under any.
pub fn ambient_fpdt_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FPDT_"))
        .collect();
    names.sort();
    names
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
/// Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_kib(&status, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Parses a `Key:   1234 kB` line out of `/proc/self/status` text.
fn status_kib(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mountinfo`), e.g. `ext4` or `tmpfs`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(dir) else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mount_fs_type(&info, &abs.to_string_lossy()).unwrap_or_else(|| "unknown".into())
}

/// The filesystem type of the longest mount point that prefixes `path`.
fn mount_fs_type(mountinfo: &str, path: &str) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        let under = path == *mount
            || *mount == "/"
            || path
                .strip_prefix(mount)
                .is_some_and(|rest| rest.starts_with('/'));
        if under && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map(|(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_parser_reads_kib() {
        let s = "Name:\tx\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_kib(s, "VmHWM:"), Some(2048));
        assert_eq!(status_kib(s, "VmSwap:"), None);
    }

    #[test]
    fn longest_mount_prefix_wins() {
        let info = "\
28 1 254:0 / / rw - ext4 /dev/vda rw
26 25 0:24 / /dev/shm rw - tmpfs tmpfs rw
40 28 0:30 / /work rw - xfs /dev/vdc rw";
        assert_eq!(mount_fs_type(info, "/dev/shm/x").as_deref(), Some("tmpfs"));
        assert_eq!(mount_fs_type(info, "/work/a/b").as_deref(), Some("xfs"));
        assert_eq!(mount_fs_type(info, "/workshop").as_deref(), Some("ext4"));
        assert_eq!(mount_fs_type(info, "/").as_deref(), Some("ext4"));
    }
}
