//! Readers for this process's `/proc` accounting. Every reader returns
//! `None` where `/proc` is absent (off Linux), and the report then carries
//! `null` for the metric instead of a made-up number.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// fixed `USER_HZ` at 100 on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set, KiB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // After the command name come state (3), ..., utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    4512 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(4512));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "42 (a b) c)) S 1 42 42 0 -1 4194304 204 0 0 0 70 3 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_cpu_ticks(stat), Some(73));
        assert_eq!(parse_cpu_ticks("42 (x) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn live_readers_agree_with_the_platform() {
        let on_linux = std::path::Path::new("/proc/self/status").exists();
        assert_eq!(peak_rss_mib().is_some(), on_linux);
        assert_eq!(cpu_seconds().is_some(), on_linux);
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
