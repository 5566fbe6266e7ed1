//! Peak resident memory from `/proc/<pid>/status`.

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
#[must_use]
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

/// Peak resident memory of process `pid` (`"self"` for this one), in MiB.
#[must_use]
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vm_hwm_line() {
        let status = "Name:\tdmc\nVmPeak:\t  300000 kB\nVmHWM:\t  284652 kB\nVmRSS:\t   48536 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(284_652));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t abc kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib(""), None);
    }

    #[test]
    fn reads_this_process() {
        let mib = peak_rss_mib("self").expect("procfs is mounted");
        assert!(mib > 0.0);
    }
}
