//! Process accounting read from `/proc/self`: CPU time of the whole
//! benchmark process (server and load-generator threads alike) and its
//! peak resident set.

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which the
/// kernel fixes at 100 per second for every architecture's user ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// `(utime, stime)` clock ticks from the text of `/proc/<pid>/stat`.
///
/// The second field is the executable name in parentheses and may itself
/// contain spaces and `)`, so the fields are counted from the **last**
/// `)`: after it come `state` (field 3) … `utime` (14) and `stime` (15).
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Peak resident set (`VmHWM`) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// CPU seconds this process has used so far, as `(user, system)`.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    let (u, s) = parse_stat_ticks(&stat).expect("parsing /proc/self/stat");
    (u as f64 / TICKS_PER_SECOND, s as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    parse_vm_hwm_kib(&status).expect("parsing VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_plain_name() {
        let stat = "4242 (bns-benchmark) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    731 52 0 0 20 0 5 0 99 1000 200 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some((731, 52)));
    }

    #[test]
    fn stat_name_with_spaces_and_parens() {
        // A process may rename itself to anything, including ") R 1 2".
        let stat = "7 (a b) R 9 9 (x)) S 1 7 7 0 -1 4194304 1 0 0 0 \
                    15 3 0 0 20 0 1 0 5 1000 200 0";
        assert_eq!(parse_stat_ticks(stat), Some((15, 3)));
    }

    #[test]
    fn stat_malformed() {
        assert_eq!(parse_stat_ticks("no parens at all"), None);
        assert_eq!(parse_stat_ticks("1 (short) R 1 2 3"), None);
        assert_eq!(
            parse_stat_ticks("1 (x) R 1 1 1 0 -1 0 0 0 0 0 notanumber 3"),
            None
        );
    }

    #[test]
    fn vm_hwm() {
        let status = "Name:\tbns-benchmark\nVmPeak:\t  250000 kB\nVmHWM:\t   81234 kB\nVmRSS:\t   80000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(81234));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_process_reads() {
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
