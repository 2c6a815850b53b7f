//! Process CPU time and peak resident memory, read from `/proc/self`.

use std::fs;
use std::io;

/// Clock ticks per second of the `utime`/`stime` fields. Linux fixes the
/// user-visible tick (`USER_HZ`) at 100 on every architecture it ships.
const USER_HZ: f64 = 100.0;

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value in kB of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or_else(|| invalid("/proc/self/stat"))?;
    Ok(ticks as f64 / USER_HZ)
}

/// Peak resident set size in bytes since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_bytes() -> io::Result<u64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kb = parse_status_kb(&status, "VmHWM").ok_or_else(|| invalid("/proc/self/status"))?;
    Ok(kb * 1024)
}

/// Reset the peak-RSS high-water mark to the current RSS.
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_skip_a_name_with_spaces_and_parens() {
        let stat = "4242 (perf (bench) x) R 1 4242 4242 0 -1 4194304 5170 0 0 0 \
                    137 29 0 0 20 0 3 0 123456 123456789 2500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(137 + 29));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) R 1"), None);
    }

    #[test]
    fn status_reads_the_named_kb_field_only() {
        let status =
            "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_bytes().unwrap() > 0);
    }
}
