//! Process and thread accounting read from `/proc` — the only view of the
//! server's cost the benchmark has from outside the program.

use std::fs;
use std::io;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`). Linux reports
/// 100 on every mainstream architecture regardless of the kernel's own `HZ`.
const TICKS_PER_SECOND: f64 = 100.0;

/// Parses `utime + stime` (in ticks) out of a `/proc/<pid>/stat` line.
///
/// The second field is the command name in parentheses and may itself contain
/// spaces and `)`, so fields are counted from the *last* `)`: after it come
/// `state` (field 3) … `utime` (14) and `stime` (15).
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn cpu_seconds(path: &str) -> io::Result<f64> {
    let stat = fs::read_to_string(path)?;
    parse_stat_ticks(&stat)
        .map(|ticks| ticks as f64 / TICKS_PER_SECOND)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {path}")))
}

/// CPU seconds (user + system) consumed so far by every thread of this process.
pub fn process_cpu_seconds() -> io::Result<f64> {
    cpu_seconds("/proc/self/stat")
}

/// CPU seconds (user + system) consumed so far by the calling thread.
pub fn thread_cpu_seconds() -> io::Result<f64> {
    cpu_seconds("/proc/thread-self/stat")
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_parentheses_in_the_command_name() {
        // comm = "a) b (c)" — spaces and both kinds of parenthesis.
        let stat = "4242 (a) b (c)) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    1234 567 0 0 20 0 7 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(1234 + 567));
        assert_eq!(parse_stat_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu_seconds().unwrap() >= 0.0);
        assert!(thread_cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
