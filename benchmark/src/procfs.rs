//! The process's own cost and the host's state, read from `/proc`
//! (the repository has no libc binding, so no `getrusage`).

use std::fs;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on
/// every Linux the kernel's `USER_HZ` ABI covers.
const TICKS_PER_S: u64 = 100;

/// Process CPU time so far, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTime {
    /// Time in user mode, all threads.
    pub user_us: u64,
    /// Time in kernel mode, all threads.
    pub sys_us: u64,
}

impl CpuTime {
    /// The process's CPU time now (zero where `/proc` is unreadable).
    pub fn now() -> CpuTime {
        fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat_cpu(&s))
            .unwrap_or_default()
    }

    /// `self − earlier`, field by field.
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us.saturating_sub(earlier.user_us),
            sys_us: self.sys_us.saturating_sub(earlier.sys_us),
        }
    }
}

/// `utime`/`stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTime> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_us: utime * (1_000_000 / TICKS_PER_S),
        sys_us: stime * (1_000_000 / TICKS_PER_S),
    })
}

/// The `VmHWM` line (peak resident set, kB) of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The `steal` column (ticks the hypervisor ran something else) of the
/// aggregate `cpu` line of `/proc/stat`.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// Host steal time so far, in ticks (0 where unreadable).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0)
}

/// The 1-minute load average (0 where unreadable).
pub fn load_average() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The running kernel's release string.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_a_hostile_command_name() {
        let line = "15212 (a b) c) R 15167 15212 15167 0 -1 4194304 84 0 0 0 \
                    37 12 0 0 20 0 1 0 222843 2703360 335";
        assert_eq!(
            parse_stat_cpu(line),
            Some(CpuTime {
                user_us: 370_000,
                sys_us: 120_000
            })
        );
        assert_eq!(parse_stat_cpu("1 (x) R 2 3"), None);
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_the_second_token_of_its_line() {
        let status = "Name:\tcat\nVmPeak:\t    5000 kB\nVmHWM:\t    1648 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1648));
        assert_eq!(parse_vm_hwm_kb("Name:\tcat\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_counter_of_the_aggregate_line() {
        let stat = "cpu  54158 0 35457 335938 1969 0 7714 5003 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(5003));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn cpu_time_difference_saturates() {
        let a = CpuTime {
            user_us: 10,
            sys_us: 5,
        };
        let b = CpuTime {
            user_us: 30,
            sys_us: 5,
        };
        assert_eq!(
            b.since(a),
            CpuTime {
                user_us: 20,
                sys_us: 0
            }
        );
        assert_eq!(a.since(b), CpuTime::default());
    }
}
