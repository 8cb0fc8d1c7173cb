//! Resource columns read from `/proc` with the standard library only.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every mainstream Linux target).
const USER_HZ: f64 = 100.0;

/// Value of a `Key:  123 kB`-style line of a status file, in its unit.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process (`VmHWM`), bytes.
pub fn vm_hwm_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| status_field(&t, "VmHWM"))
        .map_or(0, |kb| kb * 1024)
}

/// Voluntary and involuntary context switches of the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtxSwitches {
    /// `voluntary_ctxt_switches`.
    pub voluntary: u64,
    /// `nonvoluntary_ctxt_switches`.
    pub involuntary: u64,
}

impl CtxSwitches {
    /// Counts of the calling thread so far.
    pub fn thread() -> Self {
        let text = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
        CtxSwitches {
            voluntary: status_field(&text, "voluntary_ctxt_switches").unwrap_or(0),
            involuntary: status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0),
        }
    }

    /// Switches between `earlier` and `self`.
    pub fn since(self, earlier: CtxSwitches) -> CtxSwitches {
        CtxSwitches {
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }

    /// Element-wise sum.
    pub fn plus(self, other: CtxSwitches) -> CtxSwitches {
        CtxSwitches {
            voluntary: self.voluntary + other.voluntary,
            involuntary: self.involuntary + other.involuntary,
        }
    }
}

/// User and system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_cpu(&text).unwrap_or((0.0, 0.0))
}

/// `(utime, stime)` in seconds from a `/proc/<pid>/stat` line. The
/// command name may contain spaces, so fields are counted after its
/// closing parenthesis: `utime` and `stime` are fields 14 and 15.
fn parse_stat_cpu(text: &str) -> Option<(f64, f64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime / USER_HZ, stime / USER_HZ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_lines() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t5\n\
                      nonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM"), Some(2048));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(5));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(status, "VmRSS"), None);
        let stat = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 30 0 0";
        assert_eq!(parse_stat_cpu(stat), Some((2.5, 0.3)));
    }

    #[test]
    fn live_readings_are_plausible() {
        assert!(vm_hwm_bytes() > 0);
        let a = CtxSwitches::thread();
        std::thread::yield_now();
        let b = CtxSwitches::thread();
        assert!(b.voluntary >= a.voluntary);
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
