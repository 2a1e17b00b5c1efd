//! What the benchmark reads about the daemon and the host from `/proc`:
//! the daemon's CPU time (`/proc/<pid>/stat`) and peak resident set
//! (`/proc/<pid>/status`), the host's steal time (`/proc/stat`) and
//! the CPU model (`/proc/cpuinfo`).

use std::io;

/// Kernel clock ticks per second (`USER_HZ`) in which `/proc` reports
/// CPU times. It is 100 on every mainstream Linux ABI, and the
/// standard library offers no way to ask without `libc`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in clock ticks from the contents of
/// `/proc/<pid>/stat`, summed over all threads of the process.
///
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_name = stat.get(stat.rfind(')')? + 1..)?;
    // After the name come state (field 3) .. ; utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the name.
    let mut fields = after_name.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value in kB of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next()? == "kB").then_some(value)
    })
}

/// Host-wide CPU time split from the aggregate `cpu` line of
/// `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostCpu {
    /// Ticks in any state other than idle and iowait, steal included.
    pub busy: u64,
    /// Ticks the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

impl HostCpu {
    /// Steal as a share of busy time between `self` and a later sample.
    pub fn steal_share_until(&self, later: &HostCpu) -> f64 {
        let busy = later.busy.saturating_sub(self.busy);
        let steal = later.steal.saturating_sub(self.steal);
        if busy == 0 {
            0.0
        } else {
            steal as f64 / busy as f64
        }
    }
}

/// Removes the host's stolen time from wall-clock latencies.
///
/// While the hypervisor runs another guest, a vCPU this host wants to
/// run makes no progress, so every latency on a shared host carries the
/// share `s` of its busy time that was stolen. Each latency is scaled by
/// `1 - s`, with `s` taken from the `samples` (ascending offsets) that
/// bracket `window_ns` around the operation's completion `ends_ns`.
pub fn steal_adjusted(
    latencies_ns: &[u64],
    ends_ns: &[u64],
    samples: &[(u64, HostCpu)],
    window_ns: u64,
) -> Vec<u64> {
    latencies_ns
        .iter()
        .zip(ends_ns)
        .map(|(&latency, &end)| {
            let n = samples.len();
            if n < 2 {
                return latency;
            }
            // The samples bracketing the window, clamped so that they
            // span at least one sampling interval.
            let lo = end.saturating_sub(window_ns / 2);
            let hi = end.saturating_add(window_ns / 2);
            let last = samples.partition_point(|&(at, _)| at < hi).clamp(1, n - 1);
            let first = samples
                .partition_point(|&(at, _)| at <= lo)
                .saturating_sub(1)
                .min(last - 1);
            let share = samples[first].1.steal_share_until(&samples[last].1);
            (latency as f64 * (1.0 - share)).round() as u64
        })
        .collect()
}

/// Parses the aggregate `cpu` line of `/proc/stat`: user, nice,
/// system, idle, iowait, irq, softirq, steal (guest time is already
/// inside user and nice).
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some("cpu"))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let [user, nice, system, _idle, _iowait, irq, softirq, steal] = ticks[..] else {
        return None;
    };
    Some(HostCpu {
        busy: user + nice + system + irq + softirq + steal,
        steal,
    })
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_owned())
    })
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"))
}

/// CPU seconds (user + system) the process has used so far.
pub fn process_cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or_else(|| invalid("/proc/<pid>/stat"))?;
    Ok(ticks as f64 / CLOCK_TICKS_PER_S)
}

/// The process's peak resident set (`VmHWM`) in kB.
pub fn peak_rss_kb(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_status_kb(&status, "VmHWM").ok_or_else(|| invalid("VmHWM in /proc/<pid>/status"))
}

/// Current host CPU counters.
pub fn host_cpu() -> io::Result<HostCpu> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    parse_host_cpu(&stat).ok_or_else(|| invalid("/proc/stat"))
}

/// The host CPU model, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| parse_cpu_model(&text))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_parenthesis() {
        let stat = "4242 (isomit (serve) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 \
                    731 129 0 0 20 0 7 0 123456 987654321 25000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 129));
        let plain = "17 (isomit-serve) R 1 17 17 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(11));
        assert_eq!(parse_stat_cpu_ticks("17 (short) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_values_are_read_in_kb() {
        let status = "Name:\tisomit-serve\nVmPeak:\t  812345 kB\nVmHWM:\t  154321 kB\n\
                      VmRSS:\t  150000 kB\nThreads:\t7\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(154_321));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(150_000));
        assert_eq!(parse_status_kb(status, "Threads"), None, "no kB unit");
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn host_steal_share_is_relative_to_busy_time() {
        let before =
            parse_host_cpu("cpu  100 0 50 1000 10 0 0 50 0 0\ncpu0 50 0 25 500 5 0 0 25 0 0\n")
                .unwrap();
        assert_eq!(
            before,
            HostCpu {
                busy: 200,
                steal: 50
            }
        );
        let after = parse_host_cpu("cpu  160 0 70 1400 10 5 5 70 7 0\n").unwrap();
        assert_eq!(after.busy, 310);
        let share = before.steal_share_until(&after);
        assert!((share - 20.0 / 110.0).abs() < 1e-12);
        assert_eq!(after.steal_share_until(&after), 0.0);
        assert_eq!(parse_host_cpu("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn steal_adjustment_uses_the_steal_around_each_completion() {
        let cpu = |busy, steal| HostCpu { busy, steal };
        // Quiet for the first second, then half of all busy time stolen.
        let samples = [
            (0, cpu(0, 0)),
            (500, cpu(100, 0)),
            (1_000, cpu(200, 0)),
            (1_500, cpu(300, 50)),
            (2_000, cpu(400, 100)),
        ];
        let adjusted = steal_adjusted(&[1_000, 1_000, 1_000], &[250, 1_750, 5_000], &samples, 500);
        assert_eq!(adjusted, vec![1_000, 500, 500]);
        // Without two samples nothing changes.
        assert_eq!(steal_adjusted(&[7], &[10], &[], 500), vec![7]);
        assert_eq!(steal_adjusted(&[7], &[10], &samples[..1], 500), vec![7]);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nprocessor\t: 1\n\
                    model name\t: Other\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }
}
