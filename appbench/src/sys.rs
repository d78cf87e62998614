//! Process readings: CPU time from `getrusage`, peak memory from
//! `/proc/self/status` and the machine's CPU steal from `/proc/stat`.

use std::time::Duration;

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    /// `ru_maxrss` and thirteen more counters this file ignores.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Result<RUsage, String> {
    let mut usage = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // of 64-bit Linux, and `RUSAGE_SELF` asks for this process only.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        Ok(usage)
    } else {
        Err(format!(
            "getrusage failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

fn duration(tv: &TimeVal) -> Duration {
    Duration::from_secs(tv.sec as u64) + Duration::from_micros(tv.usec as u64)
}

/// User plus system CPU time consumed so far by this process, all threads.
pub fn process_cpu() -> Result<Duration, String> {
    let usage = rusage()?;
    Ok(duration(&usage.utime) + duration(&usage.stime))
}

/// Peak resident set size of this process since it started or since the
/// last [`reset_peak_rss`], in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// Returns the heap a finished workload freed to the system and resets the
/// peak that [`peak_rss_mib`] reports to the resident set size left, so
/// that the next workload in the same process reports its own peak.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and is safe to call from any thread at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|err| format!("cannot reset the peak resident set size: {err}"))
}

/// Machine-wide CPU counters: `(steal ticks, total ticks)`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the aggregate `cpu` line of `/proc/stat`.
    pub fn now() -> Result<CpuTicks, String> {
        let stat = std::fs::read_to_string("/proc/stat")
            .map_err(|err| format!("cannot read /proc/stat: {err}"))?;
        let line = stat
            .lines()
            .find(|line| line.starts_with("cpu "))
            .ok_or("no cpu line in /proc/stat")?;
        let values: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal; guest time is
        // already included in user.
        if values.len() < 8 {
            return Err("short cpu line in /proc/stat".into());
        }
        Ok(CpuTicks {
            steal: values[7],
            total: values[..8].iter().sum(),
        })
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
