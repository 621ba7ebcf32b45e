//! Order statistics, metric reports and the process memory reading.

use std::time::Duration;

/// The `q`-quantile (`0.0..=1.0`) of `values` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One reported metric: name, value, unit and the number of samples
/// behind it (1 for a single reading, 0 when the workload has no such
/// quantity and the value is a placeholder).
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// `struct timespec` on 64-bit linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// The time of a processor-time clock, or `None` if the kernel refuses
/// it (a thread's clock after the thread exited).
fn cpu_clock(clock: std::ffi::c_int) -> Option<Duration> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// CPU time consumed so far by every thread of this process. The kernel
/// does not count time a thread waited for a processor, nor time the
/// hypervisor gave the virtual processor to another guest (steal), so a
/// busy neighbour on a shared host does not lengthen it.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID).expect("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed")
}

/// CPU time consumed so far by the live threads of this process whose
/// name (`/proc/self/task/*/comm`) is `name`. A thread spawned without
/// a name carries the name of the thread that spawned it.
pub fn threads_cpu(name: &str) -> Duration {
    let mut total = Duration::ZERO;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let tid = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok());
        if let (true, Some(tid)) = (comm.trim_end() == name, tid) {
            // The kernel's clock id of one thread's scheduler time:
            // the inverted thread id above CPUCLOCK_PERTHREAD_MASK (4)
            // | CPUCLOCK_SCHED (2).
            total += cpu_clock((!tid << 3) | 6).unwrap_or_default();
        }
    }
    total
}

/// Seconds of steal the host has charged to this machine's processors
/// since boot, from `/proc/stat` (0 where the kernel does not report it).
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: f64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    // USER_HZ is 100 on every linux architecture.
    ticks / 100.0
}

/// Peak and current resident set size in MiB, from one read of
/// `/proc/self/status`. Both fields come from the same read, so the
/// peak can never read below the current value through a race between
/// two reads.
pub fn rss_mib() -> Option<(f64, f64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| {
        status.lines().find_map(|line| {
            let rest = line.strip_prefix(key)?;
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
    };
    let hwm = field("VmHWM:")?;
    let rss = field("VmRSS:")?;
    let mib = |kb: u64| kb as f64 / 1024.0;
    Some((mib(hwm.max(rss)), mib(rss)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.95), 95.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
