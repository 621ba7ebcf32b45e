//! Process memory audit via `/proc/self/status`.
//!
//! The 1000× pipeline runs are memory-bound long before they are
//! CPU-bound if sharding ever regresses to materializing the whole
//! corpus' prepared artifacts at once, so the bench harness samples the
//! kernel's own high-water mark (`VmHWM`, peak resident set) and the
//! current resident set (`VmRSS`) and reports both in `BENCH_core.json`,
//! where `bench.sh` gates growth against the committed reference.
//! Std-only: the numbers come from parsing the procfs status file, which
//! exists on every Linux the project targets; other platforms get `None`
//! and the callers report the sample as unavailable rather than lying.

/// Peak and current resident set size of the process, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssSample {
    /// High-water mark of the resident set (`VmHWM`).
    pub peak: u64,
    /// Current resident set (`VmRSS`).
    pub current: u64,
}

/// Peak and current RSS from a single read of `/proc/self/status`, or
/// `None` when the platform has no procfs. One read keeps the pair
/// ordered: with two reads, the allocation made for the first one can
/// grow RSS past the high-water mark it reported.
pub fn rss_sample() -> Option<RssSample> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = |key: &str| -> Option<u64> {
        let line = status.lines().find_map(|l| l.strip_prefix(key))?;
        let number = line.trim().trim_end_matches("kB").trim();
        number.parse::<u64>().ok().map(|kb| kb * 1024)
    };
    Some(RssSample {
        peak: kb("VmHWM:")?,
        current: kb("VmRSS:")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_samples_are_positive_and_ordered() {
        let RssSample { peak, current } = rss_sample().expect("VmHWM/VmRSS readable on linux");
        assert!(current > 0);
        assert!(
            peak >= current,
            "high-water mark {peak} below current RSS {current}"
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_tracks_allocation_growth() {
        let before = rss_sample().unwrap().peak;
        // 64 MiB touched page by page: VmHWM must move if it was near
        // the current RSS, and can never move backwards.
        let mut buf = vec![0u8; 64 << 20];
        for i in (0..buf.len()).step_by(4096) {
            buf[i] = 1;
        }
        let after = rss_sample().unwrap().peak;
        assert!(
            after >= before,
            "VmHWM moved backwards: {before} -> {after}"
        );
        // Keep the buffer alive past the second sample.
        assert_eq!(buf[0], 1);
    }
}
