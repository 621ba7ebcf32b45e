//! The host-speed reference: a fixed piece of work, owned by the
//! benchmark and independent of every crate it measures, timed between
//! the measured operations.
//!
//! On a shared host the same instructions take a different time from
//! minute to minute: neighbours compete for the shared cache, memory
//! bandwidth and the processor's clock, and none of this shows as steal
//! or as waiting for a processor. The reference does the kind of work
//! the pipeline does (short strings: hashing, map inserts and lookups,
//! sorting, edit distances), so it slows down with the host as the
//! pipeline does. A timing scaled by the reference timed just before
//! and just after it reads as it would on a host where the reference
//! takes [`REFERENCE_MS`]: a change to the program moves it, a change in
//! the host's speed moves it much less. On a 2-vCPU VM of a busy shared
//! host, scaling halved the run-to-run spread of the batch workloads'
//! timings.

use crate::stats::process_cpu;
use qi_runtime::SplitMix64;
use std::collections::HashMap;

/// The reference speed scaled timings are expressed at: the
/// reference's processor time, ms. It is close to the reference's median
/// time on a 2-vCPU Intel Xeon VM, so scaled timings there read close to
/// raw ones.
pub const REFERENCE_MS: f64 = 16.0;

/// Words in the reference's vocabulary: a table of a few MB, beyond
/// the processor-private caches like the pipeline's lexicon and label
/// indexes, so contention for the shared cache and for memory slows the
/// reference as it slows them.
const VOCABULARY: usize = 1 << 17;

fn word(rng: &mut SplitMix64) -> String {
    let len = 4 + rng.gen_range(8);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(16) as u8) as char)
        .collect()
}

/// The reference work: words built afresh and looked up in `table`,
/// then counted, sorted and compared by edit distance. Returns a
/// checksum so none of it is optimized away.
fn reference_work(table: &HashMap<String, u32>) -> u64 {
    let mut rng = SplitMix64::new(0x7265_6665_7265_6E63);
    let mut checksum = 0u64;
    let words: Vec<String> = (0..40_000).map(|_| word(&mut rng)).collect();
    let mut counts: HashMap<&str, u32> = HashMap::new();
    for w in &words {
        checksum = checksum.wrapping_add(table.get(w).copied().unwrap_or(1) as u64);
        *counts.entry(w.as_str()).or_default() += 1;
    }
    let mut sorted: Vec<&String> = words.iter().take(8_000).collect();
    sorted.sort();
    checksum = checksum.wrapping_add(counts.len() as u64);
    for pair in sorted.windows(2) {
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(edit_distance(pair[0], pair[1]) as u64);
    }
    checksum
}

fn edit_distance(a: &str, b: &str) -> usize {
    let b = b.as_bytes();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.as_bytes().iter().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let above = row[j + 1];
            row[j + 1] = (above + 1)
                .min(row[j] + 1)
                .min(diagonal + usize::from(ca != cb));
            diagonal = above;
        }
    }
    row[b.len()]
}

/// The reference's lookup table and every timing of it taken so far.
pub struct Calibration {
    table: HashMap<String, u32>,
    pub timings_ms: Vec<f64>,
}

impl Calibration {
    /// Build the lookup table; untimed.
    pub fn new() -> Calibration {
        let mut rng = SplitMix64::new(0x0074_6162_6C65);
        let table = (0..VOCABULARY as u32)
            .map(|i| (word(&mut rng), i))
            .collect();
        Calibration {
            table,
            timings_ms: Vec::new(),
        }
    }

    /// Time the reference once in processor time, ms.
    pub fn sample(&mut self) -> f64 {
        let start = process_cpu();
        std::hint::black_box(reference_work(&self.table));
        let t = (process_cpu() - start).as_secs_f64() * 1e3;
        self.timings_ms.push(t);
        t
    }

    /// The latest timing, taking one if there is none yet.
    pub fn last(&mut self) -> f64 {
        match self.timings_ms.last() {
            Some(&t) => t,
            None => self.sample(),
        }
    }

    /// The factor that scales a timing taken between two reference
    /// timings, `before` and `after` (ms), to the reference speed.
    pub fn scale(before: f64, after: f64) -> f64 {
        REFERENCE_MS * 2.0 / (before + after)
    }
}
