//! End-to-end and per-layer benchmark of the labeling pipeline and the
//! labeling server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload drift_match|drift_truth|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in its own process. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! records spans around every layer call and prints the per-layer
//! metrics instead. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. The
//! process exits non-zero when an output check fails or, for
//! `serve_mixed`, when the load generator itself fell behind. See
//! `perfbench/README.md` for what each workload and metric means.

mod calib;
mod drift;
mod serve;
mod stats;
mod trace;

use stats::Report;

/// Set-ups per batch run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// The drift generator's default seed, and a seed no workload was
/// tuned on; the traced run's shape guard runs on both.
pub const DEFAULT_SEED: u64 = 0xD81F;
pub const HELD_OUT_SEED: u64 = 0x5EED_0007;

/// Every end-to-end metric, printed by every workload with `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_per_s",
    "domain_p50_ms",
    "domain_tail_ms",
    "fld_acc",
    "peak_rss_mib",
];

/// Every per-layer metric, printed by every workload with `--trace 1`;
/// a layer the workload does not drive reads 0 with 0 samples.
const PER_LAYER: &[(&str, &str)] = &[
    ("mapping.match_ms.p50", "ms"),
    ("mapping.match_ms.p95", "ms"),
    ("mapping.match_ms.sum", "ms"),
    ("mapping.pairs_generated", "count"),
    ("mapping.pairs_scored", "count"),
    ("mapping.pairs_accepted", "count"),
    ("mapping.accept_ratio", "ratio"),
    ("mapping.accepted.string", "count"),
    ("mapping.accepted.word_set", "count"),
    ("mapping.accepted.synonym", "count"),
    ("mapping.accepted.fuzzy", "count"),
    ("mapping.pair_precision", "ratio"),
    ("mapping.pair_recall", "ratio"),
    ("mapping.self_share", "ratio"),
    ("lexicon.lookups", "count"),
    ("lexicon.hit_rate", "ratio"),
    ("text.stem_hit_rate", "ratio"),
    ("label.ms.p50", "ms"),
    ("label.ms.p95", "ms"),
    ("label.ms.sum", "ms"),
    ("label.naming_cache.hit_rate", "ratio"),
    ("label.unlabeled_fields", "count"),
    ("label.self_share", "ratio"),
    ("merge.ms.p50", "ms"),
    ("merge.ms.sum", "ms"),
    ("eval.ms.sum", "ms"),
    ("domain.span_coverage", "ratio"),
    ("serve.read_us.p50", "us"),
    ("serve.read_us.p99", "us"),
    ("serve.saturated_reads_per_s", "1/s"),
    ("serve.mixed_ingest_ms.p50", "ms"),
    ("serve.mixed_ingest_ms.p95", "ms"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.http.labels_us.p50", "us"),
    ("serve.http.labels_us.p99", "us"),
    ("serve.http.tree_us.p50", "us"),
    ("serve.http.tree_us.p99", "us"),
    ("serve.http.explain_us.p50", "us"),
    ("serve.http.explain_us.p99", "us"),
    ("serve.http.query_us.p50", "us"),
    ("serve.http.query_us.p99", "us"),
    ("serve.http.ingest_us.p50", "us"),
    ("serve.http.ingest_us.p99", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.invalidations", "count"),
    ("query.exec_us.sum", "us"),
    ("serve.ingest.delta_share", "ratio"),
    ("serve.ingest.pairs_scored", "count"),
    ("gen.late_us.p99", "us"),
    ("trace.overhead_pct", "%"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    DriftMatch,
    DriftTruth,
    ServeMixed,
}

pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "drift_match" => Workload::DriftMatch,
                    "drift_truth" => Workload::DriftTruth,
                    "serve_mixed" => Workload::ServeMixed,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run produced: operation counts, output-check
/// verdict, metrics and notes for the human-readable summary.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Set when the measurement itself is not trustworthy (the load
    /// generator fell behind); the run then prints no result.
    pub invalid: Option<String>,
    pub notes: Vec<String>,
    pub report: Report,
}

impl Outcome {
    pub fn fail(&mut self, message: String) {
        eprintln!("perfbench: output check failed: {message}");
        self.errors.push(message);
    }
}

/// The metrics under the names the workload's users know them by:
/// `(name, metric it is read from, scale, unit)`.
fn user_view(workload: Workload) -> Vec<(&'static str, &'static str, f64, &'static str)> {
    let common = [
        ("setup_s", "setup_s", 1.0, "s"),
        ("peak_rss_mib", "peak_rss_mib", 1.0, "MiB"),
    ];
    let mut view = common.to_vec();
    match workload {
        Workload::DriftMatch | Workload::DriftTruth => view.extend([
            ("domains_per_s", "throughput_per_s", 1.0, "1/s"),
            ("domain_p50_ms", "domain_p50_ms", 1.0, "ms"),
            ("domain_p95_ms", "domain_tail_ms", 1.0, "ms"),
            ("fld_acc", "fld_acc", 1.0, "ratio"),
        ]),
        Workload::ServeMixed => view.extend([
            ("reads_per_cpu_s", "throughput_per_s", 1.0, "1/s"),
            ("ingest_p50_ms", "domain_p50_ms", 1.0, "ms"),
            ("ingest_p95_ms", "domain_tail_ms", 1.0, "ms"),
            ("served_fld_acc", "fld_acc", 1.0, "ratio"),
            // Unscaled and unbounded: see perfbench/README.md.
            ("read_p50_us", "serve.read_us.p50", 1.0, "us"),
            ("read_p99_us", "serve.read_us.p99", 1.0, "us"),
            ("serve_max_rps", "serve.saturated_reads_per_s", 1.0, "1/s"),
            (
                "mixed_ingest_p50_ms",
                "serve.mixed_ingest_ms.p50",
                1.0,
                "ms",
            ),
            (
                "mixed_ingest_p95_ms",
                "serve.mixed_ingest_ms.p95",
                1.0,
                "ms",
            ),
        ]),
    }
    view
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload drift_match|drift_truth|serve_mixed \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload {
        Workload::DriftMatch => drift::run(&args, drift::Clusters::Matched),
        Workload::DriftTruth => drift::run(&args, drift::Clusters::Truth),
        Workload::ServeMixed => serve::run(&args),
    };
    if let Some(reason) = &outcome.invalid {
        for note in &outcome.notes {
            eprintln!("# {note}");
        }
        eprintln!("perfbench: run invalid: {reason}");
        std::process::exit(3);
    }
    let (peak, current) = stats::rss_mib().unwrap_or((0.0, 0.0));
    outcome.notes.push(format!(
        "memory: peak {peak:.1} MiB, current {current:.1} MiB"
    ));
    let report = &mut outcome.report;
    let names: Vec<&str> = if args.trace {
        for &(name, unit) in PER_LAYER {
            if report.get(name).is_none() {
                report.add(name, 0.0, unit, 0);
            }
        }
        PER_LAYER.iter().map(|&(name, _)| name).collect()
    } else {
        report.add("peak_rss_mib", peak, "MiB", 1);
        END_TO_END.to_vec()
    };
    let mut metrics = qi_runtime::json::Obj::new();
    let mut table = Vec::new();
    let mut broken = Vec::new();
    for &name in &names {
        let metric = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("workload did not report {name}"));
        table.push(format!(
            "{:<30} {:>16.6} {:<6} n={}",
            metric.name, metric.value, metric.unit, metric.samples
        ));
        if !metric.value.is_finite() {
            broken.push(name);
        }
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        metrics.raw(
            name,
            qi_runtime::json::Obj::new()
                .raw("value", format!("{value:?}"))
                .str("unit", metric.unit)
                .finish(),
        );
    }
    for name in broken {
        outcome.fail(format!("{name} is not a finite number"));
    }

    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# operations: {} attempted, {} ok, {} failed (error rate {:.6})",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for line in table {
        println!("{line}");
    }
    let report = &outcome.report;
    if !args.trace {
        println!("# as named by the workload's users:");
        for (name, source, scale, unit) in user_view(args.workload) {
            let metric = report.metrics.iter().find(|m| m.name == source);
            let (value, samples) = metric.map_or((0.0, 0), |m| (m.value * scale, m.samples));
            println!("#   {name:<20} {value:>16.6} {unit:<6} n={samples}");
        }
        println!(
            "#   {:<20} {:>16.6} {:<6} n={}",
            "error_rate",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "ratio",
            outcome.attempted
        );
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        qi_runtime::json::Obj::new()
            .bool("correct", correct)
            .u64("attempted", outcome.attempted.max(1))
            .u64("failed", outcome.failed)
            .raw("metrics", metrics.finish())
            .finish()
    );
    if !correct {
        std::process::exit(1);
    }
}
