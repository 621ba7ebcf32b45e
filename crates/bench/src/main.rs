//! Self-contained benchmark harness for the labeling pipeline.
//!
//! Times each pipeline stage over the seven builtin domains on
//! `std::time::Instant` (median of `--iters` runs after `--warmup`
//! discards) and reports the runtime caches' hit rates, writing one JSON
//! document (default `BENCH_core.json`) plus a human-readable summary on
//! stdout.
//!
//! Stages:
//! * `normalize` — display-normalize every distinct source field label
//!   (tokenization, stopwording, Porter stemming, WordNet base forms);
//! * `cluster`   — run the label-similarity matcher against the ground
//!   truth in every domain;
//! * `cluster_scaled_10x` / `cluster_scaled_100x` — the indexed matcher
//!   over each domain's corpus replicated 10× / 100× with disjoint
//!   replica vocabularies ([`qi_datasets::replicate_schemas`]), the
//!   regime where candidate generation scales linearly but the naive
//!   pair space scales quadratically; `--verify-naive` additionally
//!   asserts the indexed 10× mappings equal the naive reference engine;
//! * `merge`     — 1:m expansion + structural merge per domain;
//! * `label`     — the three-phase naming algorithm per domain (fanned
//!   out over `--threads` workers);
//! * `evaluate`  — Table 6 metrics + the simulated acceptance panel.
//!
//! `--no-cache --threads 1` is the baseline configuration: memo-caches
//! off, one worker everywhere — the speedup quoted for the cached
//! parallel configuration is measured against exactly that run.

use qi_core::{LabeledInterface, Labeler, NamingPolicy};
use qi_datasets::{replicate_schemas, DriftConfig, DriftReport, PreparedDomain};
use qi_eval::matcher_eval::evaluate_matcher;
use qi_eval::metrics::{fields_accuracy, integrated_shape, internal_accuracy};
use qi_eval::Panel;
use qi_lexicon::Lexicon;
use qi_mapping::matcher::{match_by_labels_with, MatchStats, MatcherConfig};
use qi_runtime::{json, parallel_map, resolve_threads, CacheStats};
use qi_text::LabelText;
use std::time::Instant;

struct Config {
    threads: usize,
    cache: bool,
    warmup: usize,
    iters: usize,
    scale: usize,
    verify_naive: bool,
    telemetry: bool,
    observe: bool,
    trace_out: Option<String>,
    out: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            threads: 0,
            cache: true,
            warmup: 1,
            iters: 5,
            scale: 1000,
            verify_naive: false,
            telemetry: false,
            observe: false,
            trace_out: None,
            out: "BENCH_core.json".to_string(),
        }
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("qi-bench: {message}");
    eprintln!(
        "usage: qi-bench [--no-cache] [--threads N] [--warmup W] [--iters K] \
         [--scale N] [--verify-naive] [--telemetry] [--observe] [--trace-out PATH] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut config = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
        };
        let int_for = |flag: &str, value: String| {
            value.parse::<usize>().unwrap_or_else(|_| {
                usage_error(&format!("{flag} expects an integer, got {value:?}"))
            })
        };
        match arg.as_str() {
            "--no-cache" => config.cache = false,
            "--threads" => config.threads = int_for("--threads", value_for("--threads")),
            "--warmup" => config.warmup = int_for("--warmup", value_for("--warmup")),
            "--iters" => config.iters = int_for("--iters", value_for("--iters")).max(1),
            "--scale" => config.scale = int_for("--scale", value_for("--scale")),
            "--verify-naive" => config.verify_naive = true,
            "--telemetry" => config.telemetry = true,
            "--observe" => config.observe = true,
            "--trace-out" => config.trace_out = Some(value_for("--trace-out")),
            "--out" => config.out = value_for("--out"),
            "--help" | "-h" => {
                println!(
                    "qi-bench [--no-cache] [--threads N] [--warmup W] [--iters K] \
                     [--scale N] [--verify-naive] [--telemetry] [--observe] [--trace-out PATH] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    config
}

/// Run `f` `warmup + iters` times; return the last `iters` durations in
/// milliseconds.
fn time_stage(warmup: usize, iters: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn median(runs: &[f64]) -> f64 {
    let mut sorted = runs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Benchmark documents carry three fraction digits.
const DECIMALS: usize = 3;

fn number(value: f64) -> String {
    json::number(value, DECIMALS)
}

fn stage_json(name: &str, runs: &[f64]) -> String {
    let mut list = json::Arr::new();
    for &run in runs {
        list.raw(number(run));
    }
    json::Obj::new()
        .str("name", name)
        .f64("median_ms", median(runs), DECIMALS)
        .raw("runs_ms", list.finish())
        .finish()
}

fn cache_json(stats: &CacheStats) -> String {
    json::Obj::new()
        .u64("hits", stats.hits)
        .u64("misses", stats.misses)
        .u64("entries", stats.entries as u64)
        .f64("hit_rate", stats.hit_rate(), DECIMALS)
        .finish()
}

fn main() {
    let config = parse_args();
    let lexicon = Lexicon::builtin();
    lexicon.set_cache_enabled(config.cache);
    qi_text::porter::set_stem_cache_enabled(config.cache);
    // With --telemetry the *timed* label stage carries a live registry,
    // so the reported medians measure the instrumented pipeline — the
    // off-vs-on comparison in scripts/check.sh is honest. Off is the
    // default: one pointer check per phase boundary.
    // --observe layers the full observability plane on top of the live
    // registry: an attached flight recorder plus a 100ms windowed
    // time-series ring ticked from inside the timed stage loops, so the
    // check.sh overhead guard measures the instrumented hot path, not
    // an idle recorder.
    let telemetry = if config.observe {
        qi_runtime::Telemetry::new().attach_events(qi_runtime::EventRecorder::new(4096))
    } else if config.telemetry || config.trace_out.is_some() {
        qi_runtime::Telemetry::new()
    } else {
        qi_runtime::Telemetry::off()
    };
    let series = if config.observe {
        qi_runtime::TimeSeries::new(100_000_000, 64)
    } else {
        qi_runtime::TimeSeries::off()
    };
    let domains = qi_datasets::all_domains();
    let outer = resolve_threads(config.threads).min(domains.len());
    let inner = if outer > 1 { 1 } else { config.threads };
    let total_start = Instant::now();

    // ---- normalize ------------------------------------------------------
    let mut labels: Vec<String> = Vec::new();
    for domain in &domains {
        for schema in &domain.schemas {
            for id in schema.preorder() {
                if let Some(label) = &schema.node(id).label {
                    labels.push(label.clone());
                }
            }
        }
    }
    let normalize = time_stage(config.warmup, config.iters, || {
        for label in &labels {
            let text = LabelText::new(label, &lexicon);
            std::hint::black_box(&text);
        }
    });

    // ---- cluster --------------------------------------------------------
    let cluster = time_stage(config.warmup, config.iters, || {
        for domain in &domains {
            std::hint::black_box(evaluate_matcher(domain, &lexicon));
            // Pointer checks when the recorder/series are off; under
            // --observe this puts one event emit and one interval probe
            // per domain inside the timed region.
            telemetry.event(
                qi_runtime::Severity::Debug,
                qi_runtime::Category::Ingest,
                "bench.cluster.domain",
                || vec![("domain", domain.name.as_str().into())],
            );
            series.maybe_tick(&telemetry);
        }
    });

    // ---- cluster_scaled -------------------------------------------------
    // Replicated corpora with disjoint replica vocabularies: candidate
    // generation sees k× the postings, while a naive matcher would see
    // k²× the pair space. Corpus construction is outside the timed
    // region. The 100× stage runs fewer iterations — it exists to show
    // the scaling exponent, not to need five samples.
    let scaled_10: Vec<_> = domains
        .iter()
        .map(|d| replicate_schemas(&d.schemas, 10))
        .collect();
    let scaled_100: Vec<_> = domains
        .iter()
        .map(|d| replicate_schemas(&d.schemas, 100))
        .collect();
    let matcher_config = MatcherConfig {
        threads: config.threads,
        ..MatcherConfig::default()
    };
    let cluster_scaled_10x = time_stage(config.warmup, config.iters, || {
        for corpus in &scaled_10 {
            std::hint::black_box(match_by_labels_with(corpus, &lexicon, matcher_config));
        }
    });
    let cluster_scaled_100x = time_stage(config.warmup.min(1), config.iters.min(3), || {
        for corpus in &scaled_100 {
            std::hint::black_box(match_by_labels_with(corpus, &lexicon, matcher_config));
        }
    });
    if config.verify_naive {
        let naive_config = MatcherConfig {
            naive: true,
            ..matcher_config
        };
        for (domain, corpus) in domains.iter().zip(&scaled_10) {
            let indexed = match_by_labels_with(corpus, &lexicon, matcher_config);
            let naive = match_by_labels_with(corpus, &lexicon, naive_config);
            if indexed != naive {
                eprintln!(
                    "qi-bench: indexed/naive mapping mismatch on 10x {}",
                    domain.name
                );
                std::process::exit(1);
            }
        }
        println!("qi-bench: verify-naive OK (indexed == naive on all 10x corpora)");
    }

    drop(scaled_10);
    drop(scaled_100);

    // ---- merge ----------------------------------------------------------
    let merge = time_stage(config.warmup, config.iters, || {
        for domain in &domains {
            std::hint::black_box(domain.prepare());
        }
    });
    let prepared: Vec<PreparedDomain> = domains.iter().map(|d| d.prepare()).collect();

    // ---- label ----------------------------------------------------------
    let mut labeled: Vec<LabeledInterface> = Vec::new();
    let label = time_stage(config.warmup, config.iters, || {
        labeled = parallel_map(&prepared, config.threads, |_, p| {
            let out = Labeler::new(&lexicon, NamingPolicy::default())
                .with_threads(inner)
                .with_cache(config.cache)
                .with_telemetry(telemetry.clone())
                .label(&p.schemas, &p.mapping, &p.integrated);
            telemetry.event(
                qi_runtime::Severity::Debug,
                qi_runtime::Category::Ingest,
                "bench.label.domain",
                || {
                    vec![
                        ("domain", p.name.as_str().into()),
                        ("fields", (out.tree.leaves().count() as u64).into()),
                    ]
                },
            );
            out
        });
        series.maybe_tick(&telemetry);
    });
    let naming_cache = labeled.iter().fold(CacheStats::default(), |acc, l| {
        acc.merge(&l.report.naming_cache)
    });

    // ---- evaluate -------------------------------------------------------
    let panel = Panel::default();
    let mut fld_acc_sum = 0.0;
    let evaluate = time_stage(config.warmup, config.iters, || {
        fld_acc_sum = 0.0;
        for (p, l) in prepared.iter().zip(&labeled) {
            let (ha, ha_star) = panel.survey(&p.name, l, &p.schemas, &p.mapping);
            std::hint::black_box((integrated_shape(l), internal_accuracy(l), ha, ha_star));
            fld_acc_sum += fields_accuracy(l);
        }
    });

    // ---- full-scale stages: cloned baselines + drift corpus -------------
    // `--scale 0` skips these; the default `--scale 1000` is the 1000×
    // regime. Three scaled measurements run in sequence, each corpus
    // built, used and dropped before the next so peak RSS reflects one
    // corpus, not three:
    //
    // * `cluster_scaled_1000x` — renamed replicas (`replicate_schemas`),
    //   the matcher *throughput* baseline: disjoint vocabularies keep
    //   indexed candidate generation linear in the replica count.
    // * the cloned cache ceiling — *verbatim* clones, the cache
    //   baseline: naive corpus scaling repeats every surface, so
    //   per-occurrence lexicon lookups hit on all but the first copy.
    //   (Renamed replicas are useless here: renaming every token makes
    //   the vocabulary grow linearly, which *understates* how flattering
    //   cloned corpora are to caches.)
    // * `drift_scaled` + `label_scaled` — the drift corpus (per-domain
    //   sharded fuzzy matching, then the full per-domain pipeline:
    //   matcher clusters → merge → label → eval, nothing held beyond
    //   one domain's artifacts per worker).
    //
    // The cache comparison uses the morphology (`base_form`) cache
    // only: it is probed once per token occurrence, so its hit rate
    // tracks vocabulary variety. The resolve/synonymy caches are probed
    // per scored pair and sit near 1.0 on any corpus shape. Both sides
    // are measured from a reset cache over the same number of matcher
    // passes, so warm-up dilution cancels in the comparison.
    let mut scaled_stages: Vec<(String, Vec<f64>)> = Vec::new();
    let mut drift_json = "null".to_string();
    if config.scale > 0 {
        let scaled_full: Vec<_> = domains
            .iter()
            .map(|d| replicate_schemas(&d.schemas, config.scale))
            .collect();
        let runs = time_stage(config.warmup.min(1), config.iters.min(2), || {
            for corpus in &scaled_full {
                std::hint::black_box(match_by_labels_with(corpus, &lexicon, matcher_config));
            }
        });
        scaled_stages.push((format!("cluster_scaled_{}x", config.scale), runs));
        drop(scaled_full);

        // The cloned cache ceiling: 20 verbatim copies of each domain,
        // matched once per pass. Untimed — this probe exists only to
        // measure the morphology hit rate naive cloning produces.
        const CEILING_CLONES: usize = 20;
        let passes = config.warmup.min(1) + config.iters.clamp(1, 2);
        let verbatim: Vec<Vec<_>> = domains
            .iter()
            .map(|d| {
                let mut corpus = Vec::with_capacity(d.schemas.len() * CEILING_CLONES);
                for _ in 0..CEILING_CLONES {
                    corpus.extend_from_slice(&d.schemas);
                }
                corpus
            })
            .collect();
        lexicon.reset_caches();
        let cloned_cache_before = lexicon.morph_cache_stats();
        for _ in 0..passes {
            for corpus in &verbatim {
                std::hint::black_box(match_by_labels_with(corpus, &lexicon, matcher_config));
            }
        }
        let cloned_cache = lexicon
            .morph_cache_stats()
            .delta_since(&cloned_cache_before);
        drop(verbatim);

        // The drift corpus: `domains × scale` independent domains of
        // realistic label drift (seeded; see qi_datasets::drift).
        let drift_config = DriftConfig {
            domains: domains.len() * config.scale,
            ..DriftConfig::default()
        };
        let drift_domains = qi_datasets::generate_drift_corpus(&drift_config, &lexicon);
        let drift_matcher = MatcherConfig {
            fuzzy: true,
            threads: inner,
            ..MatcherConfig::default()
        };
        let mut drift_stats = MatchStats::default();
        lexicon.reset_caches();
        let drift_cache_before = lexicon.morph_cache_stats();
        let runs = time_stage(config.warmup.min(1), config.iters.min(2), || {
            let per_domain = parallel_map(&drift_domains, config.threads, |_, d| {
                qi_mapping::match_by_labels_stats(&d.schemas, &lexicon, drift_matcher).1
            });
            drift_stats = MatchStats::default();
            for stats in &per_domain {
                drift_stats.absorb(stats);
            }
        });
        let drift_cache = lexicon.morph_cache_stats().delta_since(&drift_cache_before);
        scaled_stages.push(("drift_scaled".to_string(), runs));

        let mut drift_fields = 0u64;
        let mut drift_acc_sum = 0.0;
        let runs = time_stage(config.warmup.min(1), config.iters.min(1), || {
            let per_domain = parallel_map(&drift_domains, config.threads, |_, d| {
                let mapping = match_by_labels_with(&d.schemas, &lexicon, drift_matcher);
                let integrated = qi_merge::merge(&d.schemas, &mapping);
                let labeled = Labeler::new(&lexicon, NamingPolicy::default())
                    .with_threads(inner)
                    .with_cache(config.cache)
                    .label(&d.schemas, &mapping, &integrated);
                (
                    labeled.tree.leaves().count() as u64,
                    fields_accuracy(&labeled),
                )
            });
            drift_fields = per_domain.iter().map(|(f, _)| f).sum();
            drift_acc_sum = per_domain.iter().map(|(_, a)| a).sum();
        });
        scaled_stages.push(("label_scaled".to_string(), runs));

        // The drift corpus must demonstrably exercise the expensive
        // matcher paths — a silent regression to the cloned regime
        // makes every scaled number flattering again, so it is a hard
        // failure, not a warning. The cache comparison only runs in
        // cached mode (with --no-cache both hit rates are zero).
        let mut distinct_labels: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut drift_interfaces = 0u64;
        for domain in &drift_domains {
            drift_interfaces += domain.schemas.len() as u64;
            for schema in &domain.schemas {
                for node in schema.nodes() {
                    if let Some(label) = node.label.as_deref() {
                        distinct_labels.insert(label);
                    }
                }
            }
        }
        let cloned_rate = cloned_cache.hit_rate();
        let drift_rate = drift_cache.hit_rate();
        let report = DriftReport {
            domains: drift_domains.len(),
            interfaces: drift_interfaces,
            distinct_labels: distinct_labels.len() as u64,
            stats: drift_stats,
            morph_cache: drift_cache,
        };
        let ceiling = if config.cache {
            (cloned_rate - 0.005).max(0.0)
        } else {
            1.0
        };
        if let Err(e) = report.check(true, ceiling) {
            eprintln!("qi-bench: drift corpus check failed: {e}");
            std::process::exit(1);
        }
        drift_json = json::Obj::new()
            .u64("scale", config.scale as u64)
            .u64("domains", report.domains as u64)
            .u64("interfaces", report.interfaces)
            .u64("distinct_labels", report.distinct_labels)
            .u64("fields_total", report.stats.fields_total)
            .u64("pairs_accepted", report.stats.pairs_accepted)
            .u64("accepted_string", report.stats.accepted_string)
            .u64("accepted_word_set", report.stats.accepted_word_set)
            .u64("accepted_synonym", report.stats.accepted_synonym)
            .u64("accepted_fuzzy", report.stats.accepted_fuzzy)
            .f64("cloned_cache_hit_rate", cloned_rate, DECIMALS)
            .f64("drift_cache_hit_rate", drift_rate, DECIMALS)
            .u64("label_scaled_fields", drift_fields)
            .f64(
                "label_scaled_mean_fld_acc",
                drift_acc_sum / drift_domains.len().max(1) as f64,
                DECIMALS,
            )
            .finish();
    }

    // ---- metrics section (untimed) --------------------------------------
    // Matcher counters come from a dedicated probe pass: the timed
    // cluster stage goes through `evaluate_matcher`, which has no
    // telemetry seam, and the probe costs one extra matcher run.
    let metrics_json = if telemetry.is_enabled() {
        for domain in &domains {
            let span = telemetry.timed("bench.cluster");
            let (_, stats) =
                qi_mapping::match_by_labels_stats(&domain.schemas, &lexicon, matcher_config);
            drop(span);
            stats.record(&telemetry);
        }
        telemetry.record_cache("stemmer", &qi_text::porter::stem_cache_stats());
        for (name, stats) in lexicon.named_cache_stats() {
            telemetry.record_cache(name, &stats);
        }
        telemetry.snapshot().to_json()
    } else {
        "null".to_string()
    };
    if let Some(path) = &config.trace_out {
        let trace = qi_runtime::chrome_trace(&telemetry.snapshot());
        if let Err(e) = std::fs::write(path, format!("{trace}\n")) {
            eprintln!("qi-bench: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("qi-bench: wrote chrome trace to {path}");
    }

    // ---- observe section (untimed) --------------------------------------
    // Under --observe the recorder and series ran inside the timed
    // loops; this closes the final window and reports what they saw so
    // the overhead guard's numbers come from a demonstrably live plane.
    let observe_json = if config.observe {
        series.tick(&telemetry);
        let snapshot = telemetry.snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let recorder = telemetry.events();
        json::Obj::new()
            .u64("events_emitted", counter("events.emitted"))
            .u64("events_sampled", counter("events.sampled"))
            .u64("events_dropped", counter("events.dropped"))
            .u64("recorder_last_seq", recorder.last_seq())
            .u64("recorder_capacity", recorder.capacity() as u64)
            .u64("history_interval_ns", series.interval_ns())
            .u64(
                "history_window_count",
                series.windows(series.capacity()).len() as u64,
            )
            .finish()
    } else {
        "null".to_string()
    };

    // ---- memory audit (untimed) -----------------------------------------
    // Sampled after the scaled stages (their corpora are the peak
    // drivers). `VmHWM` is the kernel's own high-water mark for the
    // process, so it covers every allocation path — arenas, interners,
    // thread stacks — not just what an allocator hook would see.
    // Both figures come from one read, so the peak is never below the
    // current RSS.
    let rss = qi_runtime::rss_sample();
    let memory_json = {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
        json::Obj::new()
            .raw("peak_rss_bytes", opt(rss.map(|s| s.peak)))
            .raw("current_rss_bytes", opt(rss.map(|s| s.current)))
            .finish()
    };

    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;
    let mut stages: Vec<(String, Vec<f64>)> = vec![
        ("normalize".to_string(), normalize),
        ("cluster".to_string(), cluster),
        ("cluster_scaled_10x".to_string(), cluster_scaled_10x),
        ("cluster_scaled_100x".to_string(), cluster_scaled_100x),
        ("merge".to_string(), merge),
        ("label".to_string(), label),
        ("evaluate".to_string(), evaluate),
    ];
    stages.extend(scaled_stages);
    let stage_list: Vec<String> = stages
        .iter()
        .map(|(name, runs)| stage_json(name, runs))
        .collect();
    let json = format!(
        concat!(
            "{{\"config\":{{\"threads\":{},\"resolved_workers\":{},\"cache\":{},",
            "\"warmup\":{},\"iters\":{},\"scale\":{}}},",
            "\"stages\":[{}],",
            "\"caches\":{{\"stemmer\":{},\"lexicon\":{},\"naming_ctx\":{}}},",
            "\"corpus\":{{\"domains\":{},\"mean_fld_acc\":{}}},",
            "\"drift\":{},",
            "\"observe\":{},",
            "\"memory\":{},",
            "\"metrics\":{},",
            "\"total_ms\":{}}}"
        ),
        config.threads,
        outer,
        config.cache,
        config.warmup,
        config.iters,
        config.scale,
        stage_list.join(","),
        cache_json(&qi_text::porter::stem_cache_stats()),
        cache_json(&lexicon.cache_stats()),
        cache_json(&naming_cache),
        domains.len(),
        number(fld_acc_sum / domains.len() as f64),
        drift_json,
        observe_json,
        memory_json,
        metrics_json,
        number(total_ms),
    );
    if let Err(e) = std::fs::write(&config.out, &json) {
        eprintln!("qi-bench: writing {}: {e}", config.out);
        std::process::exit(1);
    }

    println!(
        "qi-bench: {} domains, threads={} (workers={}), cache={}, telemetry={}",
        domains.len(),
        config.threads,
        outer,
        config.cache,
        config.telemetry
    );
    for (name, runs) in &stages {
        println!(
            "  {name:<20} {:>9.3} ms (median of {})",
            median(runs),
            runs.len()
        );
    }
    println!(
        "  caches: stemmer {:.1}%  lexicon {:.1}%  naming-ctx {:.1}% hit rate",
        qi_text::porter::stem_cache_stats().hit_rate() * 100.0,
        lexicon.cache_stats().hit_rate() * 100.0,
        naming_cache.hit_rate() * 100.0
    );
    if let Some(rss) = rss {
        println!("  peak RSS: {:.1} MiB", rss.peak as f64 / (1 << 20) as f64);
    }
    if config.observe {
        println!(
            "  observe: flight recorder at seq {} across {} history windows",
            telemetry.events().last_seq(),
            series.windows(series.capacity()).len()
        );
    }
    println!("  wrote {}", config.out);
}
