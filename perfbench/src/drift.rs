//! The batch workloads: a seeded drift corpus labeled domain by domain
//! on a fixed worker pool, with matcher clusters (`drift_match`) or the
//! generator's true clusters (`drift_truth`).
//!
//! The corpus is fed to the pool in batches of [`BATCH`] domains until
//! the run's time is spent, each pass over it in a fresh seeded order.
//! The lexicon and stemmer caches are cleared before every batch, so a
//! batch costs what labeling its domains costs a fresh process, wherever
//! in the run it falls.
//!
//! Every timing is processor time of the process (see [`process_cpu`]):
//! a domain's pipeline is single-threaded and nothing else runs beside
//! it, so on a dedicated machine this is its wall time. Each batch's
//! timings are then scaled by the host-speed reference timed just before
//! and after it (see [`crate::calib`]).

use crate::calib::{Calibration, REFERENCE_MS};
use crate::stats::{median, ms, process_cpu, quantile, steal_s, Report};
use crate::trace::{append, covered_ns, layer_times, Span, Spans};
use crate::{Args, Outcome, DEFAULT_SEED, HELD_OUT_SEED, SETUPS};
use qi_core::{Labeler, NamingPolicy};
use qi_datasets::{generate_drift_corpus, Domain, DriftConfig};
use qi_lexicon::Lexicon;
use qi_mapping::{match_by_labels_stats, match_by_labels_with, MatchStats, MatcherConfig};
use qi_runtime::{parallel_try_map, CacheStats, SplitMix64};
use std::time::{Duration, Instant};

/// Domains in the corpus. Drift domains differ widely in matcher cost
/// and FldAcc; this many keeps the seed-to-seed spread of the corpus
/// means within a few percent.
pub const DOMAINS: usize = 512;
/// Interfaces per domain: the drift generator's default.
pub const INTERFACES: usize = 20;
/// Domains handed to the pool at once: one batch job, and the stretch
/// over which one host-speed scale applies (about 0.3 s).
const BATCH: usize = 8;
/// Domains in each shape-guard corpus of the traced run.
const GUARD_DOMAINS: usize = 16;
/// Domains whose matcher output is compared against the naive
/// reference matcher before timing.
const NAIVE_SAMPLE: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Clusters {
    /// Clusters from the label matcher with the fuzzy tier on.
    Matched,
    /// The generator's ground-truth clusters; the matcher never runs.
    Truth,
}

/// The drift matcher configuration: fuzzy tier on, one scoring thread
/// per domain (the pool parallelizes across domains).
fn matcher() -> MatcherConfig {
    MatcherConfig {
        fuzzy: true,
        threads: 1,
        ..MatcherConfig::default()
    }
}

/// Worker threads labeling domains. On a 2-vCPU VM, runs with two
/// workers fell into modes that held for a whole run and differed in
/// throughput by up to 1.35×; with one worker, runs on a steady host
/// agreed within a few percent. Each domain's pipeline is
/// single-threaded either way.
const WORKERS: usize = 1;

/// What one domain's pipeline produced.
struct DomainRun {
    index: usize,
    /// Processor time of this domain's pipeline.
    service: Duration,
    /// The host-speed scale of its batch, set once the batch is done.
    scale: f64,
    fld_acc: f64,
    stats: MatchStats,
    naming_cache: CacheStats,
    unlabeled: usize,
    /// Matcher clusters, kept in the traced run for pair quality.
    mapping: Option<qi_mapping::Mapping>,
    /// `domain` and its layer children, in the traced run.
    spans: Vec<Span>,
}

fn run_domain(
    index: usize,
    domain: &Domain,
    lexicon: &Lexicon,
    clusters: Clusters,
    epoch: Option<Instant>,
) -> DomainRun {
    let mut spans = epoch.map(Spans::new);
    let started = process_cpu();
    let id = index as u64;
    let root = spans.as_mut().map(|s| s.open("domain", id, None));
    let open = |spans: &mut Option<Spans>, name: &'static str| {
        spans.as_mut().map(|s| s.open(name, id, root))
    };
    let close = |spans: &mut Option<Spans>, span: Option<usize>| {
        if let (Some(s), Some(i)) = (spans.as_mut(), span) {
            s.close(i);
        }
    };

    let span = open(&mut spans, "match");
    let (matched, stats) = match clusters {
        Clusters::Matched => {
            let (mapping, stats) = match_by_labels_stats(&domain.schemas, lexicon, matcher());
            (Some(mapping), stats)
        }
        Clusters::Truth => (None, MatchStats::default()),
    };
    close(&mut spans, span);
    let mapping = matched.as_ref().unwrap_or(&domain.mapping);

    let span = open(&mut spans, "merge");
    let integrated = qi_merge::merge(&domain.schemas, mapping);
    close(&mut spans, span);

    let span = open(&mut spans, "label");
    let labeled = Labeler::new(lexicon, NamingPolicy::default())
        .with_threads(1)
        .label(&domain.schemas, mapping, &integrated);
    close(&mut spans, span);

    let span = open(&mut spans, "eval");
    let fld_acc = qi_eval::metrics::fields_accuracy(&labeled);
    close(&mut spans, span);

    close(&mut spans, root);
    let finished = process_cpu();
    DomainRun {
        index,
        service: finished - started,
        scale: 1.0,
        fld_acc,
        stats,
        naming_cache: labeled.report.naming_cache,
        unlabeled: labeled.report.unlabeled_fields,
        mapping: epoch.and(matched),
        spans: spans.map_or_else(Vec::new, |s| s.spans),
    }
}

/// A stretch of batches: every domain run, each batch's throughput,
/// and the lexicon and stemmer cache activity during them.
#[derive(Default)]
struct Stretch {
    runs: Vec<DomainRun>,
    /// Domains labeled per second of processor time in each batch,
    /// scaled to the reference speed.
    batch_rates: Vec<f64>,
    /// The same, unscaled.
    raw_rates: Vec<f64>,
    lexicon: CacheStats,
    stems: CacheStats,
    /// With paired batches: the processor time of the traced and of the
    /// untraced run of the same batches, seconds.
    paired_s: (f64, f64),
}

impl Stretch {
    /// The median batch's throughput: a stall of the machine slows the
    /// batches it falls in, not the median.
    fn throughput(&self) -> f64 {
        median(&self.batch_rates)
    }
}

/// One batch's pipeline runs, its processor and wall time and the
/// cache activity during it.
struct Batch {
    /// Corpus index of each run's domain.
    domains: Vec<usize>,
    runs: Vec<Result<DomainRun, String>>,
    cpu_s: f64,
    lexicon: CacheStats,
    stems: CacheStats,
}

/// Feeds the corpus to the pool batch by batch and checks every
/// domain's FldAcc against its first labeling.
struct Runner<'a> {
    corpus: &'a [Domain],
    lexicon: &'a Lexicon,
    clusters: Clusters,
    /// The order of the current pass, reshuffled at the start of each.
    order: Vec<usize>,
    calibration: Calibration,
    rng: SplitMix64,
    /// Position in `order` of the next batch.
    next: usize,
    cycles: usize,
    /// FldAcc bits of each domain's first labeling.
    first: Vec<Option<u64>>,
}

impl Runner<'_> {
    fn batch(&self, domains: &[usize], epoch: Option<Instant>) -> Batch {
        self.lexicon.reset_caches();
        qi_text::porter::stem_cache_reset();
        let lexicon_before = self.lexicon.cache_stats();
        let stems_before = qi_text::porter::stem_cache_stats();
        let (corpus, clusters, lexicon) = (self.corpus, self.clusters, self.lexicon);
        let batch_start = process_cpu();
        let runs = parallel_try_map(domains, WORKERS, |_, &d| {
            run_domain(d, &corpus[d], lexicon, clusters, epoch)
        });
        Batch {
            domains: domains.to_vec(),
            cpu_s: (process_cpu() - batch_start).as_secs_f64(),
            runs,
            lexicon: self.lexicon.cache_stats().delta_since(&lexicon_before),
            stems: qi_text::porter::stem_cache_stats().delta_since(&stems_before),
        }
    }

    /// Count and check a batch's runs; returns the ones that finished.
    fn account(&mut self, batch: Batch, outcome: &mut Outcome) -> Vec<DomainRun> {
        let mut finished = Vec::new();
        for (&d, run) in batch.domains.iter().zip(batch.runs) {
            outcome.attempted += 1;
            match run {
                Ok(run) => {
                    self.check(&run, outcome);
                    finished.push(run);
                }
                Err(panic) => {
                    outcome.failed += 1;
                    outcome.notes.push(format!("domain {d} panicked: {panic}"));
                }
            }
        }
        finished
    }

    /// Label batches until `budget` is spent; the batch under way when
    /// it runs out is finished. With `paired`, each batch also runs
    /// untraced, before or after its traced run in turn, and the stretch
    /// keeps both processor times.
    fn run_for(
        &mut self,
        budget: Duration,
        epoch: Option<Instant>,
        paired: bool,
        outcome: &mut Outcome,
    ) -> Stretch {
        let mut stretch = Stretch::default();
        let start = Instant::now();
        while start.elapsed() < budget {
            if self.next == 0 {
                for i in (1..self.order.len()).rev() {
                    self.order.swap(i, self.rng.gen_range(i + 1));
                }
            }
            let end = (self.next + BATCH).min(self.order.len());
            let domains = self.order[self.next..end].to_vec();
            let before = self.calibration.last();
            let untraced_first = stretch.batch_rates.len() % 2 == 0;
            let mut untraced = |runner: &mut Self, outcome: &mut Outcome| {
                let batch = runner.batch(&domains, None);
                stretch.paired_s.1 += batch.cpu_s;
                runner.account(batch, outcome);
            };
            if paired && untraced_first {
                untraced(self, outcome);
            }
            let batch = self.batch(&domains, epoch);
            if paired && !untraced_first {
                untraced(self, outcome);
            }
            let scale = Calibration::scale(before, self.calibration.sample());
            let labeled = batch.runs.iter().filter(|r| r.is_ok()).count() as f64;
            stretch.raw_rates.push(labeled / batch.cpu_s);
            stretch.batch_rates.push(labeled / batch.cpu_s / scale);
            stretch.paired_s.0 += batch.cpu_s;
            stretch.lexicon = stretch.lexicon.merge(&batch.lexicon);
            stretch.stems = stretch.stems.merge(&batch.stems);
            let runs = self.account(batch, outcome);
            stretch
                .runs
                .extend(runs.into_iter().map(|run| DomainRun { scale, ..run }));
            self.next = end % self.order.len();
            if self.next == 0 {
                self.cycles += 1;
            }
        }
        stretch
    }

    /// A domain labeled again must reproduce its first FldAcc bit for
    /// bit, whatever the thread interleaving and cache state.
    fn check(&mut self, run: &DomainRun, outcome: &mut Outcome) {
        let bits = run.fld_acc.to_bits();
        match self.first[run.index] {
            None => self.first[run.index] = Some(bits),
            Some(first) if first != bits => outcome.fail(format!(
                "domain {}: FldAcc {} differs from its first labeling's {}",
                run.index,
                run.fld_acc,
                f64::from_bits(first)
            )),
            Some(_) => {}
        }
    }

    /// Mean FldAcc over the domains labeled at least once.
    fn fld_acc(&self) -> f64 {
        let labeled: Vec<f64> = self
            .first
            .iter()
            .flatten()
            .map(|&b| f64::from_bits(b))
            .collect();
        labeled.iter().sum::<f64>() / labeled.len().max(1) as f64
    }
}

/// A drift corpus of `domains` domains with `interfaces` interfaces
/// each, one generator call per domain on a seed derived from `seed`.
///
/// One generator call seeds domain `d` with `seed + (d + 1)·γ`, where γ
/// is SplitMix64's own increment, so domain `d + 1` draws the random
/// stream of domain `d` shifted by one value. The domains of one call
/// therefore move together, and a corpus mean barely averages out as
/// the call grows. Drawing each domain from its own mixed seed makes
/// the domains independent.
pub fn corpus(seed: u64, domains: usize, interfaces: usize, lexicon: &Lexicon) -> Vec<Domain> {
    let mut seeds = SplitMix64::new(seed);
    (0..domains)
        .map(|d| {
            let config = DriftConfig {
                seed: seeds.next_u64(),
                domains: 1,
                interfaces,
                ..DriftConfig::default()
            };
            let mut domain = generate_drift_corpus(&config, lexicon)
                .pop()
                .expect("one domain generated");
            domain.name = format!("drift{d}");
            domain
        })
        .collect()
}

/// Matcher output on a seeded sample of domains must equal the naive
/// reference matcher's.
fn check_against_naive(corpus: &[Domain], lexicon: &Lexicon, seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed ^ 0x6E61_6976_6521);
    let naive = MatcherConfig {
        naive: true,
        ..matcher()
    };
    for _ in 0..NAIVE_SAMPLE {
        let d = &corpus[rng.gen_range(corpus.len())];
        let indexed = match_by_labels_with(&d.schemas, lexicon, matcher());
        let reference = match_by_labels_with(&d.schemas, lexicon, naive);
        if indexed != reference {
            return Err(format!(
                "{}: indexed matcher output differs from the naive reference",
                d.name
            ));
        }
    }
    Ok(())
}

pub fn run(args: &Args, clusters: Clusters) -> Outcome {
    // Set-up: the lexicon and the seeded corpus, built `SETUPS` times,
    // each timed in processor time and scaled like the batches.
    let mut calibration = Calibration::new();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let before = calibration.last();
        let start = process_cpu();
        let lexicon = Lexicon::builtin();
        let domains = corpus(args.seed, DOMAINS, INTERFACES, &lexicon);
        let raw = (process_cpu() - start).as_secs_f64();
        raw_setups.push(raw);
        setups.push(raw * Calibration::scale(before, calibration.sample()));
        built = Some((lexicon, domains));
    }
    let (lexicon, domains) = built.expect("at least one set-up");

    let mut outcome = Outcome::default();
    if clusters == Clusters::Matched {
        if let Err(e) = check_against_naive(&domains, &lexicon, args.seed) {
            outcome.fail(e);
        }
    }
    let mut runner = Runner {
        corpus: &domains,
        lexicon: &lexicon,
        clusters,
        order: (0..domains.len()).collect(),
        calibration,
        rng: SplitMix64::new(args.seed ^ 0x006F_7264_6572),
        next: 0,
        cycles: 0,
        first: vec![None; domains.len()],
    };
    let budget = Duration::from_secs_f64(args.seconds);
    outcome.report = if args.trace {
        // Every batch runs traced and untraced: the difference in
        // processor time over the same domains is the tracing overhead.
        let traced = runner.run_for(budget, Some(Instant::now()), true, &mut outcome);
        let mut report = layer_report(&domains, &traced);
        let overhead = traced.paired_s.0 / traced.paired_s.1 - 1.0;
        report.add(
            "trace.overhead_pct",
            overhead * 100.0,
            "%",
            traced.runs.len(),
        );
        for (name, seed) in [("default", DEFAULT_SEED), ("held-out", HELD_OUT_SEED)] {
            match shape_guard(seed, &lexicon, clusters) {
                Ok(line) => outcome.notes.push(format!("{name} seed: {line}")),
                Err(e) => outcome.fail(format!("shape guard on the {name} seed failed: {e}")),
            }
        }
        report
    } else {
        let steal = steal_s();
        let stretch = runner.run_for(budget, None, false, &mut outcome);
        let raw: Vec<f64> = stretch.runs.iter().map(|d| ms(d.service)).collect();
        outcome.notes.push(format!(
            "unscaled: {:.3} domains/s, domain p50 {:.3} ms p95 {:.3} ms, set-up {:.4} s; \
             host-speed reference median {:.3} ms (scaled to {REFERENCE_MS} ms); host steal \
             during the run {:.2} s",
            median(&stretch.raw_rates),
            median(&raw),
            quantile(&raw, 0.95),
            median(&raw_setups),
            median(&runner.calibration.timings_ms),
            steal_s() - steal
        ));
        end_to_end(median(&setups), runner.fld_acc(), &stretch)
    };
    outcome.notes.push(format!(
        "corpus: {DOMAINS} drift domains, seed {}, batches of {BATCH} on {WORKERS} worker \
         thread, {} clusters; {} whole passes over the corpus, caches cleared before \
         every batch",
        args.seed,
        match clusters {
            Clusters::Matched => "matcher (fuzzy tier on)",
            Clusters::Truth => "true",
        },
        runner.cycles
    ));
    outcome
}

fn end_to_end(setup_s: f64, fld_acc: f64, stretch: &Stretch) -> Report {
    let service: Vec<f64> = stretch
        .runs
        .iter()
        .map(|d| ms(d.service) * d.scale)
        .collect();
    let n = service.len();
    let mut report = Report::default();
    report.add("setup_s", setup_s, "s", SETUPS);
    report.add(
        "throughput_per_s",
        stretch.throughput(),
        "1/s",
        stretch.batch_rates.len(),
    );
    report.add("domain_p50_ms", median(&service), "ms", n);
    report.add("domain_tail_ms", quantile(&service, 0.95), "ms", n);
    report.add("fld_acc", fld_acc, "ratio", DOMAINS);
    report
}

/// Per-layer figures of the traced stretch. Counts are means per
/// domain; `*.sum` timings are the layer's total per 100 domains.
fn layer_report(domains: &[Domain], traced: &Stretch) -> Report {
    let mut spans = Vec::new();
    for run in &traced.runs {
        append(&mut spans, &run.spans);
    }
    let n = traced.runs.len();
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };
    let times = layer_times(&spans);
    let domain_total = times.get("domain").map_or(0, |t| t.total_ns) as f64;
    let share = |name: &str| times.get(name).map_or(0, |t| t.self_ns) as f64 / domain_total;
    let per_domain = |total: u64| total as f64 / n.max(1) as f64;

    let mut stats = MatchStats::default();
    let mut naming = CacheStats::default();
    let mut unlabeled = 0;
    let (mut correct, mut derived, mut truth) = (0usize, 0usize, 0usize);
    for run in &traced.runs {
        stats.absorb(&run.stats);
        naming = naming.merge(&run.naming_cache);
        unlabeled += run.unlabeled;
        let truth_mapping = &domains[run.index].mapping;
        let q = qi_mapping::pairwise_quality(
            run.mapping.as_ref().unwrap_or(truth_mapping),
            truth_mapping,
        );
        correct += q.correct_pairs;
        derived += q.derived_pairs;
        truth += q.truth_pairs;
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let mut report = Report::default();
    let matched = stats.fields_total > 0;
    let match_ms = if matched {
        durations("match")
    } else {
        Vec::new()
    };
    add_timing(&mut report, "mapping.match_ms", &match_ms, n, true);
    report.add(
        "mapping.pairs_generated",
        per_domain(stats.pairs_generated),
        "count",
        n,
    );
    report.add(
        "mapping.pairs_scored",
        per_domain(stats.pairs_scored),
        "count",
        n,
    );
    report.add(
        "mapping.pairs_accepted",
        per_domain(stats.pairs_accepted),
        "count",
        n,
    );
    report.add(
        "mapping.accept_ratio",
        ratio(stats.pairs_accepted, stats.pairs_scored),
        "ratio",
        n,
    );
    report.add(
        "mapping.accepted.string",
        per_domain(stats.accepted_string),
        "count",
        n,
    );
    report.add(
        "mapping.accepted.word_set",
        per_domain(stats.accepted_word_set),
        "count",
        n,
    );
    report.add(
        "mapping.accepted.synonym",
        per_domain(stats.accepted_synonym),
        "count",
        n,
    );
    report.add(
        "mapping.accepted.fuzzy",
        per_domain(stats.accepted_fuzzy),
        "count",
        n,
    );
    report.add(
        "mapping.pair_precision",
        ratio(correct as u64, derived as u64),
        "ratio",
        n,
    );
    report.add(
        "mapping.pair_recall",
        ratio(correct as u64, truth as u64),
        "ratio",
        n,
    );
    report.add("mapping.self_share", share("match"), "ratio", n);
    report.add(
        "lexicon.lookups",
        per_domain(traced.lexicon.hits + traced.lexicon.misses),
        "count",
        n,
    );
    report.add("lexicon.hit_rate", traced.lexicon.hit_rate(), "ratio", n);
    report.add("text.stem_hit_rate", traced.stems.hit_rate(), "ratio", n);
    add_timing(&mut report, "label.ms", &durations("label"), n, true);
    report.add("label.naming_cache.hit_rate", naming.hit_rate(), "ratio", n);
    report.add(
        "label.unlabeled_fields",
        per_domain(unlabeled as u64),
        "count",
        n,
    );
    report.add("label.self_share", share("label"), "ratio", n);
    add_timing(&mut report, "merge.ms", &durations("merge"), n, false);
    report.add("eval.ms.sum", per_100(&durations("eval"), n), "ms", n);
    report.add("domain.span_coverage", coverage(&spans).0, "ratio", n);
    report
}

fn per_100(values: &[f64], domains: usize) -> f64 {
    values.iter().fold(0.0, |acc, v| acc + v) * 100.0 / domains.max(1) as f64
}

/// `{prefix}.p50`, optionally `{prefix}.p95`, and `{prefix}.sum` (the
/// layer's total per 100 domains) of per-domain span durations.
fn add_timing(report: &mut Report, prefix: &str, values: &[f64], domains: usize, tail: bool) {
    report.add(&format!("{prefix}.p50"), median(values), "ms", values.len());
    if tail {
        report.add(
            &format!("{prefix}.p95"),
            quantile(values, 0.95),
            "ms",
            values.len(),
        );
    }
    report.add(
        &format!("{prefix}.sum"),
        per_100(values, domains),
        "ms",
        values.len(),
    );
}

/// The share of all domain time covered by the domains' layer spans,
/// and the smallest such share of any single domain with that domain's
/// id.
fn coverage(spans: &[Span]) -> (f64, (f64, u64)) {
    let (mut covered, mut total, mut worst) = (0u64, 0u64, (1.0f64, 0u64));
    for (i, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let children = spans.iter().filter(|s| s.parent == Some(i));
        let c = covered_ns(root, children);
        covered += c;
        total += root.duration_ns();
        let share = c as f64 / root.duration_ns().max(1) as f64;
        if share < worst.0 {
            worst = (share, root.id);
        }
    }
    (covered as f64 / total.max(1) as f64, worst)
}

/// The workload-shape guard: on a fixed seed, one traced batch must
/// spend most of its domain time in the layer the workload was chosen
/// to stress, and the layer spans must account for nearly all of every
/// domain's time.
fn shape_guard(seed: u64, lexicon: &Lexicon, clusters: Clusters) -> Result<String, String> {
    let domains = corpus(seed, GUARD_DOMAINS, INTERFACES, lexicon);
    lexicon.reset_caches();
    qi_text::porter::stem_cache_reset();
    let epoch = Some(Instant::now());
    let runs = parallel_try_map(&domains, WORKERS, |i, domain| {
        run_domain(i, domain, lexicon, clusters, epoch)
    });
    let mut spans = Vec::new();
    for run in &runs {
        let run = run
            .as_ref()
            .map_err(|panic| format!("a domain panicked: {panic}"))?;
        append(&mut spans, &run.spans);
    }
    let times = layer_times(&spans);
    let total = times["domain"].total_ns as f64;
    let layer = match clusters {
        Clusters::Matched => "match",
        Clusters::Truth => "label",
    };
    let share = times[layer].self_ns as f64 / total;
    let (overall, (worst, worst_id)) = coverage(&spans);
    let line = format!(
        "shape guard on seed {seed:#x}: {layer} self time {share:.3} of domain time, \
         span coverage {overall:.4} (lowest: domain {worst_id} at {worst:.4})"
    );
    if share > 0.5 && overall >= 0.99 && worst >= 0.9 {
        Ok(line)
    } else {
        Err(line)
    }
}
