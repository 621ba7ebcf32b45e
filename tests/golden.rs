//! Golden-snapshot tests: the fully labeled integrated interface of every
//! corpus domain, byte-for-byte. Any change to the text pipeline, the
//! lexicon, the merge, or the naming algorithm that alters an output
//! label shows up here as a readable diff.
//!
//! To regenerate after an *intentional* change, write the new render of
//! each labeled tree to `tests/golden/<domain>.qis` (see
//! `qi_schema::text_format::render`) and review the diff.

use qi_core::{Labeler, NamingPolicy};
use qi_lexicon::Lexicon;

fn labeled_render(domain: qi_datasets::Domain) -> String {
    let prepared = domain.prepare();
    let lexicon = Lexicon::builtin();
    let labeler = Labeler::new(&lexicon, NamingPolicy::default());
    let labeled = labeler.label(&prepared.schemas, &prepared.mapping, &prepared.integrated);
    qi_schema::text_format::render(&labeled.tree)
}

fn check(domain: qi_datasets::Domain, golden: &str) {
    let name = domain.name.clone();
    let actual = labeled_render(domain);
    assert_eq!(
        actual, golden,
        "{name}: labeled integrated interface changed; \
         if intentional, update tests/golden/"
    );
}

#[test]
fn golden_airline() {
    check(
        qi_datasets::airline::domain(),
        include_str!("golden/airline.qis"),
    );
}

#[test]
fn golden_auto() {
    check(qi_datasets::auto::domain(), include_str!("golden/auto.qis"));
}

#[test]
fn golden_book() {
    check(qi_datasets::book::domain(), include_str!("golden/book.qis"));
}

#[test]
fn golden_job() {
    check(qi_datasets::job::domain(), include_str!("golden/job.qis"));
}

#[test]
fn golden_real_estate() {
    check(
        qi_datasets::real_estate::domain(),
        include_str!("golden/real_estate.qis"),
    );
}

#[test]
fn golden_car_rental() {
    check(
        qi_datasets::car_rental::domain(),
        include_str!("golden/car_rental.qis"),
    );
}

#[test]
fn golden_hotels() {
    check(
        qi_datasets::hotels::domain(),
        include_str!("golden/hotels.qis"),
    );
}

/// The golden snapshots themselves parse back (they are valid corpus
/// artifacts, not just strings).
#[test]
fn golden_files_parse() {
    for text in [
        include_str!("golden/airline.qis"),
        include_str!("golden/auto.qis"),
        include_str!("golden/book.qis"),
        include_str!("golden/job.qis"),
        include_str!("golden/real_estate.qis"),
        include_str!("golden/car_rental.qis"),
        include_str!("golden/hotels.qis"),
    ] {
        let tree = qi_schema::text_format::parse(text).unwrap();
        assert!(tree.leaves().count() >= 18);
    }
}

/// One seeded drift domain per generator call, as the batch benchmark
/// draws them: 20 interfaces, `DriftConfig` defaults otherwise.
fn drift_domain(seed: u64, lexicon: &Lexicon) -> qi_datasets::Domain {
    let config = qi_datasets::DriftConfig {
        seed,
        domains: 1,
        interfaces: 20,
        ..qi_datasets::DriftConfig::default()
    };
    qi_datasets::generate_drift_corpus(&config, lexicon)
        .pop()
        .expect("one domain generated")
}

/// Drift domains labeled with their true clusters and with fuzzy-matcher
/// clusters: per domain the rendered labeled tree, then each group's
/// consistency level, `consistent` flag and homonym-repair outcome. Drift
/// groups carry many naming alternatives, so this pins which one group
/// naming selects. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test golden` and review the diff.
#[test]
fn golden_drift_labels() {
    let lexicon = Lexicon::builtin();
    let matcher = qi_mapping::MatcherConfig {
        fuzzy: true,
        threads: 1,
        ..qi_mapping::MatcherConfig::default()
    };
    let mut seeds = qi_runtime::SplitMix64::new(0xD81F_7A6E);
    let mut out = String::new();
    for clusters in ["truth", "matched"] {
        for index in 0..8 {
            let seed = seeds.next_u64();
            let domain = drift_domain(seed, &lexicon);
            let matched = (clusters == "matched")
                .then(|| qi_mapping::match_by_labels_with(&domain.schemas, &lexicon, matcher));
            let mapping = matched.as_ref().unwrap_or(&domain.mapping);
            let integrated = qi_merge::merge(&domain.schemas, mapping);
            let labeled = Labeler::new(&lexicon, NamingPolicy::default()).label(
                &domain.schemas,
                mapping,
                &integrated,
            );
            out.push_str(&format!("== {clusters} {index} seed {seed:#018x}\n"));
            out.push_str(&qi_schema::text_format::render(&labeled.tree));
            for (g, group) in labeled.report.groups.iter().enumerate() {
                let level = group
                    .level
                    .map_or_else(|| "-".to_string(), |l| l.to_string());
                out.push_str(&format!(
                    "group {g}: level {level} consistent {} conflict_repaired {:?}\n",
                    group.consistent, group.conflict_repaired
                ));
            }
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/drift_labels.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &out).expect("writing golden file");
    }
    let golden = std::fs::read_to_string(path).expect("tests/golden/drift_labels.txt is committed");
    assert!(
        out == golden,
        "drift labeling drifted from tests/golden/drift_labels.txt; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}
