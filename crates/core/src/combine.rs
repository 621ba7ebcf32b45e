//! `Combine`, `Combine*` and tuple-solutions (Definitions 3–4).
//!
//! `Combine(r, s)` overlays two consistent tuples, keeping `r`'s non-null
//! components and filling `r`'s nulls from `s`. `Combine*` iterates the
//! operator over a partition until every derivable tuple is produced; the
//! tuples without null components (on the columns the partition covers)
//! are the *tuple-solutions*, and those that already existed verbatim in
//! the group relation are *candidate solutions*.

use crate::consistency::{rows_consistent, ConsistencyLevel};
use crate::ctx::{NamingCtx, SymRow};
use crate::partition::TuplePartition;
use qi_runtime::Symbol;
use std::collections::BTreeSet;

/// A consistent naming solution for a set of cluster columns, over the
/// group's interned rows ([`NamingCtx::sym_rows`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleSolution {
    /// Interned labels per column; non-null on every covered column.
    pub labels: SymRow,
    /// Indices of the relation tuples that contributed components.
    pub used_tuples: BTreeSet<usize>,
    /// True if the solution is a single source tuple (Definition 4's
    /// *candidate solution*).
    pub is_candidate: bool,
    /// Number of distinct content words across all labels (§4.2.1:
    /// *expressiveness*; more ⇒ more descriptive).
    pub expressiveness: usize,
    /// How many relation tuples equal this solution verbatim (§4.2.1:
    /// *frequency of occurrence*, meaningful for candidates).
    pub frequency: usize,
}

/// `Combine(r, s)`: non-null components of `r`, plus `s`'s where `r` is
/// null (Definition 3).
pub fn combine(r: &[Option<Symbol>], s: &[Option<Symbol>]) -> SymRow {
    r.iter().zip(s).map(|(a, b)| a.or(*b)).collect()
}

/// Safety valve for `Combine*`: the paper's operator is exponential in
/// pathological relations; real group relations are tiny, but the
/// enumeration is capped to keep worst-case inputs bounded.
pub const MAX_STATES: usize = 4096;

/// How many of `row`'s nulls `other` fills.
fn nulls_filled(row: &[Option<Symbol>], other: &[Option<Symbol>]) -> usize {
    row.iter()
        .zip(other)
        .filter(|(a, b)| a.is_none() && b.is_some())
        .count()
}

/// Enumerate the tuple-solutions derivable from a partition of the
/// relation's interned `rows` with `Combine*` (Definition 4), complete on
/// the partition's covered columns.
///
/// Solutions are deduplicated by label vector. The search explores
/// combinations breadth-first from every member tuple, only combining
/// pairs that are consistent at `level` (Definition 3 requires the
/// operands to be consistent).
pub fn enumerate_solutions(
    rows: &[SymRow],
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<TupleSolution> {
    struct State {
        labels: SymRow,
        used: BTreeSet<usize>,
    }
    let member_tuples = &partition.tuples;
    let mut states: Vec<State> = Vec::new();
    let mut seen: BTreeSet<SymRow> = BTreeSet::new();
    for &t in member_tuples {
        if seen.insert(rows[t].clone()) {
            states.push(State {
                labels: rows[t].clone(),
                used: BTreeSet::from([t]),
            });
        }
    }
    let mut frontier: Vec<usize> = (0..states.len()).collect();
    while !frontier.is_empty() && states.len() < MAX_STATES {
        let mut next = Vec::new();
        for &si in &frontier {
            for &t in member_tuples {
                let state = &states[si];
                let other = &rows[t];
                // Must add information and be consistent with the state.
                if nulls_filled(&state.labels, other) == 0
                    || !rows_consistent(&state.labels, other, level, ctx)
                {
                    continue;
                }
                let combined = combine(&state.labels, other);
                if seen.insert(combined.clone()) {
                    let mut used = state.used.clone();
                    used.insert(t);
                    states.push(State {
                        labels: combined,
                        used,
                    });
                    next.push(states.len() - 1);
                    if states.len() >= MAX_STATES {
                        break;
                    }
                }
            }
            if states.len() >= MAX_STATES {
                break;
            }
        }
        frontier = next;
    }
    // Keep the states complete on the covered columns.
    states
        .into_iter()
        .filter(|state| {
            partition
                .covered
                .iter()
                .all(|&col| state.labels[col].is_some())
        })
        .map(|state| {
            let is_candidate = member_tuples.iter().any(|&t| rows[t] == state.labels);
            solution(rows, state.labels, state.used, is_candidate, ctx)
        })
        .collect()
}

/// A solution over `labels`, with its ranking keys: verbatim frequency
/// among the relation's rows, and expressiveness.
fn solution(
    rows: &[SymRow],
    labels: SymRow,
    used_tuples: BTreeSet<usize>,
    is_candidate: bool,
    ctx: &NamingCtx<'_>,
) -> TupleSolution {
    TupleSolution {
        frequency: rows.iter().filter(|r| **r == labels).count(),
        expressiveness: tuple_expressiveness(&labels, ctx),
        labels,
        used_tuples,
        is_candidate,
    }
}

/// Several greedy solutions, seeded from each of the widest member tuples
/// (deduplicated by label vector). Gives the ranking stage alternatives
/// to choose from even when exhaustive enumeration is off the table.
pub fn greedy_solutions(
    rows: &[SymRow],
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<TupleSolution> {
    const MAX_SEEDS: usize = 8;
    let non_null = |t: usize| rows[t].iter().filter(|l| l.is_some()).count();
    let mut seeds: Vec<usize> = partition.tuples.clone();
    seeds.sort_by_key(|&t| (usize::MAX - non_null(t), t));
    seeds.truncate(MAX_SEEDS);
    let mut out: Vec<TupleSolution> = Vec::new();
    let mut seen: BTreeSet<SymRow> = BTreeSet::new();
    for seed in seeds {
        if let Some(solution) = greedy_from(rows, partition, level, ctx, seed) {
            if seen.insert(solution.labels.clone()) {
                out.push(solution);
            }
        }
    }
    out
}

/// Greedy linear-time solution for a partition, starting from a specific
/// seed tuple (§4.2.1: "if the time to retrieve a consistent solution is
/// an issue then one can always be found in linear time by applying the
/// Combine operator along a spanning tree of the connected component").
/// Repeatedly combines in the consistent tuple that fills the most nulls.
/// Used when the exhaustive `Combine*` enumeration is off the table or
/// exceeds its state cap without producing a complete tuple (wide root
/// groups).
fn greedy_from(
    rows: &[SymRow],
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
    seed: usize,
) -> Option<TupleSolution> {
    let mut remaining: Vec<usize> = partition
        .tuples
        .iter()
        .copied()
        .filter(|&t| t != seed)
        .collect();
    let mut labels = rows[seed].clone();
    let mut used = BTreeSet::from([seed]);
    loop {
        let complete = partition.covered.iter().all(|&col| labels[col].is_some());
        if complete {
            break;
        }
        // Best consistent extension: adds the most nulls.
        let mut best: Option<(usize, usize)> = None; // (gain, tuple)
        for &t in &remaining {
            let other = &rows[t];
            let gain = nulls_filled(&labels, other);
            if gain == 0 || !rows_consistent(&labels, other, level, ctx) {
                continue;
            }
            if best.is_none_or(|(g, bt)| (gain, usize::MAX - t) > (g, usize::MAX - bt)) {
                best = Some((gain, t));
            }
        }
        match best {
            Some((_, t)) => {
                labels = combine(&labels, &rows[t]);
                used.insert(t);
                remaining.retain(|&x| x != t);
            }
            None => break, // no consistent extension left
        }
    }
    let complete = partition.covered.iter().all(|&col| labels[col].is_some());
    if !complete {
        return None;
    }
    let is_candidate = used.len() == 1;
    Some(solution(rows, labels, used, is_candidate, ctx))
}

/// Distinct content words across the non-null labels of a row (§4.2.1).
pub fn tuple_expressiveness(labels: &[Option<Symbol>], ctx: &NamingCtx<'_>) -> usize {
    let texts: Vec<_> = labels.iter().flatten().map(|&s| ctx.text_sym(s)).collect();
    let keys: BTreeSet<&str> = texts
        .iter()
        .flat_map(|t| t.words.iter().map(|w| w.stem.as_str()))
        .collect();
    keys.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_tuples;
    use qi_lexicon::Lexicon;
    use qi_mapping::{ClusterId, GroupRelation};

    fn cids(n: u32) -> Vec<ClusterId> {
        (0..n).map(ClusterId).collect()
    }

    fn row(ctx: &NamingCtx<'_>, labels: &[&str]) -> SymRow {
        labels.iter().map(|l| Some(ctx.sym(l))).collect()
    }

    #[test]
    fn combine_overlays() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let [seniors, adults, adult, infants] =
            ["Seniors", "Adults", "Adult", "Infants"].map(|l| Some(ctx.sym(l)));
        assert_eq!(
            combine(&[seniors, adults, None], &[None, adult, infants]),
            vec![seniors, adults, infants] // r wins where both non-null
        );
    }

    /// §4.1: Combine(british, economytravel) = (Seniors, Adults, Children,
    /// Infants) — the paper's flagship example.
    #[test]
    fn table2_combined_solution() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(4),
            &[
                vec![None, Some("Adults"), Some("Children"), None],
                vec![None, Some("Adult"), Some("Child"), Some("Infant")],
                vec![None, Some("Adult"), Some("Child"), None],
                vec![Some("Seniors"), Some("Adults"), Some("Children"), None],
                vec![None, Some("Adults"), Some("Children"), Some("Infants")],
                vec![Some("Seniors"), Some("Adults"), Some("Children"), None],
            ],
        );
        let result = partition_tuples(&relation, ConsistencyLevel::String, &ctx);
        let full = &result.partitions[result.full[0]];
        let solutions = enumerate_solutions(
            &ctx.sym_rows(&relation),
            full,
            ConsistencyLevel::String,
            &ctx,
        );
        let expected = row(&ctx, &["Seniors", "Adults", "Children", "Infants"]);
        assert!(
            solutions.iter().any(|s| s.labels == expected),
            "expected solution not derived: {solutions:?}"
        );
        // No solution is a candidate (no single interface covers all 4).
        assert!(solutions.iter().all(|s| !s.is_candidate));
    }

    #[test]
    fn candidate_solutions_and_frequency() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(2),
            &[
                vec![Some("Make"), Some("Model")],
                vec![Some("Make"), Some("Model")],
                vec![Some("Make"), None],
            ],
        );
        let result = partition_tuples(&relation, ConsistencyLevel::String, &ctx);
        assert!(result.has_full_cover());
        let full = &result.partitions[result.full[0]];
        let solutions = enumerate_solutions(
            &ctx.sym_rows(&relation),
            full,
            ConsistencyLevel::String,
            &ctx,
        );
        let full_solution = solutions
            .iter()
            .find(|s| s.labels.iter().all(Option::is_some))
            .unwrap();
        assert!(full_solution.is_candidate);
        assert_eq!(full_solution.frequency, 2);
    }

    /// §4.2.1's expressiveness example: (Max. Number of Stops, Class of
    /// Ticket, Preferred Airline) beats (Number of Connections, Class of
    /// Ticket, Airline Preference).
    #[test]
    fn expressiveness_prefers_descriptive() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let a = row(
            &ctx,
            &[
                "Max. Number of Stops",
                "Class of Ticket",
                "Preferred Airline",
            ],
        );
        let b = row(
            &ctx,
            &[
                "Number of Connections",
                "Class of Ticket",
                "Airline Preference",
            ],
        );
        assert!(tuple_expressiveness(&a, &ctx) > tuple_expressiveness(&b, &ctx));
    }

    #[test]
    fn incomplete_partition_yields_partial_column_solutions() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // Column 2 is labeled only by a tuple disconnected from the
        // {State, City} partition.
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("State"), Some("City"), None],
                vec![Some("State"), None, None],
                vec![None, None, Some("Zip")],
            ],
        );
        let result = partition_tuples(&relation, ConsistencyLevel::String, &ctx);
        assert!(!result.has_full_cover());
        let p = result
            .partitions
            .iter()
            .find(|p| p.covered.contains(&0))
            .unwrap();
        let solutions =
            enumerate_solutions(&ctx.sym_rows(&relation), p, ConsistencyLevel::String, &ctx);
        // The solution is complete on columns {0,1} and null on column 2.
        assert!(solutions
            .iter()
            .any(|s| s.labels[0].is_some() && s.labels[1].is_some() && s.labels[2].is_none()));
    }

    #[test]
    fn expressiveness_of_empty_row() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        assert_eq!(tuple_expressiveness(&[None, None], &ctx), 0);
    }
}
