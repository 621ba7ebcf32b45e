//! Homonym detection and repair (§4.2.3).
//!
//! Two fields of one group must not end up with the same (or semantically
//! equivalent) labels. When a tuple-solution contains such a pair, the
//! repair looks for a source tuple that labels *both* clusters, agrees
//! with the solution on one of them, and supplies a non-similar label for
//! the other: designers of a single interface avoid evident ambiguities,
//! so that tuple's pair of labels is a safe replacement.

use crate::ctx::{NamingCtx, SymRow};
use qi_runtime::Symbol;
use std::collections::{BTreeSet, HashMap};

/// Column pairs of a solution whose labels are homonym-conflicted:
/// identical up to word order and inflection (`Job Type` / `Type of
/// Job`). Synonym-level pairs (`Job Type` / `Employment Type`) use
/// visually distinct words and are acceptable on a form — the paper's own
/// repair example substitutes exactly such a synonym.
///
/// `a equal b` (or stronger) holds exactly when both labels survive
/// normalization non-empty and either their display forms match
/// case-insensitively (`string_equal`) or their content-word key sets
/// match (`equal`) — both are *equivalence* signatures, so conflicts are
/// found by bucketing the columns on the two signatures instead of
/// probing all O(n²) pairs. Matters for the wide root group, where this
/// runs on every (incremental) relabel.
pub fn find_conflicts(labels: &[Option<Symbol>], ctx: &NamingCtx<'_>) -> Vec<(usize, usize)> {
    let texts: Vec<_> = labels.iter().map(|l| l.map(|s| ctx.text_sym(s))).collect();
    let mut by_display: HashMap<String, Vec<usize>> = HashMap::new();
    let mut by_keys: HashMap<Vec<&str>, Vec<usize>> = HashMap::new();
    for (i, text) in texts.iter().enumerate() {
        let Some(text) = text else { continue };
        if text.is_empty() {
            continue; // relate() treats empty labels as unrelated
        }
        by_display
            .entry(text.display.to_ascii_lowercase())
            .or_default()
            .push(i);
        by_keys
            .entry(text.keys().into_iter().collect())
            .or_default()
            .push(i);
    }
    // Union of both signatures' in-bucket pairs, in the (i, j)
    // lexicographic order a pairwise scan would emit.
    let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    for bucket in by_display.values().chain(by_keys.values()) {
        for (a, &i) in bucket.iter().enumerate() {
            for &j in &bucket[a + 1..] {
                pairs.insert((i, j));
            }
        }
    }
    pairs.into_iter().collect()
}

/// Attempt to repair every homonym conflict in `labels`, borrowing from
/// the group relation's interned `rows`. Returns
/// `Some(true)` when conflicts were found and all were repaired,
/// `Some(false)` when at least one conflict remains, and `None` when the
/// solution had no conflicts.
pub fn repair_conflicts(
    labels: &mut [Option<Symbol>],
    rows: &[SymRow],
    ctx: &NamingCtx<'_>,
) -> Option<bool> {
    let conflicts = find_conflicts(labels, ctx);
    if conflicts.is_empty() {
        return None;
    }
    let mut all_repaired = true;
    for (i, j) in conflicts {
        if !repair_one(labels, i, j, rows, ctx) {
            all_repaired = false;
        }
    }
    Some(all_repaired)
}

/// Repair a single conflicting pair by borrowing a disambiguating pair of
/// labels from a source tuple (§4.2.3's `Employment Type` example).
fn repair_one(
    labels: &mut [Option<Symbol>],
    i: usize,
    j: usize,
    rows: &[SymRow],
    ctx: &NamingCtx<'_>,
) -> bool {
    let (Some(li), Some(lj)) = (labels[i], labels[j]) else {
        return false;
    };
    for row in rows {
        let (Some(ti), Some(tj)) = (row[i], row[j]) else {
            continue;
        };
        // The source itself must be unambiguous.
        if ctx.equal_sym(ti, tj) {
            continue;
        }
        // Case 1: the tuple agrees with the solution on column i and
        // offers a different label for column j.
        if ctx.equal_sym(ti, li) && !ctx.equal_sym(tj, li) {
            labels[j] = Some(tj);
            return true;
        }
        // Case 2: symmetric.
        if ctx.equal_sym(tj, lj) && !ctx.equal_sym(ti, lj) {
            labels[i] = Some(ti);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lexicon::Lexicon;

    fn row(ctx: &NamingCtx<'_>, labels: &[Option<&str>]) -> SymRow {
        labels.iter().map(|l| l.map(|s| ctx.sym(s))).collect()
    }

    #[test]
    fn detects_equal_level_conflicts() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let labels = row(
            &ctx,
            &[Some("Job Type"), Some("Type of Job"), Some("Company Name")],
        );
        let conflicts = find_conflicts(&labels, &ctx);
        assert_eq!(conflicts, vec![(0, 1)]);
    }

    #[test]
    fn no_conflict_in_clean_solution() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let labels = row(&ctx, &[Some("Make"), Some("Model"), None]);
        assert!(find_conflicts(&labels, &ctx).is_empty());
        let mut l = labels.clone();
        assert_eq!(repair_conflicts(&mut l, &[], &ctx), None);
    }

    /// The paper's example: (Position Options, Job Type, Type of Job,
    /// Company Name) repaired to (…, Job Type, Employment Type, …) using
    /// a tuple (X, Job Type, Employment Type, X).
    #[test]
    fn paper_repair_example() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let solution = [
            Some("Position Options"),
            Some("Job Type"),
            Some("Type of Job"),
            Some("Company Name"),
        ];
        let rows = [
            row(&ctx, &solution),
            row(
                &ctx,
                &[None, Some("Job Type"), Some("Employment Type"), None],
            ),
        ];
        let mut labels = row(&ctx, &solution);
        let outcome = repair_conflicts(&mut labels, &rows, &ctx);
        assert_eq!(outcome, Some(true));
        assert_eq!(labels[2], Some(ctx.sym("Employment Type")));
        assert_eq!(labels[1], Some(ctx.sym("Job Type")));
        assert!(find_conflicts(&labels, &ctx).is_empty());
    }

    #[test]
    fn unrepairable_conflict_reports_false() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // No tuple labels both columns, so the conflict cannot be fixed.
        let rows = [
            row(&ctx, &[Some("Job Type"), None]),
            row(&ctx, &[None, Some("Type of Job")]),
        ];
        let original = row(&ctx, &[Some("Job Type"), Some("Type of Job")]);
        let mut labels = original.clone();
        assert_eq!(repair_conflicts(&mut labels, &rows, &ctx), Some(false));
        // The solution is untouched.
        assert_eq!(labels, original);
    }

    #[test]
    fn ambiguous_source_tuples_are_skipped() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // The only both-columns tuple is itself ambiguous — useless.
        let rows = [row(&ctx, &[Some("Job Type"), Some("Type of Job")])];
        let mut labels = rows[0].clone();
        assert_eq!(repair_conflicts(&mut labels, &rows, &ctx), Some(false));
    }
}
