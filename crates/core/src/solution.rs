//! Naming the fields of a group (§4.1–§4.3).
//!
//! `name_group` interns the group relation's labels once, one symbol row
//! per tuple, and walks the relaxation ladder of Definition 2 on those
//! rows: at each consistency level it partitions the relation (§4.1.1);
//! as soon as some partition covers every (coverable) cluster it
//! extracts the tuple-solutions with `Combine*` and keeps the best-ranked
//! one (§4.2.1: expressiveness, then frequency — or the most-general
//! baseline ordering), repairs its homonym conflicts (§4.2.3) and reports
//! a *consistent* naming. If no level produces a covering partition, the
//! greedy concatenation of §4.2.2 builds a *partially consistent* naming
//! instead. Labels are spelled out only for the solution that is kept.

use crate::combine::{enumerate_solutions, greedy_solutions, tuple_expressiveness, TupleSolution};
use crate::conflicts::repair_conflicts;
use crate::consistency::ConsistencyLevel;
use crate::ctx::{NamingCtx, SymRow};
use crate::partition::{components, extend_components, result_from_components, TuplePartition};
use crate::policy::{LabelSelection, NamingPolicy};
use qi_mapping::GroupRelation;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The naming chosen for a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSolution {
    /// Labels per cluster column (`None` = no source ever labels it).
    pub labels: Vec<Option<String>>,
    /// Relation tuples whose components were used.
    pub used_tuples: BTreeSet<usize>,
    /// Tuples of the partition that supplied the solution (empty for a
    /// partially consistent solution assembled across partitions).
    pub partition_tuples: Vec<usize>,
    /// Distinct content words across the labels.
    pub expressiveness: usize,
    /// Verbatim occurrences among the relation's tuples.
    pub frequency: usize,
    /// True if one interface supplied the whole solution (Definition 4).
    pub is_candidate: bool,
    /// Homonym repair outcome (`None` = no conflict found).
    pub conflict_repaired: Option<bool>,
}

/// The naming outcome for one group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupNaming {
    /// The best-ranked solution, conflict-repaired.
    pub solution: GroupSolution,
    /// Level at which consistency was achieved; `None` for partially
    /// consistent outcomes.
    pub level: Option<ConsistencyLevel>,
    /// True when the labels form a consistent solution (Proposition 1).
    pub consistent: bool,
}

impl GroupNaming {
    /// The chosen solution. Always present: a group no source labels
    /// gets the all-null solution.
    pub fn best(&self) -> Option<&GroupSolution> {
        Some(&self.solution)
    }
}

/// The ranking of §4.2.1 under the policy's selection strategy: `Less`
/// when `a` ranks before `b`. Ties order by label spelling.
fn rank_order(
    a: &TupleSolution,
    b: &TupleSolution,
    selection: LabelSelection,
    ctx: &NamingCtx<'_>,
) -> Ordering {
    match selection {
        LabelSelection::MostDescriptive => b
            .expressiveness
            .cmp(&a.expressiveness)
            .then(b.frequency.cmp(&a.frequency)),
        LabelSelection::MostGeneral => b
            .frequency
            .cmp(&a.frequency)
            .then(a.expressiveness.cmp(&b.expressiveness)),
    }
    .then_with(|| ctx.cmp_rows(&a.labels, &b.labels))
}

/// The best-ranked item in one pass: the head of a stable sort by
/// [`rank_order`], so among items ranking equal (the same label vector
/// from two partitions) the first seen wins.
fn pick_best<T>(
    items: impl IntoIterator<Item = T>,
    solution: impl Fn(&T) -> &TupleSolution,
    selection: LabelSelection,
    ctx: &NamingCtx<'_>,
) -> Option<T> {
    let mut best: Option<T> = None;
    for item in items {
        if best
            .as_ref()
            .is_none_or(|b| rank_order(solution(&item), solution(b), selection, ctx).is_lt())
        {
            best = Some(item);
        }
    }
    best
}

/// Solutions of one partition: the exhaustive `Combine*` enumeration for
/// normally sized groups, falling back to the linear-time spanning-tree
/// construction (§4.2.1) when the group is too wide for enumeration or
/// the state cap was reached without a complete tuple. Wide, loosely
/// consistent collections of clusters are exactly the root "group" the
/// paper accepts partially consistent solutions for (§4), so a single
/// greedy solution is adequate there.
fn partition_solutions(
    rows: &[SymRow],
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<TupleSolution> {
    const MAX_EXHAUSTIVE_TUPLES: usize = 12;
    const MAX_EXHAUSTIVE_WIDTH: usize = 8;
    const ALWAYS_EXHAUSTIVE_WIDTH: usize = 6;
    if partition.covered.len() <= ALWAYS_EXHAUSTIVE_WIDTH
        || (partition.tuples.len() <= MAX_EXHAUSTIVE_TUPLES
            && partition.covered.len() <= MAX_EXHAUSTIVE_WIDTH)
    {
        let solutions = enumerate_solutions(rows, partition, level, ctx);
        if !solutions.is_empty() {
            return solutions;
        }
    }
    greedy_solutions(rows, partition, level, ctx)
}

/// The all-null solution of a width-`width` group.
fn null_solution(width: usize) -> TupleSolution {
    TupleSolution {
        labels: vec![None; width],
        used_tuples: BTreeSet::new(),
        is_candidate: false,
        expressiveness: 0,
        frequency: 0,
    }
}

/// Turn the kept solution into the group's naming: repair its homonym
/// conflicts when the policy asks for it, then spell its labels out.
fn finish(
    mut solution: TupleSolution,
    partition_tuples: Vec<usize>,
    rows: &[SymRow],
    policy: &NamingPolicy,
    ctx: &NamingCtx<'_>,
) -> GroupSolution {
    let conflict_repaired = if policy.repair_conflicts {
        repair_conflicts(&mut solution.labels, rows, ctx)
    } else {
        None
    };
    GroupSolution {
        labels: ctx.spell_row(&solution.labels),
        used_tuples: solution.used_tuples,
        partition_tuples,
        expressiveness: solution.expressiveness,
        frequency: solution.frequency,
        is_candidate: solution.is_candidate,
        conflict_repaired,
    }
}

/// Solutions of one partition at one level, in partition-tuple form —
/// the carryable half of the partially-consistent path. Keyed by the
/// member tuple set: an append that leaves a partition's members
/// untouched leaves its `Combine*` output untouched too (modulo column
/// padding), so the enumeration can be replayed instead of redone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSolutions {
    /// Member tuple indices of the partition, ascending.
    pub tuples: Vec<usize>,
    /// Raw `Combine*` / greedy output for the partition, pre-ranking.
    /// Its symbols belong to the run's naming memo, which
    /// [`crate::RelabelCache`] carries alongside. Shared, so capturing a
    /// run's state never deep-copies the solution lists.
    pub solutions: Arc<Vec<TupleSolution>>,
}

/// The reusable internals of one `name_group` run over a relation.
///
/// `levels` carries the canonical connected-component ids per visited
/// consistency level ([`components`]); appending one tuple only *merges*
/// components (an edge between old tuples never appears or disappears),
/// so [`extend_group_naming`] re-derives each level in O(n) instead of
/// O(n²). `partial` carries the per-partition solutions of the
/// partially-consistent path, reused verbatim for partitions the append
/// did not touch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupNamingState {
    /// `(level, canonical component id per tuple)` for every level the
    /// run partitioned at, in ladder order.
    pub levels: Vec<(ConsistencyLevel, Vec<usize>)>,
    /// Per-partition solutions at the final level, when the run took the
    /// partially-consistent path (partition order).
    pub partial: Option<Vec<PartitionSolutions>>,
}

/// How an extension run may reuse a prior run's state.
struct ExtendSeed<'s> {
    old: &'s GroupNamingState,
    /// True when the new relation has one tuple appended after the old
    /// ones (false when the new schema labeled nothing in this group).
    appended: bool,
    /// Old column index → new column index.
    column_map: &'s [usize],
}

/// Replay a cached solution against a column-remapped relation: labels
/// move through `column_map` (new columns stay null — no old tuple
/// labels them), and the verbatim-occurrence frequency picks up the
/// appended tuple iff it equals the solution. Everything else —
/// contributing tuples, candidacy, expressiveness — is append-invariant.
fn remap_solution(
    solution: &TupleSolution,
    rows: &[SymRow],
    width: usize,
    column_map: &[usize],
    appended: bool,
) -> TupleSolution {
    let mut labels: SymRow = vec![None; width];
    for (old_col, &new_col) in column_map.iter().enumerate() {
        labels[new_col] = solution.labels[old_col];
    }
    let mut frequency = solution.frequency;
    if appended && rows.last() == Some(&labels) {
        frequency += 1;
    }
    TupleSolution {
        labels,
        used_tuples: solution.used_tuples.clone(),
        is_candidate: solution.is_candidate,
        expressiveness: solution.expressiveness,
        frequency,
    }
}

/// Name the fields of one group (§4.1–§4.3).
pub fn name_group(
    relation: &GroupRelation,
    ctx: &NamingCtx<'_>,
    policy: &NamingPolicy,
) -> GroupNaming {
    name_group_impl(relation, ctx, policy, false, None).0
}

/// [`name_group`], also capturing the run's reusable internals for a
/// later [`extend_group_naming`].
pub fn name_group_stateful(
    relation: &GroupRelation,
    ctx: &NamingCtx<'_>,
    policy: &NamingPolicy,
) -> (GroupNaming, GroupNamingState) {
    let (naming, state) = name_group_impl(relation, ctx, policy, true, None);
    (naming, state.expect("stateful run captures state"))
}

/// Re-run `name_group` over a relation extended from a previous run —
/// same tuples in the same order (columns possibly remapped through
/// `column_map`, new columns null everywhere), plus at most one appended
/// tuple — reusing the previous run's partitioning and per-partition
/// solutions. Produces output identical to [`name_group`] from scratch:
/// component extension and solution replay are exact, not approximate.
pub fn extend_group_naming(
    relation: &GroupRelation,
    old: &GroupNamingState,
    appended: bool,
    column_map: &[usize],
    ctx: &NamingCtx<'_>,
    policy: &NamingPolicy,
) -> (GroupNaming, GroupNamingState) {
    let seed = ExtendSeed {
        old,
        appended,
        column_map,
    };
    let (naming, state) = name_group_impl(relation, ctx, policy, true, Some(&seed));
    (naming, state.expect("stateful run captures state"))
}

fn name_group_impl(
    relation: &GroupRelation,
    ctx: &NamingCtx<'_>,
    policy: &NamingPolicy,
    capture: bool,
    seed: Option<&ExtendSeed<'_>>,
) -> (GroupNaming, Option<GroupNamingState>) {
    if relation.tuples.is_empty() {
        // Nothing is labeled anywhere: the group keeps null labels.
        return (
            GroupNaming {
                solution: finish(
                    null_solution(relation.width()),
                    Vec::new(),
                    &[],
                    policy,
                    ctx,
                ),
                level: None,
                consistent: false,
            },
            capture.then(GroupNamingState::default),
        );
    }
    let rows = ctx.sym_rows(relation);
    let n = rows.len();
    // Components at a level: seeded extension when the previous run
    // partitioned at this level (O(n) new-tuple edges), full O(n²)
    // closure otherwise.
    let comps_for = |level: ConsistencyLevel| -> Vec<usize> {
        if let Some(seed) = seed {
            if let Some((_, old)) = seed.old.levels.iter().find(|(l, _)| *l == level) {
                if seed.appended && old.len() + 1 == n {
                    return extend_components(&rows, level, ctx, old);
                }
                if !seed.appended && old.len() == n {
                    // No appended tuple: the component structure is
                    // untouched by column padding.
                    return old.clone();
                }
            }
        }
        components(&rows, level, ctx)
    };
    let mut visited: Vec<(ConsistencyLevel, Vec<usize>)> = Vec::new();
    for level in policy.levels() {
        let comps = comps_for(level);
        let result = result_from_components(&rows, level, &comps);
        visited.push((level, comps));
        let solutions = result.full.iter().flat_map(|&pi| {
            let partition = &result.partitions[pi];
            partition_solutions(&rows, partition, level, ctx)
                .into_iter()
                .map(move |solution| (solution, partition))
        });
        // No covering partition, or only covering partitions whose
        // Combine* closure cannot produce a complete tuple (possible when
        // the connecting tuples disagree) — fall through to the next
        // level.
        let Some((best, partition)) = pick_best(solutions, |(s, _)| s, policy.selection, ctx)
        else {
            continue;
        };
        return (
            GroupNaming {
                solution: finish(best, partition.tuples.clone(), &rows, policy, ctx),
                level: Some(level),
                consistent: true,
            },
            capture.then_some(GroupNamingState {
                levels: visited,
                partial: None,
            }),
        );
    }
    // Partially consistent solution (§4.2.2).
    let max_level = *policy.levels().last().unwrap_or(&ConsistencyLevel::String);
    // The ladder normally ends at max_level, so its partitioning is
    // already in hand; recompute only under a non-standard ladder.
    let result = match visited.iter().find(|(l, _)| *l == max_level) {
        Some((_, comps)) => result_from_components(&rows, max_level, comps),
        None => {
            let comps = comps_for(max_level);
            let result = result_from_components(&rows, max_level, &comps);
            visited.push((max_level, comps));
            result
        }
    };
    // Cached per-partition solutions from the previous run, keyed by
    // member tuple set. A current partition with the same members as an
    // old one was untouched by the append (the appended tuple has index
    // n-1, beyond any old member), so its solutions replay via remap.
    let reusable: Option<HashMap<&[usize], &PartitionSolutions>> = seed.and_then(|s| {
        s.old
            .partial
            .as_ref()
            .map(|ps| ps.iter().map(|p| (p.tuples.as_slice(), p)).collect())
    });
    let mut captured: Vec<PartitionSolutions> = Vec::new();
    // Greedy concatenation input: the best solution of each partition,
    // keyed by its non-null count.
    let mut per_partition: Vec<(usize, TupleSolution)> = Vec::new();
    for partition in &result.partitions {
        let raw: Arc<Vec<TupleSolution>> = match reusable
            .as_ref()
            .and_then(|m| m.get(partition.tuples.as_slice()))
        {
            Some(old) => {
                let s = seed.expect("reusable implies seed");
                Arc::new(
                    old.solutions
                        .iter()
                        .map(|sol| {
                            remap_solution(sol, &rows, relation.width(), s.column_map, s.appended)
                        })
                        .collect(),
                )
            }
            None => Arc::new(partition_solutions(&rows, partition, max_level, ctx)),
        };
        if capture {
            captured.push(PartitionSolutions {
                tuples: partition.tuples.clone(),
                solutions: Arc::clone(&raw),
            });
        }
        if let Some(best) = pick_best(raw.iter(), |s| *s, policy.selection, ctx) {
            let non_null = best.labels.iter().filter(|l| l.is_some()).count();
            per_partition.push((non_null, best.clone()));
        }
    }
    // Greedy concatenation: start from the widest partial solution, fill
    // nulls from the next widest, repeat.
    per_partition
        .sort_by(|(na, a), (nb, b)| nb.cmp(na).then_with(|| ctx.cmp_rows(&a.labels, &b.labels)));
    let mut widest_first = per_partition.into_iter().map(|(_, s)| s);
    let mut merged = widest_first
        .next()
        .unwrap_or_else(|| null_solution(relation.width()));
    for other in widest_first {
        if merged.labels.iter().all(Option::is_some) {
            break;
        }
        let mut added = false;
        for (slot, label) in merged.labels.iter_mut().zip(&other.labels) {
            if slot.is_none() && label.is_some() {
                *slot = *label;
                added = true;
            }
        }
        if added {
            merged.used_tuples.extend(other.used_tuples.iter().copied());
        }
    }
    merged.expressiveness = tuple_expressiveness(&merged.labels, ctx);
    merged.frequency = 0;
    merged.is_candidate = false;
    (
        GroupNaming {
            // Spans partitions: no single supplying partition.
            solution: finish(merged, Vec::new(), &rows, policy, ctx),
            level: None,
            consistent: false,
        },
        capture.then_some(GroupNamingState {
            levels: visited,
            partial: Some(captured),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lexicon::Lexicon;
    use qi_mapping::ClusterId;

    fn cids(n: u32) -> Vec<ClusterId> {
        (0..n).map(ClusterId).collect()
    }

    fn labels(solution: &GroupSolution) -> Vec<&str> {
        solution
            .labels
            .iter()
            .map(|l| l.as_deref().unwrap_or("∅"))
            .collect()
    }

    /// Random solution sets, two partitions each, with repeated label
    /// vectors: the one-pass winner is the head of a stable sort in
    /// §4.2.1's ranking order, written out here on spelled labels.
    #[test]
    fn one_pass_winner_is_head_of_stable_rank_sort() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // Interned out of spelling order, so symbol order is not
        // spelling order.
        let vocabulary: Vec<qi_runtime::Symbol> = ["Zip", "Model", "Age", "Make", "City"]
            .iter()
            .map(|l| ctx.sym(l))
            .collect();
        let mut rng = qi_runtime::SplitMix64::new(0x0e_7a55);
        for selection in [LabelSelection::MostDescriptive, LabelSelection::MostGeneral] {
            for _ in 0..500 {
                let mut items: Vec<(TupleSolution, usize)> = Vec::new();
                for _ in 0..1 + rng.gen_range(12) {
                    // Partition 1 repeats a label vector partition 0 saw.
                    if !items.is_empty() && rng.gen_bool(0.3) {
                        let (copy, _) = items[rng.gen_range(items.len())].clone();
                        items.push((copy, 1));
                        continue;
                    }
                    let labels = (0..3)
                        .map(|_| {
                            rng.gen_bool(0.8)
                                .then(|| vocabulary[rng.gen_range(vocabulary.len())])
                        })
                        .collect();
                    let solution = TupleSolution {
                        labels,
                        used_tuples: BTreeSet::new(),
                        is_candidate: false,
                        expressiveness: rng.gen_range(3),
                        frequency: rng.gen_range(3),
                    };
                    items.push((solution, usize::from(items.len() % 2 == 1)));
                }
                let mut oracle = items.clone();
                oracle.sort_by(|(a, _), (b, _)| {
                    match selection {
                        LabelSelection::MostDescriptive => b
                            .expressiveness
                            .cmp(&a.expressiveness)
                            .then(b.frequency.cmp(&a.frequency)),
                        LabelSelection::MostGeneral => b
                            .frequency
                            .cmp(&a.frequency)
                            .then(a.expressiveness.cmp(&b.expressiveness)),
                    }
                    .then_with(|| ctx.spell_row(&a.labels).cmp(&ctx.spell_row(&b.labels)))
                });
                let winner = pick_best(items.iter(), |(s, _)| s, selection, &ctx);
                assert_eq!(winner, oracle.first(), "{selection:?}: {items:?}");
            }
        }
    }

    /// The same label vector from two partitions: the first seen wins,
    /// under either selection policy.
    #[test]
    fn first_partition_wins_a_repeated_label_vector() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let solution = |labels: &[&str], expressiveness: usize| TupleSolution {
            labels: labels.iter().map(|l| Some(ctx.sym(l))).collect(),
            used_tuples: BTreeSet::new(),
            is_candidate: false,
            expressiveness,
            frequency: 1,
        };
        let items = [
            (solution(&["Make", "Model"], 2), 0),
            (solution(&["Vehicle Make", "Vehicle Model"], 3), 0),
            (solution(&["Vehicle Make", "Vehicle Model"], 3), 1),
            (solution(&["Make", "Model"], 2), 1),
        ];
        let descriptive = pick_best(
            items.iter(),
            |(s, _)| s,
            LabelSelection::MostDescriptive,
            &ctx,
        );
        assert_eq!(descriptive, Some(&items[1]));
        let general = pick_best(items.iter(), |(s, _)| s, LabelSelection::MostGeneral, &ctx);
        assert_eq!(general, Some(&items[0]));
    }

    /// Table 2 end-to-end: the group resolves at the string level to
    /// (Seniors, Adults, Children, Infants).
    #[test]
    fn table2_consistent_solution() {
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
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(naming.consistent);
        assert_eq!(naming.level, Some(ConsistencyLevel::String));
        assert_eq!(
            labels(naming.best().unwrap()),
            vec!["Seniors", "Adults", "Children", "Infants"]
        );
    }

    /// Table 3 end-to-end: partially consistent [State, City, Zip Code,
    /// Distance].
    #[test]
    fn table3_partially_consistent() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(4),
            &[
                vec![Some("State"), Some("City"), None, None],
                vec![None, None, Some("Zip Code"), Some("Distance")],
                vec![Some("State"), Some("City"), None, None],
                vec![None, None, Some("Your Zip"), Some("Within")],
            ],
        );
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(!naming.consistent);
        assert_eq!(naming.level, None);
        let best = naming.best().unwrap();
        assert_eq!(best.labels[0].as_deref(), Some("State"));
        assert_eq!(best.labels[1].as_deref(), Some("City"));
        assert!(best.labels[2].is_some());
        assert!(best.labels[3].is_some());
    }

    /// Table 4 end-to-end: resolves at the equality level; the
    /// most-descriptive ranking prefers Max. Number of Stops over
    /// Number of Connections (§4.2.1).
    #[test]
    fn table4_equality_and_expressiveness() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("NonStop"), None, Some("Choose an Airline")],
                vec![
                    Some("Number of Connections"),
                    None,
                    Some("Airline Preference"),
                ],
                vec![None, Some("Class of Ticket"), Some("Preferred Airline")],
                vec![
                    Some("Max. Number of Stops"),
                    None,
                    Some("Airline Preference"),
                ],
                vec![None, Some("Class"), Some("Airline")],
            ],
        );
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(naming.consistent);
        assert_eq!(naming.level, Some(ConsistencyLevel::Equality));
        let best = naming.best().unwrap();
        assert_eq!(best.labels[0].as_deref(), Some("Max. Number of Stops"));
        assert_eq!(best.labels[1].as_deref(), Some("Class of Ticket"));
    }

    #[test]
    fn most_general_baseline_prefers_frequent_short_labels() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(2),
            &[
                vec![Some("Make"), Some("Model")],
                vec![Some("Make"), Some("Model")],
                vec![Some("Vehicle Make"), Some("Vehicle Model")],
            ],
        );
        let descriptive = name_group(&relation, &ctx, &NamingPolicy::default());
        assert_eq!(
            labels(descriptive.best().unwrap()),
            vec!["Vehicle Make", "Vehicle Model"]
        );
        let general = name_group(&relation, &ctx, &NamingPolicy::most_general_baseline());
        assert_eq!(labels(general.best().unwrap()), vec!["Make", "Model"]);
    }

    #[test]
    fn level_ladder_respects_policy_cap() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // Only connectable at the equality level; neither tuple alone
        // covers all three columns.
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("Job Type"), Some("Salary"), None],
                vec![Some("Type of Job"), None, Some("Company")],
            ],
        );
        let capped = NamingPolicy {
            max_level: ConsistencyLevel::String,
            ..NamingPolicy::default()
        };
        let naming = name_group(&relation, &ctx, &capped);
        assert!(!naming.consistent, "string level alone cannot connect");
        let full = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(full.consistent);
        assert_eq!(full.level, Some(ConsistencyLevel::Equality));
    }

    #[test]
    fn empty_relation_yields_null_solution() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(&cids(3), &[]);
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(!naming.consistent);
        assert_eq!(naming.best().unwrap().labels, vec![None, None, None]);
    }

    #[test]
    fn uncoverable_column_does_not_block_consistency() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // Column 2 is never labeled (the Figure 11 "No Label" field).
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("From"), Some("To"), None],
                vec![Some("From"), Some("To"), None],
            ],
        );
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(naming.consistent);
        let best = naming.best().unwrap();
        assert_eq!(best.labels[2], None);
    }

    /// With the default most-descriptive ranking, the expressiveness
    /// criterion already prefers the conflict-free combination — the
    /// repaired labels emerge from `Combine*` itself.
    #[test]
    fn expressiveness_ranking_avoids_conflicts() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("Job Type"), Some("Type of Job"), Some("Company Name")],
                vec![Some("Job Type"), Some("Employment Type"), None],
            ],
        );
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(naming.consistent);
        let best = naming.best().unwrap();
        assert_eq!(best.labels[1].as_deref(), Some("Employment Type"));
        assert_eq!(best.conflict_repaired, None, "no conflict left to repair");
    }

    /// Frequency-first ranking picks the homonym-conflicted candidate;
    /// the §4.2.3 repair then swaps in the disambiguating label.
    #[test]
    fn conflict_repair_is_applied() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("Job Type"), Some("Type of Job"), Some("Company Name")],
                vec![Some("Job Type"), Some("Type of Job"), Some("Company Name")],
                vec![
                    Some("Job Type"),
                    Some("Employment Type"),
                    Some("Company Name"),
                ],
            ],
        );
        let policy = NamingPolicy {
            selection: LabelSelection::MostGeneral,
            ..NamingPolicy::default()
        };
        let naming = name_group(&relation, &ctx, &policy);
        assert!(naming.consistent);
        let best = naming.best().unwrap();
        assert_eq!(best.conflict_repaired, Some(true));
        assert_eq!(best.labels[1].as_deref(), Some("Employment Type"));
    }
}
