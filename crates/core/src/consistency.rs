//! The three levels of naming consistency (Definition 2).
//!
//! Two tuples of a group relation are consistent at a level when they
//! share at least one cluster column whose labels relate at that level.
//! Levels are cumulative when *relaxing*: the algorithm first demands
//! plain string equality; failing that it accepts content-word equality;
//! failing that, synonymy (§4.1, "the general directions of the
//! algorithm").

use crate::ctx::NamingCtx;
use crate::relations::LabelRelation;
use qi_runtime::Symbol;

/// Consistency level of Definition 2, in relaxation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConsistencyLevel {
    /// Plain string comparison on display-normalized labels.
    String,
    /// Content-word set equality.
    Equality,
    /// Definition 1 synonymy.
    Synonymy,
}

impl ConsistencyLevel {
    /// The relaxation ladder, strongest first.
    pub const LADDER: [ConsistencyLevel; 3] = [
        ConsistencyLevel::String,
        ConsistencyLevel::Equality,
        ConsistencyLevel::Synonymy,
    ];

    /// Does `rel` satisfy this level (cumulatively)?
    pub fn admits(self, rel: LabelRelation) -> bool {
        match self {
            ConsistencyLevel::String => rel == LabelRelation::StringEqual,
            ConsistencyLevel::Equality => {
                matches!(rel, LabelRelation::StringEqual | LabelRelation::Equal)
            }
            ConsistencyLevel::Synonymy => matches!(
                rel,
                LabelRelation::StringEqual | LabelRelation::Equal | LabelRelation::Synonym
            ),
        }
    }
}

impl std::fmt::Display for ConsistencyLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyLevel::String => write!(f, "string"),
            ConsistencyLevel::Equality => write!(f, "equality"),
            ConsistencyLevel::Synonymy => write!(f, "synonymy"),
        }
    }
}

/// Definition 2: two tuples are consistent at `level` if some shared
/// cluster column carries labels related at that level. Works on
/// relation tuples and on combined (in-progress) rows alike.
pub fn rows_consistent(
    a: &[Option<Symbol>],
    b: &[Option<Symbol>],
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> bool {
    a.iter().zip(b).any(|(la, lb)| match (la, lb) {
        (Some(la), Some(lb)) => level.admits(ctx.relate_sym(*la, *lb)),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lexicon::Lexicon;

    fn row(ctx: &NamingCtx<'_>, labels: &[Option<&str>]) -> Vec<Option<Symbol>> {
        labels.iter().map(|l| l.map(|s| ctx.sym(s))).collect()
    }

    #[test]
    fn ladder_order() {
        assert!(ConsistencyLevel::String < ConsistencyLevel::Equality);
        assert!(ConsistencyLevel::Equality < ConsistencyLevel::Synonymy);
        assert_eq!(ConsistencyLevel::LADDER.len(), 3);
    }

    #[test]
    fn admits_is_cumulative() {
        use LabelRelation::*;
        assert!(ConsistencyLevel::String.admits(StringEqual));
        assert!(!ConsistencyLevel::String.admits(Equal));
        assert!(ConsistencyLevel::Equality.admits(StringEqual));
        assert!(ConsistencyLevel::Equality.admits(Equal));
        assert!(!ConsistencyLevel::Equality.admits(Synonym));
        assert!(ConsistencyLevel::Synonymy.admits(Synonym));
        assert!(!ConsistencyLevel::Synonymy.admits(Hypernym));
    }

    /// Table 2: british and economytravel are string-level consistent via
    /// the shared labels Adults and Children.
    #[test]
    fn table2_string_level() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let british = row(
            &ctx,
            &[Some("Seniors"), Some("Adults"), Some("Children"), None],
        );
        let economy = row(
            &ctx,
            &[None, Some("Adults"), Some("Children"), Some("Infants")],
        );
        assert!(rows_consistent(
            &british,
            &economy,
            ConsistencyLevel::String,
            &ctx
        ));
        // aa vs airtravel share no label (aa: Adults/Children; airtravel
        // after expansion: all nulls — modeled here with distinct labels).
        let aa = row(&ctx, &[None, Some("Adults"), Some("Children"), None]);
        let airfareplanet = row(&ctx, &[None, Some("Adult"), Some("Child"), Some("Infant")]);
        assert!(!rows_consistent(
            &aa,
            &airfareplanet,
            ConsistencyLevel::String,
            &ctx
        ));
        // …but Adult/Adults are content-word equal, so the equality level
        // connects them.
        assert!(rows_consistent(
            &aa,
            &airfareplanet,
            ConsistencyLevel::Equality,
            &ctx
        ));
    }

    /// Table 4: Preferred Airline vs Airline Preference is equality-level.
    #[test]
    fn table4_equality_level() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let alldest = row(
            &ctx,
            &[None, Some("Class of Ticket"), Some("Preferred Airline")],
        );
        let cheap = row(
            &ctx,
            &[
                Some("Max. Number of Stops"),
                None,
                Some("Airline Preference"),
            ],
        );
        assert!(!rows_consistent(
            &alldest,
            &cheap,
            ConsistencyLevel::String,
            &ctx
        ));
        assert!(rows_consistent(
            &alldest,
            &cheap,
            ConsistencyLevel::Equality,
            &ctx
        ));
    }

    #[test]
    fn synonymy_level() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let a = row(&ctx, &[Some("Area of Study"), None]);
        let b = row(&ctx, &[Some("Field of Work"), Some("Company")]);
        assert!(!rows_consistent(&a, &b, ConsistencyLevel::Equality, &ctx));
        assert!(rows_consistent(&a, &b, ConsistencyLevel::Synonymy, &ctx));
    }

    #[test]
    fn disjoint_columns_never_consistent() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // Table 3: {State, City} rows vs {Zip, Distance} rows share no
        // column.
        let a = row(&ctx, &[Some("State"), Some("City"), None, None]);
        let b = row(&ctx, &[None, None, Some("Zip Code"), Some("Distance")]);
        for level in ConsistencyLevel::LADDER {
            assert!(!rows_consistent(&a, &b, level, &ctx));
        }
    }
}
