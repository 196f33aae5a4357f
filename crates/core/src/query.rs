//! The bootstrap query DSL.
//!
//! Figure 4 shows the paper's seed query: a disjunction of mobilizing
//! phrases ANDed with a disjunction of in-group/target terms, evaluated
//! over `LOWER(body)`. This module provides the same clause algebra as a
//! small composable tree plus [`figure4_query`], a faithful transcription.

/// A boolean query over lowercased document bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Case-insensitive substring containment (the paper's
    /// `REGEXP_CONTAINS(LOWER(body), r'\Q …literal… \E')`).
    Contains(String),
    /// All sub-queries must match.
    And(Vec<Query>),
    /// Any sub-query must match.
    Or(Vec<Query>),
    /// Negation.
    Not(Box<Query>),
}

impl Query {
    /// Convenience constructor.
    pub fn contains(s: impl Into<String>) -> Query {
        Query::Contains(s.into().to_lowercase())
    }

    /// OR over many substrings.
    pub fn any_of<I: IntoIterator<Item = &'static str>>(items: I) -> Query {
        Query::Or(items.into_iter().map(Query::contains).collect())
    }

    /// Evaluates against raw text. The body is lowercased and padded with a
    /// single space on each edge so that the Figure 4 literals (which carry
    /// leading spaces, e.g. `" we need to"`) also match at the start of a
    /// post.
    pub fn matches(&self, text: &str) -> bool {
        let lower = format!(" {} ", text.to_lowercase());
        self.matches_lower(&lower)
    }

    fn matches_lower(&self, lower: &str) -> bool {
        match self {
            Query::Contains(s) => lower.contains(s.as_str()),
            Query::And(qs) => qs.iter().all(|q| q.matches_lower(lower)),
            Query::Or(qs) => qs.iter().any(|q| q.matches_lower(lower)),
            Query::Not(q) => !q.matches_lower(lower),
        }
    }
}

/// The Figure 4 bootstrap query: mobilizing language AND in-group/target
/// language. (The figure's SQL lists the mobilizing phrases with
/// surrounding spaces; we reproduce the same literals.)
pub fn figure4_query() -> Query {
    Query::And(vec![
        // First clause: contains mobilizing language.
        Query::any_of([
            " we need to",
            " we should",
            " lets",
            " we have",
            " we will",
            " we ",
        ]),
        // Subclause: in-group mobilizing language vs target.
        Query::any_of([" them", " him", " her", " all", " entire"]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_is_case_insensitive() {
        let q = Query::contains("Mass Report");
        assert!(q.matches("we will MASS REPORT him"));
        assert!(q.matches("mass reporting ok")); // substring semantics
        assert!(!q.matches("mass flagging ok"));
    }

    #[test]
    fn and_or_not_compose() {
        let q = Query::And(vec![
            Query::contains("report"),
            Query::Not(Box::new(Query::contains("bug"))),
        ]);
        assert!(q.matches("report him"));
        assert!(!q.matches("report the bug"));
        let o = Query::Or(vec![Query::contains("raid"), Query::contains("spam")]);
        assert!(o.matches("lets raid"));
        assert!(o.matches("spam it"));
        assert!(!o.matches("nothing"));
    }

    #[test]
    fn figure4_matches_mobilizing_cth() {
        let q = figure4_query();
        assert!(q.matches("i think we need to report him to the platform"));
        assert!(q.matches("folks, we should mass flag her account"));
        // Mobilizing language without a target reference: no match.
        assert!(!q.matches("yesterday we went hiking"));
        // Target reference without mobilizing language: no match.
        assert!(!q.matches("i saw him at the game"));
    }

    #[test]
    fn figure4_also_matches_civic_hard_negatives() {
        // The query is deliberately high-recall: civic mobilization matches
        // too, which is why the seeds get expert-annotated.
        let q = figure4_query();
        assert!(q.matches("now we need to contact our representative, all of us"));
    }

    #[test]
    fn empty_junctions() {
        assert!(Query::And(vec![]).matches("anything")); // vacuous truth
        assert!(!Query::Or(vec![]).matches("anything"));
    }
}
