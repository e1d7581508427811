//! Property tests for the transports: the marionette DSL parser is total.

use proptest::prelude::*;

use ptperf_transports::marionette;

proptest! {
    /// The marionette DSL parser is total: arbitrary input never panics.
    #[test]
    fn marionette_parser_total(src in "\\PC{0,300}") {
        let _ = marionette::Automaton::parse(&src);
    }
}
