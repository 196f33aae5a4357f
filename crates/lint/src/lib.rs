//! incite-lint: the workspace's static-analysis engine.
//!
//! The paper's numbers are only credible if every pipeline stage is
//! deterministic and total. Each invariant has exactly one enforcement
//! mechanism (DESIGN.md §10). The token-level ones are clippy lints, scoped
//! by crate attributes and the workspace `clippy.toml`:
//!
//! | rule | invariant | clippy lint |
//! |------|-----------|-------------|
//! | INC001 | no `unwrap()`/`expect()`/`panic!`/`todo!` in library code of core, ml, pii, regexlite, stats, cli, serve, stream | `unwrap_used`, `expect_used`, `panic`, `todo` |
//! | INC002 | no `SystemTime::now`/`Instant::now` outside serve and bench | `disallowed_methods` |
//! | INC003 | no float `==`/`!=` between computed values in stats/ml | `float_cmp` |
//! | INC004 | no unchecked slice indexing in the regexlite VM hot loop | `indexing_slicing` |
//! | INC006 | all persistent writes funnel through `checkpoint::atomic_io` | `disallowed_methods` |
//! | INC007 | `std::net` usage confined to the serve crate | `disallowed_types` |
//!
//! INC005 (the paper's taxonomy counts) is unit tests in `taxonomy` and
//! `pii` whose exhaustive matches stop building when a variant or field
//! is added. INC015 (no float accumulation across `parallel::map_indexed`
//! slots) is rustc's: the closure bound is `Fn + Sync`, so a captured
//! accumulator cannot be mutated, pinned by a `compile_fail` doctest.
//!
//! This crate proves the rest, which need whole-workspace reasoning:
//!
//! | rule | invariant |
//! |------|-----------|
//! | INC008 | workspace locks are acquired in one consistent order |
//! | INC009 | no blocking operation while a lock guard is live |
//! | INC010 | serve request handlers only grow buffers under a bound |
//! | INC011 | tainted document text never reaches a diagnostic sink |
//! | INC012 | no nondeterminism source reachable from scoring entries |
//! | INC013 | error variants carrying String never built from raw text |
//! | INC014 | every `atomic_io` write/append is reachable from a failpoint sweep |
//! | INC016 | wire-decoded lengths/offsets bounded before `+`/`*`/narrowing `as` |
//!
//! INC008–INC010 are graph rules: pass 1 ([`items`], [`graph`]) parses
//! the item structure of every masked file ([`lexer`]) and builds an
//! approximate call graph with lock-site annotations; pass 2
//! ([`concurrency`]) walks that graph.
//! INC011–INC013 are dataflow rules: pass 3 ([`taint`]) runs an
//! interprocedural source→sanitizer→sink taint analysis and a purity
//! reachability check over the same graph (DESIGN.md §15). INC014 and
//! INC016 are invariant rules: pass 4 ([`invariants`]) walks the same
//! graph for unswept checkpoint writes and unchecked wire arithmetic
//! (DESIGN.md §19).
//!
//! The [`engine`] fans the per-file read-and-mask stage out on
//! `incite_core::parallel` with a deterministic sequential merge, so
//! findings are byte-identical at any thread count.
//!
//! `check` prints one rustc-style report to stderr
//! ([`engine::Report::render`]): each finding with its dataflow trace as
//! `= note:` lines, then a summary line. Each rule's contract, example
//! and fix are in DESIGN.md §14 (INC008–INC010), §15 (INC011–INC013) and
//! §19 (INC014, INC016).
//!
//! Any finding fails `check`. Suppress a single site with
//! `// incite-lint: allow(INC0xx)` on (or directly above) the line.
//!
//! The only dependency is `incite-core` — the linter runs on the exact
//! parallel executor it polices, and nothing else — so it still builds
//! early in environments with no registry access.

pub mod concurrency;
pub mod engine;
pub mod graph;
pub mod invariants;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod taint;
