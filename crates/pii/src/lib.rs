//! # incite-pii
//!
//! The PII-extraction layer of §5.6: twelve regular expressions (built on
//! the from-scratch [`incite_regex`] engine) that pull addresses, card
//! numbers, emails, social-media profiles, phone numbers and SSNs out of
//! documents, plus the pronoun-based target-gender inference and the
//! PII → harm-risk mapping of §7.2.
//!
//! Design notes mirroring the paper:
//! * US-format phone numbers, addresses and SSNs only ("we chose to detect
//!   only U.S. phone numbers, addresses and SSNs … to optimize for
//!   precision").
//! * One expression per card network, each Luhn-validated.
//! * Two expression families per social platform: profile URLs (with
//!   reserved-word stoplists for site functionality paths) and
//!   `site: handle` shorthand.
//!
//! Modules: [`extract`] (the extractor), [`luhn`], [`gender`],
//! [`harm`] (risk assignment), [`eval`] (the §5.6 accuracy harness).

// INC001 (DESIGN.md §10): library code returns typed errors, never panics.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]

pub mod eval;
pub mod extract;
pub mod gender;
pub mod harm;
pub mod luhn;
pub mod redact;

pub use extract::{PiiError, PiiExtractor, PiiMatch};
pub use gender::infer_gender;
pub use harm::assign_risks;
pub use redact::redact;
