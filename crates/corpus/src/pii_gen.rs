//! Synthetic-PII factory.
//!
//! Every identifier this module emits is structurally valid enough to
//! exercise the §5.6 extractors but **cannot belong to a real person**:
//!
//! * phone numbers use the reserved 555-01XX fictional exchange;
//! * SSNs use the invalid 000 area number;
//! * card numbers use documented test IINs (and do pass Luhn, as real
//!   extractors check it);
//! * addresses combine fictional street names with out-of-range house
//!   numbers; emails live under `example.com`/`example.net` (RFC 2606).

use incite_taxonomy::PiiKind;
use rand::rngs::StdRng;
use rand::Rng;

const FIRST_NAMES: &[&str] = &[
    "alex", "jordan", "casey", "riley", "morgan", "avery", "quinn", "dakota", "reese", "emerson",
    "rowan", "sage", "tatum", "finley", "skyler", "harper", "ellis", "marlow",
];

const LAST_NAMES: &[&str] = &[
    "harrington",
    "vexley",
    "morrowind",
    "ashcombe",
    "delacroix",
    "fennimore",
    "graywell",
    "holloway",
    "ironwood",
    "juniper",
    "kestrel",
    "lockridge",
    "mervane",
    "northgate",
    "osmond",
    "pellworth",
    "quillfeather",
    "ravenscroft",
];

const STREETS: &[&str] = &[
    "Maplewood Ave",
    "Hollow Creek Rd",
    "Birchfield Ln",
    "Ember Hollow Dr",
    "Quarry Gate St",
    "Fox Run Blvd",
    "Willow Bend Ct",
    "Stonebridge Way",
    "Cinder Path Rd",
    "Larkspur Ave",
];

const CITIES: &[&str] = &[
    "Springfield",
    "Rivertown",
    "Lakeside",
    "Fairview",
    "Cedar Falls",
    "Milltown",
    "Brookhaven",
    "Ashford",
    "Graniteville",
    "Northfield",
];

const STATES: &[&str] = &["NY", "CA", "TX", "OH", "WA", "IL", "FL", "PA", "MI", "GA"];

/// Test-only card IIN prefixes (issuer, prefix, length).
const CARD_PREFIXES: &[(&str, &str, usize)] = &[
    ("visa", "4111", 16),
    ("mastercard", "5555", 16),
    ("amex", "3782", 15),
    ("discover", "6011", 16),
];

/// A generated synthetic identity with all PII fields.
#[derive(Debug, Clone)]
pub struct Identity {
    pub first_name: String,
    pub last_name: String,
    pub address: String,
    pub phone: String,
    pub ssn: String,
    pub email: String,
    pub card: String,
    pub facebook: String,
    pub instagram: String,
    pub twitter: String,
    pub youtube: String,
}

impl Identity {
    /// The identity's handle base (used to link repeated doxes).
    pub fn handle(&self) -> String {
        format!("{}_{}", self.first_name, self.last_name)
    }

    /// The PII string for a kind, in the format the extractors expect.
    pub fn pii_text(&self, kind: PiiKind, variant: usize) -> String {
        match kind {
            PiiKind::Address => self.address.clone(),
            PiiKind::CreditCard => self.card.clone(),
            PiiKind::Email => self.email.clone(),
            PiiKind::Phone => self.phone.clone(),
            PiiKind::Ssn => self.ssn.clone(),
            PiiKind::Facebook => {
                if variant.is_multiple_of(2) {
                    format!("https://facebook.com/{}", self.facebook)
                } else {
                    format!("fb: {}", self.facebook)
                }
            }
            PiiKind::Instagram => {
                if variant.is_multiple_of(2) {
                    format!("https://instagram.com/{}", self.instagram)
                } else {
                    format!("instagram: {}", self.instagram)
                }
            }
            PiiKind::Twitter => {
                if variant.is_multiple_of(2) {
                    format!("https://twitter.com/{}", self.twitter)
                } else {
                    format!("twitter: @{}", self.twitter)
                }
            }
            PiiKind::YouTube => {
                if variant.is_multiple_of(2) {
                    format!("https://youtube.com/channel/UC{}", self.youtube)
                } else {
                    format!("youtube: {}", self.youtube)
                }
            }
        }
    }
}

/// Computes the Luhn check digit for a digit string.
fn luhn_check_digit(digits: &str) -> u8 {
    let mut sum = 0u32;
    // Rightmost payload digit gets doubled (check digit will sit after it).
    for (i, ch) in digits.chars().rev().enumerate() {
        let mut d = ch.to_digit(10).unwrap_or(0);
        if i % 2 == 0 {
            d *= 2;
            if d > 9 {
                d -= 9;
            }
        }
        sum += d;
    }
    ((10 - (sum % 10)) % 10) as u8
}

/// Generates a fresh synthetic identity.
pub fn identity(rng: &mut StdRng) -> Identity {
    let first = FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())].to_string();
    let last = LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())].to_string();
    let tag: u32 = rng.gen_range(10..9999);

    let street_no = rng.gen_range(10000..99999); // implausibly large house numbers
    let street = STREETS[rng.gen_range(0..STREETS.len())];
    let city = CITIES[rng.gen_range(0..CITIES.len())];
    let state = STATES[rng.gen_range(0..STATES.len())];
    let zip = rng.gen_range(10000..99999);
    let address = format!("{street_no} {street}, {city}, {state} {zip:05}");

    let phone = format!(
        "({:03}) 555-01{:02}",
        rng.gen_range(200..990),
        rng.gen_range(0..100)
    );
    let ssn = format!(
        "000-{:02}-{:04}",
        rng.gen_range(10..99),
        rng.gen_range(1..9999)
    );
    let email = format!(
        "{first}.{last}{tag}@example.{}",
        if rng.gen_bool(0.5) { "com" } else { "net" }
    );

    let (_, prefix, len) = CARD_PREFIXES[rng.gen_range(0..CARD_PREFIXES.len())];
    let mut card_payload = prefix.to_string();
    while card_payload.len() < len - 1 {
        card_payload.push(char::from(b'0' + rng.gen_range(0..10u8)));
    }
    let card = format!("{card_payload}{}", luhn_check_digit(&card_payload));

    Identity {
        address,
        phone,
        ssn,
        email,
        card,
        facebook: format!("{first}.{last}.{tag}"),
        instagram: format!("{first}_{last}_{tag}"),
        twitter: format!("{first}{last}{tag}"),
        youtube: format!("{first}{last}ch{tag}"),
        first_name: first,
        last_name: last,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Validates a full number against Luhn.
    fn luhn_valid(number: &str) -> bool {
        let digits: String = number.chars().filter(|c| c.is_ascii_digit()).collect();
        if digits.len() < 2 {
            return false;
        }
        let (payload, check) = digits.split_at(digits.len() - 1);
        luhn_check_digit(payload) == check.chars().next().unwrap().to_digit(10).unwrap() as u8
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn phones_use_fictional_exchange() {
        let mut r = rng();
        for _ in 0..50 {
            let id = identity(&mut r);
            assert!(id.phone.contains("555-01"), "{}", id.phone);
        }
    }

    #[test]
    fn ssns_use_invalid_area() {
        let mut r = rng();
        for _ in 0..50 {
            let id = identity(&mut r);
            assert!(id.ssn.starts_with("000-"), "{}", id.ssn);
        }
    }

    #[test]
    fn emails_use_reserved_domains() {
        let mut r = rng();
        for _ in 0..50 {
            let id = identity(&mut r);
            assert!(
                id.email.ends_with("@example.com") || id.email.ends_with("@example.net"),
                "{}",
                id.email
            );
        }
    }

    #[test]
    fn cards_pass_luhn_with_test_iins() {
        let mut r = rng();
        for _ in 0..50 {
            let id = identity(&mut r);
            assert!(luhn_valid(&id.card), "{}", id.card);
            assert!(
                ["4111", "5555", "3782", "6011"]
                    .iter()
                    .any(|p| id.card.starts_with(p)),
                "{}",
                id.card
            );
        }
    }

    #[test]
    fn luhn_reference_values() {
        assert!(luhn_valid("4111111111111111")); // classic Visa test number
        assert!(!luhn_valid("4111111111111112"));
        assert!(luhn_valid("378282246310005")); // Amex test number
        assert_eq!(luhn_check_digit("411111111111111"), 1);
        assert!(!luhn_valid("4"));
    }

    #[test]
    fn pii_text_variants_differ() {
        let mut r = rng();
        let id = identity(&mut r);
        let url = id.pii_text(PiiKind::Twitter, 0);
        let inline = id.pii_text(PiiKind::Twitter, 1);
        assert!(url.starts_with("https://twitter.com/"));
        assert!(inline.starts_with("twitter: @"));
    }

    #[test]
    fn identity_is_deterministic_per_seed() {
        let a = identity(&mut StdRng::seed_from_u64(5));
        let b = identity(&mut StdRng::seed_from_u64(5));
        assert_eq!(a.email, b.email);
        assert_eq!(a.card, b.card);
    }

    #[test]
    fn handles_link_identities() {
        let mut r = rng();
        let id = identity(&mut r);
        assert_eq!(id.handle(), format!("{}_{}", id.first_name, id.last_name));
    }
}
