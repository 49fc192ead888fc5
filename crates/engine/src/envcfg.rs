//! Validated environment-variable parsing with warning fallback.
//!
//! Every `BINDEX_*` tuning knob follows the same contract: an unset
//! variable silently uses the built-in default, a well-formed value is
//! applied, and a malformed value (junk, zero where a positive number is
//! required, overflow) prints one warning to stderr and falls back to the
//! default — a typo in a job script must never abort a workload or,
//! worse, be silently ignored. [`parse_env`] is that contract in one
//! place; `BatchOptions::from_env` (`BINDEX_THREADS`) and the server's
//! `ServerConfig::from_env` (`BINDEX_QUEUE_DEPTH`, `BINDEX_DEADLINE_MS`)
//! route through it.

/// Reads `var` and validates it with `parse`. Returns `None` when the
/// variable is unset (caller uses its default, silently) **or** set to
/// something `parse` rejects (caller uses its default, after a warning to
/// stderr naming the variable, the offending value, and `expected`).
pub fn parse_env<T>(var: &str, expected: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    let parsed = parse(&raw);
    if parsed.is_none() {
        eprintln!("warning: ignoring {var}={raw:?} (expected {expected}); using the default");
    }
    parsed
}

/// Parses a positive (`>= 1`) integer; rejects junk, zero, negatives, and
/// values that overflow the target width.
pub fn positive_usize(raw: &str) -> Option<usize> {
    let n = raw.trim().parse::<usize>().ok()?;
    (n >= 1).then_some(n)
}

/// Parses a positive (`>= 1`) 64-bit integer; rejects junk, zero,
/// negatives, and overflow.
pub fn positive_u64(raw: &str) -> Option<u64> {
    let n = raw.trim().parse::<u64>().ok()?;
    (n >= 1).then_some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_usize_accepts_and_rejects() {
        assert_eq!(positive_usize("1"), Some(1));
        assert_eq!(positive_usize(" 64 "), Some(64));
        // Zero, negative, junk, empty, fractional, overflow.
        assert_eq!(positive_usize("0"), None);
        assert_eq!(positive_usize("-3"), None);
        assert_eq!(positive_usize("banana"), None);
        assert_eq!(positive_usize(""), None);
        assert_eq!(positive_usize("2.5"), None);
        assert_eq!(positive_usize("99999999999999999999999999"), None);
    }

    #[test]
    fn positive_u64_accepts_and_rejects() {
        assert_eq!(positive_u64("250"), Some(250));
        assert_eq!(positive_u64(&u64::MAX.to_string()), Some(u64::MAX));
        assert_eq!(positive_u64("0"), None);
        assert_eq!(positive_u64("18446744073709551616"), None); // 2^64
        assert_eq!(positive_u64("ten"), None);
    }

    /// One test covers all env interactions so parallel test threads never
    /// race on the process environment; each case uses its own variable.
    #[test]
    fn parse_env_unset_set_and_malformed() {
        assert_eq!(
            parse_env("BINDEX_ENVCFG_TEST_UNSET", "anything", positive_usize),
            None
        );
        std::env::set_var("BINDEX_ENVCFG_TEST_OK", "12");
        assert_eq!(
            parse_env(
                "BINDEX_ENVCFG_TEST_OK",
                "a positive integer",
                positive_usize
            ),
            Some(12)
        );
        for bad in ["0", "nope", "-1", "1e9"] {
            std::env::set_var("BINDEX_ENVCFG_TEST_BAD", bad);
            assert_eq!(
                parse_env(
                    "BINDEX_ENVCFG_TEST_BAD",
                    "a positive integer",
                    positive_usize
                ),
                None,
                "{bad:?} must fall back"
            );
        }
        std::env::remove_var("BINDEX_ENVCFG_TEST_OK");
        std::env::remove_var("BINDEX_ENVCFG_TEST_BAD");
    }
}
