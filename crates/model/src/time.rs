//! Timestamps.
//!
//! MoniLog operates on a merged multi-source stream ordered (approximately)
//! by time. We represent timestamps as milliseconds since the Unix epoch and
//! support the textual format the paper uses in Fig. 2:
//! `2020-03-19 15:38:55,977`.

use std::fmt;

/// Milliseconds since the Unix epoch.
///
/// Wrapped in a newtype so that stream components (mergers, window
/// assignment) cannot accidentally mix timestamps with other `u64` counters
/// such as sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp (epoch).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Build from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Milliseconds since epoch.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Saturating difference in milliseconds (`self - earlier`).
    pub fn millis_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Advance by `ms` milliseconds, saturating at `u64::MAX`.
    pub fn advanced(self, ms: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(ms))
    }

    /// Parse the paper's textual format `YYYY-MM-DD HH:MM:SS,mmm`.
    ///
    /// The date is interpreted as a proleptic-Gregorian UTC date. Returns
    /// `None` on any malformed field.
    pub fn parse_log_format(s: &str) -> Option<Timestamp> {
        // "2020-03-19 15:38:55,977"
        let bytes = s.as_bytes();
        if bytes.len() != 23 {
            return None;
        }
        let check = |idx: usize, ch: u8| bytes[idx] == ch;
        if !(check(4, b'-')
            && check(7, b'-')
            && check(10, b' ')
            && check(13, b':')
            && check(16, b':')
            && check(19, b','))
        {
            return None;
        }
        let num = |range: std::ops::Range<usize>| -> Option<u64> {
            let part = &s[range];
            if part.bytes().all(|b| b.is_ascii_digit()) {
                part.parse().ok()
            } else {
                None
            }
        };
        let year = num(0..4)?;
        let month = num(5..7)?;
        let day = num(8..10)?;
        let hour = num(11..13)?;
        let min = num(14..16)?;
        let sec = num(17..19)?;
        let milli = num(20..23)?;
        if !(1970..=9999).contains(&year)
            || !(1..=12).contains(&month)
            || day < 1
            || day > days_in_month(year, month)
            || hour > 23
            || min > 59
            || sec > 59
        {
            return None;
        }
        let days = days_from_epoch(year, month, day);
        let secs = days * 86_400 + hour * 3_600 + min * 60 + sec;
        Some(Timestamp(secs * 1_000 + milli))
    }

    /// Render in the paper's textual format `YYYY-MM-DD HH:MM:SS,mmm`.
    pub fn to_log_format(self) -> String {
        let ms = self.0 % 1_000;
        let total_secs = self.0 / 1_000;
        let secs = total_secs % 60;
        let mins = (total_secs / 60) % 60;
        let hours = (total_secs / 3_600) % 24;
        let mut days = total_secs / 86_400;
        let mut year = 1970u64;
        loop {
            let len = if is_leap(year) { 366 } else { 365 };
            if days < len {
                break;
            }
            days -= len;
            year += 1;
        }
        let mut month = 1u64;
        loop {
            let len = days_in_month(year, month);
            if days < len {
                break;
            }
            days -= len;
            month += 1;
        }
        format!(
            "{year:04}-{month:02}-{:02} {hours:02}:{mins:02}:{secs:02},{ms:03}",
            days + 1
        )
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_log_format())
    }
}

fn is_leap(year: u64) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

fn days_in_month(year: u64, month: u64) -> u64 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(year) => 29,
        2 => 28,
        _ => 0,
    }
}

fn days_from_epoch(year: u64, month: u64, day: u64) -> u64 {
    let mut days = 0u64;
    for y in 1970..year {
        days += if is_leap(y) { 366 } else { 365 };
    }
    for m in 1..month {
        days += days_in_month(year, m);
    }
    days + (day - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        // The exact timestamp from Fig. 2 of the paper.
        let ts = Timestamp::parse_log_format("2020-03-19 15:38:55,977").unwrap();
        assert_eq!(ts.to_log_format(), "2020-03-19 15:38:55,977");
    }

    #[test]
    fn epoch_round_trip() {
        assert_eq!(Timestamp::EPOCH.to_log_format(), "1970-01-01 00:00:00,000");
        assert_eq!(
            Timestamp::parse_log_format("1970-01-01 00:00:00,000"),
            Some(Timestamp::EPOCH)
        );
    }

    #[test]
    fn leap_day_round_trip() {
        let ts = Timestamp::parse_log_format("2020-02-29 23:59:59,999").unwrap();
        assert_eq!(ts.to_log_format(), "2020-02-29 23:59:59,999");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "2020-03-19T15:38:55,977", // wrong separator
            "2020-03-19 15:38:55.977", // dot millis
            "2020-13-19 15:38:55,977", // month 13
            "2020-02-30 15:38:55,977", // Feb 30
            "2021-02-29 15:38:55,977", // non-leap Feb 29
            "2020-03-19 24:38:55,977", // hour 24
            "2020-03-19 15:38:55,97",  // short millis
            "garbage",
            "",
        ] {
            assert_eq!(Timestamp::parse_log_format(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = Timestamp::from_millis(1_000);
        let b = a.advanced(500);
        assert!(b > a);
        assert_eq!(b.millis_since(a), 500);
        assert_eq!(a.millis_since(b), 0, "saturating");
    }

    #[test]
    fn display_matches_log_format() {
        let ts = Timestamp::from_millis(1_584_632_335_977);
        assert_eq!(format!("{ts}"), ts.to_log_format());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every representable millisecond value up to year ~9999 round-trips
        /// through format → parse.
        #[test]
        fn format_parse_round_trip(ms in 0u64..250_000_000_000_000u64) {
            let ts = Timestamp::from_millis(ms);
            let text = ts.to_log_format();
            prop_assert_eq!(Timestamp::parse_log_format(&text), Some(ts));
        }

        /// Formatting is strictly monotone: larger timestamps sort later as
        /// strings (the format is lexicographically ordered).
        #[test]
        fn format_is_lexicographically_monotone(a in 0u64..10_000_000_000_000u64,
                                                delta in 1u64..1_000_000u64) {
            let t1 = Timestamp::from_millis(a);
            let t2 = Timestamp::from_millis(a + delta);
            prop_assert!(t1.to_log_format() < t2.to_log_format());
        }
    }
}
