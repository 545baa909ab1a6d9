//! Fact-bearing entity extraction.
//!
//! The HR-handbook dataset of the paper turns on small factual atoms: clock
//! times ("9 AM to 5 PM"), weekday ranges ("Sunday to Saturday"), counts
//! ("three shopkeepers"), durations ("14 days of annual leave"), money and
//! percentages. Hallucinations in the *wrong* and *partial* responses are
//! precisely perturbations of these atoms, so the behavioral verifiers
//! compare extracted entities between a response sentence and its context.

use crate::token::{tokenize, Token};

/// Canonical weekday, Monday = 0 … Sunday = 6.
pub type Weekday = u8;

/// Unit for duration entities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DurationUnit {
    Minutes,
    Hours,
    Days,
    Weeks,
    Months,
    Years,
}

impl DurationUnit {
    /// Convert a value in this unit to minutes (months ≈ 30 days, years ≈ 365).
    pub fn to_minutes(self, value: f64) -> f64 {
        match self {
            DurationUnit::Minutes => value,
            DurationUnit::Hours => value * 60.0,
            DurationUnit::Days => value * 60.0 * 24.0,
            DurationUnit::Weeks => value * 60.0 * 24.0 * 7.0,
            DurationUnit::Months => value * 60.0 * 24.0 * 30.0,
            DurationUnit::Years => value * 60.0 * 24.0 * 365.0,
        }
    }
}

/// The typed payload of an extracted entity.
#[derive(Debug, Clone, PartialEq)]
pub enum EntityKind {
    /// Clock time as minutes past midnight.
    Time(u16),
    /// Inclusive clock-time range (start, end) in minutes past midnight.
    TimeRange(u16, u16),
    /// A single weekday.
    Weekday(Weekday),
    /// Inclusive weekday range (start, end), wrapping allowed ("Sat to Mon").
    WeekdayRange(Weekday, Weekday),
    /// A bare number (count, section number…).
    Number(f64),
    /// A duration with unit.
    Duration(f64, DurationUnit),
    /// A money amount (currency is normalized away; the datasets use one).
    Money(f64),
    /// A percentage value.
    Percent(f64),
    /// A calendar date within a year: (month 1-12, day 1-31).
    Date(u8, u8),
}

impl EntityKind {
    /// Do two entities of the same kind denote the same fact?
    pub fn matches(&self, other: &EntityKind) -> bool {
        const EPS: f64 = 1e-9;
        match (self, other) {
            (EntityKind::Time(a), EntityKind::Time(b)) => a == b,
            (EntityKind::TimeRange(a1, a2), EntityKind::TimeRange(b1, b2)) => a1 == b1 && a2 == b2,
            (EntityKind::Weekday(a), EntityKind::Weekday(b)) => a == b,
            (EntityKind::WeekdayRange(a1, a2), EntityKind::WeekdayRange(b1, b2)) => {
                expand_weekday_range(*a1, *a2) == expand_weekday_range(*b1, *b2)
            }
            (EntityKind::Number(a), EntityKind::Number(b)) => (a - b).abs() < EPS,
            (EntityKind::Duration(av, au), EntityKind::Duration(bv, bu)) => {
                (au.to_minutes(*av) - bu.to_minutes(*bv)).abs() < EPS
            }
            (EntityKind::Money(a), EntityKind::Money(b)) => (a - b).abs() < EPS,
            (EntityKind::Percent(a), EntityKind::Percent(b)) => (a - b).abs() < EPS,
            (EntityKind::Date(m1, d1), EntityKind::Date(m2, d2)) => m1 == m2 && d1 == d2,
            _ => false,
        }
    }

    /// Are the two entities comparable (same category of fact)?
    pub fn same_category(&self, other: &EntityKind) -> bool {
        use EntityKind::*;
        matches!(
            (self, other),
            (Time(_), Time(_))
                | (TimeRange(..), TimeRange(..))
                | (Weekday(_), Weekday(_))
                | (WeekdayRange(..), WeekdayRange(..))
                | (Number(_), Number(_))
                | (Duration(..), Duration(..))
                | (Money(_), Money(_))
                | (Percent(_), Percent(_))
                | (Date(..), Date(..))
        )
    }
}

/// An extracted entity with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    pub kind: EntityKind,
    /// Byte offset of the first token of the entity.
    pub start: usize,
    /// Byte offset one past the last token of the entity.
    pub end: usize,
}

/// Expand an inclusive weekday range into the set of days it covers,
/// wrapping across the week boundary when start > end.
pub fn expand_weekday_range(start: Weekday, end: Weekday) -> Vec<Weekday> {
    let mut days = Vec::new();
    let mut d = start % 7;
    loop {
        days.push(d);
        if d == end % 7 {
            break;
        }
        d = (d + 1) % 7;
    }
    days.sort_unstable();
    days
}

fn parse_weekday(word: &str) -> Option<Weekday> {
    let w = word.to_ascii_lowercase();
    let day = match w.as_str() {
        "monday" | "mon" | "mondays" => 0,
        "tuesday" | "tue" | "tues" | "tuesdays" => 1,
        "wednesday" | "wed" | "wednesdays" => 2,
        "thursday" | "thu" | "thur" | "thurs" | "thursdays" => 3,
        "friday" | "fri" | "fridays" => 4,
        "saturday" | "sat" | "saturdays" => 5,
        "sunday" | "sun" | "sundays" => 6,
        _ => return None,
    };
    Some(day)
}

/// Month name → 1-12.
fn parse_month(word: &str) -> Option<u8> {
    let m = match word.to_ascii_lowercase().as_str() {
        "january" | "jan" => 1,
        "february" | "feb" => 2,
        "march" => 3,
        "april" | "apr" => 4,
        "may" => 5,
        "june" | "jun" => 6,
        "july" | "jul" => 7,
        "august" | "aug" => 8,
        "september" | "sep" | "sept" => 9,
        "october" | "oct" => 10,
        "november" | "nov" => 11,
        "december" | "dec" => 12,
        _ => return None,
    };
    Some(m)
}

/// Ordinal day token ("25th", "1st", "2nd", "3rd") → day number.
fn parse_ordinal_day(text: &str) -> Option<u8> {
    let digits = text
        .strip_suffix("st")
        .or_else(|| text.strip_suffix("nd"))
        .or_else(|| text.strip_suffix("rd"))
        .or_else(|| text.strip_suffix("th"))?;
    let d: u8 = digits.parse().ok()?;
    (1..=31).contains(&d).then_some(d)
}

fn parse_number_word(word: &str) -> Option<f64> {
    let n = match word.to_ascii_lowercase().as_str() {
        "zero" => 0.0,
        "one" => 1.0,
        "two" => 2.0,
        "three" => 3.0,
        "four" => 4.0,
        "five" => 5.0,
        "six" => 6.0,
        "seven" => 7.0,
        "eight" => 8.0,
        "nine" => 9.0,
        "ten" => 10.0,
        "eleven" => 11.0,
        "twelve" => 12.0,
        "fifteen" => 15.0,
        "twenty" => 20.0,
        "thirty" => 30.0,
        _ => return None,
    };
    Some(n)
}

fn parse_numeric(text: &str) -> Option<f64> {
    let cleaned: String = text.chars().filter(|c| *c != ',').collect();
    cleaned.parse::<f64>().ok()
}

/// Magnitude multiplier words ("500 thousand", "2 million", "500 k").
fn parse_magnitude(word: &str) -> Option<f64> {
    match word.to_ascii_lowercase().as_str() {
        "hundred" => Some(100.0),
        "thousand" | "k" => Some(1_000.0),
        "million" => Some(1_000_000.0),
        "billion" => Some(1_000_000_000.0),
        _ => None,
    }
}

fn parse_duration_unit(word: &str) -> Option<DurationUnit> {
    let u = match word.to_ascii_lowercase().as_str() {
        "minute" | "minutes" | "min" | "mins" => DurationUnit::Minutes,
        "hour" | "hours" | "hr" | "hrs" => DurationUnit::Hours,
        "day" | "days" => DurationUnit::Days,
        "week" | "weeks" => DurationUnit::Weeks,
        "month" | "months" => DurationUnit::Months,
        "year" | "years" => DurationUnit::Years,
        _ => return None,
    };
    Some(u)
}

/// Is `word` an AM marker ("am", "a.m")? The tokenizer strips the final dot.
fn is_am(word: &str) -> bool {
    matches!(word.to_ascii_lowercase().as_str(), "am" | "a.m" | "a.m.")
}

fn is_pm(word: &str) -> bool {
    matches!(word.to_ascii_lowercase().as_str(), "pm" | "p.m" | "p.m.")
}

fn is_range_connector(word: &str) -> bool {
    matches!(
        word.to_ascii_lowercase().as_str(),
        "to" | "through" | "until" | "till" | "-" | "–"
    )
}

/// Parse a token like "9", "9.30" or "17:30" into minutes past midnight,
/// honouring an optional AM/PM marker that follows.
fn time_minutes(tok: &str, meridiem: Option<bool /* pm */>) -> Option<u16> {
    let (h, m): (u16, u16) = if let Some((hh, mm)) = tok.split_once(':') {
        (hh.parse().ok()?, mm.parse().ok()?)
    } else if let Some((hh, mm)) = tok.split_once('.') {
        (hh.parse().ok()?, mm.parse().ok()?)
    } else {
        (tok.parse().ok()?, 0)
    };
    if h > 23 || m > 59 {
        return None;
    }
    let h24 = match meridiem {
        Some(true) if h < 12 => h + 12, // PM
        Some(false) if h == 12 => 0,    // 12 AM
        _ => h,
    };
    Some(h24 * 60 + m)
}

struct Cursor<'a> {
    toks: Vec<Token<'a>>,
    i: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self, offset: usize) -> Option<&Token<'a>> {
        self.toks.get(self.i + offset)
    }
}

/// Extract all entities from `text`, left to right, longest match first.
///
/// ```
/// use text_engine::entities::{extract_entities, EntityKind};
/// let ents = extract_entities("The store operates from 9 AM to 5 PM, Sunday to Saturday.");
/// assert!(ents.iter().any(|e| matches!(e.kind, EntityKind::TimeRange(540, 1020))));
/// assert!(ents.iter().any(|e| matches!(e.kind, EntityKind::WeekdayRange(6, 5))));
/// ```
pub fn extract_entities(text: &str) -> Vec<Entity> {
    let mut cur = Cursor {
        toks: tokenize(text),
        i: 0,
    };
    let mut out = Vec::new();
    while cur.i < cur.toks.len() {
        if let Some((ent, advance)) = match_at(&cur) {
            out.push(ent);
            cur.i += advance;
        } else {
            cur.i += 1;
        }
    }
    out
}

/// Try every pattern at the cursor; return the entity and how many tokens it consumed.
fn match_at(cur: &Cursor<'_>) -> Option<(Entity, usize)> {
    let t0 = cur.peek(0)?;

    // Collective day words: "weekends" = Sat–Sun, "weekdays" = Mon–Fri.
    match t0.text.to_ascii_lowercase().as_str() {
        "weekend" | "weekends" => {
            return Some((
                Entity {
                    kind: EntityKind::WeekdayRange(5, 6),
                    start: t0.start,
                    end: t0.end,
                },
                1,
            ));
        }
        "weekday" | "weekdays" => {
            return Some((
                Entity {
                    kind: EntityKind::WeekdayRange(0, 4),
                    start: t0.start,
                    end: t0.end,
                },
                1,
            ));
        }
        _ => {}
    }

    // Month-led dates: "June 25", "June 25th". Lowercase "may" is almost
    // always the modal verb, so the month reading requires capitalization.
    let month_of = |text: &str| {
        if text.eq_ignore_ascii_case("may") && !text.starts_with('M') {
            None
        } else {
            parse_month(text)
        }
    };
    if let Some(month) = month_of(t0.text) {
        if let Some(t1) = cur.peek(1) {
            let day = t1
                .text
                .parse::<u8>()
                .ok()
                .filter(|d| (1..=31).contains(d))
                .or_else(|| parse_ordinal_day(t1.text));
            if let Some(day) = day {
                return Some((
                    Entity {
                        kind: EntityKind::Date(month, day),
                        start: t0.start,
                        end: t1.end,
                    },
                    2,
                ));
            }
        }
    }

    // Day-led dates: "25th of June", "25 June".
    if let Some(day) = parse_ordinal_day(t0.text) {
        let (month_tok, consumed) = match (cur.peek(1), cur.peek(2)) {
            (Some(of), Some(m)) if of.text.eq_ignore_ascii_case("of") => (Some(m), 3),
            (Some(m), _) => (Some(m), 2),
            _ => (None, 0),
        };
        if let Some(m) = month_tok {
            if let Some(month) = month_of(m.text) {
                return Some((
                    Entity {
                        kind: EntityKind::Date(month, day),
                        start: t0.start,
                        end: m.end,
                    },
                    consumed,
                ));
            }
        }
    }

    // Weekday or weekday range.
    if let Some(d1) = parse_weekday(t0.text) {
        if let (Some(conn), Some(t2)) = (cur.peek(1), cur.peek(2)) {
            if is_range_connector(conn.text) {
                if let Some(d2) = parse_weekday(t2.text) {
                    return Some((
                        Entity {
                            kind: EntityKind::WeekdayRange(d1, d2),
                            start: t0.start,
                            end: t2.end,
                        },
                        3,
                    ));
                }
            }
        }
        return Some((
            Entity {
                kind: EntityKind::Weekday(d1),
                start: t0.start,
                end: t0.end,
            },
            1,
        ));
    }

    // Money: "$ 1200", "HK $ 12,000".
    if t0.text == "$" {
        if let Some(t1) = cur.peek(1) {
            if let Some(v) = parse_numeric(t1.text) {
                return Some((
                    Entity {
                        kind: EntityKind::Money(v),
                        start: t0.start,
                        end: t1.end,
                    },
                    2,
                ));
            }
        }
    }

    // Numeric-led patterns. Colon forms ("17:30") are times, not numbers.
    let value = parse_numeric(t0.text).or_else(|| parse_number_word(t0.text));
    let colon_time = t0.text.contains(':') && numericish(t0.text).is_some();
    if value.is_none() && !colon_time {
        return None;
    }

    // Time with meridiem, possibly a range: "9 AM to 5 PM", "9 to 5 PM", "17:30".
    if let Some((time_ent, consumed)) = match_time(cur, t0) {
        return Some((time_ent, consumed));
    }

    let value = value?;

    // Percent: "15 %", "15 percent".
    if let Some(t1) = cur.peek(1) {
        let p = t1.text.to_ascii_lowercase();
        if p == "%" || p == "percent" {
            return Some((
                Entity {
                    kind: EntityKind::Percent(value),
                    start: t0.start,
                    end: t1.end,
                },
                2,
            ));
        }
    }

    // Numeric-led date: "25 June", "25th of June" (the tokenizer splits
    // "25th" into "25" + "th", so the ordinal suffix is its own token).
    if (1.0..=31.0).contains(&value) && value.fract() == 0.0 {
        let mut i = 1;
        if cur.peek(i).is_some_and(|t| {
            matches!(
                t.text.to_ascii_lowercase().as_str(),
                "st" | "nd" | "rd" | "th"
            )
        }) {
            i += 1;
        }
        if cur
            .peek(i)
            .is_some_and(|t| t.text.eq_ignore_ascii_case("of"))
        {
            i += 1;
        }
        if let Some(m) = cur.peek(i) {
            if let Some(month) = parse_month(m.text) {
                // lowercase "may" reads as the modal verb, not the month
                if !m.text.eq_ignore_ascii_case("may") || m.text.starts_with('M') {
                    return Some((
                        Entity {
                            kind: EntityKind::Date(month, value as u8),
                            start: t0.start,
                            end: m.end,
                        },
                        i + 1,
                    ));
                }
            }
        }
    }

    // Duration: "14 days", "three months".
    if let Some(t1) = cur.peek(1) {
        if let Some(unit) = parse_duration_unit(t1.text) {
            return Some((
                Entity {
                    kind: EntityKind::Duration(value, unit),
                    start: t0.start,
                    end: t1.end,
                },
                2,
            ));
        }
        // Magnitude words: "500 thousand", "2 million", "500k".
        if let Some(mult) = parse_magnitude(t1.text) {
            return Some((
                Entity {
                    kind: EntityKind::Number(value * mult),
                    start: t0.start,
                    end: t1.end,
                },
                2,
            ));
        }
    }

    // Bare number.
    Some((
        Entity {
            kind: EntityKind::Number(value),
            start: t0.start,
            end: t0.end,
        },
        1,
    ))
}

/// Match time and time-range patterns starting at a numeric token.
fn match_time(cur: &Cursor<'_>, t0: &Token<'_>) -> Option<(Entity, usize)> {
    // 24-hour colon form never needs a meridiem.
    let colon0 = t0.text.contains(':');

    let t1 = cur.peek(1);
    let meridiem0 = t1.and_then(|t| meridiem_of(t.text));

    // Case A: "<time> <am/pm> to <time> <am/pm>" (second meridiem optional).
    if let Some(m0) = meridiem0 {
        let start_min = time_minutes(t0.text, Some(m0))?;
        if let (Some(conn), Some(t3)) = (cur.peek(2), cur.peek(3)) {
            if is_range_connector(conn.text) {
                if let Some(end_val) = numericish(t3.text) {
                    let m1 = cur.peek(4).and_then(|t| meridiem_of(t.text));
                    let end_min = time_minutes(&end_val, m1.or(Some(m0)))?;
                    let (end_tok, consumed) = if m1.is_some() {
                        (cur.peek(4)?, 5)
                    } else {
                        (t3, 4)
                    };
                    return Some((
                        Entity {
                            kind: EntityKind::TimeRange(start_min, end_min),
                            start: t0.start,
                            end: end_tok.end,
                        },
                        consumed,
                    ));
                }
            }
        }
        let end_tok = t1?;
        return Some((
            Entity {
                kind: EntityKind::Time(start_min),
                start: t0.start,
                end: end_tok.end,
            },
            2,
        ));
    }

    // Case B: "9 to 5 PM" — meridiem only on the end time.
    if let (Some(conn), Some(t2)) = (cur.peek(1), cur.peek(2)) {
        if is_range_connector(conn.text) {
            if let Some(end_val) = numericish(t2.text) {
                if let Some(m) = cur.peek(3).and_then(|t| meridiem_of(t.text)) {
                    // Infer start meridiem: 9 to 5 PM means 9 AM unless start > end.
                    let end_min = time_minutes(&end_val, Some(m))?;
                    let naive = time_minutes(t0.text, None)?;
                    let start_min = if naive < end_min {
                        naive
                    } else {
                        time_minutes(t0.text, Some(!m))?
                    };
                    return Some((
                        Entity {
                            kind: EntityKind::TimeRange(start_min, end_min),
                            start: t0.start,
                            end: cur.peek(3)?.end,
                        },
                        4,
                    ));
                }
                // "17:30 to 21:00" — colon forms both sides.
                if colon0 && end_val.contains(':') {
                    let start_min = time_minutes(t0.text, None)?;
                    let end_min = time_minutes(&end_val, None)?;
                    return Some((
                        Entity {
                            kind: EntityKind::TimeRange(start_min, end_min),
                            start: t0.start,
                            end: t2.end,
                        },
                        3,
                    ));
                }
            }
        }
    }

    // Case C: lone colon time "17:30".
    if colon0 {
        let min = time_minutes(t0.text, None)?;
        return Some((
            Entity {
                kind: EntityKind::Time(min),
                start: t0.start,
                end: t0.end,
            },
            1,
        ));
    }

    None
}

fn meridiem_of(word: &str) -> Option<bool> {
    if is_pm(word) {
        Some(true)
    } else if is_am(word) {
        Some(false)
    } else {
        None
    }
}

/// Accept numeric-looking tokens (digits, colon or dot forms) for time parsing.
fn numericish(text: &str) -> Option<String> {
    if text
        .chars()
        .all(|c| c.is_ascii_digit() || c == ':' || c == '.')
        && text.chars().any(|c| c.is_ascii_digit())
    {
        Some(text.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<EntityKind> {
        extract_entities(text).into_iter().map(|e| e.kind).collect()
    }

    #[test]
    fn paper_context_sentence() {
        let ents = kinds("The store operates from 9 AM to 5 PM, from Sunday to Saturday.");
        assert!(ents.contains(&EntityKind::TimeRange(9 * 60, 17 * 60)));
        assert!(ents.contains(&EntityKind::WeekdayRange(6, 5)));
    }

    #[test]
    fn wrong_response_differs() {
        let good = kinds("The working hours are 9 AM to 5 PM.");
        let bad = kinds("The working hours are 9 AM to 9 PM.");
        assert_ne!(good, bad);
        assert!(matches!(bad[0], EntityKind::TimeRange(540, 1260)));
    }

    #[test]
    fn single_time_with_meridiem() {
        assert_eq!(kinds("at 5 PM"), [EntityKind::Time(17 * 60)]);
        assert_eq!(kinds("by 9 am"), [EntityKind::Time(9 * 60)]);
    }

    #[test]
    fn dotted_meridiem() {
        // tokenizer yields "a.m" with trailing dot split off
        assert_eq!(kinds("at 9 a.m. sharp")[0], EntityKind::Time(9 * 60));
    }

    #[test]
    fn twelve_edge_cases() {
        assert_eq!(kinds("12 AM")[0], EntityKind::Time(0));
        assert_eq!(kinds("12 PM")[0], EntityKind::Time(12 * 60));
    }

    #[test]
    fn colon_times() {
        assert_eq!(kinds("17:30")[0], EntityKind::Time(17 * 60 + 30));
        assert_eq!(kinds("09:00 to 17:30")[0], EntityKind::TimeRange(540, 1050));
    }

    #[test]
    fn half_hour_dot_form() {
        assert_eq!(kinds("9.30 am")[0], EntityKind::Time(9 * 60 + 30));
    }

    #[test]
    fn inferred_start_meridiem() {
        assert_eq!(kinds("9 to 5 PM")[0], EntityKind::TimeRange(540, 1020));
        // start would exceed end as AM → flip to PM… 10 PM to 2 AM style
        assert_eq!(
            kinds("10 to 2 AM")[0],
            EntityKind::TimeRange(22 * 60, 2 * 60)
        );
    }

    #[test]
    fn weekday_singleton_and_plural() {
        assert_eq!(kinds("on Monday")[0], EntityKind::Weekday(0));
        assert_eq!(kinds("on Sundays")[0], EntityKind::Weekday(6));
    }

    #[test]
    fn weekday_range_wraps() {
        assert_eq!(expand_weekday_range(5, 0), vec![0, 5, 6]); // Sat..Mon
        assert_eq!(expand_weekday_range(0, 4), vec![0, 1, 2, 3, 4]);
        assert_eq!(expand_weekday_range(3, 3), vec![3]);
    }

    #[test]
    fn weekday_range_equivalence() {
        // Sunday..Saturday covers all 7 days, same as Monday..Sunday.
        let a = EntityKind::WeekdayRange(6, 5);
        let b = EntityKind::WeekdayRange(0, 6);
        assert!(a.matches(&b));
        let c = EntityKind::WeekdayRange(0, 4); // Mon..Fri
        assert!(!a.matches(&c));
    }

    #[test]
    fn durations() {
        assert_eq!(
            kinds("14 days of leave")[0],
            EntityKind::Duration(14.0, DurationUnit::Days)
        );
        assert_eq!(
            kinds("three months")[0],
            EntityKind::Duration(3.0, DurationUnit::Months)
        );
        assert_eq!(
            kinds("1.5 hours")[0],
            EntityKind::Duration(1.5, DurationUnit::Hours)
        );
    }

    #[test]
    fn duration_unit_conversion_equates() {
        let a = EntityKind::Duration(2.0, DurationUnit::Weeks);
        let b = EntityKind::Duration(14.0, DurationUnit::Days);
        assert!(a.matches(&b));
    }

    #[test]
    fn weekend_and_weekday_words() {
        assert_eq!(
            kinds("closed on weekends")[0],
            EntityKind::WeekdayRange(5, 6)
        );
        assert_eq!(kinds("open on weekdays")[0], EntityKind::WeekdayRange(0, 4));
        // "weekdays" is equivalent to the explicit Monday-to-Friday range
        assert!(EntityKind::WeekdayRange(0, 4).matches(&kinds("Monday to Friday")[0]));
    }

    #[test]
    fn number_words() {
        assert_eq!(kinds("three shopkeepers")[0], EntityKind::Number(3.0));
    }

    #[test]
    fn money_and_percent() {
        assert_eq!(kinds("a bonus of $1,200")[0], EntityKind::Money(1200.0));
        assert_eq!(kinds("15% discount")[0], EntityKind::Percent(15.0));
        assert_eq!(kinds("15 percent discount")[0], EntityKind::Percent(15.0));
    }

    #[test]
    fn bare_numbers() {
        assert_eq!(kinds("section 7")[0], EntityKind::Number(7.0));
    }

    #[test]
    fn magnitude_words_multiply() {
        assert_eq!(
            kinds("over 500 thousand residents")[0],
            EntityKind::Number(500_000.0)
        );
        assert_eq!(kinds("2 million users")[0], EntityKind::Number(2_000_000.0));
        // tokenizer splits "500k" into "500" + "k"
        assert_eq!(
            kinds("a population of 500k")[0],
            EntityKind::Number(500_000.0)
        );
        // a small population does NOT match the large one
        assert!(!kinds("500 residents")[0].matches(&EntityKind::Number(500_000.0)));
    }

    #[test]
    fn dates_month_led_and_day_led() {
        assert_eq!(kinds("review on June 25")[0], EntityKind::Date(6, 25));
        assert_eq!(kinds("due by the 25th of June")[0], EntityKind::Date(6, 25));
        assert_eq!(kinds("paid on 25 June")[0], EntityKind::Date(6, 25));
        assert_eq!(kinds("March 3rd deadline")[0], EntityKind::Date(3, 3));
    }

    #[test]
    fn date_mismatch_detected() {
        let a = &kinds("June 25")[0];
        assert!(a.matches(&EntityKind::Date(6, 25)));
        assert!(!a.matches(&EntityKind::Date(6, 26)));
        assert!(!a.matches(&EntityKind::Date(7, 25)));
        assert!(a.same_category(&EntityKind::Date(1, 1)));
    }

    #[test]
    fn ordinal_without_month_is_not_a_date() {
        // "the 25th floor" — ordinal with no month context stays un-extracted
        // as a date (no false Date entity)
        let ents = kinds("meet on the 25th floor");
        assert!(
            ents.iter().all(|e| !matches!(e, EntityKind::Date(..))),
            "{ents:?}"
        );
    }

    #[test]
    fn month_abbreviations() {
        assert_eq!(kinds("starting Sep 1")[0], EntityKind::Date(9, 1));
    }

    #[test]
    fn category_comparison() {
        assert!(EntityKind::Time(0).same_category(&EntityKind::Time(60)));
        assert!(!EntityKind::Time(0).same_category(&EntityKind::Number(0.0)));
    }

    #[test]
    fn no_entities_in_plain_prose() {
        assert!(kinds("the policy applies to everyone").is_empty());
    }

    #[test]
    fn spans_cover_source() {
        let src = "open 9 AM to 5 PM on Monday";
        for e in extract_entities(src) {
            assert!(e.start < e.end && e.end <= src.len());
        }
    }

    proptest::proptest! {
        #[test]
        fn extraction_never_panics(s in "(\\PC|[a-zA-Z0-9 :.%$,!?-]){0,100}") {
            let _ = extract_entities(&s);
        }

        #[test]
        fn expand_range_always_nonempty(a in 0u8..7, b in 0u8..7) {
            let days = expand_weekday_range(a, b);
            proptest::prop_assert!(!days.is_empty());
            proptest::prop_assert!(days.len() <= 7);
            proptest::prop_assert!(days.contains(&a) && days.contains(&b));
        }
    }
}
