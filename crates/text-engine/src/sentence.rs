//! Sentence segmentation — the paper's **Splitter** component (§IV-A).
//!
//! The paper uses spaCy to divide an LLM response `r_i` into sub-responses
//! `r_{i,j}`, one per sentence, so that a response mixing correct and
//! hallucinated facts can be checked sentence by sentence. This module is the
//! spaCy substitute: a rule-based segmenter tuned for the kind of prose LLMs
//! produce — abbreviations, initials, decimals, clock times, ellipses,
//! sentence-final quotes and parentheses, and newline-separated list items.

use std::collections::HashSet;
use std::sync::OnceLock;

/// A sentence with its byte span in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence<'a> {
    /// The sentence text, trimmed of surrounding whitespace.
    pub text: &'a str,
    /// Byte offset of the first byte of the trimmed sentence.
    pub start: usize,
    /// Byte offset one past the last byte of the trimmed sentence.
    pub end: usize,
}

/// Abbreviations whose trailing period does not end a sentence.
fn abbreviations() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| {
        [
            "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc", "e.g", "i.e", "a.m",
            "p.m", "inc", "ltd", "co", "corp", "dept", "est", "approx", "hr", "min", "sec", "fig",
            "eq", "ref", "vol", "ch", "para", "mon", "tue", "wed", "thu", "fri", "sat", "sun",
            "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept", "oct", "nov", "dec",
        ]
        .into_iter()
        .collect()
    })
}

/// Configurable sentence splitter.
///
/// The default configuration matches the behaviour the framework's
/// experiments were calibrated against; the knobs exist so downstream users
/// can adapt the splitter to other domains.
#[derive(Debug, Clone)]
pub struct SentenceSplitter {
    /// Treat a newline as a hard sentence boundary (list items, bullet answers).
    pub newline_is_boundary: bool,
    /// Minimum number of alphanumeric characters for a span to count as a
    /// sentence; shorter spans are merged into the previous sentence.
    pub min_content_chars: usize,
}

impl Default for SentenceSplitter {
    fn default() -> Self {
        Self {
            newline_is_boundary: true,
            min_content_chars: 2,
        }
    }
}

impl SentenceSplitter {
    /// Create a splitter with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Split `text` into sentences with source spans.
    pub fn split<'a>(&self, text: &'a str) -> Vec<Sentence<'a>> {
        let chars: Vec<(usize, char)> = text.char_indices().collect();
        let mut boundaries: Vec<usize> = Vec::new(); // byte offsets AFTER which a sentence ends
        let mut i = 0;
        while i < chars.len() {
            let (_, c) = chars[i];
            match c {
                '.' => {
                    // Ellipsis: consume the run of dots, then decide.
                    let mut j = i;
                    while j + 1 < chars.len() && chars[j + 1].1 == '.' {
                        j += 1;
                    }
                    let is_ellipsis = j > i;
                    if !is_ellipsis && (self.is_abbreviation(&chars, i) || is_mid_number(&chars, i))
                    {
                        i += 1;
                        continue;
                    }
                    let close = consume_closers(&chars, j + 1);
                    if self.ends_sentence(&chars, close) {
                        boundaries.push(end_byte(text, &chars, close));
                        i = close;
                    } else {
                        i = j + 1;
                    }
                }
                '!' | '?' => {
                    let mut j = i;
                    while j + 1 < chars.len() && matches!(chars[j + 1].1, '!' | '?') {
                        j += 1;
                    }
                    let close = consume_closers(&chars, j + 1);
                    if self.ends_sentence(&chars, close) {
                        boundaries.push(end_byte(text, &chars, close));
                        i = close;
                    } else {
                        i = j + 1;
                    }
                }
                '\n' if self.newline_is_boundary => {
                    boundaries.push(chars[i].0);
                    i += 1;
                }
                _ => i += 1,
            }
        }
        boundaries.push(text.len());
        self.collect_sentences(text, &boundaries)
    }

    fn collect_sentences<'a>(&self, text: &'a str, boundaries: &[usize]) -> Vec<Sentence<'a>> {
        let mut out: Vec<Sentence<'a>> = Vec::new();
        let mut start = 0;
        for &b in boundaries {
            if b < start {
                continue;
            }
            let raw = &text[start..b];
            let trimmed = raw.trim();
            if !trimmed.is_empty() {
                let lead = raw.len() - raw.trim_start().len();
                let s = start + lead;
                let e = s + trimmed.len();
                let content = trimmed.chars().filter(|c| c.is_alphanumeric()).count();
                if content < self.min_content_chars {
                    // Merge fragments like a stray ")" into the previous sentence.
                    if let Some(prev) = out.last_mut() {
                        prev.end = e;
                        prev.text = text[prev.start..e].trim_end();
                        prev.end = prev.start + prev.text.len();
                    } else {
                        out.push(Sentence {
                            text: trimmed,
                            start: s,
                            end: e,
                        });
                    }
                } else {
                    out.push(Sentence {
                        text: trimmed,
                        start: s,
                        end: e,
                    });
                }
            }
            start = b;
        }
        out
    }

    /// Does position `i` (after a terminator and its closers) start a new
    /// sentence? True at end of text, or when whitespace is followed by an
    /// uppercase letter, a digit, or an opening quote/paren.
    fn ends_sentence(&self, chars: &[(usize, char)], i: usize) -> bool {
        let mut k = i;
        let mut saw_space = false;
        while k < chars.len() && chars[k].1.is_whitespace() {
            saw_space = true;
            k += 1;
        }
        if k >= chars.len() {
            return true;
        }
        if !saw_space {
            return false;
        }
        let next = chars[k].1;
        next.is_uppercase() || next.is_ascii_digit() || matches!(next, '"' | '\'' | '(' | '[')
    }

    /// Is the period at `chars[i]` the trailing dot of a known abbreviation or
    /// a single-letter initial?
    fn is_abbreviation(&self, chars: &[(usize, char)], i: usize) -> bool {
        // Collect the word (letters and interior dots) preceding the period.
        let mut k = i;
        let mut word = Vec::new();
        while k > 0 {
            let c = chars[k - 1].1;
            if c.is_alphabetic() || c == '.' {
                word.push(c.to_ascii_lowercase());
                k -= 1;
            } else {
                break;
            }
        }
        if word.is_empty() {
            return false;
        }
        word.reverse();
        let w: String = word.into_iter().collect();
        // Single-letter initial: "J. Smith".
        if w.len() == 1 && chars[i.saturating_sub(1)].1.is_uppercase() {
            return true;
        }
        // "No." is only an abbreviation before a number ("No. 5"), otherwise
        // it is the English word "no" ending a sentence.
        if w == "no" {
            let mut k = i + 1;
            while k < chars.len() && chars[k].1.is_whitespace() {
                k += 1;
            }
            return k < chars.len() && chars[k].1.is_ascii_digit();
        }
        abbreviations().contains(w.trim_start_matches('.'))
    }
}

/// Is the period at index `i` inside a number (e.g. "2.5")?
fn is_mid_number(chars: &[(usize, char)], i: usize) -> bool {
    i > 0
        && i + 1 < chars.len()
        && chars[i - 1].1.is_ascii_digit()
        && chars[i + 1].1.is_ascii_digit()
}

/// Skip closing quotes/parens after a terminator, returning the new index.
fn consume_closers(chars: &[(usize, char)], mut i: usize) -> usize {
    while i < chars.len() && matches!(chars[i].1, '"' | '\'' | ')' | ']' | '\u{201D}' | '\u{2019}')
    {
        i += 1;
    }
    i
}

fn end_byte(text: &str, chars: &[(usize, char)], i: usize) -> usize {
    if i < chars.len() {
        chars[i].0
    } else {
        text.len()
    }
}

/// Split with the default [`SentenceSplitter`].
///
/// ```
/// use text_engine::split_sentences;
/// let s = split_sentences("The store opens at 9 AM. It closes at 5 PM.");
/// assert_eq!(s.len(), 2);
/// assert_eq!(s[0], "The store opens at 9 AM.");
/// ```
pub fn split_sentences(text: &str) -> Vec<String> {
    SentenceSplitter::new()
        .split(text)
        .into_iter()
        .map(|s| s.text.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(text: &str) -> Vec<String> {
        split_sentences(text)
    }

    #[test]
    fn basic_two_sentences() {
        assert_eq!(split("One fact. Two facts."), ["One fact.", "Two facts."]);
    }

    #[test]
    fn question_and_exclamation() {
        assert_eq!(split("Really? Yes! Fine."), ["Really?", "Yes!", "Fine."]);
    }

    #[test]
    fn abbreviation_does_not_split() {
        assert_eq!(
            split("Dr. Smith approved it. HR confirmed."),
            ["Dr. Smith approved it.", "HR confirmed."]
        );
    }

    #[test]
    fn am_pm_do_not_split() {
        assert_eq!(
            split("Hours are 9 a.m. to 5 p.m. on weekdays. Weekends are off."),
            [
                "Hours are 9 a.m. to 5 p.m. on weekdays.",
                "Weekends are off."
            ]
        );
    }

    #[test]
    fn decimal_does_not_split() {
        assert_eq!(
            split("You accrue 1.5 days per month. Nice."),
            ["You accrue 1.5 days per month.", "Nice."]
        );
    }

    #[test]
    fn initial_does_not_split() {
        assert_eq!(
            split("Contact J. Chan for details. Thanks."),
            ["Contact J. Chan for details.", "Thanks."]
        );
    }

    #[test]
    fn ellipsis_splits_when_followed_by_capital() {
        assert_eq!(split("Well... Maybe not."), ["Well...", "Maybe not."]);
    }

    #[test]
    fn quote_after_period_belongs_to_sentence() {
        assert_eq!(
            split("He said \"no.\" She left."),
            ["He said \"no.\"", "She left."]
        );
    }

    #[test]
    fn newline_is_boundary() {
        assert_eq!(
            split("First item\nSecond item"),
            ["First item", "Second item"]
        );
    }

    #[test]
    fn newline_boundary_can_be_disabled() {
        let sp = SentenceSplitter {
            newline_is_boundary: false,
            ..Default::default()
        };
        assert_eq!(sp.split("a line\nstill same sentence.").len(), 1);
    }

    #[test]
    fn lowercase_after_period_does_not_split() {
        // mid-sentence period in odd formatting, e.g. "approx. five days"
        assert_eq!(
            split("It takes approx. five days."),
            ["It takes approx. five days."]
        );
    }

    #[test]
    fn sentence_starting_with_digit_splits() {
        assert_eq!(
            split("Leave is generous. 14 days are granted."),
            ["Leave is generous.", "14 days are granted."]
        );
    }

    #[test]
    fn no_terminator_yields_one_sentence() {
        assert_eq!(split("no terminator here"), ["no terminator here"]);
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(split("").is_empty());
        assert!(split("   \n  ").is_empty());
    }

    #[test]
    fn fragment_merges_into_previous() {
        // A lone ")" after a boundary should not become its own sentence.
        let got = split("See the policy (section 2.) It applies.");
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn spans_cover_source() {
        let src = "Alpha beta. Gamma delta!";
        for s in SentenceSplitter::new().split(src) {
            assert_eq!(&src[s.start..s.end], s.text);
        }
    }

    #[test]
    fn paper_example_three_sentences() {
        let r = "The working hours are 9 AM to 5 PM. The store is open from Monday to Friday. \
                 At least three shopkeepers run a shop.";
        assert_eq!(split(r).len(), 3);
    }

    proptest::proptest! {
        #[test]
        fn spans_are_ordered_and_valid(s in "(\\PC|[ -~\\n]){0,120}") {
            let sents = SentenceSplitter::new().split(&s);
            let mut prev = 0usize;
            for sent in &sents {
                proptest::prop_assert!(sent.start >= prev);
                proptest::prop_assert!(sent.end <= s.len());
                proptest::prop_assert!(s.is_char_boundary(sent.start));
                proptest::prop_assert!(s.is_char_boundary(sent.end));
                proptest::prop_assert_eq!(s.get(sent.start..sent.end), Some(sent.text));
                prev = sent.end;
            }
        }

        #[test]
        fn every_alphanumeric_char_is_kept(s in "(\\PC|[a-zA-Z0-9 .!?]){0,120}") {
            let total: usize = s.chars().filter(|c| c.is_alphanumeric()).count();
            let kept: usize = SentenceSplitter::new()
                .split(&s)
                .iter()
                .map(|x| x.text.chars().filter(|c| c.is_alphanumeric()).count())
                .sum();
            proptest::prop_assert_eq!(total, kept);
        }
    }
}
