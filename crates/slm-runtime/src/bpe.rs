//! Byte-pair-encoding tokenizer with a from-scratch trainer.
//!
//! Real SLM checkpoints ship trained BPE vocabularies; offline we train our
//! own on the corpus at hand (the synthetic handbook). The implementation is
//! the classic Sennrich-style word-internal BPE: words end with a `</w>`
//! marker, merges are learned greedily by pair frequency, and encoding
//! replays merges in rank order.
//!
//! Both sides apply a merge the same way (`merge_pair`): every occurrence
//! of the pair, left to right, in one linear pass. Encoding runs over token
//! ids, one pass per lowest-rank pair present, so a word's cost is bounded by
//! its length times the merges it takes — a long run of text without
//! whitespace is untrusted input, not a quadratic stall.
//!
//! The vocabulary always reserves the special tokens the verification prompt
//! needs: `<pad>`, `<bos>`, `<eos>`, `<unk>`, and whole-word `yes</w>` /
//! `no</w>` pieces so that `P(token_1 = "yes")` is a single-token probability
//! (Eq. 2 of the paper).

use std::collections::HashMap;

use text_engine::normalize::normalize;

/// Word-end marker appended to every word before merging.
const WORD_END: &str = "</w>";

/// Token id type.
pub type TokenId = u32;

/// Special token ids (fixed positions at the front of the vocabulary).
pub const PAD: TokenId = 0;
/// Beginning-of-sequence.
pub const BOS: TokenId = 1;
/// End-of-sequence.
pub const EOS: TokenId = 2;
/// Unknown symbol.
pub const UNK: TokenId = 3;

/// A trained BPE tokenizer.
#[derive(Debug, Clone)]
pub struct Bpe {
    /// id → piece text.
    vocab: Vec<String>,
    /// piece text → id.
    ids: HashMap<String, TokenId>,
    /// merge (left id, right id) → (rank, merged id); lower rank = earlier
    /// = higher priority. Ids are the canonical ones of `ids`.
    merges: HashMap<(TokenId, TokenId), (usize, TokenId)>,
}

impl Bpe {
    /// Train a tokenizer on `corpus` with a target vocabulary size.
    ///
    /// `target_vocab` counts everything: special tokens, single characters
    /// and learned merges. Training stops early when no pair occurs twice.
    pub fn train<S: AsRef<str>>(corpus: &[S], target_vocab: usize) -> Self {
        // Word frequency table over normalized text.
        let mut word_freq: HashMap<String, usize> = HashMap::new();
        for doc in corpus {
            for word in normalize(doc.as_ref()).split_whitespace() {
                *word_freq.entry(word.to_string()).or_insert(0) += 1;
            }
        }

        // Working representation: each word as a symbol sequence.
        let mut words: Vec<(Vec<String>, usize)> = word_freq
            .iter()
            .map(|(w, &f)| {
                let mut syms: Vec<String> = w.chars().map(|c| c.to_string()).collect();
                syms.push(WORD_END.to_string());
                (syms, f)
            })
            .collect();
        // Deterministic ordering regardless of HashMap iteration.
        words.sort_by(|a, b| a.0.cmp(&b.0));

        // Base vocabulary: specials + all single characters + word end.
        let mut vocab: Vec<String> = vec![
            "<pad>".into(),
            "<bos>".into(),
            "<eos>".into(),
            "<unk>".into(),
        ];
        let mut seen: HashMap<String, ()> = HashMap::new();
        let mut base_chars: Vec<String> = Vec::new();
        for (syms, _) in &words {
            for s in syms {
                if seen.insert(s.clone(), ()).is_none() {
                    base_chars.push(s.clone());
                }
            }
        }
        base_chars.sort();
        vocab.extend(base_chars);

        // Learn merges.
        let mut merges: Vec<(String, String)> = Vec::new();
        while vocab.len() + merges.len() < target_vocab {
            let mut pair_counts: HashMap<(String, String), usize> = HashMap::new();
            for (syms, f) in &words {
                for w in syms.windows(2) {
                    *pair_counts.entry((w[0].clone(), w[1].clone())).or_insert(0) += f;
                }
            }
            // Most frequent pair, ties broken lexicographically for determinism.
            let best = pair_counts
                .into_iter()
                .filter(|(_, c)| *c >= 2)
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some(((left, right), _)) = best else {
                break;
            };
            let merged = format!("{left}{right}");
            for (syms, _) in words.iter_mut() {
                merge_pair(syms, &left, &right, &merged);
            }
            merges.push((left, right));
        }

        for (l, r) in &merges {
            vocab.push(format!("{l}{r}"));
        }

        let ids: HashMap<String, TokenId> = vocab
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as TokenId))
            .collect();
        let merges = merges
            .iter()
            .enumerate()
            .map(|(rank, (l, r))| ((ids[l], ids[r]), (rank, ids[&format!("{l}{r}")])))
            .collect();
        let mut bpe = Self { vocab, ids, merges };
        // Guarantee single-token "yes"/"no" pieces for Eq. 2.
        bpe.ensure_word_token("yes");
        bpe.ensure_word_token("no");
        bpe
    }

    fn ensure_word_token(&mut self, word: &str) {
        let piece = format!("{word}{WORD_END}");
        if !self.ids.contains_key(&piece) {
            let id = self.vocab.len() as TokenId;
            self.vocab.push(piece.clone());
            self.ids.insert(piece, id);
        }
    }

    /// Vocabulary size, including specials.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Piece text for a token id.
    pub fn piece(&self, id: TokenId) -> Option<&str> {
        self.vocab.get(id as usize).map(String::as_str)
    }

    /// Token id for the whole word `word` if it exists as a single piece.
    pub fn word_token(&self, word: &str) -> Option<TokenId> {
        self.ids.get(&format!("{word}{WORD_END}")).copied()
    }

    /// The single-token id for "yes" (reserved as a whole-word piece at
    /// training time; falls back to token 0 if a hand-built vocabulary
    /// somehow omitted it).
    pub fn yes_token(&self) -> TokenId {
        match self.word_token("yes") {
            Some(id) => id,
            None => {
                debug_assert!(false, "yes token reserved at training time");
                0
            }
        }
    }

    /// The single-token id for "no" (reserved like [`Self::yes_token`]).
    pub fn no_token(&self) -> TokenId {
        match self.word_token("no") {
            Some(id) => id,
            None => {
                debug_assert!(false, "no token reserved at training time");
                0
            }
        }
    }

    /// Encode one word (no whitespace) into token ids.
    ///
    /// Each pass finds the lowest-rank pair in the word and merges all of its
    /// occurrences, left to right; characters outside the vocabulary are
    /// [`UNK`] and never merge.
    pub fn encode_word(&self, word: &str) -> Vec<TokenId> {
        // Whole word shortcut (covers reserved yes/no even when the corpus
        // never contained them).
        if let Some(id) = self.word_token(word) {
            return vec![id];
        }
        let id = |piece: &str| self.ids.get(piece).copied().unwrap_or(UNK);
        let mut syms: Vec<TokenId> = word
            .chars()
            .map(|c| id(c.encode_utf8(&mut [0; 4])))
            .collect();
        syms.push(id(WORD_END));
        while let Some((_, left, right, merged)) = syms
            .windows(2)
            .filter_map(|w| {
                let &(rank, merged) = self.merges.get(&(w[0], w[1]))?;
                Some((rank, w[0], w[1], merged))
            })
            .min()
        {
            merge_pair(&mut syms, &left, &right, &merged);
        }
        syms
    }

    /// Encode text: normalize, split on whitespace, encode each word.
    /// Prepends `<bos>` when `add_bos` is set.
    pub fn encode(&self, text: &str, add_bos: bool) -> Vec<TokenId> {
        let mut out = Vec::new();
        if add_bos {
            out.push(BOS);
        }
        for word in normalize(text).split_whitespace() {
            out.extend(self.encode_word(word));
        }
        out
    }

    /// Decode ids back to text. Unknown ids render as `<unk>`.
    pub fn decode(&self, ids: &[TokenId]) -> String {
        let mut s = String::new();
        for &id in ids {
            if matches!(id, PAD | BOS | EOS) {
                continue;
            }
            match self.piece(id) {
                Some(p) => s.push_str(p),
                None => s.push_str("<unk>"),
            }
        }
        s.replace(WORD_END, " ").trim_end().to_string()
    }
}

/// Replace every adjacent occurrence of `(left, right)` in `syms` with
/// `merged`, left to right and non-overlapping, in one linear pass.
fn merge_pair<T: PartialEq + Clone>(syms: &mut Vec<T>, left: &T, right: &T, merged: &T) {
    // `syms[..out]` is the merged prefix; `syms[out..i]` holds stale values.
    let (mut out, mut i) = (0, 0);
    while i < syms.len() {
        if i + 1 < syms.len() && syms[i] == *left && syms[i + 1] == *right {
            syms[out] = merged.clone();
            i += 2;
        } else {
            syms.swap(out, i);
            i += 1;
        }
        out += 1;
    }
    syms.truncate(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Vec<&'static str> {
        vec![
            "the store operates from 9 am to 5 pm",
            "the store is open from sunday to saturday",
            "working hours are 9 am to 5 pm every day",
            "annual leave is 14 days per year for staff",
            "yes the answer is correct",
            "no the answer is wrong",
        ]
    }

    #[test]
    fn train_produces_bounded_vocab() {
        let bpe = Bpe::train(&sample_corpus(), 120);
        assert!(bpe.vocab_size() <= 122, "{}", bpe.vocab_size()); // +2 reserved yes/no
        assert!(bpe.vocab_size() > 30);
    }

    #[test]
    fn roundtrip_on_training_text() {
        let bpe = Bpe::train(&sample_corpus(), 200);
        let text = "the store operates from 9 am to 5 pm";
        let ids = bpe.encode(text, false);
        assert_eq!(bpe.decode(&ids), text);
    }

    #[test]
    fn roundtrip_on_unseen_words_with_known_chars() {
        let bpe = Bpe::train(&sample_corpus(), 120);
        let text = "sunday salary stores"; // unseen combinations, seen chars
        assert_eq!(bpe.decode(&bpe.encode(text, false)), text);
    }

    #[test]
    fn unknown_characters_become_unk() {
        let bpe = Bpe::train(&sample_corpus(), 120);
        let ids = bpe.encode_word("日本");
        assert!(ids.contains(&UNK));
    }

    #[test]
    fn yes_and_no_are_single_tokens() {
        let bpe = Bpe::train(&sample_corpus(), 80);
        assert_eq!(bpe.encode_word("yes").len(), 1);
        assert_eq!(bpe.encode_word("no").len(), 1);
        assert_ne!(bpe.yes_token(), bpe.no_token());
    }

    #[test]
    fn yes_no_reserved_even_without_corpus_occurrences() {
        let bpe = Bpe::train(&["alpha beta gamma"], 40);
        assert_eq!(bpe.encode_word("yes"), vec![bpe.yes_token()]);
        assert_eq!(bpe.encode_word("no"), vec![bpe.no_token()]);
    }

    #[test]
    fn bos_prepended_when_requested() {
        let bpe = Bpe::train(&sample_corpus(), 80);
        let ids = bpe.encode("the store", true);
        assert_eq!(ids[0], BOS);
        assert!(!bpe.encode("the store", false).contains(&BOS));
    }

    #[test]
    fn more_merges_shorten_encodings() {
        let small = Bpe::train(&sample_corpus(), 50);
        let large = Bpe::train(&sample_corpus(), 300);
        let text = "the store operates from 9 am";
        assert!(large.encode(text, false).len() <= small.encode(text, false).len());
    }

    #[test]
    fn training_is_deterministic() {
        let a = Bpe::train(&sample_corpus(), 100);
        let b = Bpe::train(&sample_corpus(), 100);
        assert_eq!(a.vocab, b.vocab);
        assert_eq!(
            a.encode("working hours", false),
            b.encode("working hours", false)
        );
    }

    #[test]
    fn specials_have_fixed_ids() {
        let bpe = Bpe::train(&sample_corpus(), 80);
        assert_eq!(bpe.piece(PAD), Some("<pad>"));
        assert_eq!(bpe.piece(BOS), Some("<bos>"));
        assert_eq!(bpe.piece(EOS), Some("<eos>"));
        assert_eq!(bpe.piece(UNK), Some("<unk>"));
    }

    #[test]
    fn decode_skips_specials() {
        let bpe = Bpe::train(&sample_corpus(), 80);
        let mut ids = vec![BOS];
        ids.extend(bpe.encode("the store", false));
        ids.push(EOS);
        assert_eq!(bpe.decode(&ids), "the store");
    }

    /// The merge loop `encode_word` replaced, kept as its oracle: rescan the
    /// whole word of `String` pieces for the lowest-rank pair and merge only
    /// its leftmost occurrence, until no pair has a rank. Quadratic in the
    /// word's length.
    fn reference_encode_word(bpe: &Bpe, word: &str) -> Vec<TokenId> {
        if let Some(id) = bpe.word_token(word) {
            return vec![id];
        }
        let piece = |id: TokenId| bpe.vocab[id as usize].clone();
        let merge_ranks: HashMap<(String, String), usize> = bpe
            .merges
            .iter()
            .map(|(&(l, r), &(rank, _))| ((piece(l), piece(r)), rank))
            .collect();
        let mut syms: Vec<String> = word.chars().map(|c| c.to_string()).collect();
        syms.push(WORD_END.to_string());
        loop {
            let mut best: Option<(usize, usize)> = None; // (rank, position)
            for (i, w) in syms.windows(2).enumerate() {
                if let Some(&rank) = merge_ranks.get(&(w[0].clone(), w[1].clone())) {
                    if best.is_none_or(|(r, _)| rank < r) {
                        best = Some((rank, i));
                    }
                }
            }
            let Some((_, pos)) = best else { break };
            let merged = format!("{}{}", syms[pos], syms[pos + 1]);
            syms.splice(pos..=pos + 1, [merged]);
        }
        syms.iter()
            .map(|s| bpe.ids.get(s).copied().unwrap_or(UNK))
            .collect()
    }

    /// A tokenizer whose alphabet covers a few multibyte characters too.
    fn multibyte_bpe() -> Bpe {
        let mut corpus = sample_corpus();
        corpus.extend(["café déjà vu über", "привет мир", "日本語の文章"]);
        Bpe::train(&corpus, 300)
    }

    #[test]
    fn merge_pair_is_left_to_right_and_non_overlapping() {
        let mut syms = vec![1, 1, 1, 2, 1, 1];
        merge_pair(&mut syms, &1, &1, &9);
        assert_eq!(syms, vec![9, 1, 2, 9]);
        let mut syms = vec![1, 2];
        merge_pair(&mut syms, &2, &1, &9);
        assert_eq!(syms, vec![1, 2]);
    }

    #[test]
    fn long_words_encode_in_bounded_time() {
        // 64 KB with no whitespace. The reference rescans the whole word for
        // every single merge, so its cost grows with the square of the
        // length (16 KB took 1.4–8.8 s in a release build on a 2-vCPU
        // guest); one pass per rank is linear for each merge the word takes.
        let bpe = Bpe::train(&sample_corpus(), 300);
        let word = "thestoreoperatesfrom9amto5pmépreuve".repeat(1900);
        assert!(word.len() >= 64 * 1024);
        let started = std::time::Instant::now();
        let ids = bpe.encode_word(&word);
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 2.0, "64 KB word took {took:?}");
        assert!(ids.len() < word.chars().count(), "the word takes merges");
        // The same ids as the reference, on a prefix it can afford.
        let short: String = word.chars().take(2_000).collect();
        assert_eq!(bpe.encode_word(&short), reference_encode_word(&bpe, &short));
    }

    proptest::proptest! {
        #[test]
        fn encode_word_matches_the_reference_merge_loop(
            word in "(the|store|operates|from|am|pm|sunday|saturday|working|hours|annual|leave|days|yes|no|[a-z0-9]|é|ü|ж|日|本|\\PC){1,16}",
        ) {
            let bpe = multibyte_bpe();
            proptest::prop_assert_eq!(bpe.encode_word(&word), reference_encode_word(&bpe, &word));
        }

        #[test]
        fn unicode_text_round_trips_but_for_unknown_characters(text in "(\\PC|[ \t\n]){0,80}") {
            // Never panics; every id is in the vocabulary; decoding gives the
            // normalized text back with each out-of-alphabet char as <unk>.
            let bpe = multibyte_bpe();
            let ids = bpe.encode(&text, false);
            proptest::prop_assert!(ids.iter().all(|&id| (id as usize) < bpe.vocab_size()));
            let known = |c: char| bpe.ids.contains_key(c.encode_utf8(&mut [0; 4]) as &str);
            let expected: Vec<String> = text_engine::normalize(&text)
                .split_whitespace()
                .map(|w| {
                    w.chars()
                        .map(|c| if known(c) { c.to_string() } else { "<unk>".to_string() })
                        .collect()
                })
                .collect();
            proptest::prop_assert_eq!(bpe.decode(&ids), expected.join(" "));
        }

        #[test]
        fn encode_decode_roundtrips_lowercase_ascii(text in "[a-z ]{0,40}") {
            let bpe = Bpe::train(&["abcdefghijklmnopqrstuvwxyz abc xyz the quick brown fox"], 60);
            let normalized = text_engine::normalize(&text);
            let got = bpe.decode(&bpe.encode(&text, false));
            proptest::prop_assert_eq!(got, normalized);
        }

        #[test]
        fn encoding_never_empty_for_nonempty_word(word in "(\\PC|[a-z]){1,10}") {
            let bpe = Bpe::train(&sample_corpus(), 100);
            proptest::prop_assert!(!bpe.encode_word(&word).is_empty());
        }
    }
}
