//! # text-engine
//!
//! Text-processing substrate for the hallucination-detection workspace.
//!
//! The paper ("Hallucination Detection with Small Language Models", ICDE 2025)
//! relies on spaCy for sentence segmentation and on the tokenization pipelines
//! embedded in its small language models. This crate provides from-scratch,
//! dependency-free equivalents:
//!
//! * [`normalize`](mod@normalize) — text canonicalization (case folding, whitespace collapse,
//!   light unicode folding).
//! * [`token`] — span-preserving word tokenization.
//! * [`sentence`] — the paper's **Splitter** component: a rule-based sentence
//!   segmenter that handles abbreviations, initials, decimals, ellipses and
//!   quoted sentences.
//! * [`stem`] — a complete Porter stemmer.
//! * [`stopwords`] — an English stopword list.
//! * [`ngram`] — word and character n-grams.
//! * [`entities`] — extraction of the fact-bearing tokens the HR-handbook
//!   dataset turns on: clock times, weekdays and weekday ranges, numbers,
//!   durations, money and percentages.
//! * [`similarity`] — set and bag similarity measures (Jaccard, Dice, overlap,
//!   cosine over count vectors).
//! * [`tfidf`] — a corpus-level TF-IDF vectorizer used by the vector-database
//!   embedders.

pub mod entities;
pub mod ngram;
pub mod normalize;
pub mod sentence;
pub mod similarity;
pub mod stem;
pub mod stopwords;
pub mod tfidf;
pub mod token;

pub use entities::{extract_entities, Entity, EntityKind};
pub use normalize::normalize;
pub use sentence::{split_sentences, SentenceSplitter};
pub use similarity::{cosine_counts, dice, jaccard, overlap_coefficient};
pub use stem::porter_stem;
pub use token::{tokenize, tokenize_words, Token};
