//! Table I demo: the three contradiction types (Logical, Prompt, Factual)
//! and how the framework scores them against faithful answers.
//!
//! ```text
//! cargo run -p bench --example contradiction_types
//! ```

use hallu_core::{DetectorConfig, ResilientDetector};
use slm_runtime::profiles::{minicpm_sim, qwen2_sim};
use slm_runtime::verifier::YesNoVerifier;

struct Case {
    kind: &'static str,
    question: &'static str,
    context: &'static str,
    faithful: &'static str,
    hallucinated: &'static str,
}

const CASES: &[Case] = &[
    Case {
        kind: "Logical",
        question: "Can you introduce Madison?",
        context: "The city of Madison has over 500 thousand residents. Big cities like Madison \
                  are busy urban centers.",
        faithful: "The city of Madison has over 500 thousand residents. Big cities like \
                   Madison are busy urban centers.",
        hallucinated: "The city of Madison has over 500 thousand residents. It is known for \
                       its small-town charm and quiet atmosphere with a population of 500 \
                       residents.",
    },
    Case {
        kind: "Prompt",
        question: "Describe a healthy breakfast that includes fruits and whole grains.",
        context: "A healthy breakfast includes fruits and whole grains. Oatmeal with berries \
                  is a great choice for breakfast.",
        faithful: "A healthy breakfast includes fruits and whole grains such as oatmeal with \
                   berries.",
        hallucinated: "A bowl of sugary cereal with milk and a side of bacon is a great choice \
                       for breakfast.",
    },
    Case {
        kind: "Factual",
        question: "What are the main ingredients in a traditional Margherita pizza?",
        context: "A traditional Margherita pizza is made with tomatoes, mozzarella cheese and \
                  fresh basil. The dough uses flour, water, salt and yeast.",
        faithful: "A traditional Margherita pizza is made with tomatoes, mozzarella cheese and \
                   fresh basil. The dough uses flour, water, salt and yeast.",
        hallucinated: "A traditional Margherita pizza is made with tomatoes, mozzarella cheese \
                       and fresh basil. The secret key ingredient of the pizza is a layer of \
                       sweet chocolate.",
    },
];

fn main() {
    println!("Table I — contradiction types and detector scores\n");
    for case in CASES {
        let mut detector = ResilientDetector::reliable(
            vec![
                Box::new(qwen2_sim()) as Box<dyn YesNoVerifier>,
                Box::new(minicpm_sim()) as Box<dyn YesNoVerifier>,
            ],
            DetectorConfig::default(),
        )
        .expect("two verifiers");
        for r in [case.faithful, case.hallucinated, case.context] {
            detector.calibrate(case.question, case.context, r);
        }
        let score = |response| {
            detector
                .score(case.question, case.context, response)
                .score()
                .expect("fault-free verifiers never abstain")
        };
        let good = score(case.faithful);
        let bad = score(case.hallucinated);
        println!("== {} contradiction ==", case.kind);
        println!("prompt:       {}", case.question);
        println!("faithful:     s = {good:.3}");
        println!(
            "hallucinated: s = {bad:.3}   <- {}",
            case.hallucinated.trim()
        );
        println!(
            "detected:     {}\n",
            if good > bad {
                "yes (hallucination scores lower)"
            } else {
                "NO"
            }
        );
    }
}
