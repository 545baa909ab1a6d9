//! Print the dataset card and export the evaluation dataset to JSON for
//! inspection (`dataset.json` in the working directory).
//!
//! The export is written before anything is printed, and a reader that
//! closes the pipe early (`dataset_info | head`) ends the run quietly.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use hallu_dataset::stats::dataset_stats;
use hallu_dataset::{Dataset, DatasetBuilder};

fn main() -> ExitCode {
    let dataset = DatasetBuilder::default().build();
    let held_out = DatasetBuilder::new(0xBEEF, 48).build_held_out();
    let path = std::path::Path::new("dataset.json");
    hallu_dataset::io::save(&dataset, path).expect("write dataset.json");

    match print_card(&mut std::io::stdout().lock(), &dataset, &held_out, path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dataset_info: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_card(
    out: &mut impl Write,
    dataset: &Dataset,
    held_out: &Dataset,
    path: &std::path::Path,
) -> std::io::Result<()> {
    writeln!(out, "== evaluation dataset (seed {}) ==", dataset.seed)?;
    writeln!(out, "{}", dataset_stats(dataset).render())?;

    writeln!(out, "== held-out dataset (seed {}) ==", held_out.seed)?;
    writeln!(out, "{}", dataset_stats(held_out).render())?;

    writeln!(out, "full dataset exported to {}", path.display())?;

    // Show one complete set as a sample.
    let sample = &dataset.sets[0];
    writeln!(
        out,
        "\n== sample set (id {}, topic {}) ==",
        sample.id, sample.topic
    )?;
    writeln!(out, "question: {}", sample.question)?;
    writeln!(out, "context:  {}", sample.context)?;
    for r in &sample.responses {
        writeln!(out, "[{}] {}", r.label, r.text)?;
    }
    out.flush()
}
