//! Experiment harness shared by the per-figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index). This library holds the common parts:
//! the approach roster of §V-C, dataset scoring, result collection, the
//! engine sweeps' token inputs and timer ([`sweep`]), and the guarded
//! handbook pipeline and seeded workload of the serving experiments
//! ([`handbook`]).

pub mod approaches;
pub mod experiments;
pub mod handbook;
pub mod runner;
pub mod sweep;

pub use approaches::{build_detector, Approach};
pub use runner::{score_dataset, task_examples, LabeledScore, Task};

use std::path::Path;

use eval::report::ExperimentRecord;

/// Where `run_all` and the figure binaries accumulate their records.
pub const RESULTS_PATH: &str = "EXPERIMENTS-results.json";

/// Append (or replace by id) a record in the results file.
pub fn save_record(record: &ExperimentRecord, path: &Path) -> std::io::Result<()> {
    let mut records: Vec<ExperimentRecord> = if path.exists() {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text).unwrap_or_default()
    } else {
        Vec::new()
    };
    records.retain(|r| r.id != record.id);
    records.push(record.clone());
    records.sort_by(|a, b| a.id.cmp(&b.id));
    let json = serde_json::to_string_pretty(&records)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_record_replaces_by_id() {
        let path = std::env::temp_dir().join(format!("bench-records-{}.json", std::process::id()));
        let mut r = ExperimentRecord::new("figX", "t");
        r.measure("a", 0.5);
        save_record(&r, &path).unwrap();
        let mut r2 = ExperimentRecord::new("figX", "t");
        r2.measure("a", 0.7);
        save_record(&r2, &path).unwrap();
        let records: Vec<ExperimentRecord> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].measured_value("a"), Some(0.7));
    }
}
