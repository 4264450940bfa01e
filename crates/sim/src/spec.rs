//! Workload specification: how the simulation obtains its VM trace.

use risa_workload::azure::AzureProcess;
use risa_workload::{
    AzureShards, AzureSubset, CsvFileShards, ShardSource, SyntheticConfig, SyntheticShards,
    TraceFileError, TraceShards, Workload,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Declarative description of the workload a simulation should run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The §5.1 synthetic random workload with explicit parameters.
    Synthetic(SyntheticConfig),
    /// An Azure-2017-like slice (§5.2) with a seed.
    Azure {
        /// Which slice.
        subset: AzureSubset,
        /// Generation seed.
        seed: u64,
    },
    /// A pre-built trace (e.g. loaded from JSON).
    Trace(Workload),
    /// A CSV trace file on disk, read in shard-sized chunks — the whole
    /// trace never needs to fit in memory (see
    /// [`risa_workload::CsvFileShards`]).
    TraceCsv {
        /// Workload label for reports.
        name: String,
        /// Path to the CSV file ([`risa_workload::csv`] schema).
        path: String,
    },
}

/// Why a [`WorkloadSpec`] could not produce its trace: the file named by
/// a [`WorkloadSpec::TraceCsv`] is missing, unreadable or invalid. The
/// generator-backed and pre-built specs cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Path of the trace file.
    pub path: String,
    /// What was wrong with it.
    pub error: TraceFileError,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.error {
            // The I/O message already names the file.
            TraceFileError::Io { .. } => write!(f, "{}", self.error),
            TraceFileError::Csv(e) => write!(f, "trace file '{}': {e}", self.path),
        }
    }
}

impl std::error::Error for SpecError {}

impl WorkloadSpec {
    /// Synthetic workload of `n` VMs with paper parameters.
    pub fn synthetic(n: u32, seed: u64) -> Self {
        WorkloadSpec::Synthetic(SyntheticConfig::small(n, seed))
    }

    /// The full 2500-VM paper synthetic workload.
    pub fn synthetic_paper(seed: u64) -> Self {
        WorkloadSpec::Synthetic(SyntheticConfig::paper(seed))
    }

    /// An Azure-like slice.
    pub fn azure(subset: AzureSubset, seed: u64) -> Self {
        WorkloadSpec::Azure { subset, seed }
    }

    /// Materialize the trace.
    ///
    /// Synthetic and Azure specs generate **sharded** on the `rayon`
    /// pool: fixed 4096-VM index shards with `(seed, shard)`-derived RNG
    /// streams, stitched by a prefix sum over per-shard interarrival
    /// totals (`risa_workload::shard`). A single big trial therefore uses
    /// every worker, and the result is byte-identical at any thread count
    /// (pinned by `tests/determinism.rs`).
    ///
    /// Panics with the [`SpecError`] message if a CSV trace file is
    /// missing or invalid; use [`WorkloadSpec::try_materialize`] where a
    /// typed error is preferable.
    pub fn materialize(&self) -> Workload {
        self.try_materialize().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`WorkloadSpec::materialize`], but a missing or invalid CSV
    /// trace file surfaces as a typed [`SpecError`].
    pub fn try_materialize(&self) -> Result<Workload, SpecError> {
        match self {
            WorkloadSpec::Synthetic(cfg) => Ok(Workload::synthetic(cfg)),
            WorkloadSpec::Azure { subset, seed } => Ok(Workload::azure(*subset, *seed)),
            WorkloadSpec::Trace(w) => Ok(w.clone()),
            WorkloadSpec::TraceCsv { name, path } => {
                let spec_error = |error| SpecError {
                    path: path.clone(),
                    error,
                };
                let csv = std::fs::read_to_string(path).map_err(|e| {
                    spec_error(TraceFileError::Io {
                        path: path.clone(),
                        message: e.to_string(),
                    })
                })?;
                risa_workload::csv::from_csv(name, &csv)
                    .map_err(|e| spec_error(TraceFileError::Csv(e)))
            }
        }
    }

    /// The spec as a lazy per-shard source — the handle
    /// [`crate::ArrivalMode::Streaming`] runs on. Generator-backed specs
    /// regenerate each shard from its RNG streams; pre-built traces are
    /// *served* in shard-sized slices ([`risa_workload::TraceShards`]),
    /// and on-disk CSV traces are read chunk-by-chunk
    /// ([`risa_workload::CsvFileShards`]), so every spec streams.
    ///
    /// The source yields the *same trace* [`WorkloadSpec::materialize`]
    /// produces, bit-for-bit, so consuming it through a cursor is
    /// byte-identical to materializing. A missing or invalid CSV trace
    /// file is a typed [`SpecError`], never a silent fallback.
    pub fn shard_source(&self) -> Result<Arc<dyn ShardSource>, SpecError> {
        Ok(match self {
            WorkloadSpec::Synthetic(cfg) => Arc::new(SyntheticShards::new(cfg)),
            WorkloadSpec::Azure { subset, seed } => {
                Arc::new(AzureShards::new(*subset, *seed, AzureProcess::default()))
            }
            WorkloadSpec::Trace(w) => Arc::new(TraceShards::new(w.clone())),
            WorkloadSpec::TraceCsv { name, path } => Arc::new(
                CsvFileShards::open(name.clone(), path).map_err(|error| SpecError {
                    path: path.clone(),
                    error,
                })?,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_materializes_n_vms() {
        assert_eq!(WorkloadSpec::synthetic(37, 1).materialize().len(), 37);
        assert_eq!(WorkloadSpec::synthetic_paper(1).materialize().len(), 2500);
    }

    #[test]
    fn azure_materializes_subset() {
        let w = WorkloadSpec::azure(AzureSubset::N3000, 2).materialize();
        assert_eq!(w.len(), 3000);
        assert_eq!(w.name(), "Azure-3000");
    }

    #[test]
    fn trace_passthrough() {
        let w = WorkloadSpec::synthetic(5, 3).materialize();
        let spec = WorkloadSpec::Trace(w.clone());
        assert_eq!(spec.materialize(), w);
    }

    /// The shard source must yield exactly the trace `materialize`
    /// yields — the foundation of the streaming/materialized identity.
    /// Every spec kind streams, including pre-built traces.
    #[test]
    fn shard_source_reproduces_materialize() {
        for spec in [
            WorkloadSpec::synthetic(5000, 21),
            WorkloadSpec::azure(AzureSubset::N3000, 8),
            WorkloadSpec::Trace(WorkloadSpec::synthetic(5000, 21).materialize()),
        ] {
            let source = spec.shard_source().expect("every spec kind streams");
            assert_eq!(
                risa_workload::shard::materialize(&*source),
                spec.materialize().vms()
            );
            assert_eq!(source.label(), spec.materialize().name());
        }
    }

    #[test]
    fn trace_csv_spec_streams_and_materializes_identically() {
        let w = WorkloadSpec::synthetic(500, 4).materialize();
        let path = std::env::temp_dir().join(format!("risa_spec_trace_{}.csv", std::process::id()));
        std::fs::write(&path, risa_workload::csv::to_csv(&w)).unwrap();
        let spec = WorkloadSpec::TraceCsv {
            name: "disk".into(),
            path: path.display().to_string(),
        };
        let materialized = spec.materialize();
        assert_eq!(materialized.name(), "disk");
        assert_eq!(materialized.vms(), w.vms());
        let source = spec.shard_source().expect("CSV traces stream");
        assert_eq!(risa_workload::shard::materialize(&*source), w.vms());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_csv_spec_errors_are_typed() {
        let missing = WorkloadSpec::TraceCsv {
            name: "x".into(),
            path: "/nonexistent/risa/spec.csv".into(),
        };
        let err = missing.try_materialize().unwrap_err();
        assert!(matches!(err.error, TraceFileError::Io { .. }), "{err}");
        assert!(err
            .to_string()
            .starts_with("cannot read trace file '/nonexistent/risa/spec.csv': "));
        assert!(matches!(
            missing.shard_source().err().map(|e| e.error),
            Some(TraceFileError::Io { .. })
        ));

        let path = std::env::temp_dir().join(format!("risa_spec_bad_{}.csv", std::process::id()));
        std::fs::write(&path, "not,the,header\n").unwrap();
        let bad = WorkloadSpec::TraceCsv {
            name: "bad".into(),
            path: path.display().to_string(),
        };
        let header = TraceFileError::Csv(risa_workload::csv::CsvError::BadHeader);
        let err = bad.try_materialize().unwrap_err();
        assert_eq!(err.error, header);
        assert!(err.to_string().contains("': bad CSV header"), "{err}");
        assert_eq!(bad.shard_source().err().map(|e| e.error), Some(header));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "cannot read trace file")]
    fn trace_csv_spec_missing_file_fails_loudly() {
        WorkloadSpec::TraceCsv {
            name: "x".into(),
            path: "/nonexistent/risa/spec.csv".into(),
        }
        .materialize();
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = WorkloadSpec::azure(AzureSubset::N5000, 9);
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
