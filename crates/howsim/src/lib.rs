//! Howsim: the simulator that executes a workload phase plan on one of the
//! three architecture models.
//!
//! This is the reproduction of the paper's simulator of the same name:
//! "Howsim contains detailed models for disks, networks and the associated
//! libraries and device drivers; it contains coarse-grain models of
//! processors and I/O interconnects." The detailed models live in
//! `diskmodel` and `netmodel`; the coarse CPU model scales per-operator
//! reference costs by processor speed (`arch::ProcessorSpec`); this crate
//! wires them together with a discrete-event loop.
//!
//! # Example
//!
//! ```
//! use arch::Architecture;
//! use howsim::Simulation;
//! use tasks::TaskKind;
//!
//! let report = Simulation::new(Architecture::active_disks(16)).run(TaskKind::Select);
//! println!("select on 16 Active Disks: {}", report.elapsed());
//! assert!(report.elapsed().as_secs_f64() > 1.0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod codec;
pub mod exec;
mod export;
pub mod faults;
pub mod machine;
pub mod manifest;
pub mod metrics;
pub mod mqexec;
pub mod profile;
pub mod report;
pub mod sweep;
pub mod trace;
pub mod workload;

pub use cache::CacheStats;
pub use exec::{ExecRun, Simulation};
pub use faults::{FaultEvent, FaultKind, FaultPlan, RecoveryPolicy};
pub use manifest::RunManifest;
pub use metrics::{Attribution, MetricsBuilder, Resource, ResourceUsage, RunMetrics};
pub use mqexec::{LoadReport, QueryOutcome, QueryPhase, QueryStatus, WarmStart};
pub use profile::{CriticalPath, LoadSpanTrace, PathSegment, QuerySpans, SpanTrace};
pub use report::{PhaseReport, Report};
pub use trace::{NodeId, Trace, TraceEvent, TraceKind, TraceSummary};
pub use workload::{parse_duration, AdmissionPolicy, ArrivalProcess, DeadlinePolicy, WorkloadSpec};

/// The stream batch size every architecture uses for bulk I/O and
/// communication (the paper's 256 KB large-request discipline).
pub const BATCH_BYTES: u64 = 256 * 1024;
