//! # astro-fleet — multi-board, multi-tenant co-scheduling
//!
//! The paper's pipeline learns a schedule for one program on one board.
//! This crate is the fleet layer above it: many tenant jobs arriving
//! over time ([`arrival`]), co-scheduled across a cluster of independent
//! big.LITTLE boards ([`cluster`]) by an admission/dispatch policy
//! ([`dispatch`]) invoked *at arrival time* by a discrete-event kernel
//! ([`kernel`]) against live, observable cluster state ([`state`]) —
//! per-board queues, in-flight taxa, liveness, utilisation. Learned
//! Astro policies are shared and warm-started across tenants through a
//! taxonomy-keyed policy cache ([`cache`]); [`metrics`] aggregates
//! throughput, latency percentiles vs SLO, cluster energy and per-board
//! utilisation.
//!
//! The kernel expresses what a batch planner cannot: **online
//! dispatch** with live queue feedback ([`DispatchMode::Online`]),
//! **preemptive redispatch** (queued jobs predicted to miss their SLO
//! migrate at monitor ticks, paying a configurable cost) and **board
//! churn** (boards leave/join mid-run; queued work is redistributed or
//! explicitly dropped). [`DispatchMode::Oracle`] reproduces the earlier
//! three-stage batch semantics through the same loop, so historical
//! comparisons stay meaningful.
//!
//! Everything is seed-deterministic: the same cluster, parameters, job
//! stream and [`Scenario`] produce byte-identical outcomes.
//!
//! The kernel's execution plane ([`shard`]) is one completion heap,
//! advanced to each control timestamp before the control event reads
//! any state, each completion folded into the run state as it pops in
//! `(finish_s, id)` order. On top of the kernel,
//! completion events feed observed service times into a
//! per-(taxonomy, architecture) EWMA correction layer ([`feedback`])
//! that dispatchers consult on every subsequent decision — the
//! paper's "observed, not assumed, costs" principle applied at fleet
//! scale.
//!
//! The kernel carries a deterministic flight recorder ([`telemetry`]):
//! structured Chrome-trace spans, streaming quantile digests and
//! per-tick gauge windows over *sim* time, plus wall-clock phase
//! profiling — zero-cost when off, and guaranteed never to perturb
//! outcomes (fingerprints are byte-identical with tracing on or off).
//!
//! Execution goes through the pluggable
//! [`Executor`](astro_exec::executor::Executor) contract: the default
//! [`BackendKind::Machine`] interprets every job cycle-accurately, while
//! [`BackendKind::Replay`] calibrates per-configuration trace sets once
//! per (workload, architecture) and then answers each job by trace
//! composition — the fast tier that scales the kernel to a million
//! jobs over hundreds of boards (see the `fleet_million` figure).

#![warn(missing_docs)]

mod admission;
pub mod arrival;
pub mod cache;
pub mod chaos;
pub mod checkpoint;
pub mod cluster;
pub mod dispatch;
pub mod feedback;
mod index;
pub mod job;
pub mod kernel;
mod lines;
pub mod metrics;
#[cfg(test)]
mod reference_tests;
pub mod shard;
pub mod sim;
pub mod state;
pub mod telemetry;

pub use arrival::{
    write_trace, ArrivalCursor, ArrivalProcess, GenCursor, SliceCursor, TraceCursor,
};
pub use astro_exec::executor::BackendKind;
pub use cache::{CacheDecision, CacheStats, PolicyCache, PolicyEntry};
pub use chaos::{ChaosClause, ChaosSchedule, ChaosStats, ClauseStats, TrafficClause, MAX_SLOWDOWN};
pub use checkpoint::{CheckpointError, CursorState};
pub use cluster::ClusterSpec;
pub use dispatch::{Dispatcher, EnergyAware, JobEstimates, LeastLoaded, PhaseAware};
pub use feedback::{FeedbackStats, ServiceFeedback};
pub use job::{classify_module, taxon_of, JobClass, JobOutcome, JobSpec, Taxon};
pub use kernel::{ChurnEvent, EventKind, KernelStats, ResidentKernel, Scenario};
pub use metrics::{percentile, FleetMetrics, FleetOutcome, StreamSummary, STREAM_WINDOW};
pub use sim::{FleetParams, FleetSim, PolicyMode};
pub use state::{
    BoardState, ClusterState, DispatchMode, DropReason, DroppedJob, InFlight, QueuedJob,
};
pub use telemetry::{
    validate_json, FlightRecorder, PhaseProfile, QuantileDigest, TraceEvent, TraceLevel,
    WindowSample, DIGEST_GROWTH,
};
