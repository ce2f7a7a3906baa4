//! # astro-core — the Astro system
//!
//! The paper's primary contribution, assembled from the substrate crates:
//!
//! * [`state`] — Definition 3.2's states `⟨H, S, D⟩` (hardware
//!   configuration, program phase, hardware phase) and their encoding
//!   into neural-network inputs;
//! * [`reward`] — Definition 3.7's reward, `MIPS^γ / Watt`;
//! * [`actuator`] — the Monitor → Learn → Adapt loop of Figure 7,
//!   implemented as execution-engine hooks around a Q-agent;
//! * [`schedule`] — synthesis of the learned policy into the static and
//!   hybrid schedules that final code generation imprints (§3.3);
//! * [`trace`] / [`tracesim`] — the trace-recording harness and
//!   trace-driven simulator of §4.1 (oracles, fixed configurations,
//!   random, and agent policies over recorded traces);
//! * [`record`] / [`replay`] — §4.1 lifted onto the pluggable
//!   [`Executor`](astro_exec::executor::Executor) contract: a recording
//!   decorator that calibrates per-configuration trace sets through any
//!   backend, and a replay backend answering runs by trace composition
//!   (the fast tier the fleet's 100k-job simulations run on);
//! * [`baselines`] — Hipster (same learner, no program phases) and
//!   Octopus-Man (threshold ladder, no learning);
//! * [`pipeline`] — end-to-end: mine features → instrument → learn over
//!   episodes → synthesise schedules → emit final binaries → evaluate
//!   against GTS;
//! * [`spha`] — the SPha problem statement (Definition 3.1) and verdict
//!   checking.

pub mod actuator;
pub mod baselines;
pub mod pipeline;
pub mod record;
pub mod replay;
pub mod reward;
pub mod schedule;
pub mod spha;
pub mod state;
pub mod trace;
pub mod tracesim;

pub use actuator::AstroLearningHooks;
pub use pipeline::{AstroPipeline, PipelineConfig, TrainedAstro};
pub use record::RecordingExecutor;
pub use replay::{ReplayExecutor, ReplayStats};
pub use reward::RewardParams;
pub use schedule::{HybridBinaryHooks, HybridSchedule, StaticSchedule};
pub use spha::{SphaInstance, SphaVerdict};
pub use state::AstroStateSpace;
pub use trace::{record_traces, Trace, TraceRecord, TraceSet};

/// Names commonly used together by examples and benches.
pub mod prelude {
    pub use crate::actuator::AstroLearningHooks;
    pub use crate::pipeline::{AstroPipeline, PipelineConfig, TrainedAstro};
    pub use crate::reward::RewardParams;
    pub use crate::schedule::{HybridBinaryHooks, HybridSchedule, StaticSchedule};
    pub use crate::state::AstroStateSpace;
    pub use crate::trace::{record_traces, TraceSet};
    pub use crate::tracesim::{TracePolicy, TraceSim, TraceSimOutcome};
}
