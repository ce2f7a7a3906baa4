//! # astro-exec — deterministic discrete-event execution engine
//!
//! The "device" of this reproduction: runs IR programs on the simulated
//! big.LITTLE machine of `astro-hw`, under an OS scheduler, with the
//! Astro runtime plugged in through hooks.
//!
//! * [`program`] — lowers IR into the engine's executable form
//!   (instruction-mix chunks + engine-handled call sites);
//! * [`interp`] — the behavioural interpreter: cycle/cache-exact slices;
//! * [`thread`] / [`sync`] — threads, barriers, mutexes;
//! * [`sched`] — OS schedulers: **GTS** (the paper's baseline),
//!   configuration-respecting affinity, random;
//! * [`machine`] — the event loop: slices, blocking calls, checkpoints
//!   (§3.2.1), balance ticks, power integration;
//! * [`executor`] — the pluggable execution contract ([`Executor`]) and
//!   the cycle-accurate [`MachineExecutor`] backend; trace-replay
//!   backends live in `astro-core`;
//! * [`runtime`] — the hook interface the Astro system implements
//!   (`astro-core`), plus null/static-binary hooks;
//! * [`result`] — run results (time, energy, counters, checkpoints).
//!
//! Every run is a pure function of (program, board, scheduler, hooks,
//! params, seed): simulations are exactly reproducible, which is what
//! lets the experiment harness regenerate the paper's figures
//! deterministically.

pub mod executor;
pub mod interp;
pub mod machine;
pub mod program;
pub mod result;
pub mod runtime;
pub mod sched;
pub mod sync;
pub mod thread;
pub mod time;

pub use executor::{BackendKind, ExecPolicy, ExecRequest, Executor, MachineExecutor};
pub use interp::{run_slice, CoreCosts, SliceOutcome, StopReason};
pub use machine::{Machine, MachineParams};
pub use program::{compile, CallSite, CompiledProgram, Segment, WorkChunk};
pub use result::RunResult;
pub use runtime::{MonitorSample, NullHooks, RuntimeHooks, StaticBinaryHooks};
pub use sched::affinity::AffinityScheduler;
pub use sched::gts::GtsScheduler;
pub use sched::random::RandomScheduler;
pub use sched::{OsScheduler, SchedView};
pub use sync::{BarrierTable, MutexTable};
pub use thread::{SimThread, ThreadId, ThreadState};
pub use time::SimTime;
