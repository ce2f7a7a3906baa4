//! The behavioural interpreter: runs one thread on one core for a bounded
//! cycle budget, producing exact cycle/instruction/cache accounting.
//!
//! A *slice* advances the thread through compiled segments until it
//! (a) exhausts the budget, (b) reaches a call the engine must handle
//! (blocking library call, Astro intrinsic, spawn/join), or (c) returns
//! from its outermost frame. The machine turns the slice's cycle total
//! into simulated time using the core's frequency.

use crate::program::{CallSite, CompiledProgram, CompiledTerm, Segment, WorkChunk};
use crate::thread::{next_address, Frame, SimThread};
use astro_hw::cache::{AccessOutcome, CacheHierarchy};
use astro_hw::cores::CoreSpec;
use astro_ir::{BranchBehavior, FunctionId, InstrClass, LibCall};
use rand::Rng;

/// Why a slice ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopReason<'p> {
    /// Budget exhausted; the thread is still runnable.
    Budget,
    /// An engine-handled library call was reached (position already
    /// advanced past it); `imms` borrows the call site's constant
    /// arguments from the program.
    EngineCall {
        /// The routine.
        callee: LibCall,
        /// The call site's constant arguments.
        imms: &'p [i64],
    },
    /// The thread's outermost frame returned.
    Finished,
}

/// Accounting for one slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SliceOutcome<'p> {
    /// Cycles spent executing instructions.
    pub exec_cycles: f64,
    /// Cycles spent stalled on L2/DRAM.
    pub stall_cycles: f64,
    /// Instructions retired (terminators included).
    pub instrs: u64,
    /// Cache accesses issued.
    pub mem_accesses: u64,
    /// L1 misses among them.
    pub mem_misses: u64,
    /// Why the slice stopped.
    pub stop: StopReason<'p>,
}

impl SliceOutcome<'_> {
    /// Total cycles (execution + stalls).
    pub fn total_cycles(&self) -> f64 {
        self.exec_cycles + self.stall_cycles
    }
}

/// What one core model charges for one program's work: the core's
/// spec, plus every work chunk's execution cycles, summed once per
/// program and core kind rather than once per executed chunk.
#[derive(Clone, Debug)]
pub struct CoreCosts<'s> {
    /// The core model.
    pub spec: &'s CoreSpec,
    /// Execution cycles of chunk `id` (see [`WorkChunk::id`]).
    chunk_cycles: Vec<f64>,
}

impl<'s> CoreCosts<'s> {
    /// Cost every work chunk of `prog` on `spec`.
    pub fn new(prog: &CompiledProgram, spec: &'s CoreSpec) -> Self {
        let mut chunk_cycles = vec![0.0; prog.num_chunks as usize];
        for seg in prog
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.segments)
        {
            if let Segment::Work(w) = seg {
                chunk_cycles[w.id as usize] = exec_cycles(w, spec);
            }
        }
        CoreCosts { spec, chunk_cycles }
    }
}

/// A chunk's execution cycles on `spec`: the class sum, left to right.
fn exec_cycles(w: &WorkChunk, spec: &CoreSpec) -> f64 {
    let mut exec = 0.0;
    for (ci, &n) in w.class_counts.iter().enumerate() {
        if n == 0 {
            continue;
        }
        exec += n as f64 * spec.cpi.cpi(CLASSES[ci]);
    }
    exec
}

/// Maximum call depth (workloads are non-recursive by construction; this
/// guards against accidental cycles).
const MAX_DEPTH: usize = 64;

/// Class table in [`class_index`](crate::program::class_index) order.
const CLASSES: [InstrClass; 7] = [
    InstrClass::IntAlu,
    InstrClass::IntMulDiv,
    InstrClass::FpAlu,
    InstrClass::FpMulDiv,
    InstrClass::Mem,
    InstrClass::Control,
    InstrClass::CallOverhead,
];

/// How the innermost frame's run ended.
enum FrameExit<'p> {
    /// A direct call to this function.
    Call(FunctionId),
    /// The frame returned.
    Ret,
    /// The slice ends here.
    Stop(StopReason<'p>),
}

/// Run `thread` for up to `budget_cycles` of core cycles.
///
/// The accounting lives in locals and the innermost frame's position in
/// `bb`/`seg`, written back only when the frame is left, so the loop
/// over segments touches no memory it does not have to. Cycles are
/// summed in execution order, exactly as the slice retires them.
pub fn run_slice<'p>(
    prog: &'p CompiledProgram,
    thread: &mut SimThread,
    costs: &CoreCosts,
    cache: &mut CacheHierarchy,
    budget_cycles: f64,
) -> SliceOutcome<'p> {
    let spec = costs.spec;
    let SimThread { id, stack, rng, .. } = thread;
    let mut exec_cycles = 0.0;
    let mut stall_cycles = 0.0;
    let mut instrs = 0u64;
    let mut mem_accesses = 0u64;
    let mut mem_misses = 0u64;

    let stop = loop {
        let Some(frame) = stack.last_mut() else {
            break StopReason::Finished;
        };
        let func = prog.func(frame.func);
        let (mut bb, mut seg) = (frame.block, frame.seg);
        let exit = loop {
            if exec_cycles + stall_cycles >= budget_cycles {
                break FrameExit::Stop(StopReason::Budget);
            }
            let block = &func.blocks[bb.0 as usize];
            if let Some(segment) = block.segments.get(seg) {
                seg += 1;
                match segment {
                    Segment::Work(w) => {
                        exec_cycles += costs.chunk_cycles[w.id as usize];
                        instrs += w.instrs as u64;
                        // Drive the cache with one access per memory
                        // instruction.
                        for _ in 0..w.mem_ops {
                            let addr = next_address(func, frame, rng);
                            mem_accesses += 1;
                            match cache.access(addr) {
                                AccessOutcome::L1 => {}
                                AccessOutcome::L2 => {
                                    mem_misses += 1;
                                    stall_cycles += spec.l2_hit_cycles;
                                }
                                AccessOutcome::Dram => {
                                    mem_misses += 1;
                                    stall_cycles += spec.dram_cycles;
                                }
                            }
                        }
                    }
                    Segment::Call(CallSite::Direct(callee)) => break FrameExit::Call(*callee),
                    Segment::Call(CallSite::Lib { callee, imms }) => {
                        break FrameExit::Stop(StopReason::EngineCall {
                            callee: *callee,
                            imms,
                        });
                    }
                }
            } else {
                // Terminator: one control instruction, then transfer.
                exec_cycles += spec.cpi.control;
                instrs += 1;
                bb = match block.term {
                    CompiledTerm::Jump(t) => t,
                    CompiledTerm::Branch {
                        then_bb,
                        else_bb,
                        behavior,
                    } => {
                        let take_then = match behavior {
                            BranchBehavior::Prob(p) => rng.gen::<f64>() < p,
                            BranchBehavior::Counted(n) => {
                                let counters = &mut frame.loop_counters;
                                let i = match counters.iter().position(|&(k, _)| k == bb.0) {
                                    Some(i) => i,
                                    None => {
                                        counters.push((bb.0, n.saturating_sub(1)));
                                        counters.len() - 1
                                    }
                                };
                                if counters[i].1 > 0 {
                                    counters[i].1 -= 1;
                                    true
                                } else {
                                    counters.swap_remove(i);
                                    false
                                }
                            }
                        };
                        if take_then {
                            then_bb
                        } else {
                            else_bb
                        }
                    }
                    CompiledTerm::Ret => break FrameExit::Ret,
                };
                seg = 0;
            }
        };
        frame.block = bb;
        frame.seg = seg;
        match exit {
            FrameExit::Call(callee) => {
                assert!(
                    stack.len() < MAX_DEPTH,
                    "call depth exceeded: recursive workload?"
                );
                let entry = prog.func(callee).entry;
                let cursor = (id.0 as u64) * 8191;
                stack.push(Frame::enter(callee, entry, cursor));
            }
            FrameExit::Ret => {
                stack.pop();
                if stack.is_empty() {
                    break StopReason::Finished;
                }
            }
            FrameExit::Stop(stop) => break stop,
        }
    };
    SliceOutcome {
        exec_cycles,
        stall_cycles,
        instrs,
        mem_accesses,
        mem_misses,
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::compile;
    use crate::thread::{SimThread, ThreadId};
    use astro_hw::cache::{CacheHierarchy, CacheParams};
    use astro_ir::{FunctionBuilder, MemBehavior, Module, Ty, Value};

    fn setup(build: impl FnOnce(&mut FunctionBuilder)) -> (CompiledProgram, SimThread) {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", Ty::Void);
        build(&mut b);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        let p = compile(&m).unwrap();
        let entry_bb = p.func(p.entry).entry;
        let t = SimThread::new(ThreadId(0), p.entry, entry_bb, None, 7);
        (p, t)
    }

    fn cache() -> CacheHierarchy {
        CacheHierarchy::new(CacheParams::L1_32K, CacheParams::L2_512K)
    }

    /// A finished slice's accounting, detached from its program.
    fn finished(o: SliceOutcome) -> SliceOutcome<'static> {
        assert_eq!(o.stop, StopReason::Finished);
        SliceOutcome {
            exec_cycles: o.exec_cycles,
            stall_cycles: o.stall_cycles,
            instrs: o.instrs,
            mem_accesses: o.mem_accesses,
            mem_misses: o.mem_misses,
            stop: StopReason::Finished,
        }
    }

    #[test]
    fn counted_loop_executes_exact_iterations() {
        let (p, mut t) = setup(|b| {
            b.counted_loop(100, |b| {
                b.fadd(Ty::F64, Value::float(0.0), Value::float(1.0));
            });
        });
        let spec = astro_hw::cores::CoreSpec::big_a15();
        let out = run_slice(
            &p,
            &mut t,
            &CoreCosts::new(&p, &spec),
            &mut cache(),
            f64::MAX,
        );
        assert_eq!(out.stop, StopReason::Finished);
        // Per iteration: fadd + iadd + icmp (latch) = 3 instrs + 1 branch.
        // Plus entry jump, exit-block terminator (ret), entry block br.
        // 100 * 4 + entry br + ret = 402.
        assert_eq!(out.instrs, 100 * 4 + 2);
    }

    #[test]
    fn big_little_gap_depends_on_workload_mix() {
        // The asymmetry the scheduler learns: FP-heavy compute gains a
        // lot from big cores; memory-bound streaming gains little,
        // because both cores wait on the same DRAM.
        let wall = |build: fn(&mut FunctionBuilder), spec: &astro_hw::cores::CoreSpec| {
            let (p, mut t) = setup(build);
            let o = run_slice(
                &p,
                &mut t,
                &CoreCosts::new(&p, spec),
                &mut cache(),
                f64::MAX,
            );
            o.total_cycles() / (spec.freq_ghz * 1e9)
        };
        let compute = |b: &mut FunctionBuilder| {
            b.counted_loop(1000, |b| {
                let x = b.fmul(Ty::F64, Value::float(1.1), Value::float(2.2));
                b.fadd(Ty::F64, x, x);
            });
        };
        let streaming = |b: &mut FunctionBuilder| {
            b.mem_behavior(MemBehavior::streaming(64 * 1024 * 1024));
            b.counted_loop(1000, |b| {
                b.load(Ty::F64);
            });
        };
        let big = astro_hw::cores::CoreSpec::big_a15();
        let little = astro_hw::cores::CoreSpec::little_a7();
        let fp_ratio = wall(compute, &little) / wall(compute, &big);
        let mem_ratio = wall(streaming, &little) / wall(streaming, &big);
        assert!(fp_ratio > 2.5, "FP gap should be large, got {fp_ratio:.2}");
        assert!(
            mem_ratio < fp_ratio * 0.75,
            "memory-bound gap ({mem_ratio:.2}) must be clearly below FP gap ({fp_ratio:.2})"
        );
        assert!(mem_ratio > 1.0, "big never loses outright");
    }

    #[test]
    fn budget_stops_mid_program() {
        let (p, mut t) = setup(|b| {
            b.counted_loop(1_000_000, |b| {
                b.iadd(Ty::I64, Value::int(0), Value::int(1));
            });
        });
        let spec = astro_hw::cores::CoreSpec::big_a15();
        let out = run_slice(&p, &mut t, &CoreCosts::new(&p, &spec), &mut cache(), 1000.0);
        assert_eq!(out.stop, StopReason::Budget);
        assert!(out.total_cycles() >= 1000.0);
        assert!(out.total_cycles() < 5000.0, "overshoot bounded");
        // Resuming finishes the job with the remaining iterations.
        let out2 = run_slice(
            &p,
            &mut t,
            &CoreCosts::new(&p, &spec),
            &mut cache(),
            f64::MAX,
        );
        assert_eq!(out2.stop, StopReason::Finished);
    }

    #[test]
    fn engine_call_surfaces_with_position_advanced() {
        let (p, mut t) = setup(|b| {
            b.load(Ty::I64);
            b.call_lib(LibCall::Sleep, &[Value::int(123)]);
            b.load(Ty::I64);
        });
        let spec = astro_hw::cores::CoreSpec::big_a15();
        let out = run_slice(
            &p,
            &mut t,
            &CoreCosts::new(&p, &spec),
            &mut cache(),
            f64::MAX,
        );
        match out.stop {
            StopReason::EngineCall { callee, imms } => {
                assert_eq!(callee, LibCall::Sleep);
                assert_eq!(imms, &[123]);
            }
            ref s => panic!("expected engine call, got {s:?}"),
        }
        // Continue: the remaining load then finish.
        let out2 = run_slice(
            &p,
            &mut t,
            &CoreCosts::new(&p, &spec),
            &mut cache(),
            f64::MAX,
        );
        assert_eq!(out2.stop, StopReason::Finished);
        assert_eq!(out2.mem_accesses, 1);
    }

    #[test]
    fn large_working_set_stalls_more() {
        let run_ws = |ws: u64| {
            let mut m = Module::new("t");
            let mut b = FunctionBuilder::new("main", Ty::Void);
            b.mem_behavior(MemBehavior::random(ws));
            b.counted_loop(20_000, |b| {
                b.load(Ty::I64);
            });
            b.ret(None);
            let f = m.add_function(b.finish());
            m.set_entry(f);
            let p = compile(&m).unwrap();
            let mut t = SimThread::new(ThreadId(0), p.entry, astro_ir::BlockId(0), None, 3);
            let spec = astro_hw::cores::CoreSpec::big_a15();
            finished(run_slice(
                &p,
                &mut t,
                &CoreCosts::new(&p, &spec),
                &mut cache(),
                f64::MAX,
            ))
        };
        let small = run_ws(8 * 1024); // fits L1
        let large = run_ws(8 * 1024 * 1024); // blows both levels
        assert!(small.stall_cycles < large.stall_cycles / 4.0);
        assert!(large.mem_misses > small.mem_misses * 10);
    }

    #[test]
    fn direct_calls_push_and_pop_frames() {
        let mut m = Module::new("t");
        let mut leaf = FunctionBuilder::new("leaf", Ty::Void);
        leaf.counted_loop(5, |b| {
            b.iadd(Ty::I64, Value::int(1), Value::int(2));
        });
        leaf.ret(None);
        let leaf_id = m.add_function(leaf.finish());
        let mut main = FunctionBuilder::new("main", Ty::Void);
        main.call(leaf_id, &[]);
        main.call(leaf_id, &[]);
        main.ret(None);
        let main_id = m.add_function(main.finish());
        m.set_entry(main_id);
        let p = compile(&m).unwrap();
        let mut t = SimThread::new(ThreadId(0), main_id, astro_ir::BlockId(0), None, 5);
        let spec = astro_hw::cores::CoreSpec::big_a15();
        let out = run_slice(
            &p,
            &mut t,
            &CoreCosts::new(&p, &spec),
            &mut cache(),
            f64::MAX,
        );
        assert_eq!(out.stop, StopReason::Finished);
        assert!(t.stack.is_empty());
        // Each leaf call: 5*(iadd+latch add+cmp+branch) + entry br + ret ≈
        // instrs > 40 total across two calls; just sanity-check both ran.
        assert!(out.instrs > 40);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (p, mut t) = setup(|b| {
                b.prob_loop(0.99, |b| {
                    b.load(Ty::F64);
                    b.if_else(
                        0.3,
                        |b| {
                            b.fadd(Ty::F64, Value::float(0.0), Value::float(1.0));
                        },
                        |b| {
                            b.imul(Ty::I64, Value::int(2), Value::int(3));
                        },
                    );
                });
            });
            let spec = astro_hw::cores::CoreSpec::big_a15();
            finished(run_slice(
                &p,
                &mut t,
                &CoreCosts::new(&p, &spec),
                &mut cache(),
                f64::MAX,
            ))
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
