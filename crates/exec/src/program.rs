//! Program compilation: lowering the IR into the engine's executable form.
//!
//! The engine executes programs *behaviourally*: what matters per basic
//! block is the instruction mix (costed against a core's CPI table), the
//! number of memory accesses (driven through the cache model), and the
//! exact positions of calls the engine must handle one-by-one (blocking
//! library calls, Astro intrinsics, direct calls). Compilation
//! precomputes exactly that, so the hot simulation loop never touches
//! the IR again.

use crate::thread::AddrGen;
use astro_ir::{
    BlockId, BranchBehavior, FunctionId, InstrClass, InstrKind, LibCall, Module, Terminator,
    VerifyError,
};

/// Number of [`InstrClass`] variants (indexing for count arrays).
pub const NUM_CLASSES: usize = 7;

/// Dense index of an instruction class.
#[inline]
pub fn class_index(c: InstrClass) -> usize {
    match c {
        InstrClass::IntAlu => 0,
        InstrClass::IntMulDiv => 1,
        InstrClass::FpAlu => 2,
        InstrClass::FpMulDiv => 3,
        InstrClass::Mem => 4,
        InstrClass::Control => 5,
        InstrClass::CallOverhead => 6,
    }
}

/// A straight-line run of instructions the engine can cost in one gulp.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkChunk {
    /// Instruction count per [`InstrClass`] (see [`class_index`]).
    pub class_counts: [u32; NUM_CLASSES],
    /// Total instructions in the chunk.
    pub instrs: u32,
    /// Cache accesses to synthesise (one per memory instruction).
    pub mem_ops: u32,
    /// Dense index of the chunk in its program, in `0..num_chunks`:
    /// the engine precomputes each chunk's cycles per core kind.
    pub id: u32,
}

impl WorkChunk {
    fn add(&mut self, class: InstrClass) {
        self.class_counts[class_index(class)] += 1;
        self.instrs += 1;
        if class == InstrClass::Mem {
            self.mem_ops += 1;
        }
    }

    /// Is the chunk empty?
    pub fn is_empty(&self) -> bool {
        self.instrs == 0
    }
}

/// A call site the engine handles individually.
#[derive(Clone, Debug, PartialEq)]
pub enum CallSite {
    /// Direct call to another compiled function.
    Direct(FunctionId),
    /// Library/runtime call; `imms` holds the constant integer arguments
    /// in order (non-constant arguments appear as 0 — the behavioural
    /// engine only consumes compile-time immediates).
    Lib {
        /// The routine.
        callee: LibCall,
        /// Constant arguments (barrier ids, sleep durations, phase and
        /// configuration indices, spawn targets…).
        imms: Vec<i64>,
    },
}

/// One element of a compiled block.
#[derive(Clone, Debug, PartialEq)]
pub enum Segment {
    /// Cost-modelled straight-line work.
    Work(WorkChunk),
    /// An engine-handled call.
    Call(CallSite),
}

/// Compiled form of a terminator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CompiledTerm {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch with behavioural resolution.
    Branch {
        /// Taken edge.
        then_bb: BlockId,
        /// Fallthrough edge.
        else_bb: BlockId,
        /// How the engine resolves the branch.
        behavior: BranchBehavior,
    },
    /// Return from the function.
    Ret,
}

/// A compiled basic block.
#[derive(Clone, Debug)]
pub struct CompiledBlock {
    /// The block's segments in order.
    pub segments: Vec<Segment>,
    /// The terminator.
    pub term: CompiledTerm,
}

/// A compiled function.
#[derive(Clone, Debug)]
pub struct CompiledFunction {
    /// Source-level name (power-probe tags, debugging).
    pub name: String,
    /// Address-stream constants from the memory behaviour annotation.
    pub addr: AddrGen,
    /// Blocks, indexed by [`BlockId`].
    pub blocks: Vec<CompiledBlock>,
    /// Entry block.
    pub entry: BlockId,
}

/// A whole compiled program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Program name (from the module).
    pub name: String,
    /// Compiled functions, indexed by [`FunctionId`].
    pub funcs: Vec<CompiledFunction>,
    /// The entry function.
    pub entry: FunctionId,
    /// Number of [`WorkChunk`]s across all functions (their ids are
    /// `0..num_chunks`).
    pub num_chunks: u32,
}

/// Which library calls the engine must see individually: everything that
/// can block, spawn, or talk to the Astro runtime.
fn is_engine_call(lc: LibCall) -> bool {
    lc.blocking_kind().is_some()
        || lc.is_astro_intrinsic()
        || matches!(
            lc,
            LibCall::ThreadSpawn | LibCall::ThreadJoin | LibCall::MutexUnlock
        )
}

/// Compile a verified module.
pub fn compile(m: &Module) -> Result<CompiledProgram, VerifyError> {
    m.verify()?;
    let entry = m.entry.expect("verified module has entry");

    let mut num_chunks = 0u32;
    let mut push_work = |segments: &mut Vec<Segment>, chunk: WorkChunk| {
        segments.push(Segment::Work(WorkChunk {
            id: num_chunks,
            ..chunk
        }));
        num_chunks += 1;
    };
    let funcs = m
        .functions
        .iter()
        .map(|f| {
            let blocks = f
                .blocks
                .iter()
                .map(|b| {
                    let mut segments = Vec::new();
                    let mut chunk = WorkChunk::default();
                    for ins in &b.instrs {
                        match &ins.kind {
                            InstrKind::Call { callee, .. } => {
                                if !chunk.is_empty() {
                                    push_work(&mut segments, chunk);
                                    chunk = WorkChunk::default();
                                }
                                // The call instruction itself costs call
                                // overhead, folded into the next chunk.
                                chunk.add(InstrClass::CallOverhead);
                                push_work(&mut segments, chunk);
                                chunk = WorkChunk::default();
                                segments.push(Segment::Call(CallSite::Direct(*callee)));
                            }
                            InstrKind::CallLib { callee, args } if is_engine_call(*callee) => {
                                if !chunk.is_empty() {
                                    push_work(&mut segments, chunk);
                                    chunk = WorkChunk::default();
                                }
                                let imms = args
                                    .iter()
                                    .map(|a| {
                                        a.as_const_int().unwrap_or_else(|| {
                                            a.as_func_addr().map(|f| f.0 as i64).unwrap_or(0)
                                        })
                                    })
                                    .collect();
                                segments.push(Segment::Call(CallSite::Lib {
                                    callee: *callee,
                                    imms,
                                }));
                            }
                            _ => chunk.add(ins.opcode().class()),
                        }
                    }
                    if !chunk.is_empty() {
                        push_work(&mut segments, chunk);
                    }
                    let term = match &b.term {
                        Terminator::Br { target } => CompiledTerm::Jump(*target),
                        Terminator::CondBr {
                            then_bb,
                            else_bb,
                            behavior,
                            ..
                        } => CompiledTerm::Branch {
                            then_bb: *then_bb,
                            else_bb: *else_bb,
                            behavior: *behavior,
                        },
                        Terminator::Ret { .. } | Terminator::Unreachable => CompiledTerm::Ret,
                    };
                    CompiledBlock { segments, term }
                })
                .collect();
            CompiledFunction {
                name: f.name.clone(),
                addr: AddrGen::new(f.mem),
                blocks,
                entry: f.entry,
            }
        })
        .collect();

    Ok(CompiledProgram {
        name: m.name.clone(),
        funcs,
        entry,
        num_chunks,
    })
}

impl CompiledProgram {
    /// Compiled function by id.
    #[inline]
    pub fn func(&self, f: FunctionId) -> &CompiledFunction {
        &self.funcs[f.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_ir::{FunctionBuilder, Ty, Value};

    fn one_func_program(build: impl FnOnce(&mut FunctionBuilder)) -> CompiledProgram {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", Ty::Void);
        build(&mut b);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.set_entry(f);
        compile(&m).expect("compiles")
    }

    #[test]
    fn straight_line_folds_into_one_chunk() {
        let p = one_func_program(|b| {
            let x = b.load(Ty::F64);
            let y = b.fmul(Ty::F64, x, x);
            b.fadd(Ty::F64, y, y);
            b.store(Ty::F64, y);
        });
        let blk = &p.func(p.entry).blocks[0];
        assert_eq!(blk.segments.len(), 1);
        match &blk.segments[0] {
            Segment::Work(w) => {
                assert_eq!(w.instrs, 4);
                assert_eq!(w.mem_ops, 2);
                assert_eq!(w.class_counts[class_index(InstrClass::FpMulDiv)], 1);
                assert_eq!(w.class_counts[class_index(InstrClass::FpAlu)], 1);
                assert_eq!(w.class_counts[class_index(InstrClass::Mem)], 2);
            }
            s => panic!("expected work, got {s:?}"),
        }
        assert_eq!(blk.term, CompiledTerm::Ret);
    }

    #[test]
    fn blocking_call_splits_chunks() {
        let p = one_func_program(|b| {
            b.load(Ty::I64);
            b.call_lib(LibCall::Sleep, &[Value::int(250)]);
            b.load(Ty::I64);
        });
        let blk = &p.func(p.entry).blocks[0];
        // work, call, work
        assert_eq!(blk.segments.len(), 3);
        match &blk.segments[1] {
            Segment::Call(CallSite::Lib { callee, imms }) => {
                assert_eq!(*callee, LibCall::Sleep);
                assert_eq!(imms, &vec![250]);
            }
            s => panic!("expected lib call, got {s:?}"),
        }
    }

    #[test]
    fn non_blocking_lib_calls_fold_into_work() {
        let p = one_func_program(|b| {
            b.call_lib(LibCall::MathF64, &[]);
            b.call_lib(LibCall::Malloc, &[Value::int(64)]);
        });
        let blk = &p.func(p.entry).blocks[0];
        assert_eq!(blk.segments.len(), 1, "no engine call sites");
        match &blk.segments[0] {
            Segment::Work(w) => {
                assert_eq!(w.instrs, 2);
                assert_eq!(w.class_counts[class_index(InstrClass::FpMulDiv)], 1);
                assert_eq!(w.class_counts[class_index(InstrClass::CallOverhead)], 1);
            }
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn direct_calls_carry_overhead_then_site() {
        let mut m = Module::new("t");
        let mut callee = FunctionBuilder::new("leaf", Ty::Void);
        callee.ret(None);
        let leaf = m.add_function(callee.finish());
        let mut b = FunctionBuilder::new("main", Ty::Void);
        b.call(leaf, &[]);
        b.ret(None);
        let main = m.add_function(b.finish());
        m.set_entry(main);
        let p = compile(&m).unwrap();
        let blk = &p.func(main).blocks[0];
        // overhead chunk + direct call site
        assert_eq!(blk.segments.len(), 2);
        assert!(matches!(
            blk.segments[1],
            Segment::Call(CallSite::Direct(f)) if f == leaf
        ));
    }

    #[test]
    fn counted_loop_branch_compiled() {
        let p = one_func_program(|b| {
            b.counted_loop(17, |b| {
                b.load(Ty::F32);
            });
        });
        let body = &p.func(p.entry).blocks[1];
        match body.term {
            CompiledTerm::Branch { behavior, .. } => {
                assert_eq!(behavior, BranchBehavior::Counted(17));
            }
            t => panic!("expected branch, got {t:?}"),
        }
    }

    #[test]
    fn spawn_imm_is_function_id() {
        let mut m = Module::new("t");
        let mut w = FunctionBuilder::new("worker", Ty::Void);
        w.ret(None);
        let worker = m.add_function(w.finish());
        let mut b = FunctionBuilder::new("main", Ty::Void);
        b.call_lib(LibCall::ThreadSpawn, &[Value::func(worker)]);
        b.call_lib(LibCall::ThreadJoin, &[]);
        b.ret(None);
        let main = m.add_function(b.finish());
        m.set_entry(main);
        let p = compile(&m).unwrap();
        let blk = &p.func(main).blocks[0];
        match &blk.segments[0] {
            Segment::Call(CallSite::Lib { callee, imms }) => {
                assert_eq!(*callee, LibCall::ThreadSpawn);
                assert_eq!(imms[0], worker.0 as i64);
            }
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn chunk_ids_are_dense_in_program_order() {
        let mut m = Module::new("t");
        let mut leaf = FunctionBuilder::new("leaf", Ty::Void);
        leaf.counted_loop(3, |b| {
            b.load(Ty::I64);
        });
        leaf.ret(None);
        let leaf = m.add_function(leaf.finish());
        let mut b = FunctionBuilder::new("main", Ty::Void);
        b.load(Ty::I64);
        b.call(leaf, &[]);
        b.call_lib(LibCall::Sleep, &[Value::int(1)]);
        b.load(Ty::I64);
        b.ret(None);
        let main = m.add_function(b.finish());
        m.set_entry(main);
        let p = compile(&m).unwrap();
        let ids: Vec<u32> = p
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.segments)
            .filter_map(|s| match s {
                Segment::Work(w) => Some(w.id),
                Segment::Call(_) => None,
            })
            .collect();
        assert!(ids.len() > 3);
        assert_eq!(ids, (0..p.num_chunks).collect::<Vec<_>>());
    }

    #[test]
    fn invalid_module_rejected() {
        let m = Module::new("empty");
        assert!(compile(&m).is_err());
    }
}
