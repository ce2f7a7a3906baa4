//! Structural verification of modules, the moral equivalent of LLVM's
//! `verifyModule`.

use crate::block::{BranchBehavior, Terminator};
use crate::function::{Function, FunctionId};
use crate::instruction::{InstrKind, Value};
use crate::module::Module;
use std::fmt;

/// A structural defect found by the verifier.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyError {
    /// The module has no entry function.
    NoEntry,
    /// The entry id is out of range.
    BadEntry(FunctionId),
    /// A block's terminator is still the `Unreachable` placeholder but the
    /// block is reachable (builder bug in workload code).
    UnterminatedBlock { func: String, block: u32 },
    /// A branch targets a block id outside the function.
    BadBranchTarget {
        func: String,
        block: u32,
        target: u32,
    },
    /// An instruction references an SSA value never defined.
    UndefinedValue {
        func: String,
        block: u32,
        value: u32,
    },
    /// An instruction references a parameter the function doesn't have.
    BadArgIndex { func: String, block: u32, arg: u32 },
    /// A direct call targets a function id outside the module.
    BadCallee { func: String, callee: u32 },
    /// A branch probability is outside `[0, 1]`.
    BadProbability { func: String, block: u32, p: f64 },
    /// `thread_spawn`'s first argument is not a function address.
    SpawnWithoutTarget { func: String, block: u32 },
    /// A spawned function expects parameters (spawned threads get none).
    SpawnTargetHasParams { func: String, target: String },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NoEntry => write!(f, "module has no entry function"),
            VerifyError::BadEntry(id) => write!(f, "entry {id} out of range"),
            VerifyError::UnterminatedBlock { func, block } => {
                write!(f, "{func}: bb{block} is reachable but unterminated")
            }
            VerifyError::BadBranchTarget {
                func,
                block,
                target,
            } => {
                write!(f, "{func}: bb{block} branches to nonexistent bb{target}")
            }
            VerifyError::UndefinedValue { func, block, value } => {
                write!(f, "{func}: bb{block} uses undefined value %{value}")
            }
            VerifyError::BadArgIndex { func, block, arg } => {
                write!(f, "{func}: bb{block} uses nonexistent parameter #{arg}")
            }
            VerifyError::BadCallee { func, callee } => {
                write!(f, "{func}: call to nonexistent function @f{callee}")
            }
            VerifyError::BadProbability { func, block, p } => {
                write!(
                    f,
                    "{func}: bb{block} has branch probability {p} outside [0,1]"
                )
            }
            VerifyError::SpawnWithoutTarget { func, block } => {
                write!(
                    f,
                    "{func}: bb{block} thread_spawn without function-address argument"
                )
            }
            VerifyError::SpawnTargetHasParams { func, target } => {
                write!(
                    f,
                    "{func}: thread_spawn target {target} must take no parameters"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify structural well-formedness of a whole module.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    let entry = m.entry.ok_or(VerifyError::NoEntry)?;
    if entry.0 as usize >= m.functions.len() {
        return Err(VerifyError::BadEntry(entry));
    }
    for f in &m.functions {
        verify_function(m, f)?;
    }
    Ok(())
}

fn check_value(f: &Function, block: u32, v: Value) -> Result<(), VerifyError> {
    match v {
        Value::Reg(id) if id.0 >= f.num_values => Err(VerifyError::UndefinedValue {
            func: f.name.clone(),
            block,
            value: id.0,
        }),
        Value::Arg(i) if i as usize >= f.params.len() => Err(VerifyError::BadArgIndex {
            func: f.name.clone(),
            block,
            arg: i,
        }),
        _ => Ok(()),
    }
}

fn verify_function(m: &Module, f: &Function) -> Result<(), VerifyError> {
    let nblocks = f.blocks.len() as u32;

    // Branch targets must be validated before building the CFG — the CFG
    // constructor indexes adjacency vectors by target id.
    for b in &f.blocks {
        for t in b.term.successors() {
            if t.0 >= nblocks {
                return Err(VerifyError::BadBranchTarget {
                    func: f.name.clone(),
                    block: b.id.0,
                    target: t.0,
                });
            }
        }
    }
    let cfg = crate::cfg::Cfg::new(f);

    for b in &f.blocks {
        let bid = b.id.0;
        // Instructions.
        for ins in &b.instrs {
            for v in ins.operands() {
                check_value(f, bid, v)?;
            }
            match &ins.kind {
                InstrKind::Call { callee, .. } if callee.0 as usize >= m.functions.len() => {
                    return Err(VerifyError::BadCallee {
                        func: f.name.clone(),
                        callee: callee.0,
                    });
                }
                InstrKind::CallLib { callee, args }
                    if *callee == crate::libcall::LibCall::ThreadSpawn =>
                {
                    let target = args.first().and_then(|a| a.as_func_addr());
                    match target {
                        None => {
                            return Err(VerifyError::SpawnWithoutTarget {
                                func: f.name.clone(),
                                block: bid,
                            })
                        }
                        Some(t) => {
                            if t.0 as usize >= m.functions.len() {
                                return Err(VerifyError::BadCallee {
                                    func: f.name.clone(),
                                    callee: t.0,
                                });
                            }
                            let tf = m.function(t);
                            if !tf.params.is_empty() {
                                return Err(VerifyError::SpawnTargetHasParams {
                                    func: f.name.clone(),
                                    target: tf.name.clone(),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // Terminator.
        match &b.term {
            Terminator::Br { target } => {
                if target.0 >= nblocks {
                    return Err(VerifyError::BadBranchTarget {
                        func: f.name.clone(),
                        block: bid,
                        target: target.0,
                    });
                }
            }
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                behavior,
            } => {
                check_value(f, bid, *cond)?;
                for t in [then_bb, else_bb] {
                    if t.0 >= nblocks {
                        return Err(VerifyError::BadBranchTarget {
                            func: f.name.clone(),
                            block: bid,
                            target: t.0,
                        });
                    }
                }
                if let BranchBehavior::Prob(p) = behavior {
                    if !(0.0..=1.0).contains(p) || p.is_nan() {
                        return Err(VerifyError::BadProbability {
                            func: f.name.clone(),
                            block: bid,
                            p: *p,
                        });
                    }
                }
            }
            Terminator::Ret { value } => {
                if let Some(v) = value {
                    check_value(f, bid, *v)?;
                }
            }
            Terminator::Unreachable => {
                if cfg.is_reachable(b.id) {
                    return Err(VerifyError::UnterminatedBlock {
                        func: f.name.clone(),
                        block: bid,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use crate::builder::FunctionBuilder;
    use crate::instruction::ValueId;
    use crate::libcall::LibCall;
    use crate::types::Ty;

    fn module_with(f: Function) -> Module {
        let mut m = Module::new("m");
        let id = m.add_function(f);
        m.set_entry(id);
        m
    }

    #[test]
    fn well_formed_module_verifies() {
        let mut b = FunctionBuilder::new("main", Ty::Void);
        b.counted_loop(4, |b| {
            b.load(Ty::F64);
        });
        b.ret(None);
        assert_eq!(module_with(b.finish()).verify(), Ok(()));
    }

    #[test]
    fn missing_entry_detected() {
        let m = Module::new("m");
        assert_eq!(m.verify(), Err(VerifyError::NoEntry));
    }

    #[test]
    fn unterminated_reachable_block_detected() {
        let mut b = FunctionBuilder::new("main", Ty::Void);
        let next = b.new_block("next");
        b.br(next);
        // `next` never gets a terminator.
        let m = module_with(b.finish());
        match m.verify() {
            Err(VerifyError::UnterminatedBlock { block, .. }) => assert_eq!(block, 1),
            other => panic!("expected UnterminatedBlock, got {other:?}"),
        }
    }

    #[test]
    fn dead_unterminated_block_allowed() {
        let mut b = FunctionBuilder::new("main", Ty::Void);
        b.new_block("dead");
        b.ret(None);
        assert_eq!(module_with(b.finish()).verify(), Ok(()));
    }

    #[test]
    fn bad_branch_target_detected() {
        let mut b = FunctionBuilder::new("main", Ty::Void);
        b.br(BlockId(99));
        let m = module_with(b.finish());
        assert!(matches!(
            m.verify(),
            Err(VerifyError::BadBranchTarget { target: 99, .. })
        ));
    }

    #[test]
    fn undefined_value_detected() {
        let mut b = FunctionBuilder::new("main", Ty::Void);
        b.store(Ty::I64, crate::Value::Reg(ValueId(1234)));
        b.ret(None);
        let m = module_with(b.finish());
        assert!(matches!(
            m.verify(),
            Err(VerifyError::UndefinedValue { value: 1234, .. })
        ));
    }

    #[test]
    fn spawn_requires_function_address() {
        let mut b = FunctionBuilder::new("main", Ty::Void);
        b.call_lib(LibCall::ThreadSpawn, &[crate::Value::int(1)]);
        b.ret(None);
        let m = module_with(b.finish());
        assert!(matches!(
            m.verify(),
            Err(VerifyError::SpawnWithoutTarget { .. })
        ));
    }

    #[test]
    fn spawn_target_must_take_no_params() {
        let mut m = Module::new("m");
        let mut w = FunctionBuilder::new("worker", Ty::Void);
        w.param(Ty::I64);
        w.ret(None);
        let worker = m.add_function(w.finish());

        let mut b = FunctionBuilder::new("main", Ty::Void);
        b.call_lib(LibCall::ThreadSpawn, &[crate::Value::func(worker)]);
        b.ret(None);
        let main = m.add_function(b.finish());
        m.set_entry(main);
        assert!(matches!(
            m.verify(),
            Err(VerifyError::SpawnTargetHasParams { .. })
        ));
    }

    #[test]
    fn nan_probability_detected() {
        let mut b = FunctionBuilder::new("main", Ty::Void);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let c = b.cmp(
            crate::CmpPred::Eq,
            Ty::I64,
            crate::Value::int(0),
            crate::Value::int(0),
        );
        b.cond_br(c, t, e, crate::BranchBehavior::Prob(f64::NAN));
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let m = module_with(b.finish());
        assert!(matches!(
            m.verify(),
            Err(VerifyError::BadProbability { .. })
        ));
    }
}
