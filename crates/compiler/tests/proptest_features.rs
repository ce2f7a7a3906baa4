//! Property tests for feature mining and phase classification: invariants
//! that must hold for *any* generated function.

use astro_compiler::{classify, extract_function_features, PhaseMap, ProgramPhase};
use astro_ir::{FunctionBuilder, LibCall, Module, Ty, Value};
use proptest::prelude::*;

/// Instruction recipes the generator can emit.
#[derive(Clone, Copy, Debug)]
enum Item {
    Load,
    Store,
    IntOp,
    FpOp,
    IoCall,
    Lock,
    Barrier,
    Sleep,
    Net,
    Math,
}

fn item_strategy() -> impl Strategy<Value = Item> {
    prop_oneof![
        Just(Item::Load),
        Just(Item::Store),
        Just(Item::IntOp),
        Just(Item::FpOp),
        Just(Item::IoCall),
        Just(Item::Lock),
        Just(Item::Barrier),
        Just(Item::Sleep),
        Just(Item::Net),
        Just(Item::Math),
    ]
}

fn emit(b: &mut FunctionBuilder, item: Item) {
    match item {
        Item::Load => {
            b.load(Ty::I64);
        }
        Item::Store => b.store(Ty::I64, Value::int(1)),
        Item::IntOp => {
            b.iadd(Ty::I64, Value::int(1), Value::int(2));
        }
        Item::FpOp => {
            b.fmul(Ty::F64, Value::float(1.0), Value::float(2.0));
        }
        Item::IoCall => {
            b.call_lib(LibCall::ReadFile, &[]);
        }
        Item::Lock => {
            b.call_lib(LibCall::MutexLock, &[Value::int(0)]);
        }
        Item::Barrier => {
            b.call_lib(LibCall::BarrierWait, &[Value::int(0)]);
        }
        Item::Sleep => {
            b.call_lib(LibCall::Sleep, &[Value::int(10)]);
        }
        Item::Net => {
            b.call_lib(LibCall::NetRecv, &[]);
        }
        Item::Math => {
            b.call_lib(LibCall::MathF64, &[]);
        }
    }
}

fn build(items: &[Item], depth: u8) -> astro_ir::Function {
    let mut b = FunctionBuilder::new("f", Ty::Void);
    match depth {
        0 => {
            for &i in items {
                emit(&mut b, i);
            }
        }
        1 => {
            b.counted_loop(4, |b| {
                for &i in items {
                    emit(b, i);
                }
            });
        }
        _ => {
            b.counted_loop(4, |b| {
                b.counted_loop(4, |b| {
                    for &i in items {
                        emit(b, i);
                    }
                });
            });
        }
    }
    b.ret(None);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Densities are fractions: in [0, 1], and disjoint classes sum ≤ 1.
    #[test]
    fn densities_are_fractions(items in prop::collection::vec(item_strategy(), 1..40),
                               depth in 0u8..3) {
        let f = build(&items, depth);
        let fv = extract_function_features(&f);
        for d in [fv.io_dens, fv.mem_dens, fv.int_dens, fv.fp_dens, fv.locks_dens] {
            prop_assert!((0.0..=1.0).contains(&d), "density {d} out of range");
        }
        prop_assert!(fv.io_dens + fv.mem_dens + fv.int_dens + fv.fp_dens <= 1.0 + 1e-9);
        prop_assert!(fv.arith_density <= 1.0 + 1e-9);
    }

    /// Dormant flags fire iff the corresponding call is present.
    #[test]
    fn dormant_flags_iff_calls(items in prop::collection::vec(item_strategy(), 1..40),
                               depth in 0u8..3) {
        let f = build(&items, depth);
        let fv = extract_function_features(&f);
        let has = |p: fn(&Item) -> bool| items.iter().any(p);
        prop_assert_eq!(fv.barrier, has(|i| matches!(i, Item::Barrier)));
        prop_assert_eq!(fv.sleep, has(|i| matches!(i, Item::Sleep)));
        prop_assert_eq!(fv.net, has(|i| matches!(i, Item::Net)));
    }

    /// The paper's classification rules, restated independently, agree
    /// with the implementation for any feature vector the miner produces.
    #[test]
    fn classification_matches_rules(items in prop::collection::vec(item_strategy(), 1..40),
                                    depth in 0u8..3) {
        let f = build(&items, depth);
        let fv = extract_function_features(&f);
        let blocked = fv.barrier || fv.net || fv.sleep || fv.locks_dens > 0.5;
        let expected = if blocked {
            ProgramPhase::Blocked
        } else if fv.io_dens + fv.mem_dens > 0.5 && fv.locks_dens == 0.0 {
            ProgramPhase::IoBound
        } else if fv.int_dens + fv.fp_dens > 0.5 {
            ProgramPhase::CpuBound
        } else {
            ProgramPhase::Other
        };
        prop_assert_eq!(classify(&fv), expected);
    }

    /// Instrumenting then stripping leaves features untouched (full
    /// round-trip through the compiler pipeline).
    #[test]
    fn instrument_strip_feature_roundtrip(items in prop::collection::vec(item_strategy(), 1..25),
                                          depth in 0u8..3) {
        let mut m = Module::new("m");
        let id = m.add_function(build(&items, depth));
        m.set_entry(id);
        let before = extract_function_features(m.function(id));
        let phases = PhaseMap::compute(&m);
        astro_compiler::instrument_for_learning(&mut m, &phases);
        astro_compiler::FinalCodegen::new(
            astro_compiler::CodegenMode::Hybrid,
            [0; 4],
        ).run(&mut m, &phases);
        astro_compiler::strip_astro_instrumentation(&mut m);
        let after = extract_function_features(m.function(id));
        prop_assert_eq!(before, after);
    }

    /// Nesting factor equals the generator's loop depth.
    #[test]
    fn nesting_factor_matches_depth(items in prop::collection::vec(item_strategy(), 1..10),
                                    depth in 0u8..3) {
        let f = build(&items, depth);
        let fv = extract_function_features(&f);
        prop_assert_eq!(fv.nesting_factor, depth as u32);
    }
}
