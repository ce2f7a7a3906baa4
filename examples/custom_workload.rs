//! Author a custom workload with the IR builder and inspect it through
//! Astro's compiler passes: mined features, phase classification, and
//! what the learning-mode instrumentation inserts.
//!
//! Run with: `cargo run --release --example custom_workload`

use astro::compiler::{extract_function_features, instrument_for_learning, PhaseMap};
use astro::ir::{printer, FunctionBuilder, LibCall, MemBehavior, Module, Ty, Value};
use std::f64::consts::PI;

fn main() {
    let mut module = Module::new("custom");

    // A memory-streaming stage.
    let mut copy = FunctionBuilder::new("stream_copy", Ty::Void);
    copy.mem_behavior(MemBehavior::streaming(16 * 1024 * 1024));
    copy.counted_loop(100_000, |b| {
        let x = b.load(Ty::I64);
        b.store(Ty::I64, x);
    });
    copy.ret(None);
    let copy_id = module.add_function(copy.finish());

    // A compute stage with a critical section.
    let mut crunch = FunctionBuilder::new("crunch", Ty::Void);
    crunch.counted_loop(50_000, |b| {
        let x = b.fmul(Ty::F64, Value::float(PI), Value::float(2.71));
        b.fadd(Ty::F64, x, x);
    });
    crunch.call_lib(LibCall::MutexLock, &[Value::int(0)]);
    crunch.store(Ty::I64, Value::int(1));
    crunch.call_lib(LibCall::MutexUnlock, &[Value::int(0)]);
    crunch.ret(None);
    let crunch_id = module.add_function(crunch.finish());

    let mut main_fn = FunctionBuilder::new("main", Ty::Void);
    main_fn.call_lib(LibCall::ReadFile, &[]);
    main_fn.call(copy_id, &[]);
    main_fn.call(crunch_id, &[]);
    main_fn.call_lib(LibCall::Sleep, &[Value::int(5_000)]);
    main_fn.ret(None);
    let main_id = module.add_function(main_fn.finish());
    module.set_entry(main_id);
    module.verify().expect("verifies");

    println!("== mined features & phases (§3.1.1) ==");
    let phases = PhaseMap::compute(&module);
    for (id, f) in module.iter() {
        let fv = extract_function_features(f);
        println!(
            "{:<12} io={:.2} mem={:.2} int={:.2} fp={:.2} locks={:.2} -> {}",
            f.name,
            fv.io_dens,
            fv.mem_dens,
            fv.int_dens,
            fv.fp_dens,
            fv.locks_dens,
            phases.phase(id)
        );
    }

    println!("\n== learning-mode instrumentation (Figure 8a) ==");
    let mut instrumented = module.clone();
    let report = instrument_for_learning(&mut instrumented, &phases);
    println!(
        "{} entry markers, {} toggle pairs inserted",
        report.entry_markers, report.toggle_pairs
    );
    println!("\n== instrumented main ==");
    let main_f = instrumented.function(instrumented.entry.unwrap());
    print!("{}", printer::print_function(main_f));
}
