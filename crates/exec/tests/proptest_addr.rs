//! The address generator's incremental offset against its closed form.
//!
//! Sequential and strided streams address
//! `base + (cursor.wrapping_mul(step)) % ws`; the engine keeps the
//! offset incrementally in the frame. Over random working sets,
//! strides and starting cursors (many seeded just below
//! `u64::MAX / step`, so the stream crosses the point where
//! `cursor · step` overflows and the generator must fall back to the
//! closed form, or just below `u64::MAX`, so the cursor wraps to 0),
//! every address must equal the closed form's.

use astro_exec::program::CompiledFunction;
use astro_exec::thread::{next_address, AddrGen, Frame};
use astro_ir::{BlockId, FunctionId, MemBehavior};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn func(mem: MemBehavior) -> CompiledFunction {
    CompiledFunction {
        name: "f".into(),
        addr: AddrGen::new(mem),
        blocks: vec![],
        entry: BlockId(0),
    }
}

/// Working sets from tiny to the full 64-bit range.
fn ws() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..4096,
        (6u32..40).prop_map(|k| 1u64 << k),
        4096u64..1 << 34,
        (0u64..1 << 20).prop_map(|d| u64::MAX - d),
        1u64 << 62..u64::MAX,
    ]
    .boxed()
}

/// Strides from 1 byte to beyond any working set.
fn stride() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..256,
        256u64..1 << 24,
        1u64 << 24..u64::MAX,
        (0u64..64).prop_map(|d| u64::MAX - d),
    ]
    .boxed()
}

/// Where the cursor starts, relative to the overflow point of `step`
/// (`which` picks: near `u64::MAX / step`, near `u64::MAX`, or small).
fn start(which: u64, step: u64, back: u64) -> u64 {
    match which {
        0 => (u64::MAX / step).saturating_sub(back),
        1 => u64::MAX - back,
        _ => back,
    }
}

fn check(mem: MemBehavior, step: u64, cursor: u64, fid: u32, n: usize) {
    let f = func(mem);
    let ws = mem.working_set.max(64);
    // Keep `base + offset` inside 64 bits for the widest working sets.
    let fid = if ws > u64::MAX >> 1 { 0 } else { fid };
    let base = (fid as u64) << 32;
    let mut frame = Frame::enter(FunctionId(fid), BlockId(0), cursor);
    let mut rng = SmallRng::seed_from_u64(0);
    let mut c = cursor;
    for i in 0..n {
        let want = base + (c.wrapping_mul(step)) % ws;
        let got = next_address(&f, &mut frame, &mut rng);
        assert_eq!(got, want, "access {i}: cursor {c:#x}, step {step}, ws {ws}");
        c = c.wrapping_add(1);
        assert_eq!(frame.mem_cursor, c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sequential_offset_matches_closed_form(
        ws in ws(),
        which in 0u64..3,
        back in 0u64..300,
        fid in 0u32..8,
    ) {
        check(MemBehavior::streaming(ws), 8, start(which, 8, back), fid, 600);
    }

    #[test]
    fn strided_offset_matches_closed_form(
        ws in ws(),
        stride in stride(),
        which in 0u64..3,
        back in 0u64..300,
        fid in 0u32..8,
    ) {
        let step = stride.max(1);
        check(MemBehavior::strided(ws, stride), step, start(which, step, back), fid, 600);
    }
}

#[test]
fn random_pattern_keeps_modulo_addressing() {
    // Random streams draw `rng % ws` per access, word-aligned.
    let ws = 12_345u64;
    let f = func(MemBehavior::random(ws));
    let mut frame = Frame::enter(FunctionId(3), BlockId(0), 0);
    let mut rng = SmallRng::seed_from_u64(9);
    let mut shadow = SmallRng::seed_from_u64(9);
    for _ in 0..1000 {
        use rand::Rng;
        let want = ((3u64 << 32) + shadow.gen::<u64>() % ws) & !7;
        assert_eq!(next_address(&f, &mut frame, &mut rng), want);
    }
}
