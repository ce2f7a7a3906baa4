//! Simulated threads: state machine, call stack, and the per-thread
//! address generator that drives the cache model.

use crate::program::CompiledFunction;
use astro_ir::{BlockId, FunctionId, MemBehavior, MemPattern};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Thread identifier (dense, assigned at spawn).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

/// Why a thread is blocked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for a device transfer (file/terminal).
    Io,
    /// Waiting for the network.
    Net,
    /// In a sleep call.
    Sleep,
    /// Waiting at barrier `id`.
    Barrier(i64),
    /// Waiting for mutex `id`.
    Lock(i64),
    /// Waiting for spawned children to finish.
    Join,
}

/// Thread lifecycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Waiting in a run queue.
    Runnable,
    /// Currently executing on a core.
    Running,
    /// Suspended.
    Blocked(BlockReason),
    /// Terminated.
    Finished,
}

/// One activation record.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The function being executed.
    pub func: FunctionId,
    /// Current block.
    pub block: BlockId,
    /// Next segment index within the block.
    pub seg: usize,
    /// Remaining back-edge counts of the counted loops in flight, as
    /// `(block id holding the branch, count)`. A handful at most (one
    /// per enclosing loop), so a linear probe beats hashing.
    pub loop_counters: Vec<(u32, u64)>,
    /// Sequential/strided address cursor for this activation.
    pub mem_cursor: u64,
    /// `(mem_cursor · step) % working set`, kept incrementally by
    /// [`next_address`] while `mem_cursor · step` cannot overflow;
    /// `None` until the first access and past that point.
    pub mem_offset: Option<u64>,
}

impl Frame {
    /// A frame positioned at a function's entry.
    pub fn enter(func: FunctionId, entry: BlockId, cursor_seed: u64) -> Self {
        Frame {
            func,
            block: entry,
            seg: 0,
            loop_counters: Vec::new(),
            mem_cursor: cursor_seed,
            mem_offset: None,
        }
    }
}

/// A simulated thread.
#[derive(Clone, Debug)]
pub struct SimThread {
    /// This thread's id.
    pub id: ThreadId,
    /// Lifecycle state.
    pub state: ThreadState,
    /// Call stack; empty ⇔ finished.
    pub stack: Vec<Frame>,
    /// Behavioural randomness (branch outcomes, random addresses);
    /// seeded per thread for determinism.
    pub rng: SmallRng,
    /// Spawning thread, if any.
    pub parent: Option<ThreadId>,
    /// Children still alive (join waits for zero).
    pub live_children: u32,
    /// Core currently/last hosting the thread.
    pub core: Option<usize>,
    /// GTS-style decayed busy fraction in `[0, 1]`.
    pub load: f64,
}

impl SimThread {
    /// Create a thread entering `func`.
    pub fn new(
        id: ThreadId,
        func: FunctionId,
        entry: BlockId,
        parent: Option<ThreadId>,
        seed: u64,
    ) -> Self {
        // Decorrelate per-thread streams; golden-ratio hashing of the id.
        let s = seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimThread {
            id,
            state: ThreadState::Runnable,
            stack: vec![Frame::enter(func, entry, (id.0 as u64) * 8191)],
            rng: SmallRng::seed_from_u64(s),
            parent,
            live_children: 0,
            core: None,
            load: 0.5, // unknown load starts mid-scale, like PELT's initial boost
        }
    }

    /// Is the thread done?
    pub fn finished(&self) -> bool {
        matches!(self.state, ThreadState::Finished)
    }
}

/// A function's address-stream constants, derived once from its
/// [`MemBehavior`] at compile time so the per-access path of
/// sequential and strided streams needs no division.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddrGen {
    /// Sequential (`step` 8) or strided walk: offset
    /// `(cursor · step) % ws`.
    Stepped {
        /// Working set in bytes (at least 64).
        ws: u64,
        /// Bytes per access (at least 1).
        step: u64,
        /// `step % ws`, the incremental offset advance.
        step_mod: u64,
        /// Largest cursor for which `cursor · step` does not overflow.
        max_cursor: u64,
    },
    /// Uniformly random word over the working set.
    Random {
        /// Working set in bytes (at least 64).
        ws: u64,
    },
}

impl AddrGen {
    /// Constants for a function with memory behaviour `mem`.
    pub fn new(mem: MemBehavior) -> Self {
        let ws = mem.working_set.max(64);
        let step = match mem.pattern {
            MemPattern::Sequential => 8,
            MemPattern::Strided { stride } => stride.max(1),
            MemPattern::Random => return AddrGen::Random { ws },
        };
        AddrGen::Stepped {
            ws,
            step,
            step_mod: step % ws,
            max_cursor: u64::MAX / step,
        }
    }
}

/// Synthesise the next memory address for a frame executing `func`.
///
/// Every function owns a disjoint region (its id shifted high), shared by
/// all threads running it — data-parallel workers stream the same arrays
/// at thread-dependent offsets, which is what makes the shared-L2
/// contention model meaningful.
///
/// Sequential and strided streams address `(cursor.wrapping_mul(step))
/// % ws`. The frame keeps that offset incrementally (add `step % ws`,
/// subtract `ws` on wrap) while `cursor · step` fits in 64 bits, and
/// falls back to the closed form past that point, so every address is
/// exactly the closed form's.
#[inline]
pub fn next_address(func: &CompiledFunction, frame: &mut Frame, rng: &mut SmallRng) -> u64 {
    let base = (frame.func.0 as u64) << 32;
    match func.addr {
        AddrGen::Stepped {
            ws,
            step,
            step_mod,
            max_cursor,
        } => {
            let cursor = frame.mem_cursor;
            let off = frame
                .mem_offset
                .unwrap_or_else(|| cursor.wrapping_mul(step) % ws);
            frame.mem_cursor = cursor.wrapping_add(1);
            frame.mem_offset = (cursor < max_cursor).then(|| {
                if off >= ws - step_mod {
                    off - (ws - step_mod)
                } else {
                    off + step_mod
                }
            });
            base + off
        }
        AddrGen::Random { ws } => (base + rng.gen::<u64>() % ws) & !7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cf(mem: MemBehavior) -> CompiledFunction {
        CompiledFunction {
            name: "f".into(),
            addr: AddrGen::new(mem),
            blocks: vec![],
            entry: BlockId(0),
        }
    }

    #[test]
    fn new_thread_starts_runnable_at_entry() {
        let t = SimThread::new(ThreadId(0), FunctionId(3), BlockId(0), None, 42);
        assert_eq!(t.state, ThreadState::Runnable);
        assert_eq!(t.stack.len(), 1);
        assert_eq!(t.stack[0].func, FunctionId(3));
        assert!(!t.finished());
    }

    #[test]
    fn sequential_addresses_advance_by_word() {
        let f = cf(MemBehavior::streaming(1 << 20));
        let mut frame = Frame::enter(FunctionId(1), BlockId(0), 0);
        let mut rng = SmallRng::seed_from_u64(0);
        let a0 = next_address(&f, &mut frame, &mut rng);
        let a1 = next_address(&f, &mut frame, &mut rng);
        assert_eq!(a1 - a0, 8);
    }

    #[test]
    fn sequential_wraps_at_working_set() {
        let f = cf(MemBehavior::streaming(64));
        let mut frame = Frame::enter(FunctionId(1), BlockId(0), 0);
        let mut rng = SmallRng::seed_from_u64(0);
        let first = next_address(&f, &mut frame, &mut rng);
        for _ in 0..7 {
            next_address(&f, &mut frame, &mut rng);
        }
        let wrapped = next_address(&f, &mut frame, &mut rng);
        assert_eq!(first, wrapped, "8 words of 8 bytes wrap a 64-byte set");
    }

    #[test]
    fn random_addresses_stay_in_region() {
        let f = cf(MemBehavior::random(4096));
        let mut frame = Frame::enter(FunctionId(7), BlockId(0), 0);
        let mut rng = SmallRng::seed_from_u64(1);
        let base = 7u64 << 32;
        for _ in 0..100 {
            let a = next_address(&f, &mut frame, &mut rng);
            assert!(a >= base && a < base + 4096);
        }
    }

    #[test]
    fn functions_get_disjoint_regions() {
        let f1 = cf(MemBehavior::streaming(1 << 20));
        let mut fr1 = Frame::enter(FunctionId(1), BlockId(0), 0);
        let mut fr2 = Frame::enter(FunctionId(2), BlockId(0), 0);
        let mut rng = SmallRng::seed_from_u64(0);
        let a1 = next_address(&f1, &mut fr1, &mut rng);
        let a2 = next_address(&f1, &mut fr2, &mut rng);
        assert_ne!(a1 >> 32, a2 >> 32);
    }

    #[test]
    fn threads_seeded_distinctly() {
        let mut t0 = SimThread::new(ThreadId(0), FunctionId(0), BlockId(0), None, 9);
        let mut t1 = SimThread::new(ThreadId(1), FunctionId(0), BlockId(0), None, 9);
        let x0: u64 = t0.rng.gen();
        let x1: u64 = t1.rng.gen();
        assert_ne!(x0, x1);
    }
}
