//! Engine golden: a frozen FNV-1a digest of every `RunResult` field for
//! the fleet's tenant pool on every board, under GTS at the full
//! configuration (with a power probe attached) and pinned to a narrow
//! configuration, plus static Astro binaries that switch configurations
//! through `AstroSetConfig`.
//!
//! The digests pin the cycle-accurate engine bit for bit: floats are
//! hashed through `to_bits`, and every counter, monitor sample, power
//! sample, configuration change, migration and the time-out flag feed
//! the hash. A hot-path change to the interpreter, the cache model or
//! the event loop must leave every digest unchanged.

use astro_compiler::codegen::{CodegenMode, FinalCodegen};
use astro_compiler::phase::PhaseMap;
use astro_exec::machine::{Machine, MachineParams};
use astro_exec::program::compile;
use astro_exec::result::RunResult;
use astro_exec::runtime::{NullHooks, StaticBinaryHooks};
use astro_exec::sched::affinity::AffinityScheduler;
use astro_exec::sched::gts::GtsScheduler;
use astro_exec::time::SimTime;
use astro_hw::boards::BoardSpec;
use astro_hw::config::HwConfig;
use astro_workloads::InputSize;

/// The fleet figures' tenant pool (`astro_bench::figs::fleet::tenant_pool`).
const POOL: [&str; 8] = [
    "swaptions",
    "blackscholes",
    "hotspot",
    "bfs",
    "streamcluster",
    "fluidanimate",
    "sradv2",
    "vips",
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.f64(r.wall_time_s);
    h.f64(r.cpu_time_s);
    h.f64(r.energy_j);
    h.u64(r.instructions);
    let c = r.counters;
    for v in [
        c.instructions,
        c.busy_cycles,
        c.capacity_cycles,
        c.cache_accesses,
        c.cache_misses,
    ] {
        h.u64(v);
    }
    h.u64(r.checkpoints.len() as u64);
    for s in &r.checkpoints {
        h.u64(s.t.0);
        h.u64(s.config.little as u64);
        h.u64(s.config.big as u64);
        h.u64(s.config_idx as u64);
        h.u64(s.program_phase.index() as u64);
        h.u64(s.hw_phase.index() as u64);
        let d = s.delta;
        for v in [
            d.instructions,
            d.busy_cycles,
            d.capacity_cycles,
            d.cache_accesses,
            d.cache_misses,
        ] {
            h.u64(v);
        }
        h.f64(s.energy_delta_j);
        h.f64(s.watts);
        h.f64(s.mips);
    }
    h.u64(r.power_samples.len() as u64);
    for p in &r.power_samples {
        h.f64(p.t_s);
        h.f64(p.power_w);
        h.bytes(p.tag.as_bytes());
        h.bytes(&[0]);
    }
    h.u64(r.config_changes as u64);
    h.u64(r.migrations as u64);
    h.u64(r.timed_out as u64);
    h.0
}

/// The fleet's millisecond-scale engine parameters (`FleetParams::new`).
fn params(seed: u64) -> MachineParams {
    MachineParams {
        checkpoint_interval: SimTime::from_micros(400.0),
        balance_interval: SimTime::from_micros(100.0),
        timeslice: SimTime::from_micros(400.0),
        min_config_dwell: SimTime::from_micros(800.0),
        seed,
        ..MachineParams::default()
    }
}

fn boards() -> [(&'static str, BoardSpec); 3] {
    [
        ("xu4", BoardSpec::odroid_xu4()),
        ("rk3399", BoardSpec::rk3399()),
        ("tk1", BoardSpec::jetson_tk1()),
    ]
}

/// Compare the computed digests against the frozen table; on any
/// difference, print the whole table as computed, ready to freeze.
fn check(golden: &[(&str, u64)], actual: &[(String, u64)]) {
    let same = golden.len() == actual.len()
        && golden
            .iter()
            .zip(actual)
            .all(|((gname, gd), (name, d))| gname == name && gd == d);
    let table: Vec<String> = actual
        .iter()
        .map(|(name, d)| {
            let mark = match golden.iter().find(|(g, _)| g == name) {
                Some((_, gd)) if gd == d => "",
                _ => "  // moved",
            };
            format!("    (\"{name}\", 0x{d:016x}),{mark}")
        })
        .collect();
    assert!(same, "engine digests moved:\n{}", table.join("\n"));
}

#[test]
fn tenant_pool_runs_match_frozen_digests() {
    let narrow = HwConfig::new(1, 1);
    let mut actual = Vec::new();
    for (bname, board) in boards() {
        for name in POOL {
            let w = astro_workloads::by_name(name).expect("pool workload");
            let prog = compile(&(w.build)(InputSize::Test)).expect("compiles");

            let probed = Machine::new(
                &board,
                MachineParams {
                    probe_rate_hz: Some(20_000.0),
                    ..params(11)
                },
            );
            let gts = probed.run(
                &prog,
                &mut GtsScheduler::default(),
                &mut NullHooks,
                board.config_space().full(),
            );
            assert!(!gts.power_samples.is_empty(), "probe attached");
            actual.push((format!("{bname}/{name}/gts"), digest(&gts)));

            let pinned = Machine::new(&board, params(29)).run(
                &prog,
                &mut AffinityScheduler,
                &mut NullHooks,
                narrow,
            );
            actual.push((format!("{bname}/{name}/pinned"), digest(&pinned)));
        }
    }
    check(POOL_GOLDEN, &actual);
}

/// Longer runs: the pool at `SimSmall` under GTS, so caches wrap and
/// evict, threads migrate and the monitor fires many times.
#[test]
fn simsmall_gts_runs_match_frozen_digests() {
    let board = BoardSpec::odroid_xu4();
    let machine = Machine::new(&board, params(3));
    let mut actual = Vec::new();
    for name in POOL {
        let w = astro_workloads::by_name(name).expect("pool workload");
        let prog = compile(&(w.build)(InputSize::SimSmall)).expect("compiles");
        let r = machine.run(
            &prog,
            &mut GtsScheduler::default(),
            &mut NullHooks,
            board.config_space().full(),
        );
        actual.push((format!("xu4/{name}/simsmall"), digest(&r)));
    }
    check(SIMSMALL_GOLDEN, &actual);
}

#[test]
fn static_binaries_switching_configs_match_frozen_digests() {
    let board = BoardSpec::odroid_xu4();
    let mut actual = Vec::new();
    for (name, table) in [("bfs", [3, 19, 8, 23]), ("fluidanimate", [23, 4, 14, 0])] {
        let w = astro_workloads::by_name(name).expect("pool workload");
        let mut m = (w.build)(InputSize::Test);
        let phases = PhaseMap::compute(&m);
        assert!(FinalCodegen::new(CodegenMode::Static, table).run(&mut m, &phases) > 0);
        let prog = compile(&m).expect("compiles");
        let machine = Machine::new(
            &board,
            MachineParams {
                probe_rate_hz: Some(20_000.0),
                ..params(5)
            },
        );
        let r = machine.run(
            &prog,
            &mut AffinityScheduler,
            &mut StaticBinaryHooks {
                space: board.config_space(),
            },
            board.config_space().full(),
        );
        assert!(r.config_changes > 0, "{name}: the static binary switched");
        actual.push((format!("xu4/{name}/static"), digest(&r)));
    }
    check(STATIC_GOLDEN, &actual);
}

/// Derived on the engine before its hot-path rewrite.
const POOL_GOLDEN: &[(&str, u64)] = &[
    ("xu4/swaptions/gts", 0xe09c68fdb1979485),
    ("xu4/swaptions/pinned", 0x62517ffd908ef9d3),
    ("xu4/blackscholes/gts", 0x82c166744896a83a),
    ("xu4/blackscholes/pinned", 0x30e45821b948d89d),
    ("xu4/hotspot/gts", 0xf09ea994ac864338),
    ("xu4/hotspot/pinned", 0x4dd7013bf1eb9ee9),
    ("xu4/bfs/gts", 0x9cc1b290d1ce7a7d),
    ("xu4/bfs/pinned", 0xf90ec520ea667d5a),
    ("xu4/streamcluster/gts", 0xda8213a6c622506e),
    ("xu4/streamcluster/pinned", 0xc9a6794220a68167),
    ("xu4/fluidanimate/gts", 0x583403246630819f),
    ("xu4/fluidanimate/pinned", 0x6d5b9551ea444b33),
    ("xu4/sradv2/gts", 0xdf1ebe80f65981a0),
    ("xu4/sradv2/pinned", 0xd077f4ec9cbf05aa),
    ("xu4/vips/gts", 0x94011a0d8a70d764),
    ("xu4/vips/pinned", 0xdb8831290932b351),
    ("rk3399/swaptions/gts", 0xab4c4ce67c4c3ec2),
    ("rk3399/swaptions/pinned", 0x81a3b26b42570f23),
    ("rk3399/blackscholes/gts", 0x32f80b622a03b0ef),
    ("rk3399/blackscholes/pinned", 0x1b8fcdcc13632534),
    ("rk3399/hotspot/gts", 0xd4a575d433baa4fc),
    ("rk3399/hotspot/pinned", 0x203c1a6c72096a13),
    ("rk3399/bfs/gts", 0x54242158d6efbe33),
    ("rk3399/bfs/pinned", 0xe8934ce13cb71428),
    ("rk3399/streamcluster/gts", 0xb496d0e5759d6acf),
    ("rk3399/streamcluster/pinned", 0xda803730910691a4),
    ("rk3399/fluidanimate/gts", 0x8e06f15b5b6879dd),
    ("rk3399/fluidanimate/pinned", 0x1cc5f477d1194906),
    ("rk3399/sradv2/gts", 0x13cf0dcccf48ac4e),
    ("rk3399/sradv2/pinned", 0x20a8ed369e830822),
    ("rk3399/vips/gts", 0x125ba2fca06603e0),
    ("rk3399/vips/pinned", 0x0ddb3e940eeb05ae),
    ("tk1/swaptions/gts", 0x4c84a4cafba98816),
    ("tk1/swaptions/pinned", 0x62517ffd908ef9d3),
    ("tk1/blackscholes/gts", 0x1d61a3b69f327887),
    ("tk1/blackscholes/pinned", 0x30e45821b948d89d),
    ("tk1/hotspot/gts", 0xadab4e59ce1ae80f),
    ("tk1/hotspot/pinned", 0x4dd7013bf1eb9ee9),
    ("tk1/bfs/gts", 0x57fc1e67043dbb45),
    ("tk1/bfs/pinned", 0xa7fd433560e78e8f),
    ("tk1/streamcluster/gts", 0x13303d8c1329fe77),
    ("tk1/streamcluster/pinned", 0xc9a6794220a68167),
    ("tk1/fluidanimate/gts", 0x98bbab93d10cfd00),
    ("tk1/fluidanimate/pinned", 0x6d5b9551ea444b33),
    ("tk1/sradv2/gts", 0x11676e14d114f067),
    ("tk1/sradv2/pinned", 0x76a76ce1a786fea6),
    ("tk1/vips/gts", 0x34670d8784884278),
    ("tk1/vips/pinned", 0xdb8831290932b351),
];

/// Derived on the engine before its hot-path rewrite.
const STATIC_GOLDEN: &[(&str, u64)] = &[
    ("xu4/bfs/static", 0xabaa2a998c2000b5),
    ("xu4/fluidanimate/static", 0xcd0a8a7ad5966449),
];

/// Derived on the engine before its hot-path rewrite.
const SIMSMALL_GOLDEN: &[(&str, u64)] = &[
    ("xu4/swaptions/simsmall", 0x5f93ae09fb0ce8e2),
    ("xu4/blackscholes/simsmall", 0x7477cf7a251d0f30),
    ("xu4/hotspot/simsmall", 0xd9de8a1bf5f60a70),
    ("xu4/bfs/simsmall", 0xdc76284abd0c7144),
    ("xu4/streamcluster/simsmall", 0xbc2d61a8e5fc56a7),
    ("xu4/fluidanimate/simsmall", 0x2881da43aa7c0e36),
    ("xu4/sradv2/simsmall", 0xa16c110471a9b2e1),
    ("xu4/vips/simsmall", 0xf31b442d6580758d),
];
