//! Criterion micro-benchmarks for the hot components of the stack:
//! the interpreter, the cache model, the Q-agent, a whole-machine
//! end-to-end run, and the parallel experiment driver.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use astro_core::reward::RewardParams;
use astro_core::state::AstroStateSpace;
use astro_exec::machine::{Machine, MachineParams};
use astro_exec::program::compile;
use astro_exec::runtime::NullHooks;
use astro_exec::sched::affinity::AffinityScheduler;
use astro_exec::time::SimTime;
use astro_hw::boards::BoardSpec;
use astro_hw::cache::{CacheHierarchy, CacheParams};
use astro_hw::config::HwConfig;
use astro_rl::nn::{Activation, Mlp, Optimizer};
use astro_rl::qlearn::{QAgent, QConfig};
use astro_rl::replay::Experience;
use astro_workloads::InputSize;

fn bench_nn(c: &mut Criterion) {
    let mut net = Mlp::new(&[40, 64, 32, 24], Activation::Relu, 1);
    let x: Vec<f64> = (0..40).map(|i| (i % 2) as f64).collect();
    c.bench_function("nn_forward_40x64x32x24", |b| {
        b.iter(|| black_box(net.forward_inference(black_box(&x))))
    });
    let target: Vec<f64> = (0..24).map(|i| i as f64 / 24.0).collect();
    c.bench_function("nn_train_step", |b| {
        b.iter(|| net.train_mse(black_box(&x), black_box(&target), Optimizer::default_adam()))
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_access_streaming", |b| {
        let mut h = CacheHierarchy::new(CacheParams::L1_32K, CacheParams::L2_2M);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(8) % (1 << 24);
            black_box(h.access(addr))
        })
    });
}

fn bench_qagent(c: &mut Criterion) {
    let space = AstroStateSpace::ODROID_XU4;
    let mut agent = QAgent::new(QConfig::astro_default(
        space.encoding_dim(),
        space.num_actions(),
    ));
    let reward = RewardParams::default();
    let s = space.encode(
        3,
        astro_compiler::ProgramPhase::CpuBound,
        astro_hw::counters::HwPhase::from_index(40),
    );
    c.bench_function("qagent_observe_and_learn", |b| {
        b.iter(|| {
            agent.observe(Experience {
                state: s.clone(),
                action: 3,
                reward: reward.reward(1500.0, 2.0),
                next_state: s.clone(),
                terminal: false,
            })
        })
    });
    c.bench_function("qagent_select_action", |b| {
        b.iter(|| black_box(agent.select_action(black_box(&s))))
    });
}

fn bench_machine(c: &mut Criterion) {
    let board = BoardSpec::odroid_xu4();
    let module = (astro_workloads::by_name("hotspot").unwrap().build)(InputSize::Test);
    let prog = compile(&module).unwrap();
    let params = MachineParams {
        checkpoint_interval: SimTime::from_micros(400.0),
        ..MachineParams::default()
    };
    c.bench_function("machine_run_hotspot_test", |b| {
        b.iter(|| {
            let machine = Machine::new(&board, params);
            let mut sched = AffinityScheduler;
            let mut hooks = NullHooks;
            black_box(machine.run(&prog, &mut sched, &mut hooks, HwConfig::new(4, 4)))
        })
    });
}

/// The runner's previous implementation, kept as the benchmark baseline:
/// workers pull one index at a time from a shared atomic and write each
/// result under a shared mutex. The live implementation
/// ([`astro_bench::runner::parallel_map`]) chunks the index space per
/// worker instead, so cheap items no longer serialise on the lock.
fn parallel_map_per_item_lock<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = job(i);
                results.lock().expect("result lock poisoned")[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("result lock poisoned")
        .into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

fn bench_runner(c: &mut Criterion) {
    use astro_bench::runner::parallel_map;
    const N: usize = 8192;
    const THREADS: usize = 4;
    // A cheap item makes the coordination overhead the measured quantity.
    let item = |i: usize| {
        let mut acc = i as u64;
        for _ in 0..32 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        acc
    };
    c.bench_function("parallel_map_chunked_8k_cheap_items", |b| {
        b.iter(|| black_box(parallel_map(N, THREADS, item)))
    });
    c.bench_function("parallel_map_per_item_lock_8k_cheap_items", |b| {
        b.iter(|| black_box(parallel_map_per_item_lock(N, THREADS, item)))
    });
}

/// Per-job cost of the two execution backends on the same request: the
/// cycle-accurate `MachineExecutor` interprets the whole program, the
/// calibrated `ReplayExecutor` composes the answer from recorded
/// traces. The ratio is what lets `fleet_sim --backend replay` scale to
/// 100k jobs (calibration — 24 engine runs here — is paid once, outside
/// the measured loop).
fn bench_executor(c: &mut Criterion) {
    use astro_core::replay::ReplayExecutor;
    use astro_exec::executor::{ExecPolicy, ExecRequest, Executor, MachineExecutor};

    let board = BoardSpec::odroid_xu4();
    let module = (astro_workloads::by_name("hotspot").unwrap().build)(InputSize::Test);
    let prog = compile(&module).unwrap();
    let params = MachineParams {
        checkpoint_interval: SimTime::from_micros(400.0),
        ..MachineParams::default()
    };
    let machine = MachineExecutor { params };
    let replay = ReplayExecutor::from_machine(params);
    replay.calibrate("hotspot", &module, &board);
    let full = board.config_space().full();
    let mut seed = 0u64;
    c.bench_function("executor_machine_per_job_hotspot", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(machine.execute(&ExecRequest {
                workload: "hotspot",
                module: &module,
                program: &prog,
                board: &board,
                config: full,
                policy: ExecPolicy::Gts,
                seed,
            }))
        })
    });
    let mut seed = 0u64;
    c.bench_function("executor_replay_per_job_hotspot", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(replay.execute(&ExecRequest {
                workload: "hotspot",
                module: &module,
                program: &prog,
                board: &board,
                config: full,
                policy: ExecPolicy::Gts,
                seed,
            }))
        })
    });
}

fn bench_kernel(c: &mut Criterion) {
    // The whole kernel end to end at a benchable scale: 512 jobs over
    // 16 boards on the replay backend. Every arrival exercises the
    // advance's no-op fast path (one completion-heap peek) and every
    // completion the pop and its fold, so a regression anywhere in the
    // completion advance or the control-plane interleave moves this
    // number. Calibration is paid once outside the timed loop (the
    // `FleetSim` owns the replay cache).
    c.bench_function("kernel_512_jobs_16_boards_replay", |b| {
        use astro_fleet::{
            ArrivalProcess, BackendKind, ClusterSpec, FleetParams, FleetSim, LeastLoaded,
            PolicyCache, PolicyMode, Scenario,
        };
        use astro_workloads::InputSize;

        let cluster = ClusterSpec::heterogeneous(16);
        let mut params = FleetParams::new(7);
        params.backend = BackendKind::Replay;
        let sim = FleetSim::new(&cluster, params);
        let pool: Vec<astro_workloads::Workload> = ["swaptions", "bfs"]
            .iter()
            .map(|n| astro_workloads::by_name(n).unwrap())
            .collect();
        let jobs = ArrivalProcess::Poisson {
            rate_jobs_per_s: 20_000.0,
        }
        .generate(512, &pool, InputSize::Test, (4.0, 8.0), 7);
        let scenario = Scenario::online(PolicyMode::Cold);
        // Warm the calibration cache outside the timed region.
        let mut cache = PolicyCache::new(0);
        black_box(sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario));
        b.iter(|| {
            let mut cache = PolicyCache::new(0);
            black_box(sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario))
        })
    });
}

/// The arrival-time hot path: one dispatcher decision over a dense
/// 500-board fleet with spread backlogs. `PhaseAware::pick` goes
/// through the dispatch index every `ClusterState` maintains — the
/// per-architecture ordered-heap heads and their head equal-finish
/// groups, then the tie band over the class champions — with zero
/// allocation. The ceiling sits far below a linear walk of 500
/// boards, so a pick that falls back to scanning the fleet fails it.
/// A 1M-job run makes this decision a million times, so ns here are
/// seconds there.
fn bench_dispatch_pick(c: &mut Criterion) {
    use astro_fleet::{
        ClusterSpec, ClusterState, DispatchMode, Dispatcher, JobClass, JobEstimates, JobSpec,
        PhaseAware, Taxon,
    };

    const N: usize = 500;
    let cluster = ClusterSpec::heterogeneous(N);
    let mut state = ClusterState::new(&cluster, DispatchMode::Oracle);
    state.now_s = 10.0;
    // Spread backlogs so the argmin and the tie-band scan both do real
    // comparisons; estimates are per architecture class.
    for b in 0..N {
        let x = ((b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / 16777216.0;
        state.seed_oracle_backlog(b, 10.0 + x);
    }
    let est = JobEstimates {
        service_s: vec![0.8, 1.2],
        energy_j: vec![2.5, 1.0],
        warm: vec![true, false],
    };
    let job = JobSpec {
        id: 0,
        workload: astro_workloads::by_name("swaptions").unwrap(),
        taxon: Taxon {
            class: JobClass::CpuHeavy,
            signature: 2,
        },
        arrival_s: 10.0,
        slo_tightness: 4.0,
        seed: 1,
    };
    let mut dispatcher = PhaseAware::default();
    c.bench_function("dispatch_pick_dense_500_boards", |b| {
        b.iter(|| black_box(dispatcher.pick(black_box(&state), black_box(&job), black_box(&est))))
    });
}

/// The indexed pick at 10× the dense bench's fleet: one `PhaseAware`
/// decision over 5000 boards with spread backlogs filed in the
/// maintained dispatch index. The pick touches the per-architecture
/// ordered-heap heads plus the head equal-finish groups — O(log B) —
/// so the number here should match the dense bench's, flat in fleet
/// size, not linear. Estimates are per architecture class, as the
/// kernel builds them.
fn bench_dispatch_pick_indexed(c: &mut Criterion) {
    use astro_fleet::{
        ClusterSpec, ClusterState, DispatchMode, Dispatcher, JobClass, JobEstimates, JobSpec,
        PhaseAware, Taxon,
    };

    const N: usize = 5000;
    let cluster = ClusterSpec::heterogeneous(N);
    let mut state = ClusterState::new(&cluster, DispatchMode::Oracle);
    state.now_s = 10.0;
    for b in 0..N {
        let x = ((b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / 16777216.0;
        state.seed_oracle_backlog(b, 10.0 + x * 30.0);
    }
    let est = JobEstimates {
        service_s: vec![0.8, 1.2],
        energy_j: vec![2.5, 1.0],
        warm: vec![true, false],
    };
    let job = JobSpec {
        id: 0,
        workload: astro_workloads::by_name("swaptions").unwrap(),
        taxon: Taxon {
            class: JobClass::CpuHeavy,
            signature: 2,
        },
        arrival_s: 10.0,
        slo_tightness: 4.0,
        seed: 1,
    };
    let mut dispatcher = PhaseAware::default();
    c.bench_function("dispatch_pick_indexed_5000_boards", |b| {
        b.iter(|| black_box(dispatcher.pick(black_box(&state), black_box(&job), black_box(&est))))
    });
}

/// Index maintenance under churn: 64 board-local events per iteration,
/// each moving one board's busy-until and re-keying it in place in its
/// architecture class's indexed heap (one sift, O(log B), no
/// allocation). This is the per-event overhead the index charges the
/// kernel in exchange for O(log B) picks.
fn bench_dispatch_index_repair(c: &mut Criterion) {
    use astro_fleet::{ClusterSpec, ClusterState, DispatchMode};

    const N: usize = 5000;
    let cluster = ClusterSpec::heterogeneous(N);
    let mut state = ClusterState::new(&cluster, DispatchMode::Oracle);
    state.now_s = 10.0;
    for b in 0..N {
        let x = ((b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / 16777216.0;
        state.seed_oracle_backlog(b, 10.0 + x * 30.0);
    }
    let mut i = 0u64;
    c.bench_function("dispatch_index_repair_5000_boards", |b| {
        b.iter(|| {
            for _ in 0..64 {
                i = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let board = (i >> 32) as usize % N;
                let x = (i >> 40) as f64 / 16777216.0;
                state.seed_oracle_backlog(board, 10.0 + x * 30.0);
            }
            black_box(state.backlog_s(0))
        })
    });
}

/// A window of replayed job answers the way the fleet kernel now
/// reads them: the calibration is resolved and its base totals
/// ([`ReplayExecutor::base_totals`](astro_core::replay::ReplayExecutor::base_totals))
/// computed once, up front, and every run is
/// [`ReplayExecutor::replay_scalar`](astro_core::replay::ReplayExecutor::replay_scalar):
/// the totals times the run's per-seed wobble, with no lock, map probe
/// or trace walk. The per-answer cost here is the per-start cost of
/// every replayed job (and a third of each profile).
fn bench_replay_resolved(c: &mut Criterion) {
    use astro_core::replay::ReplayExecutor;
    use astro_exec::executor::ExecPolicy;

    let board = BoardSpec::odroid_xu4();
    let module = (astro_workloads::by_name("hotspot").unwrap().build)(InputSize::Test);
    let params = MachineParams {
        checkpoint_interval: SimTime::from_micros(400.0),
        ..MachineParams::default()
    };
    let replay = ReplayExecutor::from_machine(params);
    let cal = replay.calibrate("hotspot", &module, &board);
    let base = replay.base_totals(&cal, &board, board.config_space().full(), ExecPolicy::Gts);
    let mut seed = 0u64;
    c.bench_function("replay_batched_lookup_window", |b| {
        b.iter(|| {
            // One control window's worth of answers (64 starts).
            let mut acc = 0.0f64;
            for _ in 0..64 {
                seed = seed.wrapping_add(1);
                let (wall, energy) = replay.replay_scalar(black_box(base), seed);
                acc += wall + energy;
            }
            black_box(acc)
        })
    });
}

/// The board queue arena under the completion-follows-arrival pattern:
/// enqueue extends the busy-until memo in place (no queue walk), pop
/// invalidates it (epoch bump, no walk either). This is the per-job
/// floor of the execution plane — every job crosses one enqueue and
/// one pop whatever the dispatcher or scenario does.
fn bench_arena_queue(c: &mut Criterion) {
    use astro_fleet::{BoardState, ClusterSpec, ClusterState, DispatchMode, QueuedJob};

    let spec = ClusterSpec::heterogeneous(1);
    let proto = {
        let job = astro_fleet::JobSpec {
            id: 0,
            workload: astro_workloads::by_name("swaptions").unwrap(),
            taxon: astro_fleet::Taxon {
                class: astro_fleet::JobClass::CpuHeavy,
                signature: 2,
            },
            arrival_s: 0.0,
            slo_tightness: 4.0,
            seed: 1,
        };
        QueuedJob {
            job,
            slot: 0,
            slo_s: 4.0,
            schedule: None,
            sched_arch: "xu4",
            est_service_s: 0.7,
            profiled_s: 0.7,
            penalty_s: 0.0,
            migrations: 0,
            redispatches: 0,
        }
    };
    c.bench_function("arena_enqueue_dequeue", |b| {
        b.iter(|| {
            let mut state = ClusterState::new(&spec, DispatchMode::Online);
            let bs: &mut BoardState = &mut state.boards[0];
            // Steady state: hold a 32-deep queue, then stream 256
            // enqueue/pop pairs through it.
            for i in 0..32u32 {
                let mut q = proto.clone();
                q.job.id = i;
                bs.enqueue(q);
            }
            for i in 32..288u32 {
                let mut q = proto.clone();
                q.job.id = i;
                bs.enqueue(q);
                black_box(bs.pop_next());
            }
            while let Some(q) = bs.pop_next() {
                black_box(q);
            }
            black_box(bs.queue_len())
        })
    });
}

criterion_group!(
    benches,
    bench_nn,
    bench_cache,
    bench_qagent,
    bench_machine,
    bench_executor,
    bench_runner,
    bench_kernel,
    bench_dispatch_pick,
    bench_dispatch_pick_indexed,
    bench_dispatch_index_repair,
    bench_replay_resolved,
    bench_arena_queue
);
criterion_main!(benches);
