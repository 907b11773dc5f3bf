//! The traced run: every per-layer metric, from spans recorded around
//! calls into each layer's public functions. Off-path layers are probed
//! at the workload's own shape (a colony's sweep and store layers
//! through a small ensemble of its scenario scaled to 400 ants), so
//! every workload reports every per-layer metric.

use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use antalloc_env::{Event, Timeline};
use antalloc_sim::{SimConfig, Sweep, SyncEngine};
use antalloc_store::{CheckpointStore as Store, MemBackend};

use crate::colony::consistent;
use crate::ensemble::{check_pass, run_pass, Row};
use crate::observe::{Counts, Tally, Traced};
use crate::probes::{self, TimedBackend};
use crate::replica::{Replica, StageNs};
use crate::report::Report;
use crate::stats::{group_means, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Workload, ENSEMBLE_ROUNDS};

/// How much of each probe a workload's traced run does.
struct Plan {
    /// Engine builds (and resets) timed.
    builds: usize,
    /// Rounds of each of the two counting passes, stepped in
    /// `run_parallel` calls of `call_rounds`.
    count_rounds: u64,
    call_rounds: u64,
    /// Rounds per chunk, and chunk pairs, of the A/B comparisons
    /// (serial vs parallel, untraced vs traced, flat vs spatial).
    ab_rounds: u64,
    ab_pairs: usize,
    /// Rounds the replica and the engine step side by side.
    replica_rounds: usize,
    /// Ants and rounds of each per-kind kernel replica.
    kind_ants: usize,
    kind_rounds: usize,
    /// Repetitions of the cheap probes (checkpoint, TOML).
    reps: usize,
    /// Seeds of the store-backed sweep probe (colonies) or of each grid
    /// point (ensemble).
    sweep_seeds: u64,
}

fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::WellmixedAnt1m => Plan {
            builds: 3,
            count_rounds: 32,
            call_rounds: 16,
            ab_rounds: 8,
            ab_pairs: 4,
            replica_rounds: 16,
            kind_ants: 1 << 18,
            kind_rounds: 8,
            reps: 3,
            sweep_seeds: 64,
        },
        Workload::ArenaMixedShocks => Plan {
            builds: 3,
            count_rounds: 4 * workloads::ARENA_PERIOD,
            call_rounds: 2 * workloads::ARENA_PERIOD,
            ab_rounds: 10,
            ab_pairs: 4,
            replica_rounds: 10,
            kind_ants: 1 << 18,
            kind_rounds: 8,
            reps: 3,
            sweep_seeds: 64,
        },
        Workload::EnsembleStore => Plan {
            builds: 200,
            count_rounds: ENSEMBLE_ROUNDS,
            call_rounds: ENSEMBLE_ROUNDS,
            ab_rounds: ENSEMBLE_ROUNDS,
            ab_pairs: 50,
            replica_rounds: 200,
            kind_ants: 400,
            kind_rounds: 200,
            reps: 200,
            sweep_seeds: 64,
        },
    }
}

/// Closes a span opened as `Some(t.open(..))`.
fn close(t: &Tracer, span: Option<u32>) {
    if let Some(id) = span {
        t.close(id);
    }
}

/// Samples the few-nanosecond per-call timings are averaged into.
const GROUPS: usize = 10;

fn us(ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|v| v / 1e3).collect()
}

/// Runs `rounds` rounds in `run_parallel` calls of `call` rounds.
fn run_calls(engine: &mut SyncEngine, rounds: u64, call: u64, threads: usize, obs: &mut Traced) {
    let mut left = rounds;
    while left > 0 {
        let r = left.min(call);
        obs.begin_call();
        engine.run_parallel(r, threads, obs);
        left -= r;
    }
}

/// Samples of an A/B comparison: `measure(false)` (A) and
/// `measure(true)` (B), alternating `pairs` times so drift hits both.
fn alternate(pairs: usize, mut measure: impl FnMut(bool) -> f64) -> (Vec<f64>, Vec<f64>) {
    let mut a = Vec::with_capacity(pairs);
    let mut b = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        a.push(measure(false));
        b.push(measure(true));
    }
    (a, b)
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// What every phase of a traced run shares.
struct Ctx<'a> {
    tracer: &'a Arc<Tracer>,
    root: Option<u32>,
    workload: Workload,
    seed: u64,
    cfg: SimConfig,
    plan: Plan,
    threads: usize,
}

impl Ctx<'_> {
    fn t(&self) -> &Tracer {
        self.tracer
    }

    /// Opens a phase span under the run's root span.
    fn phase(&self, name: &'static str) -> Option<u32> {
        Some(self.t().open(name, self.root))
    }

    /// One counting pass from a fresh engine state: the observer (counts,
    /// tally, round gaps, `on_round` times) and the engine's own trigger
    /// firings.
    fn counting_pass(&self, engine: &mut SyncEngine) -> (Traced, Vec<u32>) {
        engine.reset_from(&self.cfg);
        let mut obs = Traced::new(&self.cfg, self.threads);
        let (rounds, call) = (self.plan.count_rounds, self.plan.call_rounds);
        run_calls(engine, rounds, call, self.threads, &mut obs);
        let firings = engine.trigger_states().iter().map(|s| s.firings).collect();
        (obs, firings)
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    threads: usize,
    scratch: &Path,
    tracer: &Arc<Tracer>,
    report: &mut Report,
) {
    let cx = Ctx {
        tracer,
        root: Some(tracer.open(workload.name(), None)),
        workload,
        seed,
        cfg: workload.config(seed),
        plan: plan(workload),
        threads,
    };
    let mut engine = builds(&cx, report);
    counting(&cx, &mut engine, report);
    engine_layers(&cx, &engine, report);
    drop(engine);
    let colony_overhead = ab_chunks(&cx, report);
    geometry(&cx, report);
    replica(&cx, report);
    kernels_and_setup(&cx, report);
    let ensemble_overhead = sweep_and_store(&cx, scratch, report);
    // Tracing overhead: traced over untraced time, minus one. A colony's
    // tracing is the traced observer; the ensemble's the timed store
    // backend.
    let (plain, traced) = match workload {
        Workload::EnsembleStore => ensemble_overhead,
        _ => colony_overhead,
    };
    report.value(
        "trace.overhead_frac",
        "ratio",
        median(&traced) / median(&plain) - 1.0,
    );
    close(cx.t(), cx.root);
}

/// `SimConfig::try_build` and `SyncEngine::reset_from`; returns the
/// last engine built.
fn builds(cx: &Ctx, report: &mut Report) -> SyncEngine {
    let t = cx.t();
    let phase = cx.phase("phase.build");
    let mut build_ms = Vec::new();
    let mut engine = None;
    for _ in 0..cx.plan.builds {
        let s = t.now();
        let e = cx.cfg.try_build().expect("workload configs are valid");
        build_ms.push(t.record("sim.SimConfig::build", phase, s) as f64 / 1e6);
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one build");
    let mut reset_us = Vec::new();
    for i in 0..cx.plan.builds {
        let mut other = cx.cfg.clone();
        other.seed = cx.cfg.seed.wrapping_add(1 + i as u64);
        let s = t.now();
        engine.reset_from(&other);
        reset_us.push(t.record("sim.SyncEngine::reset_from", phase, s) as f64 / 1e3);
    }
    close(t, phase);
    report.median("sim.build_ms", "ms", &build_ms);
    report.median("sim.reset_from_us", "us", &reset_us);
    engine
}

/// Two counting passes of the seed: the counts that must repeat
/// exactly, round gaps, event vs quiet rounds, the metrics layer.
fn counting(cx: &Ctx, engine: &mut SyncEngine, report: &mut Report) {
    let t = cx.t();
    let phase = cx.phase("phase.counts");
    let (first, first_fired) = t.time("sim.run_parallel.counting", phase, || {
        cx.counting_pass(engine)
    });
    let first_loads = engine.colony().loads().to_vec();
    let (second, second_fired) = t.time("sim.run_parallel.counting", phase, || {
        cx.counting_pass(engine)
    });
    close(t, phase);
    report.check(
        first.counts == second.counts
            && first.tally == second.tally
            && first_loads == engine.colony().loads()
            && consistent(engine),
        || "two traced runs of one seed disagree on counts or loads".into(),
    );
    report.check(
        first.firings() == first_fired && first_fired == second_fired,
        || {
            format!(
                "trigger firings: mirror {:?}, engine {first_fired:?} then {second_fired:?}",
                first.firings()
            )
        },
    );
    let tally = &first.tally;
    let regret = [tally.total_regret as u64, (tally.total_regret >> 64) as u64];
    let loads = first_loads.iter().map(|&w| u64::from(w));
    report.set_digest(
        [tally.rounds, tally.ant_rounds, tally.switches]
            .into_iter()
            .chain(regret)
            .chain(loads),
    );
    let Counts {
        segments,
        events_fired,
        trigger_firings,
    } = first.counts.clone();
    report.value("sim.segments", "count", segments as f64);
    report.value("sim.events_fired", "count", events_fired as f64);
    report.value("sim.trigger_firings", "count", trigger_firings as f64);
    report.value(
        "sim.switches_per_ant_round",
        "count",
        tally.switches as f64 / tally.ant_rounds as f64,
    );
    let mut events = first.event_round_us.clone();
    events.extend(&second.event_round_us);
    let mut quiet = first.quiet_round_us.clone();
    quiet.extend(&second.quiet_round_us);
    let gaps: Vec<f64> = quiet.iter().chain(&events).copied().collect();
    report.median("sim.round_us_p50", "us", &gaps);
    report.value("sim.round_us_p99", "us", Summary::of(&gaps).tail_value());
    let mut on_round = first.on_round_ns.clone();
    on_round.extend(&second.on_round_ns);
    report.median("metrics.on_round_ns", "ns", &group_means(&on_round, GROUPS));

    // A workload without events gets a no-op demand step every 8 rounds,
    // so the cost of an event round is measured on it too.
    if events.is_empty() {
        let mut probe = cx.cfg.clone();
        probe.timeline = Timeline::new().every(
            4,
            8,
            vec![Event::SetTaskDemand {
                task: 0,
                demand: cx.cfg.demands[0],
            }],
        );
        let mut e = probe.try_build().expect("the event probe is valid");
        let mut obs = Traced::new(&probe, cx.threads);
        let (rounds, call) = (2 * cx.plan.count_rounds, cx.plan.call_rounds);
        t.time("sim.run_parallel.event_probe", cx.root, || {
            run_calls(&mut e, rounds, call, cx.threads, &mut obs)
        });
        events = obs.event_round_us;
        quiet = obs.quiet_round_us;
    }
    report.median("sim.event_round_us", "us", &events);
    report.median("sim.quiet_round_us", "us", &quiet);
}

/// The checkpoint codec and the timeline layer, on the engine as the
/// counting passes left it.
fn engine_layers(cx: &Ctx, engine: &SyncEngine, report: &mut Report) {
    let t = cx.t();
    let ck = probes::checkpoint(t, cx.root, engine, cx.plan.reps);
    report.median("sim.checkpoint_capture_us", "us", &ck.capture_us);
    report.median("sim.checkpoint_encode_us", "us", &ck.encode_us);
    report.median("sim.checkpoint_decode_us", "us", &ck.decode_us);
    report.value("sim.checkpoint_bytes", "count", ck.bytes as f64);

    let mut deficits = Vec::new();
    engine.colony().deficits_into(&mut deficits);
    let timeline_ns = probes::timeline(t, cx.root, &cx.cfg, &deficits, 10_000, 5);
    report.median("env.timeline_ns", "ns", &timeline_ns);
}

/// A/B chunks on the quiet colony (timeline removed, geometry kept):
/// serial vs `run_parallel`, then an untraced vs a traced observer,
/// whose chunk times it returns for the tracing overhead.
fn ab_chunks(cx: &Ctx, report: &mut Report) -> (Vec<f64>, Vec<f64>) {
    let t = cx.t();
    let mut quiet_cfg = cx.cfg.clone();
    quiet_cfg.timeline = Timeline::new();
    let mut engine = quiet_cfg.try_build().expect("the quiet colony is valid");
    let phase = cx.phase("phase.ab");
    let (r, threads) = (cx.plan.ab_rounds, cx.threads);
    let (serial, parallel) = alternate(cx.plan.ab_pairs, |pooled| {
        let mut obs = Tally::default();
        if pooled {
            t.measure("sim.SyncEngine::run_parallel", phase, || {
                engine.run_parallel(r, threads, &mut obs)
            })
        } else {
            t.measure("sim.SyncEngine::run", phase, || engine.run(r, &mut obs))
        }
    });
    report.value(
        "sim.parallel_speedup",
        "ratio",
        median(&serial) / median(&parallel),
    );
    report.median("sim.run_us", "us", &us(&parallel));
    let overhead = alternate(cx.plan.ab_pairs, |traced| {
        if traced {
            let mut obs = Traced::new(&quiet_cfg, threads);
            obs.begin_call();
            t.measure("sim.run_parallel.traced", phase, || {
                engine.run_parallel(r, threads, &mut obs)
            })
        } else {
            let mut obs = Tally::default();
            t.measure("sim.run_parallel.untraced", phase, || {
                engine.run_parallel(r, threads, &mut obs)
            })
        }
    });
    close(t, phase);
    overhead
}

/// Arena overhead: the same colony and timeline, spatial vs flat.
fn geometry(cx: &Ctx, report: &mut Report) {
    let t = cx.t();
    let phase = cx.phase("phase.geometry");
    let (flat_cfg, spatial_cfg) = workloads::geometry_pair(&cx.cfg);
    let mut flat = flat_cfg.try_build().expect("the flat twin is valid");
    let mut spatial = spatial_cfg.try_build().expect("the spatial twin is valid");
    let (r, threads) = (cx.plan.ab_rounds, cx.threads);
    let (flat_ns, spatial_ns) = alternate(cx.plan.ab_pairs, |is_spatial| {
        let (e, name) = if is_spatial {
            (&mut spatial, "sim.run_parallel.spatial")
        } else {
            (&mut flat, "sim.run_parallel.flat")
        };
        let mut obs = Tally::default();
        t.measure(name, phase, || e.run_parallel(r, threads, &mut obs)) / obs.ant_rounds as f64
    });
    close(t, phase);
    report.value(
        "sim.arena_overhead_ns_per_ant",
        "ns",
        median(&spatial_ns) - median(&flat_ns),
    );
}

/// The public-pieces replica beside the engine's serial round on the
/// static well-mixed twin; a homogeneous replica must match it exactly.
fn replica(cx: &Ctx, report: &mut Report) {
    let t = cx.t();
    let phase = cx.phase("phase.replica");
    let twin_cfg = workloads::static_twin(&cx.cfg);
    let mut twin = twin_cfg.try_build().expect("the static twin is valid");
    let mut replica = Replica::new(&twin_cfg);
    let mut step_ns = Vec::new();
    let mut replica_ns = Vec::new();
    let mut stages = Vec::new();
    let mut identical = true;
    for _ in 0..cx.plan.replica_rounds {
        let mut obs = Tally::default();
        step_ns.push(t.measure("sim.SyncEngine::step", phase, || twin.step(&mut obs)));
        let round = t.open("replica.round", phase);
        let (stage, switches) = replica.step(t, Some(round));
        t.close(round);
        replica_ns.push(stage.total() as f64);
        stages.push(stage);
        identical &= switches == obs.switches && replica.colony().loads() == twin.colony().loads();
    }
    close(t, phase);
    if twin_cfg.controller.mix_parts().is_none() {
        identical &= replica.colony().assignments() == twin.colony().assignments();
        report.check(identical, || {
            "the public-pieces replica diverged from the engine's round".into()
        });
    }
    let stage = |f: fn(&StageNs) -> u64| {
        let ns: Vec<f64> = stages.iter().map(|s| f(s) as f64).collect();
        group_means(&ns, GROUPS)
    };
    report.median("env.deficits_ns", "ns", &stage(|s| s.deficits));
    report.median("noise.prepare_ns", "ns", &stage(|s| s.prepare));
    report.median("env.commit_round_us", "us", &us(&stage(|s| s.commit)));
    report.value(
        "sim.engine_overhead_us",
        "us",
        (median(&step_ns) - median(&replica_ns)) / 1e3,
    );
}

/// Kernels of every kind, per-ant streams, bank construction and the
/// scenario codec.
fn kernels_and_setup(cx: &Ctx, report: &mut Report) {
    let t = cx.t();
    let phase = cx.phase("phase.kernels");
    let kind_ants = cx.plan.kind_ants.min(cx.cfg.n);
    for (name, spec) in workloads::kinds() {
        let ns = probes::kernel(t, phase, &cx.cfg, &spec, kind_ants, cx.plan.kind_rounds);
        report.median(format!("core.kernel_ns_per_ant.{name}"), "ns", &ns);
    }
    close(t, phase);

    let derivations = cx.cfg.n.max(1 << 20);
    let rng = probes::rng_streams(t, cx.root, cx.cfg.seed, derivations, 3);
    report.median("rng.ant_stream_ns", "ns", &rng);
    let bank_reps = (derivations / cx.cfg.n).clamp(3, 1000);
    let banks = probes::bank_builds(t, cx.root, &cx.cfg, bank_reps);
    report.median("core.bank_build_ns", "ns", &banks);

    let (to, from, same) = probes::toml(t, cx.root, &cx.cfg, cx.plan.reps.max(20));
    report.median("scenario.to_toml_us", "us", &to);
    report.median("scenario.from_toml_us", "us", &from);
    report.check(same, || {
        "the scenario TOML round trip changed the config".into()
    });
}

/// Sweep and store: the ensemble itself, or the colony's scenario scaled
/// to 400 ants (seeds only), twice against a timed in-memory store; then
/// direct store calls on the real job payloads. Returns cold-pass times
/// without and with the timed backend, for the ensemble's tracing
/// overhead.
fn sweep_and_store(cx: &Ctx, scratch: &Path, report: &mut Report) -> (Vec<f64>, Vec<f64>) {
    let t = cx.t();
    let phase = cx.phase("phase.sweep");
    let seeds = workloads::ensemble_seeds(cx.seed, cx.plan.sweep_seeds);
    let grid = match cx.workload {
        Workload::EnsembleStore => workloads::GAMMA_GRID.len(),
        _ => 1,
    };
    let jobs = grid * cx.plan.sweep_seeds as usize;
    let small = match cx.workload {
        Workload::WellmixedAnt1m => workloads::wellmixed(400, cx.seed),
        Workload::ArenaMixedShocks => workloads::arena_mixed(400, cx.seed),
        Workload::EnsembleStore => cx.cfg.clone(),
    };
    let make = |store: Option<Arc<Store>>| -> Sweep {
        match cx.workload {
            Workload::EnsembleStore => workloads::sweep(&small, seeds.clone(), cx.threads, store),
            _ => {
                let s = Sweep::new(small.clone())
                    .seeds(seeds.clone())
                    .rounds(ENSEMBLE_ROUNDS)
                    .threads(cx.threads);
                match store {
                    Some(store) => s.store(store),
                    None => s,
                }
            }
        }
    };
    let timed_store = |parent: &Arc<AtomicU32>| {
        let backend = TimedBackend::new(
            Box::new(MemBackend::new()),
            cx.tracer.clone(),
            parent.clone(),
        );
        let written = backend.bytes_written.clone();
        (Arc::new(Store::with_backend(Box::new(backend))), written)
    };
    let expected: Vec<Option<Row>> = run_pass(&make(None).threads(1), jobs, |_| {}).rows;
    let mut stats = Vec::new();
    let mut job_gaps = Vec::new();
    let mut last_store = None;
    for _ in 0..2 {
        let parent = probes::parent_cell(phase);
        let (store, written) = timed_store(&parent);
        let cold_span = t.open("sweep.cold_pass", phase);
        parent.store(cold_span, Ordering::Relaxed);
        let mut last = t.now();
        let cold = run_pass(&make(Some(store.clone())), jobs, |_| {
            let now = t.now();
            job_gaps.push((now - last) as f64 / 1e3);
            last = now;
        });
        t.close(cold_span);
        check_pass(&cold, &expected, false, report);
        let warm_span = t.open("sweep.warm_pass", phase);
        parent.store(warm_span, Ordering::Relaxed);
        let warm = run_pass(&make(Some(store.clone())), jobs, |_| {});
        t.close(warm_span);
        check_pass(&warm, &expected, true, report);
        stats.push((
            written.load(Ordering::Relaxed),
            warm.cached,
            cold.rows.len() - cold.cached,
        ));
        last_store = Some(store);
    }
    close(t, phase);
    report.check(stats[0] == stats[1], || {
        format!("two traced sweeps of one seed disagree on store counts: {stats:?}")
    });
    let (bytes_written, served, computed) = stats[0];
    report.value("store.bytes_written", "count", bytes_written as f64);
    report.value("store.served", "count", served as f64);
    report.value("store.computed", "count", computed as f64);
    report.median("sweep.job_us_p50", "us", &job_gaps);
    report.value(
        "sweep.job_us_p99",
        "us",
        Summary::of(&job_gaps).tail_value(),
    );

    // Direct store calls, in memory (as the ensemble runs) and on a
    // local directory.
    let payloads = probes::payloads(last_store.as_deref().expect("a pass ran"));
    let mem = probes::store(t, cx.root, &Store::in_memory(), &payloads);
    let local_store = Store::local(scratch.join("store-probe")).expect("scratch is writable");
    let local = probes::store(t, cx.root, &local_store, &payloads);
    report.check(mem.intact && local.intact && !payloads.is_empty(), || {
        "the store probe lost or invented an entry".into()
    });
    report.median("store.save_us", "us", &mem.save_us);
    report.median("store.load_us", "us", &mem.load_us);
    report.median("store.probe_us", "us", &mem.probe_us);
    report.median("store.local_save_us", "us", &local.save_us);
    report.median("store.local_load_us", "us", &local.load_us);
    report.median("store.local_probe_us", "us", &local.probe_us);
    let sha = probes::sha256(t, cx.root, 9);
    report.median("store.sha256_ns_per_byte", "ns", &sha);

    alternate(cx.plan.ab_pairs.min(10), |traced| {
        let store = if traced {
            timed_store(&probes::parent_cell(cx.root)).0
        } else {
            Arc::new(Store::in_memory())
        };
        run_pass(&make(Some(store)), jobs, |_| {}).secs
    })
}
