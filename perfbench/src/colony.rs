//! The colony workloads (`wellmixed_ant_1m`, `arena_mixed_shocks`):
//! one engine stepped with `run_parallel` at the host's thread count.

use std::time::{Duration, Instant};

use antalloc_sim::{Both, Checkpoint, SimConfig, SyncEngine};

use crate::observe::{basic, Tally};
use crate::report::Report;
use crate::workloads::{Workload, ARENA_PERIOD};

/// Untimed engine builds before the timed ones: the first builds in a
/// process fault in fresh pages and run twice as long as the rest.
const WARM_BUILDS: usize = 3;

/// Per-workload run shape, in rounds (all even, so every checkpoint
/// lands on Algorithm Ant's phase boundary).
struct Shape {
    /// Rounds stepped by both the parallel engine and the serial
    /// reference before timing, whose outputs must agree bit for bit.
    verify: u64,
    /// Rounds per timed run (one `run_parallel` call).
    run: u64,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        Workload::WellmixedAnt1m => Shape { verify: 8, run: 16 },
        // One demand-step period per timed run: each holds one demand
        // step and, every other run, a kill or a spawn. The verified
        // prefix spans two demand steps, the first kill and the
        // trigger's first firings.
        _ => Shape {
            verify: 2 * ARENA_PERIOD,
            run: ARENA_PERIOD,
        },
    }
}

/// Seconds to build `cfg`'s engine; the engine is dropped at once, so
/// every build meets the same warm allocator.
fn build_secs(cfg: &SimConfig) -> f64 {
    let t = Instant::now();
    let engine = cfg.try_build().expect("workload configs are valid");
    let secs = t.elapsed().as_secs_f64();
    drop(engine);
    secs
}

/// Whether the colony's incremental bookkeeping matches a full recount
/// and its population matches the engine's.
pub fn consistent(engine: &SyncEngine) -> bool {
    let colony = engine.colony();
    let working: u64 = colony.loads().iter().map(|&w| u64::from(w)).sum();
    colony.recount_consistent() && working + colony.idle_count() == colony.num_ants() as u64
}

/// Steps `main` with `run_parallel` and `reference` serially for the
/// same rounds and checks they agree: tallies (loads, regret, switches),
/// every assignment, trigger states, and both colonies' bookkeeping.
fn verify_parallel(
    cfg: &SimConfig,
    main: &mut SyncEngine,
    reference: &mut SyncEngine,
    rounds: u64,
    threads: usize,
    report: &mut Report,
) {
    let mut par = Both(basic(cfg), Tally::default());
    let mut ser = Both(basic(cfg), Tally::default());
    main.run_parallel(rounds, threads, &mut par);
    reference.run(rounds, &mut ser);
    let same = par.1 == ser.1
        && main.colony().assignments() == reference.colony().assignments()
        && main.trigger_states() == reference.trigger_states()
        && consistent(main)
        && consistent(reference);
    report.check(same, || {
        format!("run_parallel at {threads} threads diverged from the serial path within {rounds} rounds")
    });
    let tally = &ser.1;
    let totals = [tally.rounds, tally.ant_rounds, tally.switches];
    let regret = [tally.total_regret as u64, (tally.total_regret >> 64) as u64];
    let loads = tally.last_loads.iter().map(|&w| u64::from(w));
    let assignments = reference.colony().assignments();
    let column = assignments.iter().map(|a| u64::from(a.to_raw()));
    report.set_digest(totals.into_iter().chain(regret).chain(loads).chain(column));
    if !cfg.timeline.triggers.is_empty() {
        let fired = main.trigger_states().iter().all(|s| s.firings > 0);
        report.check(fired, || {
            format!("a trigger never fired within {rounds} rounds")
        });
    }
}

/// Captures `from`, encodes, decodes and restores it into `into`;
/// returns the elapsed seconds and whether the restored colony matches.
fn resume(from: &SyncEngine, into: &mut SyncEngine) -> (f64, bool) {
    let t = Instant::now();
    let bytes = Checkpoint::capture(from)
        .expect("timed runs end on a phase boundary")
        .to_bytes();
    let decoded = Checkpoint::from_bytes(&bytes).expect("fresh checkpoint bytes decode");
    decoded.restore_into(into);
    let secs = t.elapsed().as_secs_f64();
    let ok = into.round() == from.round()
        && into.colony().loads() == from.colony().loads()
        && into.colony().assignments() == from.colony().assignments()
        && consistent(into);
    (secs, ok)
}

/// The untraced run: end-to-end metrics only.
pub fn run(workload: Workload, seed: u64, seconds: u64, threads: usize, report: &mut Report) {
    let cfg = workload.config(seed);
    let shape = shape(workload);
    for _ in 0..WARM_BUILDS {
        build_secs(&cfg);
    }
    let mut main = cfg.try_build().expect("workload configs are valid");
    let mut reference = cfg.try_build().expect("workload configs are valid");

    verify_parallel(
        &cfg,
        &mut main,
        &mut reference,
        shape.verify,
        threads,
        report,
    );

    // One untimed run so the pool, allocator and caches are warm.
    let mut obs = Both(basic(&cfg), Tally::default());
    main.run_parallel(shape.run, threads, &mut obs);

    // Timed runs, each followed by one checkpoint resume of the colony
    // into the reference engine and one engine build, so all three
    // metrics sample the whole run.
    let mut ant_rounds_per_s = Vec::new();
    let mut runs_per_s = Vec::new();
    let mut served = Vec::new();
    let mut setup = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < deadline || ant_rounds_per_s.len() < 3 {
        let before = obs.1.ant_rounds;
        let t = Instant::now();
        main.run_parallel(shape.run, threads, &mut obs);
        let secs = t.elapsed().as_secs_f64();
        ant_rounds_per_s.push((obs.1.ant_rounds - before) as f64 / secs);
        runs_per_s.push(1.0 / secs);
        report.check(consistent(&main), || {
            format!(
                "colony bookkeeping inconsistent after round {}",
                main.round()
            )
        });
        let (secs, ok) = resume(&main, &mut reference);
        served.push(1.0 / secs);
        report.check(ok, || {
            format!("checkpoint resume at round {} diverged", main.round())
        });
        setup.push(build_secs(&cfg));
    }
    report.median("setup_s", "s", &setup);
    report.median("ant_rounds_per_s", "1/s", &ant_rounds_per_s);
    report.median("runs_per_s", "1/s", &runs_per_s);
    report.median("served_runs_per_s", "1/s", &served);
}
