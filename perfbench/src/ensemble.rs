//! The `ensemble_store` workload: a γ grid × seeds through `Sweep`
//! (engine reuse, host-thread workers) against a fresh `CheckpointStore`.
//! A cold pass computes and captures every job; warm passes serve every
//! job from the same store.
//!
//! The store runs on its in-memory backend. On the hosts this benchmark
//! was sized on, creating one file costs 0.4–0.5 ms and that cost swung
//! sixfold within minutes, so a local-directory cold pass measured the
//! host's filesystem rather than the simulator; the traced run still
//! times the local-directory backend (`store.local_*`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use antalloc_sim::{RunOutcome, SimConfig, Sweep};
use antalloc_store::CheckpointStore;

use crate::report::Report;
use crate::workloads::{ensemble_base, ensemble_seeds, sweep, ENSEMBLE_ROUNDS, ENSEMBLE_SEEDS};

/// Untimed set-ups before the timed ones (allocator warm-up).
const WARM_SETUPS: usize = 10;

/// Timed set-ups after every cycle of cold and warm passes, so `setup_s`
/// samples the whole run.
const SETUPS_PER_PASS: usize = 10;

/// Warm passes per cold pass, timed together as one sample: one warm
/// pass lasts only tens of milliseconds.
const WARM_PASSES: usize = 4;

/// What one job produced: the digest input of the correctness gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub seed: u64,
    pub final_regret: u64,
    pub final_loads: Vec<u64>,
    pub total_regret: u128,
}

impl Row {
    /// The row as words, for the output digest.
    fn words(&self) -> Vec<u64> {
        let mut w = vec![
            self.seed,
            self.final_regret,
            self.total_regret as u64,
            (self.total_regret >> 64) as u64,
        ];
        w.extend(&self.final_loads);
        w
    }

    fn of(o: &RunOutcome) -> Self {
        Self {
            seed: o.seed,
            final_regret: o.final_regret,
            final_loads: o.final_loads.clone(),
            total_regret: o.summary.total_regret(),
        }
    }
}

/// One pass's outcomes by job index, and how many were served.
pub struct Pass {
    pub rows: Vec<Option<Row>>,
    pub cached: usize,
    pub secs: f64,
}

/// Runs `sweep` to completion, collecting rows by job index; `on_job`
/// sees each outcome as it is delivered.
pub fn run_pass(sweep: &Sweep, jobs: usize, mut on_job: impl FnMut(&RunOutcome)) -> Pass {
    let mut rows = vec![None; jobs];
    let mut cached = 0;
    let t = Instant::now();
    sweep
        .for_each(|o| {
            on_job(o);
            cached += usize::from(o.cached);
            if let Some(slot) = rows.get_mut(o.index) {
                *slot = Some(Row::of(o));
            }
        })
        .expect("the ensemble sweep is valid");
    Pass {
        rows,
        cached,
        secs: t.elapsed().as_secs_f64(),
    }
}

/// Checks every job of `pass` against `expected`, one operation per
/// job; `served` says whether every job must have come from the store.
pub fn check_pass(pass: &Pass, expected: &[Option<Row>], served: bool, report: &mut Report) {
    for (i, (got, want)) in pass.rows.iter().zip(expected).enumerate() {
        report.check(got.is_some() && got == want, || {
            format!("ensemble job {i} differs from the serial no-store run")
        });
    }
    let want_cached = if served { pass.rows.len() } else { 0 };
    report.check(pass.cached == want_cached, || {
        format!(
            "{} of {} jobs served from the store, expected {want_cached}",
            pass.cached,
            pass.rows.len()
        )
    });
}

/// The serial, store-less reference outcomes.
fn reference(base: &SimConfig, seeds: std::ops::Range<u64>, jobs: usize) -> Vec<Option<Row>> {
    run_pass(&sweep(base, seeds, 1, None), jobs, |_| {}).rows
}

/// A fresh store on the in-memory backend.
fn fresh_store() -> Arc<CheckpointStore> {
    Arc::new(CheckpointStore::in_memory())
}

/// Set-up to the first round: the sweep's construction, its store's
/// open, and the engine build its first job starts from.
fn setup(base: &SimConfig, seeds: std::ops::Range<u64>, threads: usize) -> f64 {
    let t = Instant::now();
    let sweep = sweep(base, seeds, threads, Some(fresh_store()));
    let engine = base.try_build().expect("the ensemble base is valid");
    let secs = t.elapsed().as_secs_f64();
    drop(std::hint::black_box((sweep, engine)));
    secs
}

/// The untraced run: end-to-end metrics only.
pub fn run(seed: u64, seconds: u64, threads: usize, report: &mut Report) {
    let base = ensemble_base(seed);
    let seeds = ensemble_seeds(seed, ENSEMBLE_SEEDS);
    let jobs = crate::workloads::GAMMA_GRID.len() * ENSEMBLE_SEEDS as usize;

    for _ in 0..WARM_SETUPS {
        setup(&base, seeds.clone(), threads);
    }

    let expected = reference(&base, seeds.clone(), jobs);
    report.set_digest(expected.iter().flatten().flat_map(Row::words));
    let mut runs_per_s = Vec::new();
    let mut ant_rounds_per_s = Vec::new();
    let mut served_runs_per_s = Vec::new();
    let mut setup_s = Vec::new();
    let ant_rounds_per_job = (base.n as u64 * ENSEMBLE_ROUNDS) as f64;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < deadline || runs_per_s.len() < 3 {
        let store = fresh_store();
        let cold = run_pass(
            &sweep(&base, seeds.clone(), threads, Some(store.clone())),
            jobs,
            |_| {},
        );
        check_pass(&cold, &expected, false, report);
        runs_per_s.push(jobs as f64 / cold.secs);
        ant_rounds_per_s.push(jobs as f64 * ant_rounds_per_job / cold.secs);
        let mut warm_secs = 0.0;
        for _ in 0..WARM_PASSES {
            let warm = run_pass(
                &sweep(&base, seeds.clone(), threads, Some(store.clone())),
                jobs,
                |_| {},
            );
            check_pass(&warm, &expected, true, report);
            warm_secs += warm.secs;
        }
        served_runs_per_s.push((WARM_PASSES * jobs) as f64 / warm_secs);
        for _ in 0..SETUPS_PER_PASS {
            setup_s.push(setup(&base, seeds.clone(), threads));
        }
    }
    report.median("setup_s", "s", &setup_s);
    report.median("ant_rounds_per_s", "1/s", &ant_rounds_per_s);
    report.median("runs_per_s", "1/s", &runs_per_s);
    report.median("served_runs_per_s", "1/s", &served_runs_per_s);
}
