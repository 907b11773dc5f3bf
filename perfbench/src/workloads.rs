//! The benchmark's workloads: each is a scenario generated from the
//! benchmark seed. The simulator receives only the generated config.

use std::sync::Arc;

use antalloc_core::{
    AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
    ProportionalParams,
};
use antalloc_env::{ArenaConfig, Condition, Event, Timeline, Trigger};
use antalloc_noise::NoiseModel;
use antalloc_rng::SplitMix64;
use antalloc_sim::{ControllerSpec, SimConfig, Sweep};
use antalloc_store::CheckpointStore;

/// The paper's learning rate for Algorithm Ant in every workload.
pub const GAMMA: f64 = 1.0 / 16.0;

/// Sigmoid steepness of the feedback noise in every workload.
pub const LAMBDA: f64 = 2.0;

/// The ensemble's γ grid (four points).
pub const GAMMA_GRID: [f64; 4] = [1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0];

/// Seeds per grid point in one ensemble pass (4 × 1024 = 4096 jobs).
pub const ENSEMBLE_SEEDS: u64 = 1024;

/// Rounds per ensemble job: short, so every job is bound by its
/// set-up (engine reset, per-ant stream derivation) and the store.
pub const ENSEMBLE_ROUNDS: u64 = 20;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm Ant, 1M ants, static timeline, well-mixed.
    WellmixedAnt1m,
    /// Every multi-task kind mixed in a 4-site arena under shocks.
    ArenaMixedShocks,
    /// A γ × seed ensemble through `Sweep` against a durable store.
    EnsembleStore,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WellmixedAnt1m,
        Workload::ArenaMixedShocks,
        Workload::EnsembleStore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WellmixedAnt1m => "wellmixed_ant_1m",
            Workload::ArenaMixedShocks => "arena_mixed_shocks",
            Workload::EnsembleStore => "ensemble_store",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's colony config at its own size (for the ensemble,
    /// the sweep's base config).
    pub fn config(self, seed: u64) -> SimConfig {
        match self {
            Workload::WellmixedAnt1m => wellmixed(1_000_000, seed),
            Workload::ArenaMixedShocks => arena_mixed(250_000, seed),
            Workload::EnsembleStore => ensemble_base(seed),
        }
    }
}

/// The simulator seed a benchmark seed maps to.
pub fn input_seed(seed: u64) -> u64 {
    SplitMix64::new(seed).next_u64()
}

/// Algorithm Ant (γ = 1/16), `k = 3` tasks at demand `n/8` each, under
/// sigmoid noise (λ = 2); static timeline.
pub fn wellmixed(n: usize, seed: u64) -> SimConfig {
    let d = (n / 8) as u64;
    SimConfig::builder(n, vec![d; 3])
        .noise(NoiseModel::Sigmoid { lambda: LAMBDA })
        .controller(ControllerSpec::Ant(AntParams::new(GAMMA)))
        .seed(input_seed(seed))
        .build()
        .expect("the well-mixed workload is a valid scenario")
}

/// Every multi-task controller kind, in the order the per-kind kernel
/// metrics name them.
pub fn kinds() -> [(&'static str, ControllerSpec); 7] {
    [
        ("ant", ControllerSpec::Ant(AntParams::new(GAMMA))),
        (
            "ant_desync",
            ControllerSpec::AntDesync(AntParams::new(GAMMA)),
        ),
        (
            "precise_sigmoid",
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
        ),
        (
            "precise_adversarial",
            ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.05, 0.5)),
        ),
        ("trivial", ControllerSpec::Trivial),
        (
            "exact_greedy",
            ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
        ),
        (
            "proportional",
            ControllerSpec::Proportional(ProportionalParams::default()),
        ),
    ]
}

/// Rounds between the arena workload's demand steps; also the length
/// of one timed colony run, so every timed run holds the same events.
pub const ARENA_PERIOD: u64 = 50;

/// A `Mix` of every multi-task kind at `n` ants, 4 tasks at 4 sites
/// (travel 2 rounds, wander 0.05), with periodic demand steps, a
/// kill/spawn pair and a repeating trigger.
///
/// This mix runs every task overloaded (deficits in the thousands
/// below zero), so a deficit-above-threshold trigger would never fire;
/// the trigger instead strikes whenever regret has stayed above `n/50`
/// for three rounds, at most once per 60 rounds, which the overloaded
/// colony satisfies — the benchmark checks that it did fire.
pub fn arena_mixed(n: usize, seed: u64) -> SimConfig {
    let base = (n / 8) as u64;
    let shock = (n / 50).max(1);
    let timeline = Timeline::new()
        .every(
            ARENA_PERIOD / 2,
            ARENA_PERIOD,
            vec![
                Event::SetTaskDemand {
                    task: 0,
                    demand: base + base / 2,
                },
                Event::SetTaskDemand {
                    task: 0,
                    demand: base,
                },
            ],
        )
        .every(
            ARENA_PERIOD,
            2 * ARENA_PERIOD,
            vec![Event::Kill { count: shock }, Event::Spawn { count: shock }],
        )
        .trigger(Trigger {
            when: Condition::RegretAbove {
                threshold: shock as u64,
                for_rounds: 3,
            },
            event: Event::SetTaskDemand {
                task: 3,
                demand: base,
            },
            cooldown: 60,
            max_firings: 0,
        });
    let mix = kinds().into_iter().map(|(_, spec)| (1.0, spec)).collect();
    SimConfig::builder(n, vec![base; 4])
        .noise(NoiseModel::Sigmoid { lambda: LAMBDA })
        .controller(ControllerSpec::Mix(mix))
        .arena(ArenaConfig {
            site_of_task: vec![0, 1, 2, 3],
            travel_rounds: 2,
            wander_probability: 0.05,
        })
        .timeline(timeline)
        .seed(input_seed(seed))
        .build()
        .expect("the arena workload is a valid scenario")
}

/// The paper acceptance shape: n = 400, k = 2, demands [120, 80].
pub fn ensemble_base(seed: u64) -> SimConfig {
    SimConfig::builder(400, vec![120, 80])
        .noise(NoiseModel::Sigmoid { lambda: LAMBDA })
        .controller(ControllerSpec::Ant(AntParams::new(GAMMA)))
        .seed(input_seed(seed))
        .build()
        .expect("the ensemble base is a valid scenario")
}

/// The seeds one ensemble pass runs per grid point.
pub fn ensemble_seeds(seed: u64, count: u64) -> std::ops::Range<u64> {
    let first = input_seed(seed) >> 16;
    first..first + count
}

/// A sweep over the γ grid × `seeds` (engine reuse on, `threads`
/// workers), optionally against `store`.
pub fn sweep(
    base: &SimConfig,
    seeds: std::ops::Range<u64>,
    threads: usize,
    store: Option<Arc<CheckpointStore>>,
) -> Sweep {
    let sweep = Sweep::new(base.clone())
        .axis("gamma", GAMMA_GRID, |cfg, gamma| {
            cfg.controller = ControllerSpec::Ant(AntParams::new(gamma));
        })
        .seeds(seeds)
        .rounds(ENSEMBLE_ROUNDS)
        .threads(threads)
        .engine_reuse(true);
    match store {
        Some(store) => sweep.store(store),
        None => sweep,
    }
}

/// The workload's colony without its timeline and arena: the static
/// well-mixed round the public-pieces replica reproduces.
pub fn static_twin(cfg: &SimConfig) -> SimConfig {
    let mut twin = cfg.clone();
    twin.timeline = Timeline::new();
    twin.arena = None;
    twin
}

/// The workload's colony with the same mix and timeline, once
/// well-mixed and once spatial (one site per task, travel 2 rounds,
/// wander 0.05, unless the workload already has an arena).
pub fn geometry_pair(cfg: &SimConfig) -> (SimConfig, SimConfig) {
    let mut flat = cfg.clone();
    flat.arena = None;
    let mut spatial = cfg.clone();
    if spatial.arena.is_none() {
        spatial.arena = Some(ArenaConfig {
            site_of_task: (0..cfg.demands.len() as u32).collect(),
            travel_rounds: 2,
            wander_probability: 0.05,
        });
    }
    (flat, spatial)
}
