//! The synchronous round engine (§2.1), stepping bank-wise.
//!
//! ## Data-oriented core
//!
//! Ants live in homogeneous [`antalloc_core::ControllerBank`]s owned by
//! a [`crate::population::Population`] (see its docs for the full
//! ant → (bank, slot) index invariants): one bank per controller kind,
//! so a homogeneous colony pays its controller dispatch once per round
//! and the hot loop is monomorphic. `ControllerSpec::Mix` colonies are
//! simply several banks over one colony; every engine operation —
//! stepping, perturbation, checkpointing, parallel partitioning — is
//! bank-wise.
//!
//! ## The bit-identity contract
//!
//! The non-negotiable spine of the engine: for a fixed config and seed,
//! every stepping path produces **bit-identical** loads, assignments
//! and round traces —
//!
//! * serial [`SyncEngine::run`] versus multi-threaded
//!   [`SyncEngine::run_parallel`] at any thread count,
//! * bank-wise stepping versus per-ant reference stepping (each ant
//!   consumes only its own RNG stream, in the same order; see
//!   [`antalloc_core::ControllerBank`]),
//! * a checkpoint captured at a phase boundary, restored and resumed,
//!   versus the uninterrupted run.
//!
//! Rounds are double-buffered through a fused apply: sub-round 1 steps
//! kernels that write every ant's next assignment straight into the
//! engine-owned next-state [`antalloc_env::TaskColumn`] (accumulating a
//! commutative [`antalloc_env::RoundDelta`]), sub-round 2 is an O(1)
//! buffer-parity flip plus an O(k) delta application — there is no
//! separate apply sweep. *Write* order is therefore immaterial: column
//! slots are disjoint per ant, load/idle transitions commute, and the
//! switch count is a sum. Consumption order of randomness is what
//! matters, and that is per-ant by construction. Serial and
//! multi-threaded stepping share one round loop; serial is the pool
//! with a single participant. `tests/determinism.rs`,
//! `tests/golden_traces.rs` and the bank property tests in
//! `tests/banks.rs` hold this contract down.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use antalloc_core::AnyController;
use antalloc_env::{
    ColonyState, ColonyView, ColumnWriter, DemandVector, Event, InitialConfig, Perturbation,
    RoundDelta, TaskColumn, Timeline, TriggerState,
};
use antalloc_noise::{NoiseModel, PreparedRound, SensedRound};
use antalloc_rng::{reserved, AntRng, StreamSeeder};

use crate::arena::ArenaState;
use crate::checkpoint::Tail;
use crate::config::{ControllerSpec, SimConfig};
use crate::observer::Observer;
use crate::pool::{DeltaSlot, RoundBarrier};
use crate::population::{Population, WorkerPart};

/// Applies a colony-level perturbation, keeping controllers, RNG
/// streams and the environment mutually consistent. Shared by
/// [`SyncEngine::perturb`] and the timeline event executor of both
/// engines.
fn apply_perturbation(
    p: &Perturbation,
    colony: &mut ColonyState,
    population: &mut Population,
    mut arena: Option<&mut ArenaState>,
    rng: &mut AntRng,
    seeder: &StreamSeeder,
    next_stream: &mut u64,
) {
    let swaps = p.apply(colony, rng);
    match p {
        Perturbation::KillRandom { .. } => {
            for &(slot, _) in &swaps {
                population.remove(slot);
                if let Some(a) = arena.as_deref_mut() {
                    a.remove(slot);
                }
            }
            // Kills without swaps (victim was last) still shrink us.
            while population.len() > colony.num_ants() {
                let last = population.len() - 1;
                population.remove(last);
                if let Some(a) = arena.as_deref_mut() {
                    a.remove(last);
                }
            }
        }
        Perturbation::Spawn { count } => {
            for _ in 0..*count {
                let stream = seeder.stream(*next_stream);
                population.spawn(*next_stream, stream);
                *next_stream += 1;
                if let Some(a) = arena.as_deref_mut() {
                    a.spawn();
                }
            }
        }
        Perturbation::Scramble | Perturbation::StampedeTo(_) => {
            population.reset_to_colony(colony);
            // Ants teleported onto a task stand at its site; idle ants
            // keep their position (and any in-flight travel).
            if let Some(a) = arena.as_deref_mut() {
                a.sync_to_colony(colony);
            }
        }
    }
    debug_assert!(colony.recount_consistent());
    debug_assert_eq!(population.len(), colony.num_ants());
    debug_assert!(population.check_invariants());
    debug_assert!(arena.is_none_or(|a| a.len() == colony.num_ants()));
}

/// Applies one timeline event. Population shocks route through
/// [`apply_perturbation`]; demand and noise rewrites are pure.
#[allow(clippy::too_many_arguments)] // engine-internal plumbing
fn apply_event(
    event: &Event,
    colony: &mut ColonyState,
    population: &mut Population,
    arena: Option<&mut ArenaState>,
    noise: &mut NoiseModel,
    rng: &mut AntRng,
    seeder: &StreamSeeder,
    next_stream: &mut u64,
) {
    match event {
        Event::SetDemands(demands) => colony.demands_mut().set(demands),
        Event::SetTaskDemand { task, demand } => {
            colony.demands_mut().set_task(*task, *demand);
        }
        Event::SetNoise(model) => *noise = model.clone(),
        shock => {
            let p = shock
                .as_perturbation()
                // audit:allow(panic-path): exhaustive by construction — the match above consumed every pure event kind.
                .expect("non-pure events are perturbations");
            apply_perturbation(&p, colony, population, arena, rng, seeder, next_stream);
        }
    }
}

/// A run's timeline and how far it has got: everything both engines
/// need to fire events at the start of a round and to watch triggers at
/// its end.
pub(crate) struct TimelineRun {
    /// The config's timeline with random generators expanded into
    /// concrete one-shot events (identical to `config.timeline` when no
    /// generators are declared). All stepping reads this one.
    compiled: Timeline,
    /// One-shot events consumed so far (monotone cursor over the
    /// compiled stream).
    cursor: usize,
    /// Runtime state of every trigger, in timeline order.
    trigger_states: Vec<TriggerState>,
    /// The sub-seeder every event draw derives from: a pure function of
    /// the master seed, keyed per firing round, so scripted shocks
    /// consume identical randomness on every stepping path.
    seeder: StreamSeeder,
}

impl TimelineRun {
    /// The run's start. The compiled stream is a pure function of
    /// `(config, seed)`: magnitudes scale off the *initial* n and
    /// demands, never a shrunk colony's.
    pub(crate) fn new(config: &SimConfig) -> Self {
        let compiled = config
            .timeline
            .compile(config.seed, config.n, &config.demands);
        Self {
            trigger_states: compiled.initial_trigger_states(),
            compiled,
            cursor: 0,
            seeder: StreamSeeder::new(
                StreamSeeder::new(config.seed)
                    .stream(reserved::EVENT)
                    .next_u64(),
            ),
        }
    }

    /// No events and no triggers: the placeholder an engine shell holds
    /// until [`SyncEngine::reset_from`] or a checkpoint restore compiles
    /// the config's timeline.
    fn empty() -> Self {
        Self {
            compiled: Timeline::default(),
            cursor: 0,
            trigger_states: Vec::new(),
            seeder: StreamSeeder::new(0),
        }
    }

    /// The runtime state of every trigger, in timeline order.
    pub(crate) fn trigger_states(&self) -> &[TriggerState] {
        &self.trigger_states
    }

    /// Fires every event due at `round`: one-shots past the cursor, then
    /// cycles, then the triggers armed at the end of the previous round.
    /// All events of one round share a stream derived purely from
    /// `(master seed, round)`, so firing is stepping-path independent.
    #[allow(clippy::too_many_arguments)] // engine-internal plumbing
    pub(crate) fn fire(
        &mut self,
        round: u64,
        colony: &mut ColonyState,
        population: &mut Population,
        mut arena: Option<&mut ArenaState>,
        noise: &mut NoiseModel,
        seeder: &StreamSeeder,
        next_stream: &mut u64,
    ) {
        let mut fired = Vec::new();
        self.compiled.fire_into(round, &mut self.cursor, &mut fired);
        self.compiled
            .fire_triggers_into(round, &mut self.trigger_states, &mut fired);
        if fired.is_empty() {
            return;
        }
        let mut rng = self.seeder.stream(round);
        for event in &fired {
            apply_event(
                event,
                colony,
                population,
                arena.as_deref_mut(),
                noise,
                &mut rng,
                seeder,
                next_stream,
            );
        }
    }

    /// Feeds the end-of-round summary to every trigger and returns
    /// whether one armed (its event fires at the start of the next
    /// round). `population` is passed in because a pooled round has the
    /// colony's task column on loan, so `colony.num_ants()` reads 0.
    pub(crate) fn observe(
        &mut self,
        round: u64,
        post_deficits: &[i64],
        population: usize,
        colony: &ColonyState,
    ) -> bool {
        let view = ColonyView {
            round,
            regret: post_deficits.iter().map(|d| d.unsigned_abs()).sum(),
            population,
            idle: colony.idle_count(),
            deficits: post_deficits,
        };
        self.compiled
            .observe_triggers(&mut self.trigger_states, &view)
    }
}

/// What an [`Observer`] sees after each round.
#[derive(Clone, Copy, Debug)]
pub struct RoundRecord<'a> {
    /// The round `t` just completed (1-based).
    pub round: u64,
    /// Post-decision deficits `Δ(j)_t`.
    pub deficits: &'a [i64],
    /// Demands `d(j)` in force this round.
    pub demands: &'a [u64],
    /// Post-decision loads `W(j)_t`.
    pub loads: &'a [u32],
    /// Idle ants after this round.
    pub idle: u64,
    /// Number of ants whose assignment changed this round.
    pub switches: u64,
}

impl RoundRecord<'_> {
    /// Instantaneous regret `r(t) = Σ|Δ(j)_t|`.
    pub fn instant_regret(&self) -> u64 {
        self.deficits.iter().map(|d| d.unsigned_abs()).sum()
    }
}

/// Checkpointable engine state, borrowed from a live engine: a capture
/// reads every per-ant column in place (see `checkpoint/tail.rs`).
pub(crate) struct EngineState<'a> {
    /// The configuration (including the full timeline).
    pub config: &'a SimConfig,
    /// Ground truth (current demands and assignments).
    pub colony: &'a ColonyState,
    /// The noise model currently in force (timeline `SetNoise` events
    /// may have switched it away from `config.noise`).
    pub noise: &'a NoiseModel,
    /// The banked controllers, their RNG streams and the ant index.
    pub population: &'a Population,
    /// The arena's position columns; `None` for well-mixed scenarios.
    pub arena: Option<RwLockReadGuard<'a, ArenaState>>,
    /// The current round.
    pub round: u64,
    /// Next RNG stream id for spawned ants.
    pub next_stream: u64,
    /// One-shot timeline events already consumed (indexes the
    /// *compiled* timeline: scripted plus generated events).
    pub cursor: u64,
    /// Runtime state of every timeline trigger, in timeline order.
    pub trigger_states: &'a [TriggerState],
}

/// One bank's slice of the colony, as seen by [`SyncEngine::bank_census`].
#[derive(Clone, Debug)]
pub struct BankCensus {
    /// The (non-`Mix`) spec this bank runs.
    pub spec: ControllerSpec,
    /// Ants currently in the bank.
    pub ants: usize,
    /// How many of them are working on some task.
    pub working: u64,
}

/// The arena behind its lock, for a caller with exclusive access.
fn arena_mut(arena: &mut Option<RwLock<ArenaState>>) -> Option<&mut ArenaState> {
    arena
        .as_mut()
        .map(|l| l.get_mut().unwrap_or_else(PoisonError::into_inner))
}

/// Steps one pooled participant's chunks for a round: kernels read prior
/// assignments from `columns[parity]`, write next ones into the other
/// column, and fold the transitions into `delta`.
///
/// Runs between the round's two barrier crossings. The arena read guard
/// lives only for this call: the coordinator rebuilt the sense rows
/// before the start crossing and writes them again only after the done
/// crossing.
fn step_part(
    part: &mut WorkerPart<'_>,
    arena: Option<&RwLock<ArenaState>>,
    prepared: &PreparedRound,
    columns: &[TaskColumn; 2],
    parity: usize,
    delta: &mut RoundDelta,
) {
    let arena_guard = arena.map(|l| l.read().unwrap_or_else(PoisonError::into_inner));
    let sensed = match &arena_guard {
        Some(a) => a.sensed(prepared),
        None => SensedRound::shared(prepared),
    };
    let mut writer = ColumnWriter::new(&columns[parity], &columns[parity ^ 1], delta);
    for (slice, rngs, ids) in part.iter_mut() {
        slice.step_batch_fused(sensed, rngs, ids, &mut writer);
    }
}

/// The synchronous simulation engine.
///
/// One [`SyncEngine::step`] is the paper's round: sub-round 1 exposes
/// the previous round's loads to every ant through its private noisy
/// feedback; sub-round 2 applies all decisions simultaneously.
pub struct SyncEngine {
    config: SimConfig,
    /// The compiled timeline, its cursor and its trigger states.
    timeline: TimelineRun,
    colony: ColonyState,
    population: Population,
    noise: NoiseModel,
    seeder: StreamSeeder,
    init_rng: AntRng,
    round: u64,
    /// Deficits frozen at the end of the previous round (sensing input).
    pre_deficits: Vec<i64>,
    /// Deficits after this round's decisions (observation output).
    post_deficits: Vec<i64>,
    /// Stream ids handed out so far (spawned ants get fresh streams).
    next_stream: u64,
    /// The *next* half of the double-buffered assignment column: step
    /// kernels write it, and the round's parity flip makes it current.
    /// Engine-owned so workers can share it immutably while the
    /// coordinator keeps `&mut` access to the colony.
    next_column: TaskColumn,
    /// Round-delta scratch of the coordinator's own chunk (reused every
    /// round).
    round_delta: RoundDelta,
    /// Spatial runtime for arena scenarios (`None` for well-mixed).
    /// Behind a lock only for the pool's sake: workers read the frozen
    /// sense rows between the round barriers, the coordinator writes
    /// (sense-row rebuild, wander pass) in its exclusive windows — the
    /// lock is never contended.
    arena: Option<RwLock<ArenaState>>,
}

impl SyncEngine {
    /// The engine `config.build()` returns (after validation).
    pub(crate) fn new(config: &SimConfig) -> Self {
        let mut engine = Self::shell(config);
        engine.reset_from(config);
        engine
    }

    /// The smallest engine for `config` — one ant (colonies are never
    /// empty), no arena and no compiled timeline: the shell that
    /// [`SyncEngine::reset_from`] and checkpoint restores fill in place,
    /// so neither derives per-ant state or compiles the timeline twice.
    pub(crate) fn shell(config: &SimConfig) -> Self {
        let k = config.demands.len();
        let seeder = StreamSeeder::new(config.seed);
        Self {
            timeline: TimelineRun::empty(),
            colony: ColonyState::new(1, DemandVector::new(config.demands.clone())),
            population: Population::build(&config.controller, config.seed, k, 1),
            noise: config.noise.clone(),
            seeder,
            init_rng: seeder.stream(reserved::INIT),
            round: 0,
            pre_deficits: vec![0; k],
            post_deficits: vec![0; k],
            next_stream: 1,
            next_column: TaskColumn::new(1),
            round_delta: RoundDelta::new(k),
            arena: None,
            config: config.clone(),
        }
    }

    /// Rebuilds this engine in place to the state `config.build()`
    /// would produce, reusing allocations wherever shapes allow (shrink
    /// keeps capacity, grow reallocates; a controller-kind change
    /// rebuilds just that bank). The result is **bit-identical** to a
    /// freshly built engine — the sweep runner leans on this to keep
    /// one engine per worker across an entire ensemble.
    ///
    /// Unlike [`SimConfig::build`] this performs no validation: callers
    /// (the sweep's per-grid-point precheck) are expected to have
    /// validated `config` already.
    pub fn reset_from(&mut self, config: &SimConfig) {
        let n = config.n;
        let k = config.demands.len();
        self.config.clone_from(config);
        self.timeline = TimelineRun::new(config);
        self.colony.rebuild_in(n, &config.demands);
        self.population
            .rebuild_in(&config.controller, config.seed, k, n);
        self.noise.clone_from(&config.noise);
        self.seeder = StreamSeeder::new(config.seed);
        self.init_rng = self.seeder.stream(reserved::INIT);
        self.round = 0;
        self.pre_deficits.clear();
        self.pre_deficits.resize(k, 0);
        self.post_deficits.clear();
        self.post_deficits.resize(k, 0);
        self.next_stream = n as u64;
        self.next_column.reset(n);
        self.round_delta.reset(k);
        self.arena = config
            .arena
            .as_ref()
            .map(|a| RwLock::new(ArenaState::new(a, n, config.seed)));
        let initial = self.config.initial.clone();
        self.set_initial(&initial);
    }

    /// Applies an initial configuration (Theorem 3.1's "arbitrary
    /// initial allocation"), syncing controllers to the environment.
    pub fn set_initial(&mut self, initial: &InitialConfig) {
        initial.apply(&mut self.colony, &mut self.init_rng);
        self.population.reset_to_colony(&self.colony);
        if let Some(arena) = arena_mut(&mut self.arena) {
            arena.sync_to_colony(&self.colony);
        }
    }

    /// The current round number (rounds are 1-based; 0 before any step).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The colony's ground truth.
    pub fn colony(&self) -> &ColonyState {
        &self.colony
    }

    /// The configuration this engine was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Total memory used by one ant's controller, in bits (ant 0; for
    /// mixed colonies see [`SyncEngine::bank_census`] per sub-spec).
    pub fn controller_memory_bits(&self) -> u32 {
        if self.population.len() == 0 {
            0
        } else {
            self.population.memory_bits(0)
        }
    }

    /// The runtime state of every timeline trigger, in timeline order
    /// (empty for trigger-free scenarios). Benches use this to report
    /// how many conditional shocks a run actually absorbed.
    pub fn trigger_states(&self) -> &[TriggerState] {
        self.timeline.trigger_states()
    }

    /// Per-bank population and load census: which controller kind holds
    /// how much of the colony right now. Homogeneous colonies report a
    /// single bank.
    pub fn bank_census(&self) -> Vec<BankCensus> {
        self.population
            .banks()
            .iter()
            .map(|bank| BankCensus {
                spec: bank.spec.clone(),
                ants: bank.len(),
                working: bank
                    .ants
                    .iter()
                    .filter(|&&i| !self.colony.assignment(i as usize).is_idle())
                    .count() as u64,
            })
            .collect()
    }

    /// Clones every controller into the per-ant dispatch enum, in
    /// global ant order — the *reference* representation. Bank-wise
    /// stepping is bit-identical to stepping these with
    /// [`antalloc_core::Controller::step`] against per-ant probes; the
    /// bank property tests and the `perf_engine` pre-bank baseline lean
    /// on this.
    pub fn reference_controllers(&self) -> Vec<AnyController> {
        self.population.reference_controllers()
    }

    /// Runs one synchronous round on the calling thread: the pooled
    /// round loop with a single participant.
    pub fn step(&mut self, observer: &mut impl Observer) {
        self.run(1, observer);
    }

    /// Runs `rounds` rounds on the calling thread.
    pub fn run(&mut self, rounds: u64, observer: &mut impl Observer) {
        self.run_segments(rounds, 1, 1, observer);
    }

    /// Runs one round with ants partitioned across worker threads.
    ///
    /// Bit-identical to [`SyncEngine::step`]. Prefer
    /// [`SyncEngine::run_parallel`] for multi-round runs — it amortizes
    /// worker startup across the whole run.
    pub fn step_parallel(&mut self, threads: usize, observer: &mut impl Observer) {
        self.run_parallel(1, threads, observer);
    }

    /// Runs `rounds` rounds with ants partitioned across up to `threads`
    /// worker threads, bit-identical to [`SyncEngine::run`]. `threads`
    /// of 0 or 1 runs on the calling thread, exactly as `run` does.
    ///
    /// Every round, serial or pooled, goes through one loop. The run
    /// splits into segments; workers are spawned once per segment (once
    /// per call for a static timeline), and each round crosses the
    /// pool's barrier twice: the coordinator prepares the round's
    /// feedback state, every participant steps its fixed bank chunks —
    /// writing its ants' next assignments straight into a
    /// cache-line-sharded slice of the shared next-state column while
    /// folding switch/load/idle changes into a delta of its own — and
    /// the coordinator merges the deltas in its exclusive window (no
    /// global re-read sweep). A segment fires the events due on its
    /// first round before it partitions the colony, since events may
    /// resize the population, and it ends before the next scheduled
    /// firing or after a round at which a trigger arms. Determinism is
    /// unconditional, because every ant consumes only its own RNG stream
    /// and events only reserved per-round streams.
    ///
    /// A colony too small for the per-round synchronization to pay off
    /// runs with fewer workers, down to the calling thread alone.
    pub fn run_parallel(&mut self, rounds: u64, threads: usize, observer: &mut impl Observer) {
        // Measured on a 2-vCPU VM, 2 threads, Algorithm Ant: two
        // barrier crossings cost ~18µs/round and an ant-step 12–24ns
        // (cache-resident colony vs 1M ants). Break-even is at ~1–2k
        // ants per worker; from ~8k the pooled path wins reliably
        // (1.2–1.8× at 16k ants, ~1.7× at 1M).
        self.run_segments(rounds, threads, 8_000, observer)
    }

    /// Like [`SyncEngine::run_parallel`] but sizes the pool by `threads`
    /// alone, however small the colony. Exists so tests can exercise the
    /// worker machinery at sizes where production code would run on
    /// one thread; not useful for performance.
    #[doc(hidden)]
    pub fn run_parallel_forced(
        &mut self,
        rounds: u64,
        threads: usize,
        observer: &mut impl Observer,
    ) {
        self.run_segments(rounds, threads, 1, observer)
    }

    /// Runs `rounds` rounds as consecutive [`Self::run_segment`]s.
    fn run_segments(
        &mut self,
        rounds: u64,
        threads: usize,
        min_ants_per_worker: usize,
        observer: &mut impl Observer,
    ) {
        let mut remaining = rounds;
        while remaining > 0 {
            remaining -= self.run_segment(remaining, threads, min_ants_per_worker, observer);
        }
    }

    /// Runs one segment of at most `rounds` (≥ 1) rounds and returns the
    /// rounds completed.
    ///
    /// The segment opens in the coordinator's exclusive window by firing
    /// the events due on its first round (one-shots, cycles and armed
    /// triggers). Only then does it partition the colony, sizing the
    /// pool from the population those events left: one participant per
    /// `min_ants_per_worker` ants, at most `threads` and at least the
    /// calling thread. With one participant no thread is spawned and the
    /// barrier never blocks. The segment ends before the next scheduled
    /// firing round or after a round at which a trigger arms, since
    /// either event may resize the population under the partition.
    fn run_segment(
        &mut self,
        rounds: u64,
        threads: usize,
        min_ants_per_worker: usize,
        observer: &mut impl Observer,
    ) -> u64 {
        let first = self.round + 1;
        self.timeline.fire(
            first,
            &mut self.colony,
            &mut self.population,
            arena_mut(&mut self.arena),
            &mut self.noise,
            &self.seeder,
            &mut self.next_stream,
        );
        let rounds = match self
            .timeline
            .compiled
            .next_firing(first, self.timeline.cursor)
        {
            Some(next) => rounds.min(next - first),
            None => rounds,
        };
        let n = self.population.len();
        let workers = (n / min_ants_per_worker).min(threads).max(1);
        // Round chunk boundaries up to 16 ants (16 × u32 = one 64-byte
        // cache line in the next-state column) so no two workers ever
        // write the same destination line.
        let chunk = n.div_ceil(workers).next_multiple_of(16);

        self.next_column.resize(n);
        let k = self.colony.num_tasks();
        // The double buffer, shared immutably with every worker: on a
        // round with parity `p` kernels read prior assignments from
        // `columns[p]` and write next assignments into `columns[p ^ 1]`
        // (relaxed stores into disjoint slots; the `done` barrier
        // orders them before the coordinator's merge). Flipping the
        // parity in the coordinator's exclusive window *is* the apply
        // pass — no data moves. The colony's task column is lent into
        // slot 0 for the segment and restored afterwards.
        let columns = [
            self.colony.take_column(),
            core::mem::replace(&mut self.next_column, TaskColumn::new(0)),
        ];
        // The coordinator publishes each round's prepared feedback and
        // parity here — one Arc bump per round, no deep clone; workers
        // only read it between the two barriers of a round. `None` after
        // a start crossing tells the workers the segment is over.
        let shared: RwLock<Option<(Arc<PreparedRound>, usize)>> = RwLock::new(None);
        // One published-delta slot per spawned worker; the coordinator
        // folds its own chunk into `round_delta` and merges it directly.
        let slots: Vec<DeltaSlot> = (1..workers).map(|_| DeltaSlot::default()).collect();
        // Participants: (workers − 1) spawned threads + the coordinator,
        // which steps chunk 0 itself. Every round crosses the barrier
        // twice: once to start stepping, once when every chunk is done.
        let barrier = RoundBarrier::new(workers);

        // Partition the banks once for the whole segment: each worker
        // owns a disjoint set of (bank chunk, RNG chunk, ant-id chunk)
        // triples covering ~`chunk` ants.
        let parts = self.population.partition_mut(workers, chunk);

        // Fields the coordinator keeps for itself during the scope.
        let colony = &mut self.colony;
        let noise = &self.noise;
        let round = &mut self.round;
        let pre_deficits = &mut self.pre_deficits;
        let post_deficits = &mut self.post_deficits;
        let timeline = &mut self.timeline;
        let own_delta = &mut self.round_delta;
        let arena = self.arena.as_ref();

        let (completed, parity) = std::thread::scope(|scope| {
            // The coordinator doubles as the worker for chunk 0, so the
            // run uses exactly `workers` OS threads (no oversubscription
            // from a dedicated coordinator).
            let mut parts = parts.into_iter();
            // audit:allow(panic-path): the partitioner emits exactly `workers` >= 1 parts.
            let mut own_part = parts.next().expect("at least one chunk");
            let _unwind = barrier.break_on_unwind();
            for (slot, mut part) in slots.iter().zip(parts) {
                let (shared, barrier, columns) = (&shared, &barrier, &columns);
                scope.spawn(move || {
                    let _unwind = barrier.break_on_unwind();
                    // Allocated here, on the worker's own thread, and
                    // only ever swapped with the worker's slot: its hot
                    // counters and buffers never share a cache line with
                    // another participant's.
                    let mut delta = RoundDelta::new(k);
                    // A broken barrier means another participant
                    // panicked: return, and the scope re-raises it.
                    while barrier.wait().is_ok() {
                        let published = shared
                            .read()
                            .unwrap_or_else(PoisonError::into_inner)
                            .clone();
                        let Some((prepared, parity)) = published else {
                            return;
                        };
                        delta.reset(k);
                        step_part(&mut part, arena, &prepared, columns, parity, &mut delta);
                        // Publish once per round. The swap hands back
                        // the buffers published last round (empty before
                        // the first), so every buffer this worker ever
                        // grows is allocated on this thread.
                        slot.publish(&mut delta);
                        if barrier.wait().is_err() {
                            return;
                        }
                    }
                });
            }

            let mut completed = 0u64;
            let mut parity = 0usize;
            for _ in 0..rounds {
                // Exclusive window: begin the round. Its events, if any,
                // fired before the partition.
                *round += 1;
                colony.deficits_into(pre_deficits);
                let prepared =
                    Arc::new(noise.prepare(*round, pre_deficits, colony.demands().as_slice()));
                // Still exclusive: freeze this round's sense rows before
                // any worker can read them.
                if let Some(l) = arena {
                    l.write()
                        .unwrap_or_else(PoisonError::into_inner)
                        .build_round(&prepared);
                }
                if !slots.is_empty() {
                    *shared.write().unwrap_or_else(PoisonError::into_inner) =
                        Some((Arc::clone(&prepared), parity));
                }
                if barrier.wait().is_err() {
                    break;
                }
                // Step the coordinator's own chunks alongside the workers.
                own_delta.reset(k);
                step_part(&mut own_part, arena, &prepared, &columns, parity, own_delta);
                if barrier.wait().is_err() {
                    break;
                }
                // Exclusive window: merge the coordinator's delta and
                // every published one. All delta fields are commutative
                // (sums and disjoint XOR flips), so merge order is
                // immaterial. Flipping the parity afterwards IS the
                // apply pass: the column the workers just filled becomes
                // the authoritative previous column for the next round —
                // no data moves.
                let mut switches = own_delta.switches();
                colony.apply_round_delta(own_delta);
                for slot in &slots {
                    let delta = slot.lock();
                    switches += delta.switches();
                    colony.apply_round_delta(&delta);
                }
                parity ^= 1;
                // Exclusive window: the wander pass runs against the
                // just-flipped authoritative column.
                if let Some(l) = arena {
                    l.write()
                        .unwrap_or_else(PoisonError::into_inner)
                        .wander(*round, &columns[parity]);
                }
                colony.deficits_into(post_deficits);
                let record = RoundRecord {
                    round: *round,
                    deficits: post_deficits,
                    demands: colony.demands().as_slice(),
                    loads: colony.loads(),
                    idle: colony.idle_count(),
                    switches,
                };
                observer.on_round(&record);
                completed += 1;
                // Still exclusive: an armed trigger ends the segment,
                // since its event fires at the start of the next round.
                if timeline.observe(*round, post_deficits, n, colony) {
                    break;
                }
            }
            // Stop the workers at their next start crossing. On a broken
            // barrier they are gone already, and the scope re-raises the
            // worker's panic on join.
            *shared.write().unwrap_or_else(PoisonError::into_inner) = None;
            let _ = barrier.wait();
            (completed, parity)
        });
        // Return the loaned columns: the parity-current one becomes the
        // colony's authoritative column again (O(1) move — the parity
        // flips already "applied" every round), the other becomes the
        // engine's reusable next-state scratch.
        let [a, b] = columns;
        let (current, scratch) = if parity == 0 { (a, b) } else { (b, a) };
        self.colony.restore_column(current);
        self.next_column = scratch;
        completed
    }

    /// Applies a mid-run perturbation, keeping controllers, RNG streams
    /// and the environment mutually consistent.
    ///
    /// Imperative shocks draw from the engine's init stream; prefer
    /// scripting shocks in the config's [`antalloc_env::Timeline`],
    /// whose events draw from per-round reserved streams and therefore
    /// survive checkpoint-restore bit-identically.
    pub fn perturb(&mut self, p: &Perturbation) {
        apply_perturbation(
            p,
            &mut self.colony,
            &mut self.population,
            arena_mut(&mut self.arena),
            &mut self.init_rng,
            &self.seeder,
            &mut self.next_stream,
        );
    }

    /// Accessors used by checkpointing; see [`EngineState`].
    pub(crate) fn state_parts(&self) -> EngineState<'_> {
        EngineState {
            config: &self.config,
            colony: &self.colony,
            noise: &self.noise,
            population: &self.population,
            arena: self
                .arena
                .as_ref()
                .map(|l| l.read().unwrap_or_else(PoisonError::into_inner)),
            round: self.round,
            next_stream: self.next_stream,
            cursor: self.timeline.cursor as u64,
            trigger_states: &self.timeline.trigger_states,
        }
    }

    /// Rebuilds this engine in place from checkpointed parts, reusing
    /// allocations like [`SyncEngine::reset_from`] (the restore-into-a-
    /// reused-engine path; `Checkpoint::restore` routes through it too,
    /// via a freshly built shell). `noise` is the model in force at
    /// capture time (it may differ from `config.noise` after a
    /// `SetNoise` event); `cursor` is the number of one-shot events of
    /// the *compiled* timeline already consumed (generators re-expand
    /// identically from the seed); `trigger_states` is the captured
    /// runtime state of every trigger (empty for pre-trigger checkpoint
    /// formats, which cannot carry triggers in the first place). The
    /// per-ant state comes from the validated `tail`, written straight
    /// into the colony column, the banks (captured RNG streams, no
    /// re-derivation) and the arena columns.
    #[allow(clippy::too_many_arguments)] // checkpoint-internal plumbing
    pub(crate) fn restore_parts_in(
        &mut self,
        config: &SimConfig,
        demands: &[u64],
        noise: &NoiseModel,
        round: u64,
        next_stream: u64,
        cursor: u64,
        trigger_states: &[TriggerState],
        tail: &Tail,
    ) {
        let k = demands.len();
        self.config.clone_from(config);
        self.colony.rebuild_from_raw(demands, tail.assignments());
        let n = self.colony.num_ants();
        self.population.restore_in(
            &config.controller,
            config.seed,
            k,
            n,
            tail.members(),
            &|i| tail.rng(i),
        );
        self.population.reset_to_colony(&self.colony);
        tail.restore_scratch(k, &mut self.population);
        self.noise.clone_from(noise);
        self.seeder = StreamSeeder::new(config.seed);
        self.init_rng = self.seeder.stream(reserved::INIT);
        self.round = round;
        self.timeline = TimelineRun::new(config);
        self.timeline.cursor = cursor as usize;
        if !trigger_states.is_empty() {
            debug_assert_eq!(trigger_states.len(), self.timeline.trigger_states.len());
            self.timeline.trigger_states = trigger_states.to_vec();
        }
        self.pre_deficits.clear();
        self.pre_deficits.resize(k, 0);
        self.post_deficits.clear();
        self.post_deficits.resize(k, 0);
        self.next_stream = next_stream;
        self.next_column.reset(n);
        self.round_delta.reset(k);
        self.arena = config.arena.as_ref().map(|a| {
            let mut state = ArenaState::new(a, 0, config.seed);
            match tail.arena_columns() {
                Some((site, travel)) => state.set_columns(site, travel),
                // A fork that adds an arena to a well-mixed capture has
                // no columns to restore; derive them from the colony.
                None => state.sync_to_colony(&self.colony),
            }
            RwLock::new(state)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerSpec;
    use crate::observer::{NullObserver, RunSummary};
    use antalloc_core::AntParams;
    use antalloc_noise::NoiseModel;

    fn config() -> SimConfig {
        SimConfig::builder(800, vec![100, 150])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::default()))
            .seed(7)
            .build()
            .expect("valid scenario")
    }

    fn mixed_config() -> SimConfig {
        SimConfig::builder(600, vec![80, 120])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::default())),
                (1.0, ControllerSpec::ExactGreedy(Default::default())),
                (1.0, ControllerSpec::Trivial),
            ]))
            .seed(21)
            .build()
            .expect("valid mixed scenario")
    }

    #[test]
    fn rounds_advance_and_mass_is_conserved() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(10, &mut obs);
        assert_eq!(e.round(), 10);
        assert!(e.colony().recount_consistent());
        let mass: u64 = e.colony().idle_count()
            + (0..e.colony().num_tasks())
                .map(|j| e.colony().load(j))
                .sum::<u64>();
        assert_eq!(mass, 800);
    }

    #[test]
    fn ant_algorithm_fills_tasks_from_idle_start() {
        // From all-idle, every ant joins in phase 1 (the one-off Θ(n)
        // overshoot of Claim 4.5) and the excess then drains at rate
        // γ/c_d per phase (Claim 4.3): γ = 1/16 ⇒ ~300 phases from 400
        // down to ~110. Run well past that and check the band.
        let mut cfg = config();
        cfg.controller = ControllerSpec::Ant(AntParams::new(1.0 / 16.0));
        let mut e = cfg.build();
        let mut obs = RunSummary::new();
        e.run(3000, &mut obs);
        for j in 0..2 {
            let d = e.colony().demands().demand(j) as f64;
            let w = e.colony().load(j) as f64;
            assert!(
                (w - d).abs() < 0.3 * d,
                "task {j}: load {w} demand {d} after {} rounds",
                e.round()
            );
        }
        assert!(obs.rounds() == 3000);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let mut serial = config().build();
        let mut par2 = config().build();
        let mut par4 = config().build();
        let mut o1 = NullObserver;
        serial.run(101, &mut o1);
        // Force the pooled path even at this small size.
        par2.run_parallel_forced(101, 2, &mut o1);
        par4.run_parallel_forced(101, 4, &mut o1);
        assert_eq!(serial.colony().loads(), par2.colony().loads());
        assert_eq!(serial.colony().loads(), par4.colony().loads());
        assert_eq!(serial.colony().assignments(), par2.colony().assignments());
        assert_eq!(serial.colony().assignments(), par4.colony().assignments());
    }

    #[test]
    fn a_panic_inside_a_pooled_segment_reaches_the_caller() {
        // The observer runs on the coordinator between barrier
        // crossings; its panic must drain the parked workers and
        // unwind out of `run_parallel`, not leave the scope waiting.
        let mut engine = config().build();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut obs = crate::observer::FnObserver::new(|r: &RoundRecord<'_>| {
                assert!(r.round < 5, "observer fails at round {}", r.round);
            });
            engine.run_parallel_forced(20, 3, &mut obs);
        }));
        assert!(run.is_err());
    }

    #[test]
    fn mixed_parallel_is_bit_identical_to_serial() {
        let mut serial = mixed_config().build();
        let mut par = mixed_config().build();
        let mut obs = NullObserver;
        serial.run(80, &mut obs);
        par.run_parallel_forced(80, 3, &mut obs);
        assert_eq!(serial.colony().loads(), par.colony().loads());
        assert_eq!(serial.colony().assignments(), par.colony().assignments());
    }

    #[test]
    fn parallel_observer_sees_same_rounds_as_serial() {
        let mut serial = config().build();
        let mut par = config().build();
        let mut serial_trace = Vec::new();
        let mut par_trace = Vec::new();
        {
            let mut obs = crate::observer::FnObserver::new(|r: &RoundRecord<'_>| {
                serial_trace.push((r.round, r.instant_regret(), r.switches));
            });
            serial.run(60, &mut obs);
        }
        {
            let mut obs = crate::observer::FnObserver::new(|r: &RoundRecord<'_>| {
                par_trace.push((r.round, r.instant_regret(), r.switches));
            });
            par.run_parallel_forced(60, 3, &mut obs);
        }
        assert_eq!(serial_trace, par_trace);
    }

    #[test]
    fn worker_count_never_exceeds_requested_threads() {
        // Regression: with n just above one worker's minimum, the old
        // heuristic `threads.min(n / min).max(2)` ran 2 undersized
        // workers; the pool must instead run on the calling thread
        // alone. We can't observe thread counts directly, but the path
        // must stay bit-identical to serial either way.
        let mut serial = config().build();
        let mut obs = NullObserver;
        serial.run(20, &mut obs);
        // 800 ants / 8000 min = 0 workers → the calling thread alone.
        // `threads = 0` runs there too (it used to trip an assertion).
        for threads in [8, 0] {
            let mut pooled = config().build();
            pooled.run_parallel(20, threads, &mut obs);
            assert_eq!(pooled.round(), 20);
            assert_eq!(serial.colony().loads(), pooled.colony().loads());
            assert_eq!(serial.colony().assignments(), pooled.colony().assignments());
        }
    }

    #[test]
    fn initial_config_syncs_controllers() {
        let mut e = config().build();
        e.set_initial(&InitialConfig::AllOnTask(1));
        assert_eq!(e.colony().load(1), 800);
        // Controllers believe it too: run a round; no panic, consistent.
        let mut obs = NullObserver;
        e.step(&mut obs);
        assert!(e.colony().recount_consistent());
    }

    #[test]
    fn kills_and_spawns_keep_arrays_aligned() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(50, &mut obs);
        e.perturb(&Perturbation::KillRandom { count: 300 });
        assert_eq!(e.colony().num_ants(), 500);
        e.run(10, &mut obs);
        assert!(e.colony().recount_consistent());
        e.perturb(&Perturbation::Spawn { count: 100 });
        assert_eq!(e.colony().num_ants(), 600);
        e.run(10, &mut obs);
        assert!(e.colony().recount_consistent());
    }

    #[test]
    fn mixed_colony_survives_kill_spawn_scramble() {
        let mut e = mixed_config().build();
        let mut obs = NullObserver;
        e.run(30, &mut obs);
        let before: usize = e.bank_census().iter().map(|b| b.ants).sum();
        assert_eq!(before, 600);
        e.perturb(&Perturbation::KillRandom { count: 200 });
        assert_eq!(e.colony().num_ants(), 400);
        let after: usize = e.bank_census().iter().map(|b| b.ants).sum();
        assert_eq!(after, 400);
        e.perturb(&Perturbation::Spawn { count: 150 });
        assert_eq!(e.colony().num_ants(), 550);
        e.perturb(&Perturbation::Scramble);
        e.run(30, &mut obs);
        assert!(e.colony().recount_consistent());
        // All three banks are still populated after the churn.
        let census = e.bank_census();
        assert_eq!(census.len(), 3);
        assert!(census.iter().all(|b| b.ants > 0), "{census:?}");
    }

    #[test]
    fn scramble_resyncs_controllers() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(20, &mut obs);
        e.perturb(&Perturbation::Scramble);
        assert!(e.colony().recount_consistent());
        e.run(20, &mut obs);
        assert!(e.colony().recount_consistent());
    }

    #[test]
    fn observer_sees_post_decision_state() {
        let mut e = config().build();
        let mut seen = Vec::new();
        let mut obs = crate::observer::FnObserver::new(|r: &RoundRecord<'_>| {
            let load_sum: u64 = r.loads.iter().map(|&w| u64::from(w)).sum();
            seen.push((r.round, load_sum + r.idle));
        });
        e.run(5, &mut obs);
        assert_eq!(seen.len(), 5);
        for (round, mass) in seen {
            assert!((1..=5).contains(&round));
            assert_eq!(mass, 800);
        }
    }

    #[test]
    fn triggered_runs_are_bit_identical_serial_vs_parallel() {
        use antalloc_env::Condition;

        // A repeating stampede that strikes whenever the colony has
        // settled for 8 rounds: the firing rounds are state-dependent,
        // so the parallel path must discover them mid-segment. Starting
        // saturated puts the colony inside the trigger band right away.
        let cfg = SimConfig::builder(900, vec![120, 180])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::default()))
            .seed(17)
            .initial(InitialConfig::SaturatedPlus { extra: 2 })
            .trigger(antalloc_env::Trigger {
                when: Condition::RegretBelow {
                    threshold: 60,
                    for_rounds: 8,
                },
                event: Event::StampedeTo(0),
                cooldown: 40,
                max_firings: 0,
            })
            .build()
            .unwrap();
        let mut serial = cfg.build();
        let mut parallel = cfg.build();
        let mut serial_trace = Vec::new();
        let mut parallel_trace = Vec::new();
        {
            let mut obs = crate::observer::FnObserver::new(|r: &RoundRecord<'_>| {
                serial_trace.push((r.round, r.instant_regret(), r.switches));
            });
            serial.run(400, &mut obs);
        }
        {
            let mut obs = crate::observer::FnObserver::new(|r: &RoundRecord<'_>| {
                parallel_trace.push((r.round, r.instant_regret(), r.switches));
            });
            parallel.run_parallel_forced(400, 3, &mut obs);
        }
        assert_eq!(serial_trace, parallel_trace);
        assert_eq!(
            serial.colony().assignments(),
            parallel.colony().assignments()
        );
        assert_eq!(serial.trigger_states(), parallel.trigger_states());
        // The trigger really struck (otherwise this test is vacuous).
        assert!(
            serial.trigger_states()[0].firings > 0,
            "trigger never fired"
        );
    }

    #[test]
    fn generated_timelines_are_deterministic_and_seed_dependent() {
        use antalloc_env::{GenShock, TimelineGen};

        let cfg = |seed| {
            SimConfig::builder(600, vec![80, 120])
                .noise(NoiseModel::Sigmoid { lambda: 2.0 })
                .controller(ControllerSpec::Ant(AntParams::default()))
                .seed(seed)
                .generate(TimelineGen {
                    start: 1,
                    until: 150,
                    mean_gap: 30.0,
                    shock: GenShock::Kill {
                        min_frac: 0.05,
                        max_frac: 0.1,
                    },
                })
                .build()
                .unwrap()
        };
        let mut obs = NullObserver;
        let mut a = cfg(5).build();
        let mut b = cfg(5).build();
        let mut par = cfg(5).build();
        a.run(200, &mut obs);
        b.run(200, &mut obs);
        par.run_parallel_forced(200, 4, &mut obs);
        assert_eq!(a.colony().assignments(), b.colony().assignments());
        assert_eq!(a.colony().assignments(), par.colony().assignments());
        // The generated kills really shrank the colony, and a different
        // master seed expands a different schedule.
        assert!(a.colony().num_ants() < 600, "no generated kill fired");
        let timeline = &cfg(5).timeline;
        assert_ne!(
            timeline.compile(5, 600, &[80, 120]),
            timeline.compile(6, 600, &[80, 120]),
        );
    }

    #[test]
    fn mixed_census_matches_quotas() {
        let e = mixed_config().build();
        let census = e.bank_census();
        assert_eq!(census.len(), 3);
        assert_eq!(census.iter().map(|b| b.ants).sum::<usize>(), 600);
        for b in &census {
            assert_eq!(b.ants, 200, "equal weights split 600 three ways");
        }
    }
}
