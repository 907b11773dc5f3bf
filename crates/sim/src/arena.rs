//! Engine-side arena runtime: per-ant position and travel columns plus
//! the per-round sense-row construction that turns an
//! [`ArenaConfig`] into a [`SensedRound`].
//!
//! The layout is SoA like everything else in the engine: two `Vec`s in
//! global ant order (`site`, `travel`), rebuilt rows of
//! `(num_sites + 1) · k` [`TaskFeedback`] entries per round (one row
//! per site plus a trailing all-`Overload` row travelers sense), and a
//! per-ant `sense_of` row index. Masked entries are
//! [`TaskFeedback::Fixed`] and consume zero RNG draws, so an ant's
//! stream position never depends on where it stands — the bit-identity
//! contract survives untouched.
//!
//! Movement is resolved in the coordinator's exclusive window (serial:
//! right after the round commits), on the reserved `ARENA` stream keyed
//! per round, in global ant order: travel counters tick down first,
//! then every ant that is settled and *idle in the committed column*
//! flips the wander coin and, on success, departs for a uniformly
//! chosen other site. The same pass writes next round's `sense_of`, so
//! [`ArenaState::build_round`] only rebuilds the small feedback rows;
//! the per-ant rows are rebuilt from scratch only after a position
//! changed outside the pass (spawns, kills, scrambles, restores).
//!
//! Working ants are not pinned to their task's site. An ant joins only
//! a task it senses, at its own site, but the committed column is not
//! the controller's memory:
//! * Ant and AntDesync pause a worker on an odd round, which commits it
//!   as idle; the wander pass may move it (or set it in transit), and
//!   the even round resumes its task from memory wherever it stands.
//! * PreciseSigmoid joins on counts gathered over a phase, part of
//!   which it may have spent at its previous site.
//!
//! [`ArenaState::sync_to_colony`] snaps every worker to its task's site
//! after the initial configuration, scrambles and stampedes; a
//! checkpoint restore puts the captured columns back verbatim.

use antalloc_env::{ArenaConfig, Assignment, ColonyState, TaskColumn};
use antalloc_noise::{Feedback, PreparedRound, SensedRound, TaskFeedback};
use antalloc_rng::{reserved, uniform_index, AntRng, Bernoulli, StreamSeeder};

/// The sub-seeder arena wander draws derive from: a pure function of
/// the master seed, keyed per round, so movement replays bit-identically
/// on every stepping path.
pub(crate) fn arena_seeder(seed: u64) -> StreamSeeder {
    StreamSeeder::new(StreamSeeder::new(seed).stream(reserved::ARENA).next_u64())
}

/// The row an ant senses: the blind row while in transit, its site's
/// row once settled.
#[inline]
fn sense_row(site: u32, travel: u32, blind: u32) -> u32 {
    if travel > 0 {
        blind
    } else {
        site
    }
}

/// Live spatial state for one engine: where every ant stands, how long
/// each traveler has left, and the reusable sense-row buffers.
pub(crate) struct ArenaState {
    config: ArenaConfig,
    num_sites: usize,
    /// Current (or destination, while traveling) site per ant.
    site: Vec<u32>,
    /// Rounds of transit remaining per ant; 0 = settled.
    travel: Vec<u32>,
    /// `(num_sites + 1) · k` sense rows rebuilt each round; row `s`
    /// holds task `j`'s real feedback iff `site_of_task[j] == s`, the
    /// trailing row is all-`Overload` for travelers.
    rows: Vec<TaskFeedback>,
    /// Per-ant row index into `rows`: the blind row while in transit,
    /// the ant's site otherwise. Written by the wander pass.
    sense_of: Vec<u32>,
    /// Whether a position changed since `sense_of` was last written, so
    /// the next [`ArenaState::build_round`] must rebuild it.
    sense_stale: bool,
    /// Wander-pass scratch: the ants eligible to flip a coin, in global
    /// order.
    eligible: Vec<u32>,
    /// Wander randomness, keyed per round.
    seeder: StreamSeeder,
    wander: Bernoulli,
}

impl ArenaState {
    /// Builds the runtime for `n` ants, everyone settled at site
    /// `i % num_sites` (callers follow up with
    /// [`ArenaState::sync_to_colony`] once assignments exist).
    pub(crate) fn new(config: &ArenaConfig, n: usize, seed: u64) -> Self {
        let num_sites = config.num_sites();
        let mut state = Self {
            config: config.clone(),
            num_sites,
            site: Vec::new(),
            travel: Vec::new(),
            rows: Vec::new(),
            sense_of: Vec::new(),
            sense_stale: true,
            eligible: Vec::new(),
            seeder: arena_seeder(seed),
            wander: Bernoulli::new(config.wander_probability),
        };
        state.reset(n);
        state
    }

    /// Rebuilds to the fresh-engine state for `n` ants, reusing
    /// allocations (the engine-reuse path).
    pub(crate) fn reset(&mut self, n: usize) {
        self.site.clear();
        self.travel.clear();
        for i in 0..n {
            self.site.push(Self::home_site(i, self.num_sites));
            self.travel.push(0);
        }
        self.sense_stale = true;
    }

    /// The deterministic spawn/initial site for global index `i`.
    #[inline]
    fn home_site(i: usize, num_sites: usize) -> u32 {
        // audit:allow(cast): the remainder is < num_sites, which validation bounds by the task count (≤ MAX_TASKS, far below 2^32).
        (i % num_sites.max(1)) as u32
    }

    pub(crate) fn len(&self) -> usize {
        self.site.len()
    }

    /// Whether the geometry degenerates to the shared well-mixed view
    /// (one site; sensing and wandering are skipped entirely).
    #[inline]
    pub(crate) fn is_single_site(&self) -> bool {
        self.num_sites <= 1
    }

    /// The row index of the trailing all-`Overload` row travelers sense.
    #[inline]
    fn blind_row(&self) -> u32 {
        // audit:allow(cast): validation bounds num_sites by the task count (≤ MAX_TASKS, far below 2^32).
        self.num_sites as u32
    }

    /// Snaps every *working* ant to its task's site (settled); idle ants
    /// keep their position and travel state. Call after anything that
    /// rewrites assignments wholesale: initial configs, scrambles and
    /// stampedes.
    pub(crate) fn sync_to_colony(&mut self, colony: &ColonyState) {
        let n = colony.num_ants();
        while self.site.len() < n {
            self.site
                .push(Self::home_site(self.site.len(), self.num_sites));
            self.travel.push(0);
        }
        self.site.truncate(n);
        self.travel.truncate(n);
        for i in 0..n {
            if let Assignment::Task(j) = colony.assignment(i) {
                // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
                self.site[i] = self.config.site_of(j as usize);
                self.travel[i] = 0;
            }
        }
        self.sense_stale = true;
    }

    /// Mirrors `Population::remove` (swap-remove of global slot `i`).
    pub(crate) fn remove(&mut self, i: usize) {
        self.site.swap_remove(i);
        self.travel.swap_remove(i);
        self.sense_stale = true;
    }

    /// Mirrors `Population::spawn`: the new ant lands settled at its
    /// home site (a pure function of its global index, so spawns are
    /// stepping-path independent).
    pub(crate) fn spawn(&mut self) {
        self.site
            .push(Self::home_site(self.site.len(), self.num_sites));
        self.travel.push(0);
        self.sense_stale = true;
    }

    /// Rebuilds the sense rows for the round described by `prepared`,
    /// and the per-ant row indices too if a position changed since the
    /// last wander pass wrote them. No-op for single-site geometries —
    /// the engine hands out [`SensedRound::shared`] instead.
    pub(crate) fn build_round(&mut self, prepared: &PreparedRound) {
        if self.is_single_site() {
            return;
        }
        let k = prepared.num_tasks();
        let masked = TaskFeedback::Fixed(Feedback::Overload);
        self.rows.clear();
        self.rows.resize((self.num_sites + 1) * k, masked);
        for (j, &feedback) in prepared.tasks().iter().enumerate() {
            // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
            let s = self.config.site_of(j) as usize;
            self.rows[s * k + j] = feedback;
        }
        let blind = self.blind_row();
        let fresh = self
            .site
            .iter()
            .zip(&self.travel)
            .map(|(&s, &t)| sense_row(s, t, blind));
        if self.sense_stale {
            self.sense_of.clear();
            self.sense_of.extend(fresh);
            self.sense_stale = false;
        } else {
            debug_assert!(fresh.eq(self.sense_of.iter().copied()));
        }
    }

    /// The sensed view of this round: the shared well-mixed view for
    /// single-site geometries, per-site rows otherwise. Call after
    /// [`ArenaState::build_round`].
    pub(crate) fn sensed<'a>(&'a self, prepared: &'a PreparedRound) -> SensedRound<'a> {
        if self.is_single_site() {
            SensedRound::shared(prepared)
        } else {
            SensedRound::from_parts(
                &self.rows,
                &self.sense_of,
                prepared.num_tasks(),
                prepared.round(),
            )
        }
    }

    /// The end-of-round movement pass. One sweep ticks every travel
    /// counter down, writes next round's sense row per ant and lists the
    /// ants that are settled and idle in `assignments` (the
    /// just-committed authoritative column). Then each listed ant, in
    /// global order, flips the wander coin (reserved `ARENA` stream
    /// keyed by `round`) and on success departs for a uniformly chosen
    /// other site.
    pub(crate) fn wander(&mut self, round: u64, assignments: &TaskColumn) {
        let mut rng = self.seeder.stream(round);
        self.wander_with(&mut rng, assignments);
    }

    /// [`ArenaState::wander`] drawing from `rng`, the round's stream.
    fn wander_with(&mut self, rng: &mut AntRng, assignments: &TaskColumn) {
        if self.is_single_site() {
            return;
        }
        let n = self.site.len();
        let blind = self.blind_row();
        self.sense_of.resize(n, blind);
        self.eligible.resize(n, 0);
        let mut m = 0;
        for (i, ((t, &s), row)) in self
            .travel
            .iter_mut()
            .zip(&self.site)
            .zip(&mut self.sense_of)
            .enumerate()
        {
            *t = t.saturating_sub(1);
            *row = sense_row(s, *t, blind);
            // audit:allow(cast): ant slot indices are < the colony size, which the u32 assignment columns already bound below 2^32.
            let id = i as u32;
            let idle = assignments.load(id) == Assignment::RAW_IDLE;
            // Branch-free append: the slot is always written, the
            // length grows only for an eligible ant (m ≤ i < n).
            self.eligible[m] = id;
            m += usize::from(*t == 0 && idle);
        }
        self.sense_stale = false;
        if self.wander.never() {
            return;
        }
        for &id in &self.eligible[..m] {
            if self.wander.sample(rng) {
                // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
                let i = id as usize;
                // audit:allow(cast): the pick is < num_sites − 1, and validation bounds num_sites by the task count (≤ MAX_TASKS).
                let pick = uniform_index(rng, self.num_sites - 1) as u32;
                self.site[i] = pick + u32::from(pick >= self.site[i]);
                self.travel[i] = self.config.travel_rounds;
                self.sense_of[i] = sense_row(self.site[i], self.travel[i], blind);
            }
        }
    }

    /// Per-ant site column, global ant order (checkpointing).
    pub(crate) fn site(&self) -> &[u32] {
        &self.site
    }

    /// Per-ant travel column, global ant order (checkpointing).
    pub(crate) fn travel(&self) -> &[u32] {
        &self.travel
    }

    /// Restores the position columns from a checkpoint, in global ant
    /// order. Site indices must already be validated against the
    /// geometry.
    pub(crate) fn set_columns(
        &mut self,
        site: impl IntoIterator<Item = u32>,
        travel: impl IntoIterator<Item = u32>,
    ) {
        self.site.clear();
        self.site.extend(site);
        self.travel.clear();
        self.travel.extend(travel);
        debug_assert_eq!(self.site.len(), self.travel.len());
        let sites = self.num_sites.max(1);
        // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
        debug_assert!(self.site.iter().all(|&s| (s as usize) < sites));
        self.sense_stale = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_env::DemandVector;
    use antalloc_noise::NoiseModel;

    fn two_site_config() -> ArenaConfig {
        ArenaConfig {
            site_of_task: vec![0, 1],
            travel_rounds: 2,
            wander_probability: 1.0,
        }
    }

    fn prepared(k: usize) -> PreparedRound {
        NoiseModel::Exact.prepare(1, &vec![1; k], &vec![10; k])
    }

    #[test]
    fn rows_mask_non_local_tasks_as_fixed_overload() {
        let mut a = ArenaState::new(&two_site_config(), 4, 7);
        let prep = prepared(2);
        a.build_round(&prep);
        let sensed = a.sensed(&prep);
        assert!(sensed.shared_view().is_none());
        // Ant 0 sits at site 0: task 0 real, task 1 masked.
        let mut rng = antalloc_rng::Xoshiro256pp::seed_from_u64(0);
        let v0 = sensed.view_for(0);
        assert!(v0.sample(0, &mut rng).is_lack());
        assert!(!v0.sample(1, &mut rng).is_lack());
        // Ant 1 sits at site 1: mirrored.
        let v1 = sensed.view_for(1);
        assert!(!v1.sample(0, &mut rng).is_lack());
        assert!(v1.sample(1, &mut rng).is_lack());
    }

    #[test]
    fn travelers_sense_nothing_and_arrive_on_schedule() {
        let mut a = ArenaState::new(&two_site_config(), 2, 3);
        let idle = TaskColumn::new(2);
        a.wander(1, &idle); // p = 1: both ants depart, travel = 2.
        assert!(a.travel().iter().all(|&t| t == 2));
        let prep = prepared(2);
        a.build_round(&prep);
        let sensed = a.sensed(&prep);
        let mut rng = antalloc_rng::Xoshiro256pp::seed_from_u64(0);
        for ant in 0..2 {
            let v = sensed.view_for(ant);
            assert!(!v.sample(0, &mut rng).is_lack());
            assert!(!v.sample(1, &mut rng).is_lack());
        }
        // Travelers are not eligible to wander; counters tick down.
        a.wander(2, &idle);
        assert!(a.travel().iter().all(|&t| t == 1));
        a.wander(3, &idle); // arrive (1 -> 0) and immediately re-wander (p = 1).
        assert!(a.travel().iter().all(|&t| t == 2));
    }

    #[test]
    fn working_ants_never_wander_and_single_site_is_inert() {
        let mut a = ArenaState::new(&two_site_config(), 2, 3);
        let column = TaskColumn::new(2);
        column.store(0, 1); // ant 0 works task 1; ant 1 idle.
        let before = a.site()[0];
        a.wander(1, &column);
        assert_eq!(a.site()[0], before);
        assert_eq!(a.travel()[0], 0);
        assert_eq!(a.travel()[1], 2); // the idle ant departed (p = 1).

        let mut single = ArenaState::new(&ArenaConfig::single_site(2), 2, 3);
        assert!(single.is_single_site());
        single.wander(1, &TaskColumn::new(2));
        assert!(single.travel().iter().all(|&t| t == 0));
    }

    #[test]
    fn sync_snaps_workers_and_spawn_remove_mirror_population() {
        let cfg = ArenaConfig {
            site_of_task: vec![0, 1, 2],
            travel_rounds: 0,
            wander_probability: 0.5,
        };
        let mut a = ArenaState::new(&cfg, 3, 9);
        assert_eq!(a.site(), &[0, 1, 2]);
        let mut colony = ColonyState::new(3, DemandVector::new(vec![5, 5, 5]));
        colony.apply(0, Assignment::Task(2));
        a.sync_to_colony(&colony);
        assert_eq!(a.site()[0], 2); // snapped to task 2's site
        a.spawn();
        assert_eq!(a.len(), 4);
        assert_eq!(a.site()[3], 0); // home site of global index 3
        a.remove(0); // swap-remove: last ant slides into slot 0
        assert_eq!(a.site(), &[0, 1, 2]);
    }

    /// The per-ant arena as it stood before the fused wander pass:
    /// position columns, the original two-loop wander and a from-scratch
    /// sense-row build. The fused pass must match it draw for draw.
    struct Oracle {
        config: ArenaConfig,
        num_sites: usize,
        site: Vec<u32>,
        travel: Vec<u32>,
    }

    impl Oracle {
        fn wander(&mut self, rng: &mut AntRng, assignments: &TaskColumn) {
            for t in &mut self.travel {
                *t = t.saturating_sub(1);
            }
            let wander = Bernoulli::new(self.config.wander_probability);
            if wander.never() {
                return;
            }
            for i in 0..self.site.len() {
                if self.travel[i] > 0 || assignments.load(i as u32) != Assignment::RAW_IDLE {
                    continue;
                }
                if wander.sample(rng) {
                    let pick = uniform_index(rng, self.num_sites - 1) as u32;
                    self.site[i] = pick + u32::from(pick >= self.site[i]);
                    self.travel[i] = self.config.travel_rounds;
                }
            }
        }

        /// Every ant's sensed row (`k` entries), rebuilt from scratch.
        fn sensed_rows(&self, prepared: &PreparedRound) -> Vec<Vec<TaskFeedback>> {
            let k = prepared.num_tasks();
            let mut rows = vec![TaskFeedback::Fixed(Feedback::Overload); (self.num_sites + 1) * k];
            for (j, &feedback) in prepared.tasks().iter().enumerate() {
                rows[self.config.site_of(j) as usize * k + j] = feedback;
            }
            self.site
                .iter()
                .zip(&self.travel)
                .map(|(&s, &t)| {
                    let row = if t > 0 { self.num_sites } else { s as usize };
                    rows[row * k..(row + 1) * k].to_vec()
                })
                .collect()
        }
    }

    #[test]
    fn fused_wander_matches_the_per_ant_oracle() {
        use antalloc_rng::Xoshiro256pp;
        let k = 4;
        let prep = NoiseModel::Sigmoid { lambda: 0.5 }.prepare(1, &[3, -2, 0, 5], &[10; 4]);
        for travel_rounds in [0, 1, 2] {
            for p in [0.0, 0.05, 1.0] {
                for seed in 0..6 {
                    let config = ArenaConfig {
                        site_of_task: vec![0, 1, 2, 1],
                        travel_rounds,
                        wander_probability: p,
                    };
                    let mut ops = Xoshiro256pp::seed_from_u64(seed);
                    let n0 = 40 + uniform_index(&mut ops, 40);
                    let mut a = ArenaState::new(&config, n0, seed);
                    let mut o = Oracle {
                        config: config.clone(),
                        num_sites: 3,
                        site: (0..n0).map(|i| (i % 3) as u32).collect(),
                        travel: vec![0; n0],
                    };
                    let seeder = arena_seeder(seed);
                    for round in 1..=150u64 {
                        // Zero to two position changes outside the pass
                        // (a round's events), then a round's sensing and
                        // wander pass.
                        for _ in 0..uniform_index(&mut ops, 3) {
                            let n = a.len();
                            match uniform_index(&mut ops, 6) {
                                0 if n > 1 => {
                                    let i = uniform_index(&mut ops, n);
                                    a.remove(i);
                                    o.site.swap_remove(i);
                                    o.travel.swap_remove(i);
                                }
                                1 => {
                                    a.spawn();
                                    o.site.push((o.site.len() % 3) as u32);
                                    o.travel.push(0);
                                }
                                2 => {
                                    let mut colony =
                                        ColonyState::new(n, DemandVector::new(vec![5; k]));
                                    for i in 0..n {
                                        let pick = uniform_index(&mut ops, k + 1);
                                        if pick < k {
                                            colony.apply(i, Assignment::Task(pick as u32));
                                            o.site[i] = config.site_of(pick);
                                            o.travel[i] = 0;
                                        }
                                    }
                                    a.sync_to_colony(&colony);
                                }
                                3 => {
                                    o.site =
                                        (0..n).map(|_| uniform_index(&mut ops, 3) as u32).collect();
                                    o.travel =
                                        (0..n).map(|_| uniform_index(&mut ops, 3) as u32).collect();
                                    a.set_columns(o.site.iter().copied(), o.travel.iter().copied());
                                }
                                4 if uniform_index(&mut ops, 4) == 0 => {
                                    let n = 20 + uniform_index(&mut ops, 60);
                                    a.reset(n);
                                    o.site = (0..n).map(|i| (i % 3) as u32).collect();
                                    o.travel = vec![0; n];
                                }
                                _ => {}
                            }
                        }
                        assert_eq!(a.site(), o.site.as_slice());
                        assert_eq!(a.travel(), o.travel.as_slice());

                        a.build_round(&prep);
                        let sensed = o.sensed_rows(&prep);
                        assert_eq!(a.sense_of.len(), sensed.len());
                        for (i, row) in sensed.iter().enumerate() {
                            let r = a.sense_of[i] as usize;
                            assert_eq!(&a.rows[r * k..(r + 1) * k], row.as_slice(), "ant {i}");
                        }

                        let column = TaskColumn::new(a.len());
                        for i in 0..a.len() {
                            let pick = uniform_index(&mut ops, k + 2);
                            if pick < k {
                                column.store(i as u32, pick as u32);
                            }
                        }
                        let (mut fused_rng, mut oracle_rng) =
                            (seeder.stream(round), seeder.stream(round));
                        a.wander_with(&mut fused_rng, &column);
                        o.wander(&mut oracle_rng, &column);
                        assert_eq!(fused_rng.next_u64(), oracle_rng.next_u64(), "round {round}");
                        assert_eq!(a.site(), o.site.as_slice());
                        assert_eq!(a.travel(), o.travel.as_slice());
                    }
                }
            }
        }
    }
}
