//! The banked ant population shared by both engines.
//!
//! A [`Population`] owns one [`ControllerBank`] per controller kind
//! plus a stable **ant → (bank, slot) index**. All engine operations —
//! stepping, perturbations, checkpointing, parallel partitioning — are
//! bank-wise; the index is the only piece that thinks in global ant
//! ids.
//!
//! ## Index invariants
//!
//! For every global ant id `i` and every bank `b` with slot `s`:
//!
//! * `index.len()` equals the colony population `n`;
//! * `index[i] == (b, s)`  ⇔  `banks[b].ants[s] == i` (the two maps are
//!   mutual inverses);
//! * within a bank, `controllers`, `rngs` and `ants` all share one
//!   length;
//! * a homogeneous colony has exactly one bank and (absent kills that
//!   are later refilled) `ants[s] == s`;
//! * banks may be empty (a mix fraction can be killed off entirely) but
//!   are never dropped, so spawns can always rejoin their sub-spec.
//!
//! Kills mirror the colony's swap-removal: the victim's bank slot is
//! swap-removed, then the *global* last ant takes over the victim's
//! global id — both maps are patched in O(1).
//!
//! ## Mixed-colony membership
//!
//! `ControllerSpec::Mix` assigns ants to sub-specs deterministically
//! from the master seed: exact largest-remainder quotas of the weights,
//! interleaved by a seeded Fisher–Yates shuffle (the dedicated
//! [`reserved::MIX`] stream). Spawned ants draw their sub-spec from a
//! stream keyed by their RNG stream id, so checkpoint + spawn replays
//! bit-identically to an uninterrupted run.

use antalloc_core::{AnyController, BankSliceMut, ControllerBank};
use antalloc_env::{Assignment, ColonyState};
use antalloc_noise::PreparedRound;
use antalloc_rng::{reserved, uniform_index, AntRng, StreamSeeder};

use crate::config::ControllerSpec;

/// One worker's share of the colony: disjoint (controller chunk, RNG
/// chunk, global-id chunk) triples (see [`Population::partition_mut`]).
pub(crate) type WorkerPart<'a> = Vec<(BankSliceMut<'a>, &'a mut [AntRng], &'a [u32])>;

/// One homogeneous sub-population: controllers plus their per-slot
/// parallel arrays.
pub(crate) struct Bank {
    /// The (non-`Mix`) spec this bank runs; used for spawns and census.
    pub spec: ControllerSpec,
    /// The controllers, in slot order.
    pub controllers: ControllerBank,
    /// Per-slot RNG streams (ant `ants[s]` owns `rngs[s]`).
    pub rngs: Vec<AntRng>,
    /// Slot → global ant id.
    pub ants: Vec<u32>,
}

impl Bank {
    /// An empty bank running `spec`.
    fn empty(spec: &ControllerSpec, num_tasks: usize) -> Self {
        Self {
            spec: spec.clone(),
            controllers: spec.build_bank(num_tasks, &[]),
            rngs: Vec::new(),
            ants: Vec::new(),
        }
    }

    /// Rebuilds the bank's controllers in place to fresh `spec` ones for
    /// the ants `self.ants` lists, reusing the allocations wherever the
    /// kind carries over.
    fn rebuild_controllers(&mut self, spec: &ControllerSpec, num_tasks: usize) {
        if self.spec != *spec {
            self.spec = spec.clone();
        }
        spec.rebuild_bank(num_tasks, &self.ants, &mut self.controllers);
    }

    pub fn len(&self) -> usize {
        self.ants.len()
    }
}

/// The banked population: banks plus the stable two-way ant index.
pub(crate) struct Population {
    banks: Vec<Bank>,
    /// Global ant id → (bank, slot).
    index: Vec<(u32, u32)>,
    /// Mixed-colony membership machinery (`None` for homogeneous).
    mix: Option<MixMembership>,
}

/// Deterministic sub-spec assignment for `ControllerSpec::Mix`.
struct MixMembership {
    weights: Vec<f64>,
    /// Sub-seeder derived from the master seed's `MIX` stream.
    seeder: StreamSeeder,
}

impl MixMembership {
    fn new(seed: u64, weights: Vec<f64>) -> Self {
        Self {
            weights,
            seeder: mix_seeder(seed),
        }
    }

    /// The sub-spec a *spawned* ant with RNG stream id `stream` joins:
    /// one weighted draw from a stream keyed by `(master seed, stream)`,
    /// so the pick depends on nothing but checkpointed state.
    fn pick_spawn(&self, stream: u64) -> usize {
        let total: f64 = self.weights.iter().sum();
        let x = self.seeder.stream(stream).next_f64() * total;
        let mut acc = 0.0;
        for (b, &w) in self.weights.iter().enumerate() {
            acc += w;
            if x < acc {
                return b;
            }
        }
        self.weights.len() - 1
    }
}

/// The sub-seeder every mixed-membership draw derives from.
fn mix_seeder(seed: u64) -> StreamSeeder {
    StreamSeeder::new(StreamSeeder::new(seed).stream(reserved::MIX).next_u64())
}

/// Exact largest-remainder quotas: `quotas[i]` ants for weight
/// `weights[i]`, summing to `n`. Ties go to the lower index.
pub(crate) fn mix_quotas(weights: &[f64], n: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|&w| w / total * n as f64).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|&x| x.floor() as usize).collect();
    let assigned: usize = quotas.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for i in 0..n.saturating_sub(assigned) {
        quotas[order[i % order.len()]] += 1;
    }
    quotas
}

/// Deterministic initial membership: bank index per global ant id.
///
/// Quotas first, then a Fisher–Yates shuffle driven by the dedicated
/// mix sub-seeder — a pure function of `(seed, weights, n)`.
pub(crate) fn mix_members(seed: u64, weights: &[f64], n: usize) -> Vec<u16> {
    let quotas = mix_quotas(weights, n);
    let mut members = Vec::with_capacity(n);
    for (b, &q) in quotas.iter().enumerate() {
        members.extend(std::iter::repeat_n(b as u16, q));
    }
    let mut rng = mix_seeder(seed).stream(reserved::INIT);
    for i in (1..members.len()).rev() {
        members.swap(i, uniform_index(&mut rng, i + 1));
    }
    members
}

impl Population {
    /// Builds the population for `spec` with ants `0..n`.
    pub fn build(spec: &ControllerSpec, seed: u64, num_tasks: usize, n: usize) -> Self {
        let mut population = Self {
            banks: Vec::new(),
            index: Vec::new(),
            mix: None,
        };
        population.rebuild_in(spec, seed, num_tasks, n);
        population
    }

    /// Rebuilds this population in place to the state
    /// [`Population::build`] would produce, reusing bank, RNG and index
    /// allocations whenever the bank structure carries over (the
    /// engine-reuse fast path for sweeps; shrink keeps capacity, grow
    /// reallocates). Starts from empty banks when the number of banks
    /// changes (e.g. homogeneous ↔ mix, or a different mix arity).
    pub fn rebuild_in(&mut self, spec: &ControllerSpec, seed: u64, num_tasks: usize, n: usize) {
        let seeder = StreamSeeder::new(seed);
        let stream = |i: u32| seeder.ant(i as usize);
        match spec.mix_parts() {
            None => self.rebuild_homogeneous(spec, num_tasks, n, &stream),
            Some(parts) => {
                // Membership is a pure function of (seed, weights, n);
                // the O(n) vector is transient, unlike the banks.
                let weights: Vec<f64> = parts.iter().map(|(w, _)| *w).collect();
                let members = mix_members(seed, &weights, n);
                self.rebuild_mixed(spec, seed, num_tasks, members, &stream);
            }
        }
    }

    /// Rebuilds this population in place from checkpointed state (the
    /// restore path): `n` ants, `members` their bank indices in global
    /// ant order (read only for a mix spec — kills permute memberships,
    /// so they cannot be recomputed from the seed), and `stream(i)` ant
    /// `i`'s captured RNG. Controllers come out fresh; callers follow
    /// with [`Population::reset_to_colony`] and the captured scratch.
    pub fn restore_in(
        &mut self,
        spec: &ControllerSpec,
        seed: u64,
        num_tasks: usize,
        n: usize,
        members: impl IntoIterator<Item = u16, IntoIter: Clone>,
        stream: &impl Fn(u32) -> AntRng,
    ) {
        match spec.mix_parts() {
            None => self.rebuild_homogeneous(spec, num_tasks, n, stream),
            Some(_) => self.rebuild_mixed(spec, seed, num_tasks, members, stream),
        }
    }

    fn rebuild_homogeneous(
        &mut self,
        spec: &ControllerSpec,
        num_tasks: usize,
        n: usize,
        stream: &impl Fn(u32) -> AntRng,
    ) {
        self.mix = None;
        self.banks.truncate(1);
        if self.banks.is_empty() {
            self.banks.push(Bank::empty(spec, num_tasks));
        }
        let bank = &mut self.banks[0];
        bank.ants.clear();
        bank.ants.extend(0..n as u32);
        bank.rngs.clear();
        bank.rngs.extend((0..n as u32).map(stream));
        bank.rebuild_controllers(spec, num_tasks);
        self.index.clear();
        self.index.extend((0..n as u32).map(|s| (0, s)));
        debug_assert!(self.check_invariants());
    }

    fn rebuild_mixed(
        &mut self,
        spec: &ControllerSpec,
        seed: u64,
        num_tasks: usize,
        members: impl IntoIterator<Item = u16, IntoIter: Clone>,
        stream: &impl Fn(u32) -> AntRng,
    ) {
        let Some(parts) = spec.mix_parts() else {
            // audit:allow(panic-path): both callers route homogeneous specs to rebuild_homogeneous.
            unreachable!("rebuild_mixed requires a mix spec");
        };
        if self.banks.len() != parts.len() {
            // Bank structure changed wholesale; nothing worth salvaging.
            self.banks = parts
                .iter()
                .map(|(_, sub)| Bank::empty(sub, num_tasks))
                .collect();
        }
        let members = members.into_iter();
        let mut sizes = vec![0usize; parts.len()];
        for b in members.clone() {
            let b = usize::from(b);
            assert!(b < parts.len(), "membership references unknown sub-spec");
            sizes[b] += 1;
        }
        for (bank, &size) in self.banks.iter_mut().zip(&sizes) {
            bank.ants.clear();
            bank.ants.reserve(size);
            bank.rngs.clear();
            bank.rngs.reserve(size);
        }
        self.index.clear();
        self.index.reserve(sizes.iter().sum());
        // One pass in global ant order: every bank's ids and streams
        // fill front to back, and a captured RNG section reads
        // sequentially.
        for (i, b) in members.enumerate() {
            let b = usize::from(b);
            let bank = &mut self.banks[b];
            self.index.push((b as u32, bank.ants.len() as u32));
            bank.ants.push(i as u32);
            bank.rngs.push(stream(i as u32));
        }
        for (bank, (_, sub)) in self.banks.iter_mut().zip(parts) {
            bank.rebuild_controllers(sub, num_tasks);
        }
        let weights = parts.iter().map(|(w, _)| *w).collect();
        self.mix = Some(MixMembership::new(seed, weights));
        debug_assert!(self.check_invariants());
    }

    /// Number of ants.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// The banks (census, diagnostics).
    pub fn banks(&self) -> &[Bank] {
        &self.banks
    }

    /// Every ant's bank index, bank and slot, in global ant order
    /// (checkpoint capture: membership, RNG states and scratch).
    pub fn slots(&self) -> impl Iterator<Item = (u16, &Bank, usize)> + '_ {
        self.index
            .iter()
            .map(|&(b, s)| (b as u16, &self.banks[b as usize], s as usize))
    }

    /// Ant `i`'s controller bank and slot (checkpoint restore).
    pub fn slot_mut(&mut self, i: usize) -> (&mut ControllerBank, usize) {
        let (b, s) = self.index[i];
        (&mut self.banks[b as usize].controllers, s as usize)
    }

    /// Steps the single ant `i` (the sequential model's round).
    pub fn step_one(&mut self, i: usize, prepared: &PreparedRound) -> Assignment {
        let (b, s) = self.index[i];
        let bank = &mut self.banks[b as usize];
        bank.controllers
            .step_slot(s as usize, prepared.view(), &mut bank.rngs[s as usize])
    }

    /// Forces every controller to its colony assignment (initial
    /// configurations, scramble/stampede perturbations).
    pub fn reset_to_colony(&mut self, colony: &ColonyState) {
        for bank in &mut self.banks {
            for s in 0..bank.len() {
                let a = colony.assignment(bank.ants[s] as usize);
                bank.controllers.reset_slot(s, a);
            }
        }
    }

    /// Persistent memory of ant `i`'s controller, in bits.
    pub fn memory_bits(&self, i: usize) -> u32 {
        self.banks[self.index[i].0 as usize]
            .controllers
            .memory_bits()
    }

    /// Removes the ant with global id `victim`, mirroring the colony's
    /// swap-removal: the global last ant takes over id `victim`.
    pub fn remove(&mut self, victim: usize) {
        let last = self.index.len() - 1;
        let (b, s) = self.index[victim];
        let (b, s) = (b as usize, s as usize);
        let bank = &mut self.banks[b];
        bank.controllers.swap_remove(s);
        bank.rngs.swap_remove(s);
        bank.ants.swap_remove(s);
        if s < bank.ants.len() {
            // The bank's last ant moved into slot `s`.
            self.index[bank.ants[s] as usize] = (b as u32, s as u32);
        }
        if victim != last {
            let home = self.index[last];
            self.index[victim] = home;
            self.banks[home.0 as usize].ants[home.1 as usize] = victim as u32;
        }
        self.index.pop();
        debug_assert!(self.check_invariants());
    }

    /// Appends a freshly spawned ant (global id `len()`) with RNG
    /// stream `stream`. Homogeneous colonies spawn into their single
    /// bank; mixes draw the sub-spec deterministically from `stream`.
    pub fn spawn(&mut self, stream: u64, rng: AntRng) {
        let b = match &self.mix {
            None => 0,
            Some(mix) => mix.pick_spawn(stream),
        };
        let id = self.index.len() as u32;
        let bank = &mut self.banks[b];
        // A fresh slot of the bank's kind (desync spawns run offset 0,
        // matching the pre-bank engines).
        bank.controllers.push_fresh();
        bank.rngs.push(rng);
        self.index.push((b as u32, bank.ants.len() as u32));
        bank.ants.push(id);
        debug_assert!(self.check_invariants());
    }

    /// Clones every controller into the per-ant dispatch enum, in
    /// global ant order — the reference representation the bank
    /// equivalence tests and the pre-bank baseline replay use.
    pub fn reference_controllers(&self) -> Vec<AnyController> {
        self.index
            .iter()
            .map(|&(b, s)| self.banks[b as usize].controllers.to_any(s as usize))
            .collect()
    }

    /// Splits the whole population into `workers` disjoint parts of
    /// ~`chunk` ants each, cutting across banks as needed. Each part is
    /// a list of (controller chunk, RNG chunk, global-id chunk)
    /// triples; the engine hands one part to each participant for a
    /// whole segment. The final part absorbs any remainder.
    pub fn partition_mut(&mut self, workers: usize, chunk: usize) -> Vec<WorkerPart<'_>> {
        assert!(workers >= 1 && chunk >= 1);
        let mut parts: Vec<WorkerPart<'_>> = (0..workers).map(|_| Vec::new()).collect();
        let mut cur = 0usize;
        let mut fill = 0usize;
        for bank in &mut self.banks {
            let mut slice = bank.controllers.as_slice_mut();
            let mut rngs: &mut [AntRng] = &mut bank.rngs;
            let mut ids: &[u32] = &bank.ants;
            while !slice.is_empty() {
                if fill == chunk && cur + 1 < workers {
                    cur += 1;
                    fill = 0;
                }
                let room = if cur + 1 < workers {
                    chunk - fill
                } else {
                    usize::MAX
                };
                let take = room.min(slice.len());
                let (head, tail) = slice.split_at_mut(take);
                let (rng_head, rng_tail) = rngs.split_at_mut(take);
                let (id_head, id_tail) = ids.split_at(take);
                parts[cur].push((head, rng_head, id_head));
                fill += take;
                slice = tail;
                rngs = rng_tail;
                ids = id_tail;
            }
        }
        parts
    }

    /// Full invariant check (debug asserts and tests).
    pub fn check_invariants(&self) -> bool {
        if self.index.len() != self.banks.iter().map(Bank::len).sum::<usize>() {
            return false;
        }
        for (b, bank) in self.banks.iter().enumerate() {
            if bank.controllers.len() != bank.ants.len() || bank.rngs.len() != bank.ants.len() {
                return false;
            }
            for (s, &id) in bank.ants.iter().enumerate() {
                if self.index.get(id as usize) != Some(&(b as u32, s as u32)) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_core::AntParams;

    fn mix_spec() -> ControllerSpec {
        ControllerSpec::Mix(vec![
            (2.0, ControllerSpec::Ant(AntParams::default())),
            (1.0, ControllerSpec::Trivial),
            (1.0, ControllerSpec::ExactGreedy(Default::default())),
        ])
    }

    #[test]
    fn quotas_are_exact_largest_remainder() {
        assert_eq!(mix_quotas(&[2.0, 1.0, 1.0], 100), vec![50, 25, 25]);
        assert_eq!(mix_quotas(&[1.0, 1.0, 1.0], 10), vec![4, 3, 3]);
        assert_eq!(mix_quotas(&[1.0], 7), vec![7]);
        let q = mix_quotas(&[0.7, 0.2, 0.1], 9);
        assert_eq!(q.iter().sum::<usize>(), 9);
    }

    #[test]
    fn membership_is_deterministic_and_matches_quotas() {
        let a = mix_members(7, &[2.0, 1.0, 1.0], 200);
        let b = mix_members(7, &[2.0, 1.0, 1.0], 200);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&m| m == 0).count(), 100);
        assert_eq!(a.iter().filter(|&&m| m == 1).count(), 50);
        // A different seed shuffles differently.
        assert_ne!(a, mix_members(8, &[2.0, 1.0, 1.0], 200));
        // ... but not sorted: the shuffle interleaves.
        assert!(a.windows(2).any(|w| w[0] > w[1]));
    }

    #[test]
    fn build_upholds_invariants_through_kill_and_spawn() {
        let spec = mix_spec();
        let mut p = Population::build(&spec, 3, 2, 40);
        assert!(p.check_invariants());
        assert_eq!(p.banks().len(), 3);
        assert_eq!(p.len(), 40);
        // Kill a few ants from the middle and the end.
        p.remove(5);
        p.remove(30);
        p.remove(p.len() - 1);
        assert_eq!(p.len(), 37);
        assert!(p.check_invariants());
        // Spawn back; membership picks stay in range.
        let seeder = StreamSeeder::new(3);
        for stream in 40..45u64 {
            p.spawn(stream, seeder.stream(stream));
        }
        assert_eq!(p.len(), 42);
        assert!(p.check_invariants());
    }

    #[test]
    fn members_roundtrip_through_restore_in() {
        let spec = mix_spec();
        let p = Population::build(&spec, 11, 2, 30);
        let members: Vec<u16> = p.slots().map(|(b, _, _)| b).collect();
        let states: Vec<[u64; 4]> = p.slots().map(|(_, b, s)| b.rngs[s].state()).collect();
        let mut q = Population::build(&ControllerSpec::Trivial, 0, 2, 5);
        let captured = |i: u32| AntRng::from_state(states[i as usize]);
        q.restore_in(&spec, 11, 2, 30, members.iter().copied(), &captured);
        assert!(q.check_invariants());
        assert_eq!(q.slots().map(|(b, _, _)| b).collect::<Vec<_>>(), members);
        let restored: Vec<[u64; 4]> = q.slots().map(|(_, b, s)| b.rngs[s].state()).collect();
        assert_eq!(restored, states);
    }
}
