//! Column bank for §4 Algorithm Ant — the hot layout.
//!
//! A million-ant Ant colony is memory-bound: stepping a `Vec` of
//! per-ant structs streams ~200 bytes per ant per round (struct, two
//! heap sample buffers, RNG). This bank transposes the persistent state
//! into flat columns — ~14 bytes per ant plus the RNG — and hoists the
//! phase-parity branch and the shared pause/leave samplers out of the
//! loop.
//!
//! Desynchronized colonies (`AntDesync`) live here too: a per-ant
//! phase-offset column (0 or 1) shifts each ant's two-round phase. A
//! bank whose offsets are all 0 keeps the hoisted parity branch; once
//! any ant runs offset 1, the parity is chosen per ant.
//!
//! **Reference semantics.** [`crate::AlgorithmAnt`] is the truth;
//! [`AntBank`] must consume every ant's RNG stream in exactly the order
//! `Controller::step` would (samples, then pause/leave/join coins, with
//! the same short-circuits), so bank runs are bit-identical to per-ant
//! runs. The bank property tests compare the two round for round;
//! conversion in and out ([`AntBank::push_controller`] /
//! [`AntBank::to_controller`]) is lossless for the persistent state.

use antalloc_env::{Assignment, ColumnWriter};
use antalloc_noise::{RoundView, SensedRound};
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant::{AlgorithmAnt, AntBankState};
use crate::column::{column_bank, dec, drive, enc, IDLE};
use crate::params::AntParams;

/// The `pick`-th (0-based) set bit of `mask`, as a bit index.
///
/// Returns `u32` — the native width of `trailing_zeros`, and the width
/// of the assignment columns the callers store into — so no call site
/// needs a narrowing cast.
#[inline(always)]
pub(crate) fn nth_set_bit(mut mask: u64, pick: usize) -> u32 {
    for _ in 0..pick {
        mask &= mask - 1;
    }
    mask.trailing_zeros()
}

/// Number of `lack` entries in a `0/1` signal row.
#[inline(always)]
pub(crate) fn count_lacking(row: &[u8]) -> usize {
    row.iter().filter(|&&l| l == 1).count()
}

/// The `pick`-th (0-based) `lack` entry of a `0/1` signal row, in task
/// order — the same selection the per-ant reference controllers make
/// with `filter(..).nth(pick)`.
#[inline(always)]
pub(crate) fn nth_lacking(row: &[u8], pick: usize) -> u32 {
    row.iter()
        .enumerate()
        .filter(|(_, &l)| l == 1)
        .nth(pick)
        .map(|(j, _)| crate::cast::task_col(j))
        // audit:allow(panic-path): callers draw `pick` via uniform_index(count_lacking(row)), so pick < count.
        .expect("pick < count")
}

/// The bank constants of an Ant bank.
#[derive(Clone, Copy, Debug)]
struct AntConsts {
    params: AntParams,
    pause: Bernoulli,
    leave: Bernoulli,
    /// Whether any ant may run phase offset 1 (per-ant parity).
    desync: bool,
}

impl AntConsts {
    fn new(params: AntParams) -> Self {
        Self {
            params,
            pause: Bernoulli::new(params.pause_probability()),
            leave: Bernoulli::new(params.leave_probability()),
            desync: false,
        }
    }
}

column_bank! {
    /// A homogeneous Algorithm Ant population in column layout.
    pub struct AntBank,
    /// A disjoint mutable chunk of an [`AntBank`].
    AntSliceMut {
        consts: AntConsts,
        fresh(c),
        /// Output assignment `a_t` per ant.
        assignment: u32 [1] = IDLE,
        /// `currentTask` per ant (`IDLE` when idle).
        current: u32 [1] = IDLE,
        /// Working-path first sample of the current task: 1 = lack.
        s1_current: u8 [1] = 0,
        /// First-sample-valid flag per ant.
        have_s1: u8 [1] = 0,
        /// Idle-path first samples, `k` bytes per ant.
        s1_all: u8 [k] = 0,
        /// Phase offset per ant (0 or 1; spawns run offset 0).
        phase: u8 [1] = 0,
    }
}

impl AntBank {
    /// An all-idle bank of `n` fresh, phase-synchronized ants.
    pub fn new(num_tasks: usize, params: AntParams, n: usize) -> Self {
        Self::with_consts(AntConsts::new(params), num_tasks, n)
    }

    /// Rebuilds the bank in place to `n` fresh all-idle ants, reusing
    /// the column allocations (shrink keeps capacity, grow
    /// reallocates). State after the call is bit-identical to
    /// `AntBank::new(num_tasks, params, n)`.
    pub fn reinit(&mut self, num_tasks: usize, params: AntParams, n: usize) {
        self.consts = AntConsts::new(params);
        self.reset_columns(num_tasks, n);
    }

    /// Desynchronizes the bank: the ant in slot `s` runs phase offset
    /// `ids[s] % 2` (the `AntDesync` layout, staggered by global ant
    /// id).
    pub fn stagger(&mut self, ids: &[u32]) {
        assert_eq!(ids.len(), self.len(), "one id per ant");
        for (p, &id) in self.phase.iter_mut().zip(ids) {
            *p = u8::from(id % 2 == 1);
        }
        self.consts.desync = true;
    }

    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &AntParams {
        &self.consts.params
    }

    /// Appends a per-ant controller, transposing its state in.
    pub fn push_controller(&mut self, ant: &AlgorithmAnt) {
        let s = ant.bank_state();
        self.assignment.push(enc(s.assignment));
        self.current.push(enc(s.current_task));
        self.s1_current.push(u8::from(s.s1_current_lack));
        self.have_s1.push(u8::from(s.have_s1));
        debug_assert_eq!(s.s1_lack.len(), self.num_tasks);
        self.s1_all.extend(s.s1_lack.iter().map(|&l| u8::from(l)));
        self.phase.push(u8::from(s.phase_odd));
        self.consts.desync |= s.phase_odd;
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless for the persistent state).
    pub fn to_controller(&self, slot: usize) -> AlgorithmAnt {
        let k = self.num_tasks;
        AlgorithmAnt::from_bank_state(
            k,
            self.consts.params,
            AntBankState {
                current_task: dec(self.current[slot]),
                assignment: dec(self.assignment[slot]),
                s1_lack: self.s1_all[slot * k..slot * k + k]
                    .iter()
                    .map(|&b| b == 1)
                    .collect(),
                s1_current_lack: self.s1_current[slot] == 1,
                have_s1: self.have_s1[slot] == 1,
                phase_odd: self.phase[slot] == 1,
            },
        )
    }

    /// Forces the ant at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        let x = enc(a);
        self.assignment[slot] = x;
        self.current[slot] = x;
        self.have_s1[slot] = 0;
    }

    /// Persistent memory in bits (same accounting as
    /// [`crate::Controller::memory_bits`] on [`AlgorithmAnt`]).
    pub fn memory_bits(&self) -> u32 {
        let k = crate::cast::task_col(self.num_tasks);
        crate::memory::bits_for_states(self.num_tasks + 1) + k + 1
    }

    /// Steps the single ant at `slot` (the sequential model's path) —
    /// the same kernel as the bank loop, on a one-ant chunk.
    pub fn step_slot(&mut self, slot: usize, view: RoundView<'_>, rng: &mut AntRng) -> Assignment {
        let mut one = self.slot_mut(slot);
        if (view.round() + u64::from(one.phase[0])) % 2 == 1 {
            one.first_sample_round(0, view, rng);
        } else {
            one.second_sample_round(0, view, rng);
        }
        self.assignment(slot)
    }
}

impl AntSliceMut<'_> {
    /// Steps every ant, routing each transition through `writer` at the
    /// ant's colony id (`ids[i]`); see [`crate::BankSliceMut::step_batch_fused`].
    /// A synchronized bank picks the phase half once per round; a
    /// desynchronized one per ant.
    pub fn step_batch_fused(
        &mut self,
        sensed: SensedRound<'_>,
        rngs: &mut [AntRng],
        ids: &[u32],
        writer: &mut ColumnWriter<'_>,
    ) {
        let first = sensed.round() % 2 == 1;
        if self.consts.desync {
            drive!(self, sensed, rngs, ids, writer, |s, i, view, rng| {
                if first != (s.phase[i] == 1) {
                    s.first_sample_round(i, view, rng);
                } else {
                    s.second_sample_round(i, view, rng);
                }
            });
        } else if first {
            drive!(self, sensed, rngs, ids, writer, |s, i, view, rng| {
                s.first_sample_round(i, view, rng)
            });
        } else {
            drive!(self, sensed, rngs, ids, writer, |s, i, view, rng| {
                s.second_sample_round(i, view, rng)
            });
        }
    }

    /// The phase's first round: adopt `a_{t−1}`, take the first sample,
    /// maybe pause.
    #[inline(always)]
    fn first_sample_round(&mut self, i: usize, view: RoundView<'_>, rng: &mut AntRng) {
        let k = self.num_tasks;
        let cur = self.assignment[i];
        self.current[i] = cur;
        if cur != IDLE {
            self.s1_current[i] = u8::from(view.sample(crate::cast::task_ix(cur), rng).is_lack());
            self.have_s1[i] = 1;
            if self.consts.pause.sample(rng) {
                self.assignment[i] = IDLE;
            }
        } else {
            // Batched full-vector sample straight into the ant's row.
            view.fill_lack(rng, &mut self.s1_all[i * k..i * k + k]);
            self.have_s1[i] = 1;
        }
    }

    /// The phase's second round: second sample, then the leave/join
    /// decision.
    #[inline(always)]
    fn second_sample_round(&mut self, i: usize, view: RoundView<'_>, rng: &mut AntRng) {
        let k = self.num_tasks;
        let cur = self.current[i];
        if cur != IDLE {
            let s2_lack = view.sample(crate::cast::task_ix(cur), rng).is_lack();
            let both_overload = self.have_s1[i] == 1 && self.s1_current[i] == 0 && !s2_lack;
            self.assignment[i] = if both_overload && self.consts.leave.sample(rng) {
                IDLE
            } else {
                cur
            };
        } else {
            let row = &self.s1_all[i * k..i * k + k];
            self.assignment[i] = if k <= 64 {
                // Bit-packed join: batch-sample all tasks (every draw
                // must happen), AND the two sample vectors, pick
                // uniformly.
                let mut s2 = [0u8; 64];
                view.fill_lack(rng, &mut s2[..k]);
                let mut joinable = 0u64;
                for (j, &s1) in row.iter().enumerate() {
                    joinable |= u64::from(s2[j] == 1 && s1 == 1) << j;
                }
                if self.have_s1[i] == 0 {
                    joinable = 0;
                }
                match joinable.count_ones() as usize {
                    0 => IDLE,
                    count => nth_set_bit(joinable, uniform_index(rng, count)),
                }
            } else {
                let mut s2 = vec![0u8; k];
                view.fill_lack(rng, &mut s2);
                let joinable = |j: usize| row[j] == 1 && s2[j] == 1;
                let count = if self.have_s1[i] == 1 {
                    (0..k).filter(|&j| joinable(j)).count()
                } else {
                    0
                };
                match count {
                    0 => IDLE,
                    count => {
                        let pick = uniform_index(rng, count);
                        let j = (0..k)
                            .filter(|&j| joinable(j))
                            .nth(pick)
                            // audit:allow(panic-path): pick was drawn as uniform_index(count) over this very filter.
                            .expect("pick < count");
                        crate::cast::task_col(j)
                    }
                }
            };
        }
        self.have_s1[i] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::testkit::assert_matches_reference;
    use crate::controller::{AnyController, Controller};
    use crate::ControllerBank;

    #[test]
    fn soa_bank_matches_per_ant_stepping() {
        let (n, k) = (200, 3);
        let params = AntParams::new(1.0 / 16.0);
        let mut bank = ControllerBank::Ant(AntBank::new(k, params, n));
        let mut reference: Vec<AnyController> = (0..n)
            .map(|_| AlgorithmAnt::new(k, params).into())
            .collect();
        let fresh = || AlgorithmAnt::new(k, params).into();
        assert_matches_reference(&mut bank, &mut reference, &fresh, k, 40, false);
    }

    /// AntDesync: offsets staggered by global id, spawns at offset 0,
    /// against the per-ant reference under per-ant sensing.
    #[test]
    fn desync_bank_matches_per_ant_reference_under_per_ant_sensing() {
        let (n, k) = (90, 2);
        let params = AntParams::new(1.0 / 16.0);
        let ids: Vec<u32> = (0..n).collect();
        let mut bank = AntBank::new(k, params, ids.len());
        bank.stagger(&ids);
        let mut bank = ControllerBank::Ant(bank);
        let mut reference: Vec<AnyController> = ids
            .iter()
            .map(|&i| AlgorithmAnt::with_phase_offset(k, params, u64::from(i % 2)).into())
            .collect();
        let fresh = || AlgorithmAnt::new(k, params).into();
        assert_matches_reference(&mut bank, &mut reference, &fresh, k, 41, true);
    }

    #[test]
    fn swap_remove_moves_last_row() {
        let mut bank = AntBank::new(2, AntParams::default(), 3);
        bank.reset_slot(0, Assignment::Task(0));
        bank.reset_slot(1, Assignment::Task(1));
        bank.reset_slot(2, Assignment::Idle);
        bank.swap_remove(0);
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.assignment(0), Assignment::Idle); // old slot 2
        assert_eq!(bank.assignment(1), Assignment::Task(1));
    }

    #[test]
    fn push_and_reconstruct_roundtrip() {
        let params = AntParams::default();
        let mut bank = AntBank::new(2, params, 0);
        let mut ant = AlgorithmAnt::with_phase_offset(2, params, 1);
        ant.reset_to(Assignment::Task(1));
        bank.push_controller(&ant);
        assert_eq!(bank.len(), 1);
        assert_eq!(bank.assignment(0), Assignment::Task(1));
        let back = bank.to_controller(0);
        assert_eq!(back.assignment(), Assignment::Task(1));
        assert_eq!(back.phase_offset(), 1);
    }
}
