//! Flat column banks for the single-sample controllers.
//!
//! [`Trivial`] (Appendix D) and [`ExactGreedy`] (the \[11\]-style
//! baseline) carry no cross-round state besides their assignment, so
//! their bank is one `u32` column — the same shape as the idle path of
//! [`crate::AntBank`]. Stepping streams a single flat array instead of
//! a `Vec` of per-ant structs (each dragging a heap-allocated scratch
//! bitmap), and the idle path's full-vector sample goes through the
//! batched [`RoundView::lack_mask`] / [`RoundView::fill_lack`] draws.
//!
//! **Reference semantics.** The per-ant [`crate::Controller`] impls are
//! the truth: each bank consumes every ant's RNG stream in exactly the
//! order `Controller::step` would (samples in task order, then the
//! join/leave coins with the same short-circuits), so bank runs are
//! bit-identical to per-ant runs — pinned by the parity property tests
//! in `tests/banks.rs`.

use antalloc_env::{Assignment, ColumnWriter};
use antalloc_noise::{RoundView, SensedRound};
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant_bank::{count_lacking, nth_lacking, nth_set_bit};
use crate::column::{column_bank, dec, drive, enc, IDLE};
use crate::controller::Controller;
use crate::exact_greedy::{ExactGreedy, ExactGreedyParams};
use crate::trivial::Trivial;

/// Row buffer for the > 64-task fallback paths; the bit-packed common
/// case never reads it, so it stays unallocated there.
#[inline]
pub(crate) fn scratch_row(num_tasks: usize) -> Vec<u8> {
    if num_tasks <= 64 {
        Vec::new()
    } else {
        vec![0u8; num_tasks]
    }
}

column_bank! {
    /// A homogeneous [`Trivial`] population in flat layout.
    pub struct TrivialBank,
    /// A disjoint mutable chunk of a [`TrivialBank`].
    TrivialSliceMut {
        consts: (),
        fresh(c),
        /// Assignment per ant (`IDLE` when idle).
        assignment: u32 [1] = IDLE,
    }
}

impl TrivialBank {
    /// An all-idle bank of `n` fresh ants.
    pub fn new(num_tasks: usize, n: usize) -> Self {
        Self::with_consts((), num_tasks, n)
    }

    /// Rebuilds the bank in place to `n` fresh all-idle ants, reusing
    /// the assignment allocation (shrink keeps capacity, grow
    /// reallocates). State after the call is bit-identical to
    /// `TrivialBank::new(num_tasks, n)`.
    pub fn reinit(&mut self, num_tasks: usize, n: usize) {
        self.reset_columns(num_tasks, n);
    }

    /// Appends a per-ant controller, transposing its state in.
    pub fn push_controller(&mut self, ant: &Trivial) {
        assert_eq!(ant.num_tasks(), self.num_tasks, "task count mismatch");
        self.assignment.push(enc(ant.assignment()));
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless — the assignment is the whole state).
    pub fn to_controller(&self, slot: usize) -> Trivial {
        let mut ant = Trivial::new(self.num_tasks);
        ant.reset_to(dec(self.assignment[slot]));
        ant
    }

    /// Forces the ant at `slot` into `a`.
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        self.assignment[slot] = enc(a);
    }

    /// Persistent memory in bits (same accounting as the per-ant impl).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::bits_for_states(self.num_tasks + 1)
    }

    /// Steps the single ant at `slot` (the sequential model's path).
    pub fn step_slot(&mut self, slot: usize, view: RoundView<'_>, rng: &mut AntRng) -> Assignment {
        // The row buffer backs only the > 64-task fallback; the common
        // bit-packed path must not allocate per sequential round.
        let mut row = scratch_row(self.num_tasks);
        self.slot_mut(slot).step_one(0, view, rng, &mut row);
        self.assignment(slot)
    }
}

impl TrivialSliceMut<'_> {
    /// Steps every ant, routing each transition through `writer` at the
    /// ant's colony id (`ids[i]`); see [`crate::BankSliceMut::step_batch_fused`].
    pub fn step_batch_fused(
        &mut self,
        sensed: SensedRound<'_>,
        rngs: &mut [AntRng],
        ids: &[u32],
        writer: &mut ColumnWriter<'_>,
    ) {
        let mut row = scratch_row(self.num_tasks);
        drive!(self, sensed, rngs, ids, writer, |s, i, view, rng| {
            s.step_one(i, view, rng, &mut row)
        });
    }

    /// One ant's round: idle → sample all tasks, join a uniformly random
    /// lacking one; working → sample own task, leave on `overload`.
    /// The idle path's full-vector draw is the bit-packed batched form
    /// for ≤ 64 tasks (one pass, one register) and the row-buffer form
    /// beyond; both consume draws in task order like the reference.
    #[inline(always)]
    fn step_one(&mut self, i: usize, view: RoundView<'_>, rng: &mut AntRng, row: &mut [u8]) {
        let cur = self.assignment[i];
        if cur == IDLE {
            if self.num_tasks <= 64 {
                let mask = view.lack_mask(rng);
                if mask != 0 {
                    let pick = uniform_index(rng, mask.count_ones() as usize);
                    self.assignment[i] = nth_set_bit(mask, pick);
                }
            } else {
                view.fill_lack(rng, row);
                let count = count_lacking(row);
                if count > 0 {
                    self.assignment[i] = nth_lacking(row, uniform_index(rng, count));
                }
            }
        } else if !view.sample(crate::cast::task_ix(cur), rng).is_lack() {
            self.assignment[i] = IDLE;
        }
    }
}

/// The bank constants of an exact-greedy bank.
#[derive(Clone, Copy, Debug)]
struct GreedyConsts {
    params: ExactGreedyParams,
    join: Bernoulli,
    leave: Bernoulli,
}

impl GreedyConsts {
    fn new(params: ExactGreedyParams) -> Self {
        Self {
            params,
            join: Bernoulli::new(params.p_join),
            leave: Bernoulli::new(params.p_leave),
        }
    }
}

column_bank! {
    /// A homogeneous [`ExactGreedy`] population in flat layout.
    pub struct ExactGreedyBank,
    /// A disjoint mutable chunk of an [`ExactGreedyBank`].
    ExactGreedySliceMut {
        consts: GreedyConsts,
        fresh(c),
        /// Assignment per ant (`IDLE` when idle).
        assignment: u32 [1] = IDLE,
    }
}

impl ExactGreedyBank {
    /// An all-idle bank of `n` fresh ants.
    pub fn new(num_tasks: usize, params: ExactGreedyParams, n: usize) -> Self {
        Self::with_consts(GreedyConsts::new(params), num_tasks, n)
    }

    /// Rebuilds the bank in place to `n` fresh all-idle ants, reusing
    /// the assignment allocation (shrink keeps capacity, grow
    /// reallocates). State after the call is bit-identical to
    /// `ExactGreedyBank::new(num_tasks, params, n)`.
    pub fn reinit(&mut self, num_tasks: usize, params: ExactGreedyParams, n: usize) {
        self.consts = GreedyConsts::new(params);
        self.reset_columns(num_tasks, n);
    }

    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &ExactGreedyParams {
        &self.consts.params
    }

    /// Appends a per-ant controller, transposing its state in.
    pub fn push_controller(&mut self, ant: &ExactGreedy) {
        assert_eq!(ant.num_tasks(), self.num_tasks, "task count mismatch");
        self.assignment.push(enc(ant.assignment()));
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless — the assignment is the whole state).
    pub fn to_controller(&self, slot: usize) -> ExactGreedy {
        let mut ant = ExactGreedy::new(self.num_tasks, self.consts.params);
        ant.reset_to(dec(self.assignment[slot]));
        ant
    }

    /// Forces the ant at `slot` into `a`.
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        self.assignment[slot] = enc(a);
    }

    /// Persistent memory in bits (same accounting as the per-ant impl).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::bits_for_states(self.num_tasks + 1)
    }

    /// Steps the single ant at `slot` (the sequential model's path).
    pub fn step_slot(&mut self, slot: usize, view: RoundView<'_>, rng: &mut AntRng) -> Assignment {
        // See TrivialBank::step_slot: no allocation on the ≤ 64 path.
        let mut row = scratch_row(self.num_tasks);
        self.slot_mut(slot).step_one(0, view, rng, &mut row);
        self.assignment(slot)
    }
}

impl ExactGreedySliceMut<'_> {
    /// Steps every ant, routing each transition through `writer` at the
    /// ant's colony id (`ids[i]`); see [`crate::BankSliceMut::step_batch_fused`].
    pub fn step_batch_fused(
        &mut self,
        sensed: SensedRound<'_>,
        rngs: &mut [AntRng],
        ids: &[u32],
        writer: &mut ColumnWriter<'_>,
    ) {
        let mut row = scratch_row(self.num_tasks);
        drive!(self, sensed, rngs, ids, writer, |s, i, view, rng| {
            s.step_one(i, view, rng, &mut row)
        });
    }

    /// One ant's round. The coin order is the reference's: samples in
    /// task order, then the join coin *only* when something lacks, then
    /// the uniform pick; workers draw the leave coin only on `overload`.
    /// Idle-path sampling is the bit-packed batched draw for ≤ 64 tasks
    /// (see [`TrivialSliceMut::step_one`]).
    #[inline(always)]
    fn step_one(&mut self, i: usize, view: RoundView<'_>, rng: &mut AntRng, row: &mut [u8]) {
        let cur = self.assignment[i];
        if cur == IDLE {
            if self.num_tasks <= 64 {
                let mask = view.lack_mask(rng);
                if mask != 0 && self.consts.join.sample(rng) {
                    let pick = uniform_index(rng, mask.count_ones() as usize);
                    self.assignment[i] = nth_set_bit(mask, pick);
                }
            } else {
                view.fill_lack(rng, row);
                let count = count_lacking(row);
                if count > 0 && self.consts.join.sample(rng) {
                    self.assignment[i] = nth_lacking(row, uniform_index(rng, count));
                }
            }
        } else if !view.sample(crate::cast::task_ix(cur), rng).is_lack()
            && self.consts.leave.sample(rng)
        {
            self.assignment[i] = IDLE;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::testkit::assert_matches_reference;
    use crate::controller::AnyController;
    use crate::ControllerBank;

    /// Both flat banks against their per-ant references, round for
    /// round, under sigmoid noise (every code path: joins, leaves,
    /// coins, rejections), well-mixed and per-ant sensed.
    #[test]
    fn flat_banks_match_per_ant_stepping() {
        let (n, k) = (150, 3);
        let params = ExactGreedyParams::default();
        for per_ant in [false, true] {
            let mut bank = ControllerBank::Trivial(TrivialBank::new(k, n));
            let mut reference: Vec<AnyController> =
                (0..n).map(|_| Trivial::new(k).into()).collect();
            let fresh = || Trivial::new(k).into();
            assert_matches_reference(&mut bank, &mut reference, &fresh, k, 50, per_ant);

            let mut bank = ControllerBank::ExactGreedy(ExactGreedyBank::new(k, params, n));
            let mut reference: Vec<AnyController> =
                (0..n).map(|_| ExactGreedy::new(k, params).into()).collect();
            let fresh = || ExactGreedy::new(k, params).into();
            assert_matches_reference(&mut bank, &mut reference, &fresh, k, 50, per_ant);
        }
    }

    #[test]
    fn push_and_reconstruct_roundtrip() {
        let mut bank = TrivialBank::new(2, 0);
        let mut ant = Trivial::new(2);
        ant.reset_to(Assignment::Task(1));
        bank.push_controller(&ant);
        assert_eq!(bank.len(), 1);
        assert_eq!(bank.to_controller(0).assignment(), Assignment::Task(1));

        let mut bank = ExactGreedyBank::new(2, ExactGreedyParams::default(), 0);
        let mut ant = ExactGreedy::new(2, ExactGreedyParams::default());
        ant.reset_to(Assignment::Task(0));
        bank.push_controller(&ant);
        assert_eq!(bank.to_controller(0).assignment(), Assignment::Task(0));
    }

    #[test]
    fn swap_remove_moves_last_slot() {
        let mut bank = TrivialBank::new(1, 3);
        bank.reset_slot(0, Assignment::Task(0));
        bank.reset_slot(2, Assignment::Idle);
        bank.swap_remove(0);
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.assignment(0), Assignment::Idle);
    }
}
