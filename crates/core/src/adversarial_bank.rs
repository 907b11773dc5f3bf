//! Column bank for Appendix C Algorithm Precise Adversarial.
//!
//! Besides its assignment, a Precise Adversarial ant carries its phase
//! trackers: `currentTask`, one unanimous-`lack` flag per task, the
//! unanimous-`overload` flag, the first-ramp-`lack` classification and
//! the frozen sub-phase behaviour. The bank holds each as a column —
//! the per-task flags as an `n × k` row plane — so a colony steps
//! without a heap buffer per ant, and a checkpoint reads and writes the
//! trackers as one borrowed [`AdversarialRow`] per ant.
//!
//! **Reference semantics.** [`crate::PreciseAdversarial`] is the truth;
//! the bank mirrors `Controller::step` clause for clause and consumes
//! every ant's RNG stream in the same order (samples in task order,
//! then the ramp or join coin), so bank runs are bit-identical to
//! per-ant runs.

use antalloc_env::{Assignment, ColumnWriter};
use antalloc_noise::{RoundView, SensedRound};
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::column::{column_bank, dec, drive, enc, IDLE};
use crate::controller::Controller;
use crate::params::PreciseAdversarialParams;
use crate::precise_adversarial::{AdversarialRow, PreciseAdversarial};

/// The bank constants of a Precise Adversarial bank.
#[derive(Clone, Copy, Debug)]
struct AdversarialConsts {
    params: PreciseAdversarialParams,
    r1: u64,
    phase_len: u64,
    ramp: Bernoulli,
}

impl AdversarialConsts {
    fn new(params: PreciseAdversarialParams) -> Self {
        Self {
            params,
            r1: params.r1(),
            phase_len: params.phase_len(),
            ramp: Bernoulli::new(params.ramp_probability()),
        }
    }
}

column_bank! {
    /// A homogeneous Precise Adversarial population in column layout.
    pub struct PreciseAdversarialBank,
    /// A disjoint mutable chunk of a [`PreciseAdversarialBank`].
    AdversarialSliceMut {
        consts: AdversarialConsts,
        fresh(c),
        /// Output assignment `a_t` per ant.
        assignment: u32 [1] = IDLE,
        /// `currentTask` per ant (`IDLE` when idle).
        current: u32 [1] = IDLE,
        /// Phase-observed-from-start flag per ant.
        have_phase: bool [1] = false,
        /// Idle path: per task, whether every sample this phase lacked.
        all_lack: bool [k] = true,
        /// Working path: whether every sample this phase overloaded.
        all_overload: bool [1] = true,
        /// At the first ramp `lack`, was the ant still working?
        first_lack: Option<bool> [1] = None,
        /// A first-lack classification pending within the round.
        pending: bool [1] = false,
        /// The frozen sub-phase behaviour: work iff true.
        frozen: bool [1] = false,
    }
}

impl PreciseAdversarialBank {
    /// An all-idle bank of `n` fresh ants.
    pub fn new(num_tasks: usize, params: PreciseAdversarialParams, n: usize) -> Self {
        Self::with_consts(AdversarialConsts::new(params), num_tasks, n)
    }

    /// Rebuilds the bank in place to `n` fresh all-idle ants, reusing
    /// the column allocations; bit-identical to
    /// `PreciseAdversarialBank::new(num_tasks, params, n)`.
    pub fn reinit(&mut self, num_tasks: usize, params: PreciseAdversarialParams, n: usize) {
        self.consts = AdversarialConsts::new(params);
        self.reset_columns(num_tasks, n);
    }

    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &PreciseAdversarialParams {
        &self.consts.params
    }

    /// Appends a per-ant controller, transposing its state in.
    pub fn push_controller(&mut self, ant: &PreciseAdversarial) {
        self.push_fresh();
        let slot = self.len() - 1;
        self.assignment[slot] = enc(ant.assignment());
        self.set_row(slot, ant.row());
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless).
    pub fn to_controller(&self, slot: usize) -> PreciseAdversarial {
        let mut ant = PreciseAdversarial::new(self.num_tasks, self.consts.params);
        ant.reset_to(dec(self.assignment[slot]));
        ant.set_row(self.row(slot));
        ant
    }

    /// The phase trackers of the ant at `slot`, borrowed from the
    /// columns (checkpoint capture; see [`AdversarialRow`]).
    pub fn row(&self, slot: usize) -> AdversarialRow<'_> {
        let k = self.num_tasks;
        AdversarialRow {
            current_task: dec(self.current[slot]),
            have_phase: self.have_phase[slot],
            all_lack: &self.all_lack[slot * k..slot * k + k],
            all_overload: self.all_overload[slot],
            working_at_first_lack: self.first_lack[slot],
            pending_first_lack: self.pending[slot],
            frozen_working: self.frozen[slot],
        }
    }

    /// Overwrites the phase trackers of the ant at `slot` (checkpoint
    /// restore; the assignment is restored separately via
    /// [`PreciseAdversarialBank::reset_slot`] *before* this).
    ///
    /// # Panics
    /// If the row's task count disagrees with the bank's.
    pub fn set_row(&mut self, slot: usize, row: AdversarialRow<'_>) {
        let k = self.num_tasks;
        self.current[slot] = enc(row.current_task);
        self.have_phase[slot] = row.have_phase;
        self.all_lack[slot * k..slot * k + k].copy_from_slice(row.all_lack);
        self.all_overload[slot] = row.all_overload;
        self.first_lack[slot] = row.working_at_first_lack;
        self.pending[slot] = row.pending_first_lack;
        self.frozen[slot] = row.frozen_working;
    }

    /// Forces the ant at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        let x = enc(a);
        self.assignment[slot] = x;
        self.current[slot] = x;
        self.have_phase[slot] = false;
    }

    /// Persistent memory in bits (same accounting as the per-ant impl).
    pub fn memory_bits(&self) -> u32 {
        let k = crate::cast::task_col(self.num_tasks);
        crate::memory::bits_for_states(self.num_tasks + 1) + k + 5
    }

    /// Steps the single ant at `slot` (the sequential model's path).
    pub fn step_slot(&mut self, slot: usize, view: RoundView<'_>, rng: &mut AntRng) -> Assignment {
        let mut one = self.slot_mut(slot);
        let r = view.round() % one.consts.phase_len;
        one.step_one(0, r, view, rng);
        self.assignment(slot)
    }
}

impl AdversarialSliceMut<'_> {
    /// Steps every ant, routing each transition through `writer` at the
    /// ant's colony id (`ids[i]`); see [`crate::BankSliceMut::step_batch_fused`].
    /// The phase position is computed once for the whole chunk.
    pub fn step_batch_fused(
        &mut self,
        sensed: SensedRound<'_>,
        rngs: &mut [AntRng],
        ids: &[u32],
        writer: &mut ColumnWriter<'_>,
    ) {
        let r = sensed.round() % self.consts.phase_len;
        drive!(self, sensed, rngs, ids, writer, |s, i, view, rng| {
            s.step_one(i, r, view, rng)
        });
    }

    /// Classifies a pending first ramp `lack` by whether the ant is
    /// still working.
    #[inline(always)]
    fn resolve_pending(&mut self, i: usize) {
        if self.pending[i] {
            self.first_lack[i] = Some(self.assignment[i] == self.current[i]);
            self.pending[i] = false;
        }
    }

    /// One ant's round at phase position `r = round mod phase_len`,
    /// mirroring [`PreciseAdversarial::step`] clause for clause.
    #[inline(always)]
    fn step_one(&mut self, i: usize, r: u64, view: RoundView<'_>, rng: &mut AntRng) {
        let k = self.num_tasks;
        let r1 = self.consts.r1;
        if r == 1 {
            // Phase start: adopt a_{t−1}, reset trackers.
            self.current[i] = self.assignment[i];
            self.all_lack[i * k..i * k + k].fill(true);
            self.all_overload[i] = true;
            self.first_lack[i] = None;
            self.pending[i] = false;
            self.frozen[i] = false;
            self.have_phase[i] = true;
        }
        if !self.have_phase[i] {
            return;
        }
        let cur = self.current[i];
        // Sample and track: the current task's signal, or every task's.
        if cur != IDLE {
            if view.sample(crate::cast::task_ix(cur), rng).is_lack() {
                self.all_overload[i] = false;
                if (1..r1).contains(&r) && self.first_lack[i].is_none() {
                    // Classified after this round's pause decision.
                    self.pending[i] = true;
                }
            }
        } else {
            for (j, all) in self.all_lack[i * k..i * k + k].iter_mut().enumerate() {
                *all &= view.sample(j, rng).is_lack();
            }
        }
        if (2..r1).contains(&r) {
            // Ramp: still-working ants pause w.p. εγ/32 and stay paused.
            if cur != IDLE && self.assignment[i] == cur && self.consts.ramp.sample(rng) {
                self.assignment[i] = IDLE;
            }
            self.resolve_pending(i);
        } else if r == r1 {
            // Freeze the sub-phase-2 behaviour at r_min's state.
            self.resolve_pending(i);
            if cur != IDLE {
                let still_working = self.assignment[i] == cur;
                self.frozen[i] = self.first_lack[i].unwrap_or(still_working);
                self.assignment[i] = if self.frozen[i] { cur } else { IDLE };
            }
        } else if r == 1 {
            // Phase start round: sample only; no decision is taken.
            self.resolve_pending(i);
        } else if r == 0 {
            // Phase end: unanimous-signal decisions.
            if cur == IDLE {
                let row = &self.all_lack[i * k..i * k + k];
                let count = row.iter().filter(|&&x| x).count();
                self.assignment[i] = if count == 0 {
                    IDLE
                } else {
                    let pick = uniform_index(rng, count);
                    let j = row
                        .iter()
                        .enumerate()
                        .filter(|(_, &x)| x)
                        .nth(pick)
                        .map(|(j, _)| j)
                        // audit:allow(panic-path): pick was drawn as uniform_index(count) over this very filter.
                        .expect("pick < count");
                    crate::cast::task_col(j)
                };
            } else if self.all_overload[i] && self.consts.ramp.sample(rng) {
                self.assignment[i] = IDLE;
            } else {
                self.assignment[i] = cur;
            }
            self.have_phase[i] = false;
        } else {
            // Frozen sub-phase (r in (r1, phase_len−1]): replay r_min.
            if cur != IDLE {
                self.assignment[i] = if self.frozen[i] { cur } else { IDLE };
            }
            self.resolve_pending(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::testkit::assert_matches_reference;
    use crate::controller::AnyController;
    use crate::ControllerBank;

    /// The column bank against the per-ant reference under per-ant
    /// (arena-style) sensing, through a whole 160-round phase and into
    /// the next — ramp pauses, the freeze, the unanimity decisions —
    /// across a removal, a fresh spawn and resets.
    #[test]
    fn bank_matches_per_ant_reference_under_per_ant_sensing() {
        let (n, k) = (90, 2);
        let params = PreciseAdversarialParams::new(0.05, 1.0); // r1 = 32, phase 160
        assert_eq!(params.phase_len(), 160);
        let mut bank =
            ControllerBank::PreciseAdversarial(PreciseAdversarialBank::new(k, params, n));
        let mut reference: Vec<AnyController> = (0..n)
            .map(|_| PreciseAdversarial::new(k, params).into())
            .collect();
        let fresh = || PreciseAdversarial::new(k, params).into();
        assert_matches_reference(&mut bank, &mut reference, &fresh, k, 200, true);
    }

    #[test]
    fn push_and_reconstruct_roundtrip_mid_phase() {
        let params = PreciseAdversarialParams::new(0.05, 1.0);
        let mut bank = PreciseAdversarialBank::new(2, params, 1);
        bank.reset_slot(0, Assignment::Task(1));
        bank.all_overload[0] = false;
        bank.first_lack[0] = Some(true);
        let ant = bank.to_controller(0);
        let mut copy = PreciseAdversarialBank::new(2, params, 0);
        copy.push_controller(&ant);
        assert_eq!(copy.row(0), bank.row(0));
        assert_eq!(copy.assignment(0), Assignment::Task(1));
    }
}
