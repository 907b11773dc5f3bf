//! Homogeneous controller banks: the data-oriented engine core.
//!
//! A colony that runs one algorithm should pay its dispatch once per
//! **bank** per round, not once per ant. A [`ControllerBank`] stores all
//! ants of one controller kind as flat columns and steps them through
//! the kind's fused kernel — a tight monomorphic loop over the round's
//! [`SensedRound`] — with the per-ant [`crate::Controller`] impls as
//! the reference semantics (bank-stepping is bit-identical to per-ant
//! stepping because every ant consumes only its own RNG stream, in the
//! same order).
//!
//! Every kind is a column bank built on one skeleton (see
//! `column.rs`): [`AntBank`] for §4 Ant, synchronized or
//! desynchronized (`AntDesync`, a per-ant phase-offset column),
//! [`PreciseSigmoidBank`] for §5 (counter planes),
//! [`PreciseAdversarialBank`] for Appendix C (phase-tracker columns),
//! the flat [`TrivialBank`] / [`ExactGreedyBank`] /
//! [`ProportionalBank`], and [`TableBank`] (a shared transition table
//! plus a state column).
//!
//! Heterogeneous (mixed-controller) colonies are a `Vec` of banks; the
//! engine layer owns the ant → (bank, slot) index. Parallel engines
//! split a bank into disjoint [`BankSliceMut`] chunks, one per worker.
//!
//! # Examples
//!
//! Stepping a two-ant bank by hand against exact feedback:
//!
//! ```
//! use antalloc_core::{ControllerBank, ExactGreedyBank, ExactGreedyParams};
//! use antalloc_env::{Assignment, ColumnWriter, RoundDelta, TaskColumn};
//! use antalloc_noise::{NoiseModel, SensedRound};
//! use antalloc_rng::StreamSeeder;
//!
//! let params = ExactGreedyParams { p_join: 1.0, p_leave: 0.0 };
//! let mut bank = ControllerBank::ExactGreedy(ExactGreedyBank::new(1, params, 2));
//! assert_eq!(bank.len(), 2);
//! let seeder = StreamSeeder::new(7);
//! let mut rngs = vec![seeder.ant(0), seeder.ant(1)];
//! // Task 0 lacks two workers; deterministic joiners both sign up.
//! let prepared = NoiseModel::Exact.prepare(1, &[2], &[2]);
//! let (prev, next) = (TaskColumn::new(2), TaskColumn::new(2));
//! let mut delta = RoundDelta::new(1);
//! let mut writer = ColumnWriter::new(&prev, &next, &mut delta);
//! bank.step_batch_fused(SensedRound::shared(&prepared), &mut rngs, &[0, 1], &mut writer);
//! assert_eq!(bank.assignment(0), Assignment::Task(0));
//! assert_eq!(delta.switches(), 2);
//! ```

use antalloc_env::{Assignment, ColumnWriter};
use antalloc_noise::{RoundView, SensedRound};
use antalloc_rng::AntRng;

use crate::adversarial_bank::{AdversarialSliceMut, PreciseAdversarialBank};
use crate::ant_bank::{AntBank, AntSliceMut};
use crate::controller::AnyController;
use crate::flat_bank::{ExactGreedyBank, ExactGreedySliceMut, TrivialBank, TrivialSliceMut};
use crate::proportional::{ProportionalBank, ProportionalSliceMut};
use crate::sigmoid_bank::{PreciseSigmoidBank, SigmoidSliceMut};
use crate::table_fsm::{TableBank, TableSliceMut};

/// A contiguous, homogeneous population of controllers of one kind.
///
/// One variant per shipped controller; the enum dispatch happens once
/// per bank per round (in [`ControllerBank::step_batch_fused`]), after
/// which the kind's monomorphic bank loop runs.
#[derive(Clone, Debug)]
pub enum ControllerBank {
    /// §4 Algorithm Ant, synchronized or desynchronized (`AntDesync`).
    Ant(AntBank),
    /// §5 Algorithm Precise Sigmoid.
    PreciseSigmoid(PreciseSigmoidBank),
    /// Appendix C Algorithm Precise Adversarial.
    PreciseAdversarial(PreciseAdversarialBank),
    /// Appendix D trivial algorithm.
    Trivial(TrivialBank),
    /// Exact-feedback baseline.
    ExactGreedy(ExactGreedyBank),
    /// Proportional-control rival.
    Proportional(ProportionalBank),
    /// Explicit finite-state machines.
    Table(TableBank),
}

/// A disjoint mutable chunk of one bank, steppable independently.
///
/// Parallel engines split each bank's population once per run and hand
/// every worker its own set of chunks; bit-identity is unconditional
/// because each ant still consumes only its own RNG stream.
#[derive(Debug)]
pub enum BankSliceMut<'a> {
    /// Chunk of an Ant bank.
    Ant(AntSliceMut<'a>),
    /// Chunk of a Precise Sigmoid bank.
    PreciseSigmoid(SigmoidSliceMut<'a>),
    /// Chunk of a Precise Adversarial bank.
    PreciseAdversarial(AdversarialSliceMut<'a>),
    /// Chunk of a trivial bank.
    Trivial(TrivialSliceMut<'a>),
    /// Chunk of an exact-greedy bank.
    ExactGreedy(ExactGreedySliceMut<'a>),
    /// Chunk of a proportional-control bank.
    Proportional(ProportionalSliceMut<'a>),
    /// Chunk of a table-machine bank.
    Table(TableSliceMut<'a>),
}

/// Dispatches over every variant of `$Enum` with one body, binding the
/// bank (or chunk) to `$v` and, optionally, the same-named variant
/// constructor of `$Wrap` to `$wrap`.
macro_rules! dispatch {
    ($self:expr, $Enum:ident($v:ident) $(, $Wrap:ident as $wrap:ident)? => $body:expr) => {
        match $self {
            $Enum::Ant($v) => { $(let $wrap = $Wrap::Ant;)? $body }
            $Enum::PreciseSigmoid($v) => { $(let $wrap = $Wrap::PreciseSigmoid;)? $body }
            $Enum::PreciseAdversarial($v) => { $(let $wrap = $Wrap::PreciseAdversarial;)? $body }
            $Enum::Trivial($v) => { $(let $wrap = $Wrap::Trivial;)? $body }
            $Enum::ExactGreedy($v) => { $(let $wrap = $Wrap::ExactGreedy;)? $body }
            $Enum::Proportional($v) => { $(let $wrap = $Wrap::Proportional;)? $body }
            $Enum::Table($v) => { $(let $wrap = $Wrap::Table;)? $body }
        }
    };
}

impl ControllerBank {
    /// Number of ants in the bank.
    pub fn len(&self) -> usize {
        dispatch!(self, ControllerBank(b) => b.len())
    }

    /// True iff the bank holds no ants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Steps every ant in the bank, routing each transition through
    /// `writer` — the engine's shared next-state column plus a local
    /// [`antalloc_env::RoundDelta`] — at the ants' colony ids (`ids`,
    /// one per ant, bank order). See [`BankSliceMut::step_batch_fused`].
    pub fn step_batch_fused(
        &mut self,
        sensed: SensedRound<'_>,
        rngs: &mut [AntRng],
        ids: &[u32],
        writer: &mut ColumnWriter<'_>,
    ) {
        self.as_slice_mut()
            .step_batch_fused(sensed, rngs, ids, writer)
    }

    /// The whole bank as a splittable mutable slice (for partitioning
    /// across workers).
    pub fn as_slice_mut(&mut self) -> BankSliceMut<'_> {
        dispatch!(self, ControllerBank(b), BankSliceMut as wrap => wrap(b.as_slice_mut()))
    }

    /// Steps the single ant at `slot` (sequential-model engines).
    pub fn step_slot(&mut self, slot: usize, view: RoundView<'_>, rng: &mut AntRng) -> Assignment {
        dispatch!(self, ControllerBank(b) => b.step_slot(slot, view, rng))
    }

    /// The assignment of the ant at `slot`.
    pub fn assignment(&self, slot: usize) -> Assignment {
        dispatch!(self, ControllerBank(b) => b.assignment(slot))
    }

    /// Forces the ant at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        dispatch!(self, ControllerBank(b) => b.reset_slot(slot, a))
    }

    /// Persistent memory per ant, in bits (uniform across a bank).
    pub fn memory_bits(&self) -> u32 {
        dispatch!(self, ControllerBank(b) => b.memory_bits())
    }

    /// Appends one fresh ant of the bank's kind (a spawn).
    /// Desynchronized Ant spawns run phase offset 0.
    pub fn push_fresh(&mut self) {
        dispatch!(self, ControllerBank(b) => b.push_fresh())
    }

    /// Removes the ant at `slot` by swap-removal (the last ant moves
    /// into `slot`). Callers must mirror the swap in any parallel
    /// per-slot arrays (RNGs, ant-id maps).
    pub fn swap_remove(&mut self, slot: usize) {
        dispatch!(self, ControllerBank(b) => b.swap_remove(slot))
    }

    /// The ant at `slot` as its per-ant reference controller (reference
    /// extraction for tests and baseline replays).
    pub fn to_any(&self, slot: usize) -> AnyController {
        dispatch!(self, ControllerBank(b) => b.to_controller(slot).into())
    }
}

impl<'a> BankSliceMut<'a> {
    /// Number of ants in the chunk.
    pub fn len(&self) -> usize {
        dispatch!(self, BankSliceMut(v) => v.len())
    }

    /// True iff the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits the chunk at `mid` into two disjoint chunks.
    pub fn split_at_mut(self, mid: usize) -> (BankSliceMut<'a>, BankSliceMut<'a>) {
        dispatch!(self, BankSliceMut(v), BankSliceMut as wrap => {
            let (a, b) = v.split_at_mut(mid);
            (wrap(a), wrap(b))
        })
    }

    /// Fused-apply stepping: every ant's next assignment goes straight
    /// into the engine's shared next-state column (at `ids[i]`, the
    /// ant's colony id) and its transition into the writer's local
    /// delta — no decisions buffer, no apply sweep. Each kernel consumes
    /// every ant's draws exactly as the per-ant reference
    /// [`crate::Controller::step`] would.
    ///
    /// Takes the round as a [`SensedRound`]: well-mixed rounds hoist
    /// the one shared view out of the loop; arena rounds select each
    /// ant's view with [`SensedRound::view_for`].
    pub fn step_batch_fused(
        &mut self,
        sensed: SensedRound<'_>,
        rngs: &mut [AntRng],
        ids: &[u32],
        writer: &mut ColumnWriter<'_>,
    ) {
        dispatch!(self, BankSliceMut(v) => v.step_batch_fused(sensed, rngs, ids, writer))
    }
}

/// The bank-vs-reference harness the per-kind unit tests share.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use crate::controller::Controller;
    use antalloc_env::{RoundDelta, TaskColumn};
    use antalloc_noise::{FeedbackProbe, NoiseModel, TaskFeedback};
    use antalloc_rng::StreamSeeder;

    /// Signal rows for round `t`: row 0 is saturated (task 0 lacks,
    /// every other task overloads — draw-free), rows 1 and 2 rotate
    /// small deficits so every signal stays stochastic.
    fn rows(t: u64, k: usize) -> Vec<TaskFeedback> {
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        let demands = vec![20u64; k];
        (0..3u64)
            .flat_map(|row| {
                let deficits: Vec<i64> = (0..k)
                    .map(|j| match row {
                        0 if j == 0 => 40,
                        0 => -40,
                        _ => [3i64, 0, -3][(t + row + j as u64) as usize % 3],
                    })
                    .collect();
                model.prepare(t, &deficits, &demands).tasks().to_vec()
            })
            .collect()
    }

    /// Asserts the persistent state of the ant at `slot` of `bank`,
    /// read from the bank's columns, equal to the reference
    /// controller's: the Ant phase trackers and offset, the Precise
    /// Sigmoid and Precise Adversarial rows, the Proportional streak,
    /// the table state. Trivial and Exact Greedy ants hold only the
    /// assignment, which the caller compares.
    fn assert_same_state(bank: &ControllerBank, slot: usize, c: &AnyController, at: &str) {
        match (bank, c) {
            (ControllerBank::Ant(b), AnyController::Ant(a)) => {
                assert_eq!(b.to_controller(slot).bank_state(), a.bank_state(), "{at}");
            }
            (ControllerBank::PreciseSigmoid(b), AnyController::PreciseSigmoid(a)) => {
                assert_eq!(b.row(slot), a.row(), "{at}");
            }
            (ControllerBank::PreciseAdversarial(b), AnyController::PreciseAdversarial(a)) => {
                assert_eq!(b.row(slot), a.row(), "{at}");
            }
            (ControllerBank::Proportional(b), AnyController::Proportional(a)) => {
                assert_eq!(b.streak(slot), a.streak(), "{at}");
            }
            (ControllerBank::Table(b), AnyController::Table(a)) => {
                assert_eq!(b.state(slot), a.state(), "{at}");
            }
            (ControllerBank::Trivial(_), AnyController::Trivial(_))
            | (ControllerBank::ExactGreedy(_), AnyController::ExactGreedy(_)) => {}
            _ => panic!("bank and reference kinds differ"),
        }
    }

    /// Steps `bank` through the fused path and `reference` (the same
    /// ants as per-ant controllers, in slot order) through
    /// [`Controller::step`] side by side for `rounds` rounds, asserting
    /// every decision and, after every round, every ant's persistent
    /// state equal. With `per_ant` every ant senses one of three signal
    /// rows (by colony id, the arena's form); otherwise all share row 1
    /// (the well-mixed form). Both sides see the same slot edits: a
    /// third of the ants start on tasks, slot 3 is swap-removed at
    /// round 5, a fresh ant (`fresh` on the reference side) is pushed
    /// at round 9, and slots 1 and 2 are reset at round 13. At round
    /// `rounds / 2` the reference is rebuilt from the bank (`to_any`),
    /// so the second half also checks that reconstruction mid-run is
    /// lossless.
    pub(crate) fn assert_matches_reference(
        bank: &mut ControllerBank,
        reference: &mut Vec<AnyController>,
        fresh: &dyn Fn() -> AnyController,
        k: usize,
        rounds: u64,
        per_ant: bool,
    ) {
        let n = reference.len();
        assert_eq!(bank.len(), n);
        let seeder = StreamSeeder::new(n as u64 ^ rounds);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut rngs: Vec<AntRng> = (0..n).map(|i| seeder.ant(i)).collect();
        let mut ref_rngs = rngs.clone();
        let sense_of: Vec<u32> = (0..=n as u32).map(|id| id % 3).collect();
        let column = TaskColumn::new(n + 1);
        let mut delta = RoundDelta::new(k);
        for slot in (0..n).step_by(3) {
            let a = Assignment::Task((slot % k) as u32);
            bank.reset_slot(slot, a);
            reference[slot].reset_to(a);
        }
        for t in 1..=rounds {
            match t {
                5 => {
                    bank.swap_remove(3);
                    reference.swap_remove(3);
                    rngs.swap_remove(3);
                    ref_rngs.swap_remove(3);
                    ids.swap_remove(3);
                }
                9 => {
                    bank.push_fresh();
                    reference.push(fresh());
                    rngs.push(seeder.ant(n));
                    ref_rngs.push(seeder.ant(n));
                    ids.push(n as u32);
                }
                13 => {
                    for (slot, a) in [(1, Assignment::Task(0)), (2, Assignment::Idle)] {
                        bank.reset_slot(slot, a);
                        reference[slot].reset_to(a);
                    }
                }
                _ if t == rounds / 2 => {
                    *reference = (0..bank.len()).map(|s| bank.to_any(s)).collect();
                }
                _ => {}
            }
            let rows = rows(t, k);
            let sensed = if per_ant {
                SensedRound::from_parts(&rows, &sense_of, k, t)
            } else {
                SensedRound::from_parts(&rows[k..2 * k], &[], k, t)
            };
            delta.reset(k);
            let mut writer = ColumnWriter::new(&column, &column, &mut delta);
            bank.step_batch_fused(sensed, &mut rngs, &ids, &mut writer);
            for (slot, c) in reference.iter_mut().enumerate() {
                let id = ids[slot];
                let view = sensed.shared_view().unwrap_or_else(|| sensed.view_for(id));
                let mut probe = FeedbackProbe::from_view(view, &mut ref_rngs[slot]);
                let want = c.step(&mut probe);
                assert_eq!(column.load(id), want.to_raw(), "slot {slot} round {t}");
                assert_eq!(bank.assignment(slot), want, "slot {slot} round {t}");
                assert_same_state(bank, slot, c, &format!("slot {slot} round {t}"));
            }
        }
        for (slot, c) in reference.iter().enumerate() {
            assert_eq!(bank.memory_bits(), c.memory_bits(), "slot {slot}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ant::AlgorithmAnt;
    use crate::controller::Controller;
    use crate::params::{AntParams, PreciseSigmoidParams};
    use crate::precise_sigmoid::PreciseSigmoid;
    use antalloc_noise::{FeedbackProbe, NoiseModel};
    use antalloc_rng::StreamSeeder;

    #[test]
    fn bank_stepping_matches_per_ant_stepping() {
        let (n, k) = (64, 2);
        let params = AntParams::default();
        let mut bank = ControllerBank::Ant(AntBank::new(k, params, n));
        let mut reference: Vec<AnyController> = (0..n)
            .map(|_| AlgorithmAnt::new(k, params).into())
            .collect();
        let fresh = || AlgorithmAnt::new(k, params).into();
        testkit::assert_matches_reference(&mut bank, &mut reference, &fresh, k, 20, false);
    }

    #[test]
    fn split_chunks_cover_the_bank() {
        let mut bank = ControllerBank::Trivial(TrivialBank::new(1, 10));
        let slice = bank.as_slice_mut();
        assert_eq!(slice.len(), 10);
        let (a, b) = slice.split_at_mut(4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn scratch_roundtrips_for_sigmoid_banks_only() {
        // A mid-phase row read from a per-ant controller and written
        // into a reset bank slot reads back unchanged.
        let params = PreciseSigmoidParams::new(0.05, 0.5);
        let mut ant = PreciseSigmoid::new(2, params);
        ant.reset_to(Assignment::Task(1));
        let prepared = NoiseModel::Sigmoid { lambda: 1.0 }.prepare(1, &[3, -3], &[10, 10]);
        let mut rng = StreamSeeder::new(5).ant(0);
        ant.step(&mut FeedbackProbe::new(&prepared, &mut rng));
        let mut bank = ControllerBank::PreciseSigmoid(PreciseSigmoidBank::new(2, params, 3));
        bank.reset_slot(1, ant.assignment());
        let ControllerBank::PreciseSigmoid(b) = &mut bank else {
            unreachable!("sigmoid colonies use the sigmoid bank");
        };
        b.set_row(1, ant.row());
        assert_eq!(b.row(1), ant.row());
        assert_ne!(b.row(0), ant.row(), "only slot 1 changed");
    }
}
