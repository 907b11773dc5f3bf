//! Column bank for §5 Algorithm Precise Sigmoid.
//!
//! A Precise Sigmoid ant is mostly counters: two `u16` `lack` counts
//! and one frozen median bit per task, incremented every round of a
//! `2m`-round phase. The per-ant struct layout scatters those counters
//! across three heap allocations per ant; this bank transposes them
//! into flat planes — `count1`/`count2` as `n × k` `u16` arrays and
//! `shat1` as an `n × k` byte array, each ant's `k`-row contiguous
//! so the idle path (which touches all `k` entries) streams one cache
//! line instead of chasing three pointers. The idle path's full-vector
//! sample draws through the batched [`RoundView::fill_lack`].
//!
//! **Reference semantics.** [`crate::PreciseSigmoid`] is the truth; the
//! bank consumes every ant's RNG stream in exactly the order
//! `Controller::step` would (samples in task order, then the
//! pause/leave/join coins with the same short-circuits), so bank runs
//! are bit-identical to per-ant runs — pinned by `tests/banks.rs`.
//!
//! The counter planes are also what checkpoints serialize (per ant, as
//! a borrowed [`SigmoidRow`]) so a capture *between* phase boundaries —
//! phases are `2m = O(1/ε)` rounds long — resumes mid-phase
//! bit-identically.

use antalloc_env::{Assignment, ColumnWriter};
use antalloc_noise::{RoundView, SensedRound};
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::column::{column_bank, dec, drive, enc, IDLE};
use crate::controller::Controller;
use crate::params::PreciseSigmoidParams;
use crate::precise_sigmoid::{PreciseSigmoid, SigmoidRow};

/// The bank constants of a Precise Sigmoid bank.
#[derive(Clone, Copy, Debug)]
struct SigmoidConsts {
    params: PreciseSigmoidParams,
    m: u64,
    pause: Bernoulli,
    leave: Bernoulli,
}

impl SigmoidConsts {
    fn new(params: PreciseSigmoidParams) -> Self {
        let m = params.m();
        assert!(m <= u64::from(u16::MAX), "m too large for u16 counters");
        Self {
            params,
            m,
            pause: Bernoulli::new(params.pause_probability()),
            leave: Bernoulli::new(params.leave_probability()),
        }
    }
}

column_bank! {
    /// A homogeneous Precise Sigmoid population in column layout.
    pub struct PreciseSigmoidBank,
    /// A disjoint mutable chunk of a [`PreciseSigmoidBank`].
    SigmoidSliceMut {
        consts: SigmoidConsts,
        fresh(c),
        /// Output assignment `a_t` per ant.
        assignment: u32 [1] = IDLE,
        /// `currentTask` per ant (`IDLE` when idle).
        current: u32 [1] = IDLE,
        /// Phase-observed-from-start flag per ant.
        have_phase: u8 [1] = 0,
        /// First-half `lack` counts, `k` per ant.
        count1: u16 [k] = 0,
        /// Second-half `lack` counts, same shape.
        count2: u16 [k] = 0,
        /// Frozen first-half medians (1 = lack), same shape.
        shat1: u8 [k] = 0,
    }
}

impl PreciseSigmoidBank {
    /// An all-idle bank of `n` fresh ants.
    pub fn new(num_tasks: usize, params: PreciseSigmoidParams, n: usize) -> Self {
        Self::with_consts(SigmoidConsts::new(params), num_tasks, n)
    }

    /// Rebuilds the bank in place to `n` fresh all-idle ants, reusing
    /// the column allocations (shrink keeps capacity, grow
    /// reallocates). State after the call is bit-identical to
    /// `PreciseSigmoidBank::new(num_tasks, params, n)`.
    pub fn reinit(&mut self, num_tasks: usize, params: PreciseSigmoidParams, n: usize) {
        self.consts = SigmoidConsts::new(params);
        self.reset_columns(num_tasks, n);
    }

    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &PreciseSigmoidParams {
        &self.consts.params
    }

    /// Appends a per-ant controller, transposing its state in.
    pub fn push_controller(&mut self, ant: &PreciseSigmoid) {
        assert_eq!(ant.num_tasks(), self.num_tasks, "task count mismatch");
        debug_assert_eq!(ant.params(), &self.consts.params, "parameter mismatch");
        let row = ant.row();
        self.assignment.push(enc(ant.assignment()));
        self.current.push(enc(row.current_task));
        self.have_phase.push(u8::from(row.have_phase));
        self.count1.extend_from_slice(row.count1);
        self.count2.extend_from_slice(row.count2);
        self.shat1.extend_from_slice(row.shat1_lack);
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless for the whole state, counters included).
    pub fn to_controller(&self, slot: usize) -> PreciseSigmoid {
        let mut ant = PreciseSigmoid::new(self.num_tasks, self.consts.params);
        ant.reset_to(dec(self.assignment[slot]));
        ant.set_row(self.row(slot));
        ant
    }

    /// The mid-phase counter state of the ant at `slot`, borrowed from
    /// the planes (checkpoint capture; see [`SigmoidRow`]).
    pub fn row(&self, slot: usize) -> SigmoidRow<'_> {
        let k = self.num_tasks;
        let row = slot * k..slot * k + k;
        SigmoidRow {
            current_task: dec(self.current[slot]),
            have_phase: self.have_phase[slot] == 1,
            count1: &self.count1[row.clone()],
            count2: &self.count2[row.clone()],
            shat1_lack: &self.shat1[row],
        }
    }

    /// Overwrites the mid-phase counter state of the ant at `slot`
    /// (checkpoint restore; the assignment is restored separately via
    /// [`PreciseSigmoidBank::reset_slot`] *before* this).
    ///
    /// # Panics
    /// If the row's task count disagrees with the bank's.
    pub fn set_row(&mut self, slot: usize, row: SigmoidRow<'_>) {
        let k = self.num_tasks;
        let at = slot * k..slot * k + k;
        self.current[slot] = enc(row.current_task);
        self.have_phase[slot] = u8::from(row.have_phase);
        self.count1[at.clone()].copy_from_slice(row.count1);
        self.count2[at.clone()].copy_from_slice(row.count2);
        self.shat1[at].copy_from_slice(row.shat1_lack);
    }

    /// Forces the ant at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        let x = enc(a);
        self.assignment[slot] = x;
        self.current[slot] = x;
        self.have_phase[slot] = 0;
    }

    /// Persistent memory in bits (the shared accounting — identical to
    /// the per-ant impl by construction).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::sigmoid_memory_bits(self.num_tasks, self.consts.m)
    }

    /// Steps the single ant at `slot` (the sequential model's path) —
    /// the same kernel as the bank loop, on a one-ant chunk.
    pub fn step_slot(&mut self, slot: usize, view: RoundView<'_>, rng: &mut AntRng) -> Assignment {
        let mut one = self.slot_mut(slot);
        let r = view.round() % (2 * one.consts.m);
        with_row(one.num_tasks, |row| one.step_one(0, r, view, rng, row));
        self.assignment(slot)
    }
}

/// Runs `f` with a `k`-byte scratch row: stack space for the common
/// ≤ 64-task case, one heap buffer beyond.
fn with_row<R>(k: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    if k <= 64 {
        f(&mut [0u8; 64][..k])
    } else {
        f(&mut vec![0u8; k])
    }
}

impl SigmoidSliceMut<'_> {
    /// Steps every ant, routing each transition through `writer` at the
    /// ant's colony id (`ids[i]`); see [`crate::BankSliceMut::step_batch_fused`].
    /// The phase position is computed once for the whole chunk (all
    /// ants share the global clock).
    pub fn step_batch_fused(
        &mut self,
        sensed: SensedRound<'_>,
        rngs: &mut [AntRng],
        ids: &[u32],
        writer: &mut ColumnWriter<'_>,
    ) {
        let r = sensed.round() % (2 * self.consts.m);
        with_row(self.num_tasks, |row| {
            drive!(self, sensed, rngs, ids, writer, |s, i, view, rng| {
                s.step_one(i, r, view, rng, row)
            })
        });
    }

    /// One ant's round at phase position `r = round mod 2m`, mirroring
    /// [`PreciseSigmoid::step`] clause for clause.
    #[inline(always)]
    fn step_one(
        &mut self,
        i: usize,
        r: u64,
        view: RoundView<'_>,
        rng: &mut AntRng,
        row: &mut [u8],
    ) {
        let k = self.num_tasks;
        if r == 1 {
            // Phase start: adopt a_{t−1} as currentTask, reset counters.
            self.current[i] = self.assignment[i];
            self.count1[i * k..i * k + k].fill(0);
            self.count2[i * k..i * k + k].fill(0);
            self.have_phase[i] = 1;
        }
        if self.have_phase[i] == 0 {
            // Joined mid-phase (reset); idle out the remainder.
            return;
        }
        let first_half = (1..=self.consts.m).contains(&r);
        let cur = self.current[i];
        {
            // sample_into: one draw for the current task, or the batched
            // full-vector draw on the idle path.
            let counts = if first_half {
                &mut self.count1[i * k..i * k + k]
            } else {
                &mut self.count2[i * k..i * k + k]
            };
            if cur != IDLE {
                let t = crate::cast::task_ix(cur);
                counts[t] += u16::from(view.sample(t, rng).is_lack());
            } else {
                view.fill_lack(rng, row);
                for (c, &lack) in counts.iter_mut().zip(row.iter()) {
                    *c += u16::from(lack);
                }
            }
        }
        let m = self.consts.m;
        let median_is_lack = move |count: u16| u64::from(count) * 2 > m;
        if r == self.consts.m {
            // Freeze ŝ1 and take the temporary pause.
            for j in 0..k {
                self.shat1[i * k + j] = u8::from(median_is_lack(self.count1[i * k + j]));
            }
            if cur != IDLE {
                self.assignment[i] = if self.consts.pause.sample(rng) {
                    IDLE
                } else {
                    cur
                };
            }
        } else if r == 0 {
            // Phase end: compute ŝ2 and decide, exactly as Algorithm Ant.
            if cur == IDLE {
                let joinable = |this: &Self, j: usize| {
                    this.shat1[i * k + j] == 1 && median_is_lack(this.count2[i * k + j])
                };
                let count = (0..k).filter(|&j| joinable(self, j)).count();
                self.assignment[i] = if count == 0 {
                    IDLE
                } else {
                    let pick = uniform_index(rng, count);
                    let j = (0..k)
                        .filter(|&j| joinable(self, j))
                        .nth(pick)
                        // audit:allow(panic-path): pick was drawn as uniform_index(count) over this very filter.
                        .expect("pick < count");
                    crate::cast::task_col(j)
                };
            } else {
                let ju = i * k + crate::cast::task_ix(cur);
                let both_overload = self.shat1[ju] == 0 && !median_is_lack(self.count2[ju]);
                self.assignment[i] = if both_overload && self.consts.leave.sample(rng) {
                    IDLE
                } else {
                    cur
                };
            }
            self.have_phase[i] = 0;
        }
        // All other rounds: keep the current assignment (a_t ← a_{t−1}).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::testkit::assert_matches_reference;
    use crate::controller::AnyController;
    use crate::ControllerBank;
    use antalloc_noise::{FeedbackProbe, NoiseModel};
    use antalloc_rng::StreamSeeder;

    /// The column bank against the per-ant reference, round for round,
    /// across several full phases (joins, leaves, pauses, mid-phase
    /// resets, a removal and a spawn) — including reconstruction
    /// losslessness mid-phase.
    #[test]
    fn soa_bank_matches_per_ant_stepping() {
        let (n, k) = (80, 2);
        let params = PreciseSigmoidParams::new(0.05, 0.5); // phase 82
        let mut bank = ControllerBank::PreciseSigmoid(PreciseSigmoidBank::new(k, params, n));
        let mut reference: Vec<AnyController> = (0..n)
            .map(|_| PreciseSigmoid::new(k, params).into())
            .collect();
        let fresh = || PreciseSigmoid::new(k, params).into();
        assert_matches_reference(&mut bank, &mut reference, &fresh, k, 200, false);
    }

    #[test]
    fn push_and_reconstruct_roundtrip_mid_phase() {
        let params = PreciseSigmoidParams::new(0.05, 0.5);
        let mut ant = PreciseSigmoid::new(2, params);
        let mut rng = StreamSeeder::new(3).ant(0);
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        for round in 1..=37 {
            let prepared = model.prepare(round, &[3, -3], &[10, 10]);
            let mut probe = FeedbackProbe::new(&prepared, &mut rng);
            ant.step(&mut probe);
        }
        let mut bank = PreciseSigmoidBank::new(2, params, 0);
        bank.push_controller(&ant);
        let back = bank.to_controller(0);
        assert_eq!(back.row(), ant.row());
        assert_eq!(back.assignment(), ant.assignment());
    }

    #[test]
    fn swap_remove_moves_all_planes() {
        let params = PreciseSigmoidParams::new(0.05, 0.5);
        let mut bank = PreciseSigmoidBank::new(2, params, 3);
        bank.reset_slot(0, Assignment::Task(0));
        bank.reset_slot(2, Assignment::Task(1));
        bank.count1[2 * 2] = 7; // slot 2, task 0
        bank.swap_remove(0);
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.assignment(0), Assignment::Task(1)); // old slot 2
        assert_eq!(bank.count1[0], 7, "slot 2's counter row moved into slot 0");
    }
}
