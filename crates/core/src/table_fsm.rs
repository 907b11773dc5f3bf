//! Explicit probabilistic finite-state machines (Theorem 3.3 apparatus).
//!
//! The memory lower bound quantifies over *arbitrary* algorithms with at
//! most `c·log(1/ε)` bits, modelled as probabilistic FSMs whose non-zero
//! transition probabilities are bounded below (and which satisfy the
//! Assumption 2.2 reachability requirement). [`TableFsm`] runs any such
//! machine in the simulator, so the memory-floor experiments can sweep
//! machine families — the natural one being [`FsmSpec::hysteresis`],
//! which needs `h` consecutive contrary signals before switching and
//! uses `⌈log2(2h)⌉` bits.
//!
//! Table machines observe a *single* task (the lower bound's setting,
//! `k = O(1)`, is proved with demand vectors like `d = (√n, …)`).

use std::sync::Arc;

use antalloc_env::{Assignment, ColumnWriter};
use antalloc_noise::{Feedback, FeedbackProbe, RoundView, SensedRound};
use antalloc_rng::AntRng;

use crate::column::{column_bank, drive, enc, IDLE};
use crate::controller::Controller;

/// One weighted transition edge.
type Edge = (u16, f64);

/// The specification of a probabilistic Moore machine over the feedback
/// alphabet `{lack, overload}` of one task.
#[derive(Clone, Debug, PartialEq)]
pub struct FsmSpec {
    /// `working[s]` — does state `s` output `Task(0)` (else `Idle`)?
    working: Vec<bool>,
    /// `transitions[s][obs]` — weighted successor states; `obs` 0 = lack,
    /// 1 = overload. Weights sum to 1 per cell.
    transitions: Vec<[Vec<Edge>; 2]>,
}

/// Why a spec violates Assumption 2.2 (mutual reachability of states).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReachabilityError {
    /// This state cannot be reached from state 0.
    UnreachableFromStart(u16),
    /// This state cannot reach state 0.
    CannotReturnToStart(u16),
    /// No state outputs `working` (or none outputs `idle`): the machine
    /// cannot realize both assignments, violating the spirit of 2.2.
    MissingOutput(&'static str),
}

impl FsmSpec {
    /// Builds and validates a spec.
    ///
    /// # Panics
    /// If shapes disagree, a cell is empty, weights don't sum to ~1, or a
    /// target state is out of range.
    pub fn new(working: Vec<bool>, transitions: Vec<[Vec<Edge>; 2]>) -> Self {
        let s = working.len();
        assert!(s >= 1 && s <= usize::from(u16::MAX), "1..=65535 states");
        assert_eq!(transitions.len(), s, "one transition row per state");
        for (i, row) in transitions.iter().enumerate() {
            for (obs, cell) in row.iter().enumerate() {
                assert!(!cell.is_empty(), "state {i} obs {obs}: empty cell");
                let total: f64 = cell.iter().map(|(_, p)| p).sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "state {i} obs {obs}: weights sum to {total}"
                );
                for &(target, p) in cell {
                    assert!(
                        usize::from(target) < s,
                        "state {i}: target {target} out of range"
                    );
                    assert!(p >= 0.0, "negative probability");
                }
            }
        }
        Self {
            working,
            transitions,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.working.len()
    }

    /// Whether state `s` outputs `Task(0)`.
    pub fn is_working(&self, s: u16) -> bool {
        self.working[usize::from(s)]
    }

    /// Checks Assumption 2.2: every state must be reachable from every
    /// other via positive-probability transitions (under some feedback
    /// sequence), and both outputs must be realizable.
    pub fn check_reachability(&self) -> Result<(), ReachabilityError> {
        if !self.working.iter().any(|&w| w) {
            return Err(ReachabilityError::MissingOutput("no working state"));
        }
        if !self.working.iter().any(|&w| !w) {
            return Err(ReachabilityError::MissingOutput("no idle state"));
        }
        let s = self.num_states();
        // Forward reachability from state 0.
        let forward = self.bfs(0, false);
        if let Some(bad) = (0..s).find(|&i| !forward[i]) {
            return Err(ReachabilityError::UnreachableFromStart(bad as u16));
        }
        // Reverse reachability to state 0.
        let backward = self.bfs(0, true);
        if let Some(bad) = (0..s).find(|&i| !backward[i]) {
            return Err(ReachabilityError::CannotReturnToStart(bad as u16));
        }
        Ok(())
    }

    fn bfs(&self, start: u16, reverse: bool) -> Vec<bool> {
        let s = self.num_states();
        let mut adj: Vec<Vec<u16>> = vec![Vec::new(); s];
        for (from, row) in self.transitions.iter().enumerate() {
            for cell in row {
                for &(to, p) in cell {
                    if p > 0.0 {
                        if reverse {
                            adj[usize::from(to)].push(from as u16);
                        } else {
                            adj[from].push(to);
                        }
                    }
                }
            }
        }
        let mut seen = vec![false; s];
        let mut queue = vec![start];
        seen[usize::from(start)] = true;
        while let Some(u) = queue.pop() {
            for &v in &adj[usize::from(u)] {
                if !seen[usize::from(v)] {
                    seen[usize::from(v)] = true;
                    queue.push(v);
                }
            }
        }
        seen
    }

    /// The natural `2h`-state hysteresis machine: working states
    /// `W_0..W_{h−1}` (leave only after `h` consecutive overloads) and
    /// idle states `I_0..I_{h−1}` (join only after `h` consecutive
    /// lacks). `h = 1` degenerates to the trivial algorithm of
    /// Appendix D restricted to one task.
    pub fn hysteresis(depth: u16) -> Self {
        assert!(depth >= 1);
        let h = usize::from(depth);
        // States 0..h are W_0..W_{h−1}; h..2h are I_0..I_{h−1}.
        let mut working = vec![true; h];
        working.extend(std::iter::repeat_n(false, h));
        let mut transitions = Vec::with_capacity(2 * h);
        for c in 0..h {
            // W_c: lack → W_0; overload → W_{c+1} (or leave to I_0).
            let on_lack = vec![(0u16, 1.0)];
            let next = if c + 1 == h { h } else { c + 1 };
            let on_overload = vec![(next as u16, 1.0)];
            transitions.push([on_lack, on_overload]);
        }
        for c in 0..h {
            // I_c: overload → I_0; lack → I_{c+1} (or join to W_0).
            let next = if c + 1 == h { 0 } else { h + c + 1 };
            let on_lack = vec![(next as u16, 1.0)];
            let on_overload = vec![(h as u16, 1.0)];
            transitions.push([on_lack, on_overload]);
        }
        Self::new(working, transitions)
    }

    /// A lazy randomized variant of hysteresis: switching edges fire with
    /// probability `p_act` and otherwise hold (self-loop), modelling the
    /// "transition probabilities are 0 or at least p" machines the lower
    /// bound quantifies over.
    pub fn lazy_hysteresis(depth: u16, p_act: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_act) && p_act > 0.0);
        let base = Self::hysteresis(depth);
        let transitions = base
            .transitions
            .iter()
            .enumerate()
            .map(|(s, row)| {
                let lazify = |cell: &Vec<Edge>| -> Vec<Edge> {
                    let (target, _) = cell[0];
                    if usize::from(target) == s {
                        vec![(target, 1.0)]
                    } else {
                        vec![(target, p_act), (s as u16, 1.0 - p_act)]
                    }
                };
                [lazify(&row[0]), lazify(&row[1])]
            })
            .collect();
        Self::new(base.working, transitions)
    }
}

impl FsmSpec {
    /// The output of state `s`: `Task(0)` for working states, else
    /// `Idle`.
    fn output(&self, s: u16) -> Assignment {
        if self.is_working(s) {
            Assignment::Task(0)
        } else {
            Assignment::Idle
        }
    }

    /// The state a reset to an assignment enters: the first state whose
    /// output is working iff `working` (state 0 fallback).
    fn reset_state(&self, working: bool) -> u16 {
        (0..self.num_states() as u16)
            .find(|&s| self.is_working(s) == working)
            .unwrap_or(0)
    }

    /// The successor of `state` on observation `obs`: the cell's single
    /// edge, or one `next_f64` draw over its weighted edges.
    fn next_state(&self, state: u16, obs: Feedback, rng: &mut AntRng) -> u16 {
        match &self.transitions[usize::from(state)][usize::from(!obs.is_lack())][..] {
            [(target, _)] => *target,
            edges => pick(edges, rng),
        }
    }
}

/// One `next_f64` draw over weighted edges (the last edge absorbs
/// rounding).
fn pick(edges: &[Edge], rng: &mut AntRng) -> u16 {
    let mut x = rng.next_f64();
    for &(target, p) in edges {
        if x < p {
            return target;
        }
        x -= p;
    }
    edges[edges.len() - 1].0
}

/// A running table machine: shared spec + private state.
#[derive(Clone, Debug)]
pub struct TableFsm {
    spec: Arc<FsmSpec>,
    state: u16,
}

impl TableFsm {
    /// Instantiates the machine in state 0.
    pub fn new(spec: Arc<FsmSpec>) -> Self {
        Self { spec, state: 0 }
    }

    /// The machine's current state.
    pub fn state(&self) -> u16 {
        self.state
    }
}

impl Controller for TableFsm {
    fn step(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        let obs = probe.sample(0);
        self.state = self.spec.next_state(self.state, obs, probe.rng());
        self.assignment()
    }

    #[inline]
    fn assignment(&self) -> Assignment {
        self.spec.output(self.state)
    }

    fn reset_to(&mut self, a: Assignment) {
        self.state = self.spec.reset_state(!a.is_idle());
    }

    fn memory_bits(&self) -> u32 {
        crate::memory::bits_for_states(self.spec.num_states())
    }
}

/// The bank constants of a table bank: the spec and the raw output of
/// each state.
#[derive(Clone, Debug)]
struct TableConsts {
    spec: Arc<FsmSpec>,
    outputs: Box<[u32]>,
}

impl TableConsts {
    fn new(spec: Arc<FsmSpec>) -> Self {
        let outputs = (0..spec.num_states() as u16)
            .map(|s| enc(spec.output(s)))
            .collect();
        Self { spec, outputs }
    }
}

column_bank! {
    /// A homogeneous table-machine population: one shared spec and a
    /// state column.
    pub struct TableBank,
    /// A disjoint mutable chunk of a [`TableBank`].
    TableSliceMut {
        consts: TableConsts,
        fresh(c),
        /// Output of each ant's state (`IDLE` when idle).
        assignment: u32 [1] = c.outputs[0],
        /// Machine state per ant.
        state: u16 [1] = 0,
    }
}

impl TableBank {
    /// A bank of `n` machines in state 0, sharing `spec`.
    pub fn new(num_tasks: usize, spec: Arc<FsmSpec>, n: usize) -> Self {
        Self::with_consts(TableConsts::new(spec), num_tasks, n)
    }

    /// Rebuilds the bank in place to `n` machines in state 0, reusing
    /// the column allocations; bit-identical to
    /// `TableBank::new(num_tasks, spec, n)`.
    pub fn reinit(&mut self, num_tasks: usize, spec: Arc<FsmSpec>, n: usize) {
        self.consts = TableConsts::new(spec);
        self.reset_columns(num_tasks, n);
    }

    /// Appends a per-ant machine, copying its state in.
    pub fn push_controller(&mut self, fsm: &TableFsm) {
        debug_assert_eq!(fsm.spec, self.consts.spec, "spec mismatch");
        self.state.push(fsm.state);
        self.assignment.push(enc(fsm.assignment()));
    }

    /// Reconstructs the per-ant machine at `slot` (reference extraction;
    /// lossless — the state is the whole machine).
    pub fn to_controller(&self, slot: usize) -> TableFsm {
        TableFsm {
            spec: self.consts.spec.clone(),
            state: self.state[slot],
        }
    }

    /// The first slot whose state is not the one a reset to its
    /// assignment enters — state that checkpoints cannot carry yet.
    pub fn first_unreset_slot(&self) -> Option<usize> {
        let spec = &self.consts.spec;
        let reset = [spec.reset_state(false), spec.reset_state(true)];
        (0..self.len()).find(|&s| self.state[s] != reset[usize::from(self.assignment[s] != IDLE)])
    }

    /// The state of the machine at `slot`.
    pub fn state(&self, slot: usize) -> u16 {
        self.state[slot]
    }

    /// Forces the machine at `slot` into the first state whose output
    /// matches `a` (see [`Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        let state = self.consts.spec.reset_state(!a.is_idle());
        self.state[slot] = state;
        self.assignment[slot] = self.consts.outputs[usize::from(state)];
    }

    /// Persistent memory in bits (same accounting as the per-ant impl).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::bits_for_states(self.consts.spec.num_states())
    }

    /// Steps the single machine at `slot` (the sequential model's path).
    pub fn step_slot(&mut self, slot: usize, view: RoundView<'_>, rng: &mut AntRng) -> Assignment {
        self.slot_mut(slot).step_one(0, view, rng);
        self.assignment(slot)
    }
}

impl TableSliceMut<'_> {
    /// Steps every machine, routing each transition through `writer` at
    /// the ant's colony id (`ids[i]`); see
    /// [`crate::BankSliceMut::step_batch_fused`].
    pub fn step_batch_fused(
        &mut self,
        sensed: SensedRound<'_>,
        rngs: &mut [AntRng],
        ids: &[u32],
        writer: &mut ColumnWriter<'_>,
    ) {
        drive!(self, sensed, rngs, ids, writer, |s, i, view, rng| {
            s.step_one(i, view, rng)
        });
    }

    /// One machine's round: observe task 0, take the transition (the
    /// per-ant [`TableFsm`]'s code).
    #[inline(always)]
    fn step_one(&mut self, i: usize, view: RoundView<'_>, rng: &mut AntRng) {
        let obs = view.sample(0, rng);
        let state = self.consts.spec.next_state(self.state[i], obs, rng);
        self.state[i] = state;
        self.assignment[i] = self.consts.outputs[usize::from(state)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::testkit::assert_matches_reference;
    use crate::controller::AnyController;
    use crate::ControllerBank;
    use antalloc_noise::NoiseModel;
    use antalloc_rng::Xoshiro256pp;

    fn probe_round(round: u64, lack: bool) -> antalloc_noise::PreparedRound {
        NoiseModel::Exact.prepare(round, &[if lack { 1 } else { -1 }], &[10])
    }

    fn step(fsm: &mut TableFsm, round: u64, lack: bool, rng: &mut Xoshiro256pp) -> Assignment {
        let prep = probe_round(round, lack);
        let mut probe = FeedbackProbe::new(&prep, rng);
        fsm.step(&mut probe)
    }

    #[test]
    fn hysteresis_needs_depth_consecutive_signals() {
        let spec = Arc::new(FsmSpec::hysteresis(3));
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut fsm = TableFsm::new(spec);
        assert_eq!(fsm.assignment(), Assignment::Task(0));
        // Two overloads then a lack: stays working.
        step(&mut fsm, 1, false, &mut rng);
        step(&mut fsm, 2, false, &mut rng);
        assert_eq!(step(&mut fsm, 3, true, &mut rng), Assignment::Task(0));
        // Three consecutive overloads: leaves.
        step(&mut fsm, 4, false, &mut rng);
        step(&mut fsm, 5, false, &mut rng);
        assert_eq!(step(&mut fsm, 6, false, &mut rng), Assignment::Idle);
        // Three consecutive lacks: rejoins.
        step(&mut fsm, 7, true, &mut rng);
        step(&mut fsm, 8, true, &mut rng);
        assert_eq!(step(&mut fsm, 9, true, &mut rng), Assignment::Task(0));
    }

    #[test]
    fn hysteresis_depth_one_is_trivial_algorithm() {
        let spec = Arc::new(FsmSpec::hysteresis(1));
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut fsm = TableFsm::new(spec);
        assert_eq!(step(&mut fsm, 1, false, &mut rng), Assignment::Idle);
        assert_eq!(step(&mut fsm, 2, true, &mut rng), Assignment::Task(0));
        assert_eq!(step(&mut fsm, 3, false, &mut rng), Assignment::Idle);
    }

    #[test]
    fn reachability_holds_for_hysteresis_family() {
        for depth in [1u16, 2, 3, 8, 16] {
            assert_eq!(FsmSpec::hysteresis(depth).check_reachability(), Ok(()));
            assert_eq!(
                FsmSpec::lazy_hysteresis(depth, 0.25).check_reachability(),
                Ok(())
            );
        }
    }

    #[test]
    fn reachability_rejects_sink_states() {
        // Two states, state 1 is absorbing: cannot return to 0.
        let spec = FsmSpec::new(
            vec![true, false],
            vec![
                [vec![(1, 1.0)], vec![(1, 1.0)]],
                [vec![(1, 1.0)], vec![(1, 1.0)]],
            ],
        );
        assert_eq!(
            spec.check_reachability(),
            Err(ReachabilityError::CannotReturnToStart(1))
        );
    }

    #[test]
    fn reachability_rejects_unreachable_states() {
        let spec = FsmSpec::new(
            vec![true, false, false],
            vec![
                [vec![(0, 1.0)], vec![(1, 1.0)]],
                [vec![(0, 1.0)], vec![(1, 1.0)]],
                [vec![(0, 1.0)], vec![(1, 1.0)]],
            ],
        );
        assert_eq!(
            spec.check_reachability(),
            Err(ReachabilityError::UnreachableFromStart(2))
        );
    }

    #[test]
    fn reachability_requires_both_outputs() {
        let spec = FsmSpec::new(vec![true], vec![[vec![(0, 1.0)], vec![(0, 1.0)]]]);
        assert_eq!(
            spec.check_reachability(),
            Err(ReachabilityError::MissingOutput("no idle state"))
        );
    }

    #[test]
    fn lazy_transitions_hold_with_complementary_probability() {
        let spec = Arc::new(FsmSpec::lazy_hysteresis(1, 0.25));
        // W_0 on overload moves to I_0 w.p. 0.25.
        let trials = 40_000u32;
        let mut moved = 0u32;
        for seed in 0..trials {
            let mut rng = Xoshiro256pp::seed_from_u64(u64::from(seed));
            let mut fsm = TableFsm::new(spec.clone());
            if step(&mut fsm, 1, false, &mut rng).is_idle() {
                moved += 1;
            }
        }
        let freq = f64::from(moved) / f64::from(trials);
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn reset_lands_on_matching_output() {
        let spec = Arc::new(FsmSpec::hysteresis(2));
        let mut fsm = TableFsm::new(spec);
        fsm.reset_to(Assignment::Idle);
        assert!(fsm.assignment().is_idle());
        fsm.reset_to(Assignment::Task(0));
        assert_eq!(fsm.assignment(), Assignment::Task(0));
    }

    #[test]
    #[should_panic(expected = "weights sum")]
    fn spec_rejects_bad_weights() {
        FsmSpec::new(
            vec![true, false],
            vec![
                [vec![(0, 0.5)], vec![(1, 1.0)]],
                [vec![(0, 1.0)], vec![(1, 1.0)]],
            ],
        );
    }

    /// The table bank against per-ant machines under per-ant
    /// (arena-style) sensing, across a removal, a fresh spawn and
    /// resets: lazy hysteresis (one- and two-edge cells drawing coins)
    /// and a machine with three-edge cells.
    #[test]
    fn bank_matches_per_ant_reference_under_per_ant_sensing() {
        let wide = FsmSpec::new(
            vec![true, false, false],
            vec![
                [vec![(0, 1.0)], vec![(1, 0.3), (2, 0.3), (0, 0.4)]],
                [vec![(0, 0.5), (1, 0.5)], vec![(1, 1.0)]],
                [vec![(0, 0.2), (1, 0.3), (2, 0.5)], vec![(1, 1.0)]],
            ],
        );
        for spec in [FsmSpec::lazy_hysteresis(3, 0.5), wide] {
            let spec = Arc::new(spec);
            let n = 90;
            let mut bank = ControllerBank::Table(TableBank::new(1, spec.clone(), n));
            let mut reference: Vec<AnyController> =
                (0..n).map(|_| TableFsm::new(spec.clone()).into()).collect();
            let fresh = || TableFsm::new(spec.clone()).into();
            assert_matches_reference(&mut bank, &mut reference, &fresh, 1, 40, true);
        }
    }

    #[test]
    fn memory_bits_is_log_states() {
        let fsm = TableFsm::new(Arc::new(FsmSpec::hysteresis(4)));
        assert_eq!(fsm.memory_bits(), 3); // 8 states.
    }
}
