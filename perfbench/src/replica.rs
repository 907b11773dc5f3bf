//! A serial well-mixed round built only from the simulator's public
//! pieces: `ColonyState::deficits_into` → `NoiseModel::prepare` →
//! `ControllerBank::step_batch_fused` (through a `ColumnWriter` into a
//! `RoundDelta`) → `ColonyState::commit_round`. Each stage is timed on
//! its own, which is how the traced run splits a round into layers.
//!
//! For a homogeneous colony the replica seeds its ants exactly as the
//! engine does, so its loads must equal the engine's round for round;
//! the traced run asserts that.

use antalloc_core::ControllerBank;
use antalloc_env::{ColonyState, ColumnWriter, DemandVector, RoundDelta, TaskColumn};
use antalloc_noise::{NoiseModel, SensedRound};
use antalloc_rng::{reserved, AntRng, StreamSeeder};
use antalloc_sim::{ControllerSpec, SimConfig};

use crate::trace::Tracer;

/// One homogeneous bank with its per-slot streams and ant ids.
struct Part {
    bank: ControllerBank,
    rngs: Vec<AntRng>,
    ids: Vec<u32>,
}

pub struct Replica {
    colony: ColonyState,
    parts: Vec<Part>,
    next: TaskColumn,
    delta: RoundDelta,
    noise: NoiseModel,
    pre: Vec<i64>,
    round: u64,
}

/// Stage times of one replica round, in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageNs {
    pub deficits: u64,
    pub prepare: u64,
    pub kernel: u64,
    pub commit: u64,
}

impl StageNs {
    pub fn total(&self) -> u64 {
        self.deficits + self.prepare + self.kernel + self.commit
    }
}

impl Replica {
    /// The replica of `cfg`'s static well-mixed round. A `Mix` spec is
    /// split round-robin over its sub-specs (the engine's seeded
    /// membership is internal), so only homogeneous replicas match the
    /// engine bit for bit.
    pub fn new(cfg: &SimConfig) -> Self {
        let n = cfg.n;
        let k = cfg.demands.len();
        let seeder = StreamSeeder::new(cfg.seed);
        let mut colony = ColonyState::new(n, DemandVector::new(cfg.demands.clone()));
        cfg.initial
            .apply(&mut colony, &mut seeder.stream(reserved::INIT));
        let specs: Vec<ControllerSpec> = match cfg.controller.mix_parts() {
            Some(parts) => parts.iter().map(|(_, s)| s.clone()).collect(),
            None => vec![cfg.controller.clone()],
        };
        let parts = specs
            .iter()
            .enumerate()
            .map(|(p, spec)| {
                let ids: Vec<u32> = (0..n as u32)
                    .filter(|&i| i as usize % specs.len() == p)
                    .collect();
                let mut bank = spec.build_bank(k, &ids);
                for (slot, &id) in ids.iter().enumerate() {
                    bank.reset_slot(slot, colony.assignment(id as usize));
                }
                let rngs = ids.iter().map(|&i| seeder.ant(i as usize)).collect();
                Part { bank, rngs, ids }
            })
            .collect();
        Self {
            colony,
            parts,
            next: TaskColumn::new(n),
            delta: RoundDelta::new(k),
            noise: cfg.noise.clone(),
            pre: vec![0; k],
            round: 0,
        }
    }

    pub fn colony(&self) -> &ColonyState {
        &self.colony
    }

    /// Runs one round, timing each stage on `tracer` under `parent`.
    /// Returns the stage times and the round's switch count.
    pub fn step(&mut self, tracer: &Tracer, parent: Option<u32>) -> (StageNs, u64) {
        self.round += 1;
        let k = self.colony.num_tasks();
        let t = tracer.now();
        self.colony.deficits_into(&mut self.pre);
        let deficits = tracer.record("env.deficits_into", parent, t);
        let t = tracer.now();
        let prepared = self
            .noise
            .prepare(self.round, &self.pre, self.colony.demands().as_slice());
        let prepare = tracer.record("noise.prepare", parent, t);
        let t = tracer.now();
        self.delta.reset(k);
        let sensed = SensedRound::shared(&prepared);
        for part in &mut self.parts {
            let mut writer =
                ColumnWriter::new(self.colony.task_column(), &self.next, &mut self.delta);
            part.bank
                .step_batch_fused(sensed, &mut part.rngs, &part.ids, &mut writer);
        }
        let kernel = tracer.record("core.step_batch_fused", parent, t);
        let t = tracer.now();
        self.colony.commit_round(&mut self.next, &self.delta);
        let commit = tracer.record("env.commit_round", parent, t);
        let stages = StageNs {
            deficits,
            prepare,
            kernel,
            commit,
        };
        (stages, self.delta.switches())
    }
}
