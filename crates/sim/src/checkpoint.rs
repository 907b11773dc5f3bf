//! Versioned binary checkpoints.
//!
//! A checkpoint captures everything a [`SyncEngine`] needs to continue a
//! run bit-identically: the config (including noise model, controller
//! spec and the full event timeline — triggers and generators
//! included), the current demands, the noise model currently in force,
//! the timeline cursor, the runtime state of every trigger, every
//! ant's assignment and RNG state, and the round counter — so a
//! capture taken *mid-timeline* (after kills, spawns, demand steps,
//! noise switches or trigger firings) resumes exactly where the script
//! left off. The byte layout, the v2 → … → v7 version history and the
//! read-compat policy live in `docs/CHECKPOINTS.md`.
//!
//! **Exactness contract.** Controllers are rebuilt from their spec and
//! `reset_to(assignment)`, plus — since format v5 — a per-kind
//! **scratch section** carrying mid-phase state for kinds that
//! serialize it: Precise Sigmoid's half-phase counters
//! ([`SigmoidScratch`]), whose `2m = O(1/ε)`-round phases previously
//! restricted captures to every 2m-th round (and a restore landing
//! mid-phase silently idled out the partial phase), and — since v6 —
//! Precise Adversarial's phase trackers
//! ([`antalloc_core::AdversarialScratch`]), closing the last long-phase
//! capture gap. Kinds *without* a
//! scratch codec still capture only at their phase boundaries
//! (`round % capture_phase == 0`, see
//! [`crate::ControllerSpec::capture_phase_len`]), where their per-phase
//! scratch is empty by construction; [`Checkpoint::capture`] refuses to
//! snapshot anywhere else. Restored runs replay exactly
//! (`tests/checkpoint_replay.rs` and `tests/banks.rs` assert
//! bit-identical trajectories, including mid-phase Precise Sigmoid
//! restores).
//!
//! Exceptions: `ControllerSpec::AntDesync` has, by construction, no
//! global phase boundary — the offset half of the colony is always
//! mid-phase — so its restores are *approximate* (the offset half skips
//! one decision and self-stabilizes); likewise kill-perturbations
//! reshuffle which index carries which offset.

use std::path::Path;

use antalloc_core::{
    AdversarialScratch, AntParams, ControllerScratch, ExactGreedyParams, PreciseAdversarialParams,
    PreciseSigmoidParams, ProportionalParams, SigmoidScratch,
};
use antalloc_env::{
    ArenaConfig, Assignment, Condition, Cycle, DemandSchedule, DemandVector, Event, GenShock,
    InitialConfig, TimedEvent, Timeline, TimelineGen, Trigger, TriggerState,
};
use antalloc_noise::{GreyZonePolicy, NoiseModel};
use bytes::{Buf, BufMut};

use crate::config::{ControllerSpec, SimConfig};
use crate::engine::SyncEngine;

const MAGIC: u32 = 0x414E_5441; // "ANTA"
/// The current format version. The v2 → … → v7 evolution, what each
/// version carries, and the read-compat policy are documented in
/// `docs/CHECKPOINTS.md`; in short: v7 added the spatial-arena section
/// (arena config after the initial configuration, per-ant site/travel
/// columns at the tail), the Proportional controller spec and scratch
/// tags, the deficit condition tags, the `set-task-demand` event tag,
/// and per-trigger `prev_deficits`; v6 added the Precise Adversarial
/// scratch tag to the scratch section (every shipped long-phase kind
/// now captures mid-phase), v5 appended the per-kind controller
/// scratch section (Precise Sigmoid mid-phase counters), v4 added
/// timeline triggers and generators to the timeline codec plus the
/// per-trigger runtime state section, v3 replaced the demand schedule
/// with the event timeline (plus live noise model and cursor), v2
/// appended mixed-colony bank membership. Writers always emit the
/// current version; readers accept everything back to [`MIN_VERSION`].
const VERSION: u32 = 7;
const MIN_VERSION: u32 = 2;

/// Why a checkpoint could not be captured or decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Capture attempted off a phase boundary.
    NotAtPhaseBoundary {
        /// The engine's round.
        round: u64,
        /// The controller's phase length.
        phase: u64,
    },
    /// The byte stream is not a valid checkpoint.
    Corrupt(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::NotAtPhaseBoundary { round, phase } => write!(
                f,
                "checkpoint requires round % phase == 0 (round {round}, phase {phase})"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A captured simulation state.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    config: SimConfig,
    current_demands: Vec<u64>,
    /// The noise model in force at capture time (a timeline `SetNoise`
    /// event may have switched it away from `config.noise`).
    current_noise: NoiseModel,
    /// One-shot timeline events consumed before the captured round
    /// (indexes the *compiled* stream: scripted plus generated events).
    cursor: u64,
    /// Runtime state of every timeline trigger (v4; empty before).
    trigger_states: Vec<TriggerState>,
    assignments: Vec<Assignment>,
    rng_states: Vec<[u64; 4]>,
    round: u64,
    next_stream: u64,
    /// Per-ant bank membership for `ControllerSpec::Mix` colonies
    /// (which sub-spec each global ant id runs); empty otherwise.
    members: Vec<u16>,
    /// Mid-phase controller scratch in ascending global-ant order (v5;
    /// empty before). Only kinds with a scratch codec — Precise
    /// Sigmoid counters (v5), Precise Adversarial phase trackers (v6)
    /// and Proportional overload/lack streaks (v7) — produce entries.
    scratch: Vec<(u32, ControllerScratch)>,
    /// Per-ant arena site column (v7; empty unless the config pins
    /// tasks to arena sites).
    arena_site: Vec<u32>,
    /// Per-ant remaining travel rounds (v7; same shape as
    /// `arena_site`).
    arena_travel: Vec<u32>,
}

impl Checkpoint {
    /// Snapshots the engine. Fails off *capture* phase boundaries —
    /// kinds whose mid-phase state is serialized (Precise Sigmoid) can
    /// capture at any round; the rest only where their per-phase
    /// scratch is empty (see module docs).
    pub fn capture(engine: &SyncEngine) -> Result<Self, CheckpointError> {
        let state = engine.state_parts();
        let phase = state
            .config
            .controller
            .capture_phase_len(state.colony.num_tasks());
        if !state.round.is_multiple_of(phase) {
            return Err(CheckpointError::NotAtPhaseBoundary {
                round: state.round,
                phase,
            });
        }
        Ok(Self {
            config: state.config.clone(),
            current_demands: state.colony.demands().as_slice().to_vec(),
            current_noise: state.noise.clone(),
            cursor: state.cursor,
            trigger_states: state.trigger_states,
            assignments: state.colony.assignments(),
            rng_states: state.rng_states,
            round: state.round,
            next_stream: state.next_stream,
            members: state.members.unwrap_or_default(),
            scratch: state.scratch,
            arena_site: state.arena_site,
            arena_travel: state.arena_travel,
        })
    }

    /// Rebuilds a running engine.
    pub fn restore(&self) -> SyncEngine {
        let mut engine = SyncEngine::new(
            self.config.clone(),
            DemandVector::new(self.config.demands.clone()),
        );
        self.restore_into(&mut engine);
        engine
    }

    /// Restores the captured state into an existing engine in place,
    /// reusing its allocations (the sweep fast path's engine-reuse
    /// counterpart for resumed runs). Bit-identical to
    /// [`Checkpoint::restore`] regardless of what the engine ran
    /// before.
    pub fn restore_into(&self, engine: &mut SyncEngine) {
        engine.restore_parts_in(
            &self.config,
            &self.current_demands,
            &self.current_noise,
            &self.assignments,
            &self.rng_states,
            self.round,
            self.next_stream,
            self.cursor,
            &self.members,
            &self.trigger_states,
            &self.scratch,
            self.arena_columns(),
        );
    }

    /// The captured arena site/travel columns, if any.
    fn arena_columns(&self) -> Option<(&[u32], &[u32])> {
        (!self.arena_site.is_empty())
            .then_some((self.arena_site.as_slice(), self.arena_travel.as_slice()))
    }

    /// Rebases the captured state onto a *different* configuration —
    /// the sweep warm-start path (`Sweep::from_round`): one prefix run
    /// of the base scenario is captured once, then forked into every
    /// grid point, whose parameters take effect from the captured
    /// round onward.
    ///
    /// Callers must have prechecked the fork (the sweep does): same
    /// controller, colony size, initial configuration and task count,
    /// same triggers and generators, identical timeline prefix through
    /// the captured round, and the same seed as the prefix run. Within
    /// that envelope the rebase is mechanical: swept `demands`/`noise`
    /// replace the captured values only when the fork config actually
    /// changes them from the *base* config (a prefix timeline event
    /// that already overrode them wins otherwise, exactly as it would
    /// in an uninterrupted run), and the one-shot cursor is recomputed
    /// against the fork's compiled timeline. With an unchanged config
    /// this is [`Checkpoint::restore_into`] bit for bit.
    pub fn fork_into(&self, config: &SimConfig, engine: &mut SyncEngine) {
        let demands = if config.demands != self.config.demands {
            &config.demands
        } else {
            &self.current_demands
        };
        let noise = if config.noise != self.config.noise {
            &config.noise
        } else {
            &self.current_noise
        };
        let compiled = config
            .timeline
            .compile(config.seed, config.n, &config.demands);
        let cursor = compiled.cursor_at(self.round) as u64;
        engine.restore_parts_in(
            config,
            demands,
            noise,
            &self.assignments,
            &self.rng_states,
            self.round,
            self.next_stream,
            cursor,
            &self.members,
            &self.trigger_states,
            &self.scratch,
            self.arena_columns(),
        );
    }

    /// The captured round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The configuration embedded in this checkpoint.
    ///
    /// Together with [`crate::SimConfig::to_toml`] this lets a
    /// checkpoint publish the scenario that produced it verbatim.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Serializes to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.assignments.len() * 36);
        out.put_u32_le(MAGIC);
        out.put_u32_le(VERSION);
        out.put_u64_le(self.round);
        out.put_u64_le(self.next_stream);
        out.put_u64_le(self.config.seed);
        out.put_u64_le(self.config.n as u64);
        put_u64s(&mut out, &self.config.demands);
        put_u64s(&mut out, &self.current_demands);
        put_noise(&mut out, &self.config.noise);
        // v3: the live noise model and the timeline (with its cursor)
        // replace v2's demand schedule.
        put_noise(&mut out, &self.current_noise);
        put_spec(&mut out, &self.config.controller);
        put_timeline(&mut out, &self.config.timeline);
        out.put_u64_le(self.cursor);
        // v4: the runtime state of every trigger, in timeline order.
        out.put_u64_le(self.trigger_states.len() as u64);
        for state in &self.trigger_states {
            out.put_u64_le(u64::from(state.firings));
            out.put_u64_le(state.last_fired);
            out.put_u8(u8::from(state.pending));
            out.put_u64_le(state.streaks.len() as u64);
            for &streak in &state.streaks {
                out.put_u32_le(streak);
            }
            // v7: last observed deficits of the rate leaves.
            out.put_u64_le(state.prev_deficits.len() as u64);
            for &prev in &state.prev_deficits {
                out.put_i64_le(prev);
            }
        }
        put_initial(&mut out, &self.config.initial);
        // v7: the spatial arena, if the scenario pins tasks to sites.
        match &self.config.arena {
            None => out.put_u8(0),
            Some(arena) => {
                out.put_u8(1);
                out.put_u64_le(arena.site_of_task.len() as u64);
                for &site in &arena.site_of_task {
                    out.put_u32_le(site);
                }
                out.put_u32_le(arena.travel_rounds);
                out.put_f64_le(arena.wander_probability);
            }
        }
        out.put_u64_le(self.assignments.len() as u64);
        for a in &self.assignments {
            out.put_u32_le(match a {
                Assignment::Idle => u32::MAX,
                Assignment::Task(j) => *j,
            });
        }
        for s in &self.rng_states {
            for &w in s {
                out.put_u64_le(w);
            }
        }
        // v2: per-ant bank membership, present iff the spec is a Mix.
        if matches!(self.config.controller, ControllerSpec::Mix(_)) {
            out.put_u64_le(self.members.len() as u64);
            for &m in &self.members {
                out.put_u16_le(m);
            }
        }
        // v5: per-kind controller scratch, ascending global-ant order.
        out.put_u64_le(self.scratch.len() as u64);
        for (ant, scratch) in &self.scratch {
            out.put_u32_le(*ant);
            match scratch {
                ControllerScratch::PreciseSigmoid(s) => {
                    out.put_u8(0);
                    out.put_u32_le(match s.current_task {
                        Assignment::Idle => u32::MAX,
                        Assignment::Task(j) => j,
                    });
                    out.put_u8(u8::from(s.have_phase));
                    for &c in &s.count1 {
                        out.put_u16_le(c);
                    }
                    for &c in &s.count2 {
                        out.put_u16_le(c);
                    }
                    for &l in &s.shat1_lack {
                        out.put_u8(u8::from(l));
                    }
                }
                // v6: Precise Adversarial phase trackers.
                ControllerScratch::PreciseAdversarial(s) => {
                    out.put_u8(1);
                    out.put_u32_le(match s.current_task {
                        Assignment::Idle => u32::MAX,
                        Assignment::Task(j) => j,
                    });
                    out.put_u8(u8::from(s.have_phase));
                    out.put_u8(u8::from(s.all_overload));
                    out.put_u8(u8::from(s.frozen_working));
                    out.put_u8(u8::from(s.pending_first_lack));
                    out.put_u8(match s.working_at_first_lack {
                        None => 0,
                        Some(false) => 1,
                        Some(true) => 2,
                    });
                    for &l in &s.all_lack {
                        out.put_u8(u8::from(l));
                    }
                }
                // v7: Proportional overload/lack streak.
                ControllerScratch::Proportional(streak) => {
                    out.put_u8(2);
                    out.put_u16_le(*streak);
                }
            }
        }
        // v7: per-ant arena columns (site, then travel), present iff
        // the config carries an arena; lengths equal the ant count.
        if self.config.arena.is_some() {
            for &site in &self.arena_site {
                out.put_u32_le(site);
            }
            for &travel in &self.arena_travel {
                out.put_u32_le(travel);
            }
        }
        out
    }

    /// Deserializes from [`Checkpoint::to_bytes`] output.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self, CheckpointError> {
        let magic = get_u32(&mut buf)?;
        if magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = get_u32(&mut buf)?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        let round = get_u64(&mut buf)?;
        let next_stream = get_u64(&mut buf)?;
        let seed = get_u64(&mut buf)?;
        let n = get_u64(&mut buf)? as usize;
        let demands = get_u64s(&mut buf)?;
        let current_demands = get_u64s(&mut buf)?;
        let noise = get_noise(&mut buf)?;
        let current_noise = if version >= 3 {
            get_noise(&mut buf)?
        } else {
            noise.clone()
        };
        let controller = get_spec(&mut buf)?;
        let (timeline, cursor) = if version >= 3 {
            let timeline = get_timeline(&mut buf, version)?;
            let cursor = get_u64(&mut buf)?;
            // Reject structurally invalid timelines *before* compiling:
            // any captured config passed build-time validation, so a
            // failure here means crafted or corrupted bytes — and a
            // crafted generator section (start = 0, absurd windows)
            // must never drive the expansion loop.
            timeline
                .validate(demands.len(), n)
                .and_then(|()| timeline.validate_triggers(demands.len()))
                .map_err(|e| corrupt(format!("invalid timeline: {e}")))?;
            // The cursor indexes the *compiled* stream (generated
            // events included), which re-expands deterministically.
            let compiled_events = timeline.compile(seed, n, &demands).events.len();
            if cursor as usize > compiled_events {
                return Err(corrupt(format!(
                    "timeline cursor {cursor} exceeds {compiled_events} compiled events"
                )));
            }
            (timeline, cursor)
        } else {
            // v2 stored a demand schedule; compile it to the equivalent
            // timeline and recompute the cursor from the round (both
            // fire at identical rounds, so the continuation is exact).
            let timeline: Timeline = get_schedule(&mut buf)?.into();
            let cursor = timeline.cursor_at(round) as u64;
            (timeline, cursor)
        };
        let trigger_states = if version >= 4 {
            let count = get_u64(&mut buf)? as usize;
            if count != timeline.triggers.len() {
                return Err(corrupt(format!(
                    "{count} trigger states for {} triggers",
                    timeline.triggers.len()
                )));
            }
            let mut states = Vec::with_capacity(count.min(1 << 10));
            for i in 0..count {
                let firings = get_u64(&mut buf)?;
                let firings = u32::try_from(firings)
                    .map_err(|_| corrupt(format!("implausible firing count {firings}")))?;
                let last_fired = get_u64(&mut buf)?;
                let pending = get_bool(&mut buf)?;
                let streak_len = get_u64(&mut buf)? as usize;
                if streak_len > 1 << 16 {
                    return Err(corrupt("implausible streak count"));
                }
                let mut streaks = Vec::with_capacity(streak_len.min(1 << 10));
                for _ in 0..streak_len {
                    streaks.push(get_u32(&mut buf)?);
                }
                // v7 appended the rate leaves' last observed deficits;
                // older captures cannot hold rate conditions, so the
                // fresh-state default (all unset) is exact.
                let prev_deficits = if version >= 7 {
                    let prev_len = get_u64(&mut buf)? as usize;
                    if prev_len > 1 << 16 {
                        return Err(corrupt("implausible prev-deficit count"));
                    }
                    let mut prevs = Vec::with_capacity(prev_len.min(1 << 10));
                    for _ in 0..prev_len {
                        prevs.push(get_i64(&mut buf)?);
                    }
                    prevs
                } else {
                    TriggerState::new(&timeline.triggers[i]).prev_deficits
                };
                let state = TriggerState {
                    streaks,
                    firings,
                    last_fired,
                    pending,
                    prev_deficits,
                };
                if !state.matches(&timeline.triggers[i]) {
                    return Err(corrupt(format!(
                        "trigger state {i} disagrees with its condition shape"
                    )));
                }
                states.push(state);
            }
            states
        } else {
            // Pre-v4 formats cannot encode triggers, so there is no
            // state to restore.
            Vec::new()
        };
        let initial = get_initial(&mut buf)?;
        // v7: the spatial arena (None before v7 — the mode predates it).
        let arena = if version >= 7 && get_bool(&mut buf)? {
            let len = get_u64(&mut buf)? as usize;
            if len != demands.len() {
                return Err(corrupt(format!(
                    "arena pins {len} tasks but the scenario has {}",
                    demands.len()
                )));
            }
            let mut site_of_task = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                site_of_task.push(get_u32(&mut buf)?);
            }
            let arena = ArenaConfig {
                site_of_task,
                travel_rounds: get_u32(&mut buf)?,
                wander_probability: get_f64(&mut buf)?,
            };
            // Any captured arena passed build-time validation; failure
            // here means crafted or corrupted bytes.
            arena
                .validate(demands.len())
                .map_err(|e| corrupt(format!("invalid arena: {e}")))?;
            Some(arena)
        } else {
            None
        };
        let ants = get_u64(&mut buf)? as usize;
        // Validate the claimed count against the bytes actually present
        // (4 per assignment + 32 per RNG state) before any allocation —
        // a corrupted count must not drive `with_capacity` to OOM.
        let per_ant = 4usize + 32;
        if buf.remaining() / per_ant < ants {
            return Err(corrupt(format!(
                "ant count {ants} exceeds remaining payload"
            )));
        }
        let mut assignments = Vec::with_capacity(ants);
        for i in 0..ants {
            let raw = get_u32(&mut buf)?;
            assignments.push(if raw == u32::MAX {
                Assignment::Idle
            } else if (raw as usize) < demands.len() {
                Assignment::Task(raw)
            } else {
                // Crafted bytes must fail here, not panic in `restore()`.
                return Err(corrupt(format!(
                    "ant {i} is assigned to task {raw} but the scenario has {} tasks",
                    demands.len()
                )));
            });
        }
        let mut rng_states = Vec::with_capacity(ants);
        for _ in 0..ants {
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = get_u64(&mut buf)?;
            }
            rng_states.push(s);
        }
        let members = if let ControllerSpec::Mix(parts) = &controller {
            let len = get_u64(&mut buf)? as usize;
            if len != ants {
                return Err(corrupt(format!(
                    "membership length {len} disagrees with ant count {ants}"
                )));
            }
            let mut members = Vec::with_capacity(len);
            for _ in 0..len {
                need(&buf, 2)?;
                let m = buf.get_u16_le();
                if usize::from(m) >= parts.len() {
                    return Err(corrupt(format!(
                        "membership {m} references unknown sub-spec"
                    )));
                }
                members.push(m);
            }
            members
        } else {
            Vec::new()
        };
        let scratch = if version >= 5 {
            let k = demands.len();
            let count = get_u64(&mut buf)? as usize;
            // Minimum per-entry size across the scratch kinds: Precise
            // Sigmoid is ant id + tag + currentTask + have_phase + two
            // u16 counter rows + one median-bit row (10 + 5k); Precise
            // Adversarial is ant id + tag + currentTask + five flag
            // bytes + one lack-bit row (14 + k); Proportional is ant id
            // + tag + streak (7). Validate the claimed count against
            // the bytes present before any allocation.
            let per_entry = (4 + 1 + 4 + 1 + k * 5)
                .min(4 + 1 + 4 + 5 + k)
                .min(4 + 1 + 2);
            if count > ants || buf.remaining() / per_entry < count {
                return Err(corrupt(format!(
                    "scratch count {count} exceeds payload or ant count {ants}"
                )));
            }
            // Which ants may legally carry Precise Sigmoid scratch (and
            // the phase half-length m bounding their counters): crafted
            // bytes must fail here, not panic in `restore()`.
            let sigmoid_m_for = |ant: usize| -> Option<u64> {
                match &controller {
                    ControllerSpec::PreciseSigmoid(p) => Some(p.m()),
                    ControllerSpec::Mix(parts) => {
                        let b = usize::from(*members.get(ant)?);
                        match parts.get(b) {
                            Some((_, ControllerSpec::PreciseSigmoid(p))) => Some(p.m()),
                            _ => None,
                        }
                    }
                    _ => None,
                }
            };
            // Likewise for Precise Adversarial (v6 scratch): which ants
            // may legally carry its phase trackers.
            let adversarial_for = |ant: usize| -> bool {
                match &controller {
                    ControllerSpec::PreciseAdversarial(_) => true,
                    ControllerSpec::Mix(parts) => {
                        let Some(&m) = members.get(ant) else {
                            return false;
                        };
                        matches!(
                            parts.get(usize::from(m)),
                            Some((_, ControllerSpec::PreciseAdversarial(_)))
                        )
                    }
                    _ => false,
                }
            };
            // And for Proportional (v7 scratch): which ants may legally
            // carry a deadband streak.
            let proportional_for = |ant: usize| -> bool {
                match &controller {
                    ControllerSpec::Proportional(_) => true,
                    ControllerSpec::Mix(parts) => {
                        let Some(&m) = members.get(ant) else {
                            return false;
                        };
                        matches!(
                            parts.get(usize::from(m)),
                            Some((_, ControllerSpec::Proportional(_)))
                        )
                    }
                    _ => false,
                }
            };
            let mut scratch: Vec<(u32, ControllerScratch)> = Vec::with_capacity(count);
            for _ in 0..count {
                let ant = get_u32(&mut buf)?;
                if ant as usize >= ants {
                    return Err(corrupt(format!("scratch ant {ant} out of range")));
                }
                if let Some(&(prev, _)) = scratch.last() {
                    if ant <= prev {
                        return Err(corrupt("scratch entries out of order"));
                    }
                }
                match get_u8(&mut buf)? {
                    0 => {
                        let Some(m) = sigmoid_m_for(ant as usize) else {
                            return Err(corrupt(format!(
                                "scratch for ant {ant}, which runs no Precise Sigmoid"
                            )));
                        };
                        let raw = get_u32(&mut buf)?;
                        let current_task = if raw == u32::MAX {
                            Assignment::Idle
                        } else if (raw as usize) < k {
                            Assignment::Task(raw)
                        } else {
                            return Err(corrupt(format!("scratch task {raw} out of range")));
                        };
                        let have_phase = get_bool(&mut buf)?;
                        let mut counts = [Vec::with_capacity(k), Vec::with_capacity(k)];
                        for half in &mut counts {
                            for _ in 0..k {
                                need(&buf, 2)?;
                                let c = buf.get_u16_le();
                                if u64::from(c) > m {
                                    return Err(corrupt(format!(
                                        "scratch counter {c} exceeds half-phase length {m}"
                                    )));
                                }
                                half.push(c);
                            }
                        }
                        let [count1, count2] = counts;
                        let mut shat1_lack = Vec::with_capacity(k);
                        for _ in 0..k {
                            shat1_lack.push(get_u8(&mut buf)? != 0);
                        }
                        scratch.push((
                            ant,
                            ControllerScratch::PreciseSigmoid(SigmoidScratch {
                                current_task,
                                have_phase,
                                count1,
                                count2,
                                shat1_lack,
                            }),
                        ));
                    }
                    1 => {
                        if !adversarial_for(ant as usize) {
                            return Err(corrupt(format!(
                                "scratch for ant {ant}, which runs no Precise Adversarial"
                            )));
                        }
                        let raw = get_u32(&mut buf)?;
                        let current_task = if raw == u32::MAX {
                            Assignment::Idle
                        } else if (raw as usize) < k {
                            Assignment::Task(raw)
                        } else {
                            return Err(corrupt(format!("scratch task {raw} out of range")));
                        };
                        let have_phase = get_bool(&mut buf)?;
                        let all_overload = get_bool(&mut buf)?;
                        let frozen_working = get_bool(&mut buf)?;
                        let pending_first_lack = get_bool(&mut buf)?;
                        let working_at_first_lack = match get_u8(&mut buf)? {
                            0 => None,
                            1 => Some(false),
                            2 => Some(true),
                            t => return Err(corrupt(format!("unknown first-lack tri-state {t}"))),
                        };
                        let mut all_lack = Vec::with_capacity(k);
                        for _ in 0..k {
                            all_lack.push(get_u8(&mut buf)? != 0);
                        }
                        scratch.push((
                            ant,
                            ControllerScratch::PreciseAdversarial(AdversarialScratch {
                                current_task,
                                have_phase,
                                all_lack,
                                all_overload,
                                working_at_first_lack,
                                pending_first_lack,
                                frozen_working,
                            }),
                        ));
                    }
                    2 => {
                        if !proportional_for(ant as usize) {
                            return Err(corrupt(format!(
                                "scratch for ant {ant}, which runs no Proportional controller"
                            )));
                        }
                        need(&buf, 2)?;
                        let streak = buf.get_u16_le();
                        scratch.push((ant, ControllerScratch::Proportional(streak)));
                    }
                    t => return Err(corrupt(format!("unknown scratch tag {t}"))),
                }
            }
            scratch
        } else {
            // Pre-v5 captures were phase-boundary-only: no mid-phase
            // state existed to serialize.
            Vec::new()
        };
        // v7: the per-ant arena columns close the stream (present iff
        // the config carries an arena — decided above, so pre-v7 reads
        // never reach this branch).
        let (arena_site, arena_travel) = if let Some(cfg) = &arena {
            let num_sites = cfg.num_sites() as u32;
            let mut site = Vec::with_capacity(ants);
            for _ in 0..ants {
                let s = get_u32(&mut buf)?;
                if s >= num_sites {
                    return Err(corrupt(format!(
                        "arena site {s} out of range (the arena has {num_sites} sites)"
                    )));
                }
                site.push(s);
            }
            let mut travel = Vec::with_capacity(ants);
            for _ in 0..ants {
                let t = get_u32(&mut buf)?;
                if t > cfg.travel_rounds {
                    return Err(corrupt(format!(
                        "arena travel {t} exceeds the travel latency {}",
                        cfg.travel_rounds
                    )));
                }
                travel.push(t);
            }
            (site, travel)
        } else {
            (Vec::new(), Vec::new())
        };
        if !buf.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Self {
            config: SimConfig {
                n,
                demands,
                noise,
                controller,
                seed,
                timeline,
                initial,
                arena,
            },
            current_demands,
            current_noise,
            cursor,
            trigger_states,
            assignments,
            rng_states,
            round,
            next_stream,
            members,
            scratch,
            arena_site,
            arena_travel,
        })
    }

    /// Writes the checkpoint to a file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a checkpoint from a file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes =
            std::fs::read(path).map_err(|e| corrupt(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

// ---- primitive readers (length-checked) --------------------------------

fn need(buf: &&[u8], n: usize) -> Result<(), CheckpointError> {
    if buf.remaining() < n {
        Err(corrupt(format!("truncated: need {n} more bytes")))
    } else {
        Ok(())
    }
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, CheckpointError> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, CheckpointError> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

fn get_f64(buf: &mut &[u8]) -> Result<f64, CheckpointError> {
    need(buf, 8)?;
    Ok(buf.get_f64_le())
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, CheckpointError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn get_bool(buf: &mut &[u8]) -> Result<bool, CheckpointError> {
    Ok(get_u8(buf)? != 0)
}

fn get_i64(buf: &mut &[u8]) -> Result<i64, CheckpointError> {
    need(buf, 8)?;
    Ok(buf.get_i64_le())
}

fn put_u64s(out: &mut Vec<u8>, xs: &[u64]) {
    out.put_u64_le(xs.len() as u64);
    for &x in xs {
        out.put_u64_le(x);
    }
}

fn get_u64s(buf: &mut &[u8]) -> Result<Vec<u64>, CheckpointError> {
    let len = get_u64(buf)? as usize;
    if len > 1 << 32 {
        return Err(corrupt("implausible vector length"));
    }
    let mut xs = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        xs.push(get_u64(buf)?);
    }
    Ok(xs)
}

// ---- enum codecs --------------------------------------------------------

fn put_noise(out: &mut Vec<u8>, noise: &NoiseModel) {
    match noise {
        NoiseModel::Sigmoid { lambda } => {
            out.put_u8(0);
            out.put_f64_le(*lambda);
        }
        NoiseModel::CorrelatedSigmoid { lambda, rho, seed } => {
            out.put_u8(1);
            out.put_f64_le(*lambda);
            out.put_f64_le(*rho);
            out.put_u64_le(*seed);
        }
        NoiseModel::Adversarial { gamma_ad, policy } => {
            out.put_u8(2);
            out.put_f64_le(*gamma_ad);
            put_policy(out, policy);
        }
        NoiseModel::Exact => out.put_u8(3),
    }
}

fn get_noise(buf: &mut &[u8]) -> Result<NoiseModel, CheckpointError> {
    Ok(match get_u8(buf)? {
        0 => NoiseModel::Sigmoid {
            lambda: get_f64(buf)?,
        },
        1 => NoiseModel::CorrelatedSigmoid {
            lambda: get_f64(buf)?,
            rho: get_f64(buf)?,
            seed: get_u64(buf)?,
        },
        2 => NoiseModel::Adversarial {
            gamma_ad: get_f64(buf)?,
            policy: get_policy(buf)?,
        },
        3 => NoiseModel::Exact,
        t => return Err(corrupt(format!("unknown noise tag {t}"))),
    })
}

fn put_policy(out: &mut Vec<u8>, policy: &GreyZonePolicy) {
    match policy {
        GreyZonePolicy::AlwaysLack => out.put_u8(0),
        GreyZonePolicy::AlwaysOverload => out.put_u8(1),
        GreyZonePolicy::Truthful => out.put_u8(2),
        GreyZonePolicy::Inverted => out.put_u8(3),
        GreyZonePolicy::AlternateByRound => out.put_u8(4),
        GreyZonePolicy::RandomLack(p) => {
            out.put_u8(5);
            out.put_f64_le(*p);
        }
        GreyZonePolicy::LoadThreshold(thresholds) => {
            out.put_u8(6);
            put_u64s(out, thresholds);
        }
    }
}

fn get_policy(buf: &mut &[u8]) -> Result<GreyZonePolicy, CheckpointError> {
    Ok(match get_u8(buf)? {
        0 => GreyZonePolicy::AlwaysLack,
        1 => GreyZonePolicy::AlwaysOverload,
        2 => GreyZonePolicy::Truthful,
        3 => GreyZonePolicy::Inverted,
        4 => GreyZonePolicy::AlternateByRound,
        5 => GreyZonePolicy::RandomLack(get_f64(buf)?),
        6 => GreyZonePolicy::LoadThreshold(get_u64s(buf)?),
        t => return Err(corrupt(format!("unknown policy tag {t}"))),
    })
}

fn put_spec(out: &mut Vec<u8>, spec: &ControllerSpec) {
    match spec {
        ControllerSpec::Ant(p) => {
            out.put_u8(0);
            out.put_f64_le(p.gamma);
            out.put_f64_le(p.cs);
            out.put_f64_le(p.cd);
        }
        ControllerSpec::PreciseSigmoid(p) => {
            out.put_u8(1);
            out.put_f64_le(p.gamma);
            out.put_f64_le(p.eps);
            out.put_f64_le(p.c_chi);
            out.put_f64_le(p.cs);
            out.put_f64_le(p.cd);
            out.put_u8(u8::from(p.paper_literal_leave_prob));
        }
        ControllerSpec::PreciseAdversarial(p) => {
            out.put_u8(2);
            out.put_f64_le(p.gamma);
            out.put_f64_le(p.eps);
        }
        ControllerSpec::Trivial => out.put_u8(3),
        ControllerSpec::ExactGreedy(p) => {
            out.put_u8(4);
            out.put_f64_le(p.p_join);
            out.put_f64_le(p.p_leave);
        }
        ControllerSpec::Hysteresis { depth, lazy } => {
            out.put_u8(5);
            out.put_u16_le(*depth);
            match lazy {
                None => out.put_u8(0),
                Some(p) => {
                    out.put_u8(1);
                    out.put_f64_le(*p);
                }
            }
        }
        ControllerSpec::AntDesync(p) => {
            out.put_u8(6);
            out.put_f64_le(p.gamma);
            out.put_f64_le(p.cs);
            out.put_f64_le(p.cd);
        }
        ControllerSpec::Mix(parts) => {
            out.put_u8(7);
            out.put_u64_le(parts.len() as u64);
            for (weight, sub) in parts {
                out.put_f64_le(*weight);
                put_spec(out, sub);
            }
        }
        // v7: the proportional-control rival.
        ControllerSpec::Proportional(p) => {
            out.put_u8(8);
            out.put_f64_le(p.gain);
            out.put_u16_le(p.deadband);
        }
    }
}

fn get_spec(buf: &mut &[u8]) -> Result<ControllerSpec, CheckpointError> {
    Ok(match get_u8(buf)? {
        0 => ControllerSpec::Ant(AntParams {
            gamma: get_f64(buf)?,
            cs: get_f64(buf)?,
            cd: get_f64(buf)?,
        }),
        1 => ControllerSpec::PreciseSigmoid(PreciseSigmoidParams {
            gamma: get_f64(buf)?,
            eps: get_f64(buf)?,
            c_chi: get_f64(buf)?,
            cs: get_f64(buf)?,
            cd: get_f64(buf)?,
            paper_literal_leave_prob: get_bool(buf)?,
        }),
        2 => ControllerSpec::PreciseAdversarial(PreciseAdversarialParams {
            gamma: get_f64(buf)?,
            eps: get_f64(buf)?,
        }),
        3 => ControllerSpec::Trivial,
        4 => ControllerSpec::ExactGreedy(ExactGreedyParams {
            p_join: get_f64(buf)?,
            p_leave: get_f64(buf)?,
        }),
        5 => {
            need(buf, 2)?;
            let depth = buf.get_u16_le();
            let lazy = if get_bool(buf)? {
                Some(get_f64(buf)?)
            } else {
                None
            };
            ControllerSpec::Hysteresis { depth, lazy }
        }
        6 => ControllerSpec::AntDesync(AntParams {
            gamma: get_f64(buf)?,
            cs: get_f64(buf)?,
            cd: get_f64(buf)?,
        }),
        7 => {
            let len = get_u64(buf)? as usize;
            if len == 0 || len > u16::MAX as usize {
                return Err(corrupt(format!("implausible mix arity {len}")));
            }
            let mut parts = Vec::with_capacity(len.min(1 << 10));
            for _ in 0..len {
                let weight = get_f64(buf)?;
                let sub = get_spec(buf)?;
                if matches!(sub, ControllerSpec::Mix(_)) {
                    return Err(corrupt("nested mix in checkpoint"));
                }
                parts.push((weight, sub));
            }
            ControllerSpec::Mix(parts)
        }
        8 => {
            let gain = get_f64(buf)?;
            need(buf, 2)?;
            let deadband = buf.get_u16_le();
            ControllerSpec::Proportional(ProportionalParams { gain, deadband })
        }
        t => return Err(corrupt(format!("unknown controller tag {t}"))),
    })
}

/// v2 read-compat only: v3 writes timelines instead.
fn get_schedule(buf: &mut &[u8]) -> Result<DemandSchedule, CheckpointError> {
    Ok(match get_u8(buf)? {
        0 => DemandSchedule::Static,
        1 => DemandSchedule::Step {
            at: get_u64(buf)?,
            demands: get_u64s(buf)?,
        },
        2 => {
            let len = get_u64(buf)? as usize;
            let mut steps = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                steps.push((get_u64(buf)?, get_u64s(buf)?));
            }
            DemandSchedule::Steps(steps)
        }
        3 => DemandSchedule::Alternating {
            a: get_u64s(buf)?,
            b: get_u64s(buf)?,
            half_period: get_u64(buf)?,
        },
        t => return Err(corrupt(format!("unknown schedule tag {t}"))),
    })
}

fn put_event(out: &mut Vec<u8>, event: &Event) {
    match event {
        Event::SetDemands(demands) => {
            out.put_u8(0);
            put_u64s(out, demands);
        }
        Event::Kill { count } => {
            out.put_u8(1);
            out.put_u64_le(*count as u64);
        }
        Event::Spawn { count } => {
            out.put_u8(2);
            out.put_u64_le(*count as u64);
        }
        Event::Scramble => out.put_u8(3),
        Event::StampedeTo(j) => {
            out.put_u8(4);
            out.put_u64_le(*j as u64);
        }
        Event::SetNoise(model) => {
            out.put_u8(5);
            put_noise(out, model);
        }
        // v7: the arena experiments' site-local demand shock.
        Event::SetTaskDemand { task, demand } => {
            out.put_u8(6);
            out.put_u64_le(*task as u64);
            out.put_u64_le(*demand);
        }
    }
}

fn get_event(buf: &mut &[u8]) -> Result<Event, CheckpointError> {
    Ok(match get_u8(buf)? {
        0 => Event::SetDemands(get_u64s(buf)?),
        1 => Event::Kill {
            count: get_u64(buf)? as usize,
        },
        2 => Event::Spawn {
            count: get_u64(buf)? as usize,
        },
        3 => Event::Scramble,
        4 => Event::StampedeTo(get_u64(buf)? as usize),
        5 => Event::SetNoise(get_noise(buf)?),
        6 => Event::SetTaskDemand {
            task: get_u64(buf)? as usize,
            demand: get_u64(buf)?,
        },
        t => return Err(corrupt(format!("unknown event tag {t}"))),
    })
}

fn put_timeline(out: &mut Vec<u8>, timeline: &Timeline) {
    out.put_u64_le(timeline.events.len() as u64);
    for timed in &timeline.events {
        out.put_u64_le(timed.at);
        put_event(out, &timed.event);
    }
    out.put_u64_le(timeline.cycles.len() as u64);
    for cycle in &timeline.cycles {
        out.put_u64_le(cycle.start);
        out.put_u64_le(cycle.period);
        out.put_u64_le(cycle.events.len() as u64);
        for event in &cycle.events {
            put_event(out, event);
        }
    }
    // v4: triggers and generators follow the cycles.
    out.put_u64_le(timeline.triggers.len() as u64);
    for trigger in &timeline.triggers {
        put_condition(out, &trigger.when);
        put_event(out, &trigger.event);
        out.put_u64_le(trigger.cooldown);
        out.put_u64_le(u64::from(trigger.max_firings));
    }
    out.put_u64_le(timeline.generators.len() as u64);
    for generator in &timeline.generators {
        out.put_u64_le(generator.start);
        out.put_u64_le(generator.until);
        out.put_f64_le(generator.mean_gap);
        put_gen_shock(out, &generator.shock);
    }
}

fn get_timeline(buf: &mut &[u8], version: u32) -> Result<Timeline, CheckpointError> {
    let len = get_u64(buf)? as usize;
    if len > 1 << 32 {
        return Err(corrupt("implausible timeline length"));
    }
    let mut events = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        events.push(TimedEvent {
            at: get_u64(buf)?,
            event: get_event(buf)?,
        });
    }
    let cycles_len = get_u64(buf)? as usize;
    if cycles_len > 1 << 20 {
        return Err(corrupt("implausible cycle count"));
    }
    let mut cycles = Vec::with_capacity(cycles_len.min(1 << 10));
    for _ in 0..cycles_len {
        let start = get_u64(buf)?;
        let period = get_u64(buf)?;
        let n_events = get_u64(buf)? as usize;
        if n_events > 1 << 20 {
            return Err(corrupt("implausible cycle event count"));
        }
        let mut cycle_events = Vec::with_capacity(n_events.min(1 << 10));
        for _ in 0..n_events {
            cycle_events.push(get_event(buf)?);
        }
        cycles.push(Cycle {
            start,
            period,
            events: cycle_events,
        });
    }
    // v3 timelines end here; v4 appended triggers and generators.
    let (triggers, generators) = if version >= 4 {
        let trigger_len = get_u64(buf)? as usize;
        if trigger_len > 1 << 16 {
            return Err(corrupt("implausible trigger count"));
        }
        let mut triggers = Vec::with_capacity(trigger_len.min(1 << 10));
        for _ in 0..trigger_len {
            let when = get_condition(buf, 0)?;
            let event = get_event(buf)?;
            let cooldown = get_u64(buf)?;
            let max_firings = get_u64(buf)?;
            let max_firings = u32::try_from(max_firings)
                .map_err(|_| corrupt(format!("implausible max_firings {max_firings}")))?;
            triggers.push(Trigger {
                when,
                event,
                cooldown,
                max_firings,
            });
        }
        let gen_len = get_u64(buf)? as usize;
        if gen_len > 1 << 16 {
            return Err(corrupt("implausible generator count"));
        }
        let mut generators = Vec::with_capacity(gen_len.min(1 << 10));
        for _ in 0..gen_len {
            generators.push(TimelineGen {
                start: get_u64(buf)?,
                until: get_u64(buf)?,
                mean_gap: get_f64(buf)?,
                shock: get_gen_shock(buf)?,
            });
        }
        (triggers, generators)
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(Timeline {
        events,
        cycles,
        triggers,
        generators,
    })
}

fn put_condition(out: &mut Vec<u8>, condition: &Condition) {
    match condition {
        Condition::RegretAbove {
            threshold,
            for_rounds,
        } => {
            out.put_u8(0);
            out.put_u64_le(*threshold);
            out.put_u32_le(*for_rounds);
        }
        Condition::RegretBelow {
            threshold,
            for_rounds,
        } => {
            out.put_u8(1);
            out.put_u64_le(*threshold);
            out.put_u32_le(*for_rounds);
        }
        Condition::PopulationBelow { threshold } => {
            out.put_u8(2);
            out.put_u64_le(*threshold as u64);
        }
        Condition::RoundReached { round } => {
            out.put_u8(3);
            out.put_u64_le(*round);
        }
        Condition::And(a, b) => {
            out.put_u8(4);
            put_condition(out, a);
            put_condition(out, b);
        }
        Condition::Or(a, b) => {
            out.put_u8(5);
            put_condition(out, a);
            put_condition(out, b);
        }
        // v7: per-task deficit conditions.
        Condition::DeficitAbove {
            task,
            threshold,
            for_rounds,
        } => {
            out.put_u8(6);
            out.put_u64_le(*task as u64);
            out.put_i64_le(*threshold);
            out.put_u32_le(*for_rounds);
        }
        Condition::DeficitRateAbove {
            task,
            min_rise,
            for_rounds,
        } => {
            out.put_u8(7);
            out.put_u64_le(*task as u64);
            out.put_i64_le(*min_rise);
            out.put_u32_le(*for_rounds);
        }
    }
}

/// `depth` guards the recursion: a crafted byte stream of nested
/// `And` tags must error out, not blow the stack.
fn get_condition(buf: &mut &[u8], depth: u32) -> Result<Condition, CheckpointError> {
    if depth > 64 {
        return Err(corrupt("condition nesting too deep"));
    }
    Ok(match get_u8(buf)? {
        0 => Condition::RegretAbove {
            threshold: get_u64(buf)?,
            for_rounds: get_u32(buf)?,
        },
        1 => Condition::RegretBelow {
            threshold: get_u64(buf)?,
            for_rounds: get_u32(buf)?,
        },
        2 => Condition::PopulationBelow {
            threshold: get_u64(buf)? as usize,
        },
        3 => Condition::RoundReached {
            round: get_u64(buf)?,
        },
        4 => Condition::And(
            Box::new(get_condition(buf, depth + 1)?),
            Box::new(get_condition(buf, depth + 1)?),
        ),
        5 => Condition::Or(
            Box::new(get_condition(buf, depth + 1)?),
            Box::new(get_condition(buf, depth + 1)?),
        ),
        6 => Condition::DeficitAbove {
            task: get_u64(buf)? as usize,
            threshold: get_i64(buf)?,
            for_rounds: get_u32(buf)?,
        },
        7 => Condition::DeficitRateAbove {
            task: get_u64(buf)? as usize,
            min_rise: get_i64(buf)?,
            for_rounds: get_u32(buf)?,
        },
        t => return Err(corrupt(format!("unknown condition tag {t}"))),
    })
}

fn put_gen_shock(out: &mut Vec<u8>, shock: &GenShock) {
    match shock {
        GenShock::Kill { min_frac, max_frac } => {
            out.put_u8(0);
            out.put_f64_le(*min_frac);
            out.put_f64_le(*max_frac);
        }
        GenShock::Spawn { min_frac, max_frac } => {
            out.put_u8(1);
            out.put_f64_le(*min_frac);
            out.put_f64_le(*max_frac);
        }
        GenShock::Scramble => out.put_u8(2),
        GenShock::DemandStep {
            min_factor,
            max_factor,
        } => {
            out.put_u8(3);
            out.put_f64_le(*min_factor);
            out.put_f64_le(*max_factor);
        }
    }
}

fn get_gen_shock(buf: &mut &[u8]) -> Result<GenShock, CheckpointError> {
    Ok(match get_u8(buf)? {
        0 => GenShock::Kill {
            min_frac: get_f64(buf)?,
            max_frac: get_f64(buf)?,
        },
        1 => GenShock::Spawn {
            min_frac: get_f64(buf)?,
            max_frac: get_f64(buf)?,
        },
        2 => GenShock::Scramble,
        3 => GenShock::DemandStep {
            min_factor: get_f64(buf)?,
            max_factor: get_f64(buf)?,
        },
        t => return Err(corrupt(format!("unknown generator shock tag {t}"))),
    })
}

fn put_initial(out: &mut Vec<u8>, initial: &InitialConfig) {
    match initial {
        InitialConfig::AllIdle => out.put_u8(0),
        InitialConfig::AllOnTask(j) => {
            out.put_u8(1);
            out.put_u64_le(*j as u64);
        }
        InitialConfig::UniformRandom => out.put_u8(2),
        InitialConfig::Saturated => out.put_u8(3),
        InitialConfig::Inverted => out.put_u8(4),
        InitialConfig::SaturatedPlus { extra } => {
            out.put_u8(5);
            out.put_u64_le(*extra);
        }
    }
}

fn get_initial(buf: &mut &[u8]) -> Result<InitialConfig, CheckpointError> {
    Ok(match get_u8(buf)? {
        0 => InitialConfig::AllIdle,
        1 => InitialConfig::AllOnTask(get_u64(buf)? as usize),
        2 => InitialConfig::UniformRandom,
        3 => InitialConfig::Saturated,
        4 => InitialConfig::Inverted,
        5 => InitialConfig::SaturatedPlus {
            extra: get_u64(buf)?,
        },
        t => return Err(corrupt(format!("unknown initial-config tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use antalloc_core::AntParams;

    fn config() -> SimConfig {
        SimConfig::builder(200, vec![30, 40])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::default()))
            .seed(99)
            .build()
            .expect("valid scenario")
    }

    #[test]
    fn capture_requires_phase_boundary() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.step(&mut obs); // round 1, phase 2 → not a boundary.
        assert!(matches!(
            Checkpoint::capture(&e),
            Err(CheckpointError::NotAtPhaseBoundary { round: 1, phase: 2 })
        ));
        e.step(&mut obs); // round 2 → boundary.
        assert!(Checkpoint::capture(&e).is_ok());
    }

    #[test]
    fn bytes_roundtrip_exactly() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(10, &mut obs);
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
        assert_eq!(back.round(), 10);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(2, &mut obs);
        let bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        // Truncation.
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(Checkpoint::from_bytes(&bad).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Checkpoint::from_bytes(&long).is_err());
    }

    #[test]
    fn restore_then_run_matches_uninterrupted_run() {
        let mut full = config().build();
        let mut obs = NullObserver;
        full.run(40, &mut obs);

        let mut half = config().build();
        half.run(20, &mut obs);
        let cp = Checkpoint::capture(&half).unwrap();
        let mut resumed = Checkpoint::restore(&cp);
        resumed.run(20, &mut obs);

        assert_eq!(full.colony().loads(), resumed.colony().loads());
        assert_eq!(full.colony().assignments(), resumed.colony().assignments());
        assert_eq!(full.round(), resumed.round());
    }

    #[test]
    fn file_roundtrip() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(4, &mut obs);
        let cp = Checkpoint::capture(&e).unwrap();
        let dir = std::env::temp_dir().join("antalloc_ckpt_test");
        let path = dir.join("state.ckpt");
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(cp, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mix_checkpoints_roundtrip_with_membership() {
        let cfg = SimConfig::builder(60, vec![10, 10])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::default())),
                (1.0, ControllerSpec::Trivial),
            ]))
            .seed(5)
            .build()
            .unwrap();
        let mut e = cfg.build();
        let mut obs = NullObserver;
        e.run(6, &mut obs); // phase lcm(2, 1) = 2 → boundary.
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
        // Membership corruption is detected: an out-of-range bank index
        // must fail cleanly. The members vector is the last section, so
        // patch its final u16.
        let mut bad = bytes.clone();
        let last = bad.len() - 2;
        bad[last] = 0xFF;
        bad[last + 1] = 0xFF;
        assert!(Checkpoint::from_bytes(&bad).is_err());
    }

    #[test]
    fn random_byte_mutations_never_panic() {
        // Fuzz the decoder: flipping any single byte must yield either a
        // clean error or a decoded checkpoint — never a panic. (Length
        // fields are validated before allocation.)
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(4, &mut obs);
        let bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        for i in 0..bytes.len().min(512) {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x5A;
            let _ = Checkpoint::from_bytes(&mutated);
        }
        // Random truncations likewise.
        for len in [0usize, 1, 7, 8, 9, bytes.len() / 2, bytes.len() - 1] {
            let _ = Checkpoint::from_bytes(&bytes[..len]);
        }
    }

    #[test]
    fn scratch_for_non_sigmoid_colonies_is_rejected_not_panicked() {
        // A crafted v5 stream that claims Precise Sigmoid scratch for an
        // Ant colony must come back as a clean corrupt error — reaching
        // `restore()` would panic in `apply_scratch`.
        let mut e = config().build(); // Ant colony, 2 tasks
        let mut obs = NullObserver;
        e.run(2, &mut obs);
        let mut bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        // The scratch section is the stream's tail: count (u64) then
        // entries. Rewrite the zero count to 1 and append one entry.
        let tail = bytes.len() - 8;
        bytes[tail..].copy_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ant 0
        bytes.push(0); // tag: precise sigmoid
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // currentTask idle
        bytes.push(1); // have_phase
        bytes.extend_from_slice(&[0u8; 2 * 2 + 2 * 2 + 2]); // counters + medians, k = 2
        let err = Checkpoint::from_bytes(&bytes).expect_err("must reject");
        assert!(err.to_string().contains("no Precise Sigmoid"), "{err}");
    }

    #[test]
    fn scratch_counters_beyond_the_half_phase_are_rejected() {
        // Counter values above m could overflow the bank's u16 adds
        // during later stepping; the decoder bounds them.
        let cfg = SimConfig::builder(50, vec![10])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(
                0.05, 0.5,
            )))
            .seed(9)
            .build()
            .unwrap();
        let mut e = cfg.build();
        let mut obs = NullObserver;
        e.run(37, &mut obs); // mid-phase: every ant carries scratch
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), cp);
        // Patch ant 0's first counter (right after the scratch count,
        // ant id, tag, currentTask and have_phase) to u16::MAX.
        let k = 1usize;
        let entry_head = 4 + 1 + 4 + 1;
        let entries = 50 * (entry_head + k * 5);
        let first_counter = bytes.len() - entries - 8 + 8 + entry_head;
        let mut bad = bytes.clone();
        bad[first_counter..first_counter + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let err = Checkpoint::from_bytes(&bad).expect_err("must reject");
        assert!(err.to_string().contains("half-phase"), "{err}");
    }

    #[test]
    fn adversarial_scratch_roundtrips_and_restores_mid_phase() {
        // ε = 0.5 → phase 320. Capture deep inside the ramp and inside
        // the frozen sub-phase: both must roundtrip and continue
        // bit-identically to an uninterrupted run.
        let cfg = SimConfig::builder(80, vec![12, 18])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::PreciseAdversarial(
                PreciseAdversarialParams::new(0.05, 0.5),
            ))
            .seed(17)
            .build()
            .unwrap();
        let mut obs = NullObserver;
        for split in [37u64, 150, 319] {
            let mut full = cfg.build();
            full.run(split + 200, &mut obs);
            let mut head = cfg.build();
            head.run(split, &mut obs);
            let cp = Checkpoint::capture(&head).expect("mid-phase capture");
            let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
            assert_eq!(cp, back, "split {split}");
            let mut resumed = back.restore();
            resumed.run(200, &mut obs);
            assert_eq!(
                full.colony().assignments(),
                resumed.colony().assignments(),
                "split {split}"
            );
            assert_eq!(full.colony().loads(), resumed.colony().loads());
        }
    }

    #[test]
    fn adversarial_scratch_for_wrong_colony_is_rejected() {
        // Tag-1 scratch claimed for an Ant colony must error cleanly.
        let mut e = config().build(); // Ant colony, 2 tasks
        let mut obs = NullObserver;
        e.run(2, &mut obs);
        let mut bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        let tail = bytes.len() - 8;
        bytes[tail..].copy_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ant 0
        bytes.push(1); // tag: precise adversarial
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // currentTask idle
        bytes.extend_from_slice(&[1, 1, 0, 0, 0]); // flags + tri-state
        bytes.extend_from_slice(&[1u8; 2]); // all_lack, k = 2
        let err = Checkpoint::from_bytes(&bytes).expect_err("must reject");
        assert!(err.to_string().contains("no Precise Adversarial"), "{err}");
    }

    #[test]
    fn trigger_state_roundtrips_and_rejects_shape_mismatch() {
        use antalloc_env::{Condition, GenShock, TimelineGen, Trigger};

        let cfg = SimConfig::builder(300, vec![40, 60])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::default()))
            .seed(31)
            .trigger(Trigger {
                when: Condition::And(
                    Box::new(Condition::RegretBelow {
                        threshold: 30,
                        for_rounds: 4,
                    }),
                    Box::new(Condition::RoundReached { round: 10 }),
                ),
                event: Event::Scramble,
                cooldown: 25,
                max_firings: 3,
            })
            .generate(TimelineGen {
                start: 5,
                until: 500,
                mean_gap: 60.0,
                shock: GenShock::DemandStep {
                    min_factor: 0.5,
                    max_factor: 2.0,
                },
            })
            .build()
            .unwrap();
        let mut e = cfg.build();
        let mut obs = NullObserver;
        e.run(60, &mut obs);
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
        assert_eq!(back.config(), &cfg, "triggers and generators survive");
        // The restored engine continues bit-identically through later
        // trigger firings and generated demand steps.
        let mut resumed = back.restore();
        e.run(120, &mut obs);
        resumed.run(120, &mut obs);
        assert_eq!(e.colony().assignments(), resumed.colony().assignments());
        assert_eq!(e.colony().demands(), resumed.colony().demands());
    }

    #[test]
    fn deeply_nested_condition_bytes_error_instead_of_overflowing() {
        // A byte stream of 100 nested `and` tags must come back as a
        // clean corrupt error, not a stack overflow.
        let mut e = {
            let cfg = SimConfig::builder(50, vec![10])
                .noise(NoiseModel::Exact)
                .controller(ControllerSpec::Trivial)
                .build()
                .unwrap();
            cfg.build()
        };
        let mut obs = NullObserver;
        e.run(2, &mut obs);
        let mut bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        // Patch the timeline's trigger section: locate it by rebuilding
        // the prefix is brittle, so instead decode-and-cross-check via a
        // synthetic buffer fed straight to the condition reader.
        let mut cond = vec![4u8; 100]; // 100 nested `And` left arms
        cond.push(0xFF);
        let mut slice: &[u8] = &cond;
        assert!(super::get_condition(&mut slice, 0).is_err());
        // And a truncated tail still errors cleanly end-to-end.
        bytes.truncate(bytes.len() - 1);
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn all_enum_variants_roundtrip() {
        // Exercise every codec arm via synthetic configs.
        let specs = [
            ControllerSpec::Trivial,
            ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
            ControllerSpec::Hysteresis {
                depth: 3,
                lazy: Some(0.5),
            },
            ControllerSpec::Hysteresis {
                depth: 1,
                lazy: None,
            },
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.03, 0.5)),
            ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.03, 0.5)),
        ];
        let noises = [
            NoiseModel::Exact,
            NoiseModel::CorrelatedSigmoid {
                lambda: 1.0,
                rho: 0.3,
                seed: 5,
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.1,
                policy: GreyZonePolicy::LoadThreshold(vec![9, 9]),
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.1,
                policy: GreyZonePolicy::RandomLack(0.4),
            },
        ];
        let timelines: [Timeline; 3] = [
            DemandSchedule::Step {
                at: 5,
                demands: vec![4, 4],
            }
            .into(),
            Timeline::new()
                .at(3, Event::Kill { count: 2 })
                .at(9, Event::SetNoise(NoiseModel::Exact))
                .at(9, Event::StampedeTo(1))
                .at(11, Event::Spawn { count: 4 })
                .at(12, Event::Scramble),
            DemandSchedule::Alternating {
                a: vec![3, 3],
                b: vec![4, 4],
                half_period: 7,
            }
            .into(),
        ];
        for (i, spec) in specs.iter().enumerate() {
            let k = match spec {
                ControllerSpec::Hysteresis { .. } => 1,
                _ => 2,
            };
            let demands = vec![8u64; k];
            // Shape-dependent noise: threshold vectors must match k.
            let noise = match &noises[i % noises.len()] {
                NoiseModel::Adversarial {
                    gamma_ad,
                    policy: GreyZonePolicy::LoadThreshold(_),
                } => NoiseModel::Adversarial {
                    gamma_ad: *gamma_ad,
                    policy: GreyZonePolicy::LoadThreshold(vec![9; k]),
                },
                other => other.clone(),
            };
            let cfg = SimConfig {
                n: 20,
                demands: demands.clone(),
                noise,
                controller: spec.clone(),
                seed: i as u64,
                timeline: if k == 2 {
                    timelines[i % timelines.len()].clone()
                } else {
                    Timeline::new()
                },
                initial: [
                    InitialConfig::AllIdle,
                    InitialConfig::AllOnTask(0),
                    InitialConfig::UniformRandom,
                    InitialConfig::Saturated,
                    InitialConfig::Inverted,
                    InitialConfig::SaturatedPlus { extra: 2 },
                ][i % 6]
                    .clone(),
                arena: None,
            };
            let e = cfg.build();
            let cp = Checkpoint::capture(&e).unwrap();
            let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
            assert_eq!(cp, back, "spec {i}");
        }
    }
}
