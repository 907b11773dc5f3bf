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
//! left off.
//!
//! **One config codec.** Since format v8 the config travels as its
//! canonical scenario TOML — the exact text of [`SimConfig::to_toml`],
//! which the durable store also fingerprints — and the live noise model
//! as a TOML table, both decoded by the scenario codec (the syntactic
//! path: parameter windows are not re-checked, so out-of-spec engines
//! capture and restore). Only the dynamic state is binary. Streams
//! older than v8 carried a hand-written binary config encoding; their
//! frozen readers live in `checkpoint/legacy.rs`, and every version
//! shares the trigger-state reader here and the per-ant tail reader in
//! `checkpoint/tail.rs`. The byte layout, the v2 → … → v8 version
//! history and the read-compat policy live in `docs/CHECKPOINTS.md`.
//!
//! **Flat per-ant state.** A [`Checkpoint`] holds every per-ant section
//! as the exact v8 tail bytes: [`Checkpoint::capture`] writes them
//! straight from the engine's columns, [`Checkpoint::to_bytes`] copies
//! them, [`Checkpoint::from_bytes`] validates and keeps them, and
//! [`Checkpoint::restore_into`] reads them straight back into the
//! engine's columns. No call builds a per-ant object.
//!
//! **Exactness contract.** Controllers are rebuilt from their spec and
//! `reset_to(assignment)`, plus — since format v5 — a per-kind
//! **scratch section** carrying mid-phase state for kinds that
//! serialize it: Precise Sigmoid's half-phase counters
//! ([`antalloc_core::SigmoidRow`]), whose `2m = O(1/ε)`-round phases
//! previously restricted captures to every 2m-th round (and a restore
//! landing mid-phase silently idled out the partial phase), and — since
//! v6 — Precise Adversarial's phase trackers
//! ([`antalloc_core::AdversarialRow`]), closing the last long-phase
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
//! one decision and self-stabilizes); nor is its phase-offset column
//! captured: a restore rebuilds offsets as global id % 2, which after
//! kills or spawns differs from the run's. Table-FSM (`Hysteresis`) machine states are not
//! captured either, so [`Checkpoint::capture`] refuses with
//! [`CheckpointError::TableStateNotCaptured`] while any machine is in a
//! state other than the one a reset to its assignment enters.

use std::path::Path;

use antalloc_core::ControllerBank;
use antalloc_env::{Timeline, Trigger, TriggerState};
use antalloc_noise::NoiseModel;
use bytes::{Buf, BufMut};

use crate::config::SimConfig;
use crate::engine::SyncEngine;
use crate::scenario::{config_from_value, noise_from_value, noise_to_value, toml, Value};

mod legacy;
mod tail;

pub(crate) use tail::Tail;

const MAGIC: u32 = 0x414E_5441; // "ANTA"
/// The current format version. The v2 → … → v8 evolution, what each
/// version carries, and the read-compat policy are documented in
/// `docs/CHECKPOINTS.md`; in short: v8 replaced the binary config
/// encoding with the canonical scenario TOML (and the live noise model
/// with a TOML table), v7 added the spatial-arena section, the
/// Proportional controller and the deficit triggers, v6 added the
/// Precise Adversarial scratch tag, v5 appended the per-kind controller
/// scratch section, v4 added timeline triggers and generators plus the
/// per-trigger runtime state section, v3 replaced the demand schedule
/// with the event timeline (plus live noise model and cursor), v2
/// appended mixed-colony bank membership. Writers always emit the
/// current version; readers accept everything back to [`MIN_VERSION`].
const VERSION: u32 = 8;
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
    /// A table-FSM (Hysteresis) ant is mid-streak: its machine state is
    /// not the one a reset to its assignment enters. Checkpoints do not
    /// carry table-FSM states yet, so a restore would silently diverge.
    TableStateNotCaptured {
        /// The engine's round.
        round: u64,
        /// The first such ant's global id.
        ant: u32,
        /// Its machine state.
        state: u16,
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
            CheckpointError::TableStateNotCaptured { round, ant, state } => write!(
                f,
                "ant {ant} is in table-FSM state {state} at round {round}, which a checkpoint \
                 cannot carry (only the state a reset to its assignment enters)"
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
    round: u64,
    next_stream: u64,
    /// Every per-ant section — assignments, RNG states, mix membership,
    /// controller scratch, arena columns — as the exact v8 tail bytes
    /// (see `checkpoint/tail.rs`).
    tail: Tail,
}

impl Checkpoint {
    /// Snapshots the engine. Fails off *capture* phase boundaries —
    /// kinds whose mid-phase state is serialized (Precise Sigmoid) can
    /// capture at any round; the rest only where their per-phase
    /// scratch is empty (see module docs) — and while any table-FSM ant
    /// is mid-streak ([`CheckpointError::TableStateNotCaptured`]).
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
        for bank in state.population.banks() {
            if let ControllerBank::Table(b) = &bank.controllers {
                if let Some(slot) = b.first_unreset_slot() {
                    return Err(CheckpointError::TableStateNotCaptured {
                        round: state.round,
                        ant: bank.ants[slot],
                        state: b.state(slot),
                    });
                }
            }
        }
        Ok(Self {
            config: state.config.clone(),
            current_demands: state.colony.demands().as_slice().to_vec(),
            current_noise: state.noise.clone(),
            cursor: state.cursor,
            trigger_states: state.trigger_states.to_vec(),
            round: state.round,
            next_stream: state.next_stream,
            tail: Tail::capture(&state),
        })
    }

    /// Rebuilds a running engine: [`Checkpoint::restore_into`] an
    /// engine shell that holds no ants yet.
    pub fn restore(&self) -> SyncEngine {
        let mut engine = SyncEngine::shell(&self.config);
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
            self.round,
            self.next_stream,
            self.cursor,
            &self.trigger_states,
            &self.tail,
        );
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
            self.round,
            self.next_stream,
            cursor,
            &self.trigger_states,
            &self.tail,
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
        let config = self.config.to_toml();
        let noise = toml::write(&noise_to_value(&self.current_noise));
        let mut out = Vec::with_capacity(256 + config.len() + noise.len() + self.tail.len());
        out.put_u32_le(MAGIC);
        out.put_u32_le(VERSION);
        out.put_u64_le(self.round);
        out.put_u64_le(self.next_stream);
        // v8: the config as its canonical scenario TOML, then the live
        // environment (a timeline `set-noise` may have switched the noise
        // model away from the config's).
        put_text(&mut out, &config);
        put_u64s(&mut out, &self.current_demands);
        put_text(&mut out, &noise);
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
        self.tail.write(&mut out);
        out
    }

    /// Deserializes from [`Checkpoint::to_bytes`] output of this or any
    /// older supported format version (back to v2).
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
        let head = if version < 8 {
            legacy::read_head(&mut buf, version, round)?
        } else {
            read_head(&mut buf)?
        };
        // Crafted live state must fail here, not panic in `restore()`
        // or in the deficit arithmetic, which runs in `i64`.
        let k = head.config.demands.len();
        let in_range = |&d: &u64| d > 0 && i64::try_from(d).is_ok();
        if head.current_demands.len() != k || !head.current_demands.iter().all(in_range) {
            return Err(corrupt(format!(
                "current demands must be {k} values in 1..=i64::MAX, got {} values",
                head.current_demands.len()
            )));
        }
        head.current_noise
            .validate(k)
            .map_err(|e| corrupt(format!("invalid live noise model: {e}")))?;
        let tail = Tail::read(&mut buf, version, &head.config)?;
        if !buf.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Checkpoint {
            config: head.config,
            current_demands: head.current_demands,
            current_noise: head.current_noise,
            cursor: head.cursor,
            trigger_states: head.trigger_states,
            round,
            next_stream,
            tail,
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

/// Everything a stream carries between the round counters and the
/// per-ant tail.
struct Head {
    config: SimConfig,
    current_demands: Vec<u64>,
    current_noise: NoiseModel,
    cursor: u64,
    trigger_states: Vec<TriggerState>,
}

/// Reads a v8 head: the config and the live noise model as TOML
/// documents, with the binary dynamic state between and after them.
fn read_head(buf: &mut &[u8]) -> Result<Head, CheckpointError> {
    // The syntactic decode skips the parameter windows, so out-of-spec
    // engines restore; `check_config` then runs the structural
    // validation every engine passed at build time.
    let (config, _, _) =
        config_from_value(&get_toml(buf)?).map_err(|e| corrupt(format!("invalid config: {e}")))?;
    check_config(&config)?;
    let current_demands = get_u64s(buf)?;
    let current_noise = noise_from_value(&get_toml(buf)?)
        .map_err(|e| corrupt(format!("invalid live noise model: {e}")))?;
    let cursor = get_u64(buf)?;
    check_cursor(
        &config.timeline,
        config.seed,
        config.n,
        &config.demands,
        cursor,
    )?;
    let trigger_states = get_trigger_states(buf, VERSION, &config.timeline.triggers)?;
    Ok(Head {
        config,
        current_demands,
        current_noise,
        cursor,
        trigger_states,
    })
}

/// Structural validation of a decoded config (timeline, triggers,
/// arena, mix shape, …), the check both engines run at build time: a
/// captured config passed it, so a failure means crafted or corrupted
/// bytes. It runs before any timeline is compiled, so a crafted
/// generator section never drives the expansion loop.
fn check_config(config: &SimConfig) -> Result<(), CheckpointError> {
    config
        .validate_structure()
        .map_err(|e| corrupt(format!("invalid config: {e}")))
}

/// Bounds the one-shot cursor, which indexes the *compiled* stream
/// (generated events included; they re-expand deterministically).
/// Callers validate the timeline first.
fn check_cursor(
    timeline: &Timeline,
    seed: u64,
    n: usize,
    demands: &[u64],
    cursor: u64,
) -> Result<(), CheckpointError> {
    let compiled_events = timeline.compile(seed, n, demands).events.len();
    if cursor as usize > compiled_events {
        return Err(corrupt(format!(
            "timeline cursor {cursor} exceeds {compiled_events} compiled events"
        )));
    }
    Ok(())
}

/// Reads the runtime state of every trigger (v4+), one record per
/// trigger in timeline order; v7 appended each record's deficit history.
fn get_trigger_states(
    buf: &mut &[u8],
    version: u32,
    triggers: &[Trigger],
) -> Result<Vec<TriggerState>, CheckpointError> {
    let count = get_u64(buf)? as usize;
    if count != triggers.len() {
        return Err(corrupt(format!(
            "{count} trigger states for {} triggers",
            triggers.len()
        )));
    }
    let mut states = Vec::with_capacity(count);
    for (i, trigger) in triggers.iter().enumerate() {
        let firings = get_u64(buf)?;
        let firings = u32::try_from(firings)
            .map_err(|_| corrupt(format!("implausible firing count {firings}")))?;
        let last_fired = get_u64(buf)?;
        let pending = get_bool(buf)?;
        let streak_len = get_u64(buf)? as usize;
        if streak_len > 1 << 16 {
            return Err(corrupt("implausible streak count"));
        }
        let mut streaks = Vec::with_capacity(streak_len.min(1 << 10));
        for _ in 0..streak_len {
            streaks.push(get_u32(buf)?);
        }
        // Older captures cannot hold rate conditions, so the fresh-state
        // default (all unset) is exact.
        let prev_deficits = if version >= 7 {
            let prev_len = get_u64(buf)? as usize;
            if prev_len > 1 << 16 {
                return Err(corrupt("implausible prev-deficit count"));
            }
            let mut prevs = Vec::with_capacity(prev_len.min(1 << 10));
            for _ in 0..prev_len {
                prevs.push(get_i64(buf)?);
            }
            prevs
        } else {
            TriggerState::new(trigger).prev_deficits
        };
        let state = TriggerState {
            streaks,
            firings,
            last_fired,
            pending,
            prev_deficits,
        };
        if !state.matches(trigger) {
            return Err(corrupt(format!(
                "trigger state {i} disagrees with its condition shape"
            )));
        }
        states.push(state);
    }
    Ok(states)
}

fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

// ---- primitive codecs (readers length-checked) --------------------------

fn need(buf: &&[u8], n: usize) -> Result<(), CheckpointError> {
    if buf.remaining() < n {
        Err(corrupt(format!("truncated: need {n} more bytes")))
    } else {
        Ok(())
    }
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, CheckpointError> {
    need(buf, 2)?;
    Ok(buf.get_u16_le())
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

/// Writes a length-prefixed UTF-8 text section (v8's TOML documents).
fn put_text(out: &mut Vec<u8>, text: &str) {
    out.put_u64_le(text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

/// Reads a [`put_text`] section and parses it as TOML. Bad UTF-8 and
/// parse errors (the parser caps nesting, so hostile text cannot
/// overflow the stack) come back as [`CheckpointError::Corrupt`].
fn get_toml(buf: &mut &[u8]) -> Result<Value, CheckpointError> {
    let len = get_u64(buf)?;
    let len = usize::try_from(len)
        .ok()
        .filter(|&len| len <= buf.len())
        .ok_or_else(|| corrupt(format!("truncated: text section of {len} bytes")))?;
    let (text, rest) = buf.split_at(len);
    *buf = rest;
    let text = std::str::from_utf8(text)
        .map_err(|e| corrupt(format!("text section is not UTF-8: {e}")))?;
    toml::parse(text).map_err(|e| corrupt(format!("embedded TOML: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerSpec;
    use crate::observer::NullObserver;
    use antalloc_core::{
        AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
        ProportionalParams,
    };
    use antalloc_env::{ArenaConfig, Condition, DemandSchedule, Event, InitialConfig};
    use antalloc_noise::GreyZonePolicy;

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
        // Fuzz the decoder and the restore: flipping any single byte
        // must yield either a clean error or a checkpoint that restores
        // and steps — never a panic. (Length fields are validated
        // before allocation.) In v8 the first bytes are mostly TOML
        // text, so the flips also stride across the whole stream to
        // reach the binary tail: assignments, RNG states, mix
        // membership, scratch of every tag and arena columns.
        let mut obs = NullObserver;
        let mut plain = config().build();
        plain.run(4, &mut obs);
        let mut rich = out_of_spec_config().build();
        rich.run(14, &mut obs);
        let mut phased = scratch_mix_config().build();
        phased.run(8, &mut obs);
        let tags = Checkpoint::capture(&phased).unwrap().tail.scratch_count();
        assert!(tags > 60, "30 + 30 mid-phase ants plus streaks, got {tags}");
        for engine in [&plain, &rich, &phased] {
            let bytes = Checkpoint::capture(engine).unwrap().to_bytes();
            let mut decoded = 0;
            for i in (0..bytes.len()).filter(|&i| i < 512 || i % 7 == 0) {
                let mut mutated = bytes.clone();
                mutated[i] ^= 0x5A;
                if let Ok(cp) = Checkpoint::from_bytes(&mutated) {
                    let mut resumed = cp.restore();
                    resumed.run(2, &mut obs);
                    decoded += 1;
                }
            }
            assert!(decoded > 0, "some flips land in the per-ant state");
            // Random truncations likewise.
            for len in [0usize, 1, 7, 8, 9, bytes.len() / 2, bytes.len() - 1] {
                let _ = Checkpoint::from_bytes(&bytes[..len]);
            }
        }
    }

    /// A mix whose stream carries all three scratch tags: Precise
    /// Sigmoid and Precise Adversarial ants mid-phase at any round
    /// below 82, and (early on, while the colony settles) Proportional
    /// streaks.
    fn scratch_mix_config() -> SimConfig {
        SimConfig::builder(90, vec![20, 25])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Mix(vec![
                (
                    1.0,
                    ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
                ),
                (
                    1.0,
                    ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.05, 0.5)),
                ),
                (
                    1.0,
                    ControllerSpec::Proportional(ProportionalParams {
                        gain: 0.25,
                        deadband: 3,
                    }),
                ),
            ]))
            .seed(41)
            .build()
            .expect("valid scenario")
    }

    /// A config outside the parameter windows (Ant with γ > 1/16,
    /// Hysteresis watching two tasks) whose stream carries every tail
    /// section: mix membership, Proportional scratch, arena columns,
    /// and a rate trigger's state.
    fn out_of_spec_config() -> SimConfig {
        SimConfig::builder(300, vec![40, 60])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::new(0.125))),
                (
                    2.0,
                    ControllerSpec::Proportional(ProportionalParams {
                        gain: 0.25,
                        deadband: 2,
                    }),
                ),
                (
                    1.0,
                    ControllerSpec::Hysteresis {
                        depth: 1,
                        lazy: Some(0.5),
                    },
                ),
            ]))
            .seed(77)
            .arena(ArenaConfig {
                site_of_task: vec![0, 1],
                travel_rounds: 2,
                wander_probability: 0.05,
            })
            .trigger(Trigger {
                when: Condition::Or(
                    Box::new(Condition::DeficitRateAbove {
                        task: 0,
                        min_rise: 5,
                        for_rounds: 1,
                    }),
                    Box::new(Condition::RegretAbove {
                        threshold: 50,
                        for_rounds: 3,
                    }),
                ),
                event: Event::SetTaskDemand {
                    task: 1,
                    demand: 70,
                },
                cooldown: 10,
                max_firings: 0,
            })
            .out_of_spec_params()
            .build()
            .expect("structurally valid scenario")
    }

    #[test]
    fn out_of_spec_configs_roundtrip_through_v8() {
        // The v8 reader decodes the config syntactically: parameter
        // windows are not re-checked, so an out-of-spec engine captures,
        // decodes and continues exactly.
        let cfg = out_of_spec_config();
        assert!(cfg.validate().is_err(), "the config is out of spec");
        let mut obs = NullObserver;
        let mut full = cfg.build();
        full.run(14, &mut obs);
        let cp = Checkpoint::capture(&full).unwrap();
        assert!(cp.tail.scratch_count() > 0 && cp.tail.arena_columns().is_some());
        let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.config(), &cfg);
        let mut resumed = back.restore();
        full.run(60, &mut obs);
        resumed.run(60, &mut obs);
        assert_eq!(full.colony().assignments(), resumed.colony().assignments());
        assert_eq!(full.trigger_states(), resumed.trigger_states());
    }

    /// The v8 config section: a `u64` length at byte 24, then the text.
    fn config_section(bytes: &[u8]) -> std::ops::Range<usize> {
        let len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        32..32 + len
    }

    /// `bytes` with its config section replaced by `text`.
    fn with_config_text(bytes: &[u8], text: &[u8]) -> Vec<u8> {
        let section = config_section(bytes);
        let mut out = bytes[..24].to_vec();
        out.extend_from_slice(&(text.len() as u64).to_le_bytes());
        out.extend_from_slice(text);
        out.extend_from_slice(&bytes[section.end..]);
        out
    }

    #[test]
    fn v8_streams_embed_the_canonical_config_toml() {
        for cfg in [config(), out_of_spec_config()] {
            let mut e = cfg.build();
            e.run(2, &mut NullObserver);
            let bytes = Checkpoint::capture(&e).unwrap().to_bytes();
            assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 8);
            assert_eq!(&bytes[config_section(&bytes)], cfg.to_toml().as_bytes());
            // Re-embedding the same text is the identity.
            let text = cfg.to_toml();
            assert_eq!(with_config_text(&bytes, text.as_bytes()), bytes);
        }
    }

    #[test]
    fn malformed_config_text_is_corrupt() {
        let mut e = config().build();
        e.run(2, &mut NullObserver);
        let bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        let text = config().to_toml();
        let depth = 100_000;
        let deep = format!(
            "n = 10\ndemands = {}{}\n",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let mut not_utf8 = text.clone().into_bytes();
        not_utf8.insert(3, 0xFF);
        for (what, text, expect) in [
            // Runs on a test thread's small stack: the parser's nesting
            // cap, not luck, keeps this from overflowing.
            ("100 000 nested arrays", deep.into_bytes(), "nest deeper"),
            ("invalid UTF-8", not_utf8, "UTF-8"),
            ("a syntax error", b"n = = 3".to_vec(), "embedded TOML"),
            (
                "an unknown key",
                format!("bogus = 1\n{text}").into_bytes(),
                "unknown key",
            ),
            (
                "an empty colony",
                text.replacen("n = 200", "n = 0", 1).into_bytes(),
                "invalid config",
            ),
        ] {
            match Checkpoint::from_bytes(&with_config_text(&bytes, &text)) {
                Err(CheckpointError::Corrupt(msg)) => {
                    assert!(msg.contains(expect), "{what}: {msg}");
                }
                other => panic!("{what} must be corrupt, got {other:?}"),
            }
        }
        // A length prefix running past the stream is a truncation.
        let mut long = bytes.clone();
        long[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Checkpoint::from_bytes(&long).is_err());
    }

    #[test]
    fn crafted_current_demands_are_corrupt() {
        // `restore()` would panic building a demand vector with a zero
        // or a wrong task count; the decoder rejects both. The current
        // demands follow the config section: a count, then the values.
        let mut e = config().build(); // 2 tasks
        e.run(2, &mut NullObserver);
        let bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        let at = config_section(&bytes).end;
        assert_eq!(bytes[at..at + 8], 2u64.to_le_bytes());
        let mut zero = bytes.clone();
        zero[at + 8..at + 16].copy_from_slice(&0u64.to_le_bytes());
        let mut short = bytes[..at].to_vec();
        short.extend_from_slice(&1u64.to_le_bytes());
        short.extend_from_slice(&bytes[at + 16..]);
        for bad in [zero, short] {
            let err = Checkpoint::from_bytes(&bad).expect_err("must reject");
            assert!(err.to_string().contains("current demands"), "{err}");
        }
    }

    #[test]
    fn current_demands_beyond_i64_are_corrupt() {
        // Deficits are `d as i64 - load`: a demand above `i64::MAX`
        // would wrap (and overflow-panic in checked builds) on the first
        // round after `restore()`.
        let mut e = config().build();
        e.run(2, &mut NullObserver);
        let mut bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        let at = config_section(&bytes).end + 8;
        bytes[at..at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        let err = Checkpoint::from_bytes(&bytes).expect_err("must reject");
        assert!(err.to_string().contains("current demands"), "{err}");
    }

    #[test]
    fn scratch_for_non_sigmoid_colonies_is_rejected_not_panicked() {
        // A crafted v5 stream that claims Precise Sigmoid scratch for an
        // Ant colony must come back as a clean corrupt error — reaching
        // `restore()` would find no sigmoid bank to decode it into.
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
        assert!(super::legacy::get_condition(&mut slice, 0).is_err());
        // And a truncated tail still errors cleanly end-to-end.
        bytes.truncate(bytes.len() - 1);
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    /// Checkpoints do not carry table-FSM states yet, so a Hysteresis
    /// machine of depth > 1 caught mid-streak must refuse capture
    /// rather than restore into its reset state and diverge. At round 0
    /// every machine is in its reset state, so capture still works.
    #[test]
    fn mid_streak_table_states_refuse_capture() {
        let hysteresis = |depth| ControllerSpec::Hysteresis { depth, lazy: None };
        let specs = [
            hysteresis(3),
            ControllerSpec::Mix(vec![(1.0, ControllerSpec::Trivial), (1.0, hysteresis(2))]),
        ];
        for spec in specs {
            // Weak feedback keeps the signals noisy, so streaks break.
            let cfg = SimConfig::builder(200, vec![100])
                .noise(NoiseModel::Sigmoid { lambda: 0.05 })
                .controller(spec)
                .seed(3)
                .build()
                .expect("valid scenario");
            let mut engine = cfg.build();
            assert!(Checkpoint::capture(&engine).is_ok(), "round 0 captures");
            engine.run(8, &mut NullObserver);
            let err = Checkpoint::capture(&engine).unwrap_err();
            assert!(
                matches!(err, CheckpointError::TableStateNotCaptured { round: 8, .. }),
                "{err:?}"
            );
        }
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
