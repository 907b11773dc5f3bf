//! The per-ant tail of a checkpoint, held flat.
//!
//! Everything a stream carries after the trigger states is per-ant
//! state, and a [`Checkpoint`](super::Checkpoint) keeps it as the exact
//! v8 tail bytes:
//!
//! | Section | Bytes |
//! |---|---|
//! | ant count `n` | `u64` |
//! | assignments (idle = `u32::MAX`) | `4n` |
//! | RNG states, global ant order | `32n` |
//! | mix membership (iff the spec is a mix) | `u64` length `n`, then `2n` |
//! | scratch count, then entries in ascending ant order | `u64`, then variable |
//! | arena sites, then travel (iff the config has an arena) | `4n` + `4n` |
//!
//! A capture writes these bytes straight from the engine's columns, so
//! `to_bytes` is a copy; a decode validates them in one pass and keeps
//! them (rewriting v2–v7 tails into this layout); a restore reads them
//! straight into the colony column, the banks and the arena. No call
//! builds a per-ant object.
//!
//! The bytes are held in two runs: the RNG section, and everything
//! else. A million-ant colony's tail is ~36 MB, above the size from
//! which glibc's allocator maps fresh pages for every allocation (and
//! faults each one in on first write); its RNG section alone is 32 MB,
//! and the rest 4 MB, so both runs are served from already-faulted heap
//! memory on every resume after the first.
//!
//! Scratch entries: the ant id (`u32`) and a kind tag (`u8`), then
//! * tag 0, Precise Sigmoid: `currentTask` (`u32`), the phase-observed
//!   flag (`u8`), `k` first-half and `k` second-half counts (`u16`),
//!   `k` frozen median bytes;
//! * tag 1, Precise Adversarial: `currentTask` (`u32`), the
//!   phase-observed, unanimous-overload, frozen-behaviour and
//!   pending-first-lack flags (`u8` each), the first-lack tri-state
//!   (`0` = unseen, `1` = paused, `2` = working), `k` unanimous-lack
//!   bytes;
//! * tag 2, Proportional: the deadband streak (`u16`), present only
//!   when non-zero.
//!
//! Flag bytes are held canonical (0 or 1): the capture writes them so
//! and the decoder normalises any non-zero byte to 1, as the decoders
//! before it did.

use antalloc_core::{AdversarialRow, ControllerBank, SigmoidRow};
use antalloc_env::Assignment;
use antalloc_rng::AntRng;
use bytes::BufMut;

use super::{corrupt, get_bool, get_u16, get_u32, get_u64, get_u8, CheckpointError};
use crate::config::{ControllerSpec, SimConfig};
use crate::engine::EngineState;
use crate::population::Population;

const SIGMOID: u8 = 0;
const ADVERSARIAL: u8 = 1;
const PROPORTIONAL: u8 = 2;

/// Bytes per ant in the assignment and RNG sections.
const PER_ANT: usize = 4 + 32;

/// The exact v8 tail bytes plus the shape facts that locate each
/// section in them.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Tail {
    /// Every section but the RNG states: the count and assignments,
    /// then (from offset `8 + 4n`) membership, scratch and arena.
    bytes: Vec<u8>,
    /// The RNG section, `32n` bytes.
    rngs: Vec<u8>,
    ants: usize,
    mixed: bool,
    arena: bool,
}

impl core::fmt::Debug for Tail {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tail")
            .field("bytes", &(self.bytes.len() + self.rngs.len()))
            .field("ants", &self.ants)
            .field("mixed", &self.mixed)
            .field("arena", &self.arena)
            .finish()
    }
}

impl Tail {
    /// Writes the tail straight from the engine's columns.
    pub(super) fn capture(state: &EngineState<'_>) -> Self {
        let colony = state.colony;
        let population = state.population;
        let ants = colony.num_ants();
        let mixed = matches!(state.config.controller, ControllerSpec::Mix(_));
        let arena = state.arena.as_deref();
        let mut out = Vec::with_capacity(
            16 + 4 * ants
                + if mixed { 8 + 2 * ants } else { 0 }
                + if arena.is_some() { 8 * ants } else { 0 },
        );
        out.put_u64_le(ants as u64);
        let column = colony.task_column();
        for i in 0..ants as u32 {
            out.put_u32_le(column.load(i));
        }
        let mut rngs = Vec::with_capacity(32 * ants);
        for (_, bank, slot) in population.slots() {
            for w in bank.rngs[slot].state() {
                rngs.put_u64_le(w);
            }
        }
        if mixed {
            out.put_u64_le(ants as u64);
            for (b, _, _) in population.slots() {
                out.put_u16_le(b);
            }
        }
        let count_at = out.len();
        out.put_u64_le(0);
        let mut count = 0u64;
        if population
            .banks()
            .iter()
            .any(|b| carries_scratch(&b.controllers))
        {
            for (i, (_, bank, slot)) in population.slots().enumerate() {
                count += u64::from(put_scratch(&mut out, i as u32, &bank.controllers, slot));
            }
        }
        out[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
        if let Some(arena) = arena {
            for &site in arena.site() {
                out.put_u32_le(site);
            }
            for &travel in arena.travel() {
                out.put_u32_le(travel);
            }
        }
        Self {
            bytes: out,
            rngs,
            ants,
            mixed,
            arena: arena.is_some(),
        }
    }

    /// Reads and validates the tail of a `version` stream whose head
    /// decoded to `config`, with every check that keeps a crafted
    /// stream from panicking in a restore, and rewrites it into the v8
    /// layout (v2–v4 streams gain an empty scratch section).
    pub(super) fn read(
        buf: &mut &[u8],
        version: u32,
        config: &SimConfig,
    ) -> Result<Self, CheckpointError> {
        let k = config.demands.len();
        let controller = &config.controller;
        let ants = get_u64(buf)? as usize;
        // Validate the claimed count against the bytes actually present
        // before any per-ant work.
        if buf.len() / PER_ANT < ants {
            return Err(corrupt(format!(
                "ant count {ants} exceeds remaining payload"
            )));
        }
        let mut out = Vec::with_capacity(16 + buf.len() - 32 * ants);
        out.put_u64_le(ants as u64);
        let assignments = take(buf, 4 * ants)?;
        for (i, raw) in assignments.chunks_exact(4).map(le_u32).enumerate() {
            if raw != Assignment::RAW_IDLE && raw as usize >= k {
                // Crafted bytes must fail here, not panic in `restore()`.
                return Err(corrupt(format!(
                    "ant {i} is assigned to task {raw} but the scenario has {k} tasks"
                )));
            }
        }
        out.extend_from_slice(assignments);
        let rngs = take(buf, 32 * ants)?.to_vec();
        let members = if let ControllerSpec::Mix(parts) = controller {
            let len = get_u64(buf)? as usize;
            if len != ants {
                return Err(corrupt(format!(
                    "membership length {len} disagrees with ant count {ants}"
                )));
            }
            let members = take(buf, 2 * len)?;
            if let Some(m) = members
                .chunks_exact(2)
                .map(le_u16)
                .find(|&m| usize::from(m) >= parts.len())
            {
                return Err(corrupt(format!(
                    "membership {m} references unknown sub-spec"
                )));
            }
            out.put_u64_le(len as u64);
            out.extend_from_slice(members);
            members
        } else {
            &[]
        };
        if version >= 5 {
            // The spec each ant runs: crafted scratch for an ant of
            // another kind must fail here, not panic in `restore()`.
            let spec_of = |ant: usize| match controller {
                ControllerSpec::Mix(parts) => {
                    &parts[usize::from(le_u16(&members[2 * ant..2 * ant + 2]))].1
                }
                spec => spec,
            };
            read_scratch(buf, k, ants, spec_of, &mut out)?;
        } else {
            // Pre-v5 captures were phase-boundary-only: no mid-phase
            // state existed to serialize.
            out.put_u64_le(0);
        }
        // v7: the per-ant arena columns close the stream (present iff
        // the config carries an arena, which pre-v7 configs never do).
        if let Some(cfg) = &config.arena {
            let num_sites = cfg.num_sites() as u32;
            let sites = take(buf, 4 * ants)?;
            if let Some(s) = sites.chunks_exact(4).map(le_u32).find(|&s| s >= num_sites) {
                return Err(corrupt(format!(
                    "arena site {s} out of range (the arena has {num_sites} sites)"
                )));
            }
            let travel = take(buf, 4 * ants)?;
            let limit = cfg.travel_rounds;
            if let Some(t) = travel.chunks_exact(4).map(le_u32).find(|&t| t > limit) {
                return Err(corrupt(format!(
                    "arena travel {t} exceeds the travel latency {limit}"
                )));
            }
            out.extend_from_slice(sites);
            out.extend_from_slice(travel);
        }
        Ok(Self {
            bytes: out,
            rngs,
            ants,
            mixed: matches!(controller, ControllerSpec::Mix(_)),
            arena: config.arena.is_some(),
        })
    }

    /// Appends the tail as it goes on the wire.
    pub(super) fn write(&self, out: &mut Vec<u8>) {
        let (head, rest) = self.bytes.split_at(8 + 4 * self.ants);
        out.extend_from_slice(head);
        out.extend_from_slice(&self.rngs);
        out.extend_from_slice(rest);
    }

    /// The tail's length on the wire.
    pub(super) fn len(&self) -> usize {
        self.bytes.len() + self.rngs.len()
    }

    /// Where the scratch section (its count) starts in `bytes`.
    fn scratch_at(&self) -> usize {
        8 + 4 * self.ants + if self.mixed { 8 + 2 * self.ants } else { 0 }
    }

    /// The number of scratch entries.
    pub(super) fn scratch_count(&self) -> u64 {
        let at = self.scratch_at();
        u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("8 bytes"))
    }

    /// Every ant's raw assignment, in global ant order.
    pub(crate) fn assignments(&self) -> impl Iterator<Item = u32> + '_ {
        self.bytes[8..8 + 4 * self.ants].chunks_exact(4).map(le_u32)
    }

    /// Ant `i`'s captured RNG stream.
    pub(crate) fn rng(&self, i: u32) -> AntRng {
        let at = 32 * i as usize;
        let word = |w: usize| {
            u64::from_le_bytes(
                self.rngs[at + 8 * w..at + 8 * w + 8]
                    .try_into()
                    .expect("8 bytes"),
            )
        };
        AntRng::from_state([word(0), word(1), word(2), word(3)])
    }

    /// Every ant's mix membership, in global ant order (empty unless the
    /// spec is a mix).
    pub(crate) fn members(&self) -> impl Iterator<Item = u16> + Clone + '_ {
        let at = 8 + 4 * self.ants + 8;
        let members = if self.mixed {
            &self.bytes[at..at + 2 * self.ants]
        } else {
            &[]
        };
        members.chunks_exact(2).map(le_u16)
    }

    /// The arena site and travel columns, in global ant order (`None`
    /// unless the captured config has an arena).
    #[allow(clippy::type_complexity)] // two borrowed column iterators
    pub(crate) fn arena_columns(
        &self,
    ) -> Option<(
        impl Iterator<Item = u32> + '_,
        impl Iterator<Item = u32> + '_,
    )> {
        self.arena.then(|| {
            let (sites, travel) =
                self.bytes[self.bytes.len() - 8 * self.ants..].split_at(4 * self.ants);
            (
                sites.chunks_exact(4).map(le_u32),
                travel.chunks_exact(4).map(le_u32),
            )
        })
    }

    /// Decodes every scratch entry straight into its ant's bank
    /// columns (apply after [`Population::reset_to_colony`]). The rows
    /// borrow the tail or three `k`-wide buffers shared by every entry,
    /// so no entry allocates.
    pub(crate) fn restore_scratch(&self, k: usize, population: &mut Population) {
        let count = self.scratch_count();
        let mut at = self.scratch_at() + 8;
        let mut count1 = vec![0u16; k];
        let mut count2 = vec![0u16; k];
        let mut all_lack = vec![false; k];
        let bytes = &self.bytes[..];
        for _ in 0..count {
            let ant = le_u32(&bytes[at..at + 4]) as usize;
            let tag = bytes[at + 4];
            at += 5;
            let (bank, slot) = population.slot_mut(ant);
            match (tag, bank) {
                (SIGMOID, ControllerBank::PreciseSigmoid(b)) => {
                    let current_task = Assignment::from_raw(le_u32(&bytes[at..at + 4]));
                    let have_phase = bytes[at + 4] == 1;
                    at += 5;
                    for c in count1.iter_mut().chain(count2.iter_mut()) {
                        *c = le_u16(&bytes[at..at + 2]);
                        at += 2;
                    }
                    let shat1_lack = &bytes[at..at + k];
                    at += k;
                    b.set_row(
                        slot,
                        SigmoidRow {
                            current_task,
                            have_phase,
                            count1: &count1,
                            count2: &count2,
                            shat1_lack,
                        },
                    );
                }
                (ADVERSARIAL, ControllerBank::PreciseAdversarial(b)) => {
                    let flags = &bytes[at + 4..at + 9];
                    for (l, &byte) in all_lack.iter_mut().zip(&bytes[at + 9..at + 9 + k]) {
                        *l = byte == 1;
                    }
                    b.set_row(
                        slot,
                        AdversarialRow {
                            current_task: Assignment::from_raw(le_u32(&bytes[at..at + 4])),
                            have_phase: flags[0] == 1,
                            all_overload: flags[1] == 1,
                            frozen_working: flags[2] == 1,
                            pending_first_lack: flags[3] == 1,
                            working_at_first_lack: match flags[4] {
                                0 => None,
                                t => Some(t == 2),
                            },
                            all_lack: &all_lack,
                        },
                    );
                    at += 9 + k;
                }
                (PROPORTIONAL, ControllerBank::Proportional(b)) => {
                    b.set_streak(slot, le_u16(&bytes[at..at + 2]));
                    at += 2;
                }
                // `Tail::read` and `Tail::capture` pair every tag with
                // its ant's kind.
                _ => unreachable!("scratch tag {tag} does not match ant {ant}'s bank"),
            }
        }
    }
}

/// Whether `bank`'s kind can carry mid-phase state.
fn carries_scratch(bank: &ControllerBank) -> bool {
    matches!(
        bank,
        ControllerBank::PreciseSigmoid(_)
            | ControllerBank::PreciseAdversarial(_)
            | ControllerBank::Proportional(_)
    )
}

/// Writes the scratch entry of the ant at `slot` of `bank` (global id
/// `ant`), if its kind carries mid-phase state; returns whether it did.
fn put_scratch(out: &mut Vec<u8>, ant: u32, bank: &ControllerBank, slot: usize) -> bool {
    match bank {
        ControllerBank::PreciseSigmoid(b) => {
            let row = b.row(slot);
            out.put_u32_le(ant);
            out.put_u8(SIGMOID);
            out.put_u32_le(row.current_task.to_raw());
            out.put_u8(u8::from(row.have_phase));
            for &c in row.count1.iter().chain(row.count2) {
                out.put_u16_le(c);
            }
            out.extend_from_slice(row.shat1_lack);
        }
        ControllerBank::PreciseAdversarial(b) => {
            let row = b.row(slot);
            out.put_u32_le(ant);
            out.put_u8(ADVERSARIAL);
            out.put_u32_le(row.current_task.to_raw());
            out.put_u8(u8::from(row.have_phase));
            out.put_u8(u8::from(row.all_overload));
            out.put_u8(u8::from(row.frozen_working));
            out.put_u8(u8::from(row.pending_first_lack));
            out.put_u8(match row.working_at_first_lack {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
            out.extend(row.all_lack.iter().map(|&l| u8::from(l)));
        }
        // Zero streaks are the reset state; omitting them keeps
        // checkpoints of settled colonies scratch-free.
        ControllerBank::Proportional(b) => match b.streak(slot) {
            0 => return false,
            streak => {
                out.put_u32_le(ant);
                out.put_u8(PROPORTIONAL);
                out.put_u16_le(streak);
            }
        },
        _ => return false,
    }
    true
}

/// Validates a v5+ scratch section and appends it to `out` with every
/// flag byte canonical. `spec_of(i)` is the spec ant `i` runs (its
/// membership is already validated).
fn read_scratch<'a>(
    buf: &mut &[u8],
    k: usize,
    ants: usize,
    spec_of: impl Fn(usize) -> &'a ControllerSpec,
    out: &mut Vec<u8>,
) -> Result<(), CheckpointError> {
    let count = get_u64(buf)? as usize;
    // Minimum per-entry size across the scratch kinds: Precise
    // Sigmoid is ant id + tag + currentTask + have_phase + two u16
    // counter rows + one median-bit row (10 + 5k); Precise Adversarial
    // is ant id + tag + currentTask + five flag bytes + one lack-bit
    // row (14 + k); Proportional is ant id + tag + streak (7). Validate
    // the claimed count against the bytes present before any work.
    let per_entry = (4 + 1 + 4 + 1 + k * 5)
        .min(4 + 1 + 4 + 5 + k)
        .min(4 + 1 + 2);
    if count > ants || buf.len() / per_entry < count {
        return Err(corrupt(format!(
            "scratch count {count} exceeds payload or ant count {ants}"
        )));
    }
    out.put_u64_le(count as u64);
    let mut prev = None;
    for _ in 0..count {
        let ant = get_u32(buf)?;
        if ant as usize >= ants {
            return Err(corrupt(format!("scratch ant {ant} out of range")));
        }
        if prev.is_some_and(|prev| ant <= prev) {
            return Err(corrupt("scratch entries out of order"));
        }
        prev = Some(ant);
        let spec = spec_of(ant as usize);
        let tag = get_u8(buf)?;
        out.put_u32_le(ant);
        out.put_u8(tag);
        match tag {
            SIGMOID => {
                // The phase half-length m bounds the counters.
                let ControllerSpec::PreciseSigmoid(p) = spec else {
                    return Err(corrupt(format!(
                        "scratch for ant {ant}, which runs no Precise Sigmoid"
                    )));
                };
                let m = p.m();
                out.put_u32_le(get_scratch_task(buf, k)?);
                out.put_u8(u8::from(get_bool(buf)?));
                for _ in 0..2 * k {
                    let c = get_u16(buf)?;
                    if u64::from(c) > m {
                        return Err(corrupt(format!(
                            "scratch counter {c} exceeds half-phase length {m}"
                        )));
                    }
                    out.put_u16_le(c);
                }
                put_flags(buf, k, out)?;
            }
            ADVERSARIAL => {
                if !matches!(spec, ControllerSpec::PreciseAdversarial(_)) {
                    return Err(corrupt(format!(
                        "scratch for ant {ant}, which runs no Precise Adversarial"
                    )));
                }
                out.put_u32_le(get_scratch_task(buf, k)?);
                put_flags(buf, 4, out)?;
                match get_u8(buf)? {
                    t @ 0..=2 => out.put_u8(t),
                    t => return Err(corrupt(format!("unknown first-lack tri-state {t}"))),
                }
                put_flags(buf, k, out)?;
            }
            PROPORTIONAL => {
                if !matches!(spec, ControllerSpec::Proportional(_)) {
                    return Err(corrupt(format!(
                        "scratch for ant {ant}, which runs no Proportional controller"
                    )));
                }
                out.put_u16_le(get_u16(buf)?);
            }
            t => return Err(corrupt(format!("unknown scratch tag {t}"))),
        }
    }
    Ok(())
}

/// Copies `len` flag bytes, normalising each to 0 or 1.
fn put_flags(buf: &mut &[u8], len: usize, out: &mut Vec<u8>) -> Result<(), CheckpointError> {
    out.extend(take(buf, len)?.iter().map(|&b| u8::from(b != 0)));
    Ok(())
}

/// A scratch entry's raw `currentTask`: idle or a task index below `k`.
fn get_scratch_task(buf: &mut &[u8], k: usize) -> Result<u32, CheckpointError> {
    let raw = get_u32(buf)?;
    if raw == Assignment::RAW_IDLE || (raw as usize) < k {
        Ok(raw)
    } else {
        Err(corrupt(format!("scratch task {raw} out of range")))
    }
}

/// Splits the next `len` bytes off `buf`.
fn take<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], CheckpointError> {
    if buf.len() < len {
        return Err(corrupt(format!("truncated: need {len} more bytes")));
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}
