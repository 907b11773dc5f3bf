//! Frozen readers for checkpoint formats v2–v7.
//!
//! Before v8 a stream carried its config in a hand-written binary
//! encoding, one tag per enum variant. Those decoders live here,
//! unchanged, and are never extended: v8 embeds the config as its
//! canonical scenario TOML, so a new config feature lands in the
//! scenario codec alone. Only streams with `version < 8` reach this
//! module; the trigger states and the per-ant tail go through the
//! readers every version shares.

use antalloc_core::{
    AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
    ProportionalParams,
};
use antalloc_env::{
    ArenaConfig, Condition, Cycle, DemandSchedule, Event, GenShock, InitialConfig, TimedEvent,
    Timeline, TimelineGen, Trigger,
};
use antalloc_noise::{GreyZonePolicy, NoiseModel};
use bytes::Buf;

use super::{
    check_config, check_cursor, corrupt, get_bool, get_f64, get_i64, get_trigger_states, get_u32,
    get_u64, get_u64s, get_u8, need, CheckpointError, Head,
};
use crate::config::{ControllerSpec, SimConfig};

/// Reads a v2–v7 head: everything between the round counters and the
/// per-ant tail.
pub(super) fn read_head(
    buf: &mut &[u8],
    version: u32,
    round: u64,
) -> Result<Head, CheckpointError> {
    let seed = get_u64(buf)?;
    let n = get_u64(buf)? as usize;
    let demands = get_u64s(buf)?;
    let current_demands = get_u64s(buf)?;
    let noise = get_noise(buf)?;
    let current_noise = if version >= 3 {
        get_noise(buf)?
    } else {
        noise.clone()
    };
    let controller = get_spec(buf)?;
    let (timeline, cursor) = if version >= 3 {
        let timeline = get_timeline(buf, version)?;
        let cursor = get_u64(buf)?;
        // Reject structurally invalid timelines *before* compiling:
        // any captured config passed build-time validation, so a
        // failure here means crafted or corrupted bytes — and a
        // crafted generator section (start = 0, absurd windows)
        // must never drive the expansion loop.
        timeline
            .validate(demands.len(), n)
            .and_then(|()| timeline.validate_triggers(demands.len()))
            .map_err(|e| corrupt(format!("invalid timeline: {e}")))?;
        check_cursor(&timeline, seed, n, &demands, cursor)?;
        (timeline, cursor)
    } else {
        // v2 stored a demand schedule; compile it to the equivalent
        // timeline and recompute the cursor from the round (both
        // fire at identical rounds, so the continuation is exact).
        let timeline: Timeline = get_schedule(buf)?.into();
        let cursor = timeline.cursor_at(round) as u64;
        (timeline, cursor)
    };
    let trigger_states = if version >= 4 {
        get_trigger_states(buf, version, &timeline.triggers)?
    } else {
        // Pre-v4 formats cannot encode triggers, so there is no
        // state to restore.
        Vec::new()
    };
    let initial = get_initial(buf)?;
    // v7: the spatial arena (None before v7 — the mode predates it).
    let arena = if version >= 7 && get_bool(buf)? {
        let len = get_u64(buf)? as usize;
        if len != demands.len() {
            return Err(corrupt(format!(
                "arena pins {len} tasks but the scenario has {}",
                demands.len()
            )));
        }
        let mut site_of_task = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            site_of_task.push(get_u32(buf)?);
        }
        let arena = ArenaConfig {
            site_of_task,
            travel_rounds: get_u32(buf)?,
            wander_probability: get_f64(buf)?,
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
    let config = SimConfig {
        n,
        demands,
        noise,
        controller,
        seed,
        timeline,
        initial,
        arena,
    };
    check_config(&config)?;
    Ok(Head {
        config,
        current_demands,
        current_noise,
        cursor,
        trigger_states,
    })
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

/// `depth` guards the recursion: a crafted byte stream of nested
/// `And` tags must error out, not blow the stack.
pub(super) fn get_condition(buf: &mut &[u8], depth: u32) -> Result<Condition, CheckpointError> {
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
