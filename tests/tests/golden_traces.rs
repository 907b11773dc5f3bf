//! Cross-commit bit-identity: each scenario's whole trajectory is
//! pinned to one SHA-256.
//!
//! The other determinism tests compare two stepping paths of the same
//! build, so a change that moves every path the same way passes them.
//! These digests were computed once and are checked under every
//! stepping path (`run`, a `step` loop, and the pooled segment forced at
//! 2 and 4 threads). A digest changes only if a trajectory changes, and
//! a trajectory change breaks the v2–v7 checkpoint fixtures and every
//! stored sweep result, so a failure here is a bug, not a constant to
//! refresh.
//!
//! The digest covers every round's `(round, regret, switches, idle,
//! loads)` followed by the final assignments and trigger states.

use antalloc_core::{AntParams, ExactGreedyParams, PreciseSigmoidParams};
use antalloc_env::{ArenaConfig, Condition, Event, InitialConfig, Timeline, Trigger};
use antalloc_noise::NoiseModel;
use antalloc_sim::{ControllerSpec, FnObserver, NullObserver, RoundRecord, SimConfig};
use antalloc_store::Sha256;

/// How a run is stepped.
#[derive(Clone, Copy, Debug)]
enum Path {
    Run,
    StepLoop,
    Pooled(usize),
}

const PATHS: [Path; 4] = [Path::Run, Path::StepLoop, Path::Pooled(2), Path::Pooled(4)];

fn digest(cfg: &SimConfig, rounds: u64, path: Path) -> String {
    let mut hasher = Sha256::new();
    let mut engine = cfg.build();
    {
        let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
            hasher.update(&r.round.to_le_bytes());
            hasher.update(&r.instant_regret().to_le_bytes());
            hasher.update(&r.switches.to_le_bytes());
            hasher.update(&r.idle.to_le_bytes());
            for &w in r.loads {
                hasher.update(&w.to_le_bytes());
            }
        });
        match path {
            Path::Run => engine.run(rounds, &mut obs),
            Path::StepLoop => (0..rounds).for_each(|_| engine.step(&mut obs)),
            Path::Pooled(threads) => engine.run_parallel_forced(rounds, threads, &mut obs),
        }
    }
    assert_eq!(engine.round(), rounds);
    for a in engine.colony().assignments() {
        hasher.update(&a.to_raw().to_le_bytes());
    }
    for s in engine.trigger_states() {
        for &streak in &s.streaks {
            hasher.update(&streak.to_le_bytes());
        }
        for &prev in &s.prev_deficits {
            hasher.update(&prev.to_le_bytes());
        }
        hasher.update(&s.firings.to_le_bytes());
        hasher.update(&s.last_fired.to_le_bytes());
        hasher.update(&[u8::from(s.pending)]);
    }
    hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn check(cfg: &SimConfig, rounds: u64, pinned: &str) {
    for path in PATHS {
        assert_eq!(digest(cfg, rounds, path), pinned, "{path:?}");
    }
}

#[test]
fn well_mixed_ant_trajectory_is_pinned() {
    let cfg = SimConfig::builder(2_000, vec![300, 450, 250])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(1)
        .build()
        .expect("valid scenario");
    check(
        &cfg,
        150,
        "2835b9acabf15185c596fdcd9b739876c502a4e165f2b1bfccea1da50a924f6f",
    );
}

#[test]
fn mixed_kinds_with_events_and_a_repeating_trigger_are_pinned() {
    let timeline = Timeline::new()
        .at(12, Event::Kill { count: 200 })
        .at(25, Event::SetDemands(vec![260, 200, 180]))
        .at(40, Event::Spawn { count: 300 })
        .at(
            41,
            Event::SetTaskDemand {
                task: 0,
                demand: 320,
            },
        )
        .trigger(Trigger {
            when: Condition::RegretBelow {
                threshold: 400,
                for_rounds: 5,
            },
            event: Event::Kill { count: 40 },
            cooldown: 20,
            max_firings: 0,
        });
    let cfg = SimConfig::builder(1_200, vec![200, 250, 150])
        .noise(NoiseModel::Sigmoid { lambda: 1.5 })
        .controller(ControllerSpec::Mix(vec![
            (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
            (
                1.0,
                ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
            ),
            (1.0, ControllerSpec::Trivial),
            (
                1.0,
                ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
            ),
        ]))
        .seed(2)
        .timeline(timeline)
        .build()
        .expect("valid scenario");
    // The trigger really repeats (otherwise its state is not pinned).
    let mut engine = cfg.build();
    engine.run(160, &mut NullObserver);
    assert!(
        engine.trigger_states()[0].firings >= 2,
        "trigger fired < 2×"
    );
    check(
        &cfg,
        160,
        "81a15b5b7f100d87cd3001b2f90416945b983108c965b03a6d1c7cd75b474f62",
    );
}

#[test]
fn three_site_arena_under_shocks_is_pinned() {
    let timeline = Timeline::new()
        .at(9, Event::Kill { count: 150 })
        .at(
            20,
            Event::SetTaskDemand {
                task: 2,
                demand: 200,
            },
        )
        .at(33, Event::Scramble)
        .at(47, Event::Spawn { count: 120 });
    let cfg = SimConfig::builder(900, vec![150, 120, 100])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(3)
        .initial(InitialConfig::AllIdle)
        .arena(ArenaConfig {
            site_of_task: vec![0, 1, 2],
            travel_rounds: 2,
            wander_probability: 0.1,
        })
        .timeline(timeline)
        .build()
        .expect("valid scenario");
    check(
        &cfg,
        120,
        "3767dd4a0a6d284baae198ef8ed1f3cc0a7ef02f3af17b4bb1ca391efe5037b7",
    );
}

#[test]
fn two_site_instant_wander_with_adjacent_shocks_is_pinned() {
    // Every idle ant wanders every round and arrives at once, and the
    // shocks land on adjacent rounds, so each of those rounds opens a
    // one-round segment whose positions changed outside the wander pass.
    // The soft sigmoid and near-balanced demands keep feedback random,
    // so an ant sensing a stale row consumes different draws.
    let timeline = Timeline::new()
        .at(10, Event::Kill { count: 120 })
        .at(11, Event::Spawn { count: 150 })
        .at(12, Event::Scramble)
        .at(13, Event::StampedeTo(1))
        .at(14, Event::Kill { count: 60 })
        .at(30, Event::Spawn { count: 40 })
        .at(31, Event::Scramble);
    let cfg = SimConfig::builder(700, vec![250, 200, 220])
        .noise(NoiseModel::Sigmoid { lambda: 0.05 })
        .controller(ControllerSpec::Mix(vec![
            (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
            (
                1.0,
                ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
            ),
        ]))
        .seed(4)
        .arena(ArenaConfig {
            site_of_task: vec![0, 1, 1],
            travel_rounds: 0,
            wander_probability: 1.0,
        })
        .timeline(timeline)
        .build()
        .expect("valid scenario");
    check(
        &cfg,
        60,
        "dfa3d923c81f6e213b31f429466be94f99b09eccdcff7e68d889918cef388787",
    );
}
