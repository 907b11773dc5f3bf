//! Observers the benchmark runs colonies under.
//!
//! [`Tally`] sums what the end-to-end numbers and the correctness
//! digest need. [`Traced`] additionally times `BasicObserver::on_round`
//! (the metrics layer), stamps every round, and mirrors the timeline
//! from outside — which rounds fire events, when triggers arm, and so
//! where `run_parallel` must end a pooled segment — using only the
//! public `Timeline`/`Trigger` API.

use std::time::Instant;

use antalloc_env::{ColonyView, Timeline, TriggerState};
use antalloc_sim::{BasicObserver, Observer, RoundRecord, SimConfig};

/// Below this many ants per worker `run_parallel` steps serially; the
/// engine's own threshold, restated here to count pooled segments.
const MIN_ANTS_PER_WORKER: u64 = 8_000;

/// Running sums over the rounds observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub rounds: u64,
    /// Σ over rounds of the population that stepped.
    pub ant_rounds: u64,
    pub switches: u64,
    pub total_regret: u128,
    pub last_loads: Vec<u32>,
}

impl Observer for Tally {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        self.rounds += 1;
        self.ant_rounds += population(record);
        self.switches += record.switches;
        self.total_regret += u128::from(record.instant_regret());
        self.last_loads.clear();
        self.last_loads.extend_from_slice(record.loads);
    }
}

fn population(record: &RoundRecord<'_>) -> u64 {
    record.loads.iter().map(|&w| u64::from(w)).sum::<u64>() + record.idle
}

/// The observer every timed colony run uses: the paper's measurement
/// bundle plus the tally.
pub fn basic(cfg: &SimConfig) -> BasicObserver {
    let gamma = match &cfg.controller {
        antalloc_sim::ControllerSpec::Ant(p) => p.gamma,
        _ => crate::workloads::GAMMA,
    };
    BasicObserver::new(gamma, 2.5, 0)
}

/// Counts that must repeat exactly between runs of one seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub segments: u64,
    pub events_fired: u64,
    pub trigger_firings: u64,
}

/// The traced observer: tally, timed metrics layer, round stamps and
/// the timeline mirror.
pub struct Traced {
    basic: BasicObserver,
    pub tally: Tally,
    pub counts: Counts,
    /// `BasicObserver::on_round` call times, ns.
    pub on_round_ns: Vec<f64>,
    /// Gap since the previous round (or call start) per round, µs,
    /// split by whether the round fired an event.
    pub quiet_round_us: Vec<f64>,
    pub event_round_us: Vec<f64>,
    timeline: Timeline,
    states: Vec<TriggerState>,
    threads: usize,
    last: Instant,
    in_segment: bool,
}

impl Traced {
    pub fn new(cfg: &SimConfig, threads: usize) -> Self {
        let timeline = cfg.timeline.compile(cfg.seed, cfg.n, &cfg.demands);
        let states = timeline.initial_trigger_states();
        Self {
            basic: basic(cfg),
            tally: Tally::default(),
            counts: Counts::default(),
            on_round_ns: Vec::new(),
            quiet_round_us: Vec::new(),
            event_round_us: Vec::new(),
            timeline,
            states,
            threads,
            last: Instant::now(),
            in_segment: false,
        }
    }

    /// Marks the start of a `run_parallel` call: segments never span
    /// calls, and the first gap is measured from here.
    pub fn begin_call(&mut self) {
        self.in_segment = false;
        self.last = Instant::now();
    }

    /// Trigger firings the mirror saw, per trigger.
    pub fn firings(&self) -> Vec<u32> {
        self.states.iter().map(|s| s.firings).collect()
    }

    /// Events firing at `round`: one-shots, cycles, and triggers armed
    /// at the end of the previous round (fired here, as the engine does
    /// at the start of the round).
    fn fire(&mut self, round: u64) -> u64 {
        let mut fired = self
            .timeline
            .events
            .iter()
            .filter(|e| e.at == round)
            .count() as u64;
        fired += self
            .timeline
            .cycles
            .iter()
            .filter(|c| c.fires_at(round))
            .count() as u64;
        for (trigger, state) in self.timeline.triggers.iter().zip(&mut self.states) {
            if state.pending {
                trigger.fire(state, round);
                self.counts.trigger_firings += 1;
                fired += 1;
            }
        }
        fired
    }
}

impl Observer for Traced {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        let now = Instant::now();
        let gap_us = now.duration_since(self.last).as_secs_f64() * 1e6;
        let fired = self.fire(record.round);
        self.counts.events_fired += fired;
        let pop = population(record);
        if fired > 0 {
            self.event_round_us.push(gap_us);
            self.in_segment = false;
        } else {
            self.quiet_round_us.push(gap_us);
            let pooled = self.threads >= 2 && pop / MIN_ANTS_PER_WORKER >= 2;
            if pooled && !self.in_segment {
                self.counts.segments += 1;
                self.in_segment = true;
            }
        }
        let t = Instant::now();
        self.basic.on_round(record);
        self.on_round_ns.push(t.elapsed().as_nanos() as f64);
        self.tally.on_round(record);
        if !self.timeline.triggers.is_empty() {
            let view = ColonyView {
                round: record.round,
                regret: record.instant_regret(),
                population: pop as usize,
                idle: record.idle,
                deficits: record.deficits,
            };
            let mut armed = false;
            for (trigger, state) in self.timeline.triggers.iter().zip(&mut self.states) {
                armed |= trigger.observe(state, &view);
            }
            // An armed trigger ends the pooled segment after this round.
            if armed {
                self.in_segment = false;
            }
        }
        self.last = Instant::now();
    }
}
