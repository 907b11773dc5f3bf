//! Layer probes: each times calls into one layer's public functions,
//! recording a span per call, and returns the samples the per-layer
//! metrics summarise.

use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use antalloc_env::ColonyView;
use antalloc_rng::StreamSeeder;
use antalloc_sim::{Checkpoint, ControllerSpec, SimConfig, SyncEngine};
use antalloc_store::{CheckpointStore, EntryKind, FingerprintBuilder, Sha256, StoreBackend};

use crate::replica::Replica;
use crate::trace::Tracer;

/// Span parent meaning "no enclosing span".
const NO_PARENT: u32 = u32::MAX;

/// A store backend that records a span per blob read or publish and
/// counts the bytes it publishes.
pub struct TimedBackend {
    inner: Box<dyn StoreBackend>,
    tracer: Arc<Tracer>,
    /// The span the next calls belong to (`NO_PARENT` for none).
    parent: Arc<AtomicU32>,
    pub bytes_written: Arc<AtomicU64>,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn StoreBackend>, tracer: Arc<Tracer>, parent: Arc<AtomicU32>) -> Self {
        Self {
            inner,
            tracer,
            parent,
            bytes_written: Arc::new(AtomicU64::new(0)),
        }
    }

    fn parent(&self) -> Option<u32> {
        Some(self.parent.load(Ordering::Relaxed)).filter(|&p| p != NO_PARENT)
    }
}

impl StoreBackend for TimedBackend {
    fn read(&self, path: &str) -> io::Result<Option<Vec<u8>>> {
        self.tracer.time("store.backend.read", self.parent(), || {
            self.inner.read(path)
        })
    }

    fn publish(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.tracer
            .time("store.backend.publish", self.parent(), || {
                self.inner.publish(path, bytes)
            })
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        self.inner.list(prefix)
    }
}

/// A shared "current span" cell for [`TimedBackend`].
pub fn parent_cell(parent: Option<u32>) -> Arc<AtomicU32> {
    Arc::new(AtomicU32::new(parent.unwrap_or(NO_PARENT)))
}

/// `StreamSeeder::ant` per ant: derives `n` streams `reps` times.
pub fn rng_streams(t: &Tracer, parent: Option<u32>, seed: u64, n: usize, reps: usize) -> Vec<f64> {
    let seeder = StreamSeeder::new(seed);
    (0..reps)
        .map(|_| {
            let start = t.now();
            for i in 0..n {
                black_box(seeder.ant(black_box(i)));
            }
            t.record("rng.StreamSeeder::ant", parent, start) as f64 / n as f64
        })
        .collect()
}

/// `ControllerSpec::build_bank` per ant, over the workload's banks
/// (a mix split round-robin, as the replica splits it).
pub fn bank_builds(t: &Tracer, parent: Option<u32>, cfg: &SimConfig, reps: usize) -> Vec<f64> {
    let k = cfg.demands.len();
    let specs: Vec<ControllerSpec> = match cfg.controller.mix_parts() {
        Some(parts) => parts.iter().map(|(_, s)| s.clone()).collect(),
        None => vec![cfg.controller.clone()],
    };
    let ids: Vec<Vec<u32>> = (0..specs.len())
        .map(|p| {
            (0..cfg.n as u32)
                .filter(|&i| i as usize % specs.len() == p)
                .collect()
        })
        .collect();
    (0..reps)
        .map(|_| {
            let start = t.now();
            for (spec, ids) in specs.iter().zip(&ids) {
                black_box(spec.build_bank(k, ids));
            }
            t.record("core.build_bank", parent, start) as f64 / cfg.n as f64
        })
        .collect()
}

/// Kernel ns per ant-step of one homogeneous replica running `spec`
/// at `n` ants (demands scaled from the workload's), per round.
pub fn kernel(
    t: &Tracer,
    parent: Option<u32>,
    cfg: &SimConfig,
    spec: &ControllerSpec,
    n: usize,
    rounds: usize,
) -> Vec<f64> {
    let mut probe = crate::workloads::static_twin(cfg);
    probe.demands = cfg
        .demands
        .iter()
        .map(|&d| (d * n as u64 / cfg.n as u64).max(1))
        .collect();
    probe.n = n;
    probe.controller = spec.clone();
    let mut replica = Replica::new(&probe);
    (0..rounds)
        .map(|_| replica.step(t, parent).0.kernel as f64 / n as f64)
        .collect()
}

/// `Timeline::fire_into` + `fire_triggers_into` + `observe_triggers`
/// over `rounds` rounds of the workload's compiled timeline, against
/// the colony view `deficits`; ns per round, one sample per rep.
pub fn timeline(
    t: &Tracer,
    parent: Option<u32>,
    cfg: &SimConfig,
    deficits: &[i64],
    rounds: u64,
    reps: usize,
) -> Vec<f64> {
    let compiled = cfg.timeline.compile(cfg.seed, cfg.n, &cfg.demands);
    let regret = deficits.iter().map(|d| d.unsigned_abs()).sum();
    (0..reps)
        .map(|_| {
            let mut states = compiled.initial_trigger_states();
            let mut cursor = 0usize;
            let mut fired = Vec::new();
            let start = t.now();
            for round in 1..=rounds {
                fired.clear();
                compiled.fire_into(round, &mut cursor, &mut fired);
                compiled.fire_triggers_into(round, &mut states, &mut fired);
                let view = ColonyView {
                    round,
                    regret,
                    population: cfg.n,
                    idle: 0,
                    deficits,
                };
                black_box(compiled.observe_triggers(&mut states, &view));
            }
            t.record("env.timeline", parent, start) as f64 / rounds as f64
        })
        .collect()
}

/// Checkpoint capture, encode and decode of `engine` (µs each) and the
/// encoded size.
pub struct CheckpointTimes {
    pub capture_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub bytes: usize,
}

pub fn checkpoint(
    t: &Tracer,
    parent: Option<u32>,
    engine: &SyncEngine,
    reps: usize,
) -> CheckpointTimes {
    let mut out = CheckpointTimes {
        capture_us: Vec::new(),
        encode_us: Vec::new(),
        decode_us: Vec::new(),
        bytes: 0,
    };
    for _ in 0..reps {
        let s = t.now();
        let ck = Checkpoint::capture(engine).expect("probes capture on a phase boundary");
        out.capture_us
            .push(t.record("sim.Checkpoint::capture", parent, s) as f64 / 1e3);
        let s = t.now();
        let bytes = ck.to_bytes();
        out.encode_us
            .push(t.record("sim.Checkpoint::to_bytes", parent, s) as f64 / 1e3);
        let s = t.now();
        let back = Checkpoint::from_bytes(&bytes).expect("fresh checkpoint bytes decode");
        out.decode_us
            .push(t.record("sim.Checkpoint::from_bytes", parent, s) as f64 / 1e3);
        out.bytes = bytes.len();
        drop(black_box(back));
    }
    out
}

/// `SimConfig::to_toml` and `SimConfig::from_toml` of `cfg`, µs, and
/// whether every round trip gave back the config.
pub fn toml(
    t: &Tracer,
    parent: Option<u32>,
    cfg: &SimConfig,
    reps: usize,
) -> (Vec<f64>, Vec<f64>, bool) {
    let mut to = Vec::new();
    let mut from = Vec::new();
    let mut same = true;
    for _ in 0..reps {
        let s = t.now();
        let text = cfg.to_toml();
        to.push(t.record("scenario.to_toml", parent, s) as f64 / 1e3);
        let s = t.now();
        let back = SimConfig::from_toml(&text).expect("canonical TOML parses");
        from.push(t.record("scenario.from_toml", parent, s) as f64 / 1e3);
        same &= back == *cfg;
    }
    (to, from, same)
}

/// `CheckpointStore::save`, `load` and a `probe` of a missing entry,
/// each on `payloads.len()` entries of the empty `store`, µs.
pub struct StoreTimes {
    pub save_us: Vec<f64>,
    pub load_us: Vec<f64>,
    pub probe_us: Vec<f64>,
    /// Whether every load returned the bytes saved.
    pub intact: bool,
}

pub fn store(
    t: &Tracer,
    parent: Option<u32>,
    store: &CheckpointStore,
    payloads: &[Vec<u8>],
) -> StoreTimes {
    let fp = |tag: &str, i: usize| {
        FingerprintBuilder::new("perfbench.store-probe")
            .bytes("tag", tag.as_bytes())
            .u64("entry", i as u64)
            .finish()
    };
    let mut out = StoreTimes {
        save_us: Vec::new(),
        load_us: Vec::new(),
        probe_us: Vec::new(),
        intact: true,
    };
    for (i, payload) in payloads.iter().enumerate() {
        let s = t.now();
        store
            .save(&fp("entry", i), EntryKind::Outcome, payload)
            .expect("the store accepts the entry");
        out.save_us
            .push(t.record("store.CheckpointStore::save", parent, s) as f64 / 1e3);
    }
    for (i, payload) in payloads.iter().enumerate() {
        let s = t.now();
        let got = store.load(&fp("entry", i), EntryKind::Outcome);
        out.load_us
            .push(t.record("store.CheckpointStore::load", parent, s) as f64 / 1e3);
        out.intact &= got.as_ref() == Ok(payload);
        let s = t.now();
        let miss = store.probe(&fp("missing", i), EntryKind::Outcome);
        out.probe_us
            .push(t.record("store.CheckpointStore::probe", parent, s) as f64 / 1e3);
        out.intact &= miss.is_err();
    }
    out
}

/// `Sha256::digest` ns per byte over a 1 MiB buffer.
pub fn sha256(t: &Tracer, parent: Option<u32>, reps: usize) -> Vec<f64> {
    let buf: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    (0..reps)
        .map(|_| {
            let s = t.now();
            black_box(Sha256::digest(black_box(&buf)));
            t.record("store.Sha256::digest", parent, s) as f64 / buf.len() as f64
        })
        .collect()
}

/// Reads every payload blob of `store` (the real job payloads the
/// store probe replays).
pub fn payloads(store: &CheckpointStore) -> Vec<Vec<u8>> {
    let backend = store.backend();
    backend
        .list("entries/")
        .expect("list store entries")
        .into_iter()
        .filter(|p| p.ends_with("/payload"))
        .filter_map(|p| backend.read(&p).ok().flatten())
        .collect()
}
