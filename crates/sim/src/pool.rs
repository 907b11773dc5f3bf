//! Synchronization pieces of the pooled round (`SyncEngine::run_parallel`).
//!
//! Two rules shape them. No two workers' hot accumulators share a cache
//! line: each worker folds its ants into a [`RoundDelta`] it owns and
//! publishes it once per round into a [`DeltaSlot`] padded to a block of
//! its own. And a panicking participant must not leave the others parked
//! forever: the [`RoundBarrier`] breaks when any participant unwinds, so
//! the pool drains and the panic reaches the caller.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use antalloc_env::RoundDelta;

/// One pooled worker's published round delta.
///
/// The alignment gives every slot a 128-byte block of its own (a cache
/// line plus the partner line the adjacent-line prefetcher pulls in), so
/// publishing never invalidates another participant's line. Workers
/// accumulate into a delta of their own and swap it in once per round;
/// the coordinator reads the slots only in its exclusive merge window,
/// so the lock is never contended.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct DeltaSlot(Mutex<RoundDelta>);

impl DeltaSlot {
    /// Swaps `delta` into the slot, handing back what it held.
    pub(crate) fn publish(&self, delta: &mut RoundDelta) {
        core::mem::swap(&mut *self.lock(), delta);
    }

    /// The published delta. The only write under the lock is a whole
    /// swap, so even a poisoned slot holds a complete delta.
    pub(crate) fn lock(&self) -> MutexGuard<'_, RoundDelta> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The pool broke: a participant panicked, so the round cannot finish.
#[derive(Debug)]
pub(crate) struct Broken;

/// A reusable barrier with [`std::sync::Barrier`]'s semantics that any
/// participant can break. A broken barrier releases every waiter and
/// fails every later wait, instead of leaving the survivors parked on a
/// crossing the panicked thread will never reach.
pub(crate) struct RoundBarrier {
    participants: usize,
    state: Mutex<BarrierState>,
    released: Condvar,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    broken: bool,
}

impl RoundBarrier {
    /// A barrier for `participants` threads.
    pub(crate) fn new(participants: usize) -> Self {
        Self {
            participants,
            state: Mutex::default(),
            released: Condvar::new(),
        }
    }

    /// The counters are updated without any call that can panic in
    /// between, so a poisoned lock still guards consistent state.
    fn state(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until every participant has arrived, or fails once the
    /// barrier is broken. A lone participant passes straight through.
    pub(crate) fn wait(&self) -> Result<(), Broken> {
        if self.participants == 1 {
            return Ok(());
        }
        let mut state = self.state();
        if state.broken {
            return Err(Broken);
        }
        state.arrived += 1;
        if state.arrived == self.participants {
            state.arrived = 0;
            state.generation += 1;
            self.released.notify_all();
            return Ok(());
        }
        let generation = state.generation;
        while state.generation == generation && !state.broken {
            state = self
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.generation == generation {
            Err(Broken)
        } else {
            Ok(())
        }
    }

    /// A guard that breaks the barrier if its thread unwinds while the
    /// guard is alive.
    pub(crate) fn break_on_unwind(&self) -> BreakOnUnwind<'_> {
        BreakOnUnwind(self)
    }
}

/// See [`RoundBarrier::break_on_unwind`].
pub(crate) struct BreakOnUnwind<'a>(&'a RoundBarrier);

impl Drop for BreakOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.state().broken = true;
            self.0.released.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_delta_slots_never_share_a_128_byte_block() {
        assert!(core::mem::align_of::<DeltaSlot>() >= 128);
        assert_eq!(core::mem::size_of::<DeltaSlot>() % 128, 0);
        // The layout the pooled path allocates: one slot per worker.
        let slots: Vec<DeltaSlot> = (0..7).map(|_| DeltaSlot::default()).collect();
        let mut blocks: Vec<usize> = slots
            .iter()
            .flat_map(|slot| {
                let start = core::ptr::from_ref(slot) as usize;
                start / 128..=(start + size_of_val(slot) - 1) / 128
            })
            .collect();
        let total = blocks.len();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(blocks.len(), total, "two slots share a 128-byte block");
    }

    #[test]
    fn barrier_releases_every_round() {
        let barrier = RoundBarrier::new(3);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| (0..100).all(|_| barrier.wait().is_ok())))
                .collect();
            assert!((0..100).all(|_| barrier.wait().is_ok()));
            assert!(workers.into_iter().all(|w| w.join().unwrap()));
        });
    }

    #[test]
    fn a_panicking_participant_breaks_the_barrier() {
        let barrier = RoundBarrier::new(3);
        let outcome = std::thread::scope(|s| {
            let survivor = s.spawn(|| {
                let _guard = barrier.break_on_unwind();
                barrier.wait().and_then(|()| barrier.wait())
            });
            let panicker = s.spawn(|| {
                let _guard = barrier.break_on_unwind();
                barrier.wait().expect("first crossing completes");
                panic!("worker dies between crossings");
            });
            barrier.wait().expect("first crossing completes");
            // The panicker never arrives; without the break this would
            // block forever.
            let second = barrier.wait();
            assert!(panicker.join().is_err());
            (second, survivor.join().expect("survivor returns"))
        });
        assert!(outcome.0.is_err() && outcome.1.is_err());
        assert!(barrier.wait().is_err(), "a broken barrier stays broken");
    }
}
