//! Spatial arenas: tasks pinned at sites, demand sensed locally.
//!
//! The paper's model is *well-mixed*: every ant samples the feedback of
//! every task every round. An [`ArenaConfig`] breaks that assumption
//! spatially — tasks are pinned to sites, an ant standing at site `s`
//! senses real feedback only for the tasks at `s` (everything else reads
//! as a saturated `Overload`, so no kernel ever joins a task it cannot
//! see), and idle ants drift between sites via a per-round wander coin
//! with a travel latency during which they sense nothing.
//!
//! The config is pure data: engines own the per-ant position and travel
//! columns and the per-round sense-row construction. Two structural
//! guarantees make the mode safe to layer under the existing kernels:
//!
//! * Masked tasks are [`Fixed`](antalloc_noise::TaskFeedback::Fixed)
//!   feedback and consume **zero** RNG draws, so an ant's stream
//!   position depends only on its own decisions, never on where it
//!   stands — the bit-identity contract (serial == parallel ==
//!   checkpoint-restore) extends unchanged.
//! * A single-site arena with zero travel latency degenerates to the
//!   shared well-mixed view: every task is local, wandering has nowhere
//!   to go, and engines skip the sense-row indirection entirely, so the
//!   run is bit-identical to the same scenario without an arena.

/// Static geometry of a spatial arena.
///
/// Sites are dense indices `0..num_sites`; `site_of_task[j]` pins task
/// `j` to its site. Movement is modeled coarsely: each round, after
/// decisions commit, every *idle, non-traveling* ant flips a
/// `wander_probability` coin (on the reserved `ARENA` stream, in global
/// ant order) and, on success, departs for a uniformly chosen *other*
/// site, arriving `travel_rounds` rounds later. Travelers sense
/// all-`Overload`: they can join no task, and the masked entries
/// consume no draws. Working ants stay put, but "working" means the
/// committed column, not the controller's memory: an Algorithm Ant
/// worker paused on an odd round is committed idle, may move, and
/// resumes its task wherever it stands, so workers are not pinned to
/// their task's site.
#[derive(Clone, Debug, PartialEq)]
pub struct ArenaConfig {
    /// Site of each task: `site_of_task[j]` is where task `j` lives.
    /// Length `k`; site ids must cover `0..num_sites` densely.
    pub site_of_task: Vec<u32>,
    /// Rounds an ant spends in transit between sites (0 = instant).
    pub travel_rounds: u32,
    /// Per-round probability that an idle, settled ant departs for a
    /// random other site. Must be in `[0, 1]`; 0 freezes everyone at
    /// their initial site.
    pub wander_probability: f64,
}

impl ArenaConfig {
    /// A single-site arena over `k` tasks — the well-mixed degenerate
    /// case (engines detect it and skip the sensing indirection).
    pub fn single_site(k: usize) -> Self {
        Self {
            site_of_task: vec![0; k],
            travel_rounds: 0,
            wander_probability: 0.0,
        }
    }

    /// Number of sites (`max(site_of_task) + 1`; 0 for no tasks).
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.site_of_task
            .iter()
            .max()
            // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
            .map_or(0, |&m| m as usize + 1)
    }

    /// Whether every ant sees every task — the degenerate geometry
    /// engines compile down to the shared well-mixed view.
    #[inline]
    pub fn is_single_site(&self) -> bool {
        self.num_sites() <= 1
    }

    /// Site of task `j`.
    #[inline]
    pub fn site_of(&self, j: usize) -> u32 {
        self.site_of_task[j]
    }

    /// Checks the geometry against a colony with `num_tasks` tasks:
    /// one site per task, dense site ids (every site hosts at least one
    /// task), and a wander probability that is a probability.
    pub fn validate(&self, num_tasks: usize) -> Result<(), String> {
        if self.site_of_task.len() != num_tasks {
            return Err(format!(
                "arena pins {} tasks, colony has {num_tasks}",
                self.site_of_task.len()
            ));
        }
        let num_sites = self.num_sites();
        let mut seen = vec![false; num_sites];
        for &s in &self.site_of_task {
            // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
            seen[s as usize] = true;
        }
        if let Some(hole) = seen.iter().position(|&s| !s) {
            return Err(format!(
                "site ids must be dense: site {hole} hosts no task (max site id is {})",
                num_sites - 1
            ));
        }
        if !self.wander_probability.is_finite() || !(0.0..=1.0).contains(&self.wander_probability) {
            return Err(format!(
                "wander probability {} is not in [0, 1]",
                self.wander_probability
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_site_is_degenerate() {
        let a = ArenaConfig::single_site(3);
        assert_eq!(a.num_sites(), 1);
        assert!(a.is_single_site());
        assert!(a.validate(3).is_ok());
    }

    #[test]
    fn num_sites_and_site_of() {
        let a = ArenaConfig {
            site_of_task: vec![1, 0, 1, 2],
            travel_rounds: 3,
            wander_probability: 0.05,
        };
        assert_eq!(a.num_sites(), 3);
        assert!(!a.is_single_site());
        assert_eq!(a.site_of(0), 1);
        assert_eq!(a.site_of(3), 2);
        assert!(a.validate(4).is_ok());
    }

    #[test]
    fn validation_catches_each_defect() {
        let base = ArenaConfig {
            site_of_task: vec![0, 1],
            travel_rounds: 0,
            wander_probability: 0.1,
        };
        assert!(base.validate(2).is_ok());
        // Length mismatch.
        assert!(base.validate(3).unwrap_err().contains("2 tasks"));
        // Sparse site ids.
        let sparse = ArenaConfig {
            site_of_task: vec![0, 2],
            ..base.clone()
        };
        assert!(sparse.validate(2).unwrap_err().contains("dense"));
        // Bad probabilities.
        for p in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let bad = ArenaConfig {
                wander_probability: p,
                ..base.clone()
            };
            assert!(bad.validate(2).unwrap_err().contains("[0, 1]"), "p = {p}");
        }
    }
}
