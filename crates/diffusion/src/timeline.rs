//! Temporal views of a finished cascade: per-round infection and flip
//! counts, opinion balance over time, and per-node infection times —
//! the raw material for diffusion analyses like the paper's §IV-B3.

use crate::Cascade;
use isomit_graph::{NodeId, Sign};

/// Aggregate statistics of one diffusion round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Nodes activated for the first time in this round.
    pub new_infections: usize,
    /// Opinion flips of already-active nodes in this round.
    pub flips: usize,
    /// First activations (or flips) resulting in a positive opinion.
    pub positive_events: usize,
    /// First activations (or flips) resulting in a negative opinion.
    pub negative_events: usize,
}

/// A round-by-round timeline derived from a [`Cascade`]'s event log.
///
/// ```
/// use isomit_diffusion::{CascadeTimeline, DiffusionModel, Mfc, SeedSet};
/// use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = SignedDigraph::from_edges(
///     3,
///     [
///         Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0),
///         Edge::new(NodeId(1), NodeId(2), Sign::Positive, 1.0),
///     ],
/// )?;
/// let seeds = SeedSet::single(NodeId(0), Sign::Positive);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cascade = Mfc::new(2.0)?.simulate(&g, &seeds, &mut rng)?;
/// let timeline = CascadeTimeline::from_cascade(&cascade);
/// assert_eq!(timeline.cumulative_infected(1), 2); // seed + round-1 hit
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeTimeline {
    /// `rounds[t]` covers diffusion round `t + 1` (seeds are round 0).
    rounds: Vec<RoundStats>,
    seed_count: usize,
    /// First-activation round per node, `None` for seeds (round 0 by
    /// definition) and never-infected nodes.
    infection_round: Vec<Option<usize>>,
}

impl CascadeTimeline {
    /// Builds the timeline from a cascade's event log.
    pub fn from_cascade(cascade: &Cascade) -> Self {
        let n = cascade.states().len();
        let mut infection_round: Vec<Option<usize>> = vec![None; n];
        let last_round = cascade.events().iter().map(|e| e.step).max().unwrap_or(0);
        let mut rounds = vec![RoundStats::default(); last_round];
        for event in cascade.events() {
            let Some(slot) = rounds.get_mut(event.step - 1) else {
                continue; // unrecordable event; `last_round` bounds every step
            };
            if event.flip {
                slot.flips += 1;
            } else {
                slot.new_infections += 1;
                if let Some(first) = infection_round.get_mut(event.dst.index()) {
                    if first.is_none() {
                        *first = Some(event.step);
                    }
                }
            }
            match event.new_state {
                Sign::Positive => slot.positive_events += 1,
                Sign::Negative => slot.negative_events += 1,
            }
        }
        CascadeTimeline {
            rounds,
            seed_count: cascade.seeds().len(),
            infection_round,
        }
    }

    /// Number of recorded rounds (rounds with at least one event may be
    /// followed by quiet rounds that are not recorded).
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` if no events happened (seeds-only cascade).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Statistics of round `t` (1-based, matching
    /// [`ActivationEvent::step`](crate::ActivationEvent)).
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero or beyond the last recorded round.
    pub fn round(&self, t: usize) -> RoundStats {
        assert!(t >= 1 && t <= self.rounds.len(), "round {t} out of range");
        self.rounds[t - 1]
    }

    /// Iterator over `(round, stats)` pairs, 1-based.
    pub fn iter(&self) -> impl Iterator<Item = (usize, RoundStats)> + '_ {
        self.rounds.iter().enumerate().map(|(i, &s)| (i + 1, s))
    }

    /// Total infected after round `t` (seeds count as round 0; `t = 0`
    /// returns the seed count, values past the end saturate).
    pub fn cumulative_infected(&self, t: usize) -> usize {
        let through = t.min(self.rounds.len());
        self.seed_count
            + self
                .rounds
                .iter()
                .take(through)
                .map(|r| r.new_infections)
                .sum::<usize>()
    }

    /// The round in which `node` was first infected: `Some(0)` for
    /// seeds, `Some(t)` for nodes first activated in round `t`, `None`
    /// for untouched nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn infection_round(&self, node: NodeId, cascade: &Cascade) -> Option<usize> {
        if cascade.seeds().contains(node) {
            return Some(0);
        }
        self.infection_round[node.index()]
    }

    /// Round with the most new infections (the outbreak's peak), `None`
    /// for an event-free cascade.
    pub fn peak_round(&self) -> Option<usize> {
        self.rounds
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.new_infections)
            .map(|(i, _)| i + 1)
    }

    /// Total flips across all rounds.
    pub fn total_flips(&self) -> usize {
        self.rounds.iter().map(|r| r.flips).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiffusionModel, Mfc, SeedSet};
    use isomit_graph::{Edge, SignedDigraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_cascade() -> Cascade {
        // Deterministic: 0 -> 1 -> 2 -> 3 with probability-1 edges.
        let g = SignedDigraph::from_edges(
            4,
            (0..3).map(|i| Edge::new(NodeId(i), NodeId(i + 1), Sign::Positive, 1.0)),
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(0))
            .unwrap()
    }

    #[test]
    fn chain_timeline_one_infection_per_round() {
        let cascade = chain_cascade();
        let timeline = CascadeTimeline::from_cascade(&cascade);
        assert_eq!(timeline.len(), 3);
        for (t, stats) in timeline.iter() {
            assert_eq!(stats.new_infections, 1, "round {t}");
            assert_eq!(stats.flips, 0);
            assert_eq!(stats.positive_events, 1);
        }
        assert_eq!(timeline.cumulative_infected(0), 1);
        assert_eq!(timeline.cumulative_infected(2), 3);
        assert_eq!(timeline.cumulative_infected(99), 4);
    }

    #[test]
    fn infection_rounds_match_chain_depth() {
        let cascade = chain_cascade();
        let timeline = CascadeTimeline::from_cascade(&cascade);
        assert_eq!(timeline.infection_round(NodeId(0), &cascade), Some(0));
        assert_eq!(timeline.infection_round(NodeId(1), &cascade), Some(1));
        assert_eq!(timeline.infection_round(NodeId(3), &cascade), Some(3));
    }

    #[test]
    fn flips_are_counted_separately() {
        // 0 (+ seed) and 1 (- seed) joined by a trust edge: 1 flips.
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0)])
                .unwrap();
        let seeds = SeedSet::from_pairs([(NodeId(0), Sign::Positive), (NodeId(1), Sign::Negative)])
            .unwrap();
        let cascade = Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(0))
            .unwrap();
        let timeline = CascadeTimeline::from_cascade(&cascade);
        assert_eq!(timeline.total_flips(), 1);
        assert_eq!(timeline.round(1).flips, 1);
        assert_eq!(timeline.round(1).new_infections, 0);
        // A flip does not change the cumulative infected count.
        assert_eq!(timeline.cumulative_infected(1), 2);
    }

    #[test]
    fn empty_cascade() {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.0)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let cascade = Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(0))
            .unwrap();
        let timeline = CascadeTimeline::from_cascade(&cascade);
        assert!(timeline.is_empty());
        assert_eq!(timeline.peak_round(), None);
        assert_eq!(timeline.cumulative_infected(5), 1);
        assert_eq!(timeline.infection_round(NodeId(1), &cascade), None);
    }

    #[test]
    fn peak_round_finds_the_burst() {
        // Star: all 4 leaves infected in round 1.
        let g = SignedDigraph::from_edges(
            5,
            (1..5).map(|i| Edge::new(NodeId(0), NodeId(i), Sign::Positive, 1.0)),
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let cascade = Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(0))
            .unwrap();
        let timeline = CascadeTimeline::from_cascade(&cascade);
        assert_eq!(timeline.peak_round(), Some(1));
        assert_eq!(timeline.round(1).new_infections, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn round_zero_panics() {
        let timeline = CascadeTimeline::from_cascade(&chain_cascade());
        timeline.round(0);
    }
}
