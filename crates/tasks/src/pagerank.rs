//! Classic (global) PageRank.
//!
//! Used by §4.8 / Table 4 as the *single-task* counterpoint to BPPR:
//! "PageRank is a global metric of node importance, and its computation
//! workload is similar to a Personalized PageRank query that takes a
//! single source as input." Standard Pregel formulation: fixed number
//! of iterations; each round a vertex sets
//! `rank = (1-d)/n + d · Σ incoming` and sends `rank/degree` onward.
//! The rank is one `f64` slab cell per vertex (width 1), so the state
//! charge is the cell plus its frontier word.

use mtvc_engine::{Context, Delivery, Message, SlabProgram, SlabRow, SlabRowMut};
use mtvc_graph::VertexId;

/// Rank contribution flowing along an edge. All contributions to a
/// vertex combine by summation (combine key 0).
#[derive(Debug, Clone, PartialEq)]
pub struct RankMsg {
    pub value: f64,
}

impl Message for RankMsg {
    // Not `EXACT_MERGE`: a merged value reorders the float sum.
    fn combine_key(&self) -> Option<u64> {
        Some(0)
    }
    fn merge(&mut self, other: &Self) {
        self.value += other.value;
    }
}

/// Per-vertex PageRank output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankState {
    pub rank: f64,
}

/// Fixed-iteration PageRank.
#[derive(Debug, Clone)]
pub struct PageRankProgram {
    pub damping: f64,
    pub iterations: usize,
}

impl PageRankProgram {
    pub fn new(damping: f64, iterations: usize) -> PageRankProgram {
        assert!((0.0..1.0).contains(&damping), "damping in [0,1)");
        assert!(iterations >= 1);
        PageRankProgram {
            damping,
            iterations,
        }
    }
}

impl Default for PageRankProgram {
    fn default() -> Self {
        PageRankProgram::new(0.85, 30)
    }
}

/// Send each out-neighbor its `rank/degree` share.
fn send_shares(rank: f64, ctx: &mut Context<'_, RankMsg>) {
    let degree = ctx.degree();
    if degree > 0 {
        let share = rank / degree as f64;
        for &t in ctx.neighbors() {
            ctx.send(t, RankMsg { value: share }, 1);
        }
    }
}

impl SlabProgram for PageRankProgram {
    type Message = RankMsg;
    type Cell = f64;
    type Out = RankState;

    fn width(&self) -> usize {
        1
    }

    fn empty_cell(&self) -> f64 {
        0.0
    }

    fn message_bytes(&self) -> u64 {
        12 // f64 contribution + tag
    }

    fn init(&self, _v: VertexId, mut row: SlabRowMut<'_, f64>, ctx: &mut Context<'_, RankMsg>) {
        let rank = 1.0 / ctx.num_vertices() as f64;
        row.set(0, rank);
        send_shares(rank, ctx);
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, f64>,
        inbox: &[Delivery<RankMsg>],
        ctx: &mut Context<'_, RankMsg>,
    ) {
        let sum: f64 = inbox.iter().map(|d| d.msg.value).sum();
        let n = ctx.num_vertices() as f64;
        let rank = (1.0 - self.damping) / n + self.damping * sum;
        row.set(0, rank);
        if ctx.round() < self.iterations {
            send_shares(rank, ctx);
        }
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, f64>) -> RankState {
        RankState {
            rank: row.written().next().map_or(0.0, |(_, rank)| rank),
        }
    }

    fn max_rounds(&self) -> Option<usize> {
        Some(self.iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_messages_sum_when_merged() {
        let mut a = RankMsg { value: 0.25 };
        a.merge(&RankMsg { value: 0.5 });
        assert_eq!(a.value, 0.75);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn damping_validated() {
        PageRankProgram::new(1.0, 10);
    }

    #[test]
    fn default_matches_convention() {
        let p = PageRankProgram::default();
        assert_eq!(p.damping, 0.85);
        assert_eq!(p.iterations, 30);
        assert_eq!(p.max_rounds(), Some(30));
    }
}
