//! Connected Components (HashMin label propagation).
//!
//! §2.4 cites Connected Components as a task for which a Practical
//! Pregel Algorithm *does* exist (Yan et al.) — the counterpoint to the
//! multi-processing tasks that cannot satisfy the PPA bounds. Each
//! vertex repeatedly adopts the minimum label seen among itself and its
//! neighbors; on graphs with small diameter this converges in few
//! rounds with O(d(v)) communication per vertex per round. The label is
//! one `u32` slab cell per vertex (width 1), `VertexId::MAX` while
//! unset.

use mtvc_engine::{Context, Delivery, Message, SlabProgram, SlabRow, SlabRowMut};
use mtvc_graph::VertexId;

/// Label message: the sender's current component label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelMsg {
    pub label: VertexId,
}

impl Message for LabelMsg {
    /// A min: the vertex adopts the same smallest label.
    const EXACT_MERGE: bool = true;

    fn combine_key(&self) -> Option<u64> {
        Some(0) // all labels to a vertex combine to the minimum
    }
    fn merge(&mut self, other: &Self) {
        self.label = self.label.min(other.label);
    }
}

/// Per-vertex output: the smallest vertex id seen in its component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcState {
    pub label: VertexId,
}

impl Default for CcState {
    fn default() -> Self {
        CcState {
            label: VertexId::MAX,
        }
    }
}

/// HashMin connected components.
#[derive(Debug, Clone, Default)]
pub struct ConnectedComponentsProgram;

impl SlabProgram for ConnectedComponentsProgram {
    type Message = LabelMsg;
    type Cell = VertexId;
    type Out = CcState;

    fn width(&self) -> usize {
        1
    }

    fn empty_cell(&self) -> VertexId {
        VertexId::MAX
    }

    fn message_bytes(&self) -> u64 {
        8
    }

    fn init(
        &self,
        v: VertexId,
        mut row: SlabRowMut<'_, VertexId>,
        ctx: &mut Context<'_, LabelMsg>,
    ) {
        row.set(0, v);
        for &t in ctx.neighbors() {
            ctx.send(t, LabelMsg { label: v }, 1);
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        mut row: SlabRowMut<'_, VertexId>,
        inbox: &[Delivery<LabelMsg>],
        ctx: &mut Context<'_, LabelMsg>,
    ) {
        let best = inbox.iter().map(|d| d.msg.label).min().unwrap();
        if best < row.get(0) {
            row.set(0, best);
            for &t in ctx.neighbors() {
                ctx.send(t, LabelMsg { label: best }, 1);
            }
        }
    }

    fn extract(&self, _v: VertexId, row: SlabRow<'_, VertexId>) -> CcState {
        CcState {
            label: row
                .written()
                .next()
                .map_or(VertexId::MAX, |(_, label)| label),
        }
    }
}

/// Extract component labels from final states.
pub fn labels(states: &[CcState]) -> Vec<VertexId> {
    states.iter().map(|s| s.label).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvc_cluster::ClusterSpec;
    use mtvc_engine::{EngineConfig, Runner, SystemProfile};
    use mtvc_graph::partition::HashPartitioner;
    use mtvc_graph::{generators, reference, GraphBuilder};
    use mtvc_metrics::SimTime;

    fn run_cc(g: &mtvc_graph::Graph, machines: usize) -> Vec<VertexId> {
        let mut cfg = EngineConfig::new(ClusterSpec::galaxy(machines), SystemProfile::base("cc"));
        cfg.cutoff = SimTime::secs(1e12);
        let runner = Runner::new(g, &HashPartitioner::default(), cfg);
        let result = runner.run_slab(&ConnectedComponentsProgram);
        assert!(result.outcome.is_completed());
        labels(&result.states)
    }

    #[test]
    fn matches_union_find_reference() {
        let mut b = GraphBuilder::new(9).undirected(true);
        for &(u, v) in &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let got = run_cc(&g, 3);
        let want = reference::weakly_connected_components(&g);
        assert_eq!(got, want);
        // Isolated vertex keeps its own label.
        assert_eq!(got[8], 8);
    }

    #[test]
    fn random_graph_components_agree() {
        let g = generators::erdos_renyi(200, 150, 17); // sparse, many CCs
        let got = run_cc(&g, 4);
        let want = reference::weakly_connected_components(&g);
        assert_eq!(got, want);
    }

    #[test]
    fn label_messages_combine_to_min() {
        let mut a = LabelMsg { label: 9 };
        a.merge(&LabelMsg { label: 3 });
        assert_eq!(a.label, 3);
    }
}
