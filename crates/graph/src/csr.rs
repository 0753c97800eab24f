//! Compressed-sparse-row graph representation.
//!
//! The engine's hot loops iterate neighbor slices, so the graph is a
//! classic CSR: one `offsets` array of `n + 1` entries into a flat
//! `targets` array. Vertex ids are `u32` (the largest preset graph stays
//! far below 4 B vertices after scaling), which halves adjacency memory
//! versus `usize` per the type-size guidance in the workspace coding
//! guides. Optional per-edge `u32` weights support weighted MSSP.

use serde::{Deserialize, Serialize};

/// A vertex identifier. Dense in `0..n`.
pub type VertexId = u32;

/// Immutable directed graph in CSR form.
///
/// Undirected graphs are represented by storing both edge directions
/// (the builders do this when asked). Parallel edges are removed by the
/// builder; self-loops are allowed but discouraged by the generators.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    /// One weight per target when present. Empty means unit weights.
    weights: Vec<u32>,
    /// Largest edge weight (0 without edges), fixed at construction so
    /// a per-batch distance bound costs no edge scan.
    max_weight: u32,
}

impl Graph {
    /// Build directly from CSR arrays. Invariants are checked:
    /// `offsets` must be monotone, start at 0, end at `targets.len()`,
    /// and every target must be `< n`.
    pub fn from_csr(offsets: Vec<u64>, targets: Vec<VertexId>, weights: Vec<u32>) -> Graph {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets must start at zero");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as u64,
            "offsets must end at targets.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone non-decreasing"
        );
        let n = (offsets.len() - 1) as u64;
        assert!(
            targets.iter().all(|&t| (t as u64) < n),
            "edge target out of range"
        );
        assert!(
            weights.is_empty() || weights.len() == targets.len(),
            "weights must be empty or match targets"
        );
        let max_weight = match weights.iter().max() {
            Some(&w) => w,
            None => u32::from(!targets.is_empty()),
        };
        Graph {
            offsets,
            targets,
            weights,
            max_weight,
        }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Graph {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: Vec::new(),
            max_weight: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (an undirected edge counts twice).
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// True when per-edge weights are attached.
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Largest edge weight: 1 for an unweighted graph with edges, 0 for
    /// an edgeless one. Every shortest-path distance is at most
    /// `num_vertices() * max_weight()`.
    pub fn max_weight(&self) -> u32 {
        self.max_weight
    }

    /// Weights parallel to [`Self::neighbors`]; unit weights otherwise.
    #[inline]
    pub fn edge_weights(&self, v: VertexId) -> EdgeWeights<'_> {
        if self.weights.is_empty() {
            EdgeWeights::Unit(self.degree(v))
        } else {
            let v = v as usize;
            EdgeWeights::Explicit(
                &self.weights[self.offsets[v] as usize..self.offsets[v + 1] as usize],
            )
        }
    }

    /// Iterate `(neighbor, weight)` pairs for `v`.
    pub fn weighted_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let nbrs = self.neighbors(v);
        let ws = self.edge_weights(v);
        nbrs.iter().enumerate().map(move |(i, &t)| (t, ws.get(i)))
    }

    /// All vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + 'static {
        (0..self.num_vertices() as u32).map(|v| v as VertexId)
    }

    /// Bytes of adjacency data a machine holding the whole graph would
    /// store (used by the cluster memory ledger and by the whole-graph
    /// access mode of §4.9).
    pub fn adjacency_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Maximum out-degree and the vertex attaining it.
    pub fn max_degree(&self) -> (VertexId, usize) {
        let mut best = (0, 0);
        for v in 0..self.num_vertices() as u32 {
            let d = self.degree(v);
            if d > best.1 {
                best = (v, d);
            }
        }
        best
    }
}

/// Edge-weight view: either explicit per-edge weights or implicit units.
#[derive(Debug, Clone, Copy)]
pub enum EdgeWeights<'a> {
    Unit(usize),
    Explicit(&'a [u32]),
}

impl EdgeWeights<'_> {
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            EdgeWeights::Unit(n) => {
                debug_assert!(i < *n);
                1
            }
            EdgeWeights::Explicit(w) => w[i],
        }
    }

    pub fn len(&self) -> usize {
        match self {
            EdgeWeights::Unit(n) => *n,
            EdgeWeights::Explicit(w) => w.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Graph::from_csr(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3], vec![])
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.avg_degree(), 1.0);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn unit_weights_by_default() {
        let g = diamond();
        assert!(!g.is_weighted());
        let pairs: Vec<_> = g.weighted_neighbors(0).collect();
        assert_eq!(pairs, vec![(1, 1), (2, 1)]);
        assert_eq!(g.max_weight(), 1);
        assert_eq!(Graph::empty(3).max_weight(), 0);
    }

    #[test]
    fn explicit_weights() {
        let g = Graph::from_csr(vec![0, 2, 2], vec![1, 1], vec![7, 9]);
        assert!(g.is_weighted());
        let pairs: Vec<_> = g.weighted_neighbors(0).collect();
        assert_eq!(pairs, vec![(1, 7), (1, 9)]);
        assert_eq!(g.max_weight(), 9);
    }

    #[test]
    fn max_degree_found() {
        let g = diamond();
        assert_eq!(g.max_degree(), (0, 2));
    }

    #[test]
    fn adjacency_bytes_counts_arrays() {
        let g = diamond();
        assert_eq!(g.adjacency_bytes(), (5 * 8 + 4 * 4) as u64);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn bad_offsets_rejected() {
        Graph::from_csr(vec![0, 3, 2, 4], vec![0, 0, 0, 0], vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_rejected() {
        Graph::from_csr(vec![0, 1], vec![5], vec![]);
    }
}
