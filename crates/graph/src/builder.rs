//! Edge-list graph builder.
//!
//! Accumulates `(src, dst[, weight])` edges, optionally symmetrizes
//! (undirected graphs store both directions, as the SNAP social graphs
//! do), removes parallel edges keeping the minimum weight, and emits a
//! CSR [`Graph`]. Building is `O(m log m)` from the sort; fine for the
//! scaled dataset sizes this workspace targets.

use crate::csr::{Graph, VertexId};

/// Accumulates edges and produces a [`Graph`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId, u32)>,
    undirected: bool,
    weighted: bool,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// A builder for a graph with exactly `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 id space");
        GraphBuilder {
            n,
            ..Default::default()
        }
    }

    /// Store both directions for every added edge.
    pub fn undirected(mut self, yes: bool) -> Self {
        self.undirected = yes;
        self
    }

    /// Keep self loops (dropped by default).
    pub fn keep_self_loops(mut self, yes: bool) -> Self {
        self.keep_self_loops = yes;
        self
    }

    /// Number of vertices this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Add a unit-weight edge.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        self.add_weighted_edge(src, dst, 1);
    }

    /// Add a weighted edge. Any weighted insertion makes the final graph
    /// weighted; weights of unit insertions stay 1.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, weight: u32) {
        debug_assert!((src as usize) < self.n, "src {src} out of range");
        debug_assert!((dst as usize) < self.n, "dst {dst} out of range");
        if weight != 1 {
            self.weighted = true;
        }
        self.edges.push((src, dst, weight));
    }

    /// Mark the output as weighted even if all weights are 1.
    pub fn force_weighted(mut self) -> Self {
        self.weighted = true;
        self
    }

    /// Finish: sort, symmetrize, dedup (min weight wins), build CSR.
    pub fn build(mut self) -> Graph {
        if self.undirected {
            let rev: Vec<_> = self.edges.iter().map(|&(s, d, w)| (d, s, w)).collect();
            self.edges.extend(rev);
        }
        if !self.keep_self_loops {
            self.edges.retain(|&(s, d, _)| s != d);
        }
        // Sort by (src, dst, weight) so dedup keeps the min weight.
        self.edges.sort_unstable();
        self.edges.dedup_by_key(|e| (e.0, e.1));

        let mut offsets = vec![0u64; self.n + 1];
        for &(s, _, _) in &self.edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let targets: Vec<VertexId> = self.edges.iter().map(|e| e.1).collect();
        let weights: Vec<u32> = if self.weighted {
            self.edges.iter().map(|e| e.2).collect()
        } else {
            Vec::new()
        };
        Graph::from_csr(offsets, targets, weights)
    }

    /// Parse a whitespace-separated edge list (`src dst [weight]` per
    /// line, `#`-prefixed comments ignored) — the SNAP text format.
    pub fn parse_edge_list(n: usize, text: &str) -> Result<Graph, ParseError> {
        let mut b = GraphBuilder::new(n);
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let src: VertexId = it
                .next()
                .ok_or(ParseError::MissingField(lineno))?
                .parse()
                .map_err(|_| ParseError::BadNumber(lineno))?;
            let dst: VertexId = it
                .next()
                .ok_or(ParseError::MissingField(lineno))?
                .parse()
                .map_err(|_| ParseError::BadNumber(lineno))?;
            if (src as usize) >= n || (dst as usize) >= n {
                return Err(ParseError::VertexOutOfRange(lineno));
            }
            match it.next() {
                Some(w) => {
                    let w: u32 = w.parse().map_err(|_| ParseError::BadNumber(lineno))?;
                    b.add_weighted_edge(src, dst, w);
                }
                None => b.add_edge(src, dst),
            }
        }
        Ok(b.build())
    }
}

/// Errors from [`GraphBuilder::parse_edge_list`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Line is missing src or dst (0-based line number).
    MissingField(usize),
    /// A field failed integer parsing.
    BadNumber(usize),
    /// Vertex id ≥ declared vertex count.
    VertexOutOfRange(usize),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingField(l) => write!(f, "line {}: missing field", l + 1),
            ParseError::BadNumber(l) => write!(f, "line {}: invalid number", l + 1),
            ParseError::VertexOutOfRange(l) => write!(f, "line {}: vertex out of range", l + 1),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(2, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[VertexId]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn undirected_symmetrizes() {
        let mut b = GraphBuilder::new(2).undirected(true);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 9);
        b.add_weighted_edge(0, 1, 3);
        b.add_weighted_edge(0, 1, 5);
        let g = b.build();
        assert_eq!(g.weighted_neighbors(0).collect::<Vec<_>>(), vec![(1, 3)]);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        assert_eq!(b.clone().build().num_edges(), 1);
        let mut b2 = GraphBuilder::new(2).keep_self_loops(true);
        b2.add_edge(0, 0);
        b2.add_edge(0, 1);
        assert_eq!(b2.build().num_edges(), 2);
    }

    #[test]
    fn parse_edge_list_roundtrip() {
        let text = "# comment\n0 1\n1 2 7\n\n2 0\n";
        let g = GraphBuilder::parse_edge_list(3, text).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert!(g.is_weighted());
        assert_eq!(g.weighted_neighbors(1).collect::<Vec<_>>(), vec![(2, 7)]);
    }

    #[test]
    fn parse_errors_reported() {
        assert_eq!(
            GraphBuilder::parse_edge_list(3, "0"),
            Err(ParseError::MissingField(0))
        );
        assert_eq!(
            GraphBuilder::parse_edge_list(3, "0 x"),
            Err(ParseError::BadNumber(0))
        );
        assert_eq!(
            GraphBuilder::parse_edge_list(2, "0 5"),
            Err(ParseError::VertexOutOfRange(0))
        );
    }

    #[test]
    fn unit_weight_graph_stays_unweighted() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 1);
        assert!(!b.build().is_weighted());
    }
}
