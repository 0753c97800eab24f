//! Out-of-core adjacency substrate: partitioned, sequential-friendly
//! on-"disk" layout behind a byte store.
//!
//! GraphD's distributed semi-streaming model (paper §2.2, §4.4) keeps
//! only vertex state resident and streams adjacency from disk. This
//! module provides the real byte layer for that regime: each worker's
//! local-index-ordered vertex list is sliced into **contiguous CSR
//! chunks** (partitions), each chunk encoded with delta-varint
//! neighbor compression ([`crate::varint`]) and written to a
//! [`MemStore`], a deterministic in-memory byte map. Every byte the
//! engine's partition pager moves is a byte that really crossed this
//! store, not an estimate.
//!
//! The chunk codec preserves CSR neighbor order exactly (neighbor
//! order is observable: programs iterate `ctx.neighbors()` and
//! emission order feeds routing), so a paged run decodes adjacency
//! bit-identical to the resident `Graph`.

use crate::csr::{Graph, VertexId};
use crate::varint::{read_varint, unzigzag, write_varint, zigzag};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default target encoded bytes per adjacency partition.
pub const DEFAULT_PARTITION_BYTES: u64 = 64 * 1024;

/// The flat keyed byte store the pager moves partitions through: a
/// deterministic in-memory map with no disk fixtures, but real
/// encode/write/read/decode traffic. Keys are opaque `u64`s.
#[derive(Default)]
pub struct MemStore {
    map: Mutex<HashMap<u64, Vec<u8>>>,
    written: AtomicU64,
    read: AtomicU64,
}

impl MemStore {
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Total bytes ever written through [`MemStore::put`].
    pub fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Total bytes ever read through [`MemStore::get`].
    pub fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }

    /// Store `bytes` under `key`, replacing any previous value.
    pub fn put(&self, key: u64, bytes: &[u8]) {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.map.lock().unwrap().insert(key, bytes.to_vec());
    }

    /// Read `key` into `out` (cleared first). Returns `false` when the
    /// key is absent.
    pub fn get(&self, key: u64, out: &mut Vec<u8>) -> bool {
        out.clear();
        match self.map.lock().unwrap().get(&key) {
            Some(bytes) => {
                self.read.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                out.extend_from_slice(bytes);
                true
            }
            None => false,
        }
    }
}

/// Encode the adjacency of `vertices` (a contiguous slice of one
/// worker's local-index-ordered list) as one chunk:
///
/// ```text
/// varint(n)  flag(1 = weighted)
/// per vertex: varint(degree)
///             per neighbor: varint(zigzag(delta from previous))
///             per neighbor (weighted only): varint(weight)
/// ```
///
/// Neighbor order is preserved exactly — deltas are signed so unsorted
/// CSR rows cost a little, sorted rows compress hard.
pub fn encode_chunk(graph: &Graph, vertices: &[VertexId], out: &mut Vec<u8>) {
    out.clear();
    write_varint(out, vertices.len() as u64);
    out.push(graph.is_weighted() as u8);
    for &v in vertices {
        let neighbors = graph.neighbors(v);
        write_varint(out, neighbors.len() as u64);
        let mut prev = 0i64;
        for &t in neighbors {
            write_varint(out, zigzag(t as i64 - prev));
            prev = t as i64;
        }
        if graph.is_weighted() {
            let weights = graph.edge_weights(v);
            for i in 0..neighbors.len() {
                write_varint(out, weights.get(i) as u64);
            }
        }
    }
}

/// One decoded partition: a mini-CSR over the chunk's contiguous
/// local-index range. Buffers are reused across
/// [`decode_chunk_into`] calls, so steady-state paging re-decodes
/// without allocating.
#[derive(Debug, Default, Clone)]
pub struct DecodedChunk {
    li_start: u32,
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
    weights: Vec<u32>,
}

impl DecodedChunk {
    /// First local index the chunk covers.
    pub fn li_start(&self) -> u32 {
        self.li_start
    }

    /// Vertices in the chunk.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbors of the vertex at local index `li` (absolute — the
    /// chunk subtracts its own base).
    #[inline]
    pub fn neighbors_of(&self, li: u32) -> &[VertexId] {
        let i = (li - self.li_start) as usize;
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Edge weights of the vertex at local index `li`; `None` when the
    /// graph is unweighted (unit weights).
    #[inline]
    pub fn weights_of(&self, li: u32) -> Option<&[u32]> {
        if self.weights.is_empty() {
            return None;
        }
        let i = (li - self.li_start) as usize;
        Some(&self.weights[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Exact resident bytes of the decoded representation — what the
    /// partition cache charges against its budget.
    pub fn resident_bytes(&self) -> u64 {
        (self.offsets.len() * 4 + self.neighbors.len() * 4 + self.weights.len() * 4) as u64
    }
}

/// Decode a chunk produced by [`encode_chunk`] into `chunk`, reusing
/// its buffers. `li_start` stamps the absolute base of the chunk's
/// local-index range.
pub fn decode_chunk_into(bytes: &[u8], li_start: u32, chunk: &mut DecodedChunk) {
    let mut pos = 0usize;
    let n = read_varint(bytes, &mut pos) as usize;
    let weighted = bytes.get(pos).copied().unwrap_or(0) != 0;
    pos += 1;
    chunk.li_start = li_start;
    chunk.offsets.clear();
    chunk.neighbors.clear();
    chunk.weights.clear();
    chunk.offsets.push(0);
    for _ in 0..n {
        let degree = read_varint(bytes, &mut pos) as usize;
        let mut prev = 0i64;
        for _ in 0..degree {
            prev += unzigzag(read_varint(bytes, &mut pos));
            chunk.neighbors.push(prev as VertexId);
        }
        if weighted {
            for _ in 0..degree {
                chunk.weights.push(read_varint(bytes, &mut pos) as u32);
            }
        }
        chunk.offsets.push(chunk.neighbors.len() as u32);
    }
    debug_assert!(pos <= bytes.len(), "chunk decode overran its bytes");
}

/// Shape of one adjacency partition: a contiguous local-index range of
/// one worker plus its encoded/decoded sizes (both exact — the encoded
/// size is what a load really reads from the store, the decoded size
/// is what residency really charges the cache budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMeta {
    pub li_start: u32,
    pub li_end: u32,
    pub edges: u64,
    pub encoded_bytes: u64,
    pub decoded_bytes: u64,
}

/// The partitioned on-"disk" adjacency of one run: per worker, an
/// ordered list of contiguous CSR chunks, each resident only in the
/// store until a pager loads it.
pub struct PartitionedAdjacency {
    store: Arc<MemStore>,
    parts: Vec<Vec<PartitionMeta>>,
}

impl std::fmt::Debug for PartitionedAdjacency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedAdjacency")
            .field("workers", &self.parts.len())
            .field(
                "partitions",
                &self.parts.iter().map(Vec::len).sum::<usize>(),
            )
            .finish()
    }
}

impl PartitionedAdjacency {
    /// Slice `worker_vertices` (each list in local-index order) into
    /// partitions of roughly `partition_bytes` encoded bytes, encode
    /// each, and write them all to `store`. After this the store holds
    /// the only copy the pager ever reads. Keys are `(worker,
    /// partition)` only, so `store` must not be shared with another
    /// layout.
    pub fn build(
        graph: &Graph,
        worker_vertices: &[Vec<VertexId>],
        partition_bytes: u64,
        store: Arc<MemStore>,
    ) -> PartitionedAdjacency {
        let target = partition_bytes.max(1);
        let mut buf = Vec::new();
        let parts = worker_vertices
            .iter()
            .enumerate()
            .map(|(w, vertices)| {
                let mut metas = Vec::new();
                let mut start = 0usize;
                while start < vertices.len() {
                    // Grow the slice until the *estimated* encoded size
                    // passes the target; the exact cut is re-encoded
                    // once, so build cost stays linear.
                    let mut end = start;
                    let mut est = 0u64;
                    while end < vertices.len() && (est < target || end == start) {
                        let v = vertices[end];
                        est += 1 + graph.degree(v) as u64 * if graph.is_weighted() { 3 } else { 2 };
                        end += 1;
                    }
                    encode_chunk(graph, &vertices[start..end], &mut buf);
                    let edges = vertices[start..end]
                        .iter()
                        .map(|&v| graph.degree(v) as u64)
                        .sum::<u64>();
                    let decoded = ((end - start + 1) * 4) as u64
                        + edges * if graph.is_weighted() { 8 } else { 4 };
                    let p = metas.len();
                    store.put(chunk_key(w, p), &buf);
                    metas.push(PartitionMeta {
                        li_start: start as u32,
                        li_end: end as u32,
                        edges,
                        encoded_bytes: buf.len() as u64,
                        decoded_bytes: decoded,
                    });
                    start = end;
                }
                metas
            })
            .collect();
        PartitionedAdjacency { store, parts }
    }

    pub fn workers(&self) -> usize {
        self.parts.len()
    }

    /// Partition shapes of worker `w`, in local-index order.
    pub fn partitions(&self, w: usize) -> &[PartitionMeta] {
        &self.parts[w]
    }

    /// Total encoded bytes of worker `w`'s adjacency on the store.
    pub fn encoded_bytes(&self, w: usize) -> u64 {
        self.parts[w].iter().map(|m| m.encoded_bytes).sum()
    }

    /// Total decoded (resident-if-loaded) bytes of worker `w`.
    pub fn decoded_bytes(&self, w: usize) -> u64 {
        self.parts[w].iter().map(|m| m.decoded_bytes).sum()
    }

    /// Read partition `(w, p)` from the store and decode it into
    /// `chunk` (buffers reused). Returns the encoded bytes actually
    /// read — the measured load traffic.
    pub fn load_into(
        &self,
        w: usize,
        p: usize,
        raw: &mut Vec<u8>,
        chunk: &mut DecodedChunk,
    ) -> u64 {
        let meta = self.parts[w][p];
        let found = self.store.get(chunk_key(w, p), raw);
        assert!(found, "adjacency partition ({w},{p}) missing from store");
        debug_assert_eq!(raw.len() as u64, meta.encoded_bytes);
        decode_chunk_into(raw, meta.li_start, chunk);
        debug_assert_eq!(chunk.len(), (meta.li_end - meta.li_start) as usize);
        raw.len() as u64
    }
}

#[inline]
fn chunk_key(w: usize, p: usize) -> u64 {
    ((w as u64) << 24) | p as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::partition::{HashPartitioner, Partitioner};

    fn worker_lists(g: &Graph, workers: usize) -> Vec<Vec<VertexId>> {
        HashPartitioner::default()
            .partition(g, workers)
            .worker_vertices()
    }

    fn check_roundtrip(g: &Graph, partition_bytes: u64) {
        let lists = worker_lists(g, 3);
        let store = Arc::new(MemStore::new());
        let paged = PartitionedAdjacency::build(g, &lists, partition_bytes, store.clone());
        assert!(store.bytes_written() > 0, "build writes real bytes");
        let mut raw = Vec::new();
        let mut chunk = DecodedChunk::default();
        for (w, list) in lists.iter().enumerate() {
            // Partitions tile the worker's local-index range exactly.
            let metas = paged.partitions(w);
            let mut expect_start = 0u32;
            for m in metas {
                assert_eq!(m.li_start, expect_start);
                assert!(m.li_end > m.li_start);
                expect_start = m.li_end;
            }
            assert_eq!(expect_start as usize, list.len());
            for (p, m) in metas.iter().enumerate() {
                let read = paged.load_into(w, p, &mut raw, &mut chunk);
                assert_eq!(read, m.encoded_bytes);
                assert_eq!(chunk.resident_bytes(), m.decoded_bytes);
                for li in m.li_start..m.li_end {
                    let v = list[li as usize];
                    assert_eq!(chunk.neighbors_of(li), g.neighbors(v), "vertex {v}");
                    match chunk.weights_of(li) {
                        Some(ws) => {
                            assert!(g.is_weighted());
                            let expect: Vec<u32> =
                                (0..g.degree(v)).map(|i| g.edge_weights(v).get(i)).collect();
                            assert_eq!(ws, &expect[..], "vertex {v} weights");
                        }
                        None => assert!(!g.is_weighted()),
                    }
                }
            }
        }
        assert!(store.bytes_read() > 0, "loads read real bytes");
    }

    #[test]
    fn chunks_roundtrip_unweighted() {
        let g = generators::power_law(400, 1800, 2.3, 7);
        check_roundtrip(&g, 512);
    }

    #[test]
    fn chunks_roundtrip_weighted() {
        let g =
            generators::with_random_weights(&generators::power_law(300, 1400, 2.2, 9), 1, 50, 3);
        check_roundtrip(&g, 256);
    }

    #[test]
    fn tiny_partition_target_still_tiles() {
        // target 1 byte: every partition is a single vertex.
        let g = generators::ring(64, true);
        check_roundtrip(&g, 1);
    }

    #[test]
    fn delta_encoding_beats_raw_bytes_on_sorted_neighbors() {
        let g = generators::grid(40, 40);
        let lists = worker_lists(&g, 3);
        let store = Arc::new(MemStore::new());
        let paged = PartitionedAdjacency::build(&g, &lists, DEFAULT_PARTITION_BYTES, store);
        let encoded: u64 = (0..3).map(|w| paged.encoded_bytes(w)).sum();
        let raw = g.num_edges() as u64 * 4;
        assert!(
            encoded < raw,
            "delta-varint {encoded}B must beat raw {raw}B"
        );
    }
}
