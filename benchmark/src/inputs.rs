//! Reference inputs. Sizes, rates and job lists are constants; the
//! seed varies only the graph draw, the edge weights, the source
//! selection and the loadgen trace.

use mtvc_cluster::ClusterSpec;
use mtvc_graph::hash::mix64;
use mtvc_graph::{generators, Graph};

/// Full runs measure the reference sizes; smoke runs (`--smoke`) shrink
/// every input so all six workloads finish in a couple of seconds with
/// every check still on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// `(vertices, target edges)` of a reference graph.
#[derive(Debug, Clone, Copy)]
pub struct GraphSize(pub usize, pub usize);

impl Scale {
    /// `G20k`: MSSP and BKHS jobs (the graph every `BENCH_pr*.json` used).
    pub fn big(self) -> GraphSize {
        match self {
            Scale::Full => GraphSize(20_000, 80_000),
            Scale::Smoke => GraphSize(2_000, 8_000),
        }
    }

    /// `G5k`: BPPR jobs. The BPPR slab holds one cell per (vertex,
    /// source) pair and every vertex is a source, so a batch on `G20k`
    /// allocates 3.2 GB and takes 2.5 s whatever its width; on `G5k` a
    /// pass fits the run window several times.
    pub fn mid(self) -> GraphSize {
        match self {
            Scale::Full => GraphSize(5_000, 20_000),
            Scale::Smoke => GraphSize(600, 2_400),
        }
    }

    /// `G2k`: serving.
    pub fn small(self) -> GraphSize {
        match self {
            Scale::Full => GraphSize(2_000, 8_000),
            Scale::Smoke => GraphSize(600, 2_400),
        }
    }

    /// Divisor applied to every job width and source count.
    pub fn shrink(self) -> u64 {
        match self {
            Scale::Full => 1,
            Scale::Smoke => 4,
        }
    }
}

/// Seed of every reference graph's topology. The run seed draws the
/// edge weights, the sources and the request trace; the degree sequence
/// stays put, because on a power-law graph a few hubs decide how many
/// messages a job sends, and a benchmark whose work moved by a tenth
/// from seed to seed could not tell a regression from a draw.
const TOPOLOGY_SEED: u64 = 0x4D54_5643;

/// Power-law graph (γ = 2.4) with uniform edge weights in `1..=16`.
pub fn graph(size: GraphSize, seed: u64) -> Graph {
    let g = generators::power_law(size.0, size.1, 2.4, TOPOLOGY_SEED);
    generators::with_random_weights(&g, 1, 16, mix64(seed ^ 0x5745_4947_4854))
}

/// The four-machine cluster every workload is priced on.
pub fn cluster() -> ClusterSpec {
    ClusterSpec::galaxy(4)
}
