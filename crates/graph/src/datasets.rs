//! Paper-dataset presets (Table 1), as scaled synthetic stand-ins.
//!
//! The paper evaluates six public SNAP graphs. This module records their
//! published statistics and generates scaled synthetic counterparts with
//! the same average degree and a matching skew profile. The scale factor
//! σ divides the node count; machine memory capacities in
//! `mtvc-cluster` are divided by the same σ so congestion and overload
//! thresholds are crossed at the same *workload* values as in the paper
//! (see DESIGN.md §2).

use crate::csr::Graph;
use crate::generators;
use serde::{Deserialize, Serialize};

/// The six datasets of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    WebSt,
    Dblp,
    LiveJournal,
    Orkut,
    Twitter,
    Friendster,
}

/// Published statistics (Table 1) plus generation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetInfo {
    pub name: &'static str,
    /// Node count reported in Table 1.
    pub paper_nodes: u64,
    /// Edge count reported in Table 1.
    pub paper_edges: u64,
    /// Average degree reported in Table 1.
    pub paper_avg_degree: f64,
    /// Source column of Table 1.
    pub source: &'static str,
    /// Default scale divisor σ for this dataset.
    pub default_scale: u64,
    /// Skew of the synthetic stand-in (power-law exponent; lower =
    /// heavier tail). Twitter/Friendster use R-MAT instead.
    gamma: f64,
}

impl Dataset {
    pub const ALL: [Dataset; 6] = [
        Dataset::WebSt,
        Dataset::Dblp,
        Dataset::LiveJournal,
        Dataset::Orkut,
        Dataset::Twitter,
        Dataset::Friendster,
    ];

    pub fn info(self) -> DatasetInfo {
        match self {
            Dataset::WebSt => DatasetInfo {
                name: "Web-St",
                paper_nodes: 281_900,
                paper_edges: 2_300_000,
                paper_avg_degree: 8.2,
                source: "stanford.edu",
                default_scale: 256,
                gamma: 2.1,
            },
            Dataset::Dblp => DatasetInfo {
                name: "DBLP",
                paper_nodes: 613_600,
                paper_edges: 4_000_000,
                paper_avg_degree: 6.5,
                source: "dblp.com",
                default_scale: 256,
                gamma: 2.6,
            },
            Dataset::LiveJournal => DatasetInfo {
                name: "LiveJournal",
                paper_nodes: 4_000_000,
                paper_edges: 34_700_000,
                paper_avg_degree: 8.7,
                source: "livejournal.com",
                default_scale: 2048,
                gamma: 2.4,
            },
            Dataset::Orkut => DatasetInfo {
                name: "Orkut",
                paper_nodes: 3_100_000,
                paper_edges: 117_200_000,
                paper_avg_degree: 36.9,
                source: "orkut.com",
                default_scale: 2048,
                gamma: 2.3,
            },
            Dataset::Twitter => DatasetInfo {
                name: "Twitter",
                paper_nodes: 41_700_000,
                paper_edges: 1_500_000_000,
                paper_avg_degree: 35.2,
                source: "twitter.com",
                default_scale: 16384,
                gamma: 2.0,
            },
            Dataset::Friendster => DatasetInfo {
                name: "Friendster",
                paper_nodes: 65_600_000,
                paper_edges: 1_800_000_000,
                paper_avg_degree: 46.1,
                source: "snap.stanford.edu",
                default_scale: 16384,
                gamma: 2.2,
            },
        }
    }

    /// Short lowercase identifier (CSV columns, CLI args).
    pub fn key(self) -> &'static str {
        match self {
            Dataset::WebSt => "web-st",
            Dataset::Dblp => "dblp",
            Dataset::LiveJournal => "livejournal",
            Dataset::Orkut => "orkut",
            Dataset::Twitter => "twitter",
            Dataset::Friendster => "friendster",
        }
    }

    /// Scaled node count at divisor `scale`.
    pub fn scaled_nodes(self, scale: u64) -> usize {
        let info = self.info();
        (info.paper_nodes.div_ceil(scale)).max(64) as usize
    }

    /// Scaled *undirected* edge target at divisor `scale`, preserving
    /// the paper's average degree.
    pub fn scaled_edges(self, scale: u64) -> usize {
        let info = self.info();
        let n = self.scaled_nodes(scale) as f64;
        // avg_degree counts directed edges per node; undirected sampling
        // doubles them, hence the /2.
        ((n * info.paper_avg_degree) / 2.0).ceil() as usize
    }

    /// Generate the synthetic stand-in at this dataset's default scale.
    pub fn generate_default(self) -> Graph {
        self.generate(self.info().default_scale)
    }

    /// Generate the synthetic stand-in at scale divisor `scale`.
    ///
    /// Deterministic: the seed is derived from the dataset identity and
    /// the scale, so every run of the harness sees the same graph.
    pub fn generate(self, scale: u64) -> Graph {
        let info = self.info();
        let n = self.scaled_nodes(scale);
        let m = self.scaled_edges(scale);
        let seed = 0xD5_u64
            .wrapping_mul(31)
            .wrapping_add(self as u64)
            .wrapping_mul(1_000_003)
            .wrapping_add(scale);
        match self {
            Dataset::Twitter | Dataset::Friendster => {
                // Heavy-tailed web-scale graphs: R-MAT.
                let sc = (n as f64).log2().ceil() as u32;
                generators::rmat(sc, m, (0.57, 0.19, 0.19, 0.05), seed)
            }
            _ => generators::power_law(n, m, info.gamma, seed),
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.info().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_statistics_recorded() {
        let d = Dataset::Dblp.info();
        assert_eq!(d.paper_nodes, 613_600);
        assert_eq!(d.paper_avg_degree, 6.5);
        let t = Dataset::Twitter.info();
        assert_eq!(t.paper_edges, 1_500_000_000);
    }

    #[test]
    fn scaled_sizes_preserve_avg_degree() {
        let g = Dataset::Dblp.generate_default();
        let info = Dataset::Dblp.info();
        // Dedup loses a few edges; allow 25% slack below, none above 2x.
        assert!(
            g.avg_degree() > info.paper_avg_degree * 0.5,
            "avg degree {} too far below paper {}",
            g.avg_degree(),
            info.paper_avg_degree
        );
        assert!(g.avg_degree() < info.paper_avg_degree * 2.0);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Dataset::WebSt.generate(512), Dataset::WebSt.generate(512));
    }

    #[test]
    fn scaled_nodes_floor() {
        // Extreme scale still yields a usable graph.
        assert!(Dataset::WebSt.scaled_nodes(u64::MAX / 2) >= 64);
    }

    #[test]
    fn twitter_like_is_heavily_skewed() {
        let g = Dataset::Twitter.generate(65536);
        let (_, dmax) = g.max_degree();
        assert!(dmax as f64 > 10.0 * g.avg_degree());
    }

    #[test]
    fn all_datasets_generate_nonempty() {
        for d in Dataset::ALL {
            let g = d.generate(d.info().default_scale * 8);
            assert!(g.num_vertices() >= 64, "{d} too small");
            assert!(g.num_edges() > 0, "{d} has no edges");
        }
    }

    #[test]
    fn keys_are_unique() {
        let mut keys: Vec<_> = Dataset::ALL.iter().map(|d| d.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 6);
    }
}
