//! Table 1 — experiment settings: datasets, clusters, systems.
//!
//! Prints the paper's inventory side by side with the scaled synthetic
//! stand-ins this reproduction actually runs on.

use crate::Paper;
use mtvc_cluster::ClusterSpec;
use mtvc_graph::{Dataset, DegreeStats};
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind;

pub(super) fn run(paper: &mut Paper) {
    let mut data = Table::new(
        "Table 1 (datasets): paper statistics vs scaled stand-ins",
        &[
            "Name",
            "paper #Nodes",
            "paper #Edges",
            "paper davg",
            "sigma",
            "gen #Nodes",
            "gen #Edges",
            "gen davg",
            "gen dmax",
        ],
    );
    for d in Dataset::ALL {
        let info = d.info();
        let sd = paper.dataset(d);
        let stats = DegreeStats::of(&sd.graph);
        data.row(row!(
            info.name,
            info.paper_nodes,
            info.paper_edges,
            info.paper_avg_degree,
            sd.scale,
            stats.num_vertices,
            stats.num_edges,
            format!("{:.1}", stats.avg_degree),
            stats.max_degree
        ));
    }
    paper.emit("table1_datasets", &data);

    let mut clusters = Table::new(
        "Table 1 (clusters)",
        &["Name", "#Machines", "Memory", "Cores", "Disk", "Type"],
    );
    for c in [
        ClusterSpec::galaxy8(),
        ClusterSpec::galaxy27(),
        ClusterSpec::docker32(),
    ] {
        clusters.row(row!(
            c.name.clone(),
            c.machines,
            format!("{}x{}", c.machine.memory, c.machines),
            c.machine.cores,
            format!("{:?}", c.machine.disk),
            if c.machine.credit_rate > 0.0 {
                "cloud"
            } else {
                "local"
            }
        ));
    }
    paper.emit("table1_clusters", &clusters);

    let mut systems = Table::new(
        "Table 1 (systems)",
        &[
            "Name",
            "Synchronous",
            "Out-of-core",
            "Combiner",
            "Broadcast/mirror",
        ],
    );
    let spec = mtvc_cluster::MachineSpec::galaxy();
    for s in SystemKind::ALL {
        let p = s.profile(&spec);
        systems.row(row!(
            s.name(),
            match p.sync {
                mtvc_engine::SyncMode::Synchronous => "yes",
                mtvc_engine::SyncMode::PartialAsync => "partial",
                mtvc_engine::SyncMode::Asynchronous => "no",
            },
            if s.is_out_of_core() { "yes" } else { "no" },
            if p.combiner { "yes" } else { "no" },
            if s.is_broadcast() { "yes" } else { "no" }
        ));
    }
    paper.emit("table1_systems", &systems);
}
