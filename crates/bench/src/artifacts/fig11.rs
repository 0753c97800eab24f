//! Figure 11 — correlations of different factors in a typical
//! synchronous VC-system.
//!
//! The paper's diagram is qualitative; we reproduce it quantitatively:
//! Pearson correlations measured over batch sweeps confirm each arrow —
//! workload → message congestion (+), congestion → memory used (+,
//! non-out-of-core), memory → running time (+), #machines → congestion
//! per machine (−), congestion → disk utilization (+, out-of-core).

use crate::{Paper, PaperTask, BATCH_AXIS};
use mtvc_cluster::ClusterSpec;
use mtvc_graph::Dataset;
use mtvc_metrics::{row, Table};
use mtvc_systems::SystemKind;

/// Ranks with average ties.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap());
    let mut r = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0;
        for &k in &idx[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

/// Spearman rank correlation — robust to the monotone-but-saturating
/// relationships (disk utilization pins at 100%) in these sweeps.
fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    pearson(&ranks(xs), &ranks(ys))
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if vx <= 0.0 || vy <= 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

pub(super) fn run(paper: &mut Paper) {
    let sd = paper.dataset(Dataset::Dblp);
    let cluster = sd.cluster(ClusterSpec::galaxy8());

    // Sample grid over workloads (in-memory Pregel+, 2 batches fixed).
    let workloads = [512u64, 1024, 2048, 4096, 6144, 8192];
    let mut w_ax = Vec::new();
    let mut congestion = Vec::new();
    let mut memory = Vec::new();
    let mut time = Vec::new();
    for &w in &workloads {
        let r = paper.cell(&sd, &cluster, SystemKind::PregelPlus, PaperTask::Bppr(w), 2);
        w_ax.push(w as f64);
        congestion.push(r.stats.congestion());
        memory.push(r.stats.peak_memory.as_f64());
        time.push(r.plot_time().as_secs());
    }

    // Machines axis (same workload, more machines => less congestion
    // per machine; we use peak memory as its observable).
    let machine_axis = [2usize, 4, 8, 16];
    let mut m_ax = Vec::new();
    let mut mem_per_machine = Vec::new();
    for &m in &machine_axis {
        let c = sd.cluster(ClusterSpec::galaxy(m));
        let r = paper.cell(&sd, &c, SystemKind::PregelPlus, PaperTask::Bppr(2048), 2);
        m_ax.push(m as f64);
        mem_per_machine.push(r.stats.peak_memory.as_f64());
    }

    // Out-of-core: congestion vs disk utilization (GraphD, varying
    // batches varies per-round congestion).
    let mut cong_ooc = Vec::new();
    let mut util_ooc = Vec::new();
    for r in paper.sweep(
        &sd,
        &cluster,
        SystemKind::GraphD,
        PaperTask::Bppr(4096),
        &BATCH_AXIS,
    ) {
        cong_ooc.push(r.stats.congestion());
        util_ooc.push(r.stats.max_disk_utilization);
    }

    let rows: Vec<(&str, f64, f64)> = vec![
        (
            "workload -> message congestion",
            spearman(&w_ax, &congestion),
            0.9,
        ),
        (
            "congestion -> memory used (non-ooc)",
            spearman(&congestion, &memory),
            0.9,
        ),
        ("memory used -> running time", spearman(&memory, &time), 0.7),
        (
            "#machines -> memory per machine",
            spearman(&m_ax, &mem_per_machine),
            -0.7,
        ),
        (
            "congestion -> disk utilization (ooc)",
            spearman(&cong_ooc, &util_ooc),
            0.6,
        ),
    ];
    let mut t = Table::new(
        "Figure 11: measured correlations behind the factor diagram",
        &["edge", "Spearman r", "expected sign"],
    );
    for (label, r, threshold) in &rows {
        t.row(row!(
            *label,
            format!("{r:+.3}"),
            if *threshold > 0.0 { "+" } else { "-" }
        ));
        if *threshold > 0.0 {
            assert!(r >= threshold, "{label}: r={r} below {threshold}");
        } else {
            assert!(r <= threshold, "{label}: r={r} above {threshold}");
        }
    }
    paper.emit("fig11", &t);
}
