//! The Tier-1 sentinel for the paper's golden CSVs: the two cheapest
//! artifacts in a debug build. Table 1 (dataset stand-ins, cluster
//! presets, system inventory) renders in about 0.5 s; Figure 8 runs 15
//! jobs on the Twitter stand-in in about 7 s, including its all-failed
//! BPPR and BKHS sweeps. The `paper` binary checks every artifact:
//!
//! ```sh
//! cargo run --release -p mtvc-bench --bin paper
//! ```

use mtvc_bench::{artifacts, check_golden, Paper};

#[test]
fn cheapest_artifacts_match_their_golden_csvs() {
    let mut paper = Paper::default();
    for (_, run) in artifacts::ALL
        .iter()
        .filter(|(id, _)| ["table1", "fig08"].contains(id))
    {
        run(&mut paper);
    }
    assert_eq!(paper.emitted().len(), 4, "table1 emits 3 tables, fig08 one");
    for (id, csv) in paper.emitted() {
        check_golden(id, csv).unwrap_or_else(|e| panic!("{e}"));
    }
}
