//! The paper's §4 "dominant mode of operation for grid supercomputing":
//! Enzo runs at SDSC and writes its output *directly* to a central GFS at
//! another site; visualization consumers at two more sites read pieces of
//! it without ever ingesting the dataset whole.
//!
//! ```text
//! cargo run --release --example enzo_checkpoint
//! ```

use gfs::fscore::{DataMode, FsConfig};
use gfs::stream::{gfs_stream, StreamDir};
use gfs::types::{ClientId, FsId};
use gfs::world::{FsParams, GfsWorld, WorldBuilder};
use simcore::{Bandwidth, Sim, SimDuration, GBYTE, MBYTE};
use simnet::Network;
use std::cell::Cell;
use std::rc::Rc;
use workloads::{enzo, Phase};

fn main() {
    // Central repository site + compute site + two visualization sites.
    let mut b = WorldBuilder::new(12);
    let repo = b.topo().node("repo-servers");
    let hub = b.topo().node("tg-hub");
    let compute = b.topo().node("sdsc-datastar");
    let vis1 = b.topo().node("ncsa-vis");
    let vis2 = b.topo().node("anl-vis");
    b.topo().duplex_link(repo, hub, Bandwidth::gbit(30.0), SimDuration::from_millis(10), "repo");
    b.topo().duplex_link(compute, hub, Bandwidth::gbit(30.0), SimDuration::from_millis(27), "sdsc");
    b.topo().duplex_link(vis1, hub, Bandwidth::gbit(10.0), SimDuration::from_millis(3), "ncsa");
    b.topo().duplex_link(vis2, hub, Bandwidth::gbit(10.0), SimDuration::from_millis(1), "anl");

    let cl = b.cluster("central.repo");
    let fs = b.filesystem(
        cl,
        FsParams::ideal(
            FsConfig {
                name: "gpfs-repo".into(),
                block_size: 1 << 20,
                nsd_blocks: 1 << 26,
                nsd_count: 64,
                data_mode: DataMode::Synthetic,
            },
            repo,
            vec![repo],
            Bandwidth::gbyte(6.0),
            SimDuration::from_micros(200),
        ),
    );
    let enzo_client = b.client(cl, compute, 16);
    let vis_a = b.client(cl, vis1, 16);
    let vis_b = b.client(cl, vis2, 16);
    let (mut sim, mut w) = b.build();
    Network::enable_monitoring(&mut sim, &mut w, SimDuration::from_secs(5));

    // A scaled Enzo hour: 12 checkpoints of ~8.3 GB with compute between
    // (1/10 of the paper's 1 TB/hour, so the example runs instantly).
    let wl = enzo(12, 8_333 * MBYTE, SimDuration::from_secs(30));
    println!(
        "Enzo campaign: {} checkpoints, {:.1} GB total, {} compute",
        12,
        wl.write_bytes() as f64 / GBYTE as f64,
        wl.compute_time()
    );

    // Finished loops: the Enzo run and the two visualization consumers.
    // Link monitoring reschedules itself forever, so the run stops when all
    // three are done rather than when the event queue drains.
    let finished = Rc::new(Cell::new(0));
    run_phases(
        &mut sim,
        &mut w,
        enzo_client,
        fs,
        wl.phases.clone(),
        0,
        finished.clone(),
    );

    // Visualization: each site repeatedly reads 2 GB slices as soon as
    // checkpoints land — partial access, never the whole dataset.
    for (name, c) in [("NCSA", vis_a), ("ANL", vis_b)] {
        schedule_vis(&mut sim, &mut w, c, fs, name, 8, finished.clone());
    }

    let all_done = sim.run_until(&mut w, |_| finished.get() == 3);
    assert!(all_done, "the queue drained before the campaign ended");
    let end = sim.now();
    println!(
        "campaign finished at {end}; total bytes through the repo: {:.1} GB",
        w.net.total_delivered() as f64 / GBYTE as f64
    );
    let series = w.net.finish_monitoring(end);
    let repo_in = series.iter().find(|s| s.name == "repo<").expect("repo link");
    println!(
        "repo ingest: peak {:.2} Gb/s, mean {:.2} Gb/s",
        repo_in.max() * 8.0 / 1e9,
        repo_in.mean() * 8.0 / 1e9
    );
}

/// Drive a phase list through the streaming path.
fn run_phases(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    mut phases: Vec<Phase>,
    checkpoint_no: u32,
    finished: Rc<Cell<u32>>,
) {
    if phases.is_empty() {
        println!("[{:>9}] Enzo run complete", sim.now());
        finished.set(finished.get() + 1);
        return;
    }
    let phase = phases.remove(0);
    match phase {
        Phase::Compute(d) => {
            sim.after(d, move |sim, w| {
                run_phases(sim, w, client, fs, phases, checkpoint_no, finished)
            });
        }
        Phase::Write { bytes } | Phase::WriteAt { bytes, .. } => {
            let t0 = sim.now();
            gfs_stream(sim, w, client, fs, bytes, StreamDir::Write, 1, move |sim, w| {
                let dt = sim.now().since(t0);
                println!(
                    "[{:>9}] checkpoint {:>2}: {:>6.1} GB in {} ({:.2} GB/s)",
                    sim.now(),
                    checkpoint_no,
                    bytes as f64 / GBYTE as f64,
                    dt,
                    bytes as f64 / GBYTE as f64 / dt.as_secs_f64()
                );
                run_phases(sim, w, client, fs, phases, checkpoint_no + 1, finished);
            });
        }
        Phase::Read { bytes } | Phase::ReadAt { bytes, .. } => {
            gfs_stream(sim, w, client, fs, bytes, StreamDir::Read, 1, move |sim, w| {
                run_phases(sim, w, client, fs, phases, checkpoint_no, finished)
            });
        }
    }
}

/// A visualization consumer: read a slice, think, repeat.
fn schedule_vis(
    sim: &mut Sim<GfsWorld>,
    _w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    site: &'static str,
    remaining: u32,
    finished: Rc<Cell<u32>>,
) {
    if remaining == 0 {
        finished.set(finished.get() + 1);
        return;
    }
    let slice = 2 * GBYTE;
    // Wait for data to accumulate, then read a slice.
    sim.after(SimDuration::from_secs(45), move |sim, w| {
        let t0 = sim.now();
        gfs_stream(sim, w, client, fs, slice, StreamDir::Read, 2, move |sim, w| {
            let dt = sim.now().since(t0);
            println!(
                "[{:>9}] {site}: visualized a {:.0} GB slice in {dt}",
                sim.now(),
                slice as f64 / GBYTE as f64
            );
            schedule_vis(sim, w, client, fs, site, remaining - 1, finished);
        });
    });
}
