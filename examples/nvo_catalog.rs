//! The NVO argument (paper §1/§5): a 50 TB astronomy archive "used more
//! as a database", queried for individual pieces of very large files. One
//! central GFS copy beats shipping 50 TB to every site with GridFTP.
//!
//! This example runs a query campaign both ways — direct WAN partial
//! access through the Global File System versus staging the dataset first
//! — and prints the ledger.
//!
//! ```text
//! cargo run --release --example nvo_catalog
//! ```

use gfs::stream::{run_stream, StreamSpec};
use gfs::world::{GfsWorld, WorldBuilder};
use gridftp::TransferSpec;
use simcore::{det_rng, Bandwidth, Sim, SimDuration, SimTime, GBYTE, MBYTE, TBYTE};
use simnet::NodeId;
use std::cell::Cell;
use std::rc::Rc;
use workloads::{accessed_fraction, nvo_queries, Phase};

/// Scaled-down NVO: 2 TB archive (1/25 of the real 50 TB), 400 queries.
const DATASET: u64 = 2 * TBYTE;
const QUERIES: u32 = 400;

fn build() -> (Sim<GfsWorld>, GfsWorld, NodeId, NodeId) {
    let mut b = WorldBuilder::new(21);
    let archive = b.topo().node("sdsc-archive");
    let observatory = b.topo().node("remote-site");
    b.topo().duplex_link(
        archive,
        observatory,
        Bandwidth::gbit(10.0).scaled(0.94),
        SimDuration::from_millis(30),
        "wan",
    );
    b.cluster("nvo");
    let (sim, w) = b.build();
    (sim, w, archive, observatory)
}

fn main() {
    let mut rng = det_rng(5, "nvo-queries");
    let wl = nvo_queries(&mut rng, QUERIES, DATASET, 10 * MBYTE, 500 * MBYTE);
    let frac = accessed_fraction(&wl, DATASET);
    println!(
        "NVO query campaign: {QUERIES} queries, {:.1} GB touched of {:.1} TB ({:.2}%)",
        wl.read_bytes() as f64 / GBYTE as f64,
        DATASET as f64 / TBYTE as f64,
        frac * 100.0
    );

    // ---------------- Strategy A: direct GFS partial access -----------
    let (mut sim, mut w, archive, site) = build();
    let t = Rc::new(Cell::new(0u64));
    run_queries(&mut sim, &mut w, archive, site, wl.phases.clone(), t.clone());
    sim.run(&mut w);
    let gfs_secs = SimTime::from_nanos(t.get()).as_secs_f64();
    println!("A) Global File System, query in place: {gfs_secs:>10.1} s");

    // ---------------- Strategy B: GridFTP staging ---------------------
    let (mut sim, mut w, archive, site) = build();
    let t = Rc::new(Cell::new(0u64));
    let t2 = t.clone();
    let spec = TransferSpec::new(archive, site, DATASET)
        .with_streams(8)
        .with_window(32 * MBYTE);
    gridftp::transfer(&mut sim, &mut w, spec, move |sim, _w| {
        t2.set(sim.now().as_nanos())
    });
    sim.run(&mut w);
    let stage_secs = SimTime::from_nanos(t.get()).as_secs_f64();
    // Local queries after staging: 2 GB/s local array.
    let local_secs = wl.read_bytes() as f64 / (2.0 * GBYTE as f64);
    println!(
        "B) GridFTP stage-then-query:           {:>10.1} s  ({stage_secs:.0} s staging + {local_secs:.0} s local)",
        stage_secs + local_secs
    );
    println!(
        "-> staging penalty: {:.0}x; and every additional site pays it again,",
        (stage_secs + local_secs) / gfs_secs
    );
    println!("   while the GFS copy is shared (\"updates, data integrity, backups ...");
    println!("   handled in a much more satisfactory way\", paper section 5).");
}

/// Run ReadAt queries sequentially over the WAN as windowed streams.
fn run_queries(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    archive: NodeId,
    site: NodeId,
    mut phases: Vec<Phase>,
    done_at: Rc<Cell<u64>>,
) {
    let Some(phase) = phases.first().cloned() else {
        done_at.set(sim.now().as_nanos());
        return;
    };
    phases.remove(0);
    match phase {
        Phase::ReadAt { bytes, .. } | Phase::Read { bytes } => {
            let spec = StreamSpec::read(site, vec![archive], bytes).with_window(64 * MBYTE);
            run_stream(sim, w, spec, move |sim, w| {
                run_queries(sim, w, archive, site, phases, done_at);
            });
        }
        Phase::Compute(d) => {
            sim.after(d, move |sim, w| {
                run_queries(sim, w, archive, site, phases, done_at)
            });
        }
        Phase::Write { .. } | Phase::WriteAt { .. } => unreachable!("NVO workload is read-only"),
    }
}
