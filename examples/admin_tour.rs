//! An administrator's tour of the production Global File System: build
//! the 2005 deployment on the real TeraGrid topology (paper Fig. 6), wire
//! the multi-cluster exports, and inspect everything through the `mm*`
//! command views — including a live key rotation and an `mmfsck`.
//!
//! ```text
//! cargo run --example admin_tour
//! ```

use bytes::Bytes;
use gfs::admin::connect_clusters;
use gfs::commands::{mmauth_show, mmdf, mmdiag_tokens, mmlsfs, mmlsmount, mmremote_show};
use gfs::fscore::FsConfig;
use gfs::fsck::fsck;
use gfs::types::{OpenFlags, Owner};
use gfs::world::{FsParams, WorldBuilder};
use gfs_auth::handshake::AccessMode;
use scenarios::teragrid::{self, Site};
use simcore::{det_rng, Bandwidth, SimDuration};

fn main() {
    // The Fig. 6 backbone, with the GFS at SDSC and a client at NCSA.
    let mut b = WorldBuilder::new(2005);
    let tg = teragrid::build(b.topo());
    let sdsc_edge = tg.site(Site::Sdsc);
    let ncsa_edge = tg.site(Site::Ncsa);
    let servers = b.topo().node("sdsc-nsd-farm");
    b.topo().duplex_link(
        servers,
        sdsc_edge,
        Bandwidth::gbit(64.0).scaled(0.94),
        SimDuration::from_micros(100),
        "farm",
    );
    let c_sdsc = b.cluster("sdsc.teragrid");
    let c_ncsa = b.cluster("ncsa.teragrid");
    let fs = b.filesystem(
        c_sdsc,
        FsParams::ideal(
            FsConfig::small_test("gpfs-wan"),
            servers,
            vec![servers],
            Bandwidth::gbyte(6.0),
            SimDuration::from_micros(200),
        ),
    );
    let ncsa_client = b.client(c_ncsa, ncsa_edge, 128);
    let (mut sim, mut w) = b.build();
    connect_clusters(&mut w, c_sdsc, c_ncsa, "gpfs-wan", AccessMode::ReadWrite, servers);

    println!("## mmlsfs gpfs-wan\n{}", mmlsfs(&w, fs));
    println!("## mmdf gpfs-wan\n{}", mmdf(&w, fs));
    println!("## mmauth show (at sdsc)\n{}", mmauth_show(&w, c_sdsc));
    println!("## mmremotecluster/mmremotefs show (at ncsa)\n{}", mmremote_show(&w, c_ncsa));

    // Mount from NCSA and do some I/O so the views have content.
    let user = w.open_session(ncsa_client);
    user.mount(&mut sim, &mut w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
        r.expect("mount");
        user.open(sim, w, "/tour.dat", OpenFlags::ReadWrite, Owner::local(71003, 100), move |sim, w, r| {
            let h = r.unwrap();
            user.write(sim, w, h, 0, Bytes::from(vec![1u8; 1 << 20]), move |sim, w, r| {
                r.unwrap();
                user.fsync(sim, w, h, |_s, _w, r| r.unwrap());
            });
        });
    });
    sim.run(&mut w);

    println!("## mmlsmount gpfs-wan -L\n{}", mmlsmount(&w, fs));
    println!("## mmdiag --tokens\n{}", mmdiag_tokens(&w, fs));
    println!("## mmdf gpfs-wan (after writes)\n{}", mmdf(&w, fs));

    // Key rotation, live.
    println!("## key rotation (mmauth genkey new/commit)");
    let mut rng = det_rng(2005, "rotation");
    let old_fp = w.clusters[c_ncsa.0 as usize].auth.public_key().fingerprint();
    let new_pub = w.clusters[c_ncsa.0 as usize].auth.genkey_new(512, &mut rng);
    w.clusters[c_sdsc.0 as usize]
        .auth
        .mmauth_update_key("ncsa.teragrid", new_pub);
    w.clusters[c_ncsa.0 as usize].auth.genkey_commit();
    w.clusters[c_sdsc.0 as usize]
        .auth
        .mmauth_finalize_key("ncsa.teragrid");
    let new_fp = w.clusters[c_ncsa.0 as usize].auth.public_key().fingerprint();
    println!("  ncsa key rotated: {old_fp} -> {new_fp}");
    user.mount(&mut sim, &mut w, "gpfs-wan", AccessMode::ReadOnly, |_s, _w, r| {
        println!("  remount under new key: ok = {}\n", r.is_ok());
    });
    sim.run(&mut w);

    // Capacity expansion, the §8 plan: add disks, then restripe.
    println!("## mmadddisk + mmrestripefs (paper §8 expansion)");
    {
        let core = &mut w.fss[fs.0 as usize].core;
        let before = core.nsd_usage();
        core.add_nsds(8);
        let moved = core.restripe();
        let after = core.nsd_usage();
        println!("  usage before: {before:?}");
        println!("  added 8 NSDs, restripe moved {moved} blocks");
        println!("  usage after:  {after:?}\n");
    }

    // And a consistency check.
    let report = fsck(&w.fss[fs.0 as usize].core);
    println!(
        "## mmfsck gpfs-wan (after expansion)\n  clean: {} ({} inodes, {} files, {} blocks)",
        report.is_clean(),
        report.inodes,
        report.files,
        report.blocks
    );
}
