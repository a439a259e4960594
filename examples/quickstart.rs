//! Quickstart: build a two-site Global File System, mount it across a
//! simulated WAN with RSA cluster authentication, and do real file I/O.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use gfs::admin::connect_clusters;
use gfs::fscore::FsConfig;
use gfs::types::{OpenFlags, Owner};
use gfs::world::{FsParams, WorldBuilder};
use gfs_auth::handshake::AccessMode;
use simcore::{Bandwidth, SimDuration};

fn main() {
    // ------------------------------------------------------------------
    // 1. Topology: SDSC owns the filesystem; NCSA is 30 ms away.
    // ------------------------------------------------------------------
    let mut b = WorldBuilder::new(7);
    let sdsc = b.topo().node("sdsc");
    let ncsa = b.topo().node("ncsa");
    b.topo().duplex_link(
        sdsc,
        ncsa,
        Bandwidth::gbit(10.0),
        SimDuration::from_millis(30),
        "teragrid",
    );

    // 2. Clusters (each gets an RSA keypair — `mmauth genkey`).
    let sdsc_cluster = b.cluster("sdsc.teragrid");
    let ncsa_cluster = b.cluster("ncsa.teragrid");

    // 3. The filesystem: 8 NSDs behind a server at SDSC.
    b.filesystem(
        sdsc_cluster,
        FsParams::ideal(
            FsConfig::small_test("gpfs-wan"),
            sdsc,
            vec![sdsc],
            Bandwidth::mbyte(400.0),
            SimDuration::from_micros(300),
        ),
    );
    let writer = b.client(sdsc_cluster, sdsc, 256);
    let reader = b.client(ncsa_cluster, ncsa, 256);
    let (mut sim, mut w) = b.build();
    // One user session on each node.
    let writer = w.open_session(writer);
    let reader = w.open_session(reader);

    // 4. Multi-cluster trust: mmauth add/grant + mmremotecluster/-fs.
    connect_clusters(
        &mut w,
        sdsc_cluster,
        ncsa_cluster,
        "gpfs-wan",
        AccessMode::ReadWrite,
        sdsc,
    );

    // ------------------------------------------------------------------
    // 5. SDSC writes a file; NCSA mounts over the WAN and reads it back.
    // ------------------------------------------------------------------
    let payload = Bytes::from_static(b"Massive High-Performance Global File Systems for Grid computing");
    let expect = payload.clone();
    writer.mount(&mut sim, &mut w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
        r.expect("local mount");
        println!("[{:>9}] SDSC mounted gpfs-wan locally", sim.now());
        writer.open(
            sim,
            w,
            "/hello.dat",
            OpenFlags::ReadWrite,
            Owner::local(500, 100),
            move |sim, w, r| {
                let h = r.expect("open for write");
                writer.write(sim, w, h, 0, payload, move |sim, w, r| {
                    r.expect("write");
                    writer.close(sim, w, h, move |sim, w, r| {
                        r.expect("close flushes to the NSDs");
                        println!("[{:>9}] SDSC wrote and closed /hello.dat", sim.now());
                        // Remote side: RSA challenge-response, then read.
                        reader.mount(
                            sim,
                            w,
                            "gpfs-wan",
                            AccessMode::ReadWrite,
                            move |sim, w, r| {
                                r.expect("remote mount (mmauth handshake)");
                                println!(
                                    "[{:>9}] NCSA authenticated + mounted over the WAN",
                                    sim.now()
                                );
                                reader.open(
                                    sim,
                                    w,
                                    "/hello.dat",
                                    OpenFlags::Read,
                                    Owner::local(71003, 100),
                                    move |sim, w, r| {
                                        let h = r.expect("open for read");
                                        reader.read(
                                            sim,
                                            w,
                                            h,
                                            0,
                                            expect.len() as u64,
                                            move |sim, _w, r| {
                                                let got = r.expect("read");
                                                assert_eq!(got, expect, "bytes survive the WAN");
                                                println!(
                                                    "[{:>9}] NCSA read back {} bytes: \"{}\"",
                                                    sim.now(),
                                                    got.len(),
                                                    String::from_utf8_lossy(&got)
                                                );
                                            },
                                        );
                                    },
                                );
                            },
                        );
                    });
                });
            },
        );
    });
    sim.run(&mut w);
    println!("done: one filesystem, two administrative domains, zero data copies.");
}
