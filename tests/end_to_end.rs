//! Cross-crate integration: the full stack through the public facade —
//! topology building, cluster auth wiring, remote mounts, real file I/O
//! with byte fidelity, coherence under cross-site sharing.

use bytes::Bytes;
use globalfs::gfs::admin::connect_clusters;
use globalfs::gfs::client;
use globalfs::gfs::fscore::FsConfig;
use globalfs::gfs::oracle::ModelFs;
use globalfs::gfs::session::Session;
use globalfs::gfs::types::{ClientId, FsError, Handle, OpenFlags, Owner};
use globalfs::gfs::world::{FsParams, GfsWorld, WorldBuilder};
use globalfs::gfs_auth::handshake::AccessMode;
use globalfs::simcore::{Bandwidth, Sim, SimDuration};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Three sites: SDSC (owner), NCSA and ANL (importers) across a WAN.
fn three_site_world() -> (Sim<GfsWorld>, GfsWorld, ClientId, ClientId, ClientId) {
    let mut b = WorldBuilder::new(101);
    b.key_bits(384);
    let sdsc = b.topo().node("sdsc");
    let hub = b.topo().node("hub");
    let ncsa = b.topo().node("ncsa");
    let anl = b.topo().node("anl");
    b.topo().duplex_link(sdsc, hub, Bandwidth::gbit(10.0), SimDuration::from_millis(2), "s");
    b.topo().duplex_link(ncsa, hub, Bandwidth::gbit(10.0), SimDuration::from_millis(28), "n");
    b.topo().duplex_link(anl, hub, Bandwidth::gbit(10.0), SimDuration::from_millis(26), "a");
    let c_sdsc = b.cluster("sdsc.teragrid");
    let c_ncsa = b.cluster("ncsa.teragrid");
    let c_anl = b.cluster("anl.teragrid");
    b.filesystem(
        c_sdsc,
        FsParams::ideal(
            FsConfig::small_test("gpfs-wan"),
            sdsc,
            vec![sdsc],
            Bandwidth::mbyte(400.0),
            SimDuration::from_micros(300),
        ),
    );
    let local = b.client(c_sdsc, sdsc, 512);
    let remote_n = b.client(c_ncsa, ncsa, 512);
    let remote_a = b.client(c_anl, anl, 512);
    let (sim, mut w) = b.build();
    connect_clusters(&mut w, c_sdsc, c_ncsa, "gpfs-wan", AccessMode::ReadWrite, sdsc);
    connect_clusters(&mut w, c_sdsc, c_anl, "gpfs-wan", AccessMode::ReadWrite, sdsc);
    (sim, w, local, remote_n, remote_a)
}

fn owner() -> Owner {
    Owner::local(500, 100)
}

#[test]
fn one_filesystem_three_administrative_domains() {
    let (mut sim, mut w, local, ncsa, anl) = three_site_world();
    let local_sess = w.open_session(local);
    let ncsa_sess = w.open_session(ncsa);
    let anl_sess = w.open_session(anl);
    let done = Rc::new(Cell::new(false));
    let d = done.clone();

    // 300 KB of patterned data (crosses several 64 KiB blocks).
    let payload: Vec<u8> = (0..300_000u32).map(|i| (i * 7 % 251) as u8).collect();
    let payload = Bytes::from(payload);
    let expect1 = payload.clone();
    let expect2 = payload.clone();

    local_sess.mount(&mut sim, &mut w, "gpfs-wan", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        local_sess.open(sim, w, "/enzo.out", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
            let h = r.unwrap();
            local_sess.write(sim, w, h, 0, payload, move |sim, w, r| {
                r.unwrap();
                local_sess.close(sim, w, h, move |sim, w, r| {
                    r.unwrap();
                    // Both remote sites mount and verify the same bytes.
                    ncsa_sess.mount(sim, w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
                        r.unwrap();
                        anl_sess.mount(sim, w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
                            r.unwrap();
                            ncsa_sess.open(sim, w, "/enzo.out", OpenFlags::Read, owner(), move |sim, w, r| {
                                let hn = r.unwrap();
                                client::read(sim, w, ncsa, hn, 0, 300_000, move |sim, w, r| {
                                    assert_eq!(r.unwrap(), expect1);
                                    anl_sess.open(sim, w, "/enzo.out", OpenFlags::Read, owner(), move |sim, w, r| {
                                        let ha = r.unwrap();
                                        // ANL reads a slice out of the middle.
                                        client::read(sim, w, anl, ha, 100_000, 50_000, move |_s, _w, r| {
                                            let got = r.unwrap();
                                            assert_eq!(&got[..], &expect2[100_000..150_000]);
                                            d.set(true);
                                        });
                                    });
                                });
                            });
                        });
                    });
                });
            });
        });
    });
    sim.run(&mut w);
    assert!(done.get(), "three-site chain did not complete");
}

#[test]
fn cross_site_write_sharing_is_coherent() {
    // NCSA writes; ANL then reads the same region. The byte-range token
    // protocol must force NCSA's flush before ANL's read is served.
    let (mut sim, mut w, local, ncsa, anl) = three_site_world();
    let local_sess = w.open_session(local);
    let ncsa_sess = w.open_session(ncsa);
    let anl_sess = w.open_session(anl);
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    local_sess.mount(&mut sim, &mut w, "gpfs-wan", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        ncsa_sess.mount(sim, w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            anl_sess.mount(sim, w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
                r.unwrap();
                ncsa_sess.open(sim, w, "/shared", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                    let hn = r.unwrap();
                    ncsa_sess.write(sim, w, hn, 0, Bytes::from(vec![0xEEu8; 70_000]), move |sim, w, r| {
                        r.unwrap(); // write-behind: still dirty at NCSA
                        anl_sess.open(sim, w, "/shared", OpenFlags::Read, owner(), move |sim, w, r| {
                            let ha = r.unwrap();
                            client::read(sim, w, anl, ha, 0, 70_000, move |_s, w, r| {
                                let got = r.unwrap();
                                assert!(got.iter().all(|b| *b == 0xEE), "stale data crossed sites");
                                // The serving cluster's token manager did a
                                // real revocation.
                                assert!(w.fss[0].tokens.revocations > 0);
                                d.set(true);
                            });
                        });
                    });
                });
            });
        });
    });
    sim.run(&mut w);
    assert!(done.get());
}

#[test]
fn grid_identity_ownership_travels_with_files() {
    let (mut sim, mut w, local, _ncsa, _anl) = three_site_world();
    let local_sess = w.open_session(local);
    let dn = globalfs::gfs_auth::identity::Dn::new("/C=US/O=NPACI/CN=Alice Researcher");
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    let dn2 = dn.clone();
    local_sess.mount(&mut sim, &mut w, "gpfs-wan", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        local_sess.open(
            sim,
            w,
            "/alice.dat",
            OpenFlags::Write,
            Owner::grid(5012, 100, dn2.clone()),
            move |sim, w, r| {
                let h = r.unwrap();
                local_sess.close(sim, w, h, move |sim, w, r| {
                    r.unwrap();
                    local_sess.stat(sim, w, "/alice.dat", move |_s, _w, r| {
                        let st = r.unwrap();
                        // The DN is recorded alongside the (site-local) UID.
                        assert_eq!(st.uid, 5012);
                        assert_eq!(st.dn.as_deref(), Some("/C=US/O=NPACI/CN=Alice Researcher"));
                        d.set(true);
                    });
                });
            },
        );
    });
    sim.run(&mut w);
    assert!(done.get());
}

#[test]
fn concurrent_remote_streams_share_fairly() {
    // Both remote sites stream big reads concurrently through their own
    // 10 Gb/s site links; neither starves.
    use globalfs::gfs::stream::{gfs_stream, StreamDir};
    use globalfs::gfs::types::FsId;
    let (mut sim, mut w, _local, _n, _a) = three_site_world();
    let fs = FsId(0);
    let t_n = Rc::new(Cell::new(0u64));
    let t_a = Rc::new(Cell::new(0u64));
    let (tn, ta) = (t_n.clone(), t_a.clone());
    let bytes = 2_000_000_000u64; // 2 GB each
    gfs_stream(&mut sim, &mut w, ClientId(1), fs, bytes, StreamDir::Read, 1, move |sim, _w| {
        tn.set(sim.now().as_nanos())
    });
    gfs_stream(&mut sim, &mut w, ClientId(2), fs, bytes, StreamDir::Read, 2, move |sim, _w| {
        ta.set(sim.now().as_nanos())
    });
    sim.run(&mut w);
    let (a, b) = (t_n.get() as f64 / 1e9, t_a.get() as f64 / 1e9);
    assert!(a > 0.0 && b > 0.0);
    // Finish within 20% of each other: fair sharing.
    assert!((a - b).abs() < 0.2 * a.max(b), "unfair completion: {a}s vs {b}s");
}

#[test]
fn errors_surface_cleanly_across_the_stack() {
    let (mut sim, mut w, local, ncsa, _anl) = three_site_world();
    let local_sess = w.open_session(local);
    let ncsa_sess = w.open_session(ncsa);
    let checks = Rc::new(RefCell::new(Vec::new()));
    let c1 = checks.clone();
    // Reading a file that does not exist, from a remote site.
    local_sess.mount(&mut sim, &mut w, "gpfs-wan", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        ncsa_sess.mount(sim, w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            ncsa_sess.open(sim, w, "/missing", OpenFlags::Read, owner(), move |sim, w, r| {
                c1.borrow_mut().push(matches!(r, Err(FsError::NotFound(_))));
                // Unlinking a non-empty directory.
                ncsa_sess.mkdir(sim, w, "/dir", owner(), move |sim, w, r| {
                    r.unwrap();
                    ncsa_sess.open(sim, w, "/dir/f", OpenFlags::Write, owner(), move |sim, w, r| {
                        let h = r.unwrap();
                        ncsa_sess.close(sim, w, h, move |sim, w, r| {
                            r.unwrap();
                            ncsa_sess.unlink(sim, w, "/dir", move |_s, w, r| {
                                let _ = w;
                                assert!(matches!(r, Err(FsError::NotEmpty(_))));
                            });
                        });
                    });
                });
            });
        });
    });
    sim.run(&mut w);
    assert_eq!(&*checks.borrow(), &[true]);
}

/// Start one op and run the world to quiescence; returns the op's result.
fn settle<T: 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    op: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Box<dyn FnOnce(T)>),
) -> T {
    let out = Rc::new(RefCell::new(None));
    let slot = out.clone();
    op(sim, w, Box::new(move |r| *slot.borrow_mut() = Some(r)));
    sim.run(w);
    let r = out.borrow_mut().take();
    r.expect("op completed")
}

/// A `Session` on the owning site with `/f` open read-write and holding
/// 100 bytes of 9s.
fn session_file() -> (Sim<GfsWorld>, GfsWorld, Session, Handle) {
    let (mut sim, mut w, local, _ncsa, _anl) = three_site_world();
    let s = w.open_session(local);
    let (sim_, w_) = (&mut sim, &mut w);
    settle(sim_, w_, |sim, w, done| {
        s.mount(sim, w, "gpfs-wan", AccessMode::ReadWrite, move |_, _, r| {
            done(r)
        })
    })
    .unwrap();
    let h = settle(sim_, w_, |sim, w, done| {
        s.open(
            sim,
            w,
            "/f",
            OpenFlags::ReadWrite,
            owner(),
            move |_, _, r| done(r),
        )
    })
    .unwrap();
    settle(sim_, w_, |sim, w, done| {
        s.write(sim, w, h, 0, Bytes::from(vec![9u8; 100]), move |_, _, r| {
            done(r)
        })
    })
    .unwrap();
    (sim, w, s, h)
}

#[test]
fn session_read_length_past_u64_max_reads_to_eof() {
    let (mut sim, mut w, s, h) = session_file();
    let got = settle(&mut sim, &mut w, |sim, w, done| {
        s.read(sim, w, h, 1, u64::MAX, move |_, _, r| done(r))
    });
    // The reference model saturates the end the same way.
    let mut model = ModelFs::new();
    let id = model.create_file("/f").unwrap();
    model.write(id, 0, &[9u8; 100]).unwrap();
    let expect = model.read(id, 1, u64::MAX).unwrap();
    assert_eq!(expect, vec![9u8; 99]);
    assert_eq!(got, Ok(Bytes::from(expect)));
}

#[test]
fn session_write_ending_past_u64_max_is_invalid_argument() {
    let (mut sim, mut w, s, h) = session_file();
    let (sim_, w_) = (&mut sim, &mut w);
    let r = settle(sim_, w_, |sim, w, done| {
        s.write(
            sim,
            w,
            h,
            u64::MAX - 1,
            Bytes::from(vec![1u8; 4]),
            move |_, _, r| done(r),
        )
    });
    assert!(matches!(r, Err(FsError::InvalidArgument(_))), "got {r:?}");
    // The rejected write left the file and the handle intact.
    let r = settle(sim_, w_, |sim, w, done| {
        s.read(sim, w, h, 0, 200, move |_, _, r| done(r))
    });
    assert_eq!(r, Ok(Bytes::from(vec![9u8; 100])));
    settle(sim_, w_, |sim, w, done| {
        s.close(sim, w, h, move |_, _, r| done(r))
    })
    .unwrap();
}
