//! End-to-end cache effectiveness under skewed access: a Zipf-distributed
//! NVO query stream against a WAN-mounted filesystem. The client page
//! pool should absorb the hot set — the mechanism that §8's "automatic
//! caching ... integral piece of the overall file access mechanism"
//! anticipates.

use globalfs::gfs::fscore::FsConfig;
use globalfs::gfs::types::{ClientId, OpenFlags, Owner};
use globalfs::gfs::world::{FsParams, GfsWorld, WorldBuilder};
use globalfs::scenarios::driver::{run, Target};
use globalfs::simcore::{det_rng, Bandwidth, Sim, SimDuration};
use globalfs::workloads::zipf::nvo_zipf_queries;
use globalfs::workloads::Workload;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn bed(pool_pages: usize) -> (Sim<GfsWorld>, GfsWorld, ClientId) {
    let mut b = WorldBuilder::new(66);
    b.key_bits(384);
    let srv = b.topo().node("archive");
    let cli = b.topo().node("site");
    b.topo().duplex_link(
        cli,
        srv,
        Bandwidth::gbit(1.0),
        SimDuration::from_millis(30),
        "wan",
    );
    let c = b.cluster("z");
    b.filesystem(
        c,
        FsParams::ideal(
            FsConfig {
                name: "catalog".into(),
                block_size: 64 * 1024,
                nsd_blocks: 1 << 14,
                nsd_count: 8,
                data_mode: globalfs::gfs::fscore::DataMode::Stored,
            },
            srv,
            vec![srv],
            Bandwidth::mbyte(400.0),
            SimDuration::from_micros(300),
        ),
    );
    let client = b.client(c, cli, pool_pages);
    let (sim, w) = b.build();
    (sim, w, client)
}

/// Run a query workload against a 16 MB catalog file; returns
/// (elapsed_seconds, cache_hits, cache_misses).
fn run_queries(pool_pages: usize, wl: Workload) -> (f64, u64, u64) {
    let (mut sim, mut w, client) = bed(pool_pages);
    let sess = w.open_session(client);
    let done = Rc::new(Cell::new(0u64));
    let d = done.clone();
    let started = Rc::new(RefCell::new(None::<globalfs::simcore::SimTime>));
    let st = started.clone();
    sess.mount(&mut sim, &mut w, "catalog", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        sess.open(sim, w, "/objects", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
            let h = r.unwrap();
            // Materialize the 16 MB object store, then run the queries.
            let data = bytes::Bytes::from(vec![0x11u8; 16 << 20]);
            sess.write(sim, w, h, 0, data, move |sim, w, r| {
                r.unwrap();
                sess.fsync(sim, w, h, move |sim, w, r| {
                    r.unwrap();
                    // Reset cache counters and drop pages: queries start cold.
                    let inode = w.clients[client.0 as usize].handles[&h].inode;
                    let c = &mut w.clients[client.0 as usize];
                    c.pool.invalidate_file(globalfs::gfs::types::FsId(0), inode);
                    c.pool.hits = 0;
                    c.pool.misses = 0;
                    *st.borrow_mut() = Some(sim.now());
                    run(sim, w, Target::Handle { sess, handle: h }, wl, move |sim, _w, r| {
                        r.unwrap();
                        d.set(sim.now().as_nanos());
                    });
                });
            });
        });
    });
    sim.run(&mut w);
    assert!(done.get() > 0, "query run did not complete");
    let start = started.borrow().expect("started");
    let elapsed = globalfs::simcore::SimTime::from_nanos(done.get())
        .since(start)
        .as_secs_f64();
    let pool = &w.clients[client.0 as usize].pool;
    (elapsed, pool.hits, pool.misses)
}

#[test]
fn zipf_skew_makes_the_page_pool_effective() {
    // 300 queries over 256 × 64 KiB objects in a 16 MB file, Zipf(1.1).
    let mut rng = det_rng(4, "zipf-int");
    let wl = nvo_zipf_queries(&mut rng, 300, 256, 64 * 1024, 1.1);
    // Big pool (whole file fits): most queries hit cache.
    let (t_big, hits_big, misses_big) = run_queries(512, wl.clone());
    let hit_rate = hits_big as f64 / (hits_big + misses_big) as f64;
    assert!(
        hit_rate > 0.5,
        "hit rate {hit_rate:.2} too low under Zipf skew ({hits_big}/{misses_big})"
    );
    // Tiny pool (16 pages): constant re-fetching over the WAN.
    let (t_small, hits_small, _m) = run_queries(16, wl);
    assert!(hits_small < hits_big);
    assert!(
        t_small > 1.5 * t_big,
        "cache-starved run ({t_small:.2}s) not slower than cached ({t_big:.2}s)"
    );
}

#[test]
fn uniform_access_defeats_small_caches() {
    // Control: uniform queries over the same objects — a 16-page pool gets
    // almost no hits, confirming the skew (not the pool size) is what the
    // previous test measures.
    let mut rng = det_rng(5, "uniform-int");
    let wl = globalfs::workloads::nvo_queries(&mut rng, 200, 16 << 20, 64 * 1024, 64 * 1024);
    let (_t, hits, misses) = run_queries(16, wl);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    assert!(
        hit_rate < 0.35,
        "uniform access should mostly miss a tiny pool, got {hit_rate:.2}"
    );
}
