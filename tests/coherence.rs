//! Page-pool coherence under cached tokens.
//!
//! A mount context keeps its byte-range tokens past close, so revocation
//! alone must keep every context's cached pages current: a page lives only
//! under a token its context holds, and a conflicting acquire takes the
//! token and the pages together. These tests pin that from the outside,
//! through `Session` calls only:
//!
//! * a context that re-opens a file another context overwrote reads the
//!   new bytes (close-to-open consistency);
//! * two contexts writing disjoint bytes of one block both survive;
//! * a sequential stream asks for its token twice, not once per write;
//! * several contexts reading and overwriting shared files only ever read
//!   versions inside the window the writes' timing allows;
//! * the per-context cap gives back old grants together with their pages;
//! * a holder no revoke can reach is expelled, and its pages go with it;
//! * write-back keeps the bytes it was handed: a failed write-back of
//!   evicted pages reaches the writer, a recall and a close wait for the
//!   write-back of evicted pages, and a flush's ack never cleans bytes
//!   written after the flush took its copy;
//! * a recall waits for the holder's ops under way when it lands and no
//!   others, so sessions rewriting the file back to back cannot starve it.

use bytes::Bytes;
use globalfs::gfs::fscore::FsConfig;
use globalfs::gfs::tokens::CACHED_INODES;
use globalfs::gfs::types::{FsError, Handle, OpenFlags, Owner};
use globalfs::gfs::world::{FsParams, GfsWorld, WorldBuilder, LEASE_BREAK_TIMEOUT};
use globalfs::gfs::{apply_fault, FaultKind, FsId, InodeId, RecoveryWhat, Session};
use globalfs::gfs_auth::handshake::AccessMode;
use globalfs::scenarios::chaos::world_invariants;
use globalfs::scenarios::{NsdFarm, ScenarioBuilder};
use globalfs::simcore::{Bandwidth, Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const BLOCK: u64 = 64 * 1024;

type Done<T> = Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, T)>;

/// One filesystem on four NSD servers at `home` with 64 KiB blocks and
/// stored data; `local` contexts at `home` and `remote` ones behind a
/// 30 ms WAN, each with a `pool`-page cache, every one mounted.
fn world(
    seed: u64,
    local: u32,
    remote: u32,
    pool: usize,
) -> (Sim<GfsWorld>, GfsWorld, FsId, Vec<Session>) {
    let mut sb = ScenarioBuilder::new(seed);
    let fs = sb.nsd_farm("home", NsdFarm::new("gfs", 4).block_size(BLOCK).stored_data());
    sb.wan(
        "home",
        "remote",
        Bandwidth::gbit(10.0),
        SimDuration::from_millis(30),
        "wan",
    );
    let nic = Bandwidth::gbit(10.0);
    let dly = SimDuration::from_micros(100);
    let mut sessions = sb.clients("home", local, nic, dly, pool);
    sessions.extend(sb.clients("remote", remote, nic, dly, pool));
    let run = sb.run(SimTime::ZERO);
    let (mut sim, mut w) = (run.sim, run.world);
    sim.set_horizon(SimTime::from_secs(1_000_000));
    for &s in &sessions {
        s.mount(&mut sim, &mut w, "gfs", AccessMode::ReadWrite, |_, _, r| {
            r.expect("mount")
        });
    }
    sim.run(&mut w);
    (sim, w, fs, sessions)
}

/// Run one op to quiescence and return its result.
fn settle<T: 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    op: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Done<T>),
) -> T {
    let out = Rc::new(RefCell::new(None));
    let slot = out.clone();
    op(sim, w, Box::new(move |_, _, r| *slot.borrow_mut() = Some(r)));
    sim.run(w);
    let r = out.borrow_mut().take();
    r.expect("op never completed")
}

fn open(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, s: Session, path: &str, flags: OpenFlags) -> Handle {
    settle(sim, w, |sim, w, cb| s.open(sim, w, path, flags, Owner::local(0, 0), cb)).unwrap()
}

fn write(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, s: Session, h: Handle, off: u64, data: Bytes) {
    settle(sim, w, |sim, w, cb| s.write(sim, w, h, off, data, cb)).unwrap()
}

fn read(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, s: Session, h: Handle, off: u64, len: u64) -> Bytes {
    settle(sim, w, |sim, w, cb| s.read(sim, w, h, off, len, cb)).unwrap()
}

fn close(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, s: Session, h: Handle) {
    settle(sim, w, |sim, w, cb| s.close(sim, w, h, cb)).unwrap()
}

fn assert_healthy(sim: &Sim<GfsWorld>, w: &GfsWorld) {
    let v = world_invariants(sim, w);
    assert!(v.is_empty(), "world invariants: {v:?}");
}

#[test]
fn reopen_after_a_foreign_overwrite_reads_the_new_bytes() {
    let (mut sim, mut w, _fs, ss) = world(1, 2, 0, 64);
    let (b, c) = (ss[0], ss[1]);
    const LEN: usize = 300_000;
    let h = open(&mut sim, &mut w, c, "/f", OpenFlags::Write);
    write(&mut sim, &mut w, c, h, 0, Bytes::from(vec![1u8; LEN]));
    close(&mut sim, &mut w, c, h);
    // B reads the file into its pool and closes it.
    let h = open(&mut sim, &mut w, b, "/f", OpenFlags::Read);
    assert!(read(&mut sim, &mut w, b, h, 0, LEN as u64).iter().all(|&x| x == 1));
    close(&mut sim, &mut w, b, h);
    // C overwrites it and closes it.
    let h = open(&mut sim, &mut w, c, "/f", OpenFlags::Write);
    write(&mut sim, &mut w, c, h, 0, Bytes::from(vec![2u8; LEN]));
    close(&mut sim, &mut w, c, h);
    // B re-opens it: every byte is C's.
    let h = open(&mut sim, &mut w, b, "/f", OpenFlags::Read);
    let got = read(&mut sim, &mut w, b, h, 0, LEN as u64);
    close(&mut sim, &mut w, b, h);
    let old = got.iter().filter(|&&x| x == 1).count();
    assert_eq!(old, 0, "B read {old} of {LEN} bytes from before C's overwrite");
    assert!(got.iter().all(|&x| x == 2));
    assert_healthy(&sim, &w);
}

#[test]
fn disjoint_writes_inside_one_block_both_survive() {
    let (mut sim, mut w, _fs, ss) = world(2, 3, 0, 64);
    let (a, b, fresh) = (ss[0], ss[1], ss[2]);
    let ha = open(&mut sim, &mut w, a, "/f", OpenFlags::Write);
    let hb = open(&mut sim, &mut w, b, "/f", OpenFlags::Write);
    write(&mut sim, &mut w, a, ha, 0, Bytes::from(vec![0xaa; 100]));
    write(&mut sim, &mut w, b, hb, 1000, Bytes::from(vec![0xbb; 100]));
    close(&mut sim, &mut w, a, ha);
    close(&mut sim, &mut w, b, hb);
    let h = open(&mut sim, &mut w, fresh, "/f", OpenFlags::Read);
    let got = read(&mut sim, &mut w, fresh, h, 0, 1100);
    close(&mut sim, &mut w, fresh, h);
    assert_eq!(got.len(), 1100);
    assert!(got[..100].iter().all(|&x| x == 0xaa), "A's bytes were lost");
    assert!(got[100..1000].iter().all(|&x| x == 0));
    assert!(got[1000..].iter().all(|&x| x == 0xbb), "B's bytes were lost");
    assert_healthy(&sim, &w);
}

#[test]
fn sequential_writes_ask_for_their_token_twice() {
    let (mut sim, mut w, fs, ss) = world(3, 1, 0, 64);
    let s = ss[0];
    let h = open(&mut sim, &mut w, s, "/stream", OpenFlags::Write);
    let ctx = s.ctx(&w);
    let before = w.fss[fs.0 as usize].tokens.acquires;
    fn chain(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, s: Session, h: Handle, i: u64, n: u64) {
        if i == n {
            return;
        }
        s.write(sim, w, h, i * 4096, Bytes::from(vec![i as u8; 4096]), move |sim, w, r| {
            r.unwrap();
            chain(sim, w, s, h, i + 1, n);
        });
    }
    chain(&mut sim, &mut w, s, h, 0, 3000);
    sim.run(&mut w);
    let acquires = w.fss[fs.0 as usize].tokens.acquires - before;
    assert!(acquires <= 2, "3,000 sequential writes made {acquires} token acquires");
    let mirrored: usize = w.clients[ctx.0 as usize]
        .held_tokens
        .iter()
        .map(|(_, grants)| grants.len())
        .sum();
    assert_eq!(mirrored, 1, "the stream's grants must merge into one");
    close(&mut sim, &mut w, s, h);
    assert_eq!(w.fss[fs.0 as usize].core.stat("/stream").unwrap().size, 3000 * 4096);
    assert_healthy(&sim, &w);
}

/// Shared-file differential: contexts open, read or overwrite, and close
/// shared files in a seeded order with seeded pauses. Every write stamps
/// its version into every block of the file. A block a read returns must
/// carry a version no older than the last write completed before the read
/// was issued, and no newer than the last write issued before the read
/// completed.
///
/// Versions count up per file in issue order, but two overlapping
/// overwrites of one file may apply in the other order. A write holds its
/// token until it completes, so writes apply in completion order, and
/// "older" means completed earlier: each file keeps its versions in
/// completion order.
struct Shared {
    /// Highest version issued per file.
    issued: Vec<u64>,
    /// Versions in completion order per file, starting with version 0.
    completed: Vec<Vec<u64>>,
    /// Blocks read and checked.
    checked: u64,
    /// Out-of-window blocks.
    bad: Vec<String>,
}

const FILES: usize = 8;
const FILE_BLOCKS: u64 = 3;
const OPS: u32 = 40;

/// A whole file at `version`: every block filled with the version.
fn stamped(version: u64) -> Bytes {
    let mut v = Vec::with_capacity((FILE_BLOCKS * BLOCK) as usize);
    while (v.len() as u64) < FILE_BLOCKS * BLOCK {
        v.extend_from_slice(&version.to_le_bytes());
    }
    Bytes::from(v)
}

/// splitmix64 step: the op order and pauses per context.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn differential_step(
    sim: &mut Sim<GfsWorld>,
    st: Rc<RefCell<Shared>>,
    s: Session,
    mut rng: u64,
    left: u32,
) {
    if left == 0 {
        return;
    }
    let k = (next(&mut rng) % FILES as u64) as usize;
    let is_write = next(&mut rng).is_multiple_of(2);
    let pause = SimDuration::from_micros(next(&mut rng) % 20_000);
    // A read covers a seeded run of whole blocks.
    let b0 = next(&mut rng) % FILE_BLOCKS;
    let nb = 1 + next(&mut rng) % (FILE_BLOCKS - b0);
    let path = format!("/shared/f{k}");
    let flags = if is_write { OpenFlags::ReadWrite } else { OpenFlags::Read };
    sim.after(pause, move |sim, w| {
        s.open(sim, w, &path, flags, Owner::local(0, 0), move |sim, w, r| {
            let h = r.expect("open shared file");
            let then = st.clone();
            let done: Done<()> = Box::new(move |sim, w, ()| {
                s.close(sim, w, h, move |sim, _w, r| {
                    r.expect("close shared file");
                    differential_step(sim, then, s, rng, left - 1);
                });
            });
            if is_write {
                let version = {
                    let mut g = st.borrow_mut();
                    g.issued[k] += 1;
                    g.issued[k]
                };
                s.write(sim, w, h, 0, stamped(version), move |sim, w, r| {
                    r.expect("overwrite");
                    st.borrow_mut().completed[k].push(version);
                    done(sim, w, ());
                });
                return;
            }
            // The last write completed before the read is issued.
            let lo = st.borrow().completed[k].len() - 1;
            s.read(sim, w, h, b0 * BLOCK, nb * BLOCK, move |sim, w, r| {
                let got: Bytes = r.expect("read shared file");
                {
                    let mut g = st.borrow_mut();
                    let hi = g.issued[k];
                    let window = g.completed[k][lo..].to_vec();
                    assert_eq!(got.len() as u64, nb * BLOCK);
                    for (i, blk) in got.chunks(BLOCK as usize).enumerate() {
                        g.checked += 1;
                        let v = u64::from_le_bytes(blk[..8].try_into().unwrap());
                        let whole = blk.chunks(8).all(|word| word == &blk[..8]);
                        if !whole || !window.contains(&v) || v > hi {
                            g.bad.push(format!(
                                "f{k} block {}: version {v} (uniform: {whole}) outside \
                                 {window:?} (issued up to {hi})",
                                b0 + i as u64
                            ));
                        }
                    }
                }
                done(sim, w, ());
            });
        });
    });
}

/// The differential over 2 local and 2 remote contexts of `pool` pages,
/// each carrying `per_ctx` sessions.
fn shared_file_differential(seed: u64, pool: usize, per_ctx: usize) {
    let (mut sim, mut w, fs, mut ss) = world(seed, 2, 2, pool);
    for s in ss.clone() {
        for _ in 1..per_ctx {
            let more = w.open_session(s.ctx(&w));
            more.bind_device(&mut w, "gfs");
            ss.push(more);
        }
    }
    // Version 0 of every shared file, written straight into the core.
    let mut inodes: Vec<InodeId> = Vec::new();
    {
        let core = &mut w.fss[fs.0 as usize].core;
        core.mkdir("/shared", Owner::local(0, 0), 0).unwrap();
        let zero = stamped(0);
        for k in 0..FILES {
            let ino = core
                .create_file(&format!("/shared/f{k}"), Owner::local(0, 0), 0)
                .unwrap();
            for b in 0..FILE_BLOCKS {
                let addr = core.ensure_block(ino, b).unwrap();
                let at = (b * BLOCK) as usize;
                core.put_block_data(addr, zero.slice(at..at + BLOCK as usize));
            }
            core.note_write(ino, 0, FILE_BLOCKS * BLOCK, 0).unwrap();
            inodes.push(ino);
        }
    }
    let st = Rc::new(RefCell::new(Shared {
        issued: vec![0; FILES],
        completed: vec![vec![0]; FILES],
        checked: 0,
        bad: Vec::new(),
    }));
    for (i, &s) in ss.iter().enumerate() {
        let rng = seed.wrapping_mul(0x1000_0000_01b3) ^ (i as u64 + 1);
        differential_step(&mut sim, st.clone(), s, rng, OPS);
    }
    sim.run(&mut w);
    let g = st.borrow();
    assert!(g.bad.is_empty(), "seed {seed}: {} stale block(s): {:?}", g.bad.len(), g.bad);
    let writes: u64 = g.issued.iter().sum();
    assert!(writes > 20 && g.checked > 40, "seed {seed}: {writes} writes, {} blocks read", g.checked);
    for (k, order) in g.completed.iter().enumerate() {
        assert_eq!(order.len() as u64, g.issued[k] + 1, "seed {seed}: f{k}: every write completes");
    }
    assert_healthy(&sim, &w);
}

#[test]
fn shared_file_differential_seed_1() {
    shared_file_differential(1, 32, 1);
}

#[test]
fn shared_file_differential_seed_2() {
    shared_file_differential(2, 32, 1);
}

/// A 4-page pool cannot hold one context's two open files, so dirty pages
/// are evicted and written back while other contexts read.
#[test]
fn shared_file_differential_small_pool_two_sessions_seed_1() {
    shared_file_differential(1, 4, 2);
}

#[test]
fn shared_file_differential_small_pool_two_sessions_seed_2() {
    shared_file_differential(2, 4, 2);
}

#[test]
fn the_cap_gives_back_old_grants_with_their_pages() {
    let (mut sim, mut w, fs, ss) = world(4, 1, 0, 4096);
    let s = ss[0];
    let ctx = s.ctx(&w);
    let files = CACHED_INODES + 40;
    for i in 0..files {
        let path = format!("/f{i}");
        let h = open(&mut sim, &mut w, s, &path, OpenFlags::ReadWrite);
        write(&mut sim, &mut w, s, h, 0, Bytes::from(vec![7u8; 512]));
        assert_eq!(read(&mut sim, &mut w, s, h, 0, 512).len(), 512);
        close(&mut sim, &mut w, s, h);
    }
    let c = &w.clients[ctx.0 as usize];
    assert_eq!(c.held_tokens.len(), CACHED_INODES, "the cap must bind");
    // The oldest files went back, pages and all; the newest stay cached.
    let first = w.fss[fs.0 as usize].core.lookup("/f0").unwrap();
    assert!(!c.held_tokens.contains_key(&(fs, first)));
    assert!(w.fss[fs.0 as usize].tokens.grants(first).is_empty());
    assert!(c.pool.pages().all(|(k, _)| k.inode != first));
    let last = w.fss[fs.0 as usize].core.lookup(&format!("/f{}", files - 1)).unwrap();
    assert!(c.held_tokens.contains_key(&(fs, last)));
    // An evicted file reads back from disk under a fresh grant.
    let h = open(&mut sim, &mut w, s, "/f0", OpenFlags::Read);
    assert!(read(&mut sim, &mut w, s, h, 0, 512).iter().all(|&x| x == 7));
    close(&mut sim, &mut w, s, h);
    assert_healthy(&sim, &w);
}

#[test]
fn an_unreachable_holder_is_expelled_with_its_pages() {
    // A caches a dirty page under its write token, then drops off the
    // network. B's read revokes A's token: the revoke cannot land, is
    // resent, and after `LEASE_BREAK_TIMEOUT` A is expelled — its grants
    // released at the manager, its pages of the filesystem discarded and
    // the lost dirty page logged — and B's read proceeds. Once healed, A's
    // next fsync of the file reports the lost write, once.
    let (mut sim, mut w, fs, ss) = world(5, 2, 0, 16);
    let (a, b) = (ss[0], ss[1]);
    let h = open(&mut sim, &mut w, a, "/g", OpenFlags::Write);
    write(&mut sim, &mut w, a, h, 0, Bytes::from(vec![1u8; 1000]));
    apply_fault(&mut sim, &mut w, FaultKind::Partition { node: "c-home-0".into() });
    let hb = open(&mut sim, &mut w, b, "/g", OpenFlags::Read);
    let t0 = sim.now();
    let got = read(&mut sim, &mut w, b, hb, 0, 1000);
    assert!(sim.now().since(t0) >= LEASE_BREAK_TIMEOUT);
    assert!(got.iter().all(|&x| x == 0), "A's write never reached the disk");
    close(&mut sim, &mut w, b, hb);
    let ac = &w.clients[a.ctx(&w).0 as usize];
    assert!(ac.held_tokens.is_empty() && ac.pool.is_empty());
    assert!(w.fss[fs.0 as usize].expelled.contains(&a.ctx(&w)));
    let lost = w.recovery.count(|e| {
        matches!(e, RecoveryWhat::DirtyPagesDiscarded { pages: 1, .. })
    });
    assert_eq!(lost, 1, "the discarded dirty page must be logged");
    apply_fault(
        &mut sim,
        &mut w,
        FaultKind::Heal {
            node: "c-home-0".into(),
        },
    );
    let fsync = |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld| {
        settle(sim, w, |sim, w, cb| a.fsync(sim, w, h, cb))
    };
    assert_eq!(
        fsync(&mut sim, &mut w),
        Err(FsError::Timeout),
        "the writer learns of the loss"
    );
    assert_eq!(fsync(&mut sim, &mut w), Ok(()), "and learns it once");
    assert_healthy(&sim, &w);
}

/// The write-back probes' bed: a manager node and one NSD server on a
/// switch, 64 KiB blocks, and one context per entry of `nics` on a link of
/// that rate, each with a 4-page pool and two sessions, all mounted.
fn probe_world(nics: &[Bandwidth]) -> (Sim<GfsWorld>, GfsWorld, Vec<Session>) {
    let mut b = WorldBuilder::new(9);
    b.key_bits(384);
    let sw = b.topo().node("sw");
    let mgr = b.topo().node("mgr");
    let srv = b.topo().node("srv");
    let (lan, dly) = (Bandwidth::gbit(10.0), SimDuration::from_micros(50));
    b.topo().duplex_link(mgr, sw, lan, dly, "mgr");
    b.topo().duplex_link(srv, sw, lan, dly, "srv");
    let cl = b.cluster("site");
    let (rate, latency) = (Bandwidth::mbyte(400.0), SimDuration::from_micros(500));
    let params = FsParams::ideal(FsConfig::small_test("gfs"), mgr, vec![srv], rate, latency);
    b.filesystem(cl, params);
    let mut sessions = Vec::new();
    for (i, &nic) in nics.iter().enumerate() {
        let n = b.topo().node(format!("c{i}"));
        b.topo().duplex_link(n, sw, nic, dly, format!("nic{i}"));
        let c = b.client(cl, n, 4);
        sessions.extend([Session(b.session(c)), Session(b.session(c))]);
    }
    let (mut sim, mut w) = b.build();
    for &s in &sessions {
        s.mount(&mut sim, &mut w, "gfs", AccessMode::ReadWrite, |_, _, r| {
            r.expect("mount")
        });
    }
    sim.run(&mut w);
    (sim, w, sessions)
}

fn block_of(byte: u8) -> Bytes {
    Bytes::from(vec![byte; BLOCK as usize])
}

#[test]
fn a_failed_write_back_of_evicted_pages_reaches_the_writer() {
    // A fills its 4-page pool with dirty blocks 0-3 of /f, then writes
    // blocks 4-7 while the one NSD server is down: each write evicts a
    // dirty page whose write-back fails. The writes return `Ok` (write-
    // behind), but the lost pages are logged, and once the server is back
    // the next fsync of /f reports the loss, once.
    let (mut sim, mut w, ss) = probe_world(&[Bandwidth::gbit(10.0)]);
    let a = ss[0];
    let h = open(&mut sim, &mut w, a, "/f", OpenFlags::Write);
    for b in 0..4 {
        write(&mut sim, &mut w, a, h, b * BLOCK, block_of(1));
    }
    let srv = w.fss[0].nsd_servers[0];
    w.fss[0].fail_server(srv);
    for b in 4..8 {
        write(&mut sim, &mut w, a, h, b * BLOCK, block_of(2));
    }
    w.fss[0].restore_server(srv);
    let discarded: u64 = w
        .recovery
        .events
        .iter()
        .map(|e| match e.what {
            RecoveryWhat::DirtyPagesDiscarded { pages, .. } => pages,
            _ => 0,
        })
        .sum();
    assert_eq!(discarded, 4, "the four pages whose write-back failed must be logged");
    let fsync = |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld| {
        settle(sim, w, |sim, w, cb| a.fsync(sim, w, h, cb))
    };
    assert_eq!(
        fsync(&mut sim, &mut w),
        Err(FsError::Timeout),
        "the writer learns its evicted pages never reached the disk"
    );
    assert_eq!(fsync(&mut sim, &mut w), Ok(()), "and learns it once");
    assert_healthy(&sim, &w);
}

#[test]
fn a_recall_waits_for_the_write_back_of_evicted_pages() {
    // A sits on a 100 Mb/s link with /f's four blocks dirty in its 4-page
    // pool. Writing /g evicts them; their write-back takes about 20 ms on
    // that link. B opens and reads /f the moment A's write returns: the
    // recall of A's token must wait for the write-back, so B reads A's
    // bytes, not the zeros of blocks never written.
    let (mut sim, mut w, ss) = probe_world(&[Bandwidth::mbit(100.0), Bandwidth::gbit(10.0)]);
    let (a, b) = (ss[0], ss[2]);
    let hf = open(&mut sim, &mut w, a, "/f", OpenFlags::Write);
    write(&mut sim, &mut w, a, hf, 0, Bytes::from(vec![0x5a; 4 * BLOCK as usize]));
    let hg = open(&mut sim, &mut w, a, "/g", OpenFlags::Write);
    let got = Rc::new(RefCell::new(None));
    let slot = got.clone();
    let g = Bytes::from(vec![0x11; 4 * BLOCK as usize]);
    a.write(&mut sim, &mut w, hg, 0, g, move |sim, w, r| {
        r.expect("write /g");
        b.open(sim, w, "/f", OpenFlags::Read, Owner::local(0, 0), move |sim, w, r| {
            let hb = r.expect("open /f");
            b.read(sim, w, hb, 0, 4 * BLOCK, move |_, _, r| *slot.borrow_mut() = Some(r));
        });
    });
    sim.run(&mut w);
    let got = got.borrow_mut().take().expect("B's read completed").unwrap();
    let foreign = got.iter().filter(|&&x| x != 0x5a).count();
    assert_eq!(foreign, 0, "B read {foreign} of {} bytes that are not A's", got.len());
    assert_healthy(&sim, &w);
}

#[test]
fn a_close_waits_for_the_write_back_of_evicted_pages() {
    // A sits on a 100 Mb/s link with /f's four blocks dirty in its 4-page
    // pool. Writing /g evicts them, and their write-back takes about 20 ms
    // on that link. A closes /f the moment that write returns: the close
    // makes /f durable, so it must return only once every block holds A's
    // bytes on disk.
    let (mut sim, mut w, ss) = probe_world(&[Bandwidth::mbit(100.0)]);
    let a = ss[0];
    let hf = open(&mut sim, &mut w, a, "/f", OpenFlags::Write);
    write(&mut sim, &mut w, a, hf, 0, Bytes::from(vec![0x5a; 4 * BLOCK as usize]));
    let ino = w.fss[0].core.stat("/f").unwrap().inode;
    let hg = open(&mut sim, &mut w, a, "/g", OpenFlags::Write);
    let landed = Rc::new(RefCell::new(None));
    let slot = landed.clone();
    let g = Bytes::from(vec![0x11; 4 * BLOCK as usize]);
    let t0 = sim.now();
    a.write(&mut sim, &mut w, hg, 0, g, move |sim, w, r| {
        r.expect("write /g");
        a.close(sim, w, hf, move |sim, w, r| {
            r.expect("close /f");
            let core = &w.fss[0].core;
            let on_disk = core.block_map(ino, 0, 4 * BLOCK).unwrap().into_iter();
            let mine = on_disk
                .filter(|(_, addr)| addr.is_some_and(|a| core.get_block_data(a) == vec![0x5a; BLOCK as usize]))
                .count();
            *slot.borrow_mut() = Some((mine, sim.now()));
        });
    });
    sim.run(&mut w);
    let (mine, at) = landed.borrow_mut().take().expect("the close completed");
    assert_eq!(mine, 4, "close returned after {:?} with {mine} of 4 blocks on disk", at.since(t0));
    assert_healthy(&sim, &w);
}

#[test]
fn a_flush_ack_leaves_a_page_rewritten_meanwhile_dirty() {
    // Two sessions of one context: s1 fsyncs /f while s2 rewrites its
    // block 0. The flush's ack must not mark the rewritten bytes clean:
    // the next fsync writes them, and another context, then the writer
    // itself, read them back.
    let (mut sim, mut w, ss) = probe_world(&[Bandwidth::gbit(10.0), Bandwidth::gbit(10.0)]);
    let (s1, s2, b) = (ss[0], ss[1], ss[2]);
    let h = open(&mut sim, &mut w, s1, "/f", OpenFlags::ReadWrite);
    write(&mut sim, &mut w, s1, h, 0, block_of(1));
    let outs = Rc::new(RefCell::new(Vec::new()));
    let (o1, o2) = (outs.clone(), outs.clone());
    s1.fsync(&mut sim, &mut w, h, move |_, _, r| o1.borrow_mut().push(r));
    s2.write(&mut sim, &mut w, h, 0, block_of(2), move |_, _, r| o2.borrow_mut().push(r));
    sim.run(&mut w);
    assert_eq!(*outs.borrow(), vec![Ok(()), Ok(())], "the rewrite and the fsync both succeed");
    settle(&mut sim, &mut w, |sim, w, cb| s1.fsync(sim, w, h, cb)).unwrap();
    let hb = open(&mut sim, &mut w, b, "/f", OpenFlags::Read);
    let got = read(&mut sim, &mut w, b, hb, 0, BLOCK);
    assert!(got.iter().all(|&x| x == 2), "another context read the bytes the rewrite replaced");
    let got = read(&mut sim, &mut w, s1, h, 0, BLOCK);
    assert!(got.iter().all(|&x| x == 2), "the writer read the bytes its rewrite replaced");
    assert_healthy(&sim, &w);
}

/// A recall closes the door on its holder. Context A writes block 0 of
/// /f, then `n` sessions of A each rewrite their own block (16, 32, ...)
/// `REWRITES` times back to back. B's 100-byte write at offset 0, sent
/// 5 ms later, recalls A's grant on block 0 only, and A always has a
/// rewrite of /f in flight. The recall must wait for the rewrites under
/// way when it lands and no others: A's next rewrites wait behind the
/// give-back, so B's write returns long before A's sessions finish.
fn a_recall_is_not_starved_by_the_holders_rewrites(n: usize) {
    const REWRITES: u64 = 2_000;
    let (mut sim, mut w, _fs, ss) = world(5, 2, 0, 4_096);
    let (a, b) = (ss[0], ss[1]);
    let h = open(&mut sim, &mut w, a, "/f", OpenFlags::Write);
    write(&mut sim, &mut w, a, h, 0, block_of(1));
    let hb = open(&mut sim, &mut w, b, "/f", OpenFlags::ReadWrite);
    let ctx = a.ctx(&w);
    let writers: Vec<Session> = (0..n).map(|_| w.open_session(ctx)).collect();
    for &s in &writers {
        settle(&mut sim, &mut w, |sim, w, cb| s.mount(sim, w, "gfs", AccessMode::ReadWrite, cb)).unwrap();
    }
    let a_done = Rc::new(RefCell::new(Vec::new()));
    fn rewrite(
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        (s, h, block, left): (Session, Handle, u64, u64),
        done: Rc<RefCell<Vec<SimTime>>>,
    ) {
        if left == 0 {
            done.borrow_mut().push(sim.now());
            return;
        }
        s.write(sim, w, h, block * BLOCK, block_of(left as u8), move |sim, w, r| {
            r.expect("A's rewrite");
            rewrite(sim, w, (s, h, block, left - 1), done);
        });
    }
    let t0 = sim.now();
    for (i, &s) in writers.iter().enumerate() {
        let block = 16 * (i as u64 + 1);
        rewrite(&mut sim, &mut w, (s, h, block, REWRITES), a_done.clone());
    }
    let b_done = Rc::new(RefCell::new(None));
    let slot = b_done.clone();
    sim.after(SimDuration::from_millis(5), move |sim, w| {
        b.write(sim, w, hb, 0, Bytes::from(vec![7; 100]), move |sim, _, r| {
            *slot.borrow_mut() = Some((r, sim.now()));
        });
    });
    sim.run(&mut w);
    let (r, b_at) = b_done.borrow_mut().take().expect("B's write completed");
    assert_eq!(r, Ok(()));
    let a_at = *a_done.borrow().iter().max().expect("A's sessions finished");
    assert_eq!(a_done.borrow().len(), n);
    let (b_lat, a_span) = (b_at.since(t0), a_at.since(t0));
    assert!(
        b_lat < SimDuration::from_millis(50) && b_lat.as_nanos() * 10 < a_span.as_nanos(),
        "B's write returned after {b_lat:?}, A's {n} session(s) finished after {a_span:?}"
    );
    let got = read(&mut sim, &mut w, b, hb, 0, BLOCK);
    assert!(got[..100].iter().all(|&x| x == 7) && got[100..].iter().all(|&x| x == 1));
    assert_healthy(&sim, &w);
}

#[test]
fn a_recall_is_not_starved_by_one_rewriting_session() {
    a_recall_is_not_starved_by_the_holders_rewrites(1);
}

#[test]
fn a_recall_is_not_starved_by_four_rewriting_sessions() {
    a_recall_is_not_starved_by_the_holders_rewrites(4);
}
