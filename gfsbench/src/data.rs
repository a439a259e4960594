//! `data_grid`: the paper's GPFS-WAN data path in one world.
//!
//! The home farm has 8 NSD servers with 1 MiB blocks and stored data,
//! backed by a DS4100 SATA array (so the `simsan` RAID model serves every
//! NSD request). A remote site sits behind a 10 Gb/s WAN with 30 ms
//! one-way delay and hosts a replica farm registered in the filesystem's
//! `ReplicaCatalog`. Closed-loop clients on both sites each write a private
//! file and re-read it (a hot set that fits the client page pool), then
//! stream a shared file set several times larger than the pool. One home
//! client overwrites the shared files meanwhile, forcing byte-range token
//! revocations and replica invalidations; each finished overwrite is
//! re-replicated over GridFTP and re-installed in the catalog.
//!
//! Every read is compared byte for byte with the content the file may hold
//! at that moment. The comparison's host time is excluded from the
//! measured window.

use crate::bench::{err_code, mix, Bench, Class, Corrupt, NsOp, RoundOut, Span, Tracer};
use crate::layers;
use bytes::Bytes;
use globalfs::gfs::cache::PageKey;
use globalfs::gfs::world::GfsWorld;
use globalfs::gfs::{
    fsck_instance, ByteRange, FsCore, FsId, Handle, InodeId, OpenFlags, Owner, Session, TokenMode,
};
use globalfs::gfs_auth::handshake::AccessMode;
use globalfs::gridftp::{transfer, TransferSpec};
use globalfs::scenarios::chaos::world_invariants;
use globalfs::scenarios::{NsdFarm, ScenarioBuilder};
use globalfs::simcore::{Bandwidth, Sim, SimDuration, SimTime};
use globalfs::simnet::{LinkId, NodeId};
use globalfs::simsan::ArraySpec;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

const MIB: u64 = 1 << 20;

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct GridShape {
    /// Reader clients at the home site (the writer is one more).
    pub local_readers: u32,
    /// Reader clients at the remote site.
    pub remote_readers: u32,
    /// Page-pool pages (1 MiB each) per client.
    pub pool_pages: u32,
    /// Private file size, MiB.
    pub own_mib: u64,
    /// Shared files.
    pub shared_files: u32,
    /// Shared file size, MiB.
    pub shared_mib: u64,
    /// Shared files streamed per loop.
    pub stream_files: u32,
    /// Closed-loop iterations per reader.
    pub loops: u32,
    /// Shared-file overwrites by the writer.
    pub overwrites: u32,
    /// Upper bound of the writer's seeded pause between overwrites, µs.
    pub writer_think_us: u64,
}

impl GridShape {
    /// The benchmark size.
    pub fn full() -> Self {
        GridShape {
            local_readers: 4,
            remote_readers: 3,
            pool_pages: 16,
            own_mib: 16,
            shared_files: 32,
            shared_mib: 2,
            stream_files: 8,
            loops: 12,
            overwrites: 120,
            writer_think_us: 200_000,
        }
    }

    /// A few-second shape for tests and the self-test.
    pub fn small() -> Self {
        GridShape {
            local_readers: 2,
            remote_readers: 2,
            pool_pages: 8,
            own_mib: 4,
            shared_files: 8,
            shared_mib: 2,
            stream_files: 4,
            loops: 2,
            overwrites: 6,
            writer_think_us: 10_000,
        }
    }
}

/// One shared file's version bookkeeping, per 1 MiB chunk.
struct Shared {
    path: String,
    ino: InodeId,
    /// Highest version whose write of the chunk was issued.
    issued: Vec<u32>,
    /// Highest version whose overwrite was closed (flushed).
    closed: u32,
}

/// Round-wide state every callback shares.
struct Grid {
    b: Rc<Bench>,
    fs: FsId,
    /// Random content every file version is a window of.
    pat: Bytes,
    /// What reads are compared with (`pat`, unless the self-test flipped
    /// a byte).
    expect: Vec<u8>,
    window: u64,
    shared: RefCell<Vec<Shared>>,
    shape: GridShape,
    replica_site: u32,
    rep_node: NodeId,
    home_node: NodeId,
    wan: Vec<LinkId>,
    chains_left: Cell<u32>,
    /// Seeds the stream order, think times and the writer's choices.
    seed: u64,
}

type Done = Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld)>;
/// Continuation of an open: the handle, or `None` if the open failed.
type Then = Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Option<Handle>)>;

/// Offset of file `fid` at `version` inside the content pool.
fn content_base(window: u64, fid: u64, version: u32) -> u64 {
    8 * (mix(fid.wrapping_add(1), u64::from(version) + 1) % (window / 8))
}

impl Grid {
    fn base(&self, fid: u64, version: u32) -> u64 {
        content_base(self.window, fid, version)
    }

    fn content(&self, fid: u64, version: u32, off: u64, len: u64) -> Bytes {
        let b = self.base(fid, version) + off;
        self.pat.slice(b as usize..(b + len) as usize)
    }

    fn matches(&self, got: &[u8], fid: u64, version: u32, off: u64) -> bool {
        let b = (self.base(fid, version) + off) as usize;
        self.expect.get(b..b + got.len()) == Some(got)
    }

    /// Traced-round samples taken at each data-op submit.
    fn sample_submit(
        &self,
        w: &GfsWorld,
        now: SimTime,
        ctx: u32,
        ino: InodeId,
        off: u64,
        len: u64,
        mode: TokenMode,
    ) {
        self.b.with_tr(|t| {
            let inst = &w.fss[self.fs.0 as usize];
            // Array-backed home NSDs queue inside the array model; the
            // replica farms' queues are the farm's visible NSD backlog.
            let backlog = inst
                .nsds
                .iter()
                .chain(inst.replicas.sites.iter().flat_map(|s| &s.nsds))
                .map(|n| n.busy_until.as_nanos().saturating_sub(now.as_nanos()))
                .max()
                .unwrap_or(0);
            t.nsd_backlog.record(backlog);
            for blk in off / MIB..(off + len).div_ceil(MIB) {
                t.blocks.push((
                    ctx,
                    PageKey {
                        fs: self.fs,
                        inode: ino,
                        block: blk,
                    },
                ));
            }
            let client = globalfs::gfs::ClientId(ctx);
            t.tokens
                .push((ino, client, Some((ByteRange::new(off, off + len), mode))));
        });
    }

    /// WAN throughput while the WAN carries traffic, Mb/s.
    fn sample_wan(&self, w: &GfsWorld, t: &mut Tracer) {
        let bps: f64 = self.wan.iter().map(|&l| w.net.link_throughput(l)).sum();
        if bps > 0.0 {
            t.wan_mbps.record((bps * 8.0 / 1e6) as u64);
        }
    }
}

/// Open `path` for `flags`, counting the open as an op.
fn open(
    g: &Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    path: &str,
    flags: OpenFlags,
    then: Then,
) {
    g.b.issue();
    let g2 = g.clone();
    let what = format!("open {path}");
    let _s = g.b.span(Span::Submit);
    sess.open(sim, w, path, flags, Owner::local(0, 0), move |sim, w, r| {
        let _c = g2.b.span(Span::Callback);
        {
            let mut rec = g2.b.rec.borrow_mut();
            let verdict = match &r {
                Ok(_) => Ok(()),
                Err(e) => rec.check_err(e, &[], &what),
            };
            rec.done_untimed(
                40 ^ r.as_ref().err().map_or(0, err_code),
                sim.now(),
                verdict,
            );
        }
        then(sim, w, r.ok());
    });
}

/// Close `h`, counting the close as an op, then `done`.
/// Close `h`, counting the close as an op, then `done`.
fn close(
    g: &Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    h: Handle,
    ino: InodeId,
    done: Done,
) {
    g.b.issue();
    let ctx = sess.ctx(w);
    g.b.with_tr(|t| t.tokens.push((ino, ctx, None)));
    let g2 = g.clone();
    let _s = g.b.span(Span::Submit);
    sess.close(sim, w, h, move |sim, w, r| {
        let _c = g2.b.span(Span::Callback);
        {
            let mut rec = g2.b.rec.borrow_mut();
            let verdict = match &r {
                Ok(()) => Ok(()),
                Err(e) => rec.check_err(e, &[], "close"),
            };
            rec.done_untimed(
                41 ^ r.as_ref().err().map_or(0, err_code),
                sim.now(),
                verdict,
            );
        }
        done(sim, w);
    });
}

/// Write chunks `[c, n)` of file `fid` at `version`, then close.
fn write_chunks(
    g: Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    h: Handle,
    ino: InodeId,
    fid: u64,
    version: u32,
    shared: Option<usize>,
    c: u64,
    n: u64,
    done: Done,
) {
    if c == n {
        close(&g, sim, w, sess, h, ino, done);
        return;
    }
    let off = c * MIB;
    let data = g.content(fid, version, off, MIB);
    if let Some(k) = shared {
        g.shared.borrow_mut()[k].issued[c as usize] = version;
    }
    g.b.issue();
    let t0 = sim.now();
    let ctx = sess.ctx(w).0;
    g.sample_submit(w, t0, ctx, ino, off, MIB, TokenMode::Write);
    let g2 = g.clone();
    let _s = g.b.span(Span::Submit);
    // A durable write: the write call, then fsync of its pages.
    sess.write(sim, w, h, off, data, move |sim, w, r| {
        let _c = g2.b.span(Span::Callback);
        let g3 = g2.clone();
        let _s = g2.b.span(Span::Submit);
        sess.fsync(sim, w, h, move |sim, w, fr| {
            let g2 = g3;
            let r = r.and(fr);
            let _c = g2.b.span(Span::Callback);
            {
                let mut rec = g2.b.rec.borrow_mut();
                let verdict = match &r {
                    Ok(()) => {
                        rec.write_bytes += MIB;
                        Ok(())
                    }
                    Err(e) => rec.check_err(e, &[], "write"),
                };
                let code = 42 ^ r.as_ref().err().map_or(0, err_code);
                rec.done(Class::Wr, code, t0, sim.now(), verdict);
            }
            write_chunks(
                g2,
                sim,
                w,
                sess,
                h,
                ino,
                fid,
                version,
                shared,
                c + 1,
                n,
                done,
            );
        });
    });
}

/// Read chunks `[c, n)` of private file `fid` (written at `version`),
/// checking each byte, then close.
fn read_chunks(
    g: Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    h: Handle,
    ino: InodeId,
    fid: u64,
    version: u32,
    c: u64,
    n: u64,
    done: Done,
) {
    if c == n {
        close(&g, sim, w, sess, h, ino, done);
        return;
    }
    let g2 = g.clone();
    read_checked(
        &g,
        sim,
        w,
        sess,
        h,
        ino,
        fid,
        c * MIB,
        vec![(version, version)],
        Box::new(move |sim, w| read_chunks(g2, sim, w, sess, h, ino, fid, version, c + 1, n, done)),
    );
}

/// One read call of `windows.len()` MiB at `off`. Chunk `i` of the result
/// must equal one version of file `fid` within `windows[i]`. For a shared
/// file the caller sets the lower ends at issue; the upper ends are set at
/// completion.
fn read_checked(
    g: &Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    h: Handle,
    ino: InodeId,
    fid: u64,
    off: u64,
    windows: Vec<(u32, u32)>,
    done: Done,
) {
    let len = windows.len() as u64 * MIB;
    let shared = (fid < 1000).then_some(fid as usize);
    g.b.issue();
    let t0 = sim.now();
    let ctx = sess.ctx(w).0;
    g.sample_submit(w, t0, ctx, ino, off, len, TokenMode::Read);
    let g2 = g.clone();
    let _s = g.b.span(Span::Submit);
    sess.read(sim, w, h, off, len, move |sim, w, r| {
        let _c = g2.b.span(Span::Callback);
        let mut windows = windows;
        if let Some(k) = shared {
            // No chunk may be newer than the last write issued for it
            // before the read completed.
            let sh = g2.shared.borrow();
            for (i, win) in windows.iter_mut().enumerate() {
                win.1 = sh[k].issued[(off / MIB) as usize + i];
            }
        }
        let verdict = match &r {
            Ok(got) if got.len() as u64 != len => {
                Err(format!("read {fid}@{off}: {} of {len} bytes", got.len()))
            }
            Ok(got) => {
                let t = Instant::now();
                let _v = g2.b.span(Span::Verify);
                let bad = windows.iter().enumerate().find(|(i, (lo, hi))| {
                    let part = &got[*i * MIB as usize..(*i + 1) * MIB as usize];
                    let at = off + *i as u64 * MIB;
                    !(*lo..=*hi).rev().any(|v| g2.matches(part, fid, v, at))
                });
                g2.b.add_verify(t);
                match bad {
                    None => Ok(()),
                    Some((i, (lo, hi))) => Err(format!(
                        "read {fid}@{}: bytes match no version in {lo}..={hi}",
                        off + i as u64 * MIB
                    )),
                }
            }
            Err(e) => g2.b.rec.borrow_mut().check_err(e, &[], "read"),
        };
        {
            let mut rec = g2.b.rec.borrow_mut();
            if let Ok(got) = &r {
                rec.read_bytes += got.len() as u64;
            }
            let code = 43
                ^ r.as_ref().map_or(0, |b| b.len() as u64)
                ^ r.as_ref().err().map_or(0, err_code);
            rec.done(Class::Rd, code, t0, sim.now(), verdict);
        }
        done(sim, w);
    });
}

fn write_file(
    g: &Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    path: String,
    fid: u64,
    version: u32,
    shared: Option<usize>,
    mib: u64,
    done: Done,
) {
    let g2 = g.clone();
    let g3 = g.clone();
    let path2 = path.clone();
    open(
        g,
        sim,
        w,
        sess,
        &path,
        OpenFlags::Write,
        Box::new(move |sim, w, h| {
            let Some(h) = h else { return done(sim, w) };
            let ino = w.fss[g2.fs.0 as usize]
                .core
                .lookup(&path2)
                .expect("opened file exists");
            g3.b.with_tr(|t| t.ns_log.push(NsOp::Create(path2.clone())));
            write_chunks(g2, sim, w, sess, h, ino, fid, version, shared, 0, mib, done);
        }),
    );
}

fn read_file(
    g: &Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    path: String,
    fid: u64,
    version: u32,
    mib: u64,
    done: Done,
) {
    let g2 = g.clone();
    let path2 = path.clone();
    let ctx = sess.ctx(w).0;
    g.b.with_tr(|t| t.paths.push((ctx, path.clone())));
    open(
        g,
        sim,
        w,
        sess,
        &path,
        OpenFlags::Read,
        Box::new(move |sim, w, h| {
            let Some(h) = h else { return done(sim, w) };
            let ino = w.fss[g2.fs.0 as usize]
                .core
                .lookup(&path2)
                .expect("opened file exists");
            g2.b.with_tr(|t| t.ns_log.push(NsOp::Stat(path2.clone())));
            read_chunks(g2, sim, w, sess, h, ino, fid, version, 0, mib, done);
        }),
    );
}

/// Shared-file handles a reader holds open for its whole run.
type Handles = Rc<RefCell<Vec<(Handle, InodeId)>>>;

/// Open every shared file, then run the reader's loops.
fn reader_start(
    g: Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    idx: u32,
    hs: Handles,
) {
    let k = hs.borrow().len();
    if k == g.shape.shared_files as usize {
        reader_loop(g, sim, w, sess, idx, 0, hs);
        return;
    }
    let (path, ino) = {
        let sh = g.shared.borrow();
        (sh[k].path.clone(), sh[k].ino)
    };
    let g2 = g.clone();
    open(
        &g,
        sim,
        w,
        sess,
        &path,
        OpenFlags::Read,
        Box::new(move |sim, w, h| match h {
            Some(h) => {
                hs.borrow_mut().push((h, ino));
                reader_start(g2, sim, w, sess, idx, hs);
            }
            None => g2.chains_left.set(g2.chains_left.get() - 1),
        }),
    );
}

/// Close the reader's shared handles, then retire its chain.
fn reader_finish(
    g: Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    hs: Handles,
) {
    let Some((h, ino)) = hs.borrow_mut().pop() else {
        g.chains_left.set(g.chains_left.get() - 1);
        return;
    };
    let g2 = g.clone();
    close(
        &g,
        sim,
        w,
        sess,
        h,
        ino,
        Box::new(move |sim, w| reader_finish(g2, sim, w, sess, hs)),
    );
}

/// One reader's closed loop: write own file, re-read it, stream shared.
fn reader_loop(
    g: Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    idx: u32,
    l: u32,
    hs: Handles,
) {
    let shape = g.shape;
    if l == shape.loops {
        reader_finish(g, sim, w, sess, hs);
        return;
    }
    let fid = 1000 + u64::from(idx);
    let own = format!("/own/c{idx:02}");
    let g1 = g.clone();
    let own1 = own.clone();
    write_file(
        &g,
        sim,
        w,
        sess,
        own,
        fid,
        l,
        None,
        shape.own_mib,
        Box::new(move |sim, w| {
            let g2 = g1.clone();
            read_file(
                &g1,
                sim,
                w,
                sess,
                own1,
                fid,
                l,
                shape.own_mib,
                Box::new(move |sim, w| stream_shared(g2, sim, w, sess, idx, l, 0, hs)),
            );
        }),
    );
}

/// Stream `stream_files` shared files through the held handles, then
/// start the next loop.
fn stream_shared(
    g: Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    idx: u32,
    l: u32,
    i: u32,
    hs: Handles,
) {
    let shape = g.shape;
    if i == shape.stream_files {
        reader_loop(g, sim, w, sess, idx, l + 1, hs);
        return;
    }
    // A seeded order per reader and loop, and a seeded think time before
    // each file: the seed varies the interleaving, not the shape.
    let mut rng = crate::bench::Rng::new(g.seed, u64::from(idx) << 32 | u64::from(l));
    let mut order: Vec<usize> = (0..shape.shared_files as usize).collect();
    for j in (1..order.len()).rev() {
        order.swap(j, rng.below(j as u64 + 1) as usize);
    }
    let k = order[i as usize % order.len()];
    let think = SimDuration::from_nanos(rng.below(500_000));
    let g3 = g.clone();
    sim.after(think, move |sim, w| {
        stream_one(g3, sim, w, sess, idx, l, i, hs, k)
    });
}

/// Read shared file `k` whole through the held handle.
fn stream_one(
    g: Rc<Grid>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    idx: u32,
    l: u32,
    i: u32,
    hs: Handles,
    k: usize,
) {
    let shape = g.shape;
    let (h, ino) = hs.borrow()[k];
    let ctx = sess.ctx(w).0;
    let path = g.shared.borrow()[k].path.clone();
    g.b.with_tr(|t| t.paths.push((ctx, path)));
    // The whole file in one call: its read token then covers every page
    // the call brings into the pool. Shared reads are held to
    // close-to-open consistency: no chunk may be older than the last
    // overwrite closed before the read was issued.
    let closed = g.shared.borrow()[k].closed;
    let windows = vec![(closed, closed); shape.shared_mib as usize];
    let g2 = g.clone();
    read_checked(
        &g,
        sim,
        w,
        sess,
        h,
        ino,
        k as u64,
        0,
        windows,
        Box::new(move |sim, w| stream_shared(g2, sim, w, sess, idx, l, i + 1, hs)),
    );
}

/// The writer: overwrite seeded shared files with seeded pauses,
/// re-replicating each finished version to the remote farm.
fn writer_loop(g: Rc<Grid>, sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, sess: Session, n: u32) {
    let shape = g.shape;
    if n == shape.overwrites {
        g.chains_left.set(g.chains_left.get() - 1);
        return;
    }
    let mut rng = crate::bench::Rng::new(g.seed, 0x3717e5 ^ u64::from(n));
    let k = rng.below(u64::from(shape.shared_files)) as usize;
    let think = SimDuration::from_nanos(rng.below(shape.writer_think_us * 1000));
    let version = g.shared.borrow()[k].closed + 1;
    let (path, ino) = {
        let sh = g.shared.borrow();
        (sh[k].path.clone(), sh[k].ino)
    };
    let g2 = g.clone();
    write_file(
        &g,
        sim,
        w,
        sess,
        path,
        k as u64,
        version,
        Some(k),
        shape.shared_mib,
        Box::new(move |sim, w| {
            g2.shared.borrow_mut()[k].closed = version;
            // Re-replicate the new version to the remote farm; the copy is
            // installed only if no later overwrite has begun meanwhile.
            let bytes = shape.shared_mib * MIB;
            let spec = TransferSpec::new(g2.home_node, g2.rep_node, bytes);
            let g3 = g2.clone();
            transfer(sim, w, spec, move |_sim, w: &mut GfsWorld| {
                let still = g3.shared.borrow()[k].issued.iter().all(|&v| v == version);
                if still {
                    w.fss[g3.fs.0 as usize]
                        .replicas
                        .install_copy(ino, g3.replica_site, bytes);
                }
            });
            sim.after(think, move |sim, w| writer_loop(g2, sim, w, sess, n + 1));
        }),
    );
}

/// Run one `data_grid` round.
pub fn run(
    seed: u64,
    shape: GridShape,
    trace: bool,
    corrupt: Corrupt,
    setup_only: bool,
) -> RoundOut {
    let t_setup = Instant::now();
    let mut sb = ScenarioBuilder::new(seed);
    let fs = sb.nsd_farm(
        "home",
        NsdFarm::new("grid", 8)
            .block_size(MIB)
            .stored_data()
            .array_backed(ArraySpec::ds4100_sata()),
    );
    sb.wan(
        "home",
        "remote",
        Bandwidth::gbit(10.0),
        SimDuration::from_millis(30),
        "wan",
    );
    let rep_servers: Vec<NodeId> = (0..2)
        .map(|j| {
            let sw = sb.site("remote");
            let name = format!("rep-srv{j}");
            let n = sb.world_builder().topo().node(name.clone());
            sb.world_builder().topo().duplex_link(
                n,
                sw,
                Bandwidth::gbit(10.0),
                SimDuration::from_micros(50),
                name,
            );
            n
        })
        .collect();
    let nic = Bandwidth::gbit(10.0);
    let dly = SimDuration::from_micros(100);
    let pool = shape.pool_pages as usize;
    let writer = sb.clients("home", 1, nic, dly, pool)[0];
    let mut readers = sb.clients("home", shape.local_readers, nic, dly, pool);
    readers.extend(sb.clients("remote", shape.remote_readers, nic, dly, pool));
    let run = sb.run(SimTime::ZERO);
    let (mut sim, mut w) = (run.sim, run.world);
    sim.set_horizon(SimTime::from_secs(1_000_000));

    // Inputs: a random content pool every file version is a window of.
    let file_mib = shape.own_mib.max(shape.shared_mib);
    let window = 64 * MIB;
    let mut rng = crate::bench::Rng::new(seed, 0xda7a);
    let mut buf = Vec::with_capacity((file_mib * MIB + window) as usize);
    while (buf.len() as u64) < file_mib * MIB + window {
        buf.extend_from_slice(&rng.next().to_le_bytes());
    }
    let mut expect = buf.clone();
    if corrupt == Corrupt::Bytes {
        // One expected byte of reader 0's first private-file chunk.
        expect[(content_base(window, 1000, 0) + MIB / 2) as usize] ^= 0x5a;
    }
    let pat = Bytes::from(buf);

    let owner = Owner::local(0, 0);
    let home_node = w.fss[fs.0 as usize].nsd_servers[0];
    let site = w.fss[fs.0 as usize].replicas.attach_site(
        "remote-rep",
        rep_servers.clone(),
        4,
        1e9,
        SimDuration::from_micros(200),
    );
    let wan = w.net.links_named("wan");
    let b = Bench::new(trace, corrupt);
    // Every op the round will issue: each reader opens and finally closes
    // every shared file and per loop opens, writes, closes, re-opens,
    // re-reads and closes its own file and streams its shared files; the
    // writer opens, writes and closes per overwrite.
    let r = u64::from(shape.local_readers + shape.remote_readers);
    let per_reader = 2 * u64::from(shape.shared_files)
        + u64::from(shape.loops) * (4 + 2 * shape.own_mib + u64::from(shape.stream_files));
    b.expect_ops(r * per_reader + u64::from(shape.overwrites) * (2 + shape.shared_mib));
    let g = Rc::new(Grid {
        b: b.clone(),
        fs,
        pat,
        expect,
        window,
        shared: RefCell::new(Vec::new()),
        shape,
        replica_site: site,
        rep_node: rep_servers[0],
        home_node,
        wan,
        seed,
        chains_left: Cell::new(1 + shape.local_readers + shape.remote_readers),
    });
    // Shared files at version 0, written straight into the core (setup is
    // not the measured data path), cataloged with a current remote copy.
    {
        let core = &mut w.fss[fs.0 as usize].core;
        core.mkdir("/own", owner.clone(), 0).expect("mkdir /own");
        core.mkdir("/shared", owner.clone(), 0)
            .expect("mkdir /shared");
    }
    for k in 0..shape.shared_files {
        let path = format!("/shared/s{k}");
        let inst = &mut w.fss[fs.0 as usize];
        let ino = inst
            .core
            .create_file(&path, owner.clone(), 0)
            .expect("create shared");
        for blk in 0..shape.shared_mib {
            let addr = inst
                .core
                .ensure_block(ino, blk)
                .expect("allocate shared block");
            inst.core
                .put_block_data(addr, g.content(u64::from(k), 0, blk * MIB, MIB));
        }
        inst.core
            .note_write(ino, 0, shape.shared_mib * MIB, 0)
            .expect("size shared");
        inst.replicas.register(ino);
        inst.replicas
            .install_copy(ino, site, shape.shared_mib * MIB);
        let chunks = shape.shared_mib as usize;
        g.shared.borrow_mut().push(Shared {
            path,
            ino,
            issued: vec![0; chunks],
            closed: 0,
        });
    }
    for sess in std::iter::once(&writer).chain(&readers) {
        sess.mount(
            &mut sim,
            &mut w,
            "grid",
            AccessMode::ReadWrite,
            |_, _, r| r.expect("data_grid mount"),
        );
    }
    sim.run(&mut w);
    let setup_s = t_setup.elapsed().as_secs_f64();
    if setup_only {
        return RoundOut::setup_only(setup_s);
    }

    // Measured phase: every closed loop starts at the same instant.
    let t0 = sim.now();
    let svc0: Vec<u64> = w.fss[fs.0 as usize]
        .mgrs
        .iter()
        .map(|m| m.service_ns)
        .collect();
    let snap0 = w.fss[fs.0 as usize].core.meta_snapshot();
    let events0 = sim.executed();
    let t_run = Instant::now();
    let cpu0 = crate::bench::cpu_ticks();
    {
        let g = g.clone();
        let readers = readers.clone();
        sim.at(t0, move |sim, w| {
            if g.b.corrupt == Corrupt::Stall {
                // Self-test: the writer's first op is issued and dropped.
                g.b.issue();
            } else {
                writer_loop(g.clone(), sim, w, writer, 0);
            }
            for (i, &s) in readers.iter().enumerate() {
                reader_start(
                    g.clone(),
                    sim,
                    w,
                    s,
                    i as u32,
                    Rc::new(RefCell::new(Vec::new())),
                );
            }
        });
    }
    {
        let g = g.clone();
        crate::bench::drive(&b, &mut sim, &mut w, move |_sim, w, t: &mut Tracer| {
            t.flows.record(w.net.active_flows() as u64);
            g.sample_wan(w, t);
        });
    }
    let wall = t_run.elapsed().as_secs_f64();
    let kfrac = crate::bench::kernel_frac(cpu0, crate::bench::cpu_ticks());
    let verify_s = b.verify_ns.get() as f64 / 1e9;
    let measured_s = (wall - verify_s).max(1e-9);

    if corrupt == Corrupt::Fsck {
        let inst = &mut w.fss[fs.0 as usize];
        let ino = g.shared.borrow()[0].ino;
        let other = inst
            .core
            .block_map(g.shared.borrow()[1].ino, 0, 1)
            .expect("block map")[0]
            .1
            .expect("block");
        inst.core.corrupt_block_pointer_for_test(ino, 0, other);
    }
    if corrupt == Corrupt::Invariant {
        w.fss[fs.0 as usize].replicas.counters.stale_reads += 1;
    }
    let mut gate = Vec::new();
    if g.chains_left.get() != 0 {
        gate.push(format!(
            "{} client loop(s) did not drain",
            g.chains_left.get()
        ));
    }
    let rec = std::mem::take(&mut *b.rec.borrow_mut());
    if rec.completed != rec.attempted {
        gate.push(format!(
            "{} of {} ops never completed",
            rec.attempted - rec.completed,
            rec.attempted
        ));
    }
    gate.extend(world_invariants(&sim, &w));
    for (i, inst) in w.fss.iter().enumerate() {
        let r = fsck_instance(inst);
        if !r.is_clean() {
            gate.push(format!("fs {i}: fsck found {} error(s)", r.errors.len()));
        }
    }

    let span_ns = rec.last_done.as_nanos().saturating_sub(t0.as_nanos());
    let inst = &w.fss[fs.0 as usize];
    let rc = inst.replicas.counters;
    let fingerprint = mix(
        mix(rec.fingerprint, span_ns),
        rc.remote_picks ^ (rc.invalidations << 20),
    );
    let mut layers = BTreeMap::new();
    if trace {
        let tr = b.tr.as_ref().expect("traced").borrow();
        layers::common(
            &mut layers,
            &tr,
            &rec,
            &w,
            sim.executed() - events0,
            wall,
            kfrac,
        );
        layers::meta_layers(
            &mut layers,
            &w,
            fs,
            &tr,
            &rec,
            span_ns,
            &svc0,
            (snap0.resolves, snap0.resolve_alloc_bytes),
        );
        layers::data_layers(&mut layers, &w, fs, &tr);
        let files = shape.shared_files;
        let init = move |core: &mut FsCore| {
            let owner = Owner::local(0, 0);
            core.mkdir("/own", owner.clone(), 0).expect("mkdir /own");
            core.mkdir("/shared", owner.clone(), 0)
                .expect("mkdir /shared");
            for k in 0..files {
                core.create_file(&format!("/shared/s{k}"), owner.clone(), 0)
                    .expect("create shared");
            }
            2 + u64::from(files)
        };
        layers::replays(
            &mut layers,
            &w,
            fs,
            &tr,
            &init,
            shape.pool_pages as usize,
            wall,
        );
    }
    let shape_line = format!(
        "data_grid: {} clients ({} home readers, {} remote readers, 1 writer), pool {} MiB, own {} MiB, {} shared x {} MiB ({} per loop), {} loops, {} overwrites",
        1 + shape.local_readers + shape.remote_readers,
        shape.local_readers,
        shape.remote_readers,
        shape.pool_pages,
        shape.own_mib,
        shape.shared_files,
        shape.shared_mib,
        shape.stream_files,
        shape.loops,
        shape.overwrites
    );
    RoundOut {
        setup_s,
        measured_s,
        span_ns,
        rec,
        gate,
        fingerprint,
        layers,
        shape: shape_line,
    }
}
