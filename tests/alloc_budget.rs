//! Allocation budget of the data path: how many block-sized buffers one
//! `Session` read or write allocates on a stored-data filesystem with
//! 1 MiB blocks.
//!
//! This binary installs a counting global allocator. It tallies
//! allocations (and reallocations) of one block or more, per thread, so
//! tests that the harness runs in parallel do not see each other's
//! buffers. An op is charged what its thread allocated between the call
//! and its completion callback.

use bytes::Bytes;
use globalfs::gfs::session::Session;
use globalfs::gfs::types::{FsError, Handle, OpenFlags, Owner};
use globalfs::gfs::world::GfsWorld;
use globalfs::gfs_auth::handshake::AccessMode;
use globalfs::scenarios::{NsdFarm, ScenarioBuilder};
use globalfs::simcore::{Bandwidth, Sim, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const BLOCK: usize = 1 << 20;

thread_local! {
    static BLOCK_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of requests of at least [`BLOCK`].
struct CountingAlloc;

fn note(size: usize) {
    if size >= BLOCK {
        // `try_with`: the slot may already be gone while a thread exits.
        let _ = BLOCK_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; `note` only bumps a const-initialised
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller meets `alloc`'s contract; passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller meets `alloc_zeroed`'s contract; passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller meets the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (see `realloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn block_allocs() -> u64 {
    BLOCK_ALLOCS.with(Cell::get)
}

/// Two clients (separate mount contexts, so separate page pools) on one
/// stored-data filesystem with 1 MiB blocks, both mounted.
fn world() -> (Sim<GfsWorld>, GfsWorld, Session, Session) {
    let mut sb = ScenarioBuilder::new(5);
    sb.nsd_farm(
        "site",
        NsdFarm::new("d", 4).block_size(BLOCK as u64).stored_data(),
    );
    let s = sb.clients(
        "site",
        2,
        Bandwidth::gbit(10.0),
        SimDuration::from_micros(100),
        16,
    );
    let run = sb.run(SimTime::ZERO);
    let (mut sim, mut w) = (run.sim, run.world);
    sim.set_horizon(SimTime::from_secs(1_000));
    for sess in &s {
        sess.mount(&mut sim, &mut w, "d", AccessMode::ReadWrite, |_, _, r| {
            r.expect("mount")
        });
    }
    sim.run(&mut w);
    (sim, w, s[0], s[1])
}

/// Start one op and run the world to quiescence. Returns the op's result
/// and the block-sized allocations made from the call to its callback.
fn counted<T: 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    op: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Box<dyn FnOnce(T)>),
) -> (T, u64) {
    let out = Rc::new(RefCell::new(None));
    let slot = out.clone();
    let before = block_allocs();
    op(
        sim,
        w,
        Box::new(move |r| *slot.borrow_mut() = Some((r, block_allocs() - before))),
    );
    sim.run(w);
    let done = out.borrow_mut().take();
    done.expect("op completed")
}

fn open(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, s: Session, flags: OpenFlags) -> Handle {
    let (h, _) = counted(sim, w, |sim, w, done| {
        s.open(sim, w, "/f", flags, Owner::local(0, 0), move |_, _, r| {
            done(r)
        })
    });
    h.expect("open /f")
}

fn write(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    s: Session,
    h: Handle,
    off: u64,
    data: Bytes,
) -> u64 {
    let (r, n): (Result<(), FsError>, u64) = counted(sim, w, |sim, w, done| {
        s.write(sim, w, h, off, data, move |_, _, r| done(r))
    });
    r.expect("write");
    n
}

fn read(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    s: Session,
    h: Handle,
    off: u64,
    len: u64,
) -> (Bytes, u64) {
    let (r, n) = counted(sim, w, |sim, w, done| {
        s.read(sim, w, h, off, len, move |_, _, r| done(r))
    });
    (r.expect("read"), n)
}

/// A two-block file whose byte `i` is `i % 251`, written by one client and
/// flushed to the NSDs; returns the other, cold client.
fn two_block_file() -> (Sim<GfsWorld>, GfsWorld, Session, Vec<u8>) {
    let (mut sim, mut w, s0, s1) = world();
    let content: Vec<u8> = (0..2 * BLOCK).map(|i| (i % 251) as u8).collect();
    let h = open(&mut sim, &mut w, s0, OpenFlags::ReadWrite);
    write(&mut sim, &mut w, s0, h, 0, Bytes::from(content.clone()));
    let (r, _) = counted(&mut sim, &mut w, |sim, w, done| {
        s0.close(sim, w, h, move |_, _, r| done(r))
    });
    r.expect("close");
    (sim, w, s1, content)
}

#[test]
fn full_block_write_allocates_no_block_buffer() {
    let (mut sim, mut w, s0, _) = world();
    let h = open(&mut sim, &mut w, s0, OpenFlags::ReadWrite);
    let data = Bytes::from(vec![0x5a; 2 * BLOCK]);
    assert_eq!(
        write(&mut sim, &mut w, s0, h, 0, data),
        0,
        "full blocks dirty the caller's slices"
    );
}

#[test]
fn sub_block_write_allocates_one_block_buffer() {
    let (mut sim, mut w, s1, mut content) = two_block_file();
    // Cold: `s1` fetches the old block before merging.
    let h1 = open(&mut sim, &mut w, s1, OpenFlags::ReadWrite);
    let n = write(&mut sim, &mut w, s1, h1, 100, Bytes::from(vec![1u8; 4096]));
    assert_eq!(n, 1, "a partial-block merge builds one block-sized page");
    // Warm: the merged page is already in `s1`'s pool.
    let n = write(
        &mut sim,
        &mut w,
        s1,
        h1,
        BLOCK as u64 - 10,
        Bytes::from(vec![2u8; 10]),
    );
    assert_eq!(n, 1, "a partial-block merge builds one block-sized page");
    content[100..4196].fill(1);
    content[BLOCK - 10..BLOCK].fill(2);
    let (got, _) = read(&mut sim, &mut w, s1, h1, 0, 2 * BLOCK as u64);
    assert!(
        got[..] == content[..],
        "merged pages must hold old and new bytes"
    );
}

#[test]
fn one_block_read_allocates_no_block_buffer() {
    let (mut sim, mut w, s1, content) = two_block_file();
    let h = open(&mut sim, &mut w, s1, OpenFlags::Read);
    let (got, n) = read(&mut sim, &mut w, s1, h, BLOCK as u64 + 7, 1000);
    assert_eq!(n, 0, "a read inside one block is a slice of the page");
    assert!(got[..] == content[BLOCK + 7..BLOCK + 1007]);
}

#[test]
fn two_block_read_allocates_one_block_buffer() {
    let (mut sim, mut w, s1, content) = two_block_file();
    let h = open(&mut sim, &mut w, s1, OpenFlags::Read);
    let (got, n) = read(&mut sim, &mut w, s1, h, 0, 2 * BLOCK as u64);
    assert_eq!(n, 1, "a multi-block read copies once into its result");
    assert!(got[..] == content[..]);
}

/// A write ending past `MAX_FILE_SIZE` (here at 1 PiB) or a truncate
/// beyond it is refused with the typed error before any block map grows:
/// no block-sized allocation, and the file keeps its size.
#[test]
fn ops_past_max_file_size_are_refused_without_allocating() {
    const PIB: u64 = 1 << 50;
    let (mut sim, mut w, s0, _) = world();
    let h = open(&mut sim, &mut w, s0, OpenFlags::ReadWrite);
    write(&mut sim, &mut w, s0, h, 0, Bytes::from(vec![3u8; 100]));

    let (r, n) = counted(&mut sim, &mut w, |sim, w, done| {
        s0.write(sim, w, h, PIB, Bytes::from(vec![1u8; 4]), move |_, _, r| {
            done(r)
        })
    });
    assert!(
        matches!(r, Err(FsError::InvalidArgument(_))),
        "write: {r:?}"
    );
    assert_eq!(n, 0, "a refused write allocates nothing");

    let (r, n) = counted(&mut sim, &mut w, |sim, w, done| {
        s0.truncate(sim, w, h, PIB, move |_, _, r| done(r))
    });
    assert!(
        matches!(r, Err(FsError::InvalidArgument(_))),
        "truncate: {r:?}"
    );
    assert_eq!(n, 0, "a refused truncate allocates nothing");

    let (attr, _) = counted(&mut sim, &mut w, |sim, w, done| {
        s0.stat(sim, w, "/f", move |_, _, r| done(r))
    });
    assert_eq!(attr.expect("stat").size, 100);
}

/// A small file's page holds its own bytes, not a whole zero-padded
/// block; the bytes past its end read as zeros, also once the file grows.
#[test]
fn small_file_write_allocates_no_block_buffer() {
    let (mut sim, mut w, s0, _) = world();
    let h = open(&mut sim, &mut w, s0, OpenFlags::ReadWrite);
    let n = write(&mut sim, &mut w, s0, h, 0, Bytes::from(vec![7u8; 4096]));
    assert_eq!(n, 0, "a 4 KiB file must not hold a 1 MiB page");

    let grown = 3 * BLOCK as u64 / 2;
    let (r, _) = counted(&mut sim, &mut w, |sim, w, done| {
        s0.truncate(sim, w, h, grown, move |_, _, r| done(r))
    });
    r.expect("truncate up");
    let (got, _) = read(&mut sim, &mut w, s0, h, 0, grown);
    assert_eq!(got.len() as u64, grown);
    assert!(got[..4096].iter().all(|&b| b == 7));
    assert!(got[4096..].iter().all(|&b| b == 0));
}
