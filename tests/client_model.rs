//! Model-based testing of the full client operation path: random
//! write/read/truncate/fsync programs run through a session (mounts,
//! envelopes, tokens, NSD service and flows) and, op for op, against the
//! reference model [`ModelFs`]; every read must return the model's bytes.

use bytes::Bytes;
use globalfs::gfs::fscore::FsConfig;
use globalfs::gfs::oracle::{ModelFs, ModelId};
use globalfs::gfs::types::{FsError, Handle, OpenFlags, Owner};
use globalfs::gfs::world::{FsParams, GfsWorld, WorldBuilder};
use globalfs::gfs::Session;
use globalfs::simcore::{Bandwidth, Sim, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// One step of the random program.
#[derive(Clone, Debug)]
enum Op {
    Write { offset: u64, len: usize, fill: u8 },
    Read { offset: u64, len: u64 },
    Truncate { size: u64 },
    Fsync,
}

/// Draw one random op (formerly a proptest strategy; now a seeded draw so
/// the hermetic build needs no registry crates).
fn random_op(r: &mut StdRng) -> Op {
    match r.gen_range(0u64..=3) {
        0 => Op::Write {
            offset: r.gen_range(0u64..=199_999),
            len: r.gen_range(1usize..=49_999),
            fill: r.gen_range(0u64..=255) as u8,
        },
        1 => Op::Read {
            offset: r.gen_range(0u64..=249_999),
            len: r.gen_range(1u64..=79_999),
        },
        2 => Op::Truncate {
            size: r.gen_range(0u64..=249_999),
        },
        _ => Op::Fsync,
    }
}

fn world() -> (Sim<GfsWorld>, GfsWorld, Session) {
    let mut b = WorldBuilder::new(77);
    b.key_bits(384);
    let srv = b.topo().node("srv");
    let cli = b.topo().node("cli");
    b.topo().duplex_link(
        cli,
        srv,
        Bandwidth::gbit(1.0),
        SimDuration::from_millis(2),
        "lan",
    );
    let c = b.cluster("model");
    b.filesystem(
        c,
        FsParams::ideal(
            FsConfig::small_test("m"),
            srv,
            vec![srv],
            Bandwidth::mbyte(500.0),
            SimDuration::from_micros(100),
        ),
    );
    let client = b.client(c, cli, 64); // small pool: forces evictions
    let (sim, mut w) = b.build();
    let sess = w.open_session(client);
    (sim, w, sess)
}

/// The model side of one run: the file's model id plus every read that
/// disagreed with it.
struct Check {
    model: RefCell<ModelFs>,
    id: ModelId,
    failures: RefCell<Vec<String>>,
}

/// Apply the ops through the simulator and against the model; verify every
/// read against the model and the final stat size.
fn run_case(ops: Vec<Op>) {
    let (mut sim, mut w, sess) = world();
    let mut model = ModelFs::new();
    let id = model.open("/model.bin", OpenFlags::ReadWrite).unwrap();
    let check = Rc::new(Check {
        model: RefCell::new(model),
        id,
        failures: RefCell::new(Vec::new()),
    });
    let finished = Rc::new(std::cell::Cell::new(false));

    {
        let check = check.clone();
        let finished = finished.clone();
        sess.mount(&mut sim, &mut w, "m", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            sess.open(sim, w, "/model.bin", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
                let h = r.unwrap();
                step(sim, w, sess, h, ops, 0, check, finished);
            });
        });
    }
    sim.run(&mut w);
    assert!(finished.get(), "op sequence did not run to completion");
    let fails = check.failures.borrow();
    assert!(fails.is_empty(), "mismatches: {:?}", *fails);
    // Final size agreement.
    let model_size = check.model.borrow().stat("/model.bin").unwrap().size;
    let fs_size = w.fss[0].core.stat("/model.bin").unwrap().size;
    assert_eq!(fs_size, model_size, "final size mismatch");
}

#[allow(clippy::too_many_arguments)]
fn step(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    h: Handle,
    ops: Vec<Op>,
    idx: usize,
    check: Rc<Check>,
    finished: Rc<std::cell::Cell<bool>>,
) {
    let Some(op) = ops.get(idx).cloned() else {
        // Close (flushes) and finish.
        sess.close(sim, w, h, move |_s, _w, r| {
            r.unwrap();
            finished.set(true);
        });
        return;
    };
    let c = check.clone();
    let next = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld| {
        step(sim, w, sess, h, ops, idx + 1, c, finished);
    };
    match op {
        Op::Write { offset, len, fill } => {
            let data = vec![fill; len];
            check.model.borrow_mut().write(check.id, offset, &data).unwrap();
            sess.write(sim, w, h, offset, Bytes::from(data), move |sim, w, r| {
                r.unwrap();
                next(sim, w);
            });
        }
        Op::Read { offset, len } => {
            let expect = check.model.borrow().read(check.id, offset, len).unwrap();
            sess.read(sim, w, h, offset, len, move |sim, w, r| {
                let got = r.unwrap();
                if got.as_ref() != expect.as_slice() {
                    check.failures.borrow_mut().push(format!(
                        "read({offset},{len}): got {} bytes, want {} (first diff at {:?})",
                        got.len(),
                        expect.len(),
                        got.iter().zip(&expect).position(|(a, b)| a != b)
                    ));
                }
                next(sim, w);
            });
        }
        Op::Truncate { size } => {
            check.model.borrow_mut().truncate(check.id, size).unwrap();
            sess.truncate(sim, w, h, size, move |sim, w, r| {
                r.unwrap();
                next(sim, w);
            });
        }
        Op::Fsync => {
            sess.fsync(sim, w, h, move |sim, w, r| {
                r.unwrap();
                next(sim, w);
            });
        }
    }
}

#[test]
fn client_path_matches_reference_model() {
    let mut r = StdRng::seed_from_u64(0xc11e);
    for _case in 0..12 {
        let n = r.gen_range(1usize..=24);
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut r)).collect();
        run_case(ops);
    }
}

#[test]
fn regression_truncate_then_read_sees_zeros() {
    // Directed case: write, truncate down, extend by truncate up, read —
    // the re-extended region must read as zeros (hole), not stale cache.
    run_case(vec![
        Op::Write { offset: 0, len: 100_000, fill: 0xAA },
        Op::Fsync,
        Op::Truncate { size: 10_000 },
        Op::Truncate { size: 50_000 },
        Op::Read { offset: 0, len: 50_000 },
    ]);
}

#[test]
fn regression_overlapping_unaligned_writes() {
    run_case(vec![
        Op::Write { offset: 1000, len: 70_000, fill: 1 },
        Op::Write { offset: 60_000, len: 70_000, fill: 2 },
        Op::Write { offset: 5, len: 10, fill: 3 },
        Op::Read { offset: 0, len: 140_000 },
    ]);
}

#[test]
fn regression_read_past_truncated_eof() {
    run_case(vec![
        Op::Write { offset: 0, len: 200_000, fill: 9 },
        Op::Truncate { size: 1 },
        Op::Read { offset: 0, len: 200_000 },
    ]);
}

#[test]
fn rename_is_visible_through_the_op_path() {
    let (mut sim, mut w, sess) = world();
    let ok = Rc::new(std::cell::Cell::new(false));
    let ok2 = ok.clone();
    sess.mount(&mut sim, &mut w, "m", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        sess.open(sim, w, "/a", OpenFlags::Write, Owner::local(1, 1), move |sim, w, r| {
            let h = r.unwrap();
            sess.write(sim, w, h, 0, Bytes::from_static(b"payload"), move |sim, w, r| {
                r.unwrap();
                sess.close(sim, w, h, move |sim, w, r| {
                    r.unwrap();
                    sess.rename(sim, w, "/a", "/b", move |sim, w, r| {
                        r.unwrap();
                        sess.stat(sim, w, "/a", move |sim, w, r| {
                            assert!(matches!(r, Err(FsError::NotFound(_))));
                            sess.stat(sim, w, "/b", move |_s, _w, r| {
                                assert_eq!(r.unwrap().size, 7);
                                ok2.set(true);
                            });
                        });
                    });
                });
            });
        });
    });
    sim.run(&mut w);
    assert!(ok.get());
}
