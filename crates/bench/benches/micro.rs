//! Micro-benchmarks for the performance-critical substrate: event engine,
//! max-min solver, token manager, block allocator, RSA and the stream
//! cipher. These guard the simulator's own performance (a slow solver would
//! make the figure-scale scenarios impractical).
//!
//! Self-timed (`harness = false`): the build is hermetic, so instead of
//! criterion each benchmark runs a fixed warmup plus `ITERS` timed
//! iterations and reports the median per-iteration wall time.

use gfs::fscore::{FsConfig, FsCore};
use gfs::tokens::{ByteRange, TokenManager, TokenMode};
use gfs::types::{ClientId, InodeId, Owner};
use gfs_auth::cipher::StreamCipher;
use gfs_auth::rsa::KeyPair;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::{Sim, SimTime};
use simnet::fairshare::{FlatFlow, Solver};
use std::hint::black_box;
use std::time::Instant;

const ITERS: usize = 20;

/// Run `f` ITERS times (after 2 warmups) and print the median duration.
fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..2 {
        f();
    }
    let mut samples: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    let unit = if median < 1e-3 {
        format!("{:9.1} µs", median * 1e6)
    } else {
        format!("{:9.3} ms", median * 1e3)
    };
    println!("{name:<48} {unit}/iter  ({ITERS} iters)");
}

fn bench_event_engine() {
    bench("simcore: schedule+run 10k events", || {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        for i in 0..10_000u64 {
            sim.at(SimTime::from_nanos(i * 7 % 1_000_000), |_s, w| *w += 1);
        }
        sim.run(&mut world);
        black_box(world);
    });
}

/// A solver input: link capacities, the path buffer and the flows.
type Instance = (Vec<f64>, Vec<u32>, Vec<FlatFlow>);

/// `n_flows` flows of 4 hops over `n_links` links, every third capped,
/// packed for the solver.
fn solver_instance(n_flows: usize, n_links: usize) -> Instance {
    let caps: Vec<f64> = (0..n_links).map(|i| 1e9 + i as f64).collect();
    let paths: Vec<u32> = (0..n_flows)
        .flat_map(|i| (0..4).map(move |j| ((i * 7 + j * 13) % n_links) as u32))
        .collect();
    let meta = (0..n_flows)
        .map(|i| FlatFlow {
            start: 4 * i as u32,
            len: 4,
            cap: if i % 3 == 0 { 5e7 } else { f64::INFINITY },
        })
        .collect();
    (caps, paths, meta)
}

/// Solve an instance as one group (it may hold several components; the
/// rates are the same bits as a solve per component).
fn solve_one_group(solver: &mut Solver, inst: &Instance, out: &mut Vec<f64>) {
    let (caps, paths, meta) = inst;
    solver.solve_grouped(caps, paths, meta, &[meta.len() as u32], out);
}

fn bench_fairshare() {
    // 256 flows over 64 links, paths of length 4.
    let inst = solver_instance(256, 64);
    let mut rates = Vec::new();
    bench("simnet: max-min solve 256 flows / 64 links", || {
        solve_one_group(&mut Solver::new(), &inst, &mut rates);
        black_box(rates.as_slice());
    });
}

/// Solver scaling: the same topology shape at 100 / 1 000 / 10 000 flows,
/// solved with a reused [`Solver`] (the `Network` hot path — scratch
/// buffers warm) and with a fresh one (cold allocations every call). The
/// gap is what the scratch reuse buys per recompute.
fn bench_solver_scaling() {
    for &n_flows in &[100usize, 1_000, 10_000] {
        let inst = solver_instance(n_flows, (n_flows / 4).max(16));
        let mut solver = Solver::new();
        let mut rates = Vec::new();
        bench(&format!("simnet: solve {n_flows} flows, reused solver"), || {
            solve_one_group(&mut solver, &inst, &mut rates);
            black_box(rates.as_slice());
        });
        bench(&format!("simnet: solve {n_flows} flows, fresh solver"), || {
            solve_one_group(&mut Solver::new(), &inst, &mut rates);
            black_box(rates.as_slice());
        });
    }
}

fn bench_token_manager() {
    bench("gfs: 1k disjoint write-token acquires", || {
        let mut tm = TokenManager::new();
        for i in 0..1000u64 {
            tm.acquire(
                InodeId(1),
                ClientId((i % 64) as u32),
                ByteRange::new(i * 1000, i * 1000 + 999),
                TokenMode::Write,
            );
        }
        black_box(tm.acquires);
    });
}

fn bench_allocator() {
    bench("gfs: allocate 4k striped blocks", || {
        let mut fs = FsCore::create(FsConfig {
            name: "bench".into(),
            block_size: 1 << 20,
            nsd_blocks: 1 << 16,
            nsd_count: 64,
            data_mode: gfs::fscore::DataMode::Synthetic,
        });
        let ino = fs.create_file("/f", Owner::local(0, 0), 0).unwrap();
        for blk in 0..4096 {
            fs.ensure_block(ino, blk).unwrap();
        }
        black_box(fs.free_blocks());
    });
}

fn bench_rsa() {
    let mut rng = StdRng::seed_from_u64(1);
    let kp = KeyPair::generate(512, &mut rng);
    let msg = b"cluster ncsa.teragrid requests mount of gpfs-wan rw";
    let sig = kp.sign(msg);
    bench("gfs-auth: RSA-512 sign", || {
        black_box(kp.sign(msg));
    });
    bench("gfs-auth: RSA-512 verify", || {
        black_box(kp.public.verify(msg, &sig));
    });
    let mut keygen_rng = StdRng::seed_from_u64(99);
    bench("gfs-auth: RSA-512 keygen", || {
        black_box(KeyPair::generate(512, &mut keygen_rng));
    });
}

fn bench_cipher() {
    let mut buf = vec![0u8; 1 << 20];
    let mut cipher = StreamCipher::new(b"session-key");
    bench("gfs-auth: stream cipher 1 MiB", || {
        cipher.apply(&mut buf);
        black_box(buf[0]);
    });
}

fn bench_fsck() {
    // A 2k-file tree with 16k blocks.
    let mut fs = FsCore::create(FsConfig {
        name: "fsck-bench".into(),
        block_size: 1 << 20,
        nsd_blocks: 1 << 14,
        nsd_count: 16,
        data_mode: gfs::fscore::DataMode::Synthetic,
    });
    fs.mkdir("/d", Owner::local(0, 0), 0).unwrap();
    for i in 0..2000 {
        let id = fs
            .create_file(&format!("/d/f{i}"), Owner::local(0, 0), 0)
            .unwrap();
        for b in 0..8 {
            fs.ensure_block(id, b).unwrap();
        }
        fs.note_write(id, 0, 8 << 20, 0).unwrap();
    }
    bench("gfs: fsck 2k files / 16k blocks", || {
        let r = gfs::fsck::fsck(&fs);
        assert!(r.is_clean());
        black_box(r.blocks);
    });
}

fn bench_page_pool() {
    use gfs::cache::{PageKey, PagePool};
    use gfs::types::FsId;
    bench("gfs: page pool 10k mixed ops", || {
        let mut pool = PagePool::new(1024);
        let data = bytes::Bytes::from_static(&[0u8; 64]);
        for i in 0..10_000u64 {
            let key = PageKey {
                fs: FsId(0),
                inode: InodeId(i % 7),
                block: i % 2048,
            };
            if i % 3 == 0 {
                pool.insert_dirty(key, data.clone());
            } else if pool.get(key).is_none() {
                pool.insert_clean(key, data.clone());
            }
        }
        black_box(pool.hits);
    });
}

fn bench_sha256() {
    let data = vec![0xabu8; 1 << 16];
    bench("gfs-auth: sha256 64 KiB", || {
        black_box(gfs_auth::sha256(&data));
    });
}

fn main() {
    println!("== micro benchmarks (median of {ITERS}) ==");
    bench_event_engine();
    bench_fairshare();
    bench_solver_scaling();
    bench_token_manager();
    bench_allocator();
    bench_rsa();
    bench_cipher();
    bench_sha256();
    bench_fsck();
    bench_page_pool();
}
