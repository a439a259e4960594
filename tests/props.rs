//! Randomized-but-deterministic tests over the core data structures and
//! invariants, exercised from outside the crates through the public API.
//!
//! These were property-based tests; in the hermetic build they run the same
//! invariant checks over seeded `StdRng` case generators, so every CI run
//! exercises an identical (but broad) case set.

use bytes::Bytes;
use globalfs::gfs::fscore::{DataMode, FsConfig, FsCore};
use globalfs::gfs::tokens::{ByteRange, TokenManager, TokenMode};
use globalfs::gfs::types::{ClientId, InodeId, Owner};
use globalfs::gfs_auth::bigint::BigUint;
use globalfs::gfs_auth::{sha256, StreamCipher};
use globalfs::simcore::{RateSeries, SimDuration, SimTime};
use globalfs::simnet::fairshare::{FlatFlow, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

// ---------------------------------------------------------------------
// BigUint: algebraic laws against u128 reference arithmetic
// ---------------------------------------------------------------------

#[test]
fn bigint_add_matches_u128() {
    let mut r = rng(0xadd);
    for _ in 0..256 {
        let (a, b): (u64, u64) = (r.gen(), r.gen());
        let sum = BigUint::from_u64(a).add(&BigUint::from_u64(b));
        let expect = a as u128 + b as u128;
        assert_eq!(sum, BigUint::from_be_bytes(&expect.to_be_bytes()));
    }
}

#[test]
fn bigint_mul_matches_u128() {
    let mut r = rng(0xa11);
    for _ in 0..256 {
        let (a, b): (u64, u64) = (r.gen(), r.gen());
        let prod = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
        let expect = a as u128 * b as u128;
        assert_eq!(prod, BigUint::from_be_bytes(&expect.to_be_bytes()));
    }
}

#[test]
fn bigint_divrem_identity() {
    let mut r = rng(0xd1f);
    for _ in 0..256 {
        let a: u64 = r.gen();
        let b = r.gen_range(1u64..=u64::MAX);
        let (q, rem) = BigUint::from_u64(a).div_rem(&BigUint::from_u64(b));
        assert_eq!(q.to_u64().unwrap(), a / b);
        assert_eq!(rem.to_u64().unwrap(), a % b);
    }
}

#[test]
fn bigint_bytes_roundtrip() {
    let mut r = rng(0xb17e);
    for len in 0..64usize {
        let mut bytes = vec![0u8; len];
        r.fill(&mut bytes);
        let x = BigUint::from_be_bytes(&bytes);
        let back = x.to_be_bytes();
        // Leading zeros are canonicalized away; values must agree.
        assert_eq!(BigUint::from_be_bytes(&back), x);
    }
}

#[test]
fn bigint_modpow_matches_reference() {
    let mut r = rng(0x90d);
    for _ in 0..128 {
        let base: u32 = r.gen();
        let exp = r.gen_range(0u64..=63);
        let m = r.gen_range(2u64..=1_000_000);
        let got = BigUint::from_u64(base as u64)
            .modpow(&BigUint::from_u64(exp), &BigUint::from_u64(m));
        // Reference: square-and-multiply over u128.
        let mut acc: u128 = 1;
        let mut b = base as u128 % m as u128;
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * b % m as u128;
            }
            b = b * b % m as u128;
            e >>= 1;
        }
        assert_eq!(got.to_u64().unwrap() as u128, acc);
    }
}

// ---------------------------------------------------------------------
// Crypto: roundtrips
// ---------------------------------------------------------------------

#[test]
fn cipher_roundtrips_any_payload() {
    let mut r = rng(0xc1f);
    for _ in 0..16 {
        let key_len = r.gen_range(1usize..=63);
        let msg_len = r.gen_range(0usize..=4095);
        let mut key = vec![0u8; key_len];
        let mut msg = vec![0u8; msg_len];
        r.fill(&mut key);
        r.fill(&mut msg);
        let mut enc = StreamCipher::new(&key);
        let ct = enc.process(&msg);
        let mut dec = StreamCipher::new(&key);
        assert_eq!(dec.process(&ct), msg);
    }
}

#[test]
fn sha256_is_deterministic_and_sensitive() {
    let mut r = rng(0x5a);
    for _ in 0..16 {
        let len = r.gen_range(1usize..=1023);
        let mut msg = vec![0u8; len];
        r.fill(&mut msg);
        let d1 = sha256(&msg);
        assert_eq!(d1, sha256(&msg));
        let mut tampered = msg.clone();
        let i = r.gen_range(0usize..=len - 1);
        tampered[i] ^= 1;
        assert_ne!(d1, sha256(&tampered));
    }
}

// ---------------------------------------------------------------------
// Max-min fairness: feasibility and work conservation
// ---------------------------------------------------------------------

/// Max-min fair rates of `(path, cap)` flows, every path non-empty, solved
/// as one group: the same bits as a solve per connected component.
fn max_min(caps: &[f64], flows: &[(&[u32], f64)]) -> Vec<f64> {
    let mut paths = Vec::new();
    let meta: Vec<FlatFlow> = flows
        .iter()
        .map(|&(p, cap)| {
            let start = paths.len() as u32;
            paths.extend_from_slice(p);
            FlatFlow { start, len: p.len() as u32, cap }
        })
        .collect();
    let groups: &[u32] = if meta.is_empty() { &[] } else { &[meta.len() as u32] };
    let mut rates = Vec::new();
    Solver::new().solve_grouped(caps, &paths, &meta, groups, &mut rates);
    rates
}

#[test]
fn fairshare_is_feasible_and_conserving() {
    let mut r = rng(0xfa17);
    for _case in 0..64 {
        let nl = r.gen_range(1usize..=11);
        let caps: Vec<f64> = (0..nl).map(|_| r.gen_range(1.0f64..=1e9)).collect();
        let nf = r.gen_range(1usize..=23);
        // A physical path never crosses the same directed link twice:
        // draw a few links per flow and deduplicate, preserving order.
        let paths: Vec<Vec<u32>> = (0..nf)
            .map(|_| {
                let hops = r.gen_range(1usize..=3);
                let mut seen = std::collections::HashSet::new();
                (0..hops)
                    .map(|_| r.gen_range(0u64..=(nl as u64 - 1)) as u32)
                    .filter(|l| seen.insert(*l))
                    .collect()
            })
            .collect();
        let flows: Vec<(&[u32], f64)> = paths
            .iter()
            .map(|p| {
                let cap = if r.gen::<f64>() < 0.5 {
                    r.gen_range(1.0f64..=1e8)
                } else {
                    f64::INFINITY
                };
                (&p[..], cap)
            })
            .collect();
        let rates = max_min(&caps, &flows);
        assert_eq!(rates.len(), flows.len());
        // 1. No link exceeds capacity.
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|((path, _), _)| path.contains(&(l as u32)))
                .map(|(_, r)| *r)
                .sum();
            assert!(used <= cap * (1.0 + 1e-6), "link {l} used {used} > cap {cap}");
        }
        // 2. No flow exceeds its own cap.
        for ((_, cap), rate) in flows.iter().zip(&rates) {
            assert!(*rate <= cap * (1.0 + 1e-6));
        }
        // 3. Every flow gets a strictly positive rate (no starvation).
        for rate in &rates {
            assert!(*rate > 0.0);
        }
        // 4. Work conservation: each flow is limited by a saturated link
        //    or by its own cap.
        for ((path, cap), rate) in flows.iter().zip(&rates) {
            let capped_by_self = *rate >= cap * (1.0 - 1e-6);
            let capped_by_link = path.iter().any(|&l| {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|((other, _), _)| other.contains(&l))
                    .map(|(_, r)| *r)
                    .sum();
                used >= caps[l as usize] * (1.0 - 1e-6)
            });
            assert!(
                capped_by_self || capped_by_link,
                "flow with rate {rate} is not limited by anything"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Incremental network engine vs. batch solver: bit-for-bit agreement
// ---------------------------------------------------------------------

mod netprop {
    use super::max_min;
    use globalfs::simcore::{Bandwidth, Sim, SimDuration, SimTime};
    use globalfs::simnet::{FlowId, FlowSpec, NetWorld, Network, NodeId, TopologyBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct World {
        net: Network<World>,
    }
    impl NetWorld for World {
        fn net(&mut self) -> &mut Network<World> {
            &mut self.net
        }
    }

    /// One pre-generated mutation (flows are referenced by start order).
    enum Op {
        Start { slot: usize, src: NodeId, dst: NodeId, bytes: u64, window: Option<u64> },
        Cancel { slot: usize },
        Degrade { link: u32, factor: f64 },
        SetUp { link: u32, up: bool },
    }

    /// The live `Network` re-solves incrementally — dirty components only,
    /// fast paths that skip the solver, same-instant batching. A fresh
    /// global solve ([`max_min`]) over the identical flow set must produce the
    /// exact same bits for every active flow, at every probe instant; any
    /// float divergence between the two code paths fails here.
    #[test]
    fn incremental_rates_match_batch_solver_bitwise() {
        for case in 0u64..24 {
            let mut r = StdRng::seed_from_u64(0x1ec0 + case);

            // Random hub-chain topology: unique routes, shared trunks.
            let mut b = TopologyBuilder::new();
            let n_hubs = r.gen_range(1usize..=4);
            let hubs: Vec<NodeId> = (0..n_hubs).map(|i| b.node(format!("h{i}"))).collect();
            for i in 1..n_hubs {
                b.duplex_link(
                    hubs[i - 1],
                    hubs[i],
                    Bandwidth::gbit(r.gen_range(1.0f64..=10.0)),
                    SimDuration::from_millis(r.gen_range(1u64..=20)),
                    format!("trunk{i}"),
                );
            }
            let n_leaves = r.gen_range(2usize..=10);
            let leaves: Vec<NodeId> = (0..n_leaves)
                .map(|i| {
                    let leaf = b.node(format!("n{i}"));
                    let hub = hubs[r.gen_range(0usize..=n_hubs - 1)];
                    b.duplex_link(
                        leaf,
                        hub,
                        Bandwidth::gbit(r.gen_range(0.2f64..=5.0)),
                        SimDuration::from_millis(r.gen_range(1u64..=10)),
                        format!("edge{i}"),
                    );
                    leaf
                })
                .collect();
            let topo = b.build();
            let n_links = topo.link_count() as u32;

            // Pre-generate bursts of same-instant mutations (the batching
            // path) with a probe shortly after each burst.
            let mut plan: Vec<(u64, Vec<Op>)> = Vec::new();
            let mut slots = 0usize;
            let n_bursts = r.gen_range(4usize..=10);
            for k in 0..n_bursts {
                let t_us = (k as u64 + 1) * 50_000 + r.gen_range(0u64..=9_999);
                let mut ops = Vec::new();
                for _ in 0..r.gen_range(1usize..=3) {
                    match r.gen_range(0u64..=9) {
                        0..=5 => {
                            let src = leaves[r.gen_range(0usize..=n_leaves - 1)];
                            let mut dst = src;
                            while dst == src {
                                dst = leaves[r.gen_range(0usize..=n_leaves - 1)];
                            }
                            ops.push(Op::Start {
                                slot: slots,
                                src,
                                dst,
                                bytes: r.gen_range(1u64..=200) * 1_000_000,
                                window: if r.gen::<f64>() < 0.3 {
                                    Some(r.gen_range(64u64..=4096) * 1024)
                                } else {
                                    None
                                },
                            });
                            slots += 1;
                        }
                        6..=7 if slots > 0 => ops.push(Op::Cancel {
                            slot: r.gen_range(0usize..=slots - 1),
                        }),
                        8 => ops.push(Op::Degrade {
                            link: r.gen_range(0u64..=u64::from(n_links) - 1) as u32,
                            factor: r.gen_range(0.1f64..=1.0),
                        }),
                        _ => ops.push(Op::SetUp {
                            link: r.gen_range(0u64..=u64::from(n_links) - 1) as u32,
                            up: r.gen::<f64>() < 0.7,
                        }),
                    }
                }
                plan.push((t_us, ops));
            }

            let mut sim: Sim<World> = Sim::new();
            let mut w = World {
                net: Network::new(topo, case),
            };
            // Started flows by slot: (id, src, dst, window).
            type Started = Vec<(FlowId, NodeId, NodeId, Option<u64>)>;
            let started: Rc<RefCell<Started>> = Rc::new(RefCell::new(Vec::new()));

            for (t_us, ops) in plan {
                let at = SimTime::from_micros(t_us);
                for op in ops {
                    let started = started.clone();
                    match op {
                        Op::Start { slot, src, dst, bytes, window } => {
                            sim.at(at, move |sim, w| {
                                let mut spec = FlowSpec::bulk(src, dst, bytes);
                                if let Some(wnd) = window {
                                    spec = spec.with_window(wnd);
                                }
                                let id = Network::start_flow(sim, w, spec, |_s, _w| {});
                                let mut s = started.borrow_mut();
                                debug_assert_eq!(s.len(), slot);
                                s.push((id, src, dst, window));
                            });
                        }
                        Op::Cancel { slot } => {
                            sim.at(at, move |sim, w| {
                                if let Some(&(id, ..)) = started.borrow().get(slot) {
                                    Network::cancel_flow(sim, w, id);
                                }
                            });
                        }
                        Op::Degrade { link, factor } => {
                            sim.at(at, move |sim, w| {
                                Network::set_link_degraded(
                                    sim,
                                    w,
                                    globalfs::simnet::LinkId(link),
                                    factor,
                                );
                            });
                        }
                        Op::SetUp { link, up } => {
                            sim.at(at, move |sim, w| {
                                Network::set_link_up(sim, w, globalfs::simnet::LinkId(link), up);
                            });
                        }
                    }
                }
                // Probe strictly after the burst's end-of-instant solve.
                let started = started.clone();
                sim.at(at + SimDuration::from_micros(500), move |_sim, w| {
                    check_against_batch(case, &started.borrow(), &mut w.net);
                });
            }
            sim.run(&mut w);
        }
    }

    /// Rebuild the active flow set from scratch (paths, window caps,
    /// effective link capacities) and demand bitwise rate agreement with
    /// the live engine.
    fn check_against_batch(case: u64, started: &[(FlowId, NodeId, NodeId, Option<u64>)], net: &mut Network<World>) {
        let caps: Vec<f64> = (0..net.topo().link_count())
            .map(|i| {
                let l = globalfs::simnet::LinkId(i as u32);
                if net.link_is_up(l) {
                    net.topo().links()[i].capacity * net.link_degrade(l)
                } else {
                    0.0
                }
            })
            .collect();
        // Active flows in id (= insertion) order, matching the engine's
        // own packing order.
        let mut live: Vec<(FlowId, Vec<u32>, f64)> = Vec::new();
        for &(id, src, dst, window) in started {
            if net.flow_rate(id).is_none() {
                continue;
            }
            let path = net.topo().route(src, dst).expect("routed at start");
            let cap = match window {
                Some(wnd) => {
                    // Exactly the engine's window-cap arithmetic.
                    let fwd = net.topo().path_delay(&path);
                    let back = net
                        .topo()
                        .route(dst, src)
                        .map(|p| net.topo().path_delay(&p))
                        .unwrap_or(fwd);
                    wnd as f64 / (fwd + back).as_secs_f64().max(1e-9)
                }
                None => f64::INFINITY,
            };
            live.push((id, path.iter().map(|l| l.0).collect(), cap));
        }
        let flows: Vec<(&[u32], f64)> = live.iter().map(|(_, p, cap)| (&p[..], *cap)).collect();
        let want = max_min(&caps, &flows);
        for ((id, _, _), want) in live.iter().zip(&want) {
            let got = net.flow_rate(*id).expect("still active");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case}: flow {id:?} incremental rate {got} != batch rate {want}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Token manager: exclusion invariant under random workloads
// ---------------------------------------------------------------------

#[test]
fn tokens_never_grant_conflicts() {
    let mut r = rng(0x70c);
    for _case in 0..64 {
        let mut tm = TokenManager::new();
        let ino = InodeId(1);
        let ops = r.gen_range(1usize..=79);
        for _ in 0..ops {
            let c = ClientId(r.gen_range(0u64..=5) as u32);
            if r.gen::<f64>() < 0.5 {
                tm.release_all(ino, c);
                continue;
            }
            let start = r.gen_range(0u64..=999);
            let len = r.gen_range(1u64..=199);
            let mode = if r.gen::<f64>() < 0.5 {
                TokenMode::Write
            } else {
                TokenMode::Read
            };
            tm.acquire(ino, c, ByteRange::new(start, start + len), mode);
            // Invariant: among current grants, no write range overlaps any
            // other client's range.
            let grants = tm.grants(ino);
            for (i, g1) in grants.iter().enumerate() {
                for g2 in grants.iter().skip(i + 1) {
                    if g1.client == g2.client {
                        continue;
                    }
                    let overlap = g1.range.overlaps(&g2.range);
                    let conflicting =
                        g1.mode == TokenMode::Write || g2.mode == TokenMode::Write;
                    assert!(
                        !(overlap && conflicting),
                        "conflicting grants coexist: {g1:?} vs {g2:?}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// FsCore: random writes against an in-memory reference model
// ---------------------------------------------------------------------

#[test]
fn fscore_block_data_matches_model() {
    let mut r = rng(0xf5c);
    for _case in 0..32 {
        let mut fs = FsCore::create(FsConfig {
            name: "prop".into(),
            block_size: 4096,
            nsd_blocks: 64,
            nsd_count: 4,
            data_mode: DataMode::Stored,
        });
        let ino = fs.create_file("/f", Owner::local(1, 1), 0).unwrap();
        let mut model: std::collections::HashMap<u64, u8> = Default::default();
        let writes = r.gen_range(1usize..=59);
        for _ in 0..writes {
            let block = r.gen_range(0u64..=31);
            let fill = r.gen_range(0u64..=255) as u8;
            let addr = fs.ensure_block(ino, block).unwrap();
            fs.put_block_data(addr, Bytes::from(vec![fill; 4096]));
            fs.note_write(ino, block * 4096, 4096, 1).unwrap();
            model.insert(block, fill);
        }
        // Every model block reads back exactly.
        for (block, fill) in &model {
            let map = fs.block_map(ino, block * 4096, 1).unwrap();
            let addr = map[0].1.expect("written block has an address");
            let data = fs.get_block_data(addr);
            assert!(data.iter().all(|b| b == fill));
        }
        // Size is the max written extent.
        let max_block = model.keys().max().unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, (max_block + 1) * 4096);
        // No two blocks share a physical address.
        let mut addrs = std::collections::HashSet::new();
        for block in model.keys() {
            let map = fs.block_map(ino, block * 4096, 1).unwrap();
            assert!(addrs.insert(map[0].1.unwrap()), "duplicate physical address");
        }
    }
}

// ---------------------------------------------------------------------
// RateSeries: byte conservation under arbitrary recordings
// ---------------------------------------------------------------------

#[test]
fn rate_series_conserves_bytes() {
    let mut r = rng(0x5e12);
    for _case in 0..32 {
        let n = r.gen_range(1usize..=99);
        let mut events: Vec<(u64, u64)> = (0..n)
            .map(|_| (r.gen_range(0u64..=99_999), r.gen_range(1u64..=999_999)))
            .collect();
        events.sort();
        let mut rs = RateSeries::new("prop", SimDuration::from_millis(10));
        let mut total = 0u64;
        for (t_us, bytes) in &events {
            rs.record(SimTime::from_micros(*t_us), *bytes);
            total += bytes;
        }
        assert_eq!(rs.total_bytes(), total);
        // Integrating the series recovers the total (each window's rate ×
        // its span).
        let end = SimTime::from_micros(events.last().unwrap().0 + 1);
        let series = rs.finish(end);
        let mut prev = SimTime::ZERO;
        let mut integrated = 0.0;
        for p in &series.points {
            integrated += p.value * p.t.since(prev).as_secs_f64();
            prev = p.t;
        }
        let err = (integrated - total as f64).abs() / total as f64;
        assert!(err < 1e-6, "integrated {integrated} vs total {total}");
    }
}
