//! Flyweight sessions + manager-RPC fan-in: the metadata call surface.
//!
//! Thousands of simulated *users* share one mounting node's page pool and
//! token mirror; each [`gfs::session::Session`] carries
//! only a handle table, a cwd and a bound device. Sessions that submit
//! metadata ops in the same simulation instant share **one** RPC envelope
//! to the namespace manager — one message, one watchdog, one response —
//! and the manager charges its per-op service time, so throughput is a
//! modeled (deterministic) quantity, not a host benchmark.
//!
//! ```text
//! cargo run --example session_fanin
//! ```

use gfs::fscore::FsConfig;
use gfs::types::{Owner, SessionId};
use gfs::world::{FsParams, WorldBuilder};
use gfs_auth::handshake::AccessMode;
use scenarios::metadata_storm::{run_storm_with_threads, StormConfig};
use simcore::{Bandwidth, SimDuration};

fn main() {
    // ------------------------------------------------------------------
    // 1. One site: a manager/NSD node and a login node 50µs away. The
    //    login node gets a single shared mount context carrying 64
    //    flyweight sessions — 64 users, one page pool.
    // ------------------------------------------------------------------
    let mut b = WorldBuilder::new(2005);
    let mgr = b.topo().node("mgr");
    let login = b.topo().node("login");
    b.topo().duplex_link(
        login,
        mgr,
        Bandwidth::gbit(1.0),
        SimDuration::from_micros(50),
        "lan",
    );
    let site = b.cluster("site.teragrid");
    b.filesystem(
        site,
        FsParams::ideal(
            FsConfig::small_test("gpfs0"),
            mgr,
            vec![mgr],
            Bandwidth::mbyte(400.0),
            SimDuration::from_micros(300),
        ),
    );
    let ctx = b.client(site, login, 256);
    let ids: Vec<SessionId> = (0..64).map(|_| b.session(ctx)).collect();
    let (mut sim, mut w) = b.build();
    let sessions: Vec<gfs::session::Session> =
        ids.into_iter().map(gfs::session::Session).collect();

    // ------------------------------------------------------------------
    // 2. The first session mounts; the rest bind the device. Then every
    //    user mkdirs its home directory *in the same instant* — watch the
    //    64 RPCs collapse into one envelope.
    // ------------------------------------------------------------------
    let all = sessions.clone();
    let s0 = sessions[0];
    s0.mount(&mut sim, &mut w, "gpfs0", AccessMode::ReadWrite, move |sim, w, r| {
        r.expect("mount");
        for s in &all[1..] {
            s.bind_device(w, "gpfs0");
        }
        for (i, &s) in all.iter().enumerate() {
            let path = format!("/u{i:02}");
            s.mkdir(sim, w, &path, Owner::local(500 + i as u32, 100), move |sim, w, r| {
                r.expect("mkdir home");
                // Each completion lands in the same delivery event, so the
                // follow-up stats are co-instant again: batching sustains
                // itself round after round.
                let path = format!("/u{i:02}");
                s.stat(sim, w, &path, move |_sim, _w, r| {
                    r.expect("stat home");
                });
            });
        }
    });
    sim.run(&mut w);

    println!("64 sessions, 129 metadata ops (1 mount + 64 mkdir + 64 stat):");
    println!(
        "  envelopes sent: {:>3}   ops batched: {:>3}   largest batch: {:>3}",
        w.fanin.envelopes, w.fanin.envelope_ops, w.fanin.max_batch
    );
    println!(
        "  finished at {} (manager service charge: 5µs/op, FIFO)",
        sim.now()
    );
    assert!(
        w.fanin.envelopes < w.fanin.envelope_ops,
        "fan-in must batch: {} envelopes for {} ops",
        w.fanin.envelopes,
        w.fanin.envelope_ops
    );

    // ------------------------------------------------------------------
    // 3. Per-site subtree leases (PR 7): the mount context acquires a
    //    lease on /u00 from its shard manager; metadata ops under the
    //    subtree then run against a local delegate — no manager envelope,
    //    no manager service charge.
    // ------------------------------------------------------------------
    s0.acquire_lease(&mut sim, &mut w, "/u00", move |sim, w, r| {
        r.expect("lease on /u00");
        s0.mkdir(sim, w, "/u00/scratch", Owner::local(500, 100), |_sim, w, r| {
            r.expect("delegated mkdir");
            let inst = &w.fss[0];
            println!(
                "\nsubtree lease on /u00: grants {}   delegated ops {}   \
                 manager lease table: {:?}",
                inst.lease_grants,
                inst.delegated_ops,
                inst.leases.keys().collect::<Vec<_>>()
            );
        });
    });
    sim.run(&mut w);
    assert!(
        w.fss[0].delegated_ops >= 1,
        "leased subtree ops must take the delegate fast path"
    );

    // ------------------------------------------------------------------
    // 4. The same machinery at scale: a mini version of the 100k-session
    //    storm (2 points × 8 contexts × 400 sessions racing 20 ops each;
    //    the full 400-session context depth matters — the partitioned
    //    path batches behind a gather window, so a thin context would be
    //    window-bound instead of manager-bound and step 5's comparison
    //    would measure latency, not queue capacity). The reported rate is
    //    modeled cluster throughput — ops over the slowest point's
    //    simulated duration — identical on any machine.
    // ------------------------------------------------------------------
    let cfg = StormConfig {
        points: 2,
        clients_per_point: 8,
        sessions_per_client: 400,
        ops_per_client: 20,
        ..StormConfig::massive()
    };
    let r = run_storm_with_threads(&cfg, 1);
    println!(
        "\nmini-storm: {} sessions raced {} ops in {:.3} simulated s",
        r.sessions,
        r.ops,
        r.sim_ns as f64 / 1e9
    );
    println!(
        "  {:.0} modeled metadata ops/s across 2 site managers, \
         {} envelopes ({:.0} ops each), fsck clean: {}",
        r.sim_ops_per_sec(),
        r.envelopes,
        r.envelope_ops as f64 / r.envelopes as f64,
        r.fsck_clean
    );
    assert!(r.fsck_clean, "storm must leave a consistent namespace");

    // ------------------------------------------------------------------
    // 5. Break the single-manager ceiling: the same mini-storm with the
    //    namespace partitioned across M=4 cooperating manager shards
    //    (top-level dirs placed round-robin; renames that straddle a
    //    shard boundary run a two-phase envelope charging both managers).
    // ------------------------------------------------------------------
    let pr = run_storm_with_threads(&cfg.with_managers(4), 1);
    println!(
        "\npartitioned mini-storm (M=4): {} ops in {:.3} simulated s -> \
         {:.0} modeled ops/s ({:.2}x single-manager), {} cross-shard commits, \
         fsck clean: {}",
        pr.ops,
        pr.sim_ns as f64 / 1e9,
        pr.sim_ops_per_sec(),
        pr.sim_ops_per_sec() / r.sim_ops_per_sec(),
        pr.cross_shard_ops,
        pr.fsck_clean
    );
    println!(
        "  {} envelopes ({:.1} ops each), {} ops writeback-delegated, \
         {} reconciled as bulk replays, {} live rebalance migrations",
        pr.envelopes,
        pr.envelope_ops as f64 / pr.envelopes as f64,
        pr.delegated_ops,
        pr.reconcile_ops,
        pr.rebalance_migrations
    );
    assert!(pr.fsck_clean, "partitioned storm must leave a consistent namespace");
    assert!(pr.cross_shard_ops > 0, "rename mix must cross shard boundaries");
    assert!(
        pr.delegated_ops > 0 && pr.reconcile_ops > 0,
        "leased contexts must journal locally and reconcile in bulk"
    );
    assert!(
        pr.sim_ops_per_sec() > r.sim_ops_per_sec(),
        "partitioning the manager must lift the modeled rate"
    );
}
