//! The replica-aware global data path, end to end: a scaled-down
//! worldwide replication campaign (hot set read single-home, then from
//! 3-site replicas while a bulk catalog fans out and migrates to tape),
//! plus the coherence story (a mid-campaign write invalidating every
//! copy).
//!
//!     cargo run --release --offline --example replica_campaign
//!
//! Everything printed is *modeled* time — the run is deterministic and
//! bit-identical across sweep-thread counts (asserted below).

use globalfs::scenarios::replication::{
    run_campaign_point, run_campaign_with_threads, ReplicationConfig,
};

fn main() {
    // A single point of the campaign at roughly 1/4 bench scale: three
    // remote sites, four replica farms, 6 x 512 GiB bulk files per site
    // against a 1 TiB disk tier (so watermark migration must run).
    let tib = 1u64 << 40;
    let cfg = ReplicationConfig {
        points: 1,
        bulk_files: 6,
        bulk_wire_bytes: 512 << 30,
        tier_capacity: tib,
        ..ReplicationConfig::default()
    };
    let r = run_campaign_point(&cfg, 0);

    println!("=== worldwide replication campaign (1 point, scaled down) ===");
    println!(
        "hot set: {} MiB read by 6 cross-site readers, twice",
        r.hot_bytes >> 20
    );
    println!(
        "  single-home: {:7.1} MB/s  ({:.2} modeled s)",
        r.home_rate() / 1e6,
        r.home_elapsed_ns as f64 / 1e9
    );
    println!(
        "  replicated:  {:7.1} MB/s  ({:.2} modeled s)   speedup {:.2}x",
        r.replica_rate() / 1e6,
        r.replica_elapsed_ns as f64 / 1e9,
        r.speedup()
    );
    let n = |name| r.counters.get(name);
    println!(
        "scheduler: {} runs planned against the catalog, {} served remote, {} split across sources (mean winning score {:.2} ms)",
        n("replica.catalog_hits"),
        n("replica.remote_picks"),
        n("replica.split_fanouts"),
        r.mean_pick_ms()
    );
    println!(
        "campaign: {:.1} TB fanned to 3 sites in {:.1} modeled hours, {} installs, {:.1} TB migrated disk->tape",
        r.campaign_bytes as f64 / 1e12,
        r.campaign_elapsed_ns as f64 / 3.6e12,
        n("replica.installs"),
        r.migrated_bytes as f64 / 1e12
    );
    println!(
        "consistency: {} invalidations from the mid-campaign write, {} post-invalidate home misses, {} stale fallbacks, {} stale reads",
        n("replica.invalidations"),
        n("replica.catalog_misses"),
        n("replica.stale_fallbacks"),
        n("replica.stale_reads")
    );
    println!(
        "audit: fsck errors {}  invariant violations {}  io errors {}  (gen watermark {})",
        r.fsck_errors, r.invariant_violations, r.io_errors, r.max_gen
    );
    assert_eq!(n("replica.stale_reads"), 0, "a read was served from an invalidated replica");
    assert!(r.is_clean(), "campaign left the world unclean");
    assert!(r.speedup() >= 2.0, "replica speedup fell under the 2x gate");

    // Determinism: the same config swept on 1 thread and 4 threads must
    // produce bit-identical reports.
    let serial = run_campaign_with_threads(&cfg, 1);
    let sweep = run_campaign_with_threads(&cfg, 4);
    assert_eq!(serial, sweep, "campaign diverged across sweep threads");
    println!("\n1-thread == 4-thread sweep: reports bit-identical");
}
