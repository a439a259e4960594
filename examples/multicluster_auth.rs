//! The complete §6 authentication story, end to end:
//!
//! 1. GSI identities: one certificate, different UIDs at every site, and
//!    the grid-mapfile translation that makes files belong to the person.
//! 2. The GPFS 2.3 `mmauth` workflow: keygen, out-of-band key exchange,
//!    grants (including PTF 2 read-only), `mmremotecluster`/`mmremotefs`.
//! 3. Live mounts over a simulated WAN: success, impersonation rejection,
//!    read-only enforcement, revocation, and `cipherList` encryption.
//!
//! ```text
//! cargo run --example multicluster_auth
//! ```

use gfs::admin::{connect_clusters, disconnect_fs};
use gfs::fscore::FsConfig;
use gfs::world::{FsParams, WorldBuilder};
use gfs_auth::cipher::CipherMode;
use gfs_auth::handshake::AccessMode;
use gfs_auth::identity::{CertAuthority, Dn, GlobalIdentityService, GridMapFile, LocalAccount, UserCredential};
use simcore::{det_rng, Bandwidth, SimDuration};

fn main() {
    // ------------------------------------------------------------------
    // Part 1 — identity: Dr. Alice has one certificate, three UIDs.
    // ------------------------------------------------------------------
    let mut rng = det_rng(99, "example-auth");
    let ca = CertAuthority::new(Dn::new("/C=US/O=TeraGrid/CN=Certification Authority"), 512, &mut rng);
    let alice_dn = Dn::new("/C=US/O=NPACI/CN=Alice Researcher");
    let alice = UserCredential::issue(&ca, alice_dn.clone(), 512, &mut rng);
    println!("issued certificate for {}", alice.cert.subject);
    println!("  CA verification: {}", ca.verify(&alice.cert));

    let mut ids = GlobalIdentityService::new();
    for (site, uid) in [("sdsc", 5012u32), ("ncsa", 71003), ("anl", 880)] {
        let mut map = GridMapFile::new();
        map.insert(
            alice_dn.clone(),
            LocalAccount { username: "alice".into(), uid, gid: 100 },
        );
        ids.register_site(site, map);
        println!("  {site}: alice = uid {uid}");
    }
    println!(
        "  uid 5012 at sdsc == uid {} at ncsa (same person, one DN)",
        ids.translate_uid("sdsc", 5012, "ncsa").unwrap()
    );

    // ------------------------------------------------------------------
    // Part 2+3 — clusters, grants, and live mounts.
    // ------------------------------------------------------------------
    let mut b = WorldBuilder::new(99);
    let sdsc = b.topo().node("sdsc");
    let ncsa = b.topo().node("ncsa");
    let rogue = b.topo().node("rogue");
    b.topo().duplex_link(sdsc, ncsa, Bandwidth::gbit(10.0), SimDuration::from_millis(28), "tg");
    b.topo().duplex_link(sdsc, rogue, Bandwidth::gbit(1.0), SimDuration::from_millis(50), "inet");
    let c_sdsc = b.cluster("sdsc.teragrid");
    let c_ncsa = b.cluster("ncsa.teragrid");
    let c_rogue = b.cluster("rogue.example.org");
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
    let ncsa_client = b.client(c_ncsa, ncsa, 64);
    let rogue_client = b.client(c_rogue, rogue, 64);
    let (mut sim, mut w) = b.build();
    let (ncsa, rogue) = (w.open_session(ncsa_client), w.open_session(rogue_client));

    println!("\n--- mmauth workflow ---");
    println!(
        "sdsc key fingerprint: {}",
        w.clusters[c_sdsc.0 as usize].auth.public_key().fingerprint()
    );
    println!(
        "ncsa key fingerprint: {}",
        w.clusters[c_ncsa.0 as usize].auth.public_key().fingerprint()
    );
    // Legitimate trust: SDSC <-> NCSA with traffic encryption.
    connect_clusters(&mut w, c_sdsc, c_ncsa, "gpfs-wan", AccessMode::ReadOnly, sdsc);
    w.clusters[c_sdsc.0 as usize].auth.cipher_mode = CipherMode::Encrypt;
    // The rogue cluster knows the address but was never mmauth-added;
    // wire only its client-side tables.
    w.clusters[c_rogue.0 as usize].remote_clusters.insert(
        "sdsc.teragrid".into(),
        gfs::world::RemoteClusterDef { contact: sdsc },
    );
    w.clusters[c_rogue.0 as usize].remote_fs.insert(
        "gpfs-wan".into(),
        gfs::world::RemoteFsDef {
            cluster: "sdsc.teragrid".into(),
            remote_device: "gpfs-wan".into(),
        },
    );

    println!("\n--- mounts over the WAN ---");
    ncsa.mount(&mut sim, &mut w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
        println!("[{}] ncsa rw mount:  {:?}  (grant is read-only — PTF 2 enforcement)", sim.now(), r.err().map(|e| e.to_string()));
        ncsa.mount(sim, w, "gpfs-wan", AccessMode::ReadOnly, move |sim, w, r| {
            println!("[{}] ncsa ro mount:  ok = {}", sim.now(), r.is_ok());
            let key = w.clients[ncsa_client.0 as usize]
                .mounts
                .get("gpfs-wan")
                .and_then(|m| m.session_key.clone());
            println!(
                "[{}] cipherList session key delivered under RSA: {} bytes",
                sim.now(),
                key.map(|k| k.len()).unwrap_or(0)
            );
            rogue.mount(sim, w, "gpfs-wan", AccessMode::ReadOnly, move |sim, _w, r| {
                println!(
                    "[{}] rogue mount:    {:?}",
                    sim.now(),
                    r.err().map(|e| e.to_string())
                );
            });
        });
    });
    sim.run(&mut w);

    // Revocation.
    println!("\n--- revocation (mmauth deny) ---");
    disconnect_fs(&mut w, c_sdsc, c_ncsa, "gpfs-wan");
    // Re-wire the client tables so the mount *attempt* still resolves:
    w.clusters[c_ncsa.0 as usize].remote_fs.insert(
        "gpfs-wan".into(),
        gfs::world::RemoteFsDef {
            cluster: "sdsc.teragrid".into(),
            remote_device: "gpfs-wan".into(),
        },
    );
    ncsa.mount(&mut sim, &mut w, "gpfs-wan", AccessMode::ReadOnly, move |sim, _w, r| {
        println!(
            "[{}] ncsa after deny: {:?}",
            sim.now(),
            r.err().map(|e| e.to_string())
        );
    });
    sim.run(&mut w);
    println!("\nauthentication story complete.");
}
