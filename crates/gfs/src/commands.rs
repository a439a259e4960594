//! The `mm*` administrative command surface, as textual reports.
//!
//! GPFS is administered through `mm` commands; the paper's §6 walks
//! through `mmauth`, `mmremotecluster` and `mmremotefs` explicitly. This
//! module renders the same views from simulation state, so examples,
//! docs and tests can show the workflow the way an administrator saw it.
//! (State *changes* go through [`crate::admin`] and the world builders;
//! this module is the read side.)

use crate::types::{ClusterId, FsId};
use crate::world::GfsWorld;
use simcore::{ByteSize, Sim};
use std::fmt::Write as _;

/// `mmlsfs <device>` — filesystem attributes.
pub fn mmlsfs(w: &GfsWorld, fs: FsId) -> String {
    let inst = &w.fss[fs.0 as usize];
    let cfg = &inst.core.config;
    let mut out = String::new();
    let _ = writeln!(out, "flag                value                    description");
    let _ = writeln!(out, "------------------- ------------------------ -----------");
    let _ = writeln!(out, " -B                 {:<24} Block size", cfg.block_size);
    let _ = writeln!(out, " -n                 {:<24} Number of NSDs", cfg.nsd_count);
    let _ = writeln!(
        out,
        " -d                 {:<24} NSD servers",
        inst.nsd_servers.len()
    );
    let _ = writeln!(
        out,
        " -T                 /{:<23} Default mount point",
        cfg.name
    );
    let _ = writeln!(
        out,
        " --exported         {:<24} Remote-cluster export",
        inst.exported
    );
    out
}

/// `mmdf <device>` — capacity and usage.
pub fn mmdf(w: &GfsWorld, fs: FsId) -> String {
    let inst = &w.fss[fs.0 as usize];
    let cfg = &inst.core.config;
    let total_blocks = u64::from(cfg.nsd_count) * cfg.nsd_blocks;
    let free = inst.core.free_blocks();
    let used = total_blocks - free;
    let mut out = String::new();
    let _ = writeln!(out, "disk      size           free          %free");
    let _ = writeln!(out, "--------- -------------- ------------- -----");
    let _ = writeln!(
        out,
        "{:<9} {:<14} {:<13} {:>4.0}%",
        cfg.name,
        ByteSize(total_blocks * cfg.block_size).to_string(),
        ByteSize(free * cfg.block_size).to_string(),
        100.0 * free as f64 / total_blocks as f64,
    );
    let _ = writeln!(
        out,
        "({} blocks of {}; {} used)",
        total_blocks,
        ByteSize(cfg.block_size),
        used
    );
    out
}

/// `mmauth show` — trust state of a cluster.
pub fn mmauth_show(w: &GfsWorld, cluster: ClusterId) -> String {
    let c = &w.clusters[cluster.0 as usize];
    let mut out = String::new();
    let _ = writeln!(out, "Cluster name:        {}", c.name);
    let _ = writeln!(out, "Cipher list:         {:?}", c.auth.cipher_mode);
    let _ = writeln!(
        out,
        "Key fingerprint:     {}",
        c.auth.public_key().fingerprint()
    );
    let granted = c.auth.granted_clusters();
    if granted.is_empty() {
        let _ = writeln!(out, "(no remote clusters authorized)");
    }
    for (name, fss) in granted {
        let _ = writeln!(out, "Remote cluster:      {name}");
        for (fs, mode) in fss {
            let _ = writeln!(out, "  filesystem {fs:<16} access {mode:?}");
        }
    }
    out
}

/// `mmremotecluster show all` + `mmremotefs show all` — import side.
pub fn mmremote_show(w: &GfsWorld, cluster: ClusterId) -> String {
    let c = &w.clusters[cluster.0 as usize];
    let mut out = String::new();
    for (name, def) in &c.remote_clusters {
        let _ = writeln!(
            out,
            "Cluster name:    {name}\n  Contact nodes: {}",
            w.net.topo().node(def.contact).name
        );
    }
    for (device, def) in &c.remote_fs {
        let _ = writeln!(
            out,
            "Local device:    {device}\n  Remote device: {}  Cluster: {}",
            def.remote_device, def.cluster
        );
    }
    if out.is_empty() {
        out.push_str("(no remote definitions)\n");
    }
    out
}

/// `mmlsmount <device> -L` — who has it mounted.
pub fn mmlsmount(w: &GfsWorld, fs: FsId) -> String {
    let device = &w.fss[fs.0 as usize].core.config.name;
    let mut out = String::new();
    let _ = writeln!(out, "File system {device} is mounted on:");
    let mut n = 0;
    for c in &w.clients {
        for (dev, m) in &c.mounts {
            if m.fs == fs {
                let cluster = &w.clusters[c.cluster.0 as usize].name;
                let node = &w.net.topo().node(c.node).name;
                let _ = writeln!(
                    out,
                    "  {node:<20} cluster {cluster:<20} as {dev} ({:?})",
                    m.mode
                );
                n += 1;
            }
        }
    }
    let _ = writeln!(out, "{n} nodes");
    out
}

/// `mmdiag --stats` analog: every counter of the world's snapshot
/// ([`GfsWorld::counters`]), one `name value` line each, in name order.
pub fn mmdiag(sim: &Sim<GfsWorld>, w: &GfsWorld) -> String {
    let mut out = String::new();
    for (name, v) in w.counters(sim).iter() {
        let _ = writeln!(out, "{name:<28} {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::connect_clusters;
    use crate::fscore::FsConfig;
    use crate::world::{FsParams, WorldBuilder};
    use gfs_auth::handshake::AccessMode;
    use simcore::{Bandwidth, SimDuration};

    fn world() -> (Sim<GfsWorld>, GfsWorld, FsId, ClusterId, ClusterId) {
        let mut b = WorldBuilder::new(5);
        b.key_bits(384);
        let n1 = b.topo().node("sdsc-mgr");
        let n2 = b.topo().node("ncsa-node");
        b.topo()
            .duplex_link(n1, n2, Bandwidth::gbit(1.0), SimDuration::from_millis(20), "wan");
        let ca = b.cluster("sdsc.teragrid");
        let cb = b.cluster("ncsa.teragrid");
        let fs = b.filesystem(
            ca,
            FsParams::ideal(
                FsConfig::small_test("gpfs-wan"),
                n1,
                vec![n1],
                Bandwidth::mbyte(400.0),
                SimDuration::from_micros(100),
            ),
        );
        b.client(cb, n2, 16);
        let (sim, mut w) = b.build();
        connect_clusters(&mut w, ca, cb, "gpfs-wan", AccessMode::ReadOnly, n1);
        (sim, w, fs, ca, cb)
    }

    #[test]
    fn mmlsfs_reports_geometry() {
        let (_sim, w, fs, ..) = world();
        let out = mmlsfs(&w, fs);
        assert!(out.contains("65536"), "block size missing:\n{out}");
        assert!(out.contains("/gpfs-wan"));
        assert!(out.contains("true"), "export flag missing");
    }

    #[test]
    fn mmdf_reports_capacity() {
        let (_sim, w, fs, ..) = world();
        let out = mmdf(&w, fs);
        assert!(out.contains("100%"), "fresh fs should be 100% free:\n{out}");
        assert!(out.contains("gpfs-wan"));
    }

    #[test]
    fn mmauth_show_lists_grants() {
        let (_sim, w, _fs, ca, _cb) = world();
        let out = mmauth_show(&w, ca);
        assert!(out.contains("sdsc.teragrid"));
        assert!(out.contains("ncsa.teragrid"));
        assert!(out.contains("ReadOnly"));
        assert!(out.contains("Key fingerprint"));
    }

    #[test]
    fn mmremote_show_lists_imports() {
        let (_sim, w, _fs, _ca, cb) = world();
        let out = mmremote_show(&w, cb);
        assert!(out.contains("sdsc.teragrid"));
        assert!(out.contains("gpfs-wan"));
        assert!(out.contains("sdsc-mgr"), "contact node name:\n{out}");
    }

    #[test]
    fn mmlsmount_empty_then_counts() {
        let (_sim, w, fs, ..) = world();
        let out = mmlsmount(&w, fs);
        assert!(out.contains("0 nodes"));
    }

    #[test]
    fn mmdiag_renders_every_counter_of_the_snapshot() {
        let (sim, w, ..) = world();
        let out = mmdiag(&sim, &w);
        assert_eq!(out.lines().count(), w.counters(&sim).iter().count());
        assert!(out.contains("tokens.acquires"), "{out}");
        assert!(out.lines().all(|l| l.ends_with(" 0")), "a fresh world counts nothing:\n{out}");
    }
}
