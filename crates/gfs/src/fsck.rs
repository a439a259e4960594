//! `mmfsck` — offline filesystem consistency checking.
//!
//! GPFS ships a checker because shared-disk metadata damaged by a failing
//! node must be detectable and repairable before remount. Ours validates
//! the invariants the rest of this crate relies on:
//!
//! 1. **Reachability** — every live inode is reachable from the root by
//!    exactly one directory entry (no orphans, no multi-links: this
//!    filesystem has no hard links).
//! 2. **Block ownership** — every allocated block is referenced by
//!    exactly one file block pointer (no leaks, no double allocation).
//! 3. **Size consistency** — a file maps no block at or past its EOF
//!    (holes, including a hole tail, map nothing).
//! 4. **Allocator accounting** — the free-count derived from walking the
//!    files matches the allocator's own bookkeeping.

use crate::fscore::{FsCore, InodeKind, ROOT};
use crate::types::{BlockAddr, InodeId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One inconsistency found by the checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsckError {
    /// An inode exists but no directory entry points at it.
    OrphanInode(InodeId),
    /// Two directory entries reference the same inode.
    MultiplyLinked(InodeId),
    /// A directory entry points at a missing inode.
    DanglingEntry {
        /// Directory holding the entry.
        dir: InodeId,
        /// Entry name.
        name: String,
    },
    /// Two file blocks share one physical address.
    DoubleAllocated(BlockAddr),
    /// Allocator free-count disagrees with the walk.
    FreeCountMismatch {
        /// What the allocator reports.
        reported: u64,
        /// What walking the files implies.
        derived: u64,
    },
    /// A file maps a block at or past its EOF.
    BlockPastEof(InodeId),
    /// The replica catalog is incoherent with respect to the file tree
    /// (stale read served, non-monotone generation, dangling site, ...).
    ReplicaIncoherent(String),
}

/// Result of a check.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Problems found (empty = clean).
    pub errors: Vec<FsckError>,
    /// Live inodes visited.
    pub inodes: u64,
    /// Directories visited.
    pub directories: u64,
    /// Regular files visited.
    pub files: u64,
    /// Data blocks referenced.
    pub blocks: u64,
}

impl FsckReport {
    /// True when no inconsistencies were found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Run a full consistency check.
pub fn fsck(fs: &FsCore) -> FsckReport {
    let mut report = FsckReport::default();
    let mut link_count: BTreeMap<InodeId, u32> = BTreeMap::new();
    let mut seen_blocks: BTreeSet<BlockAddr> = BTreeSet::new();
    let mut reachable: BTreeSet<InodeId> = BTreeSet::new();

    // BFS from the root.
    let mut queue = VecDeque::from([ROOT]);
    reachable.insert(ROOT);
    while let Some(id) = queue.pop_front() {
        let Ok(ino) = fs.inode(id) else {
            continue; // dangling handled at the entry that referenced it
        };
        report.inodes += 1;
        match &ino.kind {
            InodeKind::Dir { entries } => {
                report.directories += 1;
                // Entries live in a hash map with arbitrary (though
                // reproducible) order; resolve and sort so reports and
                // traversal are deterministic regardless of hashing.
                let mut children: Vec<(&str, InodeId)> = entries
                    .iter()
                    .map(|(&n, &child)| (fs.names.resolve(n), child))
                    .collect();
                children.sort_unstable();
                for (name, child) in children {
                    *link_count.entry(child).or_insert(0) += 1;
                    if fs.inode(child).is_err() {
                        report.errors.push(FsckError::DanglingEntry {
                            dir: id,
                            name: name.to_string(),
                        });
                        continue;
                    }
                    if reachable.insert(child) {
                        queue.push_back(child);
                    }
                }
            }
            InodeKind::File { size, blocks } => {
                report.files += 1;
                // Blocks are sorted by index: the last one is the highest.
                let bs = fs.config.block_size;
                if blocks.last().is_some_and(|&(b, _)| b.saturating_mul(bs) >= *size) {
                    report.errors.push(FsckError::BlockPastEof(id));
                }
                for (_, addr) in blocks {
                    report.blocks += 1;
                    if !seen_blocks.insert(*addr) {
                        report.errors.push(FsckError::DoubleAllocated(*addr));
                    }
                }
            }
        }
    }

    // Orphans and multi-links.
    for id in fs.live_inodes() {
        if id == ROOT {
            continue;
        }
        match link_count.get(&id) {
            None => report.errors.push(FsckError::OrphanInode(id)),
            Some(1) => {}
            Some(_) => report.errors.push(FsckError::MultiplyLinked(id)),
        }
    }

    // Allocator accounting: total blocks - referenced == reported free.
    let total = u64::from(fs.config.nsd_count) * fs.config.nsd_blocks;
    let derived_free = total - seen_blocks.len() as u64;
    let reported = fs.free_blocks();
    if reported != derived_free {
        report.errors.push(FsckError::FreeCountMismatch {
            reported,
            derived: derived_free,
        });
    }
    report
}

/// Check a mounted instance: the core walk plus replica-coherence
/// validation over the instance's catalog. A stale read ever having been
/// served, a generation moving backwards, or a "current" copy whose
/// generation disagrees with its file all surface as
/// [`FsckError::ReplicaIncoherent`].
pub fn fsck_instance(inst: &crate::world::FsInstance) -> FsckReport {
    let mut report = fsck(&inst.core);
    for v in inst.replicas.coherence_violations() {
        report.errors.push(FsckError::ReplicaIncoherent(v));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fscore::FsConfig;
    use crate::types::Owner;
    use bytes::Bytes;

    fn owner() -> Owner {
        Owner::local(1, 1)
    }

    fn populated() -> FsCore {
        let mut fs = FsCore::create(FsConfig::small_test("fsck"));
        fs.mkdir("/data", owner(), 1).unwrap();
        fs.mkdir("/data/nvo", owner(), 2).unwrap();
        for i in 0..5 {
            let id = fs
                .create_file(&format!("/data/nvo/f{i}"), owner(), 3)
                .unwrap();
            for b in 0..4 {
                let addr = fs.ensure_block(id, b).unwrap();
                fs.put_block_data(addr, Bytes::from(vec![i as u8; 65536]));
            }
            fs.note_write(id, 0, 4 * 65536, 4).unwrap();
        }
        fs
    }

    #[test]
    fn clean_filesystem_passes() {
        let fs = populated();
        let r = fsck(&fs);
        assert!(r.is_clean(), "errors: {:?}", r.errors);
        assert_eq!(r.files, 5);
        assert_eq!(r.directories, 3); // root, data, nvo
        assert_eq!(r.blocks, 20);
    }

    #[test]
    fn clean_after_unlink_and_truncate() {
        let mut fs = populated();
        fs.unlink("/data/nvo/f0").unwrap();
        let id = fs.lookup("/data/nvo/f1").unwrap();
        fs.truncate(id, 100, 9).unwrap();
        let r = fsck(&fs);
        assert!(r.is_clean(), "errors: {:?}", r.errors);
        assert_eq!(r.files, 4);
        assert_eq!(r.blocks, 13); // 3 files × 4 + 1 truncated file × 1
    }

    #[test]
    fn clean_after_rename() {
        let mut fs = populated();
        fs.mkdir("/archive", owner(), 5).unwrap();
        fs.rename("/data/nvo/f2", "/archive/f2-moved").unwrap();
        assert!(fsck(&fs).is_clean());
    }

    #[test]
    fn detects_corruption() {
        let mut fs = populated();
        // Simulate a failing node scribbling on metadata: cross-link two
        // files onto the same physical block.
        let a = fs.lookup("/data/nvo/f1").unwrap();
        let b = fs.lookup("/data/nvo/f2").unwrap();
        let addr = fs.block_map(a, 0, 1).unwrap()[0].1.unwrap();
        fs.corrupt_block_pointer_for_test(b, 0, addr);
        let r = fsck(&fs);
        assert!(!r.is_clean());
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::DoubleAllocated(_))));
        // The orphaned original block also breaks the free count.
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::FreeCountMismatch { .. })));
    }
}
