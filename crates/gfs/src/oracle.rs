//! # oracle — a trivial model filesystem for differential testing
//!
//! Nine PRs of batching, sharding, delegation and replication all promise
//! the same thing: the observable POSIX answers never change. This module
//! is the independent witness for that promise — a deliberately naive
//! in-memory filesystem ([`ModelFs`]) with none of the machinery under
//! test. No caches, no tokens, no shards, no leases, no replicas: just a
//! slot vector of inodes, `BTreeMap<String, _>` directories and
//! `Vec<u8>` file contents.
//!
//! The trace-replay harness (`scenarios::trace`) executes every replayed
//! operation against both the real stack and a [`ModelFs`], comparing
//! results *and typed errors* op by op, then comparing the final trees via
//! [`ModelFs::tree_fingerprint`] — the byte-identical twin of
//! [`crate::fscore::FsCore::tree_fingerprint`], so a faulted run can be
//! checked against the model with a single `u64` equality.
//!
//! Semantics mirror `FsCore` exactly (the randomized equivalence test in
//! `fscore` pins the same contract for its in-tree reference model):
//! error variants, check order and the open/create, unlink-empty-dir and
//! rename-over-existing rules all match. Anything the model and the real
//! stack disagree on is, by construction, a bug in one of them.

use crate::types::{check_file_size, split_path, FsError, OpenFlags};
use std::collections::BTreeMap;

/// Model inode id — private to the model. The real stack allocates inode
/// numbers in *application* order, which under concurrent streams is a
/// timing artifact, so the differ never compares ids across the two
/// worlds; the model keeps its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ModelId(pub u64);

const MODEL_ROOT: ModelId = ModelId(0);

enum ModelKind {
    File { data: Vec<u8> },
    Dir { entries: BTreeMap<String, ModelId> },
}

struct ModelInode {
    kind: ModelKind,
}

/// `stat` output the differ can compare against a real
/// [`crate::fscore::FileAttr`]: size and kind only — inode numbers and
/// timestamps are timing-dependent on the real side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelAttr {
    /// Size in bytes (0 for directories, as in `FsCore`).
    pub size: u64,
    /// Directory?
    pub is_dir: bool,
}

/// The model filesystem. See the module docs for what it deliberately
/// does not model.
pub struct ModelFs {
    inodes: Vec<Option<ModelInode>>,
}

impl Default for ModelFs {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelFs {
    /// An empty filesystem: just the root directory.
    pub fn new() -> Self {
        ModelFs {
            inodes: vec![Some(ModelInode {
                kind: ModelKind::Dir {
                    entries: BTreeMap::new(),
                },
            })],
        }
    }

    fn inode(&self, id: ModelId) -> Result<&ModelInode, FsError> {
        self.inodes
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| FsError::NotFound(format!("model inode {}", id.0)))
    }

    /// Resolve a path to a model inode, with `FsCore`'s error contract:
    /// a file in the middle of the walk is `NotADirectory`, a missing
    /// component is `NotFound`, malformed paths are whatever
    /// [`split_path`] raises.
    pub fn lookup(&self, path: &str) -> Result<ModelId, FsError> {
        let comps = split_path(path)?;
        let mut cur = MODEL_ROOT;
        for c in comps {
            match &self.inode(cur)?.kind {
                ModelKind::Dir { entries } => {
                    cur = *entries
                        .get(c)
                        .ok_or_else(|| FsError::NotFound(path.to_string()))?;
                }
                ModelKind::File { .. } => {
                    return Err(FsError::NotADirectory(path.to_string()));
                }
            }
        }
        Ok(cur)
    }

    fn parent_of<'p>(&self, path: &'p str) -> Result<(ModelId, &'p str), FsError> {
        let comps = split_path(path)?;
        let Some((last, dirs)) = comps.split_last() else {
            return Err(FsError::InvalidArgument("path is root".into()));
        };
        let mut cur = MODEL_ROOT;
        for c in dirs {
            match &self.inode(cur)?.kind {
                ModelKind::Dir { entries } => {
                    cur = *entries
                        .get(*c)
                        .ok_or_else(|| FsError::NotFound(path.to_string()))?;
                }
                ModelKind::File { .. } => {
                    return Err(FsError::NotADirectory(path.to_string()));
                }
            }
        }
        Ok((cur, last))
    }

    fn create(&mut self, path: &str, dir: bool) -> Result<ModelId, FsError> {
        let (parent, name) = self.parent_of(path)?;
        let name = name.to_string();
        match &self.inode(parent)?.kind {
            ModelKind::Dir { entries } => {
                if entries.contains_key(&name) {
                    return Err(FsError::AlreadyExists(path.to_string()));
                }
            }
            ModelKind::File { .. } => {
                return Err(FsError::NotADirectory(path.to_string()));
            }
        }
        let id = ModelId(self.inodes.len() as u64);
        self.inodes.push(Some(ModelInode {
            kind: if dir {
                ModelKind::Dir {
                    entries: BTreeMap::new(),
                }
            } else {
                ModelKind::File { data: Vec::new() }
            },
        }));
        let Some(Some(p)) = self.inodes.get_mut(parent.0 as usize) else {
            unreachable!("parent checked above")
        };
        if let ModelKind::Dir { entries } = &mut p.kind {
            entries.insert(name, id);
        }
        Ok(id)
    }

    /// Create a directory.
    pub fn mkdir(&mut self, path: &str) -> Result<ModelId, FsError> {
        self.create(path, true)
    }

    /// Create an empty file.
    pub fn create_file(&mut self, path: &str) -> Result<ModelId, FsError> {
        self.create(path, false)
    }

    /// Open a file, mirroring the client's open contract: an existing
    /// directory is `IsADirectory`, a missing file is created when the
    /// flags write, and a missing file without write intent is the
    /// resolver's `NotFound`.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> Result<ModelId, FsError> {
        match self.lookup(path) {
            Ok(id) => {
                if matches!(self.inode(id)?.kind, ModelKind::Dir { .. }) {
                    return Err(FsError::IsADirectory(path.to_string()));
                }
                Ok(id)
            }
            Err(FsError::NotFound(_)) if flags.writes() => self.create_file(path),
            Err(e) => Err(e),
        }
    }

    /// Stat by path.
    pub fn stat(&self, path: &str) -> Result<ModelAttr, FsError> {
        let id = self.lookup(path)?;
        Ok(match &self.inode(id)?.kind {
            ModelKind::File { data } => ModelAttr {
                size: data.len() as u64,
                is_dir: false,
            },
            ModelKind::Dir { .. } => ModelAttr {
                size: 0,
                is_dir: true,
            },
        })
    }

    /// List a directory, name-sorted (the `BTreeMap` order, which is also
    /// `FsCore::readdir`'s contract).
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
        let id = self.lookup(path)?;
        match &self.inode(id)?.kind {
            ModelKind::Dir { entries } => Ok(entries.keys().cloned().collect()),
            ModelKind::File { .. } => Err(FsError::NotADirectory(path.to_string())),
        }
    }

    /// Remove a file or an *empty* directory (the `FsCore` contract).
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let (parent, name) = self.parent_of(path)?;
        let name = name.to_string();
        let id = self.lookup(path)?;
        if let ModelKind::Dir { entries } = &self.inode(id)?.kind {
            if !entries.is_empty() {
                return Err(FsError::NotEmpty(path.to_string()));
            }
        }
        let Some(Some(p)) = self.inodes.get_mut(parent.0 as usize) else {
            unreachable!("parent resolved above")
        };
        if let ModelKind::Dir { entries } = &mut p.kind {
            entries.remove(&name);
        }
        self.inodes[id.0 as usize] = None;
        Ok(())
    }

    /// Rename, mirroring `FsCore::rename_entry`'s POSIX semantics and
    /// check order exactly: source lookup, destination-parent is-a-dir,
    /// directory-cycle rejection, then the replace-existing rules
    /// (same-inode no-op, file over dir is `IsADirectory`, dir over
    /// non-empty dir is `NotEmpty`, dir over file is `NotADirectory`).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        let id = self.lookup(from)?;
        let (from_parent, from_name) = self.parent_of(from)?;
        let from_name = from_name.to_string();
        let (to_parent, to_name) = self.parent_of(to)?;
        let to_name = to_name.to_string();
        if !matches!(self.inode(to_parent)?.kind, ModelKind::Dir { .. }) {
            return Err(FsError::NotADirectory(to.to_string()));
        }
        let src_is_dir = matches!(self.inode(id)?.kind, ModelKind::Dir { .. });
        if src_is_dir {
            let comps = split_path(to)?;
            let (_, dirs) = comps.split_last().expect("parent_of succeeded above");
            let mut cur = MODEL_ROOT;
            let mut cycle = cur == id;
            for c in dirs {
                let ModelKind::Dir { entries } = &self.inode(cur)?.kind else {
                    unreachable!("prefix resolved by parent_of above")
                };
                cur = *entries.get(*c).expect("prefix resolved by parent_of above");
                cycle |= cur == id;
            }
            if cycle {
                return Err(FsError::InvalidArgument(format!(
                    "rename would create a cycle: {from} -> {to}"
                )));
            }
        }
        let existing = match &self.inode(to_parent)?.kind {
            ModelKind::Dir { entries } => entries.get(&to_name).copied(),
            ModelKind::File { .. } => unreachable!("checked is_dir above"),
        };
        if let Some(tid) = existing {
            if tid == id {
                return Ok(());
            }
            match &self.inode(tid)?.kind {
                ModelKind::Dir { entries } => {
                    if !src_is_dir {
                        return Err(FsError::IsADirectory(to.to_string()));
                    }
                    if !entries.is_empty() {
                        return Err(FsError::NotEmpty(to.to_string()));
                    }
                }
                ModelKind::File { .. } => {
                    if src_is_dir {
                        return Err(FsError::NotADirectory(to.to_string()));
                    }
                }
            }
            self.inodes[tid.0 as usize] = None;
        }
        let Some(Some(p)) = self.inodes.get_mut(from_parent.0 as usize) else {
            unreachable!("from parent resolved above")
        };
        if let ModelKind::Dir { entries } = &mut p.kind {
            entries.remove(&from_name);
        }
        let Some(Some(p)) = self.inodes.get_mut(to_parent.0 as usize) else {
            unreachable!("to parent resolved above")
        };
        if let ModelKind::Dir { entries } = &mut p.kind {
            entries.insert(to_name, id);
        }
        Ok(())
    }

    /// Write `data` at `offset`, growing the file to
    /// `max(old_size, offset + len)` — the `note_write` size rule. The
    /// gap below a past-EOF offset reads back as zeros, like a hole. An
    /// empty write changes nothing, as on the client; one ending past
    /// [`crate::types::MAX_FILE_SIZE`] is refused.
    pub fn write(&mut self, id: ModelId, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let ino = self
            .inodes
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| FsError::NotFound(format!("model inode {}", id.0)))?;
        let ModelKind::File { data: content } = &mut ino.kind else {
            return Err(FsError::IsADirectory(format!("model inode {}", id.0)));
        };
        if data.is_empty() {
            return Ok(());
        }
        check_file_size(offset.saturating_add(data.len() as u64))?;
        let end = offset as usize + data.len();
        if content.len() < end {
            content.resize(end, 0);
        }
        content[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    /// Read up to `len` bytes at `offset`, short at EOF like POSIX (and
    /// like the real client's read path).
    pub fn read(&self, id: ModelId, offset: u64, len: u64) -> Result<Vec<u8>, FsError> {
        let ino = self.inode(id)?;
        let ModelKind::File { data } = &ino.kind else {
            return Err(FsError::IsADirectory(format!("model inode {}", id.0)));
        };
        let start = (offset as usize).min(data.len());
        let end = (offset as usize).saturating_add(len as usize).min(data.len());
        Ok(data[start..end].to_vec())
    }

    /// Truncate (grow with zeros or shrink) to `new_size`, at most
    /// [`crate::types::MAX_FILE_SIZE`].
    pub fn truncate(&mut self, id: ModelId, new_size: u64) -> Result<(), FsError> {
        let ino = self
            .inodes
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| FsError::NotFound(format!("model inode {}", id.0)))?;
        let ModelKind::File { data } = &mut ino.kind else {
            return Err(FsError::IsADirectory(format!("model inode {}", id.0)));
        };
        check_file_size(new_size)?;
        data.resize(new_size as usize, 0);
        Ok(())
    }

    /// Live (non-root) inode count — a cheap sanity metric for reports.
    pub fn live_inodes(&self) -> u64 {
        self.inodes.iter().skip(1).flatten().count() as u64
    }

    /// Structural fingerprint of the tree, byte-identical to
    /// [`crate::fscore::FsCore::tree_fingerprint`]: same mix function,
    /// same seed, same name-sorted walk, file size standing in for
    /// content (the real side's fingerprint never hashes payloads). Two
    /// trees with the same shape, names and sizes produce the same value
    /// regardless of which implementation built them.
    pub fn tree_fingerprint(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        }
        fn walk(fs: &ModelFs, id: ModelId, mut h: u64) -> u64 {
            let ino = fs.inode(id).expect("walk only visits live inodes");
            match &ino.kind {
                ModelKind::File { data } => {
                    h = mix(h, 1);
                    h = mix(h, data.len() as u64);
                }
                ModelKind::Dir { entries } => {
                    h = mix(h, 2);
                    for (name, child) in entries {
                        h = mix(h, name.len() as u64);
                        for b in name.bytes() {
                            h = mix(h, u64::from(b));
                        }
                        h = walk(fs, *child, h);
                    }
                }
            }
            h
        }
        walk(self, MODEL_ROOT, 0xcbf2_9ce4_8422_2325)
    }

    /// Flat `(path, size, is_dir)` listing of the whole tree in walk
    /// order — the diagnostic the differ prints when fingerprints
    /// disagree, so a divergence names actual paths instead of two hex
    /// numbers.
    pub fn flatten(&self) -> Vec<(String, u64, bool)> {
        fn walk(fs: &ModelFs, id: ModelId, prefix: &str, out: &mut Vec<(String, u64, bool)>) {
            match &fs.inode(id).expect("walk only visits live inodes").kind {
                ModelKind::File { data } => {
                    out.push((prefix.to_string(), data.len() as u64, false))
                }
                ModelKind::Dir { entries } => {
                    out.push((
                        if prefix.is_empty() { "/" } else { prefix }.to_string(),
                        0,
                        true,
                    ));
                    for (name, child) in entries {
                        walk(fs, *child, &format!("{prefix}/{name}"), out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(self, MODEL_ROOT, "", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fscore::{FsConfig, FsCore};
    use crate::types::Owner;

    fn owner() -> Owner {
        Owner::local(1, 1)
    }

    /// The load-bearing property: the model's fingerprint is
    /// byte-identical to `FsCore`'s for the same visible tree.
    #[test]
    fn fingerprint_matches_fscore_exactly() {
        let mut real = FsCore::create(FsConfig::small_test("oracle"));
        let mut model = ModelFs::new();
        assert_eq!(real.tree_fingerprint(), model.tree_fingerprint(), "empty trees");

        real.mkdir("/a", owner(), 1).unwrap();
        model.mkdir("/a").unwrap();
        real.mkdir("/a/b", owner(), 2).unwrap();
        model.mkdir("/a/b").unwrap();
        real.create_file("/a/b/f", owner(), 3).unwrap();
        model.create_file("/a/b/f").unwrap();
        real.create_file("/top", owner(), 4).unwrap();
        model.create_file("/top").unwrap();
        assert_eq!(real.tree_fingerprint(), model.tree_fingerprint(), "same shape");

        // Sizes matter: a write that grows the file must move both sides
        // identically (note_write's max rule vs the model's resize).
        let id = real.lookup("/a/b/f").unwrap();
        real.note_write(id, 0, 4096, 5).unwrap();
        let mid = model.lookup("/a/b/f").unwrap();
        model.write(mid, 0, &[7u8; 4096]).unwrap();
        assert_eq!(real.tree_fingerprint(), model.tree_fingerprint(), "after write");

        // A smaller overlapping write must not shrink either side.
        real.note_write(id, 0, 100, 6).unwrap();
        model.write(mid, 0, &[9u8; 100]).unwrap();
        assert_eq!(real.tree_fingerprint(), model.tree_fingerprint(), "max size rule");

        // Renames and removes keep tracking.
        real.rename("/a/b/f", "/top2").unwrap();
        model.rename("/a/b/f", "/top2").unwrap();
        real.unlink("/top").unwrap();
        model.unlink("/top").unwrap();
        assert_eq!(real.tree_fingerprint(), model.tree_fingerprint(), "after rename+unlink");

        // And any visible difference separates them.
        model.mkdir("/only-model").unwrap();
        assert_ne!(real.tree_fingerprint(), model.tree_fingerprint());
    }

    /// Replay random op sequences against `FsCore` directly (no
    /// simulation): results and error *variants* must agree at every
    /// step. This is the core-level version of the full-stack property
    /// test in `scenarios::trace`.
    #[test]
    fn randomized_equivalence_with_fscore() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        fn random_path(rng: &mut StdRng) -> String {
            const NAMES: [&str; 5] = ["a", "b", "c", "dd", "e"];
            let depth = 1 + (rng.gen::<u64>() % 4) as usize;
            let mut p = String::new();
            for _ in 0..depth {
                p.push('/');
                p.push_str(NAMES[(rng.gen::<u64>() % NAMES.len() as u64) as usize]);
            }
            match rng.gen::<u64>() % 12 {
                0 => p.push('/'),
                1 => return "/".to_string(),
                2 => return p.trim_start_matches('/').to_string(), // relative
                3 => return format!("/{}/./x", &p[1..]),           // dot comp
                _ => {}
            }
            p
        }

        fn variant(r: &Result<(), FsError>) -> Option<std::mem::Discriminant<FsError>> {
            r.as_ref().err().map(std::mem::discriminant)
        }

        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0x0d1f_fe40 + seed);
            let mut real = FsCore::create(FsConfig::small_test("eq"));
            let mut model = ModelFs::new();
            for step in 0..500u64 {
                let p = random_path(&mut rng);
                let ctx = |what: &str| format!("seed {seed} step {step}: {what}({p})");
                match rng.gen::<u64>() % 10 {
                    0 | 1 => {
                        let a = real.mkdir(&p, owner(), step).map(|_| ());
                        let b = model.mkdir(&p).map(|_| ());
                        assert_eq!(variant(&a), variant(&b), "{}", ctx("mkdir"));
                    }
                    2 | 3 => {
                        let a = real.create_file(&p, owner(), step).map(|_| ());
                        let b = model.create_file(&p).map(|_| ());
                        assert_eq!(variant(&a), variant(&b), "{}", ctx("create"));
                    }
                    4 | 5 => {
                        let a = real.stat(&p).map(|s| (s.size, s.is_dir));
                        let b = model.stat(&p).map(|s| (s.size, s.is_dir));
                        assert_eq!(
                            a.as_ref().map_err(std::mem::discriminant),
                            b.as_ref().map_err(std::mem::discriminant),
                            "{}",
                            ctx("stat")
                        );
                        if let (Ok(a), Ok(b)) = (a, b) {
                            assert_eq!(a, b, "{}", ctx("stat value"));
                        }
                    }
                    6 => {
                        let a = real.readdir(&p);
                        let b = model.readdir(&p);
                        assert_eq!(
                            a.as_ref().map_err(std::mem::discriminant),
                            b.as_ref().map_err(std::mem::discriminant),
                            "{}",
                            ctx("readdir")
                        );
                        if let (Ok(a), Ok(b)) = (a, b) {
                            assert_eq!(a, b, "{}", ctx("readdir names"));
                        }
                    }
                    7 => {
                        // Double-unlink lands here often enough: the second
                        // call must fail NotFound on both sides.
                        let a = real.unlink(&p);
                        let b = model.unlink(&p);
                        assert_eq!(variant(&a), variant(&b), "{}", ctx("unlink"));
                    }
                    _ => {
                        let q = random_path(&mut rng);
                        let a = real.rename(&p, &q);
                        let b = model.rename(&p, &q);
                        assert_eq!(
                            variant(&a),
                            variant(&b),
                            "seed {seed} step {step}: rename({p} -> {q})"
                        );
                    }
                }
                assert_eq!(
                    real.tree_fingerprint(),
                    model.tree_fingerprint(),
                    "seed {seed} step {step}: trees diverged after {p}"
                );
            }
        }
    }

    #[test]
    fn read_is_short_at_eof_and_holes_are_zero() {
        let mut m = ModelFs::new();
        let id = m.create_file("/f").unwrap();
        m.write(id, 8192, &[5u8; 100]).unwrap();
        assert_eq!(m.stat("/f").unwrap().size, 8292);
        // The hole below the write reads zeros.
        assert_eq!(m.read(id, 0, 10).unwrap(), vec![0u8; 10]);
        // Short read at EOF.
        assert_eq!(m.read(id, 8292 - 4, 100).unwrap().len(), 4);
        assert_eq!(m.read(id, 9000, 10).unwrap(), Vec::<u8>::new());
        // Truncate shrinks and grows-with-zeros.
        m.truncate(id, 4).unwrap();
        assert_eq!(m.stat("/f").unwrap().size, 4);
        m.truncate(id, 8).unwrap();
        assert_eq!(m.read(id, 0, 8).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn open_mirrors_client_contract() {
        let mut m = ModelFs::new();
        m.mkdir("/d").unwrap();
        assert!(matches!(
            m.open("/d", OpenFlags::Write),
            Err(FsError::IsADirectory(_))
        ));
        assert!(matches!(
            m.open("/missing", OpenFlags::Read),
            Err(FsError::NotFound(_))
        ));
        // Write-open creates, and a second open finds the same file.
        let a = m.open("/d/new", OpenFlags::Write).unwrap();
        let b = m.open("/d/new", OpenFlags::Read).unwrap();
        assert_eq!(a, b);
    }

    /// Bytes the model has reserved for file `id`'s content.
    fn content_capacity(m: &ModelFs, id: ModelId) -> usize {
        match &m.inode(id).unwrap().kind {
            ModelKind::File { data } => data.capacity(),
            ModelKind::Dir { .. } => panic!("not a file"),
        }
    }

    /// A write or truncate past the largest file gets the stack's error
    /// from both the model and `FsCore`, and changes (and reserves)
    /// nothing.
    #[test]
    fn max_file_size_is_refused_like_the_stack() {
        use crate::types::MAX_FILE_SIZE;
        const PIB: u64 = 1 << 50;
        let mut real = FsCore::create(FsConfig::small_test("limit"));
        let mut m = ModelFs::new();
        let rid = real.create_file("/f", owner(), 1).unwrap();
        let mid = m.create_file("/f").unwrap();
        real.note_write(rid, 0, 10, 2).unwrap();
        m.write(mid, 0, &[5u8; 10]).unwrap();
        let cap = content_capacity(&m, mid);

        let refused = |r: Result<(), FsError>| matches!(r, Err(FsError::InvalidArgument(_)));
        assert!(refused(m.write(mid, PIB, &[1u8; 4])));
        assert!(refused(m.write(mid, MAX_FILE_SIZE, &[1u8])));
        assert!(refused(m.write(mid, u64::MAX - 1, &[1u8; 4])));
        assert!(refused(m.truncate(mid, PIB)));
        assert!(refused(real.note_write(rid, PIB, 4, 3)));
        assert!(refused(real.note_write(rid, MAX_FILE_SIZE, 1, 3)));
        assert!(refused(real.note_write(rid, u64::MAX - 1, 4, 3)));
        let pib_block = PIB / real.config.block_size;
        assert!(refused(real.ensure_block(rid, pib_block).map(|_| ())));
        assert!(refused(real.truncate(rid, PIB, 3)));
        // An empty write is a no-op on the client, so on the model too.
        m.write(mid, PIB, &[]).unwrap();

        assert_eq!(m.stat("/f").unwrap().size, 10);
        assert_eq!(real.stat("/f").unwrap().size, 10);
        assert_eq!(content_capacity(&m, mid), cap, "the model reserved bytes");
        assert_eq!(real.tree_fingerprint(), m.tree_fingerprint());
        // The limit itself is a legal size.
        real.note_write(rid, MAX_FILE_SIZE - 1, 1, 4).unwrap();
        assert_eq!(real.stat("/f").unwrap().size, MAX_FILE_SIZE);
    }
}
