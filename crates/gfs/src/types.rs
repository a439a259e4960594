//! Common identifiers, flags and errors for the Global File System.

use gfs_auth::identity::Dn;
use std::fmt;

/// Identifies a filesystem (a "device" like `/dev/gpfs-wan`) within a world.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FsId(pub u32);

/// Identifies an inode within one filesystem.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InodeId(pub u64);

/// Identifies a Network Shared Disk (one LUN served by an NSD server).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NsdId(pub u32);

/// An interned path component: an index into the filesystem's global name
/// table. Directory entries, path resolution and the dentry cache work on these
/// 4-byte ids instead of `String` keys — one interning per *distinct* name
/// ever created, zero string allocation per lookup.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NameId(pub u32);

/// Identifies a filesystem client (one mounting node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub u32);

/// Identifies a flyweight session: one simulated user sharing a mount
/// context's page pool and token mirror (see
/// [`crate::session`]). Thousands of sessions ride on one [`ClientId`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId(pub u32);

/// Identifies a GPFS cluster (an administrative domain).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClusterId(pub u32);

/// An open-file handle returned by `open`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Handle(pub u64);

/// A block's physical address: which NSD, which block number on it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockAddr {
    /// The NSD holding the block.
    pub nsd: u32,
    /// Block number within the NSD.
    pub block: u64,
}

/// File ownership: the GSI extension records the *certificate DN* alongside
/// the local UID that created the file, so ownership survives the
/// cross-site UID mismatch described in paper §6.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Owner {
    /// Creating site's local UID.
    pub uid: u32,
    /// Creating site's local GID.
    pub gid: u32,
    /// Grid identity, when known.
    pub dn: Option<Dn>,
}

impl Owner {
    /// Plain UNIX ownership (no grid identity).
    pub fn local(uid: u32, gid: u32) -> Self {
        Owner { uid, gid, dn: None }
    }

    /// Grid ownership.
    pub fn grid(uid: u32, gid: u32, dn: Dn) -> Self {
        Owner {
            uid,
            gid,
            dn: Some(dn),
        }
    }
}

/// Open flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpenFlags {
    /// Read-only.
    Read,
    /// Write-only (create if absent).
    Write,
    /// Read and write (create if absent).
    ReadWrite,
}

impl OpenFlags {
    /// True when the open permits writing.
    pub fn writes(self) -> bool {
        !matches!(self, OpenFlags::Read)
    }
}

/// Filesystem errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FsError {
    /// Path component missing.
    NotFound(String),
    /// Path exists where it must not.
    AlreadyExists(String),
    /// Directory operation on a file or vice versa.
    NotADirectory(String),
    /// File operation on a directory.
    IsADirectory(String),
    /// Directory not empty on unlink/rmdir.
    NotEmpty(String),
    /// Filesystem out of blocks.
    NoSpace,
    /// Handle not open.
    BadHandle,
    /// Write attempted on a read-only mount or read-only open.
    ReadOnly,
    /// Filesystem not mounted at this client.
    NotMounted(String),
    /// Remote-mount authentication failed.
    AuthFailed(String),
    /// Offset/length invalid (e.g. read past a hole boundary rules).
    InvalidArgument(String),
    /// An NSD request exhausted its retries without a response (server
    /// unreachable or overwhelmed past the retry budget).
    Timeout,
    /// Every NSD server that could serve the request is marked failed.
    ServerDown,
    /// The operation completed but against degraded redundancy (e.g. a
    /// rebuild in progress); data is correct, performance is not.
    Degraded(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::BadHandle => write!(f, "bad file handle"),
            FsError::ReadOnly => write!(f, "read-only file system or handle"),
            FsError::NotMounted(d) => write!(f, "not mounted: {d}"),
            FsError::AuthFailed(m) => write!(f, "authentication failed: {m}"),
            FsError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            FsError::Timeout => write!(f, "request timed out after retries"),
            FsError::ServerDown => write!(f, "no NSD server available: all servers failed"),
            FsError::Degraded(m) => write!(f, "operating degraded: {m}"),
        }
    }
}

impl std::error::Error for FsError {}

/// The largest file any layer will hold: 1 TiB. Every file the paper's
/// workloads write fits (Enzo's 100 GB visualization dumps are the
/// largest). A file's block map holds only its mapped blocks, so the
/// limit sizes no allocation; it keeps every offset, block index and
/// `offset + len` well inside `u64`, and the client stack,
/// [`crate::fscore::FsCore`] and the oracle refuse the same requests.
pub const MAX_FILE_SIZE: u64 = 1 << 40;

/// `Ok` if a file may be `size` bytes long. Otherwise the one error every
/// layer (client stack, [`crate::fscore::FsCore`], the oracle) returns
/// for a write ending, or a truncate landing, past [`MAX_FILE_SIZE`].
pub fn check_file_size(size: u64) -> Result<(), FsError> {
    if size > MAX_FILE_SIZE {
        return Err(FsError::InvalidArgument(format!(
            "file size {size} exceeds the {MAX_FILE_SIZE}-byte maximum"
        )));
    }
    Ok(())
}

/// Split a `/`-separated absolute path into components; rejects relative
/// paths and empty components.
pub fn split_path(path: &str) -> Result<Vec<&str>, FsError> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidArgument(format!(
            "path must be absolute: {path}"
        )));
    }
    let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
    if comps.iter().any(|c| *c == "." || *c == "..") {
        return Err(FsError::InvalidArgument(format!(
            "path may not contain . or ..: {path}"
        )));
    }
    Ok(comps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_path_basics() {
        assert_eq!(split_path("/").unwrap(), Vec::<&str>::new());
        assert_eq!(split_path("/a/b/c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(split_path("//a///b/").unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn relative_paths_rejected() {
        assert!(split_path("a/b").is_err());
        assert!(split_path("").is_err());
    }

    #[test]
    fn dot_components_rejected() {
        assert!(split_path("/a/./b").is_err());
        assert!(split_path("/a/../b").is_err());
    }

    #[test]
    fn flags_write_detection() {
        assert!(!OpenFlags::Read.writes());
        assert!(OpenFlags::Write.writes());
        assert!(OpenFlags::ReadWrite.writes());
    }

    #[test]
    fn error_display() {
        let e = FsError::NotFound("/x".into());
        assert_eq!(e.to_string(), "no such file or directory: /x");
    }
}
