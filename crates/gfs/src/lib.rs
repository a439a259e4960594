//! # gfs — a wide-area shared-disk parallel filesystem
//!
//! The paper's primary artifact, rebuilt from scratch: a GPFS-class
//! parallel filesystem whose disks (NSDs — Network Shared Disks) are served
//! over TCP/IP by NSD servers, mountable across wide-area networks and
//! across administrative domains with RSA cluster authentication.
//!
//! Layered as the real system is:
//!
//! * [`fscore`] — on-disk state: inodes, directories, striped allocation.
//! * [`tokens`] — distributed byte-range token management.
//! * [`cache`] — client page pool, prefetch, write-behind.
//! * [`client`] — the operation path (mounts, POSIX-style ops) sequenced
//!   over simulated RPCs, NSD service and bulk flows.
//! * [`world`] — scenario assembly: clusters, filesystems, clients.
//!
//! Additional layers (streaming data path, MPI-IO, SAN-client mode) are in
//! sibling modules.
#![allow(clippy::type_complexity)] // Sim callback signatures are inherent to the event-driven style
#![allow(clippy::too_many_arguments)] // op-path plumbing carries (sim, world, ids...) by design
pub mod admin;
pub mod cache;
pub mod client;
pub mod commands;
pub mod faults;
pub mod fscore;
pub mod fsck;
pub mod hsmlink;
pub mod mpiio;
pub mod oracle;
pub mod replica;
mod rpc;
pub mod sanfs;
pub mod session;
pub mod slab;
pub mod stream;
pub mod tokens;
pub mod types;
pub mod world;

pub use cache::{PagePool, PrefetchState};
pub use faults::{
    apply_fault, inject, FaultEvent, FaultKind, FaultPlan, ProgressEvent, ProgressInjector,
    ProgressPlan, RecoveryLog, RecoveryWhat,
};
pub use fsck::{fsck, fsck_instance, FsckError, FsckReport};
pub use oracle::{ModelAttr, ModelFs, ModelId};
pub use replica::{ReplicaCatalog, ReplicaCopy, ReplicaSite};
pub use fscore::{DataMode, FileAttr, FsConfig, FsCore};
pub use tokens::{ByteRange, TokenManager, TokenMode};
pub use session::{FanIn, Session, SessionState};
pub use slab::Slab;
pub use types::{
    BlockAddr, ClientId, ClusterId, FsError, FsId, Handle, InodeId, NsdId, OpenFlags, Owner,
    SessionId, MAX_FILE_SIZE,
};
pub use stream::{gfs_stream, run_stream, StreamDir, StreamSpec};
pub use world::{FsParams, GfsWorld, ManagerState, NsdBacking, ProtocolCosts, WorldBuilder};
