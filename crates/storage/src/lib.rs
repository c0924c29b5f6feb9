//! Paged persistent storage for the htqo engine.
//!
//! The in-memory engine gets a disk story in five layers:
//!
//! 1. [`page`] — slotted 8 KiB pages holding variable-length row cells,
//!    edited in place one cell at a time, with a per-page checksum
//!    trailer verified on every read;
//! 2. [`pager`] — page-granular file IO ([`PageFile`]) that stamps the
//!    checksum on write and reports mismatches as typed
//!    `EvalError::CorruptPage`;
//! 3. [`wal`] — a checksummed redo log ([`wal::Wal`]) of slot records
//!    (the cells a commit changes) and full page images (logged before a
//!    page is overwritten in place), giving mutations crash durability
//!    ([`WalPolicy`], chosen at [`StorageDb::open_with`], picks the fsync
//!    policy);
//! 4. [`buffer`] — a pinned/unpinned page cache with clock eviction,
//!    capacity chosen by the caller, byte-charged against the engine's
//!    [`htqo_engine::Budget`] so cached pages compete with query memory —
//!    which keeps the committed cells of pages whose file copy is behind
//!    and writes a page back only behind a durable image of it;
//! 5. [`btree`] + [`catalog`] — bulk-loaded B+tree join indexes and a
//!    restart-surviving table catalog ([`StorageDb`]) with logged
//!    incremental mutations ([`MutationBatch`]), crash recovery
//!    ([`StorageDb::recover`]), and checkpointing, read back through the
//!    buffer pool.
//!
//! Ingest a CSV/TPC-H load once with [`StorageDb::ingest`]; later runs
//! call [`StorageDb::load_database`] — which first replays any committed
//! WAL tail a crash left behind — and skip the parse entirely (the
//! "warm restart" path the e2e `paged_rw` workload times as `restart_p50_ms`). Persisted
//! indexes come back as [`btree::PagedIndex`] values implementing the
//! engine's [`htqo_engine::JoinIndex`], which the vertex join
//! ([`htqo_engine::cops::join_vertex`]) probes once per distinct
//! accumulator key when a seek pays.

#![warn(missing_docs)]

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod codec;
pub mod page;
pub mod pager;
pub mod wal;

pub use btree::{IndexMeta, PagedIndex};
pub use buffer::{BufferPool, PagePin, PoolStats};
pub use catalog::{
    MutationBatch, RecoveryReport, StorageDb, TableMeta, DEFAULT_CACHE_BYTES,
    DEFAULT_CHECKPOINT_BYTES,
};
pub use page::{PAGE_DATA, PAGE_SIZE};
pub use pager::PageFile;
pub use wal::{Wal, WalPolicy, WalRecord, WalStats};
