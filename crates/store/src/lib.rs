//! # mocc-store — content-addressed experiment result store
//!
//! Every cell report in the MOCC pipeline is deterministic and
//! canonical-JSON (byte-identical across thread counts and batch
//! sizes), which makes each experiment cell perfectly memoizable.
//! This crate provides the on-disk half of that memoization:
//!
//! - [`ResultStore`] — a sharded `objects/` directory of opaque blobs
//!   addressed by 64-hex cache keys, plus an append-only
//!   `ledger.jsonl` recording every `put`/`hit`/`miss` with a
//!   caller-supplied timestamp (the store never reads a clock, so
//!   library code stays deterministic).
//! - [`sha256`]/[`sha256_hex`] — a dependency-free, FIPS-vector-pinned
//!   SHA-256, used both for cache keys (hash of the canonical cell
//!   request, derived in `mocc-eval`) and for blob content digests.
//! - [`LedgerScan`] — a crash-tolerant ledger reader: half-written
//!   tails and bit-flipped lines are reported, never fatal.
//!
//! The store is deliberately **generic over blobs**: it knows nothing
//! about `CellReport` or `ExperimentSpec`. Cache-key derivation and
//! report semantics live in `mocc-eval`'s cache layer; this crate
//! guarantees only that bytes come back exactly as stored — a blob
//! whose content digest no longer matches the ledger degrades to a
//! miss (recompute), never to wrong results.
//!
//! See `docs/CACHING.md` for the key-derivation, ledger-format, and
//! gc contracts.

#![forbid(unsafe_code)]

mod ledger;
mod sha256;
mod store;

pub use ledger::{LedgerEntry, LedgerEvent, LedgerScan};
pub use sha256::{sha256, sha256_hex};
pub use store::{
    object_rel_path, read_capped, read_text, GcReport, ResultStore, StoreStats, VerifyReport,
    MAX_BLOB_BYTES, MAX_FILE_BYTES,
};
