//! # mocc-bench — the experiment harness
//!
//! Two binaries: the `mocc` CLI (`src/bin/mocc.rs`) and `figures`
//! (`src/bin/figures.rs`), which regenerates every table and figure of
//! the paper's §6 from the functions in [`figures`]. Performance is
//! measured by the repository's one instrument, `benchmark/`
//! (docs/PERFORMANCE.md), not here; this crate keeps only the two
//! kernel-ratio gates (`tests/kernel_ratios.rs`).
//!
//! Trained models are cached under `target/mocc-cache/` so the figures
//! share one offline training run. Delete the directory to retrain.
//! [`serve`] is the `mocc serve` daemon, a library module so its
//! protocol is testable without spawning the binary. The figures run
//! at one reduced scale, the one their fixtures record, which keeps
//! every figure under a few minutes.

#![forbid(unsafe_code)]

pub mod figures;
pub mod serve;
pub mod timing;

use std::path::PathBuf;

/// The cache root: `$MOCC_CACHE_DIR`, else `target/mocc-cache`. Holds
/// the trained models the figures share (`*.json`) and, in its `store`
/// subdirectory, the `mocc` CLI's default result store. Created on
/// first use; a root that cannot be created is the error
/// `<path>: <reason>`.
pub fn cache_dir() -> Result<PathBuf, String> {
    // audit:allow(env-discipline): strict-parse helper — the one reader of MOCC_CACHE_DIR
    let dir = std::env::var("MOCC_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/mocc-cache"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
