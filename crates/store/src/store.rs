//! The content-addressed object store: sharded blobs + audit ledger.

use crate::ledger::{write_entry, LedgerEntry, LedgerEvent, LedgerScan};
use crate::sha256::{from_hex, sha256, sha256_hex, to_hex};
use std::any::Any;
use std::collections::BTreeMap;
use std::fs::{DirEntry, Metadata};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::{FileTypeExt, OpenOptionsExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Name of the ledger file inside the store root.
const LEDGER_FILE: &str = "ledger.jsonl";
/// Name of the objects directory inside the store root.
const OBJECTS_DIR: &str = "objects";

/// The largest object file any reader of the store takes in: `lookup`
/// misses a larger one, `verify` reports it and `gc` removes it, none
/// of them reading a byte of it, and `put` refuses a larger blob. A
/// cell report is a fixed set of fields — every shipped spec writes
/// blobs of 355–390 bytes — so this is thousands of times the largest.
pub const MAX_BLOB_BYTES: u64 = 1 << 20;

/// The byte budget of a daemon's verified blobs
/// ([`ResultStore::with_verified_blobs`]): the length of each blob a
/// kept value was made from, plus [`VERIFIED_ENTRY_BYTES`] per value.
const VERIFIED_BLOB_BUDGET: usize = 32 << 20;

/// What one kept value costs beyond its blob's length: its digest, the
/// shared pointer and its counts, and the map's share of a node.
const VERIFIED_ENTRY_BYTES: usize = 96;

/// Monotone counter making temp-file names unique within a process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A SHA-256 digest: a store key, or a blob's content digest.
type Digest = [u8; 32];

/// The ledger as far as this handle has read it: the key index (each
/// key's latest `put`, as its blob's content digest — the blob's place
/// is always [`object_rel_path`] of the key) and the line counts
/// `stats` reports, with where the reading stopped.
#[derive(Debug, Default)]
struct Folded {
    /// Key → content digest, both binary. A `put` line whose `content`
    /// is not a digest's canonical hex records `None`: no blob can
    /// match it.
    index: BTreeMap<Digest, Option<Digest>>,
    puts: u64,
    hits: u64,
    misses: u64,
    bad_lines: u64,
    /// Ledger bytes folded so far; always just past a newline.
    offset: u64,
    /// The last line folded, newline included: the bytes a ledger must
    /// still hold before `offset` to be the file that was folded.
    anchor: String,
}

impl Folded {
    /// Folds the complete lines of `text`, the ledger from `offset`
    /// on, in append order (a key's latest `put` is the one kept);
    /// returns whether a half-written line is left after them.
    fn fold(&mut self, text: &str) -> bool {
        let scan = LedgerScan::visit(text, |entry| match entry.event {
            LedgerEvent::Put => {
                self.puts += 1;
                // A `put` line reaches here only with a store key.
                if let Some(key) = from_hex(&entry.key) {
                    self.index
                        .insert(key, entry.content.as_deref().and_then(from_hex));
                }
            }
            LedgerEvent::Hit => self.hits += 1,
            LedgerEvent::Miss => self.misses += 1,
        });
        self.bad_lines += scan.bad_lines.len() as u64;
        if let Some(last_nl) = text.rfind('\n') {
            let start = text[..last_nl].rfind('\n').map_or(0, |nl| nl + 1);
            self.anchor.clear();
            self.anchor.push_str(&text[start..=last_nl]);
            self.offset += last_nl as u64 + 1;
        }
        scan.truncated_tail
    }

    /// Brings the fold up to the ledger's current end by reading only
    /// what was appended since the last call, and returns whether the
    /// ledger ends in a half-written line.
    ///
    /// The whole ledger is folded again from its start when it is not
    /// the file that was folded — it does not hold the last folded line
    /// just before `offset`: it is shorter, or `gc` (this process's or
    /// another's) renamed a compacted ledger into place — and when the
    /// appended lines hold a bad one: the ledger was damaged while
    /// this handle had it folded — two processes' appends met on a
    /// half-written tail, say, and a `put` line this index took in was
    /// lost to it — so nothing remembered about it is trusted.
    fn catch_up(&mut self, root: &Path) -> io::Result<bool> {
        let Some(mut file) = open_ledger(root)? else {
            *self = Folded::default();
            return Ok(false);
        };
        // Nothing folded or indexed yet (every `open`): the first fold
        // below is the fold from the start.
        let from_start = self.offset == 0 && self.index.is_empty();
        let bad_lines = self.bad_lines;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(self.offset - self.anchor.len() as u64))?;
        file.read_to_end(&mut bytes)?;
        if bytes.starts_with(self.anchor.as_bytes()) {
            let truncated = self.fold(utf8(&bytes[self.anchor.len()..])?);
            if from_start || self.bad_lines == bad_lines {
                return Ok(truncated);
            }
        }
        *self = Folded::default();
        bytes.clear();
        file.rewind()?;
        file.read_to_end(&mut bytes)?;
        Ok(self.fold(utf8(&bytes)?))
    }
}

/// A daemon's verified blobs, kept as the values made of them: content
/// digest → what a lookup's check made of bytes that hash to it, or
/// what a `put`'s caller handed over with them, within a byte budget.
struct VerifiedBlobs {
    values: BTreeMap<Digest, Kept>,
    /// What the values held cost against `budget`.
    bytes: usize,
    budget: usize,
}

/// One kept value and its cost: the length of the blob it was made
/// from, plus [`VERIFIED_ENTRY_BYTES`].
struct Kept {
    value: Arc<dyn Any + Send + Sync>,
    cost: usize,
}

impl std::fmt::Debug for VerifiedBlobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiedBlobs")
            .field("values", &self.values.len())
            .field("bytes", &self.bytes)
            .field("budget", &self.budget)
            .finish()
    }
}

impl VerifiedBlobs {
    fn new(budget: usize) -> Self {
        VerifiedBlobs {
            values: BTreeMap::new(),
            bytes: 0,
            budget,
        }
    }

    /// The value kept for `digest`, if it is a `V`.
    fn get<V: Any>(&self, digest: &Digest) -> Option<Arc<dyn Any + Send + Sync>> {
        let kept = self.values.get(digest)?;
        kept.value.is::<V>().then(|| Arc::clone(&kept.value))
    }

    /// Keeps `value`, made from a `blob_len`-byte blob whose SHA-256 is
    /// `digest`, in place of whatever was kept for it. To make room,
    /// values are dropped smallest digest first — digests are uniform,
    /// so what stays is a fair sample of what was kept — and a value
    /// that alone exceeds the budget is not kept.
    fn insert(&mut self, digest: Digest, blob_len: usize, value: Arc<dyn Any + Send + Sync>) {
        let cost = blob_len + VERIFIED_ENTRY_BYTES;
        if cost > self.budget {
            return;
        }
        if let Some(replaced) = self.values.remove(&digest) {
            self.bytes -= replaced.cost;
        }
        while self.bytes + cost > self.budget {
            let Some((_, dropped)) = self.values.pop_first() else {
                break;
            };
            self.bytes -= dropped.cost;
        }
        self.bytes += cost;
        self.values.insert(digest, Kept { value, cost });
    }
}

/// What the store's one lock guards.
#[derive(Debug, Default)]
struct Locked {
    folded: Folded,
    /// `Some` on a daemon's handle only
    /// ([`ResultStore::with_verified_blobs`]).
    verified: Option<VerifiedBlobs>,
    /// Lookups this handle sent to an object's file.
    blob_reads: u64,
    /// Lookups that ran their caller's check on verified bytes.
    blob_checks: u64,
}

/// A content-addressed on-disk result store.
///
/// Layout under the root directory:
///
/// ```text
/// <root>/objects/<k[0..2]>/<k>.json   # blob for key k (64-hex SHA-256)
/// <root>/ledger.jsonl                 # append-only audit ledger
/// ```
///
/// Blobs are opaque to the store (the experiment layer stores
/// canonical `CellReport` JSON). Every blob's SHA-256 **content
/// digest** is recorded in the ledger's `put` line; [`ResultStore::lookup`]
/// re-reads and re-hashes the blob on every lookup — a daemon's handle
/// ([`ResultStore::with_verified_blobs`]) on the first lookup of each
/// digest only, serving the value its caller's check made of the bytes
/// it verified then to later ones — and refuses to serve bytes that do
/// not match: a corrupted object degrades to a miss (recompute), never
/// to wrong results.
///
/// Writes are atomic (temp file + rename in the same directory), and
/// ledger appends happen under an in-process lock with one `write`
/// call per append — one `put` line, or all the lookup lines of one
/// run ([`ResultStore::append_lookups`]) — so concurrent runners
/// sharing one store cannot interleave partial lines. Opening a store
/// after a crash repairs a half-written ledger tail by truncating the
/// incomplete final line (its blob, if the rename completed, is
/// re-adopted on the next `put`; if not, nothing references it and
/// `gc` removes the orphan); a handle already open when another
/// process leaves such a tail ends it with a newline before its own
/// next line.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    state: Mutex<Locked>,
    repaired_tail: bool,
}

/// Aggregate counters for `mocc cache stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Blobs on disk.
    pub objects: u64,
    /// Total blob bytes on disk; 0 from a daemon's handle, which
    /// counts objects without a `stat` each ([`ResultStore::stats`]).
    pub object_bytes: u64,
    /// Distinct keys with a live `put` entry.
    pub keys: u64,
    /// `put` ledger entries.
    pub puts: u64,
    /// `hit` ledger entries.
    pub hits: u64,
    /// `miss` ledger entries.
    pub misses: u64,
    /// Ledger lines no reader acts on: unparseable, or a `put` naming
    /// an object that is not its key's own.
    pub bad_ledger_lines: u64,
    /// True when the ledger ends in a half-written line.
    pub truncated_ledger_tail: bool,
}

/// The outcome of a full store verification.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Objects checked against their recorded content digests.
    pub objects_checked: u64,
    /// Human-readable descriptions of every problem found.
    pub issues: Vec<String>,
}

impl VerifyReport {
    /// True when no corruption or inconsistency was found.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// The outcome of a garbage collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Keys (and objects) surviving the collection.
    pub kept: u64,
    /// Object files deleted (expired, corrupt, or orphaned).
    pub removed_objects: u64,
    /// Ledger lines dropped by compaction.
    pub removed_ledger_lines: u64,
}

impl ResultStore {
    /// Opens (creating if necessary) a store rooted at `root`: folds
    /// the whole ledger once, into the key index and the counts
    /// [`ResultStore::stats`] reports, and repairs a crash-truncated
    /// ledger tail.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(root.join(OBJECTS_DIR))?;
        let mut folded = Folded::default();
        let repaired_tail = folded.catch_up(&root)?;
        if repaired_tail {
            // Crash recovery: drop the incomplete final line so future
            // appends start on a fresh line. Cut in place — the lines
            // before it are never rewritten, so a second crash here
            // cannot lose them.
            std::fs::OpenOptions::new()
                .write(true)
                .open(root.join(LEDGER_FILE))?
                .set_len(folded.offset)?;
        }
        Ok(ResultStore {
            root,
            state: Mutex::new(Locked {
                folded,
                ..Locked::default()
            }),
            repaired_tail,
        })
    }

    /// This handle, keeping — by content digest, within a fixed byte
    /// budget (32 MiB, charged each value's blob length) — the value
    /// its lookups' checks make of the blobs they verify, and the value
    /// each `put`'s caller hands over with the blob it writes: a later
    /// lookup whose recorded digest has a kept value of the type it asks
    /// for clones that value and writes the same `hit` line, with no
    /// file opened, read or hashed and no check run. Every value served
    /// was made from bytes that hash to the digest the index records
    /// now. A blob whose check fails is never kept. What this handle no
    /// longer notices is damage done to an object's file after it
    /// verified that file; `verify`, `gc` and every other handle still
    /// do. Its `stats` counts objects from the directory listing alone.
    /// For the long-lived `mocc serve` only (docs/CACHING.md, "The
    /// daemon's verified blobs").
    pub fn with_verified_blobs(mut self) -> Self {
        self.state.get_mut().expect("store lock").verified =
            Some(VerifiedBlobs::new(VERIFIED_BLOB_BUDGET));
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// True when [`ResultStore::open`] had to truncate a half-written
    /// ledger line left by a crashed writer.
    pub fn repaired_tail(&self) -> bool {
        self.repaired_tail
    }

    /// Number of keys with a live blob record.
    pub fn len(&self) -> usize {
        self.state.lock().expect("store lock").folded.index.len()
    }

    /// True when no key has a live blob record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Object files this handle's lookups went to — opened, or tried
    /// to — since [`ResultStore::open`]: one per lookup of a recorded
    /// blob, except on a daemon's handle, which reads a blob only until
    /// it has kept a value of it ([`ResultStore::with_verified_blobs`]).
    pub fn blob_reads(&self) -> u64 {
        self.state.lock().expect("store lock").blob_reads
    }

    /// Checks this handle's lookups ran since [`ResultStore::open`]:
    /// one per lookup whose blob's bytes verified, except on a daemon's
    /// handle, which serves a value it kept without a check.
    pub fn blob_checks(&self) -> u64 {
        self.state.lock().expect("store lock").blob_checks
    }

    /// The one lookup: the blob for `key` read into `bytes`, its content
    /// digest verified, and what `check` makes of the verified text
    /// served; the lookup's `hit` or `miss` line — with the
    /// caller-supplied timestamp — is pushed onto `lines`. A blob that
    /// cannot be read, is over [`MAX_BLOB_BYTES`], is not UTF-8, or
    /// whose bytes do not hash to the digest recorded when it was
    /// written, is a miss — corruption degrades to recomputation, never
    /// to bad bytes. A blob that verifies is a `hit` line whatever
    /// `check` returns. On a daemon's handle, a recorded digest with a
    /// `V` kept for it is served a clone of that value instead, with no
    /// file read and no check; a `Some` that `check` returns is kept.
    ///
    /// No ledger is touched: the caller hands the lines of its lookups
    /// to [`ResultStore::append_lookups`], in the order the ledger is
    /// to read them, whichever threads did the looking up. Both
    /// buffers are the caller's so that a run of lookups reuses them.
    ///
    /// The index lock is held for a map probe and a 32-byte copy — on a
    /// daemon's handle also a second probe and a reference count — and,
    /// after a check, to count it and on a daemon's handle to keep its
    /// value; never across a file read, a digest or a check, so
    /// concurrent lookups of one store share no I/O wait. A `put` that
    /// lands between the copy and the read can only turn the lookup
    /// into a miss (the digest no longer matches).
    pub fn lookup<V: Clone + Send + Sync + 'static>(
        &self,
        key: &str,
        ts: u64,
        bytes: &mut Vec<u8>,
        lines: &mut String,
        check: impl FnOnce(&str) -> Option<V>,
    ) -> Option<V> {
        let index_key = from_hex(key);
        let (recorded, kept, keeps) = {
            let mut state = self.state.lock().expect("store lock");
            let recorded = index_key.and_then(|key| state.folded.index.get(&key).copied()?);
            let kept = recorded.and_then(|digest| state.verified.as_ref()?.get::<V>(&digest));
            if recorded.is_some() && kept.is_none() {
                state.blob_reads += 1;
            }
            (recorded, kept, state.verified.is_some())
        };
        let (event, served) = match (recorded, kept) {
            (Some(_), Some(kept)) => (LedgerEvent::Hit, kept.downcast_ref::<V>().cloned()),
            (Some(digest), None) => {
                let verified =
                    read_capped(&self.root.join(object_rel_path(key)), MAX_BLOB_BYTES, bytes)
                        .is_ok()
                        && sha256(bytes) == digest;
                match verified.then(|| std::str::from_utf8(bytes).ok()).flatten() {
                    None => (LedgerEvent::Miss, None),
                    Some(blob) => {
                        let served = check(blob);
                        let keep = if keeps { served.clone() } else { None };
                        let mut state = self.state.lock().expect("store lock");
                        state.blob_checks += 1;
                        if let (Some(value), Some(verified)) = (keep, state.verified.as_mut()) {
                            verified.insert(digest, bytes.len(), Arc::new(value));
                        }
                        (LedgerEvent::Hit, served)
                    }
                }
            }
            (None, _) => (LedgerEvent::Miss, None),
        };
        write_entry(lines, key, event, None, None, ts);
        lines.push('\n');
        served
    }

    /// Appends the lines [`ResultStore::lookup`] wrote, as **one**
    /// write. Best effort: the lines feed `stats` and `gc`'s
    /// last-touch time, never correctness, so a caller that stops
    /// before this — a killed process — or a full disk loses them and
    /// nothing else. A write cut short leaves only whole lines and the
    /// half-line tail [`ResultStore::open`] already repairs.
    pub fn append_lookups(&self, lines: &str) {
        let _guard = self.state.lock().expect("store lock");
        let _ = self.append_locked(lines);
    }

    /// Looks up the blob for `key` ([`ResultStore::lookup`]), served as
    /// its text, and appends the lookup's `hit` or `miss` line.
    pub fn get(&self, key: &str, ts: u64) -> Option<String> {
        let (mut bytes, mut line) = (Vec::new(), String::new());
        let served = self.lookup(key, ts, &mut bytes, &mut line, |blob| Some(blob.to_owned()));
        self.append_lookups(&line);
        served
    }

    /// Stores `blob` under `key` ([`ResultStore::put_value`]); a
    /// daemon's handle keeps its text, the value [`ResultStore::get`]
    /// serves.
    pub fn put(&self, key: &str, blob: &str, ts: u64) -> io::Result<()> {
        self.put_value(key, blob, ts, || blob.to_owned())
    }

    /// Stores `blob` under `key` (a 64-char hex digest of the
    /// canonical request — see `mocc-eval`'s cache-key derivation).
    /// The write is atomic (temp file + rename) and appends a `put`
    /// ledger line carrying the blob's content digest. A blob over
    /// [`MAX_BLOB_BYTES`] is refused: no lookup would serve it. A
    /// daemon's handle keeps `value()` — what a lookup's check would
    /// make of `blob` — for the lookups that follow; any other handle
    /// never calls it.
    pub fn put_value<V: Send + Sync + 'static>(
        &self,
        key: &str,
        blob: &str,
        ts: u64,
        value: impl FnOnce() -> V,
    ) -> io::Result<()> {
        let index_key = validate_key(key)?;
        if blob.len() as u64 > MAX_BLOB_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "a {}-byte blob is over the {MAX_BLOB_BYTES}-byte cap on an object",
                    blob.len()
                ),
            ));
        }
        let rel = object_rel_path(key);
        let path = self.root.join(&rel);
        let dir = path.parent().expect("object path has a shard directory");
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, blob)?;
        std::fs::rename(&tmp, &path)?;
        let digest = sha256(blob.as_bytes());
        let mut line = String::new();
        write_entry(
            &mut line,
            key,
            LedgerEvent::Put,
            Some(&to_hex(&digest)),
            Some(&rel),
            ts,
        );
        line.push('\n');
        let mut state = self.state.lock().expect("store lock");
        self.append_locked(&line)?;
        state.folded.index.insert(index_key, Some(digest));
        if let Some(verified) = state.verified.as_mut() {
            verified.insert(digest, blob.len(), Arc::new(value()));
        }
        Ok(())
    }

    /// Appends whole ledger lines as a single `write` call (callers
    /// hold the index lock, so in-process concurrent writers cannot
    /// interleave; cross-process writers rely on `O_APPEND` whole-write
    /// atomicity).
    ///
    /// A ledger that does not end in a newline ends in the half line
    /// of a writer killed mid-append, in another process and since
    /// this handle's `open`: the write then starts with the newline
    /// that ends it, so that the half line is one bad line of its own
    /// and the first line written here is not fused into it.
    fn append_locked(&self, lines: &str) -> io::Result<()> {
        if lines.is_empty() {
            return Ok(());
        }
        let path = self.root.join(LEDGER_FILE);
        // Read and write: a FIFO's open then waits for no one, and its
        // handle is refused here before anything is written into it.
        let opened = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path);
        let mut file = match opened {
            Ok(file) => file,
            // A socket or a directory cannot be opened so.
            Err(_) if std::fs::metadata(&path).is_ok_and(|meta| !meta.is_file()) => {
                return Err(not_a_regular_ledger(&path))
            }
            Err(e) => return Err(e),
        };
        if !file.metadata()?.is_file() {
            return Err(not_a_regular_ledger(&path));
        }
        let mut last = [b'\n'];
        // An empty ledger has no last byte: the seek to before its
        // start fails, and there is no tail to end.
        if file.seek(SeekFrom::End(-1)).is_ok() {
            file.read_exact(&mut last)?;
        }
        if last == [b'\n'] {
            file.write_all(lines.as_bytes())
        } else {
            file.write_all(["\n", lines].concat().as_bytes())
        }
    }

    /// Calls `visit` for every object file on disk — every entry of a
    /// shard directory under `objects/` that is a file once symlinks
    /// are followed — in directory order. The listing says what an
    /// entry is (`DirEntry::file_type`); only a symlink is looked up by
    /// path, to follow it. A plain file costs no `stat` unless the
    /// visitor asks for its length ([`WalkedObject::len`]), and no path
    /// is built for it unless the visitor asks for one.
    fn walk_objects(&self, mut visit: impl FnMut(&WalkedObject<'_>)) -> io::Result<()> {
        for shard in std::fs::read_dir(self.root.join(OBJECTS_DIR))? {
            let shard = shard?;
            let is_dir = match shard.file_type() {
                Ok(kind) if kind.is_symlink() => {
                    std::fs::metadata(shard.path()).is_ok_and(|meta| meta.is_dir())
                }
                Ok(kind) => kind.is_dir(),
                Err(_) => false,
            };
            if !is_dir {
                continue;
            }
            for object in std::fs::read_dir(shard.path())? {
                let object = object?;
                let linked = match object.file_type() {
                    Ok(kind) if kind.is_file() => None,
                    Ok(kind) if kind.is_symlink() => match std::fs::metadata(object.path()) {
                        Ok(meta) if meta.is_file() => Some(meta),
                        // Dangling, or not a file once followed.
                        _ => continue,
                    },
                    _ => continue,
                };
                visit(&WalkedObject {
                    shard: &shard,
                    object,
                    linked,
                });
            }
        }
        Ok(())
    }

    /// Aggregate counters over the ledger, as of its current end, and
    /// the objects directory.
    ///
    /// Only the lines appended since [`ResultStore::open`] or the last
    /// call are read — by any writer, so another process's `put` lines
    /// enter this handle's index here exactly as they would at the
    /// next `open`. The lines already folded are trusted until the
    /// ledger shrinks or is replaced, or a bad line is appended, each
    /// of which folds it again from its start;
    /// [`ResultStore::verify`] is the full scan that sees damage done
    /// to them since. Replacement is recognised by the last folded
    /// line no longer sitting where it did, so a compacted ledger that
    /// happens to hold those same bytes there is taken for the old one
    /// until the next `open`.
    ///
    /// `object_bytes` costs one `stat` per object. A daemon's handle
    /// ([`ResultStore::with_verified_blobs`]), whose `stats` line names
    /// no byte count, counts objects from the directory listing alone
    /// and reports `object_bytes` as 0.
    pub fn stats(&self) -> io::Result<StoreStats> {
        let sized = self.state.lock().expect("store lock").verified.is_none();
        // Walked before the lock is taken again: lookups wait for the
        // catch-up only.
        let (mut objects, mut object_bytes) = (0, 0);
        self.walk_objects(|object| {
            if !sized {
                objects += 1;
            } else if let Some(len) = object.len() {
                // A file that cannot be stat'ed is not counted.
                objects += 1;
                object_bytes += len;
            }
        })?;
        let mut state = self.state.lock().expect("store lock");
        let truncated_ledger_tail = state.folded.catch_up(&self.root)?;
        let folded = &state.folded;
        Ok(StoreStats {
            objects,
            object_bytes,
            keys: folded.index.len() as u64,
            puts: folded.puts,
            hits: folded.hits,
            misses: folded.misses,
            bad_ledger_lines: folded.bad_lines,
            truncated_ledger_tail,
        })
    }

    /// Verifies the whole store from disk: every ledger line parses,
    /// every recorded blob exists and hashes to its recorded content
    /// digest, and every object file is referenced by the ledger.
    /// Detects truncation, bit flips, oversized objects and
    /// half-written ledger tails.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let scan = LedgerScan::parse(&read_ledger(&self.root)?);
        let mut report = VerifyReport::default();
        if scan.truncated_tail {
            report
                .issues
                .push("ledger: half-written final line (crashed writer); reopen to repair".into());
        }
        for line in &scan.bad_lines {
            report.issues.push(format!(
                "ledger: line {line} is unparseable, or a put naming an object not its key's"
            ));
        }
        let puts = scan.latest_puts();
        let mut bytes = Vec::new();
        for (key, entry) in &puts {
            let rel = object_rel_path(key);
            match read_capped(&self.root.join(&rel), MAX_BLOB_BYTES, &mut bytes) {
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    report.issues.push(format!("object {rel}: {e}"));
                }
                Err(_) => report.issues.push(format!("object {rel}: missing blob")),
                Ok(()) => {
                    report.objects_checked += 1;
                    let want = entry.content.as_deref().unwrap_or("");
                    let got = sha256_hex(&bytes);
                    if got != want {
                        report.issues.push(format!(
                            "object {rel}: content digest mismatch \
                             (ledger {want}, disk {got}) — truncated or bit-flipped blob"
                        ));
                    }
                }
            }
        }
        let referenced: std::collections::BTreeSet<String> =
            puts.keys().map(|k| object_rel_path(k)).collect();
        let mut orphans = Vec::new();
        self.walk_objects(|object| {
            let rel = object.rel_path();
            if !referenced.contains(&rel) {
                orphans.push(rel);
            }
        })?;
        orphans.sort();
        for rel in orphans {
            report
                .issues
                .push(format!("object {rel}: orphan (no ledger put entry)"));
        }
        Ok(report)
    }

    /// Garbage-collects the store: deletes objects that are corrupt
    /// (oversized ones included), orphaned, or (when `before` is given)
    /// whose key was last touched strictly before that timestamp, then
    /// compacts the ledger to one `put` line per surviving key
    /// (original put timestamps preserved; hit/miss history is dropped
    /// — that is the space the collection reclaims). The rewrite is
    /// atomic.
    pub fn gc(&self, before: Option<u64>) -> io::Result<GcReport> {
        let mut state = self.state.lock().expect("store lock");
        let scan = LedgerScan::parse(&read_ledger(&self.root)?);
        let puts = scan.latest_puts();
        let touch = scan.last_touch();
        let mut survivors: BTreeMap<String, LedgerEntry> = BTreeMap::new();
        let mut removed_objects = 0u64;
        let mut bytes = Vec::new();
        for (key, entry) in &puts {
            let full = self.root.join(object_rel_path(key));
            let expired = before.is_some_and(|b| touch.get(key).copied().unwrap_or(0) < b);
            let live = !expired
                && read_capped(&full, MAX_BLOB_BYTES, &mut bytes).is_ok()
                && entry.content.as_deref().and_then(from_hex) == Some(sha256(&bytes));
            if live {
                survivors.insert(key.clone(), entry.clone());
            } else if std::fs::remove_file(&full).is_ok() {
                removed_objects += 1;
            }
        }
        let kept_paths: std::collections::BTreeSet<String> =
            survivors.keys().map(|k| object_rel_path(k)).collect();
        let mut strays = Vec::new();
        self.walk_objects(|object| {
            if !kept_paths.contains(&object.rel_path()) {
                strays.push(object.object.path());
            }
        })?;
        for path in strays {
            if std::fs::remove_file(path).is_ok() {
                removed_objects += 1;
            }
        }
        // Compact: rewrite the ledger with one put line per survivor.
        let compacted: String = survivors
            .values()
            .map(|e| format!("{}\n", e.to_line()))
            .collect();
        let tmp = self.root.join(format!(
            ".ledger-tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &compacted)?;
        std::fs::rename(&tmp, self.root.join(LEDGER_FILE))?;
        let before_lines =
            scan.entries.len() + scan.bad_lines.len() + usize::from(scan.truncated_tail);
        state.folded = Folded::default();
        state.folded.fold(&compacted);
        Ok(GcReport {
            kept: survivors.len() as u64,
            removed_objects,
            removed_ledger_lines: before_lines.saturating_sub(survivors.len()) as u64,
        })
    }
}

/// The largest file a loader takes in: a spec document, a replay
/// trace, a trained model, a training checkpoint or a figure's cached
/// model. The largest the repository writes is a figure's cached Aurora
/// bank, 3.6 MB at the default scale and about 6 MB at paper scale; a
/// larger file than this cap is refused without a byte of it read.
pub const MAX_FILE_BYTES: u64 = 64 << 20;

/// `O_NONBLOCK` on the Linux targets where it is `0o4000` (`None`
/// elsewhere): opened with it, a FIFO without a writer opens at once
/// instead of waiting for one.
const O_NONBLOCK: Option<i32> = if cfg!(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
)) {
    Some(0o4000)
} else {
    None
};

/// Reads the file at `path` into `buf` with one open, one `fstat` of
/// the handle and one `read` of the length it reports: one walk of the
/// path. A short read ends the contents (a truncated object then fails
/// its digest). A file over `cap` bytes is an error of kind
/// `InvalidData` — the only one of that kind — naming its length and the
/// cap, and none of it is read. A file that is not a regular file reads
/// as the length it reports, so `/dev/zero` reads as empty. A FIFO or a
/// socket reads as empty and never blocks: the open is non-blocking, so
/// it does not wait for a FIFO's writer, and a socket, which cannot be
/// opened, is recognised by a `stat` of the path once its open has
/// failed. Where `O_NONBLOCK` is not known, the path is `stat`ed first
/// and a FIFO or socket is never opened. The store's `lookup`, `verify` and
/// `gc` read objects through here under [`MAX_BLOB_BYTES`], and every
/// loader under [`MAX_FILE_BYTES`].
pub fn read_capped(path: &Path, cap: u64, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    let Some((mut file, len)) = open_capped(path, cap)? else {
        return Ok(());
    };
    buf.resize(len as usize, 0);
    let n = file.read(buf)?;
    buf.truncate(n);
    Ok(())
}

/// The open file at `path` and its length; `None` for a FIFO or a
/// socket; the over-`cap` error of [`read_capped`].
fn open_capped(path: &Path, cap: u64) -> io::Result<Option<(std::fs::File, u64)>> {
    let Some(nonblocking) = O_NONBLOCK else {
        let meta = std::fs::metadata(path)?;
        check_cap(meta.len(), cap)?;
        let kind = meta.file_type();
        if kind.is_fifo() || kind.is_socket() {
            return Ok(None);
        }
        return Ok(Some((std::fs::File::open(path)?, meta.len())));
    };
    let file = match std::fs::OpenOptions::new()
        .read(true)
        .custom_flags(nonblocking)
        .open(path)
    {
        Ok(file) => file,
        Err(e) => {
            return match std::fs::metadata(path) {
                Ok(meta) if meta.file_type().is_socket() => {
                    check_cap(meta.len(), cap).map(|()| None)
                }
                _ => Err(e),
            }
        }
    };
    let meta = file.metadata()?;
    check_cap(meta.len(), cap)?;
    if meta.file_type().is_fifo() {
        return Ok(None);
    }
    Ok(Some((file, meta.len())))
}

/// The error of a file `len` bytes long when the cap is `cap`.
fn check_cap(len: u64, cap: u64) -> io::Result<()> {
    if len > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{len} bytes, over the {cap}-byte cap"),
        ));
    }
    Ok(())
}

/// The text of the file at `path`, read by [`read_capped`] under
/// [`MAX_FILE_BYTES`]; contents that are not UTF-8 are an error of kind
/// `InvalidData`, as they are to `std::fs::read_to_string`.
pub fn read_text(path: &Path) -> io::Result<String> {
    let mut bytes = Vec::new();
    read_capped(path, MAX_FILE_BYTES, &mut bytes)?;
    String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// An object file the objects walk found ([`ResultStore::walk_objects`]).
struct WalkedObject<'a> {
    shard: &'a DirEntry,
    object: DirEntry,
    /// A symlinked object's target, which the walk stat'ed to see that
    /// it is a file; `None` for a plain file.
    linked: Option<Metadata>,
}

impl WalkedObject<'_> {
    /// The object's length: a symlink's from the walk's `stat` of its
    /// target, a plain file's from one `stat` relative to its shard
    /// directory (`DirEntry::metadata`); `None` when that fails.
    fn len(&self) -> Option<u64> {
        match &self.linked {
            Some(meta) => Some(meta.len()),
            None => self.object.metadata().ok().map(|meta| meta.len()),
        }
    }

    /// The object's path relative to the store root, spelled as
    /// [`object_rel_path`] spells a key's.
    fn rel_path(&self) -> String {
        [
            OBJECTS_DIR,
            "/",
            &self.shard.file_name().to_string_lossy(),
            "/",
            &self.object.file_name().to_string_lossy(),
        ]
        .concat()
    }
}

/// The store's ledger at `root`, opened for reading once a `stat` has
/// shown it is a regular file (symlinks followed); `None` when there is
/// no ledger yet. Anything else is an error of kind `InvalidData`
/// naming it, and is not opened: a FIFO's open waits for a writer
/// forever, and a device such as `/dev/zero` reads without end.
fn open_ledger(root: &Path) -> io::Result<Option<std::fs::File>> {
    let path = root.join(LEDGER_FILE);
    match std::fs::metadata(&path) {
        Ok(meta) if meta.is_file() => std::fs::File::open(&path).map(Some),
        Ok(_) => Err(not_a_regular_ledger(&path)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The error naming a ledger at `path` that is not a regular file.
fn not_a_regular_ledger(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{}: the store's ledger is not a regular file",
            path.display()
        ),
    )
}

/// The whole ledger text of the store at `root`, empty when there is
/// no ledger yet. `verify` and `gc` read it from disk, not from the
/// in-memory fold, so damage inflicted after `open` is visible to them.
fn read_ledger(root: &Path) -> io::Result<String> {
    let mut text = String::new();
    if let Some(mut file) = open_ledger(root)? {
        file.read_to_string(&mut text)?;
    }
    Ok(text)
}

/// Ledger bytes as text; a ledger that is not UTF-8 is an error, as it
/// is to `read_to_string`.
fn utf8(bytes: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The pieces of a key's object path, in order: sharded by the first
/// two hex characters so no directory grows unboundedly.
fn object_path_parts(key: &str) -> [&str; 6] {
    let shard = key.get(..2).unwrap_or("xx");
    [OBJECTS_DIR, "/", shard, "/", key, ".json"]
}

/// The object path for a key, relative to the store root.
pub fn object_rel_path(key: &str) -> String {
    object_path_parts(key).concat()
}

/// Whether `path` is exactly [`object_rel_path`] of `key`, without
/// building it: every `put` line folded is checked.
pub(crate) fn is_object_rel_path(path: &str, key: &str) -> bool {
    object_path_parts(key)
        .iter()
        .try_fold(path, |rest, part| rest.strip_prefix(part))
        == Some("")
}

/// Keys must be 64-char lowercase hex (a SHA-256 digest): anything
/// else would be a caller bug and could escape the objects directory.
/// Returns the digest the key spells.
pub(crate) fn validate_key(key: &str) -> io::Result<Digest> {
    from_hex(key).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("store key {key:?} is not a 64-char lowercase hex digest"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("mocc-store-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(&dir).expect("open store")
    }

    fn key(tag: &str) -> String {
        sha256_hex(tag.as_bytes())
    }

    /// The check that serves a verified blob as its text.
    fn text(blob: &str) -> Option<String> {
        Some(blob.to_owned())
    }

    #[test]
    fn put_get_round_trip_with_ledger_audit() {
        let store = temp_store("roundtrip");
        let k = key("cell-1");
        assert!(store.get(&k, 10).is_none()); // miss logged
        store.put(&k, "{\"v\":1}", 11).unwrap();
        assert_eq!(store.get(&k, 12).as_deref(), Some("{\"v\":1}"));
        let stats = store.stats().unwrap();
        assert_eq!((stats.objects, stats.keys), (1, 1));
        assert_eq!((stats.puts, stats.hits, stats.misses), (1, 1, 1));
        assert!(!stats.truncated_ledger_tail);
        assert!(store.verify().unwrap().is_clean());
    }

    /// One run's lookups, as a cached run makes them: each serves the
    /// verified blob or `None`, with the index lock free between them
    /// (it is held only to copy a record and for the append), and the
    /// run's lines are appended afterwards as one batch of whole lines
    /// in key order.
    #[test]
    fn a_runs_lookups_are_appended_together_in_key_order() {
        let store = temp_store("each");
        let (good, absent, corrupt) = (key("good"), key("absent"), key("corrupt"));
        store.put(&good, "good blob", 1).unwrap();
        store.put(&corrupt, "doomed blob", 2).unwrap();
        std::fs::write(store.root().join(object_rel_path(&corrupt)), "doomed blXb").unwrap();
        let ledger = || std::fs::read_to_string(store.root().join(LEDGER_FILE)).unwrap();
        let before = ledger();
        let (mut bytes, mut lines) = (Vec::new(), String::new());
        let seen: Vec<Option<String>> = [&good, &absent, &corrupt, &good]
            .iter()
            .map(|k| {
                let blob = store.lookup(k, 9, &mut bytes, &mut lines, text);
                assert_eq!(store.len(), 2, "the index is not locked between lookups");
                assert_eq!(ledger(), before, "nothing is logged before the append");
                blob
            })
            .collect();
        store.append_lookups(&lines);
        let hit = Some("good blob".to_string());
        assert_eq!(seen, [hit.clone(), None, None, hit]);
        let appended: Vec<LedgerEntry> = LedgerScan::parse(&ledger()[before.len()..]).entries;
        let lookups: Vec<(&str, LedgerEvent, u64)> = appended
            .iter()
            .map(|e| (e.key.as_str(), e.event, e.ts))
            .collect();
        assert_eq!(
            lookups,
            [
                (good.as_str(), LedgerEvent::Hit, 9),
                (absent.as_str(), LedgerEvent::Miss, 9),
                (corrupt.as_str(), LedgerEvent::Miss, 9),
                (good.as_str(), LedgerEvent::Hit, 9),
            ]
        );
        // No lines, no append.
        let after = ledger();
        store.append_lookups("");
        assert_eq!(ledger(), after);
        assert_eq!(store.stats().unwrap().hits, 2);
    }

    /// The primitive under `get` and a cached run: a lookup leaves the
    /// ledger alone and writes its line where the caller says, so
    /// lookups made in any order — by any thread — are logged in the
    /// order the caller joins their lines. A recorded digest that is
    /// no SHA-256 (a hand-edited ledger) serves nothing.
    #[test]
    fn lookup_touches_no_ledger_and_the_caller_orders_the_lines() {
        let store = temp_store("lookup");
        let (first, second, odd) = (key("first"), key("second"), key("odd"));
        store.put(&first, "first blob", 1).unwrap();
        store.put(&second, "second blob", 2).unwrap();
        let root = store.root().to_path_buf();
        drop(store);
        let mut ledger = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join(LEDGER_FILE))
            .unwrap();
        // A blob on disk whose recorded digest is not 64 characters.
        let odd_path = root.join(object_rel_path(&odd));
        std::fs::create_dir_all(odd_path.parent().unwrap()).unwrap();
        std::fs::write(odd_path, "").unwrap();
        let entry = LedgerEntry {
            key: odd.clone(),
            event: LedgerEvent::Put,
            content: Some(String::new()),
            path: None,
            ts: 3,
        };
        ledger
            .write_all((entry.to_line() + "\n").as_bytes())
            .unwrap();
        drop(ledger);
        let store = ResultStore::open(&root).unwrap();
        assert_eq!(store.len(), 3);
        let before = std::fs::read_to_string(root.join(LEDGER_FILE)).unwrap();

        let (mut bytes, mut late, mut early) = (Vec::new(), String::new(), String::new());
        assert_eq!(
            store
                .lookup(&second, 9, &mut bytes, &mut late, text)
                .as_deref(),
            Some("second blob")
        );
        assert_eq!(store.lookup(&odd, 9, &mut bytes, &mut late, text), None);
        assert_eq!(
            store
                .lookup(&first, 9, &mut bytes, &mut early, text)
                .as_deref(),
            Some("first blob")
        );
        let ledger = || std::fs::read_to_string(root.join(LEDGER_FILE)).unwrap();
        assert_eq!(ledger(), before, "a lookup appends nothing");
        store.append_lookups(&[early, late].concat());
        let appended: Vec<(String, LedgerEvent)> = LedgerScan::parse(&ledger()[before.len()..])
            .entries
            .into_iter()
            .map(|e| (e.key, e.event))
            .collect();
        assert_eq!(
            appended,
            [
                (first, LedgerEvent::Hit),
                (second, LedgerEvent::Hit),
                (odd, LedgerEvent::Miss),
            ]
        );
    }

    /// A writer killed mid-append in another process leaves a half
    /// line that a handle opened earlier never got to repair: that
    /// handle's next append ends the half line first, so its own first
    /// line — a `put`'s or a lookup's — is a line of its own.
    #[test]
    fn appending_onto_a_foreign_torn_tail_keeps_the_first_line() {
        let store = temp_store("foreign-tail");
        let (a, b) = (key("a"), key("b"));
        store.put(&a, "blob a", 1).unwrap();
        let tear = || {
            // What a second handle's killed `put` leaves behind.
            std::fs::OpenOptions::new()
                .append(true)
                .open(store.root().join(LEDGER_FILE))
                .and_then(|mut f| f.write_all(b"{\"content\":\"dead"))
                .unwrap();
        };
        tear();
        store.put(&b, "blob b", 2).unwrap();
        tear();
        assert_eq!(store.get(&b, 3).as_deref(), Some("blob b"));
        let text = std::fs::read_to_string(store.root().join(LEDGER_FILE)).unwrap();
        let scan = LedgerScan::parse(&text);
        let lines: Vec<(&str, LedgerEvent)> = scan
            .entries
            .iter()
            .map(|e| (e.key.as_str(), e.event))
            .collect();
        assert_eq!(
            lines,
            [
                (a.as_str(), LedgerEvent::Put),
                (b.as_str(), LedgerEvent::Put),
                (b.as_str(), LedgerEvent::Hit),
            ]
        );
        assert_eq!(
            scan.bad_lines,
            [2, 4],
            "each half line is a line of its own"
        );
        assert!(!scan.truncated_tail);
        let stats = store.stats().unwrap();
        assert_eq!((stats.keys, stats.puts, stats.hits), (2, 2, 1));
        // A whole ledger gets no extra byte.
        let whole = std::fs::read(store.root().join(LEDGER_FILE)).unwrap();
        store.get(&a, 4);
        let grown = std::fs::read(store.root().join(LEDGER_FILE)).unwrap();
        assert!(grown.starts_with(&whole) && grown[whole.len()] == b'{');
        let reopened = ResultStore::open(store.root()).unwrap();
        assert_eq!(reopened.len(), 2, "b's put line survived the tail");
    }

    #[test]
    fn reopen_rebuilds_the_index_from_the_ledger() {
        let store = temp_store("reopen");
        let k = key("cell-2");
        store.put(&k, "blob-bytes", 1).unwrap();
        let root = store.root().to_path_buf();
        drop(store);
        let store = ResultStore::open(&root).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&k, 2).as_deref(), Some("blob-bytes"));
    }

    #[test]
    fn corrupted_blob_degrades_to_miss_and_verify_reports_it() {
        let store = temp_store("corrupt");
        let k = key("cell-3");
        store.put(&k, "pristine contents", 1).unwrap();
        let path = store.root().join(object_rel_path(&k));
        // Bit flip.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            store.get(&k, 2).is_none(),
            "bit-flipped blob must not serve"
        );
        let report = store.verify().unwrap();
        assert!(!report.is_clean());
        assert!(report.issues[0].contains("digest mismatch"), "{report:?}");
        // Truncation.
        store.put(&k, "pristine contents", 3).unwrap();
        std::fs::write(&path, &b"pristine"[..]).unwrap();
        assert!(store.get(&k, 4).is_none(), "truncated blob must not serve");
        // Deletion.
        store.put(&k, "pristine contents", 5).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(store.get(&k, 6).is_none());
        let report = store.verify().unwrap();
        assert!(report.issues.iter().any(|i| i.contains("missing blob")));
    }

    #[test]
    fn reopen_repairs_a_half_written_ledger_tail() {
        let store = temp_store("tail");
        let k = key("cell-4");
        store.put(&k, "blob", 1).unwrap();
        let root = store.root().to_path_buf();
        drop(store);
        let intact = std::fs::read(root.join(LEDGER_FILE)).unwrap();
        // Simulate a crash mid-append: a partial line, no newline.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join(LEDGER_FILE))
            .unwrap();
        f.write_all(b"{\"event\":\"put\",\"key\":\"dead").unwrap();
        drop(f);
        let store = ResultStore::open(&root).unwrap();
        assert!(store.repaired_tail());
        assert_eq!(store.len(), 1, "intact entries survive the repair");
        assert_eq!(
            std::fs::read(root.join(LEDGER_FILE)).unwrap(),
            intact,
            "the repair cuts the tail off and leaves every byte before it"
        );
        assert_eq!(store.get(&k, 2).as_deref(), Some("blob"));
        assert!(
            store.verify().unwrap().is_clean(),
            "repair leaves a clean store"
        );
    }

    /// A ledger is outside input (a copied or corrupted cache
    /// directory): a `put` line whose key is not a store key, or whose
    /// `path` is not that key's object path, is a bad line — never
    /// indexed, never joined to the root — so neither `get` nor `gc`
    /// can be pointed at a file that is not the store's.
    #[test]
    fn put_lines_naming_a_foreign_path_are_bad_lines() {
        let store = temp_store("hostile");
        let root = store.root().to_path_buf();
        let good = key("good");
        store.put(&good, "good blob", 100).unwrap();
        drop(store);
        let outside = |tag: &str| format!("mocc-store-victim-{tag}-{}", std::process::id());
        let tmp = root.parent().unwrap();
        let wrong_shard = format!("{OBJECTS_DIR}/zz/{}.json", key("shard"));
        let hostile = [
            // (key, path as the ledger names it, the file that names)
            (
                key("abs"),
                Some(tmp.join(outside("abs")).display().to_string()),
                tmp.join(outside("abs")),
            ),
            (
                key("dots"),
                Some(format!("../{}", outside("dots"))),
                tmp.join(outside("dots")),
            ),
            (
                key("inside"),
                Some("notes.txt".to_string()),
                root.join("notes.txt"),
            ),
            (
                key("shard"),
                Some(wrong_shard.clone()),
                root.join(&wrong_shard),
            ),
            // No path at all, but a key whose object path climbs out.
            (
                format!("../{}", outside("key")),
                None,
                tmp.join(outside("key") + ".json"),
            ),
        ];
        let mut lines = String::new();
        for (key, path, victim) in &hostile {
            std::fs::create_dir_all(victim.parent().unwrap()).unwrap();
            std::fs::write(victim, "thesis").unwrap();
            let entry = LedgerEntry {
                key: key.clone(),
                event: LedgerEvent::Put,
                // The victim's true digest: nothing but the path rule
                // stands between this line and a served blob.
                content: Some(sha256_hex(b"thesis")),
                path: path.clone(),
                ts: 1,
            };
            lines += &(entry.to_line() + "\n");
        }
        let mut ledger = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join(LEDGER_FILE))
            .unwrap();
        ledger.write_all(lines.as_bytes()).unwrap();
        drop(ledger);

        let store = ResultStore::open(&root).unwrap();
        assert_eq!(store.len(), 1, "no hostile line is indexed");
        for (key, _, _) in &hostile {
            assert!(store.get(key, 2).is_none(), "{key} must miss");
        }
        assert_eq!(store.stats().unwrap().bad_ledger_lines, 5);
        let issues = store.verify().unwrap().issues;
        for line in 2..=6 {
            let named = format!("ledger: line {line} is");
            assert!(issues.iter().any(|i| i.starts_with(&named)), "{issues:?}");
        }
        // Every hostile line is older than the cutoff: an indexed one
        // would be expired and its file removed.
        let report = store.gc(Some(50)).unwrap();
        assert_eq!(report.kept, 1);
        for (key, _, victim) in &hostile {
            let orphan = victim.starts_with(root.join(OBJECTS_DIR));
            assert_eq!(victim.exists(), !orphan, "{key}: {victim:?}");
            let _ = std::fs::remove_file(victim);
        }
        assert_eq!(store.get(&good, 101).as_deref(), Some("good blob"));
        assert!(store.verify().unwrap().is_clean());
    }

    #[test]
    fn gc_drops_expired_corrupt_and_orphaned_objects() {
        let store = temp_store("gc");
        let (old, fresh, corrupt) = (key("old"), key("fresh"), key("corrupt"));
        store.put(&old, "old blob", 10).unwrap();
        store.put(&fresh, "fresh blob", 20).unwrap();
        store.put(&corrupt, "doomed blob", 30).unwrap();
        std::fs::write(
            store.root().join(object_rel_path(&corrupt)),
            "doomed blob XX",
        )
        .unwrap();
        // An orphan object nothing references.
        let orphan = key("orphan");
        let orphan_path = store.root().join(object_rel_path(&orphan));
        std::fs::create_dir_all(orphan_path.parent().unwrap()).unwrap();
        std::fs::write(&orphan_path, "stray").unwrap();

        let report = store.gc(Some(15)).unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed_objects, 3, "{report:?}");
        assert!(store.get(&fresh, 40).is_some());
        assert!(store.get(&old, 41).is_none());
        assert!(store.get(&corrupt, 42).is_none());
        assert!(!orphan_path.exists());
        // Post-gc the store is clean and fully compacted.
        let reopened = ResultStore::open(store.root()).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.verify().unwrap().is_clean());
    }

    /// The ledger contract the CLI's `--older-than-days` cutoff is
    /// computed against: an entry last touched *exactly at* `before`
    /// survives; only strictly-older entries are dropped. A hit after
    /// the put refreshes the last-touch time, so recently-read keys
    /// survive even when their put is ancient.
    #[test]
    fn gc_cutoff_boundary_keeps_entries_touched_at_the_cutoff() {
        let store = temp_store("gc-boundary");
        let (at, older, refreshed) = (key("at"), key("older"), key("refreshed"));
        store.put(&older, "older blob", 99).unwrap();
        store.put(&at, "at blob", 100).unwrap();
        store.put(&refreshed, "refreshed blob", 50).unwrap();
        assert!(store.get(&refreshed, 120).is_some(), "hit refreshes touch");

        let report = store.gc(Some(100)).unwrap();
        assert_eq!(report.kept, 2, "{report:?}");
        assert!(
            store.get(&at, 130).is_some(),
            "ts == cutoff must survive (strictly-older contract)"
        );
        assert!(
            store.get(&refreshed, 131).is_some(),
            "a hit at ts 120 outlives the put at ts 50"
        );
        assert!(store.get(&older, 132).is_none(), "ts 99 < 100 is dropped");
    }

    #[test]
    fn the_path_check_accepts_exactly_the_path_built() {
        let k = key("cell");
        let own = object_rel_path(&k);
        assert_eq!(own, format!("objects/{}/{k}.json", &k[..2]));
        assert!(is_object_rel_path(&own, &k));
        let longer = format!("{own}x");
        for other in [
            "",
            "objects",
            &own[1..],
            &longer,
            &object_rel_path(&key("other")),
        ] {
            assert!(!is_object_rel_path(other, &k), "{other:?}");
        }
    }

    #[test]
    fn malformed_keys_are_rejected() {
        let store = temp_store("badkey");
        for bad in ["", "abc", &key("x").to_uppercase(), "../../etc/passwd"] {
            assert!(store.put(bad, "blob", 1).is_err(), "{bad:?}");
        }
    }

    /// A daemon's handle serves only values made of bytes that hash to
    /// the digest its index records. Another handle's `put` of a
    /// different blob for a key enters that index when the daemon
    /// catches up (`stats`); from then on the daemon serves the new
    /// blob — read, verified and checked once, then kept — and never
    /// the old one. A lookup asking for another type than the one kept
    /// reads the file again, and a check that fails keeps nothing.
    #[test]
    fn a_daemon_serves_the_digest_its_index_records() {
        let daemon = temp_store("daemon-foreign").with_verified_blobs();
        let k = key("cell");
        daemon.put(&k, "old blob", 1).unwrap();
        assert_eq!(daemon.get(&k, 2).as_deref(), Some("old blob"));
        assert_eq!(daemon.blob_reads(), 0, "a blob the daemon wrote is kept");
        let other = ResultStore::open(daemon.root()).unwrap();
        other.put(&k, "new blob", 3).unwrap();
        assert_eq!(
            daemon.get(&k, 4).as_deref(),
            Some("old blob"),
            "not caught up: the index still records the old digest"
        );
        assert_eq!(daemon.stats().unwrap().puts, 2);
        for ts in 5..9 {
            assert_eq!(daemon.get(&k, ts).as_deref(), Some("new blob"));
        }
        assert_eq!((daemon.blob_reads(), daemon.blob_checks()), (1, 1));
        let (mut bytes, mut lines) = (Vec::new(), String::new());
        for _ in 0..2 {
            let len = daemon.lookup(&k, 9, &mut bytes, &mut lines, |blob| Some(blob.len()));
            assert_eq!(len, Some(8));
        }
        for _ in 0..2 {
            assert_eq!(
                daemon.lookup(&k, 9, &mut bytes, &mut lines, |_| None::<u32>),
                None
            );
        }
        assert_eq!((daemon.blob_reads(), daemon.blob_checks()), (4, 4));
        let events: Vec<LedgerEvent> = LedgerScan::parse(&lines)
            .entries
            .iter()
            .map(|e| e.event)
            .collect();
        assert_eq!(
            events,
            [LedgerEvent::Hit; 4],
            "a failed check is a hit line"
        );
        // A plain handle reads and checks on every lookup.
        for ts in 9..12 {
            assert_eq!(other.get(&k, ts).as_deref(), Some("new blob"));
        }
        assert_eq!((other.blob_reads(), other.blob_checks()), (3, 3));
    }

    /// However many values are kept, their cost — each one's blob
    /// length plus the entry — stays within the budget, the value just
    /// kept is among them, a value kept again for its digest replaces
    /// the one kept before, and a value whose blob alone exceeds the
    /// budget is not kept and drops nothing.
    #[test]
    fn verified_blobs_stay_within_their_budget() {
        let budget = 5 * (VERIFIED_ENTRY_BYTES + 100);
        let mut kept = VerifiedBlobs::new(budget);
        let charged = |kept: &VerifiedBlobs| -> Vec<(Digest, usize)> {
            kept.values.iter().map(|(d, v)| (*d, v.cost)).collect()
        };
        for i in 0..200usize {
            let blob = format!("{i:0>width$}", width = 1 + i % 160);
            let digest = sha256(blob.as_bytes());
            kept.insert(digest, blob.len(), Arc::new(blob.clone()));
            if i % 3 == 0 {
                kept.insert(digest, blob.len(), Arc::new(i));
            }
            let cost: usize = charged(&kept).iter().map(|(_, cost)| cost).sum();
            assert_eq!(kept.bytes, cost, "insert {i}");
            assert!(kept.bytes <= budget, "insert {i}: {} bytes", kept.bytes);
            assert!(charged(&kept).contains(&(digest, blob.len() + VERIFIED_ENTRY_BYTES)));
            let value = kept.values[&digest].value.as_ref();
            if i % 3 == 0 {
                assert_eq!(value.downcast_ref::<usize>(), Some(&i));
                assert!(kept.get::<String>(&digest).is_none());
            } else {
                assert_eq!(value.downcast_ref::<String>(), Some(&blob));
            }
        }
        let before = charged(&kept);
        let huge = "x".repeat(budget);
        kept.insert(sha256(huge.as_bytes()), huge.len(), Arc::new(huge));
        assert_eq!(charged(&kept), before);
    }

    /// An object file far over the cap — sparse, so it costs no disk —
    /// is never read: a lookup misses it at once, `verify` names it,
    /// and `gc` removes it as corrupt. `put` refuses such a blob.
    #[test]
    fn an_oversized_object_is_never_read() {
        let store = temp_store("oversized");
        let (big, small) = (key("big"), key("small"));
        store.put(&big, "a blob", 1).unwrap();
        store.put(&small, "small blob", 2).unwrap();
        let path = store.root().join(object_rel_path(&big));
        std::fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|file| file.set_len(3 << 30))
            .unwrap();
        assert_eq!(store.get(&big, 3), None);
        assert_eq!(store.blob_reads(), 1, "opened, never read");
        let issues = store.verify().unwrap().issues;
        assert_eq!(
            issues,
            [format!(
                "object {}: 3221225472 bytes, over the 1048576-byte cap",
                object_rel_path(&big)
            )]
        );
        let report = store.gc(None).unwrap();
        assert_eq!((report.kept, report.removed_objects), (1, 1));
        assert!(!path.exists());
        let over = "x".repeat(MAX_BLOB_BYTES as usize + 1);
        let refused = store.put(&big, &over, 4).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
        let at_cap = "x".repeat(MAX_BLOB_BYTES as usize);
        store.put(&big, &at_cap, 5).unwrap();
        assert_eq!(
            store.get(&big, 6).map(|blob| blob.len()),
            Some(at_cap.len())
        );
        assert!(store.verify().unwrap().is_clean());
    }

    /// The objects walk as it was: a full-path `metadata` per entry
    /// (symlinks followed), a relative path string per object, sorted.
    /// The reference `stats`, `verify` and `gc` are held to.
    fn walk_by_path(root: &Path) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for shard in std::fs::read_dir(root.join(OBJECTS_DIR)).unwrap() {
            let shard = shard.unwrap().path();
            if !shard.is_dir() {
                continue;
            }
            for obj in std::fs::read_dir(&shard).unwrap() {
                let path = obj.unwrap().path();
                let Ok(meta) = std::fs::metadata(&path) else {
                    continue;
                };
                if meta.is_file() {
                    let rel = path.strip_prefix(root).unwrap().to_string_lossy();
                    out.push((rel.replace('\\', "/"), meta.len()));
                }
            }
        }
        out.sort();
        out
    }

    /// `read_capped` on each kind of path: a file reads whole, over the
    /// cap it is the one `InvalidData` error, a missing path is
    /// `NotFound`, and `/dev/zero`, a FIFO without a writer and a
    /// socket each read as empty at once. The reads run on a thread
    /// with a deadline, so a reader that blocks fails instead of
    /// hanging the suite.
    #[test]
    fn read_capped_reads_files_and_never_blocks_on_a_fifo_or_socket() {
        let dir = std::env::temp_dir().join(format!("mocc-read-capped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("file.json"), "twelve bytes").unwrap();
        let fifo = dir.join("fifo.json");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.is_ok_and(|s| s.success()), "mkfifo");
        let _socket = std::os::unix::net::UnixListener::bind(dir.join("socket.json")).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader_dir = dir.clone();
        std::thread::spawn(move || {
            let read = |name: &str, cap: u64| {
                let mut buf = b"stale".to_vec();
                read_capped(&reader_dir.join(name), cap, &mut buf).map(|()| buf)
            };
            let kind = |r: io::Result<Vec<u8>>| r.unwrap_err().kind();
            tx.send((
                read("file.json", 12).unwrap(),
                kind(read("file.json", 11)),
                kind(read("missing.json", 12)),
                read("/dev/zero", 12).unwrap(), // An absolute path joins as itself.
                read("fifo.json", 12).unwrap(),
                read("socket.json", 12).unwrap(),
            ))
            .unwrap();
        });
        let (file, over, missing, zero, fifo, socket) = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("every read returns at once");
        assert_eq!(file, b"twelve bytes");
        assert_eq!(over, io::ErrorKind::InvalidData);
        assert_eq!(missing, io::ErrorKind::NotFound);
        assert!(zero.is_empty() && fifo.is_empty() && socket.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `stats` counts what the walk by path counted — with lengths, and
    /// from the listing alone on a daemon's handle — and `verify` names
    /// the same orphans in the same order, over every kind of entry an
    /// objects directory can hold: blobs, a symlinked shard, a
    /// symlinked object, a dangling symlink, a socket, a stray file and
    /// a stray directory under `objects/`, and a directory in a shard.
    #[test]
    fn the_objects_walk_counts_what_a_walk_by_path_counts() {
        let store = temp_store("walk");
        let root = store.root().to_path_buf();
        for i in 0..6 {
            store
                .put(&key(&format!("cell-{i}")), &"b".repeat(10 + i), 1)
                .unwrap();
        }
        let outside = root.join("elsewhere");
        std::fs::create_dir_all(outside.join("shard")).unwrap();
        std::fs::write(outside.join("shard").join("linked.json"), "twelve bytes").unwrap();
        std::fs::write(outside.join("target.json"), "seventeen bytes!!").unwrap();
        let objects = root.join(OBJECTS_DIR);
        std::os::unix::fs::symlink(outside.join("shard"), objects.join("zz")).unwrap();
        let shard = objects.join(&key("cell-0")[..2]);
        std::os::unix::fs::symlink(outside.join("target.json"), shard.join("link.json")).unwrap();
        std::os::unix::fs::symlink(outside.join("nothing"), shard.join("dangling.json")).unwrap();
        std::fs::create_dir(shard.join("subdir")).unwrap();
        let _socket = std::os::unix::net::UnixListener::bind(shard.join("socket.json")).unwrap();
        std::fs::write(objects.join("stray-file"), "stray").unwrap();
        std::fs::create_dir(objects.join("stray-dir")).unwrap();
        std::fs::write(objects.join("stray-dir").join("deep.json"), "deep").unwrap();

        let reference = walk_by_path(&root);
        assert_eq!(
            reference.len(),
            6 + 2 + 1,
            "blobs, two links, stray-dir's file"
        );
        let stats = store.stats().unwrap();
        assert_eq!(stats.objects, reference.len() as u64);
        assert_eq!(
            stats.object_bytes,
            reference.iter().map(|(_, n)| n).sum::<u64>()
        );
        let daemon = ResultStore::open(&root).unwrap().with_verified_blobs();
        let counted = daemon.stats().unwrap();
        assert_eq!(
            counted,
            StoreStats {
                object_bytes: 0,
                ..stats.clone()
            }
        );
        let owned: Vec<String> = (0..6)
            .map(|i| object_rel_path(&key(&format!("cell-{i}"))))
            .collect();
        let orphans: Vec<String> = reference
            .iter()
            .filter(|(rel, _)| !owned.contains(rel))
            .map(|(rel, _)| format!("object {rel}: orphan (no ledger put entry)"))
            .collect();
        assert_eq!(store.verify().unwrap().issues, orphans);
        assert_eq!(daemon.verify().unwrap().issues, orphans);
        let report = store.gc(None).unwrap();
        assert_eq!((report.kept, report.removed_objects), (6, 3));
        assert_eq!(walk_by_path(&root).len(), 6);
        assert_eq!(daemon.stats().unwrap().objects, 6);
        assert!(
            outside.join("target.json").exists(),
            "a link is removed, not its target"
        );
    }

    /// A ledger that is not a regular file once symlinks are followed
    /// is an `InvalidData` error naming it — at `open`, and at `stats`,
    /// `verify`, `gc` and the next append of a handle opened before it
    /// was swapped in — and is never read or written. (A FIFO or an
    /// endless device would hang or exhaust a test, so the CLI's tests
    /// take those in a subprocess; a socket and a directory stand in
    /// here.)
    #[test]
    fn a_ledger_that_is_not_a_regular_file_is_an_error() {
        let store = temp_store("ledger-kind");
        let k = key("cell");
        store.put(&k, "blob", 1).unwrap();
        let ledger = store.root().join(LEDGER_FILE);
        let refused = |result: io::Result<()>| {
            let err = result.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert_eq!(
                err.to_string(),
                format!(
                    "{}: the store's ledger is not a regular file",
                    ledger.display()
                )
            );
        };
        for swap in ["socket", "directory"] {
            std::fs::remove_file(&ledger)
                .or_else(|_| std::fs::remove_dir(&ledger))
                .unwrap();
            let _socket = if swap == "socket" {
                Some(std::os::unix::net::UnixListener::bind(&ledger).unwrap())
            } else {
                std::fs::create_dir(&ledger).unwrap();
                None
            };
            refused(ResultStore::open(store.root()).map(drop));
            refused(store.stats().map(drop));
            refused(store.verify().map(drop));
            refused(store.gc(None).map(drop));
            refused(store.put(&k, "blob", 2));
            assert_eq!(store.get(&k, 3).as_deref(), Some("blob"), "{swap}");
        }
        std::fs::remove_dir(&ledger).unwrap();
        let reopened = ResultStore::open(store.root()).unwrap();
        assert!(reopened.is_empty(), "no ledger is an empty one");
    }

    #[test]
    fn concurrent_writers_share_one_store_without_ledger_corruption() {
        let store = temp_store("concurrent");
        let keys: Vec<String> = (0..32).map(|i| key(&format!("cell-{i}"))).collect();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let store = &store;
                let keys = &keys;
                scope.spawn(move || {
                    for (i, k) in keys.iter().enumerate() {
                        if store.get(k, worker).is_none() {
                            store.put(k, &format!("{{\"cell\":{i}}}"), worker).unwrap();
                        }
                    }
                });
            }
        });
        let stats = store.stats().unwrap();
        assert_eq!(stats.objects, 32);
        assert_eq!(stats.bad_ledger_lines, 0, "no interleaved ledger lines");
        assert!(!stats.truncated_ledger_tail);
        assert!(store.verify().unwrap().is_clean());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                store.get(k, 99).as_deref(),
                Some(format!("{{\"cell\":{i}}}").as_str())
            );
        }
    }
}
