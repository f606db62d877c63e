//! The append-only audit ledger: one canonical-JSON line per store
//! event.
//!
//! Every interaction with the store — a blob written (`put`), a lookup
//! served (`hit`), a lookup that missed or failed verification
//! (`miss`) — appends one line to `ledger.jsonl`. Timestamps are
//! **caller-supplied** (the store never reads a clock), so library
//! code stays deterministic and tests can pin exact ledger bytes.
//!
//! The reader is crash-tolerant by construction: a process killed
//! mid-append leaves a final line without a trailing newline, which
//! the scanner reports as a truncated tail instead of corrupting the
//! parse of earlier lines; a bit-flipped line fails to parse and is
//! skipped (and reported) rather than poisoning the whole file. The
//! `put` entries carry the blob's SHA-256 content digest — the fact
//! that lets [`crate::ResultStore`] verify objects it did not write
//! itself.

use crate::store::{is_object_rel_path, validate_key};
use serde::json::{self, ObjectWriter, Parser};
use serde::{Deserialize, Error as SerdeError, Serialize};
use std::collections::BTreeMap;

/// What happened to a key. Its ledger label is the variant's name in
/// lowercase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum LedgerEvent {
    /// A blob was written for the key (entry carries its content
    /// digest and object path).
    Put,
    /// A lookup was served from the store.
    Hit,
    /// A lookup missed — the key was absent, or its blob failed
    /// content verification and was refused.
    Miss,
}

impl LedgerEvent {
    /// Canonical ledger label.
    pub fn label(&self) -> &'static str {
        match self {
            LedgerEvent::Put => "put",
            LedgerEvent::Hit => "hit",
            LedgerEvent::Miss => "miss",
        }
    }
}

/// One ledger line: `(key, event, timestamp)` plus, for `put` entries,
/// the blob's content digest and its object path relative to the store
/// root.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// The cache key (64-char hex SHA-256 of the canonical request).
    pub key: String,
    /// What happened.
    pub event: LedgerEvent,
    /// SHA-256 hex digest of the blob bytes (`put` only).
    pub content: Option<String>,
    /// Object path relative to the store root (`put` only).
    pub path: Option<String>,
    /// Caller-supplied timestamp (conventionally unix seconds; the
    /// store only compares these values, never interprets them).
    pub ts: u64,
}

// Hand-written: the decoder refuses a present `null`, and `write_entry` is the lookup hot path.
impl Serialize for LedgerEntry {
    fn write_json(&self, out: &mut String) {
        write_entry(
            out,
            &self.key,
            self.event,
            self.content.as_deref(),
            self.path.as_deref(),
            self.ts,
        );
    }
}

/// Streams one entry from borrowed fields (the store appends lookup
/// lines without building a [`LedgerEntry`]): its keys in byte order,
/// `content` and `path` only when present.
pub(crate) fn write_entry(
    out: &mut String,
    key: &str,
    event: LedgerEvent,
    content: Option<&str>,
    path: Option<&str>,
    ts: u64,
) {
    let mut w = ObjectWriter::begin(out);
    if let Some(content) = content {
        w.field("content", content);
    }
    w.field("event", event.label());
    w.field("key", key);
    if let Some(path) = path {
        w.field("path", path);
    }
    w.field("ts", &ts);
    w.end();
}

// Hand-written: a present `null` `content` or `path` is refused, unlike an `Option` field.
impl<'de> Deserialize<'de> for LedgerEntry {
    /// `content` and `path` may be absent but, when present, must be
    /// strings (not `null`).
    fn from_json(p: &mut Parser<'_>) -> Result<Self, SerdeError> {
        if p.peek_token() != Some(b'{') {
            return json::mismatch(p, |v| format!("expected ledger entry object, got {v}"));
        }
        let (mut key, mut event, mut ts) = (None, None, None);
        let (mut content, mut path) = (None::<Result<String, _>>, None::<Result<String, _>>);
        p.object(|name, p| match &*name {
            "content" => p.field(&mut content),
            "event" => p.field(&mut event),
            "key" => p.field(&mut key),
            "path" => p.field(&mut path),
            "ts" => p.field(&mut ts),
            _ => p.skip_value(),
        })?;
        Ok(LedgerEntry {
            key: json::take_field(key, "key", "LedgerEntry")?,
            event: json::take_field(event, "event", "LedgerEntry")?,
            content: content.transpose()?,
            path: path.transpose()?,
            ts: json::take_field(ts, "ts", "LedgerEntry")?,
        })
    }
}

impl LedgerEntry {
    /// The entry as one canonical-JSON ledger line (no trailing
    /// newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("ledger serialization is infallible")
    }

    /// False for a `put` line no reader may act on: its key is not a
    /// store key, or it names an object path other than its key's own.
    /// A ledger is outside input — a copied or corrupted cache
    /// directory — and a believed `path` is a file `gc` may delete.
    fn names_its_own_object(&self) -> bool {
        self.event != LedgerEvent::Put
            || (validate_key(&self.key).is_ok()
                && self
                    .path
                    .as_ref()
                    .map_or(true, |path| is_object_rel_path(path, &self.key)))
    }
}

/// The result of scanning a ledger file: every parseable entry in file
/// order, plus what could not be parsed.
#[derive(Debug, Default)]
pub struct LedgerScan {
    /// Entries in append order.
    pub entries: Vec<LedgerEntry>,
    /// 1-based line numbers that were present but unparseable (bit
    /// flips, manual edits), or a `put` whose key is not a store key or
    /// whose `path` is not that key's object path.
    pub bad_lines: Vec<usize>,
    /// True when the file ends without a newline — the signature of a
    /// process killed mid-append. The partial tail is *not* included
    /// in `entries` or `bad_lines`.
    pub truncated_tail: bool,
}

impl LedgerScan {
    /// Parses ledger text. Never fails: damage is reported, not fatal
    /// — recovery means recomputing, never serving bad bytes.
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        let mut scan = LedgerScan::visit(text, |entry| entries.push(entry));
        scan.entries = entries;
        scan
    }

    /// [`LedgerScan::parse`] for a reader that folds the entries as
    /// they come (in append order) instead of keeping them: `entries`
    /// stays empty in the scan returned.
    pub fn visit(text: &str, mut visit: impl FnMut(LedgerEntry)) -> Self {
        let mut scan = LedgerScan::default();
        let complete = match text.rfind('\n') {
            Some(last_nl) => {
                scan.truncated_tail = last_nl + 1 < text.len();
                &text[..last_nl]
            }
            None => {
                scan.truncated_tail = !text.is_empty();
                ""
            }
        };
        for (i, line) in complete.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            match serde_json::from_str::<LedgerEntry>(line) {
                Ok(entry) if entry.names_its_own_object() => visit(entry),
                _ => scan.bad_lines.push(i + 1),
            }
        }
        scan
    }

    /// The latest `put` entry per key, in key order.
    pub fn latest_puts(&self) -> BTreeMap<String, LedgerEntry> {
        let mut map = BTreeMap::new();
        for e in &self.entries {
            if e.event == LedgerEvent::Put {
                map.insert(e.key.clone(), e.clone());
            }
        }
        map
    }

    /// The latest timestamp any event touched each key with.
    pub fn last_touch(&self) -> BTreeMap<String, u64> {
        let mut map: BTreeMap<String, u64> = BTreeMap::new();
        for e in &self.entries {
            let slot = map.entry(e.key.clone()).or_insert(e.ts);
            *slot = (*slot).max(e.ts);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::object_rel_path;

    /// A store key starting with `tag` (hex), zero-padded.
    fn key(tag: &str) -> String {
        format!("{tag:0<64}")
    }

    fn put(tag: &str, ts: u64) -> LedgerEntry {
        LedgerEntry {
            key: key(tag),
            event: LedgerEvent::Put,
            content: Some("c".repeat(64)),
            path: Some(object_rel_path(&key(tag))),
            ts,
        }
    }

    #[test]
    fn lines_round_trip() {
        let entries = [
            put("ab12", 7),
            LedgerEntry {
                key: key("ab12"),
                event: LedgerEvent::Hit,
                content: None,
                path: None,
                ts: 8,
            },
        ];
        let text: String = entries.iter().map(|e| e.to_line() + "\n").collect();
        let scan = LedgerScan::parse(&text);
        assert_eq!(scan.entries, entries);
        assert!(scan.bad_lines.is_empty());
        assert!(!scan.truncated_tail);
        // put lines omit nothing; hit/miss lines omit content and path.
        assert!(text.lines().next().unwrap().contains("\"content\""));
        assert!(!text.lines().nth(1).unwrap().contains("\"content\""));
    }

    #[test]
    fn truncated_tail_is_reported_not_fatal() {
        let good = put("ab12", 1).to_line() + "\n";
        let cut = put("cd34", 2).to_line();
        let half = &cut[..cut.len() / 2];
        let scan = LedgerScan::parse(&format!("{good}{half}"));
        assert_eq!(scan.entries.len(), 1);
        assert!(scan.truncated_tail);
        assert!(scan.bad_lines.is_empty());
    }

    #[test]
    fn bit_flipped_line_is_skipped_and_reported() {
        let a = put("ab12", 1).to_line();
        let b = put("cd34", 2).to_line().replace("\"event\"", "\"evXnt\"");
        let c = put("ef56", 3).to_line();
        let scan = LedgerScan::parse(&format!("{a}\n{b}\n{c}\n"));
        assert_eq!(scan.entries.len(), 2);
        assert_eq!(scan.bad_lines, vec![2]);
        assert_eq!(scan.entries[1].key, key("ef56"));
    }

    #[test]
    fn latest_put_wins_and_last_touch_tracks_all_events() {
        let mut old = put("ab12", 1);
        old.content = Some("d".repeat(64));
        let newer = put("ab12", 5);
        let hit = LedgerEntry {
            key: key("ab12"),
            event: LedgerEvent::Hit,
            content: None,
            path: None,
            ts: 9,
        };
        let text = format!(
            "{}\n{}\n{}\n",
            old.to_line(),
            newer.to_line(),
            hit.to_line()
        );
        let scan = LedgerScan::parse(&text);
        let puts = scan.latest_puts();
        assert_eq!(puts[&key("ab12")], newer);
        assert_eq!(scan.last_touch()[&key("ab12")], 9);
    }
}
