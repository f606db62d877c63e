//! The `mocc serve` daemon: one result store answering spec requests
//! over a line-delimited JSON protocol (docs/CACHING.md).
//!
//! Each request is one JSON object per line:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"run","spec":{...ExperimentSpec...}}
//! {"op":"run","path":"examples/specs/sweep_cubic.json"}
//! {"op":"shutdown"}
//! ```
//!
//! and each response one JSON object per line: `{"ok":true,...}` with
//! the canonical report under `"report"` plus `"hits"`/`"misses"`, or
//! `{"ok":false,"error":"..."}`. Malformed requests answer an error
//! and keep the session alive; `shutdown` ends the daemon.
//!
//! Each request line is decoded in one streamed pass, an inline spec
//! included: no `Value` tree is built for it. Response lines are
//! streamed too, keys in canonical (byte) order, the report written
//! straight into its line; building each line as a `Value` tree
//! instead is the reference the tests hold them to.
//!
//! The module is transport- and clock-free: [`Server::session`] is
//! generic over `BufRead`/`Write` and takes its ledger timestamps from
//! an injected `fn() -> u64` (the `TrainOptions.clock` pattern), so the
//! `mocc` binary owns stdin, the Unix socket and the wall clock, and
//! the whole protocol is testable in process.

use mocc_eval::{CacheStats, ExperimentSpec, SweepReport, SweepRunner};
use mocc_store::{ResultStore, StoreStats};
use serde::json::{ObjectWriter, Parser};
use std::io::{BufRead, Read, Write};
use std::path::Path;

/// Upper bound on one request line. Longer lines are discarded in
/// bounded chunks and answered with a structured error, so a client
/// cannot make the daemon buffer an arbitrarily large request.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// What every session of one daemon shares.
pub struct Server<'a> {
    /// Executes the cells a `run` request misses.
    pub runner: &'a SweepRunner,
    /// The store every client's requests are memoized through; the
    /// daemon's handle keeps the reports its lookups verified and its
    /// runs wrote ([`ResultStore::with_verified_blobs`]).
    pub store: &'a ResultStore,
    /// Unix seconds for the store's audit ledger, read once per `run`
    /// request; timestamps never reach a report.
    pub clock: fn() -> u64,
}

impl Server<'_> {
    /// Serves one client session; returns true when the client asked
    /// the daemon to shut down (not merely disconnected).
    ///
    /// Per-request faults — malformed JSON, invalid UTF-8, an oversized
    /// line, or a panic inside op dispatch — answer `{"ok":false,...}`
    /// and keep the session alive; only a transport-level read/write
    /// error ends it.
    pub fn session(
        &self,
        mut reader: impl BufRead,
        mut writer: impl Write,
    ) -> Result<bool, String> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let n = reader
                .by_ref()
                .take(MAX_REQUEST_BYTES as u64 + 1)
                .read_until(b'\n', &mut buf)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Ok(false); // Client disconnected.
            }
            let (response, shutdown) = if buf.len() > MAX_REQUEST_BYTES && !buf.ends_with(b"\n") {
                drain_line(&mut reader)?;
                let cap = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                (error_response(&cap), false)
            } else {
                // Lossy decoding: invalid UTF-8 becomes a JSON parse
                // error on the replacement characters, not a dead
                // session.
                let line = String::from_utf8_lossy(&buf);
                if line.trim().is_empty() {
                    continue;
                }
                self.guarded(&line)
            };
            writeln!(writer, "{response}").map_err(|e| e.to_string())?;
            writer.flush().map_err(|e| e.to_string())?;
            if shutdown {
                return Ok(true);
            }
        }
    }

    /// [`Server::dispatch`] behind a panic guard: a panic while
    /// dispatching one request becomes a structured error response
    /// instead of unwinding through the serve loop and killing the
    /// daemon.
    fn guarded(&self, line: &str) -> (String, bool) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(line))) {
            Ok(result) => result,
            Err(payload) => (
                // `&*payload`: deref the box so we downcast the
                // payload, not the `Box<dyn Any>` itself.
                error_response(&format!("internal error: {}", panic_message(&*payload))),
                false,
            ),
        }
    }

    /// Handles one protocol line; returns `(response line, shutdown?)`.
    fn dispatch(&self, line: &str) -> (String, bool) {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(e) => return (error_response(&e), false),
        };
        let Some(Ok(op)) = request.op else {
            return (error_response("request needs a string `op` field"), false);
        };
        match op.as_str() {
            "ping" => (ack_response("ping"), false),
            "shutdown" => (ack_response("shutdown"), true),
            "stats" => match self.store.stats() {
                Err(e) => (error_response(&e.to_string()), false),
                Ok(stats) => (stats_response(&stats), false),
            },
            "run" => {
                let exp = match (request.spec, request.path) {
                    (Some(spec), None) => spec.map_err(|e| format!("bad spec: {e}")),
                    (None, Some(Ok(path))) => {
                        ExperimentSpec::load(Path::new(&path)).map_err(|e| format!("{path}: {e}"))
                    }
                    _ => Err("run needs exactly one of `spec` (inline) or `path`".to_string()),
                };
                let result = exp.and_then(|exp| {
                    let ts = (self.clock)();
                    mocc_core::run_experiment_cached(self.runner, &exp, self.store, ts)
                        .map_err(|e| e.to_string())
                });
                match result {
                    Err(e) => (error_response(&e), false),
                    Ok((report, stats)) => (run_response(&report, stats), false),
                }
            }
            other => (error_response(&format!("unknown op {other:?}")), false),
        }
    }
}

/// The keys of one request line that dispatch reads, each as
/// [`Parser::field`] leaves it: absent, or the last value given,
/// decoded or refused. An inline `spec` is decoded in the same pass.
#[derive(Default)]
struct Request {
    op: Option<Result<String, serde::Error>>,
    spec: Option<Result<ExperimentSpec, serde::Error>>,
    path: Option<Result<String, serde::Error>>,
}

impl Request {
    /// Reads one line; `Err` is the response's error text. A line that
    /// is not JSON is refused before one that is not an object.
    fn parse(line: &str) -> Result<Self, String> {
        let mut p = Parser::new(line);
        let mut request = Request::default();
        let object = p.peek_token() == Some(b'{');
        let read = if object {
            p.object(|key, p| match &*key {
                "op" => p.field(&mut request.op),
                "spec" => p.field(&mut request.spec),
                "path" => p.field(&mut request.path),
                _ => p.skip_value(),
            })
        } else {
            p.skip_value()
        };
        read.and_then(|()| p.finish())
            .map_err(|e| format!("bad request JSON: {e}"))?;
        if !object {
            return Err("request must be a JSON object".to_string());
        }
        Ok(request)
    }
}

/// Discards the rest of the current input line (the request already
/// exceeded [`MAX_REQUEST_BYTES`]), consuming the reader's buffer in
/// place so memory stays bounded. EOF also ends the line.
fn drain_line(reader: &mut impl BufRead) -> Result<(), String> {
    loop {
        let available = reader.fill_buf().map_err(|e| e.to_string())?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = available.len();
                reader.consume(n);
            }
        }
    }
}

/// Best-effort text of a caught panic payload (`panic!` carries a
/// `&str` or `String`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "unknown panic"
    }
}

/// One response line: the object `fields` writes, keys ascending.
fn response(fields: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut line = String::new();
    let mut w = ObjectWriter::begin(&mut line);
    fields(&mut w);
    w.end();
    line
}

fn ack_response(op: &str) -> String {
    response(|w| {
        w.field("ok", &true);
        w.field("op", op);
    })
}

fn error_response(msg: &str) -> String {
    response(|w| {
        w.field("error", msg);
        w.field("ok", &false);
    })
}

fn stats_response(stats: &StoreStats) -> String {
    response(|w| {
        w.field("hits", &stats.hits);
        w.field("keys", &stats.keys);
        w.field("misses", &stats.misses);
        w.field("objects", &stats.objects);
        w.field("ok", &true);
        w.field("puts", &stats.puts);
    })
}

/// A `run` response. `report` sorts last, so the canonical report is
/// streamed into the line as its tail — not parsed back into a tree to
/// be printed again.
fn run_response(report: &SweepReport, stats: CacheStats) -> String {
    response(|w| {
        w.field("hits", &stats.hits);
        w.field("misses", &stats.misses);
        w.field("ok", &true);
        w.field("report", report);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::path::PathBuf;

    const PING: &str = "{\"ok\":true,\"op\":\"ping\"}";
    const SHUTDOWN: &str = "{\"ok\":true,\"op\":\"shutdown\"}";

    fn repo_file(rel: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel)
    }

    /// A fresh store in a per-test temp directory, opened as the
    /// daemon opens it.
    fn temp_store(name: &str) -> (PathBuf, ResultStore) {
        let dir = std::env::temp_dir().join(format!("mocc-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = daemon_store(&dir);
        (dir, store)
    }

    /// The store in `dir` as `mocc serve` opens it.
    fn daemon_store(dir: &Path) -> ResultStore {
        ResultStore::open(dir)
            .expect("open store")
            .with_verified_blobs()
    }

    /// The fake clock: every ledger line a session writes carries it.
    fn fixed_clock() -> u64 {
        1_700_000_123
    }

    /// Runs one in-memory session over `input`; returns the response
    /// lines and whether the client asked for shutdown.
    fn session_with(store: &ResultStore, clock: fn() -> u64, input: &[u8]) -> (Vec<String>, bool) {
        let runner = SweepRunner::with_threads(2);
        let server = Server {
            runner: &runner,
            store,
            clock,
        };
        let mut out = Vec::new();
        let shutdown = server
            .session(std::io::BufReader::new(input), &mut out)
            .expect("in-memory transport cannot fail");
        let text = String::from_utf8(out).expect("responses are UTF-8");
        (text.lines().map(str::to_string).collect(), shutdown)
    }

    fn session(store: &ResultStore, input: &[u8]) -> (Vec<String>, bool) {
        session_with(store, fixed_clock, input)
    }

    /// The timestamp of every line in the store's ledger.
    fn ledger_timestamps(dir: &Path) -> Vec<u64> {
        let ledger = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap_or_default();
        let scan = mocc_store::LedgerScan::parse(&ledger);
        assert!(scan.bad_lines.is_empty() && !scan.truncated_tail);
        scan.entries.iter().map(|e| e.ts).collect()
    }

    /// The whole happy path on one session: ping, a cold run by spec
    /// path (16 misses, report equal to the golden fixture), the same
    /// spec inline (16 hits, identical report), an unknown op, stats,
    /// and shutdown — with every ledger line stamped by the injected
    /// clock.
    #[test]
    fn session_answers_every_op_with_exact_lines() {
        let (dir, store) = temp_store("ops");
        let spec_path = repo_file("examples/specs/sweep_cubic.json");
        let spec_text = std::fs::read_to_string(&spec_path).expect("shipped spec");
        let golden = std::fs::read_to_string(repo_file("tests/fixtures/golden_cubic.json"))
            .expect("golden fixture");
        let input = format!(
            "{{\"op\":\"ping\"}}\n\
             {{\"op\":\"run\",\"path\":\"{}\"}}\n\
             \n\
             {{\"op\":\"run\",\"spec\":{}}}\n\
             {{\"op\":\"nonsense\"}}\n\
             {{\"op\":\"stats\"}}\n\
             {{\"op\":\"shutdown\"}}\n\
             {{\"op\":\"ping\"}}\n",
            spec_path.display(),
            spec_text.trim()
        );
        let (lines, shutdown) = session(&store, input.as_bytes());
        assert!(
            shutdown,
            "shutdown op ends the daemon, not just the session"
        );
        assert_eq!(
            lines.len(),
            6,
            "one response per request, blank lines skipped, nothing after shutdown: {lines:#?}"
        );
        assert_eq!(lines[0], PING);
        assert_eq!(
            lines[1],
            format!("{{\"hits\":0,\"misses\":16,\"ok\":true,\"report\":{golden}}}")
        );
        assert_eq!(
            lines[2],
            format!("{{\"hits\":16,\"misses\":0,\"ok\":true,\"report\":{golden}}}")
        );
        assert_eq!(
            lines[3],
            "{\"error\":\"unknown op \\\"nonsense\\\"\",\"ok\":false}"
        );
        assert_eq!(
            lines[4],
            "{\"hits\":16,\"keys\":16,\"misses\":16,\"objects\":16,\"ok\":true,\"puts\":16}"
        );
        assert_eq!(lines[5], SHUTDOWN);
        let stamps = ledger_timestamps(&dir);
        assert_eq!(stamps.len(), 48, "16 misses + 16 puts + 16 hits");
        assert!(stamps.iter().all(|&ts| ts == fixed_clock()), "{stamps:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `stats` lines pinned while the ledger changes underneath the
    /// daemon's store handle: its own run lines, then a second handle
    /// on the same directory (another process) appending, compacting
    /// the ledger away and growing it past its old length.
    #[test]
    fn stats_lines_follow_a_ledger_that_grows_and_is_replaced() {
        let (dir, store) = temp_store("stats-tail");
        let run = format!(
            "{{\"op\":\"run\",\"path\":\"{}\"}}\n{{\"op\":\"stats\"}}\n",
            repo_file("examples/specs/sweep_cubic.json").display()
        );
        let stats_after = |input: &str| {
            let (lines, _) = session(&store, input.as_bytes());
            lines.last().expect("a stats line").clone()
        };
        assert_eq!(
            stats_after(&run),
            "{\"hits\":0,\"keys\":16,\"misses\":16,\"objects\":16,\"ok\":true,\"puts\":16}"
        );
        assert_eq!(
            stats_after(&run),
            "{\"hits\":16,\"keys\":16,\"misses\":16,\"objects\":16,\"ok\":true,\"puts\":16}"
        );
        let other = ResultStore::open(&dir).expect("second handle");
        let (fresh, absent) = ("a".repeat(64), "b".repeat(64));
        other.put(&fresh, "foreign blob", 5).expect("foreign put");
        assert!(other.get(&fresh, 6).is_some());
        assert!(other.get(&absent, 7).is_none());
        assert_eq!(
            stats_after("{\"op\":\"stats\"}\n"),
            "{\"hits\":17,\"keys\":17,\"misses\":17,\"objects\":17,\"ok\":true,\"puts\":17}"
        );
        let ledger_len = || std::fs::metadata(dir.join("ledger.jsonl")).unwrap().len();
        let before_gc = ledger_len();
        assert_eq!(other.gc(None).expect("foreign gc").kept, 17);
        assert!(ledger_len() < before_gc, "gc compacts the ledger");
        for i in 0..40 {
            let key = if i % 4 == 0 { &absent } else { &fresh };
            other.get(key, 8);
        }
        assert!(ledger_len() > before_gc, "and the lookups outgrow it");
        assert_eq!(
            stats_after("{\"op\":\"stats\"}\n"),
            "{\"hits\":30,\"keys\":17,\"misses\":10,\"objects\":17,\"ok\":true,\"puts\":17}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `run` request line for a shipped spec file, and the response
    /// line of its all-hit repeat.
    fn cubic_run_and_hit_line() -> (String, String) {
        let golden = std::fs::read_to_string(repo_file("tests/fixtures/golden_cubic.json"))
            .expect("golden fixture");
        (
            format!(
                "{{\"op\":\"run\",\"path\":\"{}\"}}\n",
                repo_file("examples/specs/sweep_cubic.json").display()
            ),
            format!("{{\"hits\":16,\"misses\":0,\"ok\":true,\"report\":{golden}}}"),
        )
    }

    /// The witnesses of the daemon's verified blobs,
    /// `ResultStore::blob_reads` and `ResultStore::blob_checks`: a
    /// daemon that wrote a spec's 16 blobs reads and decodes none of
    /// them over four repeats; a fresh daemon on the filled store reads
    /// and decodes each once over five identical requests; a `mocc run`
    /// handle reads and decodes each on every request. The response
    /// lines are the same throughout.
    #[test]
    fn a_daemon_reads_each_blob_once() {
        let (dir, store) = temp_store("reads");
        let (run, hit) = cubic_run_and_hit_line();
        let (lines, _) = session(&store, run.as_bytes());
        assert!(lines[0].starts_with("{\"hits\":0,\"misses\":16,"));
        let (lines, _) = session(&store, run.repeat(4).as_bytes());
        assert_eq!(lines, vec![hit.clone(); 4]);
        assert_eq!(store.blob_reads(), 0, "the cold request's puts were kept");
        assert_eq!(store.blob_checks(), 0, "and so were their reports");
        drop(store);
        let plain = ResultStore::open(&dir).expect("open store");
        for (handle, reads) in [(daemon_store(&dir), 16), (plain, 5 * 16)] {
            let (lines, _) = session(&handle, run.repeat(5).as_bytes());
            assert_eq!(lines, vec![hit.clone(); 5]);
            assert_eq!(handle.blob_reads(), reads);
            assert_eq!(handle.blob_checks(), reads);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damage done to an object's file after the daemon verified it:
    /// the daemon serves the bytes it verified — the same line, no
    /// miss — and never the damaged ones. A fresh handle sees the
    /// damage as every handle did: `verify` names it, and a run misses
    /// that cell, writes it again and is whole.
    #[test]
    fn damage_after_verification_is_never_served() {
        let (dir, store) = temp_store("damage");
        let (run, hit) = cubic_run_and_hit_line();
        session(&store, run.as_bytes());
        let shard = std::fs::read_dir(dir.join("objects"))
            .expect("objects")
            .next()
            .expect("a shard")
            .expect("shard entry")
            .path();
        let object = std::fs::read_dir(shard)
            .expect("shard")
            .next()
            .expect("an object")
            .expect("object entry")
            .path();
        let mut bytes = std::fs::read(&object).expect("object bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&object, &bytes).expect("damage");
        let (lines, _) = session(&store, run.repeat(2).as_bytes());
        assert_eq!(lines, vec![hit.clone(); 2]);
        assert_eq!(store.blob_reads(), 0);

        let fresh = ResultStore::open(&dir).expect("fresh handle");
        let issues = fresh.verify().expect("verify").issues;
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("content digest mismatch"), "{issues:?}");
        let (lines, _) = session(&fresh, run.as_bytes());
        assert_eq!(
            lines,
            [hit.replacen(
                "{\"hits\":16,\"misses\":0,",
                "{\"hits\":15,\"misses\":1,",
                1
            )]
        );
        assert!(fresh.verify().expect("verify").is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A client that just disconnects ends the session without asking
    /// the daemon to stop.
    #[test]
    fn disconnect_is_not_a_shutdown() {
        let (dir, store) = temp_store("eof");
        let (lines, shutdown) = session(&store, b"{\"op\":\"ping\"}\n");
        assert_eq!(lines, [PING]);
        assert!(!shutdown);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hostile input keeps the session alive: malformed JSON, a
    /// non-object request, a missing/non-string `op`, invalid UTF-8,
    /// and an oversized (>1 MiB) line each answer a structured error
    /// on their own response line, after which the same session still
    /// serves a normal `ping` and a clean `shutdown`.
    #[test]
    fn session_survives_malformed_oversized_and_binary_requests() {
        let (dir, store) = temp_store("hostile");
        let mut input = Vec::new();
        input.extend_from_slice(b"this is not json\n[1,2,3]\n{\"op\":42}\n");
        input.extend_from_slice(b"\x80\xff binary \x00 junk\n");
        input.extend(std::iter::repeat(b'x').take(3 << 20));
        input.extend_from_slice(b"\n{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n");
        let (lines, shutdown) = session(&store, &input);
        assert_eq!(lines.len(), 7, "one response per request: {lines:#?}");
        for (i, why) in [(0usize, "bad request JSON"), (3, "bad request JSON")] {
            assert!(
                lines[i].starts_with(&format!("{{\"error\":\"{why}: "))
                    && lines[i].ends_with(",\"ok\":false}"),
                "line {i}: {}",
                lines[i]
            );
        }
        assert_eq!(
            lines[1],
            "{\"error\":\"request must be a JSON object\",\"ok\":false}"
        );
        assert_eq!(
            lines[2],
            "{\"error\":\"request needs a string `op` field\",\"ok\":false}"
        );
        assert_eq!(
            lines[4],
            "{\"error\":\"request line exceeds 1048576 bytes\",\"ok\":false}"
        );
        assert_eq!(lines[5], PING, "must still serve after hostile input");
        assert_eq!(lines[6], SHUTDOWN);
        assert!(shutdown);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// 300 000 unclosed brackets fit under the line cap and used to
    /// overflow the parser's stack, killing the daemon; the parser's
    /// nesting limit makes them one more bad request.
    #[test]
    fn deeply_nested_request_is_an_error_not_a_stack_overflow() {
        let (dir, store) = temp_store("deep");
        let mut input = vec![b'['; 300_000];
        input.extend_from_slice(b"\n{\"op\":\"ping\"}\n");
        let (lines, _) = session(&store, &input);
        assert_eq!(
            lines,
            [
                "{\"error\":\"bad request JSON: nesting deeper than 128 at byte 128\",\"ok\":false}",
                PING
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A spec `name` of 100 000 integers used to be quoted whole in its
    /// type error, an answer twice the size of the request; the quote
    /// is cut, and the session keeps serving.
    #[test]
    fn type_error_on_a_huge_value_is_shorter_than_the_request() {
        let (dir, store) = temp_store("huge-value");
        let ints = (0..100_000).map(|i| i.to_string()).collect::<Vec<_>>();
        let request = format!(
            "{{\"op\":\"run\",\"spec\":{{\"kind\":\"sweep\",\"name\":[{}],\"scheme\":\"cubic\",\
             \"bandwidth_mbps\":[10],\"owd_ms\":[20],\"queue_pkts\":[100],\"duration_s\":2,\
             \"seed\":1}}}}",
            ints.join(",")
        );
        let input = format!("{request}\n{{\"op\":\"ping\"}}\n");
        let (lines, _) = session(&store, input.as_bytes());
        assert_eq!(lines.len(), 2, "{lines:#?}");
        assert!(lines[0].len() < request.len(), "{} bytes", lines[0].len());
        assert_eq!(
            lines[0],
            "{\"error\":\"bad spec: ExperimentSpec.name: expected string, got Arr([U64(0), \
             U64(1), U64(2), U64(3), U64(4), U64(5), U64(6), U64…\",\"ok\":false}"
        );
        assert_eq!(lines[1], PING);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An `onoff` load of `u64::MAX` cross flows used to abort the
    /// daemon on the allocation of its flow list (no `catch_unwind`
    /// catches that); it is one more bad request, and the session keeps
    /// serving.
    #[test]
    fn hostile_flow_count_is_an_error_not_an_abort() {
        let (dir, store) = temp_store("flows");
        let input =
            b"{\"op\":\"run\",\"spec\":{\"kind\":\"sweep\",\"name\":\"h\",\"scheme\":\"cubic\",\
            \"bandwidth_mbps\":[10.0],\"owd_ms\":[20],\"queue_pkts\":[100],\"duration_s\":2,\
            \"seed\":1,\"loads\":[\"onoff:18446744073709551615\"]}}\n{\"op\":\"ping\"}\n";
        let (lines, _) = session(&store, input);
        assert_eq!(
            lines,
            [
                "{\"error\":\"bad spec: ExperimentSpec.loads[0]: invalid spec: flow load \
                 \\\"onoff:18446744073709551615\\\": a cell holds at most 1024 flows\",\"ok\":false}",
                PING
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sweep of four 100-value axes is 10^8 cells; allocating them
    /// used to abort the daemon. Its expansion is counted before
    /// anything expands, so it is one more bad request.
    #[test]
    fn hostile_expansion_is_an_error_not_an_abort() {
        let (dir, store) = temp_store("expansion");
        let axis = |f: fn(u32) -> String| (1..=100).map(f).collect::<Vec<_>>().join(",");
        let input = format!(
            "{{\"op\":\"run\",\"spec\":{{\"kind\":\"sweep\",\"name\":\"h\",\"scheme\":\"cubic\",\
             \"bandwidth_mbps\":[{}],\"owd_ms\":[{}],\"queue_pkts\":[{}],\"loss\":[{}],\
             \"duration_s\":2,\"seed\":1}}}}\n{{\"op\":\"ping\"}}\n",
            axis(|v| format!("{v}.0")),
            axis(|v| v.to_string()),
            axis(|v| v.to_string()),
            axis(|v| format!("{}", f64::from(v - 1) / 100.0)),
        );
        let (lines, _) = session(&store, input.as_bytes());
        assert_eq!(
            lines,
            [
                "{\"error\":\"invalid spec: the experiment expands to 100000000 cells holding \
                 100000000 flows; a run holds at most 262144\",\"ok\":false}",
                PING
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A model file whose `cfg.history` was edited away from its
    /// networks used to panic a worker at the first forward pass
    /// (`internal error`); it is a refused model naming the file, and
    /// the session keeps serving.
    #[test]
    fn model_disagreeing_with_its_config_is_an_error_not_a_panic() {
        use mocc_eval::PolicySpec;
        let (dir, store) = temp_store("badmodel");
        let model = dir.join("edited-model.json");
        let agent = mocc_core::agent_from_policy(&PolicySpec::default()).expect("seeded agent");
        let json = agent.to_json();
        assert!(json.contains("\"history\":10"));
        std::fs::write(&model, json.replace("\"history\":10", "\"history\":5")).unwrap();
        let spec = std::fs::read_to_string(repo_file("examples/specs/competition_mocc.json"))
            .expect("shipped spec")
            .replace(
                "\"path\":null",
                &format!("\"path\":\"{}\"", model.display()),
            );
        let input = format!("{{\"op\":\"run\",\"spec\":{spec}}}\n{{\"op\":\"ping\"}}\n");
        let (lines, _) = session(&store, input.as_bytes());
        assert_eq!(
            lines,
            [
                format!(
                    "{{\"error\":\"{}: cfg.history 5 means 18 observation inputs, \
                     but the policy network takes 33\",\"ok\":false}}",
                    model.display()
                )
                .as_str(),
                PING
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An inline spec whose `owd_ms` overflows the simulator's
    /// nanosecond clock used to be answered with an all-zero report
    /// (release) or to panic a worker (debug); it is refused as an
    /// invalid spec, nothing is stored, and the session keeps serving.
    #[test]
    fn clock_overflowing_spec_is_refused_and_the_session_keeps_serving() {
        let (dir, store) = temp_store("clock");
        let spec = std::fs::read_to_string(repo_file("examples/specs/sweep_cubic.json"))
            .expect("shipped spec")
            .replace("\"owd_ms\":[10,40]", "\"owd_ms\":[10000000000000]");
        let input = format!("{{\"op\":\"run\",\"spec\":{spec}}}\n{{\"op\":\"ping\"}}\n");
        let (lines, _) = session(&store, input.as_bytes());
        assert_eq!(
            lines,
            [
                "{\"error\":\"invalid spec: owd_ms value 10000000000000 does not fit \
                 the simulator clock\",\"ok\":false}",
                PING
            ]
        );
        assert!(ledger_timestamps(&dir).is_empty(), "nothing was looked up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A line of exactly the cap (newline included) is still a request,
    /// not an oversized one.
    #[test]
    fn a_line_at_the_cap_is_parsed_not_discarded() {
        let (dir, store) = temp_store("cap");
        let mut input = vec![b' '; MAX_REQUEST_BYTES - 14];
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        assert_eq!(input.len(), MAX_REQUEST_BYTES);
        let (lines, _) = session(&store, &input);
        assert_eq!(lines, [PING]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panic inside op dispatch (here: the injected clock) becomes an
    /// `internal error` response and the session keeps serving.
    #[test]
    fn panic_in_dispatch_keeps_the_session_alive() {
        fn broken_clock() -> u64 {
            panic!("clock exploded")
        }
        let (dir, store) = temp_store("panic");
        let input = format!(
            "{{\"op\":\"run\",\"path\":\"{}\"}}\n{{\"op\":\"ping\"}}\n",
            repo_file("examples/specs/sweep_cubic.json").display()
        );
        let (lines, shutdown) = session_with(&store, broken_clock, input.as_bytes());
        assert_eq!(
            lines,
            [
                "{\"error\":\"internal error: clock exploded\",\"ok\":false}",
                PING
            ]
        );
        assert!(!shutdown);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panic in the run executor's share of the work that the serving
    /// thread does itself (one worker: all of it) reaches the guard
    /// with its own message. The injected clock is the one hook a
    /// session offers, so the clock runs the sweep that panics.
    #[test]
    fn panic_on_the_serving_threads_share_of_a_run_is_an_internal_error() {
        use mocc_eval::{
            CellEvaluator, CellReport, CompetitionCell, CompetitionEvaluator, SchemeSpec,
            SweepCell, SweepSpec,
        };
        struct Exploding;
        impl CellEvaluator for Exploding {
            fn eval_batch(&self, _: &[SweepCell]) -> Vec<CellReport> {
                panic!("cell exploded")
            }
        }
        impl CompetitionEvaluator for Exploding {
            fn eval_batch(&self, _: &[CompetitionCell]) -> Vec<CellReport> {
                panic!("cell exploded")
            }
        }
        fn clock_running_a_sweep() -> u64 {
            let scheme = SchemeSpec::parse("cubic").unwrap();
            let exp = ExperimentSpec::from_sweep("boom", scheme, &SweepSpec::single_cell());
            SweepRunner::with_threads(1).run(&exp, &Exploding, None);
            unreachable!("the evaluator panics")
        }
        let (dir, store) = temp_store("panic-run");
        let input = format!(
            "{{\"op\":\"run\",\"path\":\"{}\"}}\n{{\"op\":\"ping\"}}\n",
            repo_file("examples/specs/sweep_cubic.json").display()
        );
        let (lines, _) = session_with(&store, clock_running_a_sweep, input.as_bytes());
        assert_eq!(
            lines,
            [
                "{\"error\":\"internal error: cell exploded\",\"ok\":false}",
                PING
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The reference for every response line: the same fields as a
    /// `Value` tree, the report parsed back into one, printed by the
    /// tree writer.
    fn tree_response(fields: Vec<(&str, Value)>) -> String {
        let obj = fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        serde_json::to_string(&Value::Obj(obj)).expect("response serializes")
    }

    /// Streamed lines are the tree's lines byte for byte: a `run`
    /// response for every shipped golden report (sweeps, a replay and
    /// two competitions), errors whose text needs escaping, the acks
    /// and `stats`.
    #[test]
    fn streamed_responses_equal_the_tree_built_lines() {
        use serde::Serialize;
        let mut goldens = 0;
        for entry in std::fs::read_dir(repo_file("tests/fixtures")).expect("fixtures") {
            let path = entry.expect("fixture entry").path();
            if !path.extension().is_some_and(|ext| ext == "json") {
                continue;
            }
            goldens += 1;
            let text = std::fs::read_to_string(&path).expect("golden fixture");
            let report = SweepReport::from_json(&text).expect("golden parses");
            let stats = CacheStats {
                hits: report.cells.len() as u64,
                misses: goldens,
            };
            let report_value: Value =
                serde_json::from_str(&report.to_canonical_json()).expect("canonical report parses");
            assert_eq!(
                run_response(&report, stats),
                tree_response(vec![
                    ("hits", stats.hits.to_value()),
                    ("misses", stats.misses.to_value()),
                    ("ok", Value::Bool(true)),
                    ("report", report_value),
                ]),
                "{}",
                path.display()
            );
        }
        assert_eq!(goldens, 7, "every shipped golden report");
        for msg in [
            "plain",
            "quote \" slash \\ tab \t nul \0 del \x7f",
            "naïve ∞ \u{1F980}",
        ] {
            assert_eq!(
                error_response(msg),
                tree_response(vec![
                    ("error", Value::Str(msg.to_string())),
                    ("ok", Value::Bool(false)),
                ])
            );
        }
        for op in ["ping", "shutdown"] {
            assert_eq!(
                ack_response(op),
                tree_response(vec![
                    ("ok", Value::Bool(true)),
                    ("op", Value::Str(op.to_string())),
                ])
            );
        }
        let stats = StoreStats {
            objects: 4,
            object_bytes: 5,
            keys: 3,
            puts: u64::MAX,
            hits: 2,
            misses: 1,
            bad_ledger_lines: 6,
            truncated_ledger_tail: true,
        };
        assert_eq!(
            stats_response(&stats),
            tree_response(vec![
                ("hits", stats.hits.to_value()),
                ("keys", stats.keys.to_value()),
                ("misses", stats.misses.to_value()),
                ("objects", stats.objects.to_value()),
                ("ok", Value::Bool(true)),
                ("puts", stats.puts.to_value()),
            ])
        );
    }

    /// `run` takes exactly one of `spec` and `path`; bad specs and
    /// unreadable paths are errors naming the problem, and none of
    /// them touches the store.
    #[test]
    fn run_rejects_ambiguous_missing_and_invalid_specs() {
        let (dir, store) = temp_store("badrun");
        let input = b"{\"op\":\"run\",\"spec\":{},\"path\":\"x.json\"}\n\
                      {\"op\":\"run\"}\n\
                      {\"op\":\"run\",\"path\":7}\n\
                      {\"op\":\"run\",\"spec\":{}}\n\
                      {\"op\":\"run\",\"path\":\"/nonexistent/spec.json\"}\n";
        let (lines, _) = session(&store, input);
        assert_eq!(lines.len(), 5, "{lines:#?}");
        let one_of =
            "{\"error\":\"run needs exactly one of `spec` (inline) or `path`\",\"ok\":false}";
        assert_eq!(lines[0], one_of);
        assert_eq!(lines[1], one_of);
        assert_eq!(lines[2], one_of);
        assert!(
            lines[3].starts_with("{\"error\":\"bad spec: "),
            "{}",
            lines[3]
        );
        assert!(
            lines[4].starts_with("{\"error\":\"/nonexistent/spec.json: "),
            "{}",
            lines[4]
        );
        assert!(
            ledger_timestamps(&dir).is_empty(),
            "rejected requests must not reach the store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_line_stops_at_the_newline() {
        let mut reader = std::io::BufReader::new(&b"tail of oversized line\nnext"[..]);
        drain_line(&mut reader).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "next");
    }

    #[test]
    fn drain_line_accepts_eof_as_line_end() {
        let mut reader = std::io::BufReader::new(&b"no newline at all"[..]);
        drain_line(&mut reader).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "");
    }

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let p = catch_unwind(AssertUnwindSafe(|| panic!("plain str"))).unwrap_err();
        assert_eq!(panic_message(&*p), "plain str");
        let p = catch_unwind(AssertUnwindSafe(|| panic!("with {}", "args"))).unwrap_err();
        assert_eq!(panic_message(&*p), "with args");
    }
}
