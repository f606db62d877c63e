//! The end-to-end side of the benchmark: each workload as a closed
//! loop of operations on the real `mocc` binary, one child at a time,
//! tracing off.
//!
//! A run of a workload is: the golden check, the set-up (repeated over
//! the run, the median reported as `setup_s`), one untimed reference run at
//! `--threads 1` whose outputs are the byte reference, one untimed
//! warm-up operation at `--threads <nproc>`, and then timed operations
//! at `--threads <nproc>` until `--seconds` have passed.
//! Every timed operation's outputs must equal the reference byte for
//! byte; whatever does not counts as a failed operation.

use crate::child::{Cost, Mocc};
use crate::gen::{self, Doc, Request, ServePlan};
use mocc_store::sha256_hex;
use serde::Value;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Timed operations per run, at least.
const MIN_OPS: usize = 3;
/// All-hit passes of one `cache_cycle` operation.
pub const CACHE_HIT_PASSES: usize = 4;

/// The end-to-end metrics, as `BENCHMARK.json` names them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
];

/// Where and how a workload runs.
pub struct Env {
    pub mocc: Mocc,
    /// Scratch directory of this run; created empty, removed at the end.
    pub work: PathBuf,
    /// Worker threads of the timed operations.
    pub threads: usize,
    pub seed: u64,
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checks {
    /// Counts one operation; it failed unless `faults` is empty.
    pub fn operation(&mut self, what: &str, faults: Vec<String>) {
        self.attempted += 1;
        if !faults.is_empty() {
            self.failed += 1;
            self.reasons.push(format!("{what}: {}", faults.join("; ")));
        }
    }
}

/// Collects the faults of one operation.
#[derive(Default)]
struct Faults(Vec<String>);

impl Faults {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// What one run of one workload measured.
pub struct Report {
    pub checks: Checks,
    /// Samples per end-to-end metric: one per set-up for `setup_s`,
    /// one per timed operation for the rest.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// SHA-256 over the reference operation's outputs, so two commits
    /// can be compared exactly.
    pub digest: String,
}

/// One workload: how it is set up and what one operation is.
trait Workload {
    /// Generates and validates the inputs under `dir`. Timed.
    fn setup(&mut self, env: &Env, dir: &Path, faults: &mut Faults) -> io::Result<()>;
    /// The untimed reference run at one worker thread, under the
    /// directory of the last set-up; returns the digest every timed
    /// operation's outputs must have. By default it is operation 0
    /// itself; `cache_cycle` and `serve_session` fill their store here.
    fn reference(&mut self, env: &Env, faults: &mut Faults) -> io::Result<String> {
        Ok(self.operation(env, 1, 0, faults)?.1)
    }
    /// Runs operation number `i` (from 1) with `threads` workers.
    /// Returns its cost and the digest of its outputs.
    fn operation(
        &mut self,
        env: &Env,
        threads: usize,
        i: usize,
        faults: &mut Faults,
    ) -> io::Result<(Cost, String)>;
    /// Work units one operation handles.
    fn units(&self) -> u64;
    /// Checks made once, after the last timed operation.
    fn finish(&mut self, _env: &Env, _checks: &mut Checks) -> io::Result<()> {
        Ok(())
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are UTF-8")
}

fn write_doc(dir: &Path, doc: &Doc) -> io::Result<PathBuf> {
    let path = dir.join(&doc.file);
    std::fs::write(&path, &doc.json)?;
    Ok(path)
}

/// `mocc validate` over `paths`: part of every set-up.
fn validate(env: &Env, dir: &Path, paths: &[PathBuf], faults: &mut Faults) -> io::Result<()> {
    let mut args = vec!["validate"];
    args.extend(paths.iter().map(|p| path_str(p)));
    let cost = env.mocc.run(&args, &dir.join("validate"))?;
    faults.require(cost.ok, || {
        "mocc validate rejected a generated document".into()
    });
    Ok(())
}

/// `mocc run <doc> --threads <t> --out <out> [extra]`.
fn mocc_run(
    env: &Env,
    doc: &Path,
    threads: usize,
    out: &Path,
    extra: &[&str],
    faults: &mut Faults,
) -> io::Result<(Cost, Vec<u8>)> {
    let threads = threads.to_string();
    let mut args = vec![
        "run",
        path_str(doc),
        "--threads",
        &threads,
        "--out",
        path_str(out),
    ];
    args.extend(extra);
    let cost = env.mocc.run(&args, &out.with_extension("log"))?;
    faults.require(cost.ok, || {
        format!("mocc run {} exited non-zero", doc.display())
    });
    let bytes = if cost.ok {
        std::fs::read(out)?
    } else {
        Vec::new()
    };
    Ok((cost, bytes))
}

// ---- the three plain sweeps ------------------------------------------

struct Sweep {
    docs: Vec<Doc>,
    dir: PathBuf,
    paths: Vec<PathBuf>,
}

impl Workload for Sweep {
    fn setup(&mut self, env: &Env, dir: &Path, faults: &mut Faults) -> io::Result<()> {
        self.dir = dir.to_path_buf();
        self.paths = self
            .docs
            .iter()
            .map(|d| write_doc(dir, d))
            .collect::<io::Result<_>>()?;
        validate(env, dir, &self.paths, faults)
    }

    fn operation(
        &mut self,
        env: &Env,
        threads: usize,
        i: usize,
        faults: &mut Faults,
    ) -> io::Result<(Cost, String)> {
        let mut total = Cost::ZERO;
        let mut digests = String::new();
        for (doc, path) in self.docs.iter().zip(&self.paths) {
            let out = self.dir.join(format!("op{i}-{}", doc.file));
            let (cost, report) = mocc_run(env, path, threads, &out, &[], faults)?;
            total = total.then(cost);
            digests.push_str(&sha256_hex(&report));
        }
        Ok((total, sha256_hex(digests.as_bytes())))
    }

    fn units(&self) -> u64 {
        self.docs.iter().map(|d| d.units).sum()
    }
}

// ---- cache_cycle -----------------------------------------------------

/// File of a result store that holds its audit ledger (the layout is
/// part of the store's contract, `docs/CACHING.md`).
const LEDGER: &str = "ledger.jsonl";

pub struct CacheCycle {
    doc: Doc,
    dir: PathBuf,
    path: PathBuf,
    store: PathBuf,
    /// The fill pass's report and the ledger as the fill pass left it.
    fill_report: Vec<u8>,
    fill_ledger: Vec<u8>,
    /// Cost of the fill pass and of each pass of the last operation.
    pub fill: Cost,
    pub passes: Vec<Cost>,
}

/// The `[mocc] cache: H hits, M misses` line of a cached run's log.
fn cache_line(log: &Path) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(log.with_extension("err")).ok()?;
    let line = text
        .lines()
        .rev()
        .find(|l| l.starts_with("[mocc] cache: "))?;
    let mut numbers = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().ok());
    Some((numbers.next()??, numbers.next()??))
}

impl CacheCycle {
    pub fn new(seed: u64) -> Self {
        CacheCycle {
            doc: gen::cache_cycle(seed),
            dir: PathBuf::new(),
            path: PathBuf::new(),
            store: PathBuf::new(),
            fill_report: Vec::new(),
            fill_ledger: Vec::new(),
            fill: Cost::ZERO,
            passes: Vec::new(),
        }
    }

    /// One `mocc run --cache-dir` pass; `want` is its `(hits, misses)`.
    fn pass(
        &self,
        env: &Env,
        threads: usize,
        name: &str,
        want: (u64, u64),
        faults: &mut Faults,
    ) -> io::Result<(Cost, Vec<u8>)> {
        let out = self.dir.join(format!("{name}.json"));
        let extra = ["--cache-dir", path_str(&self.store)];
        let (cost, report) = mocc_run(env, &self.path, threads, &out, &extra, faults)?;
        let got = cache_line(&out.with_extension("log"));
        faults.require(got == Some(want), || {
            format!("{name}: (hits, misses) {got:?}, want {want:?}")
        });
        Ok((cost, report))
    }
}

impl Workload for CacheCycle {
    fn setup(&mut self, env: &Env, dir: &Path, faults: &mut Faults) -> io::Result<()> {
        self.dir = dir.to_path_buf();
        self.path = write_doc(dir, &self.doc)?;
        validate(env, dir, std::slice::from_ref(&self.path), faults)
    }

    /// The fill pass: every cell missed, simulated and put into a
    /// directory never used before. It is not among the timed
    /// operations because creating thousands of files costs whatever
    /// the file system's recent history makes it cost (up to four
    /// times more after a large delete on the machine this was
    /// written on — benchmark/README.md); the traced run reports it as
    /// `cache.fill_cells_per_s`.
    fn reference(&mut self, env: &Env, faults: &mut Faults) -> io::Result<String> {
        self.store = self.dir.join("store");
        let (cost, report) = self.pass(env, 1, "fill", (0, self.doc.units), faults)?;
        self.fill = cost;
        self.fill_report = report;
        self.fill_ledger = std::fs::read(self.store.join(LEDGER))?;
        Ok(sha256_hex(&self.fill_report))
    }

    /// [`CACHE_HIT_PASSES`] all-hit passes against the filled store,
    /// starting from the ledger the fill pass left: a hit appends a
    /// ledger line, opening a store replays the ledger, and without
    /// the reset each operation would be slower than the one before.
    fn operation(
        &mut self,
        env: &Env,
        threads: usize,
        i: usize,
        faults: &mut Faults,
    ) -> io::Result<(Cost, String)> {
        std::fs::write(self.store.join(LEDGER), &self.fill_ledger)?;
        self.passes.clear();
        for pass in 1..=CACHE_HIT_PASSES {
            let name = format!("op{i}-pass{pass}");
            let (cost, report) = self.pass(env, threads, &name, (self.doc.units, 0), faults)?;
            self.passes.push(cost);
            faults.require(report == self.fill_report, || {
                format!("hit pass {pass} report differs from the fill pass report")
            });
        }
        let total = self.passes.iter().fold(Cost::ZERO, |sum, c| sum.then(*c));
        Ok((total, sha256_hex(&self.fill_report)))
    }

    fn units(&self) -> u64 {
        self.doc.units * CACHE_HIT_PASSES as u64
    }

    fn finish(&mut self, env: &Env, checks: &mut Checks) -> io::Result<()> {
        let mut faults = Faults::default();
        let cost = env.mocc.run(
            &["cache", "verify", "--cache-dir", path_str(&self.store)],
            &self.dir.join("verify"),
        )?;
        faults.require(cost.ok, || "mocc cache verify found damage".into());
        checks.operation("cache verify", faults.0);
        Ok(())
    }
}

// ---- train_offline ---------------------------------------------------

struct Train {
    doc: Doc,
    spec_digest: String,
    dir: PathBuf,
    path: PathBuf,
}

fn string_field<'a>(obj: &'a Value, key: &str) -> Option<&'a str> {
    match obj {
        Value::Obj(o) => match o.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        },
        _ => None,
    }
}

impl Workload for Train {
    fn setup(&mut self, env: &Env, dir: &Path, faults: &mut Faults) -> io::Result<()> {
        self.dir = dir.to_path_buf();
        self.path = write_doc(dir, &self.doc)?;
        validate(env, dir, std::slice::from_ref(&self.path), faults)
    }

    /// `mocc train` into a fresh zoo. The model must carry the spec's
    /// digest as provenance and hash to its recorded digest.
    fn operation(
        &mut self,
        env: &Env,
        _threads: usize, // `mocc train` is single-threaded and takes no --threads
        i: usize,
        faults: &mut Faults,
    ) -> io::Result<(Cost, String)> {
        let zoo = self.dir.join(format!("zoo{i}"));
        let cost = env.mocc.run(
            &["train", path_str(&self.path), "--zoo", path_str(&zoo)],
            &self.dir.join(format!("op{i}")),
        )?;
        faults.require(cost.ok, || "mocc train exited non-zero".into());
        if !cost.ok {
            return Ok((cost, String::new()));
        }
        let model_dir = zoo.join("bench-train");
        let model = std::fs::read(model_dir.join("model.json"))?;
        let model_digest = sha256_hex(&model);
        let provenance = std::fs::read_to_string(model_dir.join("provenance.json"))?;
        let provenance: Value = serde_json::from_str(&provenance)
            .map_err(|e| io::Error::other(format!("provenance.json: {e}")))?;
        faults.require(
            string_field(&provenance, "spec_digest") == Some(&self.spec_digest),
            || "provenance spec_digest is not the spec's digest".into(),
        );
        faults.require(
            string_field(&provenance, "model_digest") == Some(&model_digest),
            || "provenance model_digest is not the model's digest".into(),
        );
        Ok((cost, model_digest))
    }

    fn units(&self) -> u64 {
        self.doc.units
    }
}

// ---- serve_session ---------------------------------------------------

/// Per-class request latencies of one or more sessions, milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    pub stats_ms: Vec<f64>,
}

pub struct Serve {
    plan: ServePlan,
    dir: PathBuf,
    store: PathBuf,
    /// The ledger as the priming session left it.
    primed_ledger: Vec<u8>,
    /// Miss latencies of the priming sessions, hit and `stats`
    /// latencies of the primed sessions so far.
    pub latencies: Latencies,
    /// The report each spec produced in the priming session.
    pub reports: Vec<String>,
}

/// One request line out, one response line back; the latency is from
/// the write of the request to the read of the response.
fn exchange(
    stdin: &mut impl Write,
    stdout: &mut impl BufRead,
    line: &str,
) -> io::Result<(f64, Value)> {
    let sent = Instant::now();
    stdin.write_all(line.as_bytes())?;
    stdin.write_all(b"\n")?;
    stdin.flush()?;
    let mut response = String::new();
    stdout.read_line(&mut response)?;
    let ms = sent.elapsed().as_secs_f64() * 1e3;
    let value = serde_json::from_str(&response)
        .map_err(|e| io::Error::other(format!("serve response does not parse: {e}")))?;
    Ok((ms, value))
}

/// The two ends of a piped daemon's protocol.
fn protocol(child: &mut std::process::Child) -> (impl Write, impl BufRead) {
    let stdin = child.stdin.take().expect("stdin is piped");
    let stdout = child.stdout.take().expect("stdout is piped");
    (stdin, BufReader::new(stdout))
}

fn response_ok(v: &Value) -> bool {
    matches!(v, Value::Obj(o) if o.get("ok") == Some(&Value::Bool(true)))
}

impl Serve {
    pub fn new(seed: u64) -> Self {
        Serve {
            plan: gen::serve_session(seed),
            dir: PathBuf::new(),
            store: PathBuf::new(),
            primed_ledger: Vec::new(),
            latencies: Latencies::default(),
            reports: Vec::new(),
        }
    }

    /// The priming session: the plan against a fresh store under
    /// `dir`, one worker thread. A fifth of its `run` requests carry a
    /// spec the store has not seen (16 misses: simulate and put), the
    /// rest repeat an earlier one (16 hits). Leaves the filled store,
    /// its ledger and every spec's report for [`Serve::session`].
    pub fn prime(&mut self, mocc: &Mocc, dir: &Path, checks: &mut Checks) -> io::Result<Cost> {
        self.dir = dir.to_path_buf();
        self.store = dir.join("store");
        self.reports = vec![String::new(); self.plan.specs];
        let cost = self.converse(mocc, 1, "prime", false, checks)?;
        self.primed_ledger = std::fs::read(self.store.join(LEDGER))?;
        Ok(cost)
    }

    /// One timed session: a daemon on the primed store (its ledger
    /// reset to what priming left, for the reason given at
    /// [`CacheCycle::operation`]), the same plan, every `run` request
    /// now 16 hits. Misses are kept out of the timed sessions because
    /// each one creates 16 files, whose cost is the file system's
    /// (benchmark/README.md); the traced run reports their latency.
    pub fn session(
        &mut self,
        mocc: &Mocc,
        threads: usize,
        i: usize,
        checks: &mut Checks,
    ) -> io::Result<(Cost, String)> {
        std::fs::write(self.store.join(LEDGER), &self.primed_ledger)?;
        let cost = self.converse(mocc, threads, &format!("op{i}"), true, checks)?;
        Ok((cost, sha256_hex(self.reports.concat().as_bytes())))
    }

    /// One daemon, one closed-loop client sending the whole plan and
    /// then `shutdown`. Every request is one operation of `checks`.
    fn converse(
        &mut self,
        mocc: &Mocc,
        threads: usize,
        log: &str,
        primed: bool,
        checks: &mut Checks,
    ) -> io::Result<Cost> {
        let threads = threads.to_string();
        let running = mocc.spawn_piped(
            &[
                "serve",
                "--cache-dir",
                path_str(&self.store),
                "--threads",
                &threads,
            ],
            &self.dir.join(log),
        )?;
        let Serve {
            plan,
            latencies,
            reports,
            ..
        } = self;
        let (cost, ()) = running.finish(|child| {
            let (mut stdin, mut stdout) = protocol(child);
            for (request, line) in &plan.requests {
                let (ms, response) = exchange(&mut stdin, &mut stdout, line)?;
                let mut faults = Faults::default();
                faults.require(response_ok(&response), || "response is not ok:true".into());
                if let Request::Miss { spec } | Request::Hit { spec } = request {
                    let Value::Obj(o) = &response else {
                        return Err(io::Error::other("serve response is not an object"));
                    };
                    let count = |k: &str| o.get(k).and_then(Value::as_u64);
                    let miss = !primed && matches!(request, Request::Miss { .. });
                    let want = if miss {
                        (Some(0), Some(16))
                    } else {
                        (Some(16), Some(0))
                    };
                    let got = (count("hits"), count("misses"));
                    faults.require(got == want, || {
                        format!("(hits, misses) {got:?}, want {want:?}")
                    });
                    let report = o
                        .get("report")
                        .map(|r| serde_json::to_string(r).expect("report serializes"))
                        .unwrap_or_default();
                    if miss {
                        latencies.miss_ms.push(ms);
                        reports[*spec] = report;
                    } else {
                        if primed {
                            latencies.hit_ms.push(ms);
                        }
                        faults.require(report == reports[*spec], || {
                            "a spec seen before returned a different report".into()
                        });
                    }
                } else if primed && *request == Request::Stats {
                    latencies.stats_ms.push(ms);
                }
                checks.operation(&format!("serve request {line:.60}"), faults.0);
            }
            let (_, bye) = exchange(&mut stdin, &mut stdout, "{\"op\":\"shutdown\"}")?;
            checks.operation(
                "serve shutdown",
                if response_ok(&bye) {
                    vec![]
                } else {
                    vec!["not ok:true".into()]
                },
            );
            Ok(())
        })?;
        let mut faults = Faults::default();
        faults.require(cost.ok, || "mocc serve exited non-zero".into());
        checks.operation("serve daemon exit", faults.0);
        Ok(cost)
    }
}

impl Workload for Serve {
    /// Besides the inputs: daemon spawn to first `ping` reply.
    fn setup(&mut self, env: &Env, dir: &Path, faults: &mut Faults) -> io::Result<()> {
        self.dir = dir.to_path_buf();
        let sample = write_doc(dir, &self.plan.sample)?;
        validate(env, dir, std::slice::from_ref(&sample), faults)?;
        let running = env.mocc.spawn_piped(
            &["serve", "--cache-dir", path_str(&dir.join("setup-store"))],
            &dir.join("setup-serve"),
        )?;
        let (cost, ()) = running.finish(|child| {
            let (mut stdin, mut stdout) = protocol(child);
            let (_, pong) = exchange(&mut stdin, &mut stdout, "{\"op\":\"ping\"}")?;
            faults.require(response_ok(&pong), || "first ping not ok:true".into());
            exchange(&mut stdin, &mut stdout, "{\"op\":\"shutdown\"}")?;
            Ok(())
        })?;
        faults.require(cost.ok, || "mocc serve exited non-zero".into());
        Ok(())
    }

    fn reference(&mut self, env: &Env, faults: &mut Faults) -> io::Result<String> {
        let mut checks = Checks::default();
        let dir = self.dir.clone();
        self.prime(&env.mocc, &dir, &mut checks)?;
        faults.0.extend(checks.reasons);
        Ok(sha256_hex(self.reports.concat().as_bytes()))
    }

    fn operation(
        &mut self,
        env: &Env,
        threads: usize,
        i: usize,
        faults: &mut Faults,
    ) -> io::Result<(Cost, String)> {
        let mut checks = Checks::default();
        let out = self.session(&env.mocc, threads, i, &mut checks)?;
        faults.0.extend(checks.reasons);
        Ok(out)
    }

    fn units(&self) -> u64 {
        gen::SERVE_RUNS as u64
    }
}

// ---- the run ---------------------------------------------------------

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    if let Some(docs) = gen::sweep_docs(name, seed) {
        return Some(Box::new(Sweep {
            docs,
            dir: PathBuf::new(),
            paths: Vec::new(),
        }));
    }
    match name {
        "cache_cycle" => Some(Box::new(CacheCycle::new(seed))),
        "train_offline" => {
            let doc = gen::train_offline(seed);
            let spec_digest = sha256_hex(doc.json.as_bytes());
            Some(Box::new(Train {
                doc,
                spec_digest,
                dir: PathBuf::new(),
                path: PathBuf::new(),
            }))
        }
        "serve_session" => Some(Box::new(Serve::new(seed))),
        _ => None,
    }
}

/// One real cache cycle on the binary — the fill pass and one
/// operation's hit passes at `env.threads` workers — for the traced
/// run's fill and hit rates.
pub fn cache_cycle_on_binary(env: &Env, checks: &mut Checks) -> io::Result<CacheCycle> {
    let mut w = CacheCycle::new(env.seed);
    let dir = env.work.join("cycle");
    std::fs::create_dir_all(&dir)?;
    let mut faults = Faults::default();
    w.setup(env, &dir, &mut faults)?;
    w.reference(env, &mut faults)?;
    w.operation(env, env.threads, 1, &mut faults)?;
    checks.operation("one cache cycle on the binary", faults.0);
    w.finish(env, checks)?;
    Ok(w)
}

/// The three shipped example specs must reproduce their committed
/// golden fixtures byte for byte — the tie between what this benchmark
/// times and outputs known to be right.
pub fn golden_check(env: &Env, checks: &mut Checks) -> io::Result<()> {
    let dir = env.work.join("golden");
    std::fs::create_dir_all(&dir)?;
    for (spec, fixture) in [
        ("sweep_cubic", "golden_cubic"),
        ("sweep_replay", "golden_replay"),
        ("competition_mocc", "golden_competition_mocc"),
    ] {
        let mut faults = Faults::default();
        let doc = env.mocc.root.join(format!("examples/specs/{spec}.json"));
        let out = dir.join(format!("{spec}.json"));
        let (_, report) = mocc_run(env, &doc, env.threads, &out, &[], &mut faults)?;
        let want = std::fs::read(env.mocc.root.join(format!("tests/fixtures/{fixture}.json")))?;
        faults.require(report == want, || {
            format!("report differs from tests/fixtures/{fixture}.json")
        });
        checks.operation(&format!("golden {spec}"), faults.0);
    }
    Ok(())
}

/// Flushes the deletions under `dir`'s parent to disk, so that the
/// next run does not start with this run's write-back in flight.
fn remove_and_sync(dir: &Path) -> io::Result<()> {
    std::fs::remove_dir_all(dir)?;
    if let Some(parent) = dir.parent() {
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// Runs one workload end to end for about `seconds` of timed
/// operations.
pub fn run(name: &str, env: &Env, seconds: u64) -> io::Result<Report> {
    let mut w = workload(name, env.seed)
        .ok_or_else(|| io::Error::other(format!("unknown workload {name:?}")))?;
    std::fs::create_dir_all(&env.work)?;
    let mut checks = Checks::default();
    golden_check(env, &mut checks)?;

    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // Set-up number 0 makes the inputs the operations use. The others
    // (on a second instance, into directories of their own) are spread
    // over the run, one before each timed operation: back to back they
    // would all fall into the same few milliseconds and share whatever
    // the machine was doing just then.
    let mut spare = workload(name, env.seed).expect("name was just resolved");
    let mut setups = 0;
    let mut setup = |w: &mut dyn Workload, checks: &mut Checks| -> io::Result<f64> {
        let dir = env.work.join(format!("setup{setups}"));
        setups += 1;
        let mut faults = Faults::default();
        let started = Instant::now();
        std::fs::create_dir_all(&dir)?;
        w.setup(env, &dir, &mut faults)?;
        let s = started.elapsed().as_secs_f64();
        checks.operation("set-up", faults.0);
        Ok(s)
    };
    let mut setup_s = vec![setup(w.as_mut(), &mut checks)?];

    // The reference: same inputs, one worker.
    let mut faults = Faults::default();
    let reference = w.reference(env, &mut faults)?;
    checks.operation("reference run (--threads 1)", faults.0);

    // Operation 1 is a warm-up at full width, checked but not timed:
    // page cache and allocator aside, a virtual machine may take a
    // second of multi-threaded demand to bring its other processors
    // back from idle (benchmark/README.md, baseline observations).
    let mut started = Instant::now();
    let mut i = 0;
    while i < 1 + MIN_OPS || started.elapsed().as_secs_f64() < seconds as f64 {
        i += 1;
        let mut faults = Faults::default();
        let (cost, digest) = w.operation(env, env.threads, i, &mut faults)?;
        faults.require(digest == reference, || {
            format!("outputs differ from the --threads 1 reference ({digest} vs {reference})")
        });
        if i == 1 {
            checks.operation("warm-up operation", faults.0);
            started = Instant::now();
            continue;
        }
        checks.operation(&format!("timed operation {}", i - 1), faults.0);
        if setup_s.len() < SETUP_REPS {
            setup_s.push(setup(spare.as_mut(), &mut checks)?);
        }
        let mut push = |metric, v| samples.entry(metric).or_default().push(v);
        push("wall_s", cost.wall_s);
        push("cpu_s", cost.cpu_s);
        push("peak_rss_mb", cost.peak_rss_mb);
        push("work_per_s", w.units() as f64 / cost.wall_s);
    }
    while setup_s.len() < SETUP_REPS {
        setup_s.push(setup(spare.as_mut(), &mut checks)?);
    }
    samples.insert("setup_s", setup_s);
    w.finish(env, &mut checks)?;
    remove_and_sync(&env.work)?;
    Ok(Report {
        checks,
        samples,
        digest: reference,
    })
}
