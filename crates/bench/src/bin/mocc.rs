//! `mocc` — the spec-file CLI: validate and run declarative
//! experiments end to end, no recompilation.
//!
//! ```text
//! mocc run <spec.json> [--threads N] [--out FILE] [--cache] [--cache-dir DIR]
//! mocc hunt <spec.json> [--budget N] [--baseline SCHEME] [--out-dir DIR] [--seed N] [--threads N]
//! mocc train <spec.json> [--zoo DIR] [--resume DIR] [--out FILE] [--max-iters N]
//! mocc validate <spec.json>...
//! mocc list-schemes
//! mocc cache stats|verify|gc [--cache-dir DIR] [--older-than-days N]
//! mocc serve [--cache-dir DIR] [--socket PATH] [--threads N]
//! mocc audit [ROOT] [--format json|text] [--rule ID]
//! ```
//!
//! `run` loads an [`ExperimentSpec`] document (see `docs/SPECS.md`),
//! validates it against the scheme registry, executes it — including
//! `mocc` schemes, whose policy the spec's `policy` section pins
//! reproducibly — and writes the canonical-JSON report to stdout (or
//! `--out`). The report is byte-identical for any `--threads` value.
//! With `--cache` the run is memoized per cell through the
//! content-addressed result store (see `docs/CACHING.md`): cells seen
//! before are served from disk, only missing cells are simulated, and
//! the report bytes are identical either way.
//!
//! `hunt` runs the coverage-guided adversarial search
//! (`mocc_core::hunt`, see `docs/EVALUATION.md`): starting from a
//! sweep spec whose scheme is a `mocc` label, it mutates the scenario
//! axes under a seeded RNG, scores the policy against a baseline
//! scheme on each candidate cell, and writes every losing regime to
//! `--out-dir` as a ready-to-run spec file that `mocc validate`
//! accepts.
//!
//! `train` runs a [`TrainSpec`] document (see `docs/TRAINING.md`)
//! through the checkpointed offline trainer and lands the artifact in
//! the model zoo (`models/` by default) with provenance — spec digest,
//! seed, iteration count, final eval metrics. Runs checkpoint
//! periodically; a killed run resumed with `--resume` produces a
//! byte-identical final model.
//!
//! `validate` checks documents without running anything — experiment
//! and train specs alike, dispatching on the document's `kind` — and
//! every problem is a typed [`SpecError`] naming the offending label
//! or field. `list-schemes` prints the scheme vocabulary and the label
//! grammar. `cache` inspects and maintains the store; `serve` answers
//! spec requests over a line-delimited JSON protocol (stdin/stdout,
//! or a Unix socket with `--socket`), sharing one store across
//! clients.
//!
//! `audit` runs the workspace's static-analysis pass (`mocc-audit`,
//! see `docs/AUDIT.md`): byte-determinism and unsafe-hygiene contract
//! rules over every workspace crate, exiting nonzero on any finding.
//!
//! [`SpecError`]: mocc_eval::SpecError
//! [`TrainSpec`]: mocc_core::TrainSpec

use mocc_bench::serve::Server;
use mocc_core::{TrainOptions, TrainSpec};
use mocc_eval::{ExperimentSpec, SchemeRegistry, SpecError, SweepRunner};
use mocc_store::ResultStore;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
mocc — run declarative MOCC experiment specs (docs/SPECS.md)

USAGE:
    mocc run <spec.json> [--threads N] [--out FILE] [--cache] [--cache-dir DIR]
    mocc hunt <spec.json> [--budget N] [--baseline SCHEME] [--out-dir DIR] [--seed N] [--threads N]
    mocc train <spec.json> [--zoo DIR] [--resume DIR] [--out FILE] [--max-iters N]
    mocc validate <spec.json>...
    mocc list-schemes
    mocc cache stats|verify|gc [--cache-dir DIR] [--older-than-days N]
    mocc serve [--cache-dir DIR] [--socket PATH] [--threads N]
    mocc audit [ROOT] [--format json|text] [--rule ID]

OPTIONS (run):
    --threads N   worker threads (default: MOCC_SWEEP_THREADS or all cores)
    --out FILE    write the canonical-JSON report to FILE instead of stdout
    --cache       memoize cells through the result store (docs/CACHING.md)
    --cache-dir DIR  store location (implies --cache; default: the `store`
                     subdirectory of the cache root, which is $MOCC_CACHE_DIR
                     or target/mocc-cache and also holds trained models)

OPTIONS (hunt):
    --budget N        candidate cells to evaluate (default: 24; each costs
                      two one-cell runs, policy and baseline)
    --baseline SCHEME registry scheme to score against (default: cubic)
    --out-dir DIR     where losing spec files land (default: target/mocc-hunt)
    --seed N          mutation RNG seed (default: 7; independent of the
                      spec's simulation seed)

OPTIONS (train):
    --zoo DIR      model zoo directory (default: $MOCC_ZOO_DIR or models)
    --resume DIR   resume from the checkpoints in DIR (and keep
                   checkpointing there)
    --out FILE     also copy the final model.json to FILE
    --max-iters N  stop after N total schedule iterations (the run can
                   be resumed later)

OPTIONS (cache gc):
    --older-than-days N  also drop entries untouched for more than N days

OPTIONS (serve):
    --socket PATH  accept connections on a Unix socket instead of stdin

OPTIONS (audit):
    --format FMT   report format: text (default) or json (canonical,
                   byte-stable — see docs/AUDIT.md)
    --rule ID      report only findings of one rule
    ROOT           workspace root to scan (default: ascend from the
                   working directory to the [workspace] Cargo.toml)
";

/// Environment variable naming the default model zoo directory.
const ZOO_DIR_ENV: &str = "MOCC_ZOO_DIR";
/// Fallback zoo directory (relative to the working directory).
const DEFAULT_ZOO_DIR: &str = "models";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("hunt") => cmd_hunt(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("list-schemes") => cmd_list_schemes(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// What follows a flag on the command line.
#[derive(Clone, Copy)]
enum Takes {
    Nothing,
    /// An integer of at least this value.
    Number(u64),
    /// Free text; the payload completes "`--flag` needs …".
    Text(&'static str),
}

/// Every flag of every subcommand. A subcommand accepts only the ones
/// it names in its [`parse_args`] call.
const FLAGS: &[(&str, Takes)] = &[
    ("--threads", Takes::Number(1)),
    ("--out", Takes::Text("a file path")),
    ("--cache", Takes::Nothing),
    ("--cache-dir", Takes::Text("a directory path")),
    ("--older-than-days", Takes::Number(1)),
    ("--zoo", Takes::Text("a directory path")),
    ("--resume", Takes::Text("a checkpoint directory")),
    ("--max-iters", Takes::Number(1)),
    ("--budget", Takes::Number(1)),
    ("--seed", Takes::Number(0)),
    ("--baseline", Takes::Text("a scheme label")),
    ("--out-dir", Takes::Text("a directory path")),
    ("--socket", Takes::Text("a path")),
    ("--format", Takes::Text("`json` or `text`")),
    ("--rule", Takes::Text("a rule id")),
];

/// The checked value one flag carried.
enum Given {
    Switch,
    Number(u64),
    Text(String),
}

/// The flags one invocation carried.
#[derive(Default)]
struct Flags(BTreeMap<&'static str, Given>);

impl Flags {
    fn has(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        match self.0.get(flag)? {
            Given::Text(text) => Some(text),
            _ => None,
        }
    }

    fn number(&self, flag: &str) -> Option<u64> {
        match self.0.get(flag)? {
            Given::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn count(&self, flag: &str) -> Option<usize> {
        self.number(flag).map(|n| n as usize)
    }
}

/// Splits `args` into positional arguments and flags. `accepts` is the
/// subcommand's declaration of the flags it takes: a flag that exists
/// but belongs to another subcommand is an error naming both, never
/// silently ignored.
fn parse_args<'a>(
    cmd: &str,
    accepts: &[&str],
    args: &'a [String],
) -> Result<(Vec<&'a str>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positional.push(arg.as_str());
            continue;
        }
        let Some(&(flag, takes)) = FLAGS.iter().find(|(flag, _)| flag == arg) else {
            return Err(format!("unknown option {arg:?}\n\n{USAGE}"));
        };
        if !accepts.contains(&flag) {
            return Err(match accepts {
                [] => format!("`mocc {cmd}` does not take {flag}: it takes no options"),
                _ => format!(
                    "`mocc {cmd}` does not take {flag}: it takes only {}",
                    accepts.join(", ")
                ),
            });
        }
        let value = match takes {
            Takes::Nothing => Given::Switch,
            Takes::Number(min) => {
                let what = match min {
                    0 => "an unsigned integer",
                    _ => "a positive integer",
                };
                let raw = it.next().ok_or_else(|| format!("{flag} needs {what}"))?;
                let n = raw.parse::<u64>().ok().filter(|n| *n >= min);
                Given::Number(n.ok_or_else(|| format!("{flag} {raw:?} is not {what}"))?)
            }
            Takes::Text(what) => Given::Text(
                it.next()
                    .ok_or_else(|| format!("{flag} needs {what}"))?
                    .clone(),
            ),
        };
        flags.0.insert(flag, value);
    }
    Ok((positional, flags))
}

/// Opens the result store: `--cache-dir`, else the `store`
/// subdirectory of the one cache root ([`mocc_bench::cache_dir`]:
/// `$MOCC_CACHE_DIR`, else `target/mocc-cache`).
fn open_store(flags: &Flags) -> Result<ResultStore, String> {
    let root = match flags.text("--cache-dir") {
        Some(dir) => PathBuf::from(dir),
        None => mocc_bench::cache_dir()?.join("store"),
    };
    let store = ResultStore::open(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    if store.repaired_tail() {
        eprintln!(
            "[mocc] cache: repaired a half-written ledger line in {}",
            root.display()
        );
    }
    Ok(store)
}

fn runner(flags: &Flags) -> Result<SweepRunner, String> {
    match flags.count("--threads") {
        Some(n) => Ok(SweepRunner::with_threads(n)),
        None => SweepRunner::from_env(),
    }
}

/// Unix seconds — the CLI's timestamp chokepoint; libraries take
/// timestamps as arguments to stay deterministic. One of the two
/// named clock sites (`mocc audit` clock-discipline; the other is
/// `mocc_bench::timing`).
fn now_ts() -> u64 {
    // audit:allow(clock-discipline): the CLI timestamp chokepoint — timestamps flow into the cache ledger, never into results
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The `--older-than-days N` cutoff for `mocc cache gc`: entries last
/// touched *strictly before* `now − N·86 400` are dropped (a ledger
/// timestamp exactly at the cutoff survives — see the store's gc
/// contract). `None` disables the age filter. Computed once here from
/// the CLI's single clock read ([`now_ts`]); the store itself never
/// reads a clock. Both steps saturate so absurd `N` values clamp the
/// cutoff to the epoch instead of wrapping around.
fn gc_cutoff(now: u64, older_than_days: Option<u64>) -> Option<u64> {
    older_than_days.map(|days| now.saturating_sub(days.saturating_mul(86_400)))
}

/// Prefixes a spec-level error with the spec file it arose in — except
/// an I/O error on that very file, which already names it.
fn in_file(path: &str) -> impl Fn(SpecError) -> String + '_ {
    move |e| match &e {
        SpecError::Io { path: p, .. } if p == path => e.to_string(),
        _ => format!("{path}: {e}"),
    }
}

fn load_spec(path: &str) -> Result<ExperimentSpec, String> {
    ExperimentSpec::load(Path::new(path)).map_err(in_file(path))
}

/// Best-effort peek at a spec document's `kind` tag, for dispatching
/// between experiment and train specs. Unreadable or malformed files
/// return `None` and fall through to the full parser, which owns the
/// real error message.
fn spec_kind(path: &str) -> Option<String> {
    let text = mocc_store::read_text(Path::new(path)).ok()?;
    let Value::Obj(obj) = serde_json::from_str(&text).ok()? else {
        return None;
    };
    match obj.get("kind") {
        Some(Value::Str(kind)) => Some(kind.clone()),
        _ => None,
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let accepts = ["--threads", "--out", "--cache", "--cache-dir"];
    let (positional, flags) = parse_args("run", &accepts, args)?;
    let &[path] = positional.as_slice() else {
        return Err(format!("`mocc run` takes exactly one spec file\n\n{USAGE}"));
    };
    if spec_kind(path).as_deref() == Some("train") {
        return Err(format!(
            "{path} is a training spec — run it with `mocc train {path}`"
        ));
    }
    let exp = load_spec(path)?;
    let runner = runner(&flags)?;
    eprintln!(
        "[mocc] {}: {} cells over {} worker threads",
        exp.name,
        exp.cell_count(),
        runner.threads()
    );
    let json = if flags.has("--cache") || flags.has("--cache-dir") {
        let store = open_store(&flags)?;
        let (report, stats) = mocc_core::run_experiment_cached(&runner, &exp, &store, now_ts())
            .map_err(in_file(path))?;
        eprintln!(
            "[mocc] cache: {} hits, {} misses ({})",
            stats.hits,
            stats.misses,
            store.root().display()
        );
        report.to_canonical_json()
    } else {
        mocc_core::run_experiment(&runner, &exp)
            .map_err(in_file(path))?
            .to_canonical_json()
    };
    match flags.text("--out") {
        Some(out) => std::fs::write(out, &json).map_err(|e| format!("{out}: {e}"))?,
        None => println!("{json}"),
    }
    Ok(())
}

/// Runs the coverage-guided adversarial search over one sweep spec:
/// mutate scenario axes under a seeded RNG, score the MOCC policy
/// against a baseline scheme per cell, and emit every losing regime
/// as a ready-to-run spec file.
fn cmd_hunt(args: &[String]) -> Result<(), String> {
    let accepts = ["--budget", "--baseline", "--out-dir", "--seed", "--threads"];
    let (positional, flags) = parse_args("hunt", &accepts, args)?;
    let &[path] = positional.as_slice() else {
        return Err(format!(
            "`mocc hunt` takes exactly one spec file\n\n{USAGE}"
        ));
    };
    let exp = load_spec(path)?;
    let mut hunt_opts = mocc_core::HuntOptions::default();
    if let Some(budget) = flags.count("--budget") {
        hunt_opts.budget = budget;
    }
    if let Some(baseline) = flags.text("--baseline") {
        hunt_opts.baseline = baseline.to_string();
    }
    if let Some(dir) = flags.text("--out-dir") {
        hunt_opts.out_dir = PathBuf::from(dir);
    }
    if let Some(seed) = flags.number("--seed") {
        hunt_opts.seed = seed;
    }
    let runner = runner(&flags)?;
    eprintln!(
        "[mocc] hunt {}: budget {} vs baseline {:?}, seed {}, {} worker threads",
        exp.name,
        hunt_opts.budget,
        hunt_opts.baseline,
        hunt_opts.seed,
        runner.threads()
    );
    let outcome = mocc_core::hunt(&runner, &exp, &hunt_opts).map_err(in_file(path))?;
    for f in &outcome.findings {
        println!(
            "{}  margin {:+.4} (mocc {:.4} vs {} {:.4})",
            f.path.display(),
            f.margin,
            f.mocc_utility,
            hunt_opts.baseline,
            f.baseline_utility
        );
    }
    eprintln!(
        "[mocc] hunt {}: {} candidates evaluated, {} regimes covered, {} losing specs in {}",
        exp.name,
        outcome.evaluated,
        outcome.coverage,
        outcome.findings.len(),
        hunt_opts.out_dir.display()
    );
    Ok(())
}

/// Runs (or resumes) one training spec through the checkpointed
/// trainer; a completed run lands in the zoo with provenance.
fn cmd_train(args: &[String]) -> Result<(), String> {
    let accepts = ["--zoo", "--resume", "--out", "--max-iters"];
    let (positional, flags) = parse_args("train", &accepts, args)?;
    let &[path] = positional.as_slice() else {
        return Err(format!(
            "`mocc train` takes exactly one spec file\n\n{USAGE}"
        ));
    };
    let spec = TrainSpec::load(Path::new(path)).map_err(in_file(path))?;
    spec.validate().map_err(in_file(path))?;

    // The model zoo root: `--zoo`, else `$MOCC_ZOO_DIR`, else the
    // in-repo default.
    let zoo = match flags.text("--zoo") {
        Some(dir) => PathBuf::from(dir),
        // audit:allow(env-discipline): strict-parse helper — the one reader of MOCC_ZOO_DIR
        None => std::env::var(ZOO_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from(DEFAULT_ZOO_DIR)),
    };
    let resume = flags.text("--resume").map(PathBuf::from);
    let checkpoint_dir = match &resume {
        Some(dir) => dir.clone(),
        None => zoo.join(&spec.name).join("checkpoints"),
    };
    let train_opts = TrainOptions {
        checkpoint_dir: Some(checkpoint_dir.clone()),
        resume_from: resume,
        max_iters: flags.count("--max-iters"),
        // Wall-time logging only; training itself never reads a clock.
        clock: Some(mocc_bench::timing::monotonic_secs),
    };
    let total = spec.schedule_len().map_err(in_file(path))?;
    eprintln!(
        "[mocc] train {}: {} scheduled iterations, spec digest {}",
        spec.name,
        total,
        &spec.digest()[..12]
    );

    let run = mocc_core::train_spec(&spec, &train_opts).map_err(in_file(path))?;
    if !run.completed {
        eprintln!(
            "[mocc] train {}: stopped at iteration {} of {}; resume with \
             `mocc train {path} --zoo {} --resume {}`",
            spec.name,
            run.outcome.iterations,
            total,
            zoo.display(),
            checkpoint_dir.display()
        );
        return Ok(());
    }
    let model_path = mocc_core::save_trained(&zoo, &spec, &run.agent, run.outcome.iterations)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "[mocc] train {}: {} iterations in {:.1}s -> {}",
        spec.name,
        run.outcome.iterations,
        run.outcome.wall_secs,
        model_path.display()
    );
    if let Some(out) = flags.text("--out") {
        std::fs::copy(&model_path, out).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("[mocc] train {}: copied model to {out}", spec.name);
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let (positional, _) = parse_args("validate", &[], args)?;
    if positional.is_empty() {
        return Err(format!("`mocc validate` takes spec files\n\n{USAGE}"));
    }
    let registry = SchemeRegistry::builtin();
    let mut failures = 0usize;
    for path in &positional {
        if spec_kind(path).as_deref() == Some("train") {
            match TrainSpec::load(Path::new(path))
                .and_then(|spec| spec.validate().map(|()| spec))
                .map_err(in_file(path))
            {
                Ok(spec) => {
                    println!(
                        "{path}: ok (train, {} iterations, model {})",
                        spec.schedule_len().expect("validated"),
                        spec.name
                    );
                }
                Err(msg) => {
                    eprintln!("{msg}");
                    failures += 1;
                }
            }
            continue;
        }
        match load_spec(path).and_then(|exp| {
            exp.validate_in(&registry).map_err(in_file(path))?;
            Ok(exp)
        }) {
            Ok(exp) => {
                let kind = match exp.needs_policy() {
                    true => "policy-driven",
                    false => "baseline-only",
                };
                println!("{path}: ok ({} cells, {kind})", exp.cell_count());
            }
            Err(msg) => {
                eprintln!("{msg}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} specs invalid", positional.len()));
    }
    Ok(())
}

fn cmd_list_schemes(args: &[String]) -> Result<(), String> {
    if !args.is_empty() {
        return Err("`mocc list-schemes` takes no arguments".to_string());
    }
    let registry = SchemeRegistry::builtin();
    println!("registry schemes:");
    for (name, summary) in registry.entries() {
        println!("  {name:<14} {summary}");
    }
    println!("\nmocc schemes (need a `policy` section in the spec):");
    println!("  mocc           the policy under the spec's default preference");
    println!("  mocc:thr       throughput preference <0.8, 0.1, 0.1>");
    println!("  mocc:lat       latency preference <0.1, 0.8, 0.1>");
    println!("  mocc:bal       balanced preference <1/3, 1/3, 1/3>");
    println!("  mocc:w1,w2,w3  explicit (thr, lat, loss) weights, normalized");
    println!(
        "\ncompetition mixes: duel:<a>+<b>[+…] | stair:<scheme>:<n>x<phase_s> \
         | incast:<scheme>:<n>x<stagger_s>"
    );
    Ok(())
}

fn cmd_cache(args: &[String]) -> Result<(), String> {
    let accepts = ["--cache-dir", "--older-than-days"];
    let (positional, flags) = parse_args("cache", &accepts, args)?;
    let &[action] = positional.as_slice() else {
        return Err(format!(
            "`mocc cache` takes one action: stats, verify, or gc\n\n{USAGE}"
        ));
    };
    let store = open_store(&flags)?;
    match action {
        "stats" => {
            let s = store.stats().map_err(|e| e.to_string())?;
            println!("store:        {}", store.root().display());
            println!("objects:      {} ({} bytes)", s.objects, s.object_bytes);
            println!("keys:         {}", s.keys);
            println!(
                "ledger:       {} puts, {} hits, {} misses",
                s.puts, s.hits, s.misses
            );
            if s.bad_ledger_lines > 0 || s.truncated_ledger_tail {
                println!(
                    "damage:       {} bad lines, truncated tail: {}",
                    s.bad_ledger_lines, s.truncated_ledger_tail
                );
            }
            Ok(())
        }
        "verify" => {
            let report = store.verify().map_err(|e| e.to_string())?;
            for issue in &report.issues {
                eprintln!("issue: {issue}");
            }
            if report.is_clean() {
                println!(
                    "{}: clean ({} objects verified)",
                    store.root().display(),
                    report.objects_checked
                );
                Ok(())
            } else {
                Err(format!(
                    "{}: {} issues found ({} objects verified); corrupt entries \
                     degrade to recomputation — run `mocc cache gc` to drop them",
                    store.root().display(),
                    report.issues.len(),
                    report.objects_checked
                ))
            }
        }
        "gc" => {
            let before = gc_cutoff(now_ts(), flags.number("--older-than-days"));
            let report = store.gc(before).map_err(|e| e.to_string())?;
            println!(
                "{}: kept {} objects, removed {}, dropped {} ledger lines",
                store.root().display(),
                report.kept,
                report.removed_objects,
                report.removed_ledger_lines
            );
            Ok(())
        }
        other => Err(format!(
            "unknown cache action {other:?}: expected stats, verify, or gc"
        )),
    }
}

/// Runs the workspace static-analysis pass (docs/AUDIT.md). Exits
/// nonzero on any finding, so CI can gate on it directly.
fn cmd_audit(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_args("audit", &["--format", "--rule"], args)?;
    let root = match positional.as_slice() {
        [] => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            mocc_audit::workspace_root_from(&cwd).ok_or_else(|| {
                "no [workspace] Cargo.toml above the working directory; pass the root explicitly"
                    .to_string()
            })?
        }
        [dir] => PathBuf::from(dir),
        _ => return Err(format!("`mocc audit` takes at most one root\n\n{USAGE}")),
    };
    let mut report = mocc_audit::audit_workspace(&root).map_err(|e| format!("audit: {e}"))?;
    if let Some(rule) = flags.text("--rule") {
        if mocc_audit::rules::rule_by_id(rule).is_none() {
            let known: Vec<&str> = mocc_audit::rules::RULES.iter().map(|r| r.id).collect();
            return Err(format!(
                "unknown rule {rule:?}; known rules: {}",
                known.join(", ")
            ));
        }
        report.retain_rule(rule);
    }
    match flags.text("--format") {
        None | Some("text") => print!("{}", report.to_text()),
        Some("json") => print!("{}", report.to_json()),
        Some(other) => return Err(format!("--format takes `json` or `text`, not {other:?}")),
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "audit found {} violation(s) (rules: docs/AUDIT.md)",
            report.findings.len()
        ))
    }
}

/// Runs the store-backed daemon (`mocc_bench::serve`, protocol in
/// docs/CACHING.md) over stdin/stdout, or over a Unix socket with
/// `--socket` — one client session after another until one of them
/// sends `shutdown`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let accepts = ["--cache-dir", "--socket", "--threads"];
    let (positional, flags) = parse_args("serve", &accepts, args)?;
    if !positional.is_empty() {
        return Err(format!(
            "`mocc serve` takes no positional arguments\n\n{USAGE}"
        ));
    }
    let runner = runner(&flags)?;
    // The one handle that keeps the reports of the blobs it verified: a
    // daemon serves the same cells again and again (docs/CACHING.md,
    // "The daemon's verified blobs").
    let store = open_store(&flags)?.with_verified_blobs();
    let server = Server {
        runner: &runner,
        store: &store,
        clock: now_ts,
    };
    match flags.text("--socket") {
        None => {
            eprintln!(
                "[mocc] serve: reading ops from stdin, store {}",
                store.root().display()
            );
            server.session(std::io::stdin().lock(), std::io::stdout().lock())?;
            Ok(())
        }
        Some(path) => {
            use std::os::unix::net::UnixListener;
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "[mocc] serve: listening on {path}, store {}",
                store.root().display()
            );
            for conn in listener.incoming() {
                let conn = conn.map_err(|e| e.to_string())?;
                let reader = std::io::BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
                if server.session(reader, conn)? {
                    break;
                }
            }
            let _ = std::fs::remove_file(path);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_cutoff_is_now_minus_whole_days() {
        assert_eq!(gc_cutoff(1_000_000, None), None);
        assert_eq!(gc_cutoff(1_000_000, Some(0)), Some(1_000_000));
        assert_eq!(gc_cutoff(1_000_000, Some(1)), Some(1_000_000 - 86_400));
        assert_eq!(gc_cutoff(1_000_000, Some(7)), Some(1_000_000 - 7 * 86_400));
    }

    #[test]
    fn gc_cutoff_saturates_instead_of_wrapping() {
        // More days than the clock holds: clamp to the epoch; an
        // entry at ts 0 still survives (`0 < 0` is false).
        assert_eq!(gc_cutoff(5, Some(1)), Some(0));
        assert_eq!(gc_cutoff(u64::MAX, Some(u64::MAX)), Some(0));
    }
}
