//! The benchmark harness behind `benchmark/run.sh` (which builds
//! `mocc` and this binary, then passes its arguments through).
//!
//! ```text
//! mocc-benchmark --mocc BIN --root DIR --out-dir DIR
//!                [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//! mocc-benchmark --compare A.json B.json --root DIR
//! ```
//!
//! Without `--trace 1` a workload is measured end to end on the real
//! binary (`workloads`); with it, the same generated inputs are
//! replayed in process under spans (`layers`). Every metric is printed
//! as `workload metric value unit`, and the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Without `--workload`, every workload runs in turn and
//! the medians also land in `<out-dir>/results.json` for `--compare`.

mod cc_tape;
mod child;
mod compare;
mod gen;
mod layers;
mod manifest;
mod stats;
mod trace;
mod workloads;

use serde::{Serialize, Value};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    mocc: Option<PathBuf>,
    root: PathBuf,
    out_dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    compare: Option<(PathBuf, PathBuf)>,
    build_s: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mocc: None,
        root: PathBuf::from("."),
        out_dir: PathBuf::from("target/benchmark"),
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        compare: None,
        build_s: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, raw: String) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("{flag} {raw:?} is not a number"))
        }
        match flag.as_str() {
            "--mocc" => args.mocc = Some(PathBuf::from(value()?)),
            "--root" => args.root = PathBuf::from(value()?),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(&flag, value()?)?,
            "--seconds" => args.seconds = number(&flag, value()?)?,
            "--build-s" => args.build_s = Some(number(&flag, value()?)?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !gen::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; the workloads are {}",
                gen::WORKLOADS.join(", ")
            ));
        }
    }
    Ok(args)
}

/// One workload's result: a summary per metric, and the run's checks.
struct Outcome {
    metrics: Vec<(String, &'static str, Summary)>,
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
    digest: String,
}

/// A JSON object from `(key, value)` pairs.
pub(crate) fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Outcome {
    fn print(&self, workload: &str) {
        for (name, unit, s) in &self.metrics {
            print!("{workload} {name} {} {unit}", s.median);
            if s.n > 1 {
                print!(
                    "  (quartiles {} .. {}, range {} .. {}, n={})",
                    s.q1, s.q3, s.min, s.max, s.n
                );
            }
            println!();
        }
        println!(
            "{workload} operations {} attempted, {} failed; outputs sha256 {}",
            self.attempted, self.failed, self.digest
        );
        for reason in &self.reasons {
            println!("{workload} FAILED {reason}");
        }
    }

    /// The result line the driver reads.
    fn result_line(&self) -> String {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                let m = object(vec![
                    ("value", Value::F64(s.median)),
                    ("unit", Value::Str(unit.to_string())),
                ]);
                (name.clone(), m)
            })
            .collect();
        serde_json::to_string(&object(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ]))
        .expect("result serializes")
    }

    /// The fuller record kept in `results.json`.
    fn to_value(&self) -> Value {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                let m = object(vec![
                    ("median", Value::F64(s.median)),
                    ("q1", Value::F64(s.q1)),
                    ("q3", Value::F64(s.q3)),
                    ("n", Value::U64(s.n as u64)),
                    ("unit", Value::Str(unit.to_string())),
                ]);
                (name.clone(), m)
            })
            .collect();
        object(vec![
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("outputs_sha256", Value::Str(self.digest.clone())),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

fn run_one(args: &Args, workload: &str) -> std::io::Result<Outcome> {
    let root = args.root.canonicalize()?;
    std::fs::create_dir_all(&args.out_dir)?;
    let out_dir = args.out_dir.canonicalize()?;
    let mocc = child::Mocc {
        bin: args
            .mocc
            .as_ref()
            .ok_or_else(|| std::io::Error::other("--mocc <path to the mocc binary> is required"))?
            .canonicalize()?,
        root,
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = out_dir.join(format!("work-{workload}-{}", std::process::id()));
    if args.trace {
        let traced = layers::run(workload, &mocc, &work, threads, args.seed)?;
        std::fs::write(
            out_dir.join(format!("trace.{workload}.json")),
            &traced.trace_json,
        )?;
        return Ok(Outcome {
            metrics: traced
                .metrics
                .into_iter()
                .map(|(name, unit, v)| (name, unit, stats::summarize(&[v])))
                .collect(),
            attempted: traced.checks.attempted,
            failed: traced.checks.failed,
            reasons: traced.checks.reasons,
            digest: traced.digest,
        });
    }
    let env = workloads::Env {
        mocc,
        work,
        threads,
        seed: args.seed,
    };
    let report = workloads::run(workload, &env, args.seconds)?;
    Ok(Outcome {
        metrics: workloads::END_TO_END
            .iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    *unit,
                    stats::summarize(&report.samples[name]),
                )
            })
            .collect(),
        attempted: report.checks.attempted,
        failed: report.checks.failed,
        reasons: report.checks.reasons,
        digest: report.digest,
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers of a full run were taken.
fn machine(args: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = args.root.to_str().unwrap_or(".");
    object(vec![
        (
            "git_rev",
            Value::Str(command_output("git", &["-C", root, "rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(command_output("rustc", &["--version"]))),
        ("cpu_model", Value::Str(cpu)),
        ("nproc", Value::U64(threads as u64)),
        ("threads", Value::U64(threads as u64)),
        ("seed", args.seed.to_value()),
        ("seconds", args.seconds.to_value()),
        ("trace", Value::Bool(args.trace)),
        ("build_s", args.build_s.map_or(Value::Null, Value::F64)),
    ])
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return compare::compare(&args.root, a, b);
    }
    if let Some(build_s) = args.build_s {
        println!("build_s {build_s} s  (both builds; not part of any metric)");
    }
    let io = |e: std::io::Error| e.to_string();
    if let Some(workload) = &args.workload {
        let outcome = run_one(args, workload).map_err(io)?;
        outcome.print(workload);
        println!("{}", outcome.result_line());
        return Ok(outcome.failed == 0);
    }
    let mut results = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for workload in gen::WORKLOADS {
        let outcome = run_one(args, workload).map_err(io)?;
        outcome.print(workload);
        attempted += outcome.attempted;
        failed += outcome.failed;
        results.insert(workload.to_string(), outcome.to_value());
    }
    let doc = object(vec![
        ("machine", machine(args)),
        ("workloads", Value::Obj(results)),
    ]);
    let path = args.out_dir.join("results.json");
    std::fs::write(
        &path,
        serde_json::to_string(&doc).expect("results serialize"),
    )
    .map_err(io)?;
    println!("results written to {}", path.display());
    println!(
        "{}",
        serde_json::to_string(&object(vec![
            ("correct", Value::Bool(failed == 0)),
            ("attempted", Value::U64(attempted)),
            ("failed", Value::U64(failed)),
        ]))
        .expect("summary serializes")
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
