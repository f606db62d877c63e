//! End-to-end tests for the `mocc` binary's cache surface: `run
//! --cache`, the `cache stats|verify|gc` subcommands, one smoke test
//! per `serve` transport (the protocol itself is tested in process, in
//! `mocc_bench::serve`), and the per-subcommand flag accept-lists.
//! Everything runs the real executable against the shipped example
//! specs and committed golden fixtures.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/bench sits two levels under the repo root")
        .to_path_buf()
}

/// The built `mocc` binary on `args`, run from the repository root.
fn mocc_command(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mocc"));
    cmd.args(args).current_dir(repo_root());
    cmd
}

fn mocc(args: &[&str]) -> Output {
    mocc_command(args).output().expect("mocc runs")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mocc-cli-cache-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Cold run fills the store, warm run is all-hit, and both `--out`
/// files are byte-identical to the committed golden fixture; the
/// maintenance subcommands agree the store is whole.
#[test]
fn run_cache_twice_matches_golden_and_store_verifies() {
    let dir = temp_dir("twice");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    let golden = std::fs::read(repo_root().join("tests/fixtures/golden_cubic.json"))
        .expect("golden fixture present");
    let spec = "examples/specs/sweep_cubic.json";

    let cold_out = dir.join("cold.json");
    let cold = mocc(&[
        "run",
        spec,
        "--cache-dir",
        store_arg,
        "--out",
        cold_out.to_str().expect("utf-8"),
    ]);
    assert!(
        cold.status.success(),
        "cold run failed: {}",
        stderr_of(&cold)
    );
    assert!(
        stderr_of(&cold).contains("cache: 0 hits, 16 misses"),
        "cold run not all-miss: {}",
        stderr_of(&cold)
    );
    assert_eq!(std::fs::read(&cold_out).expect("cold output"), golden);

    let warm_out = dir.join("warm.json");
    let warm = mocc(&[
        "run",
        spec,
        "--cache-dir",
        store_arg,
        "--out",
        warm_out.to_str().expect("utf-8"),
    ]);
    assert!(
        warm.status.success(),
        "warm run failed: {}",
        stderr_of(&warm)
    );
    assert!(
        stderr_of(&warm).contains("cache: 16 hits, 0 misses"),
        "warm run simulated cells: {}",
        stderr_of(&warm)
    );
    assert_eq!(std::fs::read(&warm_out).expect("warm output"), golden);

    let stats = mocc(&["cache", "stats", "--cache-dir", store_arg]);
    assert!(stats.status.success());
    let stats_text = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(
        stats_text.contains("objects:      16"),
        "stats: {stats_text}"
    );

    let verify = mocc(&["cache", "verify", "--cache-dir", store_arg]);
    assert!(verify.status.success(), "verify: {}", stderr_of(&verify));

    let gc = mocc(&["cache", "gc", "--cache-dir", store_arg]);
    assert!(gc.status.success(), "gc: {}", stderr_of(&gc));
    let gc_text = String::from_utf8_lossy(&gc.stdout).into_owned();
    assert!(gc_text.contains("kept 16 objects"), "gc: {gc_text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped bit in a stored blob makes `cache verify` exit nonzero;
/// the next cached run recomputes the damaged cell and still emits
/// golden bytes, after which `verify` passes again.
#[test]
fn corrupt_object_fails_verify_then_run_recovers() {
    let dir = temp_dir("corrupt");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    let spec = "examples/specs/sweep_cubic.json";
    let golden = std::fs::read(repo_root().join("tests/fixtures/golden_cubic.json"))
        .expect("golden fixture present");

    let cold = mocc(&["run", spec, "--cache-dir", store_arg, "--out", "/dev/null"]);
    assert!(
        cold.status.success(),
        "cold run failed: {}",
        stderr_of(&cold)
    );

    let shard = std::fs::read_dir(store.join("objects"))
        .expect("objects dir")
        .next()
        .expect("at least one shard")
        .expect("shard entry")
        .path();
    let blob = std::fs::read_dir(&shard)
        .expect("shard dir")
        .next()
        .expect("at least one blob")
        .expect("blob entry")
        .path();
    let mut bytes = std::fs::read(&blob).expect("read blob");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&blob, bytes).expect("corrupt blob");

    let verify = mocc(&["cache", "verify", "--cache-dir", store_arg]);
    assert!(
        !verify.status.success(),
        "verify missed the corruption: {}",
        String::from_utf8_lossy(&verify.stdout)
    );

    let out = dir.join("recovered.json");
    let recovered = mocc(&[
        "run",
        spec,
        "--cache-dir",
        store_arg,
        "--out",
        out.to_str().expect("utf-8"),
    ]);
    assert!(recovered.status.success(), "{}", stderr_of(&recovered));
    assert!(
        stderr_of(&recovered).contains("cache: 15 hits, 1 misses"),
        "recovery should recompute exactly the damaged cell: {}",
        stderr_of(&recovered)
    );
    assert_eq!(std::fs::read(&out).expect("recovered output"), golden);

    let verify = mocc(&["cache", "verify", "--cache-dir", store_arg]);
    assert!(
        verify.status.success(),
        "store not healed: {}",
        stderr_of(&verify)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The issue's reproducer, both forms: a copied cache directory whose
/// ledger holds `put` lines naming a file outside the store — an
/// absolute path and a `..` one, with a digest that cannot match, so a
/// `gc` that believed them would remove the "corrupt object". They are
/// bad lines: `gc` exits 0 and leaves both victims in place, `stats`
/// reports them as damage.
#[test]
fn hostile_ledger_path_cannot_reach_outside_the_store() {
    let dir = temp_dir("hostile");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    std::fs::create_dir_all(store.join("objects")).expect("store skeleton");
    let victims = [dir.join("thesis.tex"), dir.join("victim.txt")];
    let named = [victims[0].to_str().expect("utf-8"), "../victim.txt"];
    let mut ledger = String::new();
    for (i, (victim, path)) in victims.iter().zip(named).enumerate() {
        std::fs::write(victim, "years of work").expect("victim");
        ledger += &format!(
            "{{\"content\":\"{}\",\"event\":\"put\",\"key\":\"{}{i}\",\"path\":\"{path}\",\"ts\":1}}\n",
            "0".repeat(64),
            "0".repeat(63),
        );
    }
    std::fs::write(store.join("ledger.jsonl"), ledger).expect("hostile ledger");

    let stats = mocc(&["cache", "stats", "--cache-dir", store_arg]);
    assert!(stats.status.success(), "stats: {}", stderr_of(&stats));
    let stats_text = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(stats_text.contains("keys:         0"), "{stats_text}");
    assert!(
        stats_text.contains("damage:       2 bad lines, truncated tail: false"),
        "{stats_text}"
    );

    let gc = mocc(&["cache", "gc", "--cache-dir", store_arg]);
    assert!(gc.status.success(), "gc: {}", stderr_of(&gc));
    let gc_text = String::from_utf8_lossy(&gc.stdout).into_owned();
    assert!(
        gc_text.contains("kept 0 objects, removed 0, dropped 2 ledger lines"),
        "gc: {gc_text}"
    );
    for victim in &victims {
        assert_eq!(
            std::fs::read_to_string(victim).expect("victim survives gc"),
            "years of work"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stdin/stdout transport is wired to the serve module: a warm
/// store answers a run-by-path all-hit between a ping and a clean
/// shutdown. (Every protocol case lives in `mocc_bench::serve`'s
/// in-process tests.)
#[test]
fn serve_answers_over_stdin() {
    let dir = temp_dir("serve");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    let spec = "examples/specs/sweep_cubic.json";

    let warmup = mocc(&["run", spec, "--cache-dir", store_arg, "--out", "/dev/null"]);
    assert!(
        warmup.status.success(),
        "warm-up run failed: {}",
        stderr_of(&warmup)
    );

    let mut child = mocc_command(&["serve", "--cache-dir", store_arg])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    writeln!(stdin, "{{\"op\":\"ping\"}}").expect("write ping");
    writeln!(stdin, "{{\"op\":\"run\",\"path\":\"{spec}\"}}").expect("write run");
    writeln!(stdin, "{{\"op\":\"shutdown\"}}").expect("write shutdown");
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.expect("read response")).collect();
    assert_eq!(lines.len(), 3, "one response per request: {lines:#?}");
    assert_eq!(lines[0], "{\"ok\":true,\"op\":\"ping\"}");
    assert!(
        lines[1].starts_with("{\"hits\":16,\"misses\":0,\"ok\":true,\"report\":"),
        "warm serve run should be all-hit: {}",
        &lines[1][..lines[1].len().min(120)]
    );
    assert_eq!(lines[2], "{\"ok\":true,\"op\":\"shutdown\"}");
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve daemon on a Unix socket: a client connects, runs the
/// protocol, and `shutdown` terminates the daemon and removes the
/// socket file.
#[test]
fn serve_answers_over_a_unix_socket() {
    use std::os::unix::net::UnixStream;
    let dir = temp_dir("socket");
    let store = dir.join("store");
    let socket = dir.join("mocc.sock");
    let mut child = mocc_command(&[
        "serve",
        "--cache-dir",
        store.to_str().expect("utf-8"),
        "--socket",
        socket.to_str().expect("utf-8"),
    ])
    .stderr(Stdio::null())
    .spawn()
    .expect("serve spawns");

    let mut conn = None;
    for _ in 0..100 {
        match UnixStream::connect(&socket) {
            Ok(c) => {
                conn = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    let conn = conn.expect("daemon came up within 5s");
    let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
    let mut writer = conn;
    let mut line = String::new();

    writeln!(writer, "{{\"op\":\"ping\"}}").expect("write ping");
    reader.read_line(&mut line).expect("read pong");
    assert_eq!(line.trim_end(), "{\"ok\":true,\"op\":\"ping\"}");

    line.clear();
    writeln!(writer, "{{\"op\":\"shutdown\"}}").expect("write shutdown");
    reader.read_line(&mut line).expect("read shutdown ack");
    assert_eq!(line.trim_end(), "{\"ok\":true,\"op\":\"shutdown\"}");

    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");
    assert!(!socket.exists(), "socket file left behind");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag that exists but belongs to another subcommand is an error
/// naming the flag and the subcommand — never silently ignored (a user
/// passing `--seed` to `run` must not believe the seed changed) — and
/// nothing is written.
#[test]
fn foreign_flags_are_rejected_not_ignored() {
    let dir = temp_dir("foreign");
    let out = dir.join("report.json");
    let out_arg = out.to_str().expect("utf-8 temp path");
    let zoo = dir.join("zoo");
    let zoo_arg = zoo.to_str().expect("utf-8 temp path");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    let sweep = "examples/specs/sweep_cubic.json";
    let train = "examples/specs/train_smoke.json";
    let cases: &[(&str, &[&str], &str)] = &[
        ("run", &[sweep, "--out", out_arg, "--seed", "5"], "--seed"),
        (
            "run",
            &[sweep, "--out", out_arg, "--zoo", "/nonexistent"],
            "--zoo",
        ),
        (
            "run",
            &[sweep, "--out", out_arg, "--max-iters", "3"],
            "--max-iters",
        ),
        (
            "run",
            &[sweep, "--out", out_arg, "--budget", "3"],
            "--budget",
        ),
        ("train", &[train, "--zoo", zoo_arg, "--seed", "9"], "--seed"),
        (
            "train",
            &[train, "--zoo", zoo_arg, "--budget", "3"],
            "--budget",
        ),
        (
            "train",
            &[train, "--zoo", zoo_arg, "--threads", "2"],
            "--threads",
        ),
        ("hunt", &[sweep, "--out", out_arg], "--out"),
        ("validate", &[sweep, "--rule", "x"], "--rule"),
        (
            "cache",
            &["stats", "--cache-dir", store_arg, "--threads", "3"],
            "--threads",
        ),
        (
            "serve",
            &["--cache-dir", store_arg, "--out", out_arg],
            "--out",
        ),
        ("audit", &["--threads", "2"], "--threads"),
    ];
    for (cmd, rest, flag) in cases {
        let mut args = vec![*cmd];
        args.extend_from_slice(rest);
        let result = mocc(&args);
        let stderr = stderr_of(&result);
        assert!(!result.status.success(), "{args:?} was accepted");
        assert!(
            stderr.contains(&format!("`mocc {cmd}` does not take {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(result.stdout.is_empty(), "{args:?} printed a result");
        for path in [&out, &zoo, &store] {
            assert!(!path.exists(), "{args:?} created {}", path.display());
        }
    }
    // A flag no subcommand has is the plain unknown-option error, and
    // equally writes nothing: `--batch` selected lockstep inference
    // until cells were evaluated one at a time, `--fast-math` the
    // approximate inference tier until evaluation had one.
    let policy_spec = "examples/specs/competition_mocc.json";
    let removed: &[(&[&str], &str)] = &[
        (
            &["run", policy_spec, "--out", out_arg, "--batch", "4"],
            "--batch",
        ),
        (
            &["run", policy_spec, "--out", out_arg, "--fast-math"],
            "--fast-math",
        ),
        (
            &["serve", "--cache-dir", store_arg, "--fast-math"],
            "--fast-math",
        ),
    ];
    for (args, flag) in removed {
        let result = mocc(args);
        assert!(!result.status.success(), "{args:?} was accepted");
        let stderr = stderr_of(&result);
        assert!(
            stderr.contains(&format!("unknown option \"{flag}\"")),
            "{args:?}: {stderr}"
        );
        for path in [&out, &store] {
            assert!(!path.exists(), "{args:?} created {}", path.display());
        }
    }
    // The rejection says what the subcommand does take.
    let train_err = stderr_of(&mocc(&["train", train, "--seed", "9"]));
    assert!(
        train_err.contains("it takes only --zoo, --resume, --out, --max-iters"),
        "{train_err}"
    );
    let validate_err = stderr_of(&mocc(&["validate", sweep, "--threads", "2"]));
    assert!(
        validate_err.contains("it takes no options"),
        "{validate_err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed `MOCC_SWEEP_THREADS` is input, not a bug: every
/// subcommand that builds a runner reports it like a bad `--threads`
/// (one `error:` line, exit 1) before touching the disk, never with a
/// panic and a backtrace.
#[test]
fn bad_sweep_threads_env_is_an_error_not_a_panic() {
    let dir = temp_dir("threads-env");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    let cases: &[&[&str]] = &[
        &["run", "examples/specs/sweep_cubic.json"],
        &["hunt", "examples/specs/hunt_smoke.json", "--budget", "1"],
        &["serve", "--cache-dir", store_arg],
    ];
    for args in cases {
        let result = mocc_command(args)
            .env("MOCC_SWEEP_THREADS", "abc")
            .stdin(Stdio::null())
            .output()
            .expect("mocc runs");
        let stderr = stderr_of(&result);
        assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: MOCC_SWEEP_THREADS=\"abc\" is not a positive integer"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(result.stdout.is_empty(), "{args:?} printed a result");
    }
    assert!(!store.exists(), "serve opened a store before failing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache root that cannot be created (`MOCC_CACHE_DIR` under a
/// regular file) is input, not a bug: every subcommand that opens the
/// default store reports `error: <path>: <reason>` and exits 1 without
/// a panic, a backtrace or a result.
#[test]
fn uncreatable_cache_root_is_an_error_not_a_panic() {
    let dir = temp_dir("bad-root");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "x").expect("write blocker file");
    let root = file.join("cache");
    let cases: &[&[&str]] = &[
        &["cache", "stats"],
        &["run", "examples/specs/sweep_cubic.json", "--cache"],
        &["serve"],
    ];
    for args in cases {
        let result = mocc_command(args)
            .env("MOCC_CACHE_DIR", &root)
            .stdin(Stdio::null())
            .output()
            .expect("mocc runs");
        let stderr = stderr_of(&result);
        assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
        let error_line = format!("error: {}: ", root.display());
        assert!(
            stderr.lines().any(|l| l.starts_with(&error_line)),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(result.stdout.is_empty(), "{args:?} printed a result");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A document of 300 000 unclosed brackets used to overflow the JSON
/// parser's stack (`fatal runtime error`, exit 134). The parser's
/// nesting limit makes it an ordinary bad file: its own line saying
/// why, one `error:` line, exit 1.
#[test]
fn deeply_nested_spec_is_an_error_not_a_stack_overflow() {
    let dir = temp_dir("deep-spec");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(300_000)).expect("write hostile spec");
    let result = mocc(&["validate", deep.to_str().expect("utf-8 temp path")]);
    let stderr = stderr_of(&result);
    assert_eq!(result.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr.lines().collect::<Vec<_>>(),
        [
            &format!(
                "{}: spec does not parse: nesting deeper than 128 at byte 128",
                deep.display()
            ),
            "error: 1 of 1 specs invalid"
        ]
    );
    assert!(result.stdout.is_empty(), "validate printed a result");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A saved model whose `cfg.history` no longer matches its networks,
/// or whose networks are not consistent in themselves (no layers, a
/// weight matrix one value short), is refused when `policy.path` loads
/// it — one `error:` line naming the file and the disagreement, exit 1
/// — instead of panicking in the decoder or in a worker thread at the
/// first forward pass (exit 101).
#[test]
fn model_disagreeing_with_its_config_is_an_error_not_a_panic() {
    let dir = temp_dir("bad-model");
    let model = dir.join("edited-model.json");
    let agent = mocc_core::agent_from_policy(&mocc_eval::PolicySpec::default()).expect("agent");
    let with_history = |history: usize| {
        agent
            .to_json()
            .replace("\"history\":10", &format!("\"history\":{history}"))
    };
    let (mut no_layers, mut short_data) = (agent.clone(), agent.clone());
    no_layers.ppo.policy.net.main.layers.clear();
    short_data.ppo.value.pn.layers[0].w.data.pop();
    for (edited, problem) in [
        (
            with_history(5),
            "cfg.history 5 means 18 observation inputs, but the policy network takes 33",
        ),
        (with_history(0), "cfg.history is 0; it must be >= 1"),
        (no_layers.to_json(), "policy.main has no layers"),
        (
            short_data.to_json(),
            "value.pn layer 0: a 3x16 weight matrix holds 47 values",
        ),
    ] {
        std::fs::write(&model, edited).expect("write edited model");
        let spec = dir.join("spec.json");
        let text =
            std::fs::read_to_string(repo_root().join("examples/specs/competition_mocc.json"))
                .expect("shipped spec")
                .replace(
                    "\"path\":null",
                    &format!("\"path\":\"{}\"", model.display()),
                );
        std::fs::write(&spec, text).expect("write spec");
        let spec_arg = spec.to_str().expect("utf-8 temp path");
        let result = mocc(&["run", spec_arg]);
        let stderr = stderr_of(&result);
        assert_eq!(result.status.code(), Some(1), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert_eq!(
            stderr.lines().last(),
            Some(format!("error: {spec_arg}: {}: {problem}", model.display()).as_str()),
            "{stderr}"
        );
        assert!(result.stdout.is_empty(), "a refused model printed a report");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `owd_ms` or `duration_s` beyond the simulator's u64 nanosecond
/// clock used to pass `mocc validate` and then wrap in the release
/// binary — an all-zero report, exit 0, memoised under `--cache-dir` —
/// or panic in a debug build (`attempt to multiply with overflow`). It
/// is an invalid spec: one `error:` line, exit 1, nothing stored.
#[test]
fn clock_overflowing_spec_is_an_error_not_a_wrap() {
    let dir = temp_dir("clock-overflow");
    let shipped = std::fs::read_to_string(repo_root().join("examples/specs/sweep_cubic.json"))
        .expect("shipped spec");
    for (field, shipped_value, value) in [
        ("owd_ms", "[10,40]", "[10000000000000]"),
        ("duration_s", "8", "18446744073"),
    ] {
        let from = format!("\"{field}\":{shipped_value}");
        assert!(shipped.contains(&from), "shipped spec lost {from}");
        let spec = dir.join(format!("{field}.json"));
        std::fs::write(
            &spec,
            shipped.replace(&from, &format!("\"{field}\":{value}")),
        )
        .expect("write spec");
        let spec_arg = spec.to_str().expect("utf-8 temp path");
        let store = dir.join("store");
        let store_arg = store.to_str().expect("utf-8 temp path");
        let problem = format!(
            "invalid spec: {field} value {} does not fit the simulator clock",
            value.trim_matches(['[', ']'])
        );
        for args in [
            vec!["validate", spec_arg],
            vec!["run", spec_arg],
            vec!["run", spec_arg, "--cache-dir", store_arg],
        ] {
            let result = mocc(&args);
            let stderr = stderr_of(&result);
            assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(stderr.contains(&problem), "{args:?}: {stderr}");
            let last = stderr.lines().last().unwrap_or_default();
            assert!(last.starts_with("error: "), "{args:?}: {stderr}");
            assert!(result.stdout.is_empty(), "{args:?} printed a result");
        }
        let ledger = std::fs::read_to_string(store.join("ledger.jsonl")).unwrap_or_default();
        assert!(
            ledger.is_empty(),
            "a refused spec reached the store: {ledger}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flow count beyond what a cell may hold used to pass `mocc
/// validate` and then panic `run` on a capacity overflow (exit 101) or
/// abort it allocating the flow list (exit 134); a hostile incast
/// panicked `validate` itself. Each is a bad spec: exit 1, one
/// `error:` line, no panic.
#[test]
fn hostile_flow_count_is_an_error_not_a_panic() {
    let dir = temp_dir("hostile-flows");
    let sweep = |load: &str| {
        format!(
            "{{\"kind\":\"sweep\",\"name\":\"h\",\"scheme\":\"cubic\",\"bandwidth_mbps\":[10.0],\
             \"owd_ms\":[20],\"queue_pkts\":[100],\"duration_s\":2,\"seed\":1,\"loads\":[\"{load}\"]}}"
        )
    };
    for (name, doc) in [
        ("steady", sweep("steady:18446744073709551615")),
        ("onoff", sweep("onoff:18446744073709551615")),
        (
            "incast",
            "{\"kind\":\"competition\",\"name\":\"h\",\
             \"mixes\":[\"incast:cubic:18446744073709551615x0.5\"],\"bandwidth_mbps\":[10.0],\
             \"owd_ms\":[20],\"queue_pkts\":[100],\"duration_s\":20,\"seed\":1}"
                .to_string(),
        ),
    ] {
        let spec = dir.join(format!("{name}.json"));
        std::fs::write(&spec, doc).expect("write hostile spec");
        let spec_arg = spec.to_str().expect("utf-8 temp path");
        for command in ["validate", "run"] {
            let result = mocc(&[command, spec_arg]);
            let stderr = stderr_of(&result);
            assert_eq!(result.status.code(), Some(1), "{command} {name}: {stderr}");
            assert!(!stderr.contains("panicked"), "{command} {name}: {stderr}");
            assert!(
                stderr.contains("a cell holds at most 1024 flows"),
                "{stderr}"
            );
            let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
            assert_eq!(errors, 1, "{command} {name}: {stderr}");
            assert!(
                result.stdout.is_empty(),
                "{command} {name} printed a result"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A few kilobytes of document used to ask for more than memory holds:
/// a sweep of 10^8 cells passed `validate` and aborted `run` (exit
/// 134), six 2 000-value axes wrapped the cell count, and a train spec
/// with a huge iteration knob or `omega_step` aborted `validate` and
/// `train` building the schedule (or stalled them for minutes). Each is
/// a bad spec: exit 1, one `error:` line, no panic.
#[test]
fn hostile_sizes_are_errors_not_aborts() {
    let dir = temp_dir("hostile-sizes");
    let values =
        |n: usize, f: &dyn Fn(usize) -> String| (1..=n).map(f).collect::<Vec<_>>().join(",");
    let sweep = |n: usize, loads_and_shapes: bool| {
        let extra = if loads_and_shapes {
            format!(
                ",\"shapes\":[{}],\"loads\":[{}]",
                values(n, &|_| "\"constant\"".to_string()),
                values(n, &|_| "\"steady:1\"".to_string())
            )
        } else {
            String::new()
        };
        format!(
            "{{\"kind\":\"sweep\",\"name\":\"h\",\"scheme\":\"cubic\",\"bandwidth_mbps\":[{}],\
             \"owd_ms\":[{}],\"queue_pkts\":[{}],\"loss\":[{}],\"duration_s\":2,\"seed\":1{extra}}}",
            values(n, &|v| format!("{v}.0")),
            values(n, &|v| v.to_string()),
            values(n, &|v| v.to_string()),
            values(n, &|v| format!("{}", (v - 1) as f64 / n as f64)),
        )
    };
    let mut docs = vec![
        ("cells", "run", sweep(100, false), "a run holds at most"),
        (
            "wrap",
            "run",
            sweep(2000, true),
            "more than usize::MAX flows",
        ),
    ];
    let big = u64::MAX.to_string();
    for (name, knob, value, want) in [
        ("boot", "boot_iters", "100000000000", "the schedule exceeds"),
        ("boot-max", "boot_iters", &big, "the schedule exceeds"),
        ("cycles", "traverse_cycles", &big, "the schedule exceeds"),
        ("visits", "traverse_iters", &big, "the schedule exceeds"),
        ("omega", "omega_step", "4294967296", "omega_step 4294967296"),
        ("omega-800", "omega_step", "800", "omega_step 800"),
        ("steps", "rollout_steps", &big, "rollout_steps must be <="),
        ("mis", "episode_mis", &big, "episode_mis must be <="),
    ] {
        let doc = format!("{{\"kind\":\"train\",\"name\":\"h\",\"seed\":1,\"{knob}\":{value}}}");
        docs.push((name, "train", doc, want));
    }
    for (name, command, doc, want) in &docs {
        let spec = dir.join(format!("{name}.json"));
        std::fs::write(&spec, doc).expect("write hostile spec");
        let spec_arg = spec.to_str().expect("utf-8 temp path");
        let zoo = dir.join("zoo");
        let zoo_arg = zoo.to_str().expect("utf-8 temp path");
        let mut args = vec![*command, spec_arg];
        if *command == "train" {
            args.extend(["--zoo", zoo_arg]);
        }
        for args in [vec!["validate", spec_arg], args] {
            let result = mocc(&args);
            let stderr = stderr_of(&result);
            assert_eq!(result.status.code(), Some(1), "{args:?} {name}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?} {name}: {stderr}");
            assert!(stderr.contains(want), "{args:?} {name}: {stderr}");
            let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
            assert_eq!(errors, 1, "{args:?} {name}: {stderr}");
            assert!(result.stdout.is_empty(), "{args:?} {name} printed a result");
        }
        assert!(!zoo.exists(), "{name}: a refused spec reached the zoo");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `policy.fast_math` named the approximate inference tier, which is
/// gone: a document that still sets it `true` is an invalid spec naming
/// the field for every subcommand that reads one — exit 1, one
/// `error:` line, no cell run — and a daemon answers it with an error
/// line and keeps serving.
#[test]
fn fast_math_true_is_an_invalid_spec() {
    let dir = temp_dir("fast-math");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    let hunt_dir = dir.join("hunt");
    let hunt_arg = hunt_dir.to_str().expect("utf-8 temp path");
    let mut served = String::new();
    for name in ["competition_mocc", "hunt_smoke"] {
        let shipped =
            std::fs::read_to_string(repo_root().join(format!("examples/specs/{name}.json")))
                .expect("shipped spec");
        assert!(
            shipped.contains("\"fast_math\":false"),
            "{name} lost the field"
        );
        let doc = shipped.replace("\"fast_math\":false", "\"fast_math\":true");
        let spec = dir.join(format!("{name}.json"));
        std::fs::write(&spec, &doc).expect("write spec");
        let spec_arg = spec.to_str().expect("utf-8 temp path");
        let mut commands = vec![
            vec!["validate", spec_arg],
            vec!["run", spec_arg],
            vec!["run", spec_arg, "--cache-dir", store_arg],
        ];
        if name == "hunt_smoke" {
            commands.push(vec![
                "hunt",
                spec_arg,
                "--budget",
                "1",
                "--out-dir",
                hunt_arg,
            ]);
        }
        for args in commands {
            let result = mocc(&args);
            let stderr = stderr_of(&result);
            assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains("policy.fast_math must be false"),
                "{args:?}: {stderr}"
            );
            let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
            assert_eq!(errors, 1, "{args:?}: {stderr}");
            assert!(result.stdout.is_empty(), "{args:?} printed a result");
        }
        served.push_str(&format!("{{\"op\":\"run\",\"spec\":{}}}\n", doc.trim()));
    }
    served.push_str("{\"op\":\"ping\"}\n");
    let mut child = mocc_command(&["serve", "--cache-dir", store_arg])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve starts");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(served.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("serve exits");
    let lines: Vec<&str> = std::str::from_utf8(&out.stdout)
        .expect("utf-8 responses")
        .lines()
        .collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    for line in &lines[..2] {
        assert!(line.contains("\"ok\":false"), "{line}");
        assert!(line.contains("policy.fast_math"), "{line}");
    }
    assert_eq!(lines[2], "{\"ok\":true,\"op\":\"ping\"}");
    assert!(!hunt_dir.exists(), "a refused hunt wrote specs");
    let ledger = std::fs::read_to_string(store.join("ledger.jsonl")).unwrap_or_default();
    assert!(
        ledger.is_empty(),
        "a refused spec reached the store: {ledger}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file a document or the command line names is read through one
/// bounded reader: a sparse 3 GiB replay trace or model is refused by
/// its length, naming the file and the cap, and an endless device
/// reads as the empty file its handle reports. Each is exit 1 with one
/// `error:` line, in well under the time a read of it would take.
#[test]
fn huge_or_endless_files_are_errors_not_reads() {
    let dir = temp_dir("huge-files");
    let huge = dir.join("huge.json");
    std::fs::File::create(&huge)
        .and_then(|file| file.set_len(3 << 30))
        .expect("sparse file");
    let huge_arg = huge.to_str().expect("utf-8 temp path");
    let cap = "over the 67108864-byte cap";
    let replay = |trace: &str| {
        format!(
            "{{\"kind\":\"sweep\",\"name\":\"h\",\"scheme\":\"cubic\",\"bandwidth_mbps\":[10.0],\
             \"owd_ms\":[20],\"queue_pkts\":[100],\"duration_s\":2,\"seed\":1,\
             \"shapes\":[\"replay:{trace}\"]}}"
        )
    };
    let shipped = std::fs::read_to_string(repo_root().join("examples/specs/competition_mocc.json"))
        .expect("shipped spec");
    let model = shipped.replace("\"path\":null", &format!("\"path\":{huge_arg:?}"));
    let cases = [
        ("trace", "validate", replay(huge_arg), cap),
        ("model", "run", model, cap),
        (
            "endless-trace",
            "validate",
            replay("/dev/zero"),
            "trace file /dev/zero",
        ),
    ];
    for (name, command, doc, want) in cases {
        let spec = dir.join(format!("{name}.spec.json"));
        std::fs::write(&spec, doc).expect("write spec");
        let spec_arg = spec.to_str().expect("utf-8 temp path");
        let result = mocc(&[command, spec_arg]);
        let stderr = stderr_of(&result);
        assert_eq!(result.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(want), "{name}: {stderr}");
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{name}: {stderr}");
    }
    for args in [["validate", "/dev/zero"], ["run", "/dev/zero"]] {
        let result = mocc(&args);
        let stderr = stderr_of(&result);
        assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("/dev/zero"), "{args:?}: {stderr}");
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
