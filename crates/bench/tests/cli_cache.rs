//! End-to-end tests for the `mocc` binary's cache surface: `run
//! --cache`, the `cache stats|verify|gc` subcommands, a hostile ledger
//! path, and one smoke test per `serve` transport (the protocol itself
//! is tested in process, in `mocc_bench::serve`). Everything runs the
//! real executable against the shipped example specs and committed
//! golden fixtures. Inputs the CLI must refuse are rows of the root
//! hostile-input corpus, `tests/hostile.rs`.

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
