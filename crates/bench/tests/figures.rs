//! The §6 evaluation's fixed points: the stdout of every figure and
//! the bytes of every model the suite trains.
//!
//! `fixtures/figures/<name>.txt` is what each figure printed on the
//! reference machine in a fresh cache root with two sweep threads —
//! the repository's measured record of Figs. 1 and 5–19 — after
//! blanking the 19 fields that report wall time ([`blank`]). Everything
//! else, down to the last digit of every reward, is a pure function of
//! the code and the seeds, so a change that moves a figure fails here
//! and names the line. The test takes about three minutes (it trains
//! every model), so it is `#[ignore]`d; CI runs it on every push:
//!
//! ```text
//! cargo test --release -p mocc-bench --test figures -- --ignored
//! ```

use mocc_store::sha256_hex;
use std::path::Path;
use std::process::{Command, Output};

/// Every figure, in the order the suite runs them.
const FIGURES: [&str; 11] = [
    "fig1",
    "fig5",
    "fig6",
    "fig7",
    "fig8_10",
    "fig11_15",
    "competition",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
];

/// Every model file a cold run of the suite leaves in the cache root,
/// as `sha256sum` prints them.
const MODELS: &str = "\
5c5e200d0e8f8dcf092a570bd5fe12e4cf200a30c8eb7dabef286bdf156730a0  mocc-agent.json
7ce8dfaf3553e75fb1731481323f7b94b3ac39387f175df7bfdc5a33121b00c3  aurora-thr.json
4b43f10d2bae5cf1340664a4031ca97df3429cfd8faf69f3cd2958172a9a342d  aurora-lat.json
4779b2bda3aced3e6c336c7b78966694a94ee4f06c6afeac01dbf189c3f0dd3c  aurora-bank-6.json
c155c4d07b8fc9cdd5c5f6e1475089f4c242cdeeb7427ed2b7f6172bcbb471b0  mocc-omega-3.json
ffed94ed7d25becf338c21a58f18214eda4eb6cdde9ed3ea43778e75668ef103  mocc-omega-6.json
ebab66f993886803e84fa2bada56fc4eb94743951e41ccb466b3f4b2f918fb5c  mocc-omega-10.json";

/// Runs `figures` on `args` with `cache` as the cache root.
fn figures(args: &[&str], cache: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env("MOCC_CACHE_DIR", cache)
        .env("MOCC_SWEEP_THREADS", "2")
        .output()
        .expect("spawn figures")
}

/// `line` with the token before `suffix`, and the padding in front of
/// it, replaced by ` _`.
fn blank_before(line: &str, suffix: &str) -> String {
    let head = line.strip_suffix(suffix).unwrap_or(line).trim_end();
    let head = head.trim_end_matches(|c: char| !c.is_whitespace());
    format!("{} _{suffix}", head.trim_end())
}

/// `text` with figure `name`'s wall-clock fields blanked: `fig1` the
/// `wall:` value (1), `fig7` the `wall-clock:` line (1), `fig16` the
/// `train s` column (4), `fig17` every `ns` and `%` value (8), `fig19`
/// the `s wall` and speedup values (5). Nothing else is touched.
fn blank(name: &str, text: &str) -> String {
    let line = |l: &str| match name {
        "fig1" if l.starts_with("training iterations:") => blank_before(l, ""),
        "fig7" if l.starts_with("wall-clock:") => "wall-clock: _".to_string(),
        "fig16" if l.starts_with(|c: char| c.is_ascii_digit()) => {
            format!("{}{:9}{}", &l[..58], "", &l[67..])
        }
        "fig17" if l.ends_with(" ns") => blank_before(l, " ns"),
        "fig17" if l.ends_with(" %") => blank_before(l, " %"),
        "fig19" if l.ends_with(" s wall") => blank_before(l, " s wall"),
        "fig19" if l.ends_with(" over individual") => blank_before(l, " over individual"),
        _ => l.to_string(),
    };
    text.split('\n').map(line).collect::<Vec<_>>().join("\n")
}

/// Asserts that `out` succeeded and that its blanked stdout is the
/// fixture's bytes, naming the first differing line.
fn assert_pinned(name: &str, out: &Output, when: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{name} ({when}) failed: {stderr}");
    let got = blank(name, &String::from_utf8_lossy(&out.stdout));
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/figures")
        .join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&path).expect("read the fixture");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{name}.txt line {} ({when})", i + 1);
    }
    assert_eq!(got, want, "{name}.txt length or final newline ({when})");
}

#[test]
#[ignore = "trains every model: about three minutes in release mode"]
fn every_figure_matches_its_pinned_output() {
    let cache = std::env::temp_dir().join(format!("mocc-figures-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    for name in FIGURES {
        assert_pinned(name, &figures(&[name], &cache), "cold");
    }
    for (digest, file) in MODELS.lines().map(|l| l.split_once("  ").unwrap()) {
        let bytes = std::fs::read(cache.join(file)).expect("the suite wrote the model");
        assert_eq!(sha256_hex(&bytes), digest, "{file}");
    }
    // A figure's output must not depend on the state of the cache.
    assert_pinned("fig16", &figures(&["fig16"], &cache), "warm");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn failures_are_one_line_errors_with_exit_status_1() {
    let uncreatable = figures(&["fig17"], Path::new("/proc/nope"));
    let unknown = figures(&["fig1", "nosuch"], &std::env::temp_dir());
    for (out, message) in [
        (uncreatable, "error: /proc/nope: "),
        (
            unknown,
            "error: unknown figure \"nosuch\" (known: fig1, fig5, ",
        ),
    ] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.starts_with(message), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(out.stdout.is_empty(), "nothing ran");
    }
}
