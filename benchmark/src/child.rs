//! Running the real `mocc` binary as a child process and measuring it
//! from outside: wall time, CPU time and peak resident memory.
//!
//! One child runs at a time. Its stdout and stderr go to files, never
//! to pipes the harness would have to drain, so a slow reader cannot
//! back-pressure a timed run (`mocc serve` is the exception: its
//! protocol is a pipe, driven by one closed-loop client).

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `USER_HZ`, the unit of the CPU times in `/proc/<pid>/stat`. Fixed
/// at 100 by the Linux ABI on every architecture.
const TICKS_PER_S: f64 = 100.0;

/// How often the sampler reads the child's `VmHWM`.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// Where the binary is and where its children run.
#[derive(Debug, Clone)]
pub struct Mocc {
    /// The release `mocc` binary under test.
    pub bin: PathBuf,
    /// The checkout root: children run here, because `replay:` trace
    /// paths in spec documents are relative to it.
    pub root: PathBuf,
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// User + system CPU of the child and the descendants it waited
    /// for, seconds (tick resolution).
    pub cpu_s: f64,
    /// Highest `VmHWM` seen, MB; 0 when the child ended before the
    /// first sample.
    pub peak_rss_mb: f64,
    /// The child exited with status 0.
    pub ok: bool,
}

impl Cost {
    /// The cost of running `self` and then `other`.
    pub fn then(self, other: Cost) -> Cost {
        Cost {
            wall_s: self.wall_s + other.wall_s,
            cpu_s: self.cpu_s + other.cpu_s,
            peak_rss_mb: self.peak_rss_mb.max(other.peak_rss_mb),
            ok: self.ok && other.ok,
        }
    }

    pub const ZERO: Cost = Cost {
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        ok: true,
    };
}

/// CPU ticks of all children this process has reaped so far: fields
/// `cutime` + `cstime` of `/proc/self/stat`. The difference across one
/// `wait` is exactly the reaped child's CPU time, which reads the
/// kernel's own accounting instead of racing the child's exit.
fn reaped_children_ticks() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may itself hold spaces or brackets;
    // everything after its closing bracket is space-separated.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or_else(|| io::Error::other("/proc/self/stat: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); cutime and cstime are 16, 17.
    let tick = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| io::Error::other("/proc/self/stat: short or non-numeric"))
    };
    Ok(tick(16)? + tick(17)?)
}

/// The child's peak resident set so far, kB. `None` once it is gone.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A spawned child being measured. [`Running::finish`] waits for it.
pub struct Running {
    pub child: Child,
    started: Instant,
    ticks_before: u64,
}

impl Running {
    /// Waits for the child while a second thread samples its `VmHWM`
    /// (read from `/proc/<pid>/status`, which counts only the memory
    /// of the program after `exec`; `getrusage` would fold in the
    /// harness's own pages). `drive` runs on the calling thread while
    /// the child lives — the serve client; other callers pass a no-op.
    pub fn finish<T>(
        mut self,
        drive: impl FnOnce(&mut Child) -> io::Result<T>,
    ) -> io::Result<(Cost, T)> {
        let pid = self.child.id();
        let done = AtomicBool::new(false);
        let (driven, status, wall_s, hwm_kb) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut hwm = 0;
                while !done.load(Ordering::Relaxed) {
                    if let Some(kb) = vm_hwm_kb(pid) {
                        hwm = hwm.max(kb);
                    }
                    std::thread::sleep(RSS_SAMPLE_EVERY);
                }
                hwm
            });
            let driven = drive(&mut self.child);
            let status = self.child.wait();
            let wall_s = self.started.elapsed().as_secs_f64();
            done.store(true, Ordering::Relaxed);
            let hwm = sampler.join().expect("sampler thread does not panic");
            (driven, status, wall_s, hwm)
        });
        let ticks = reaped_children_ticks()? - self.ticks_before;
        Ok((
            Cost {
                wall_s,
                cpu_s: ticks as f64 / TICKS_PER_S,
                peak_rss_mb: hwm_kb as f64 / 1024.0,
                ok: status?.success(),
            },
            driven?,
        ))
    }
}

impl Mocc {
    fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args).current_dir(&self.root);
        // The worker count is always passed as `--threads`; a stray
        // variable must not change what is measured.
        cmd.env_remove("MOCC_SWEEP_THREADS")
            .env_remove("MOCC_CACHE_DIR")
            .env_remove("MOCC_ZOO_DIR");
        cmd
    }

    /// Spawns `mocc <args>` with stdout and stderr appended to
    /// `<log>.out` / `<log>.err`.
    pub fn spawn_logged(&self, args: &[&str], log: &Path) -> io::Result<Running> {
        let file = |ext: &str| {
            File::options()
                .create(true)
                .append(true)
                .open(log.with_extension(ext))
        };
        let mut cmd = self.command(args);
        cmd.stdin(Stdio::null())
            .stdout(file("out")?)
            .stderr(file("err")?);
        self.spawn(cmd)
    }

    /// Spawns `mocc <args>` with stdin and stdout piped (the serve
    /// protocol) and stderr appended to `<log>.err`.
    pub fn spawn_piped(&self, args: &[&str], log: &Path) -> io::Result<Running> {
        let mut cmd = self.command(args);
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(
            File::options()
                .create(true)
                .append(true)
                .open(log.with_extension("err"))?,
        );
        self.spawn(cmd)
    }

    fn spawn(&self, mut cmd: Command) -> io::Result<Running> {
        let ticks_before = reaped_children_ticks()?;
        let started = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", self.bin.display())))?;
        Ok(Running {
            child,
            started,
            ticks_before,
        })
    }

    /// Runs `mocc <args>` to completion and returns what it cost.
    pub fn run(&self, args: &[&str], log: &Path) -> io::Result<Cost> {
        let (cost, ()) = self.spawn_logged(args, log)?.finish(|_| Ok(()))?;
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_stat_line_parses() {
        // No child has been reaped by this call alone, but the fields
        // must be there and numeric.
        reaped_children_ticks().unwrap();
        assert!(vm_hwm_kb(std::process::id()).unwrap() > 0);
    }
}
