//! `mocc-audit` — the static-analysis pass behind `mocc audit`.
//!
//! Scans every workspace crate (never `vendor/` or `target/`) and
//! enforces the contracts the rest of the repo depends on: byte-
//! deterministic reports and checkpoints require that library code
//! never reads a clock, never iterates a randomized container, never
//! lets NaN or FMA into an accumulation, and builds from vendored
//! source only. See `docs/AUDIT.md` for the rule catalogue.
//!
//! The crate has zero dependencies — not even the vendored shims — so
//! the auditor cannot be compromised by the code it audits. The Rust
//! lexer, TOML scanner, and canonical-JSON writer are hand-rolled.
#![forbid(unsafe_code)]

pub mod lexer;
pub mod manifest;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation (or suppression problem) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (see [`rules::RULES`]).
    pub rule: &'static str,
    /// One-line statement of what is wrong at this site.
    pub message: String,
    /// One-line fix hint.
    pub hint: String,
}

/// The result of auditing a workspace (or any set of files).
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Number of `.rs` and `Cargo.toml` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, rule, message).
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// True when the audit found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Keeps only findings of one rule (for `--rule <id>`).
    pub fn retain_rule(&mut self, rule: &str) {
        self.findings.retain(|f| f.rule == rule);
    }

    /// Canonical JSON: keys alphabetical, findings pre-sorted, no
    /// whitespace, trailing newline. Byte-stable for identical inputs,
    /// so CI can diff reports directly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"files_scanned\":");
        out.push_str(&self.files_scanned.to_string());
        out.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"file\":");
            json_string(&f.file, &mut out);
            out.push_str(",\"hint\":");
            json_string(&f.hint, &mut out);
            out.push_str(",\"line\":");
            out.push_str(&f.line.to_string());
            out.push_str(",\"message\":");
            json_string(&f.message, &mut out);
            out.push_str(",\"rule\":");
            json_string(f.rule, &mut out);
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Human-readable report: one `file:line: [rule] message` block
    /// per finding, then a summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    hint: {}\n",
                f.file, f.line, f.rule, f.message, f.hint
            ));
        }
        if self.is_clean() {
            out.push_str(&format!(
                "audit: clean ({} files scanned)\n",
                self.files_scanned
            ));
        } else {
            out.push_str(&format!(
                "audit: {} finding(s) across {} file(s) scanned\n",
                self.findings.len(),
                self.files_scanned
            ));
        }
        out
    }
}

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// True when `dir/Cargo.toml` is readable and declares `[workspace]`.
fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|text| text.lines().any(|l| l.trim() == "[workspace]"))
}

/// Ascends from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn workspace_root_from(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|d| is_workspace_root(d))
        .map(Path::to_path_buf)
}

/// Audits the whole workspace at `root`: the root package plus every
/// crate under `crates/`. Scope is each crate's `Cargo.toml` and its
/// `src/` tree — `tests/`, `benches/`, `examples/`, `vendor/`, and
/// `target/` are intentionally outside the contract (test code may
/// freely use clocks, env vars, and hash containers).
///
/// A `root` that is missing or has no `[workspace]` manifest is an
/// error, not an empty report: a gate pointed at the wrong directory
/// must not read as "clean (0 files scanned)".
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    if !is_workspace_root(root) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{} is not a workspace root (no readable Cargo.toml with a [workspace] table)",
                root.display()
            ),
        ));
    }
    let mut report = AuditReport::default();
    let mut crate_dirs = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut subs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        subs.sort();
        crate_dirs.extend(subs);
    }

    for dir in crate_dirs {
        let manifest_path = dir.join("Cargo.toml");
        if !manifest_path.is_file() {
            continue;
        }
        let manifest_text = fs::read_to_string(&manifest_path)?;
        report.files_scanned += 1;
        report.findings.extend(manifest::audit_manifest(
            &rel(root, &manifest_path),
            &manifest_text,
        ));
        let crate_name = manifest::package_name(&manifest_text);

        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for file in &files {
            let text = fs::read_to_string(file)?;
            report.files_scanned += 1;
            report
                .findings
                .extend(rules::audit_source(&rel(root, file), &text));
        }
        if let Some(name) = crate_name {
            let root_file = ["lib.rs", "main.rs"]
                .iter()
                .map(|f| src.join(f))
                .find(|p| p.is_file());
            if let Some(rf) = root_file {
                let text = fs::read_to_string(&rf)?;
                report
                    .findings
                    .extend(rules::check_crate_root(&rel(root, &rf), &text, &name));
            }
        }
    }

    report.findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    report.findings.dedup();
    Ok(report)
}

/// Workspace-relative path with `/` separators.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively collects `.rs` files under `dir` (deterministic: the
/// caller sorts).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_canonical_and_escaped() {
        let report = AuditReport {
            files_scanned: 2,
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                rule: "no-randomized-containers",
                message: "a \"quoted\"\nmessage".to_string(),
                hint: "h".to_string(),
            }],
        };
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"files_scanned\":2,\"findings\":[{\"file\":\"crates/x/src/lib.rs\",\"hint\":\"h\",\"line\":3,\"message\":\"a \\\"quoted\\\"\\nmessage\",\"rule\":\"no-randomized-containers\"}]}\n"
        );
        // Stability: serializing twice is byte-identical.
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn text_report_mentions_counts() {
        let clean = AuditReport {
            files_scanned: 7,
            findings: Vec::new(),
        };
        assert!(clean.to_text().contains("clean (7 files scanned)"));
    }
}
