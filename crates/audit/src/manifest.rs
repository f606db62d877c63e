//! The vendoring-audit pass: a minimal line-based Cargo.toml scanner.
//!
//! Only enough TOML is understood to find dependency entries:
//! `[dependencies]`-style sections, `[dependencies.<name>]` tables,
//! and the dotted `name.workspace = true` form. A dependency is legal
//! when it resolves inside the repository — `workspace = true`, or a
//! `path` into `vendor/`, `crates/`, or a sibling workspace crate
//! (`../<name>`). Registry (`name = "1.0"`) and `git` dependencies are
//! findings: the workspace builds from vendored source only.

use crate::rules::apply_allows;
use crate::Finding;

/// Section headers whose direct `key = value` entries are deps.
const DEP_SECTIONS: &[&str] = &[
    "dependencies",
    "dev-dependencies",
    "build-dependencies",
    "workspace.dependencies",
];

fn is_dep_section(name: &str) -> bool {
    DEP_SECTIONS.contains(&name) || (name.starts_with("target.") && name.ends_with(".dependencies"))
}

/// `[dependencies.foo]` → Some("foo"), for every dep-section flavor.
fn dep_table_name(section: &str) -> Option<&str> {
    DEP_SECTIONS
        .iter()
        .find_map(|s| section.strip_prefix(s).and_then(|r| r.strip_prefix('.')))
}

/// Splits a TOML line into code and trailing comment, respecting
/// basic and literal strings.
fn split_comment(line: &str) -> (&str, Option<&str>) {
    let mut in_basic = false;
    let mut in_literal = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_basic => escaped = true,
            '"' if !in_literal => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '#' if !in_basic && !in_literal => return (&line[..i], Some(&line[i..])),
            _ => {}
        }
    }
    (line, None)
}

/// The first quoted string after `key` in `text`, if any.
fn quoted_value_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let at = text.find(key)?;
    let rest = &text[at + key.len()..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    let close = rest.find('"')?;
    Some(&rest[..close])
}

/// A `path` value that stays inside the repository: into `vendor/`,
/// into `crates/`, or a sibling workspace crate reached via `../`.
fn path_is_vendored(path: &str) -> bool {
    let p = path.trim_start_matches("./");
    p.starts_with("vendor/")
        || p.starts_with("crates/")
        || p.contains("/vendor/")
        || p.contains("/crates/")
        || (p.starts_with("../") && !p.starts_with("../../"))
}

/// True when the dependency spec text (inline table body, or the
/// accumulated body of a `[dependencies.<name>]` table) resolves
/// inside the repository.
fn spec_is_vendored(spec: &str) -> bool {
    if spec.contains("git") && quoted_value_after(spec, "git").is_some() {
        return false;
    }
    if let Some(p) = quoted_value_after(spec, "path") {
        return path_is_vendored(p);
    }
    // `workspace = true` with no path: resolved by the root manifest,
    // which is itself audited.
    spec.split(',').any(|part| {
        let part = part.trim().trim_end_matches('}').trim();
        part == "workspace = true" || part.ends_with("workspace = true")
    })
}

fn dep_finding(path: &str, line: u32, name: &str) -> Finding {
    let rule = crate::rules::rule_by_id("vendoring-audit").expect("known rule");
    Finding {
        file: path.to_string(),
        line,
        rule: rule.id,
        message: format!("dependency `{name}` is not a path dep into vendor/ or the workspace"),
        hint: rule.hint.to_string(),
    }
}

/// Audits one Cargo.toml. `path` is the workspace-relative path.
/// Suppression uses the same allow machinery as the Rust pass, spelled
/// `# audit:allow(vendoring-audit): <reason>`.
pub fn audit_manifest(path: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut comments: Vec<(u32, String)> = Vec::new();
    let mut in_dep_section = false;
    // Open `[dependencies.<name>]` table: (header line, name, body so far).
    let mut table: Option<(u32, String, String)> = None;

    let close_table = |table: &mut Option<(u32, String, String)>, findings: &mut Vec<Finding>| {
        if let Some((line, name, body)) = table.take() {
            if !spec_is_vendored(&body) {
                findings.push(dep_finding(path, line, &name));
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let (code, comment) = split_comment(raw);
        if let Some(c) = comment {
            comments.push((line_no, c.to_string()));
        }
        let code = code.trim();
        if code.is_empty() {
            continue;
        }
        if code.starts_with('[') {
            close_table(&mut table, &mut findings);
            let name = code.trim_start_matches('[').trim_end_matches(']').trim();
            if let Some(dep) = dep_table_name(name) {
                table = Some((line_no, dep.to_string(), String::new()));
                in_dep_section = false;
            } else {
                in_dep_section = is_dep_section(name);
            }
            continue;
        }
        if let Some((_, _, body)) = table.as_mut() {
            body.push_str(code);
            body.push(',');
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((key, value)) = code.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        if key.ends_with(".workspace") {
            if value != "true" {
                let name = key.trim_end_matches(".workspace");
                findings.push(dep_finding(path, line_no, name));
            }
            continue;
        }
        if !spec_is_vendored(value) {
            findings.push(dep_finding(path, line_no, key));
        }
    }
    close_table(&mut table, &mut findings);
    apply_allows(path, &comments, findings)
}

/// The `name = "..."` of the `[package]` section, if present.
pub fn package_name(text: &str) -> Option<String> {
    let mut in_package = false;
    for raw in text.lines() {
        let (code, _) = split_comment(raw);
        let code = code.trim();
        if code.starts_with('[') {
            in_package = code == "[package]";
            continue;
        }
        if in_package {
            if let Some((key, value)) = code.split_once('=') {
                if key.trim() == "name" {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_and_workspace_deps_pass() {
        let toml = r#"
[package]
name = "mocc-x"

[dependencies]
mocc-nn.workspace = true
serde = { path = "../../vendor/serde-shim", features = ["derive"] }
tinyjson = { path = "vendor/tinyjson" }

[dependencies.mocc-cc]
path = "../cc"
"#;
        assert!(audit_manifest("crates/x/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn registry_and_git_deps_fire() {
        let toml = r#"
[dependencies]
rand = "0.8"
libc = { version = "0.2" }
left-pad = { git = "https://example.invalid/left-pad" }
"#;
        let fs = audit_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(fs.len(), 3);
        assert!(fs.iter().all(|f| f.rule == "vendoring-audit"));
        assert!(fs[0].message.contains("`rand`"));
    }

    #[test]
    fn dep_table_without_path_fires_at_its_header() {
        let toml = "[dependencies.rand]\nversion = \"0.8\"\n";
        let fs = audit_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 1);
    }

    #[test]
    fn hash_comment_allow_suppresses() {
        let toml = "[dependencies]\n# audit:allow(vendoring-audit): fixture for the allow twin\nrand = \"0.8\"\n";
        assert!(audit_manifest("crates/x/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn non_dep_sections_are_ignored() {
        let toml = "[features]\nextra = []\n[package.metadata.x]\nurl = \"https://example.com\"\n";
        assert!(audit_manifest("crates/x/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn package_name_is_extracted() {
        assert_eq!(
            package_name("[package]\nname = \"mocc-nn\"\n").as_deref(),
            Some("mocc-nn")
        );
        assert_eq!(package_name("[workspace]\nmembers = []\n"), None);
    }
}
