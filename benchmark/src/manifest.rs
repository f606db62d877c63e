//! Keeps `BENCHMARK.json` and this package's manifest in step with
//! the harness and the root workspace. Tests only.

#[cfg(test)]
mod tests {
    use crate::{gen, layers, workloads};
    use serde::Value;

    fn repo_file(rel: &str) -> String {
        let path = format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The `[profile.release]` table of a manifest: its lines up to
    /// the next table, comments and blank lines dropped.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    /// In-process layer numbers are comparable with the shipped binary
    /// only while both are generated under the same profile and with
    /// the same (default: none) features.
    #[test]
    fn release_profile_matches_the_root_manifest() {
        let root = repo_file("Cargo.toml");
        let own = repo_file("benchmark/Cargo.toml");
        let profile = release_profile(&root);
        assert!(!profile.is_empty(), "root manifest has a [profile.release]");
        assert_eq!(profile, release_profile(&own));
        for (name, manifest) in [("root", &root), ("benchmark", &own)] {
            assert!(
                !manifest
                    .lines()
                    .any(|l| l.trim_start().starts_with("default =")),
                "{name} manifest grew default features; mirror them in the other"
            );
        }
    }

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Value::Obj(doc) = doc else {
            panic!("BENCHMARK.json is an object")
        };
        let Some(Value::Arr(items)) = doc.get(key) else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|item| {
                let Value::Obj(o) = item else {
                    panic!("{key} entry is an object")
                };
                let field = |k: &str| match o.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// What the harness prints is what `BENCHMARK.json` declares:
    /// the same workloads, metric names and units, in the same order.
    #[test]
    fn benchmark_json_names_what_the_harness_prints() {
        let doc: Value = serde_json::from_str(&repo_file("BENCHMARK.json")).unwrap();
        let declared: Vec<String> = names(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(declared, gen::WORKLOADS);
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&workloads::END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&layers::PER_LAYER));
    }
}
