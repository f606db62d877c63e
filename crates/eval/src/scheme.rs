//! The unified scheme vocabulary: one parsing grammar, one registry.
//!
//! Every experiment surface in this workspace names congestion-control
//! schemes with the same label grammar:
//!
//! - a bare registry name (`"cubic"`, `"bbr"`, `"pcc-vivace"`, …) — a
//!   scheme the [`SchemeRegistry`] can instantiate directly;
//! - `"mocc"` — the learned MOCC policy under the running experiment's
//!   default preference;
//! - `"mocc:<pref>"` — MOCC under an explicit preference, where
//!   `<pref>` is one of the shorthands `thr` / `lat` / `bal` (also
//!   spelled `throughput` / `latency` / `balanced`) or three
//!   comma-separated non-negative weights (`"mocc:0.6,0.3,0.1"`,
//!   normalized to sum to one).
//!
//! [`SchemeSpec::parse`] checks the *grammar* (a malformed `mocc:`
//! preference is a typed [`SpecError`], never a silent fall-through to
//! the baseline namespace); [`SchemeRegistry::resolve`] checks the
//! *vocabulary* (an unknown baseline name reports the known names).
//! Both return [`SpecError`] — nothing in the spec layer panics on bad
//! input, so spec files can be validated before any simulation starts.
//!
//! The registry is pluggable: [`SchemeRegistry::with_scheme`] registers
//! a custom constructor (a trained model wrapper, a test controller)
//! under a custom label, and every spec-driven path — sweeps,
//! competition mixes, friendliness controls — resolves through it.

use mocc_netsim::cc::CongestionControl;
use std::fmt;

/// A typed error from parsing, validating, or running an experiment
/// spec. Every failure mode that used to panic mid-run (unknown
/// baseline names, malformed `mocc:` preferences) surfaces here at
/// spec-validation time instead.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A scheme label named nothing in the registry.
    UnknownScheme {
        /// The offending label.
        name: String,
        /// Every name the registry does know, in listing order.
        known: Vec<String>,
    },
    /// A `mocc:<pref>` label whose preference part does not parse.
    MalformedMoccPref {
        /// The full offending label.
        label: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A structurally invalid experiment spec (empty axis, degenerate
    /// lifecycle window, missing policy for a `mocc` scheme, …).
    InvalidSpec {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A `mocc` label reached [`SchemeRegistry::instantiate`], which
    /// builds registry schemes only: a `mocc` flow is driven by the
    /// policy `mocc-core`'s experiment runner materializes.
    NeedsPolicyEngine {
        /// The MOCC label that could not be served.
        label: String,
    },
    /// A file or directory a spec names (the spec itself, a replay
    /// trace, a model, a checkpoint directory, an output directory)
    /// could not be read or written.
    Io {
        /// Path of the file or directory.
        path: String,
        /// The underlying I/O error message.
        reason: String,
    },
    /// A spec file is not valid JSON / not a valid spec document.
    Json {
        /// The underlying parse error message.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownScheme { name, known } => write!(
                f,
                "unknown scheme {name:?}; known schemes: {} \
                 (plus `mocc` / `mocc:<thr|lat|bal|w1,w2,w3>`)",
                known.join(", ")
            ),
            SpecError::MalformedMoccPref { label, reason } => write!(
                f,
                "malformed MOCC label {label:?}: {reason} \
                 (expected `mocc:thr`, `mocc:lat`, `mocc:bal`, or `mocc:w1,w2,w3` \
                 with non-negative weights)"
            ),
            SpecError::InvalidSpec { reason } => write!(f, "invalid spec: {reason}"),
            SpecError::NeedsPolicyEngine { label } => write!(
                f,
                "scheme {label:?} needs a MOCC policy engine: add a `policy` section \
                 to the spec and run it through `mocc_core::run_experiment` \
                 (or the `mocc` CLI); a scheme registry cannot build it"
            ),
            SpecError::Io { path, reason } => write!(f, "{path}: {reason}"),
            SpecError::Json { reason } => write!(f, "spec does not parse: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The preference part of a `mocc:<pref>` label: the paper's shorthand
/// weight vectors or an explicit weight triple. This is declarative
/// data — `mocc-core` maps it onto its `Preference` type; keeping the
/// parsed form here lets spec files be validated without a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoccPrefSpec {
    /// `thr` / `throughput`: the paper's <0.8, 0.1, 0.1>.
    Throughput,
    /// `lat` / `latency`: the paper's <0.1, 0.8, 0.1>.
    Latency,
    /// `bal` / `balanced`: <1/3, 1/3, 1/3>.
    Balanced,
    /// Explicit raw weights (thr, lat, loss), not yet normalized.
    Weights([f64; 3]),
}

impl MoccPrefSpec {
    /// Parses the `<pref>` part of a `mocc:<pref>` label. Errors
    /// describe the violation; the caller wraps them into
    /// [`SpecError::MalformedMoccPref`] with the full label.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "thr" | "throughput" => Ok(MoccPrefSpec::Throughput),
            "lat" | "latency" => Ok(MoccPrefSpec::Latency),
            "bal" | "balanced" => Ok(MoccPrefSpec::Balanced),
            "" => Err("empty preference".to_string()),
            _ => {
                let parts: Vec<&str> = spec.split(',').collect();
                if parts.len() != 3 {
                    return Err(format!(
                        "{spec:?} is neither a shorthand nor a weight triple"
                    ));
                }
                let mut w = [0.0f64; 3];
                for (slot, part) in w.iter_mut().zip(&parts) {
                    let v: f64 = part
                        .trim()
                        .parse()
                        .map_err(|_| format!("weight {part:?} is not a number"))?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(format!("weight {part:?} must be finite and >= 0"));
                    }
                    *slot = v;
                }
                if w.iter().sum::<f64>() <= 0.0 {
                    return Err("at least one weight must be positive".to_string());
                }
                Ok(MoccPrefSpec::Weights(w))
            }
        }
    }

    /// The canonical text form (the `<pref>` part of a `mocc:<pref>`
    /// label): `thr`/`lat`/`bal` shorthands, `t,l,s` for raw weights.
    /// Used by spec serialization and the cache-key derivation, so the
    /// form is frozen.
    pub fn label(&self) -> String {
        match self {
            MoccPrefSpec::Throughput => "thr".to_string(),
            MoccPrefSpec::Latency => "lat".to_string(),
            MoccPrefSpec::Balanced => "bal".to_string(),
            MoccPrefSpec::Weights([t, l, s]) => format!("{t},{l},{s}"),
        }
    }

    /// The raw weights as `(thr, lat, loss)`, shorthands expanded to
    /// the paper's example vectors (unnormalized; consumers normalize).
    pub fn weights(&self) -> [f64; 3] {
        match *self {
            MoccPrefSpec::Throughput => [0.8, 0.1, 0.1],
            MoccPrefSpec::Latency => [0.1, 0.8, 0.1],
            MoccPrefSpec::Balanced => [1.0, 1.0, 1.0],
            MoccPrefSpec::Weights(w) => w,
        }
    }
}

/// How a parsed label resolves, structurally.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeKind {
    /// A registry-instantiable scheme named by the label.
    Registry,
    /// The MOCC policy under the experiment's default preference.
    MoccDefault,
    /// The MOCC policy under an explicit preference.
    Mocc(MoccPrefSpec),
}

/// A parsed scheme label: the raw string (preserved verbatim, so
/// labels round-trip byte-identically through reports and spec files)
/// plus its parsed [`SchemeKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSpec {
    raw: String,
    kind: SchemeKind,
}

impl SchemeSpec {
    /// Parses a label against the shared grammar. This checks shape
    /// only — `mocc:` preferences must parse, labels must be nonempty —
    /// not vocabulary; resolve registry names with
    /// [`SchemeRegistry::resolve`] (or [`SchemeRegistry::parse`], which
    /// does both).
    pub fn parse(label: &str) -> Result<Self, SpecError> {
        let kind = if label == "mocc" {
            SchemeKind::MoccDefault
        } else if let Some(pref) = label.strip_prefix("mocc:") {
            SchemeKind::Mocc(MoccPrefSpec::parse(pref).map_err(|reason| {
                SpecError::MalformedMoccPref {
                    label: label.to_string(),
                    reason,
                }
            })?)
        } else if label.is_empty() {
            return Err(SpecError::InvalidSpec {
                reason: "empty scheme label".to_string(),
            });
        } else {
            SchemeKind::Registry
        };
        Ok(SchemeSpec {
            raw: label.to_string(),
            kind,
        })
    }

    /// The label exactly as written (what reports print and spec files
    /// store).
    pub fn label(&self) -> &str {
        &self.raw
    }

    /// The parsed structure of the label.
    pub fn kind(&self) -> &SchemeKind {
        &self.kind
    }

    /// True for `mocc` / `mocc:<pref>` labels (which need a policy
    /// engine to instantiate).
    pub fn is_mocc(&self) -> bool {
        !matches!(self.kind, SchemeKind::Registry)
    }

    /// The explicit preference of a `mocc:<pref>` label, `None` for
    /// bare `mocc` and for registry schemes.
    pub fn mocc_pref(&self) -> Option<MoccPrefSpec> {
        match self.kind {
            SchemeKind::Mocc(p) => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

impl std::str::FromStr for SchemeSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        SchemeSpec::parse(s)
    }
}

// Hand-written: the JSON form is the label text, which no derive attribute spells.
impl serde::Serialize for SchemeSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.raw.clone())
    }
}

impl<'de> serde::Deserialize<'de> for SchemeSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => SchemeSpec::parse(s).map_err(serde::Error::custom),
            _ => Err(serde::Error::custom(format!(
                "expected scheme label string, got {v:?}"
            ))),
        }
    }
}

// Hand-written: the JSON form is the label text, which no derive attribute spells.
impl serde::Serialize for MoccPrefSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label())
    }
}

impl<'de> serde::Deserialize<'de> for MoccPrefSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => MoccPrefSpec::parse(s).map_err(serde::Error::custom),
            _ => Err(serde::Error::custom(format!(
                "expected preference label string, got {v:?}"
            ))),
        }
    }
}

/// Instantiation context handed to scheme constructors: everything a
/// constructor may scale its initial state by.
#[derive(Debug, Clone, Copy)]
pub struct SchemeCtx {
    /// Peak bottleneck rate of the scenario the controller will run
    /// in, bits/s (the cell trace's maximum).
    pub peak_rate_bps: f64,
}

impl SchemeCtx {
    /// The context of a controller about to run in `scenario`.
    pub fn of(scenario: &mocc_netsim::Scenario) -> Self {
        SchemeCtx {
            peak_rate_bps: scenario.link.trace.max_rate(),
        }
    }
}

type SchemeCtor = Box<dyn Fn(&SchemeCtx) -> Box<dyn CongestionControl> + Sync + Send>;

struct RegistryEntry {
    name: String,
    summary: String,
    ctor: SchemeCtor,
}

/// The pluggable scheme registry: every instantiable scheme label,
/// each with a one-line summary and a constructor. [`Default`] /
/// [`SchemeRegistry::builtin`] holds every `mocc-cc` baseline;
/// [`SchemeRegistry::with_scheme`] adds (or replaces) custom entries.
///
/// `mocc` / `mocc:<pref>` labels are part of the shared grammar but
/// are *not* registry entries: they need a policy, so
/// [`SchemeRegistry::resolve`] accepts them (the grammar already
/// validated the preference) while [`SchemeRegistry::instantiate`]
/// returns [`SpecError::NeedsPolicyEngine`] — `mocc-core`'s
/// experiment runner drives them by the spec's policy and builds every
/// other flow of the spec through the registry it was given.
pub struct SchemeRegistry {
    entries: Vec<RegistryEntry>,
}

impl Default for SchemeRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl fmt::Debug for SchemeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemeRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl SchemeRegistry {
    /// A registry with no entries (build fully custom vocabularies for
    /// tests or embedders).
    pub fn empty() -> Self {
        SchemeRegistry {
            entries: Vec::new(),
        }
    }

    /// The built-in registry: every `mocc-cc` baseline, in the paper's
    /// comparison order.
    pub fn builtin() -> Self {
        let mut reg = SchemeRegistry::empty();
        for &name in mocc_cc::BASELINES {
            let summary = mocc_cc::describe(name)
                .expect("every BASELINES entry has a summary")
                .to_string();
            reg = reg.with_scheme(name, &summary, move |_ctx| {
                mocc_cc::by_name(name).expect("every BASELINES entry constructs")
            });
        }
        reg
    }

    /// Registers `name` with a constructor, replacing any existing
    /// entry of the same name. Returns `self` for chaining.
    pub fn with_scheme(
        mut self,
        name: &str,
        summary: &str,
        ctor: impl Fn(&SchemeCtx) -> Box<dyn CongestionControl> + Sync + Send + 'static,
    ) -> Self {
        self.entries.retain(|e| e.name != name);
        self.entries.push(RegistryEntry {
            name: name.to_string(),
            summary: summary.to_string(),
            ctor: Box::new(ctor),
        });
        self
    }

    /// Every registered name, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// `(name, summary)` pairs in registration order, for listings.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries
            .iter()
            .map(|e| (e.name.as_str(), e.summary.as_str()))
    }

    /// Checks that `spec` is servable: registry labels must be
    /// registered; `mocc` labels pass (their grammar was validated at
    /// parse time; instantiation needs the policy engine).
    pub fn resolve(&self, spec: &SchemeSpec) -> Result<(), SpecError> {
        match spec.kind() {
            SchemeKind::Registry => {
                if self.entries.iter().any(|e| e.name == spec.label()) {
                    Ok(())
                } else {
                    Err(SpecError::UnknownScheme {
                        name: spec.label().to_string(),
                        known: self.names().iter().map(|s| s.to_string()).collect(),
                    })
                }
            }
            SchemeKind::MoccDefault | SchemeKind::Mocc(_) => Ok(()),
        }
    }

    /// Parses *and* resolves a label: the one-call lookup unifying the
    /// grammar check and the vocabulary check.
    pub fn parse(&self, label: &str) -> Result<SchemeSpec, SpecError> {
        let spec = SchemeSpec::parse(label)?;
        self.resolve(&spec)?;
        Ok(spec)
    }

    /// Instantiates a registry scheme. `mocc` labels are valid specs
    /// but need the policy engine: [`SpecError::NeedsPolicyEngine`].
    pub fn instantiate(
        &self,
        spec: &SchemeSpec,
        ctx: &SchemeCtx,
    ) -> Result<Box<dyn CongestionControl>, SpecError> {
        match spec.kind() {
            SchemeKind::Registry => {
                let entry = self
                    .entries
                    .iter()
                    .find(|e| e.name == spec.label())
                    .ok_or_else(|| SpecError::UnknownScheme {
                        name: spec.label().to_string(),
                        known: self.names().iter().map(|s| s.to_string()).collect(),
                    })?;
                Ok((entry.ctor)(ctx))
            }
            SchemeKind::MoccDefault | SchemeKind::Mocc(_) => Err(SpecError::NeedsPolicyEngine {
                label: spec.label().to_string(),
            }),
        }
    }

    /// Parses, resolves, and instantiates a label in one call.
    pub fn instantiate_label(
        &self,
        label: &str,
        ctx: &SchemeCtx,
    ) -> Result<Box<dyn CongestionControl>, SpecError> {
        let spec = self.parse(label)?;
        self.instantiate(&spec, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_accepts_every_builtin_and_mocc_form() {
        let reg = SchemeRegistry::builtin();
        for name in mocc_cc::BASELINES {
            let spec = reg.parse(name).unwrap();
            assert_eq!(spec.label(), *name);
            assert!(!spec.is_mocc());
        }
        for label in [
            "mocc",
            "mocc:thr",
            "mocc:lat",
            "mocc:bal",
            "mocc:throughput",
            "mocc:latency",
            "mocc:balanced",
            "mocc:0.6,0.3,0.1",
            "mocc:2, 1, 1",
        ] {
            let spec = reg.parse(label).unwrap();
            assert!(spec.is_mocc(), "{label}");
            assert_eq!(spec.label(), label, "labels round-trip verbatim");
        }
        assert_eq!(
            reg.parse("mocc:0.6,0.3,0.1").unwrap().mocc_pref(),
            Some(MoccPrefSpec::Weights([0.6, 0.3, 0.1]))
        );
        assert_eq!(reg.parse("mocc").unwrap().mocc_pref(), None);
    }

    #[test]
    fn unknown_names_report_the_known_vocabulary() {
        let reg = SchemeRegistry::builtin();
        let err = reg.parse("reno").unwrap_err();
        match &err {
            SpecError::UnknownScheme { name, known } => {
                assert_eq!(name, "reno");
                assert!(known.iter().any(|n| n == "cubic"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("cubic"), "{err}");
    }

    #[test]
    fn malformed_mocc_prefs_are_typed_errors_not_baselines() {
        for label in [
            "mocc:fast",
            "mocc:",
            "mocc:1,2",
            "mocc:1,2,3,4",
            "mocc:-1,1,1",
            "mocc:0,0,0",
            "mocc:nan,1,1",
            "mocc:inf,1,1",
        ] {
            match SchemeSpec::parse(label) {
                Err(SpecError::MalformedMoccPref { label: l, .. }) => assert_eq!(l, label),
                other => panic!("{label}: expected MalformedMoccPref, got {other:?}"),
            }
        }
        assert!(matches!(
            SchemeSpec::parse(""),
            Err(SpecError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn pref_shorthands_expand_to_paper_vectors() {
        assert_eq!(
            MoccPrefSpec::parse("thr").unwrap().weights(),
            [0.8, 0.1, 0.1]
        );
        assert_eq!(
            MoccPrefSpec::parse("lat").unwrap().weights(),
            [0.1, 0.8, 0.1]
        );
        assert_eq!(
            MoccPrefSpec::parse("bal").unwrap().weights(),
            [1.0, 1.0, 1.0]
        );
    }

    #[test]
    fn instantiate_builds_baselines_and_rejects_mocc() {
        let reg = SchemeRegistry::builtin();
        let ctx = SchemeCtx { peak_rate_bps: 1e7 };
        let cc = reg.instantiate_label("cubic", &ctx).unwrap();
        assert_eq!(cc.name(), "cubic");
        match reg.instantiate_label("mocc:thr", &ctx) {
            Err(err) => {
                assert!(matches!(err, SpecError::NeedsPolicyEngine { .. }), "{err}")
            }
            Ok(_) => panic!("mocc scheme must not instantiate without a policy"),
        }
    }

    #[test]
    fn custom_schemes_plug_in_and_replace() {
        use mocc_netsim::cc::FixedRate;
        let reg = SchemeRegistry::builtin()
            .with_scheme("half-peak", "fixed at half the peak rate", |ctx| {
                Box::new(FixedRate::new(0.5 * ctx.peak_rate_bps))
            })
            .with_scheme("cubic", "replaced cubic", |_| Box::new(FixedRate::new(1e6)));
        let ctx = SchemeCtx { peak_rate_bps: 8e6 };
        assert!(reg.parse("half-peak").is_ok());
        assert_eq!(
            reg.instantiate_label("half-peak", &ctx).unwrap().name(),
            "fixed"
        );
        // Replacement wins and the registry holds one entry per name.
        assert_eq!(
            reg.instantiate_label("cubic", &ctx).unwrap().name(),
            "fixed"
        );
        assert_eq!(reg.names().iter().filter(|n| **n == "cubic").count(), 1);
    }

    #[test]
    fn scheme_spec_serde_round_trips() {
        for label in ["cubic", "mocc", "mocc:thr", "mocc:0.5,0.25,0.25"] {
            let spec = SchemeSpec::parse(label).unwrap();
            let v = serde::Serialize::to_value(&spec);
            let back: SchemeSpec = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.label(), label);
        }
        let bad = serde::Value::Str("mocc:oops".to_string());
        assert!(<SchemeSpec as serde::Deserialize>::from_value(&bad).is_err());
    }
}
