//! Checkpoint/resume for `adt check`: a versioned JSON file recording
//! the results of every *completed* check phase, keyed by the
//! specification's content hash and the check configuration.
//!
//! A phase is recorded only when it finished without a supervisor
//! interrupt, so a resumed run replays cached sections byte for byte and
//! recomputes exactly the phases the interrupted run never finished —
//! the final report is identical to one uninterrupted run's, at any
//! `--jobs`.
//!
//! The file holds only strings, booleans, arrays and objects.
//! [`Checkpoint::render`] owns the field layout; string escaping and all
//! parsing go through the workspace's one codec, [`adt_core::json`],
//! whose nesting cap turns even a pathologically deep corrupt file into a
//! parse error. A checkpoint written by a different schema version, for
//! a different specification, or under a different configuration is
//! ignored wholesale, never partially trusted.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use adt_core::json::{self, quote, Json};

/// The schema tag every checkpoint file must carry.
pub const SCHEMA: &str = "adt-checkpoint/v1";

/// A named vector of per-item verdict strings (e.g. the consistency
/// phase's `pairs` and `probes` vectors), preserved across a resume so
/// harnesses can compare item-wise without re-running the phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictGroup {
    /// Group label (`"pairs"`, `"probes"`).
    pub group: String,
    /// Per-item verdicts, in item order.
    pub items: Vec<String>,
}

/// One completed phase: its rendered report section, whether it failed
/// the check, and its per-item verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Phase name (`"completeness"`, `"consistency"`).
    pub name: String,
    /// Whether the phase produced a definite negative verdict.
    pub failed: bool,
    /// The exact report section the phase rendered.
    pub section: String,
    /// Per-item verdict vectors, if the phase has any.
    pub verdicts: Vec<VerdictGroup>,
}

/// An on-disk checkpoint: spec hash, configuration fingerprint, and the
/// phases completed so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// FNV-1a hash of the canonical specification text.
    pub spec: String,
    /// Fingerprint of the check configuration the results depend on.
    pub config: String,
    /// Completed phases, in completion order.
    pub phases: Vec<Phase>,
}

impl Checkpoint {
    /// An empty checkpoint for the given spec hash and config
    /// fingerprint.
    pub fn new(spec: String, config: String) -> Self {
        Checkpoint {
            spec,
            config,
            phases: Vec::new(),
        }
    }

    /// Whether this checkpoint was written for the same specification
    /// and configuration.
    pub fn matches(&self, spec: &str, config: &str) -> bool {
        self.spec == spec && self.config == config
    }

    /// The cached entry for `name`, if that phase completed.
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Records (or replaces) a completed phase.
    pub fn set_phase(&mut self, phase: Phase) {
        match self.phases.iter_mut().find(|p| p.name == phase.name) {
            Some(slot) => *slot = phase,
            None => self.phases.push(phase),
        }
    }

    /// Renders the checkpoint as JSON.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(out, "  \"schema\": ");
        out.push_str(&quote(SCHEMA));
        out.push_str(",\n  \"spec\": ");
        out.push_str(&quote(&self.spec));
        out.push_str(",\n  \"config\": ");
        out.push_str(&quote(&self.config));
        out.push_str(",\n  \"phases\": [");
        for (i, phase) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            out.push_str(&quote(&phase.name));
            let _ = write!(out, ", \"failed\": {}, \"section\": ", phase.failed);
            out.push_str(&quote(&phase.section));
            out.push_str(", \"verdicts\": [");
            for (j, group) in phase.verdicts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"group\": ");
                out.push_str(&quote(&group.group));
                out.push_str(", \"items\": [");
                for (k, item) in group.items.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&quote(item));
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a checkpoint back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON, a missing
    /// field, or a schema tag this version does not understand.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let top = json::parse(text)?;
        let schema = top.field("schema", Json::as_str)?;
        if schema != SCHEMA {
            return Err(format!("unsupported checkpoint schema `{schema}`"));
        }
        let mut phases = Vec::new();
        for phase in top.field("phases", Json::as_arr)? {
            let mut verdicts = Vec::new();
            for group in phase.field("verdicts", Json::as_arr)? {
                let items = group
                    .field("items", Json::as_arr)?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_owned)
                            .ok_or("verdict is not a string")
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                verdicts.push(VerdictGroup {
                    group: group.field("group", Json::as_str)?.to_owned(),
                    items,
                });
            }
            phases.push(Phase {
                name: phase.field("name", Json::as_str)?.to_owned(),
                failed: phase.field("failed", Json::as_bool)?,
                section: phase.field("section", Json::as_str)?.to_owned(),
                verdicts,
            });
        }
        Ok(Checkpoint {
            spec: top.field("spec", Json::as_str)?.to_owned(),
            config: top.field("config", Json::as_str)?.to_owned(),
            phases,
        })
    }

    /// Loads a checkpoint from `path`. Returns `None` when the file does
    /// not exist, cannot be read, or does not parse — a stale or
    /// corrupted checkpoint degrades to a fresh run, never an error.
    pub fn load(path: &Path) -> Option<Checkpoint> {
        let text = fs::read_to_string(path).ok()?;
        Checkpoint::parse(&text).ok()
    }

    /// Writes the checkpoint to `path` (replacing any previous file).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        fs::write(path, self.render())
    }
}

/// FNV-1a (64-bit) over the input, as fixed-width lowercase hex — the
/// content key checkpoints are matched on.
pub fn fnv1a_hex(text: &str) -> String {
    format!("{:016x}", adt_core::fnv1a(text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut ckpt = Checkpoint::new("deadbeef".to_owned(), "fuel=100;retry=none".to_owned());
        ckpt.set_phase(Phase {
            name: "completeness".to_owned(),
            failed: false,
            section: "sufficiently complete: yes\n".to_owned(),
            verdicts: Vec::new(),
        });
        ckpt.set_phase(Phase {
            name: "consistency".to_owned(),
            failed: true,
            section: "consistent: NO\n  weird \"quotes\" and\ttabs\n".to_owned(),
            verdicts: vec![VerdictGroup {
                group: "pairs".to_owned(),
                items: vec!["joins at NEW".to_owned(), "diverged: A vs B".to_owned()],
            }],
        });
        ckpt
    }

    #[test]
    fn render_parse_round_trips_exactly() {
        let ckpt = sample();
        let parsed = Checkpoint::parse(&ckpt.render()).unwrap();
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn render_layout_is_pinned() {
        // Checkpoints written by earlier builds must keep matching byte
        // for byte, so the layout and the escaping are both fixed here.
        let expected = r#"{
  "schema": "adt-checkpoint/v1",
  "spec": "deadbeef",
  "config": "fuel=100;retry=none",
  "phases": [
    {"name": "completeness", "failed": false, "section": "sufficiently complete: yes\n", "verdicts": []},
    {"name": "consistency", "failed": true, "section": "consistent: NO\n  weird \"quotes\" and\ttabs\n", "verdicts": [{"group": "pairs", "items": ["joins at NEW", "diverged: A vs B"]}]}
  ]
}
"#;
        assert_eq!(sample().render(), expected);
    }

    #[test]
    fn set_phase_replaces_by_name() {
        let mut ckpt = sample();
        ckpt.set_phase(Phase {
            name: "consistency".to_owned(),
            failed: false,
            section: "consistent: yes\n".to_owned(),
            verdicts: Vec::new(),
        });
        assert_eq!(ckpt.phases.len(), 2);
        assert!(!ckpt.phase("consistency").unwrap().failed);
    }

    #[test]
    fn mismatched_schema_spec_or_config_is_rejected() {
        let ckpt = sample();
        assert!(ckpt.matches("deadbeef", "fuel=100;retry=none"));
        assert!(!ckpt.matches("deadbeef", "fuel=200;retry=none"));
        assert!(!ckpt.matches("cafef00d", "fuel=100;retry=none"));
        let tampered = ckpt
            .render()
            .replace("adt-checkpoint/v1", "adt-checkpoint/v9");
        assert!(Checkpoint::parse(&tampered).is_err());
    }

    #[test]
    fn garbage_input_degrades_to_none_on_load() {
        assert!(Checkpoint::parse("{").is_err());
        assert!(Checkpoint::parse("{}").is_err());
        assert!(Checkpoint::parse("42").is_err());
        assert!(Checkpoint::load(Path::new("/no/such/checkpoint.json")).is_none());
    }

    #[test]
    fn fnv_hash_is_stable_and_content_sensitive() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("abc"), fnv1a_hex("abc"));
        assert_ne!(fnv1a_hex("abc"), fnv1a_hex("abd"));
        assert_eq!(fnv1a_hex("abc").len(), 16);
    }

    #[test]
    fn control_characters_survive_the_round_trip() {
        let mut ckpt = Checkpoint::new("h".to_owned(), "c".to_owned());
        ckpt.set_phase(Phase {
            name: "p".to_owned(),
            failed: false,
            section: "bell \u{7} nul-adjacent \u{1} fin\n".to_owned(),
            verdicts: Vec::new(),
        });
        assert_eq!(Checkpoint::parse(&ckpt.render()).unwrap(), ckpt);
    }
}
