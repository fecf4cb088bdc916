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
//! The file format is deliberately tiny (strings, booleans, arrays,
//! objects — nothing else), hand-rolled like every other serializer in
//! this workspace: the toolchain stays dependency-free. A checkpoint
//! written by a different schema version, for a different specification,
//! or under a different configuration is ignored wholesale, never
//! partially trusted.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

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
        push_json_str(&mut out, SCHEMA);
        out.push_str(",\n  \"spec\": ");
        push_json_str(&mut out, &self.spec);
        out.push_str(",\n  \"config\": ");
        push_json_str(&mut out, &self.config);
        out.push_str(",\n  \"phases\": [");
        for (i, phase) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            push_json_str(&mut out, &phase.name);
            let _ = write!(out, ", \"failed\": {}, \"section\": ", phase.failed);
            push_json_str(&mut out, &phase.section);
            out.push_str(", \"verdicts\": [");
            for (j, group) in phase.verdicts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"group\": ");
                push_json_str(&mut out, &group.group);
                out.push_str(", \"items\": [");
                for (k, item) in group.items.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    push_json_str(&mut out, item);
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
        let value = Parser::new(text).document()?;
        let top = value.as_obj().ok_or("top level is not an object")?;
        let schema = field_str(top, "schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported checkpoint schema `{schema}`"));
        }
        let mut phases = Vec::new();
        for entry in field(top, "phases")?
            .as_arr()
            .ok_or("`phases` is not an array")?
        {
            let obj = entry.as_obj().ok_or("phase entry is not an object")?;
            let mut verdicts = Vec::new();
            for group in field(obj, "verdicts")?
                .as_arr()
                .ok_or("`verdicts` is not an array")?
            {
                let gobj = group.as_obj().ok_or("verdict group is not an object")?;
                let items = field(gobj, "items")?
                    .as_arr()
                    .ok_or("`items` is not an array")?
                    .iter()
                    .map(|v| v.as_str().map(str::to_owned).ok_or("verdict is not a string"))
                    .collect::<Result<Vec<_>, _>>()?;
                verdicts.push(VerdictGroup {
                    group: field_str(gobj, "group")?.to_owned(),
                    items,
                });
            }
            phases.push(Phase {
                name: field_str(obj, "name")?.to_owned(),
                failed: field(obj, "failed")?
                    .as_bool()
                    .ok_or("`failed` is not a boolean")?,
                section: field_str(obj, "section")?.to_owned(),
                verdicts,
            });
        }
        Ok(Checkpoint {
            spec: field_str(top, "spec")?.to_owned(),
            config: field_str(top, "config")?.to_owned(),
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

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The JSON subset checkpoints use: strings, booleans, arrays, objects.
enum Json {
    Str(String),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }
}

fn field<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{name}`"))
}

fn field_str<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a str, String> {
    field(obj, name)?
        .as_str()
        .ok_or_else(|| format!("field `{name}` is not a string"))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn document(&mut self) -> Result<Json, String> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing input at byte {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(Json::Bool(false))
            }
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(Json::Obj(fields));
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_owned())?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("\\u{hex} is not a character"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_owned()),
            }
        }
    }
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
        let tampered = ckpt.render().replace("adt-checkpoint/v1", "adt-checkpoint/v9");
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
