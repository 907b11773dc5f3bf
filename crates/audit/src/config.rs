//! `audit.toml` loading.
//!
//! The analyzer is std-only, so this module carries a tiny TOML-subset
//! reader sufficient for the audit config: `[section]` headers and
//! `key = value` pairs where a value is a string, an integer (decimal
//! or `0x` hex, `_` separators), a boolean, or a (possibly multi-line)
//! array of strings. That subset is deliberately smaller than the
//! scenario codec in `antalloc-sim` — the audit binary must not depend
//! on the crates it audits.

use std::collections::BTreeMap;
use std::path::Path;

/// The audit configuration, normally read from `audit.toml` at the
/// workspace root.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate names (as path segments under `crates/`) whose `src/`
    /// trees are on the simulation path: the nondeterminism catalog
    /// applies in full.
    pub sim_path_crates: Vec<String>,
    /// Crates with the relaxed profile (tests/benches/examples);
    /// `shims/*` crates are always relaxed for path rules.
    pub relaxed_crates: Vec<String>,
    /// Kernel hot files: every numeric `as` cast must be a registered
    /// widening idiom or carry a pragma.
    pub cast_audit_files: Vec<String>,
    /// Engine step/apply paths: `unwrap`/`expect`/`panic!` need a
    /// pragma outside tests.
    pub panic_path_files: Vec<String>,
    /// The reserved-stream registry source file.
    pub stream_registry: String,
    /// Reserved ids must be `>=` this bound (ant indices grow from 0).
    pub ant_index_ceiling: u64,
    /// The checkpoint codec source carrying `const VERSION`.
    pub checkpoint_source: String,
    /// The checkpoint format doc that must state the same version.
    pub checkpoint_doc: String,
    /// Summary docs whose checkpoint version ranges (`v2 → … → vN`)
    /// must end at the same version.
    pub checkpoint_range_docs: Vec<String>,
    /// Directory that must hold a `checkpoint_v{N}_*.ckpt` fixture for
    /// every readable version older than the current one (`None`
    /// skips the check).
    pub checkpoint_fixture_dir: Option<String>,
    /// Docs that must table every reserved stream.
    pub stream_table_docs: Vec<String>,
    /// `crate name -> reason` entries allowed to omit
    /// `#![forbid(unsafe_code)]`.
    pub unsafe_allowlist: BTreeMap<String, String>,
}

/// A config-file problem (I/O or parse).
#[derive(Debug)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "audit.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Reads and parses `path`.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("{}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Parses config text.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let raw = parse_toml(text)?;
        let get_list = |section: &str, key: &str| -> Vec<String> {
            match raw.get(&(section.to_string(), key.to_string())) {
                Some(Value::Array(a)) => a.clone(),
                _ => Vec::new(),
            }
        };
        let get_str = |section: &str, key: &str| -> Option<String> {
            match raw.get(&(section.to_string(), key.to_string())) {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            }
        };
        let get_int = |section: &str, key: &str| -> Option<u64> {
            match raw.get(&(section.to_string(), key.to_string())) {
                Some(Value::Int(v)) => Some(*v),
                _ => None,
            }
        };
        let mut unsafe_allowlist = BTreeMap::new();
        for ((section, key), value) in &raw {
            if section == "unsafe-allowlist" {
                if let Value::Str(reason) = value {
                    unsafe_allowlist.insert(key.clone(), reason.clone());
                }
            }
        }
        Ok(Config {
            sim_path_crates: get_list("paths", "sim-path-crates"),
            relaxed_crates: get_list("paths", "relaxed-crates"),
            cast_audit_files: get_list("paths", "cast-audit-files"),
            panic_path_files: get_list("paths", "panic-path-files"),
            stream_registry: get_str("streams", "registry")
                .ok_or_else(|| ConfigError("missing [streams] registry".into()))?,
            ant_index_ceiling: get_int("streams", "ant-index-ceiling")
                .ok_or_else(|| ConfigError("missing [streams] ant-index-ceiling".into()))?,
            checkpoint_source: get_str("consistency", "checkpoint-source")
                .ok_or_else(|| ConfigError("missing [consistency] checkpoint-source".into()))?,
            checkpoint_doc: get_str("consistency", "checkpoint-doc")
                .ok_or_else(|| ConfigError("missing [consistency] checkpoint-doc".into()))?,
            checkpoint_range_docs: get_list("consistency", "checkpoint-range-docs"),
            checkpoint_fixture_dir: get_str("consistency", "checkpoint-fixture-dir"),
            stream_table_docs: get_list("consistency", "stream-table-docs"),
            unsafe_allowlist,
        })
    }
}

#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Int(u64),
    Array(Vec<String>),
}

type Table = BTreeMap<(String, String), Value>;

fn parse_toml(text: &str) -> Result<Table, ConfigError> {
    let mut out = Table::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((ln, line)) = lines.next() {
        let line = strip_comment(line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| ConfigError(format!("line {}: unclosed section", ln + 1)))?;
            section = name.trim().to_string();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| ConfigError(format!("line {}: expected key = value", ln + 1)))?;
        let key = key.trim();
        let key = key
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .unwrap_or(key)
            .to_string();
        let mut value = value.trim().to_string();
        // Multi-line arrays: keep consuming lines until the bracket closes.
        if value.starts_with('[') {
            while !value.ends_with(']') {
                let (ln2, more) = lines
                    .next()
                    .ok_or_else(|| ConfigError(format!("line {}: unclosed array", ln + 1)))?;
                let more = strip_comment(more).trim().to_string();
                let _ = ln2;
                value.push(' ');
                value.push_str(&more);
            }
        }
        out.insert((section.clone(), key), parse_value(&value, ln + 1)?);
    }
    Ok(out)
}

fn strip_comment(line: &str) -> &str {
    // A '#' outside a quoted string starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str, ln: usize) -> Result<Value, ConfigError> {
    if let Some(body) = v.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| ConfigError(format!("line {ln}: unclosed array")))?;
        let mut items = Vec::new();
        for item in body.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match parse_value(item, ln)? {
                Value::Str(s) => items.push(s),
                _ => return Err(ConfigError(format!("line {ln}: arrays hold strings only"))),
            }
        }
        return Ok(Value::Array(items));
    }
    if let Some(body) = v.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| ConfigError(format!("line {ln}: unclosed string")))?;
        return Ok(Value::Str(body.to_string()));
    }
    let digits = v.replace('_', "");
    let parsed = if let Some(hex) = digits.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        digits.parse::<u64>()
    };
    parsed
        .map(Value::Int)
        .map_err(|_| ConfigError(format!("line {ln}: cannot parse value `{v}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shipped_schema() {
        let cfg = Config::parse(
            r##"
# comment
[paths]
sim-path-crates = ["core", "rng"]
cast-audit-files = [
    "crates/core/src/ant_bank.rs", # trailing comment
    "crates/rng/src/uniform.rs",
]
panic-path-files = []
relaxed-crates = ["bench"]

[streams]
registry = "crates/rng/src/stream.rs"
ant-index-ceiling = 0xFFFF_FFFF_0000_0000

[consistency]
checkpoint-source = "crates/sim/src/checkpoint.rs"
checkpoint-doc = "docs/CHECKPOINTS.md"
stream-table-docs = ["docs/ARCHITECTURE.md"]

[unsafe-allowlist]
"shims/example" = "needs raw parts for the FFI stand-in"
"##,
        )
        .unwrap();
        assert_eq!(cfg.sim_path_crates, ["core", "rng"]);
        assert_eq!(cfg.cast_audit_files.len(), 2);
        assert_eq!(cfg.ant_index_ceiling, 0xFFFF_FFFF_0000_0000);
        assert_eq!(
            cfg.unsafe_allowlist.get("shims/example").unwrap(),
            "needs raw parts for the FFI stand-in"
        );
    }

    #[test]
    fn missing_required_key_errors() {
        assert!(Config::parse("[paths]\n").is_err());
    }
}
