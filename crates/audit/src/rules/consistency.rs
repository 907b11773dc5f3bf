//! Cross-file consistency checks.
//!
//! Two facts live in both code and docs and have historically drifted
//! in projects like this one:
//!
//! * the **checkpoint format version** — `const VERSION` in the
//!   checkpoint codec vs the "current version (vN)" statement and the
//!   version-history table column in `docs/CHECKPOINTS.md`, vs every
//!   version range (`v2 → … → vN`) in the summary docs that mention
//!   the format (the README), and vs the fixture directory, which must
//!   hold a binary fixture for every version the reader accepts
//!   (`MIN_VERSION..=VERSION`), the current one included;
//! * the **reserved-stream registry** — every constant in the `rng`
//!   registry must appear as a table row in each configured doc, so a
//!   new subsystem stream cannot land undocumented.

use std::path::Path;

use crate::config::Config;
use crate::rules::streams::ReservedConst;
use crate::Diagnostic;

/// Runs all cross-file checks, pushing diagnostics into `diags`.
pub fn check(root: &Path, cfg: &Config, registry: &[ReservedConst], diags: &mut Vec<Diagnostic>) {
    check_version(root, cfg, diags);
    check_stream_tables(root, cfg, registry, diags);
}

fn check_version(root: &Path, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    let Some(source) = read(root, &cfg.checkpoint_source, diags) else {
        return;
    };
    let Some((src_line, version)) = const_u32(&source, "VERSION") else {
        diags.push(diag(
            "doc-version",
            &cfg.checkpoint_source,
            1,
            "no `const VERSION: u32 = ..;` declaration found".into(),
        ));
        return;
    };
    for doc_path in &cfg.checkpoint_range_docs {
        if let Some(doc) = read(root, doc_path, diags) {
            check_version_ranges(&doc, doc_path, version, cfg, src_line, diags);
        }
    }
    if let Some(dir) = &cfg.checkpoint_fixture_dir {
        check_fixtures(root, dir, &source, version, cfg, diags);
    }
    let Some(doc) = read(root, &cfg.checkpoint_doc, diags) else {
        return;
    };
    // The doc must state the current version in prose…
    let marker = format!("current version (v{version})");
    if !doc.contains(&marker) {
        let line = find_line(&doc, "current version (v").unwrap_or(1);
        diags.push(diag(
            "doc-version",
            &cfg.checkpoint_doc,
            line,
            format!(
                "checkpoint codec declares format v{version} ({}:{src_line}) but the doc does \
                 not say \"{marker}\"",
                cfg.checkpoint_source
            ),
        ));
    }
    // …and carry a version-history table column for it.
    let column = format!("| v{version} |");
    if !doc.contains(&column) && !doc.contains(&format!("| v{version} ")) {
        diags.push(diag(
            "doc-version",
            &cfg.checkpoint_doc,
            1,
            format!("the version-history table has no `v{version}` column"),
        ));
    }
}

/// The `(line, value)` of `const NAME: u32 = value;` in `source`.
fn const_u32(source: &str, name: &str) -> Option<(usize, u32)> {
    let prefix = format!("const {name}: u32 =");
    source.lines().enumerate().find_map(|(i, l)| {
        let rest = l.trim().strip_prefix(prefix.as_str())?;
        let v: u32 = rest.trim().trim_end_matches(';').parse().ok()?;
        Some((i + 1, v))
    })
}

/// Every version the reader accepts, the current one included, must
/// have a binary fixture named `checkpoint_v{N}_*.ckpt` in `dir`: a
/// version without one is decoded by code no test exercises, and a
/// current-version fixture written by an earlier commit is what catches
/// a writer whose byte layout drifts within a version.
fn check_fixtures(
    root: &Path,
    dir: &str,
    source: &str,
    version: u32,
    cfg: &Config,
    diags: &mut Vec<Diagnostic>,
) {
    let Some((_, min_version)) = const_u32(source, "MIN_VERSION") else {
        diags.push(diag(
            "checkpoint-fixture",
            &cfg.checkpoint_source,
            1,
            "no `const MIN_VERSION: u32 = ..;` declaration found".into(),
        ));
        return;
    };
    let names: Vec<String> = match std::fs::read_dir(root.join(dir)) {
        Ok(entries) => entries
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .collect(),
        Err(e) => {
            diags.push(diag(
                "checkpoint-fixture",
                dir,
                1,
                format!("cannot read the fixture directory named in audit.toml: {e}"),
            ));
            return;
        }
    };
    for v in min_version..=version {
        let prefix = format!("checkpoint_v{v}_");
        if !names
            .iter()
            .any(|n| n.starts_with(&prefix) && n.ends_with(".ckpt"))
        {
            diags.push(diag(
                "checkpoint-fixture",
                dir,
                1,
                format!(
                    "the checkpoint reader accepts v{v} (v{min_version}..=v{version}, {}) but \
                     there is no `{prefix}*.ckpt` fixture",
                    cfg.checkpoint_source
                ),
            ));
        }
    }
}

/// A summary doc must name the format's version history as a range
/// ending at the current version (`→ vN`, or `-> vN`), and every range
/// it states must end there: a stale `v2 → … → v5` is drift even when
/// a correct range appears elsewhere in the same doc. A doc with no
/// range at all is flagged too, so the mention cannot be dropped
/// silently.
fn check_version_ranges(
    doc: &str,
    doc_path: &str,
    version: u32,
    cfg: &Config,
    src_line: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let mut found = false;
    for (i, line) in doc.lines().enumerate() {
        for end in range_ends(line) {
            found = true;
            if end != version {
                diags.push(diag(
                    "doc-version",
                    doc_path,
                    i + 1,
                    format!(
                        "checkpoint version range ends at v{end} but the codec declares \
                         v{version} ({}:{src_line})",
                        cfg.checkpoint_source
                    ),
                ));
            }
        }
    }
    if !found {
        diags.push(diag(
            "doc-version",
            doc_path,
            1,
            format!("no checkpoint version range (`v2 → … → v{version}`) found"),
        ));
    }
}

/// The `N` of every `→ vN` / `-> vN` in `line`.
fn range_ends(line: &str) -> Vec<u32> {
    ["→ v", "-> v"]
        .iter()
        .flat_map(|arrow| {
            line.match_indices(arrow)
                .map(|(at, m)| &line[at + m.len()..])
        })
        .filter_map(|rest| {
            let digits = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..digits].parse().ok()
        })
        .collect()
}

fn check_stream_tables(
    root: &Path,
    cfg: &Config,
    registry: &[ReservedConst],
    diags: &mut Vec<Diagnostic>,
) {
    for doc_path in &cfg.stream_table_docs {
        let Some(doc) = read(root, doc_path, diags) else {
            continue;
        };
        for c in registry {
            let row = format!("| `{}` |", c.name);
            if !doc.contains(&row) {
                diags.push(diag(
                    "doc-stream-table",
                    doc_path,
                    1,
                    format!(
                        "reserved stream `{}` ({}:{}) has no row in this doc's stream table",
                        c.name, cfg.stream_registry, c.line
                    ),
                ));
            }
        }
    }
}

fn read(root: &Path, rel: &str, diags: &mut Vec<Diagnostic>) -> Option<String> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(t) => Some(t),
        Err(e) => {
            diags.push(diag(
                "doc-version",
                rel,
                1,
                format!("cannot read file named in audit.toml: {e}"),
            ));
            None
        }
    }
}

fn find_line(text: &str, needle: &str) -> Option<usize> {
    text.lines().position(|l| l.contains(needle)).map(|i| i + 1)
}

fn diag(rule: &str, path: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule: rule.into(),
        path: path.into(),
        line,
        message,
    }
}
