//! Cross-file consistency checks.
//!
//! Two facts live in both code and docs and have historically drifted
//! in projects like this one:
//!
//! * the **checkpoint format version** — `const VERSION` in the
//!   checkpoint codec vs the "current version (vN)" statement and the
//!   version-history table column in `docs/CHECKPOINTS.md`, and vs
//!   every version range (`v2 → … → vN`) in the summary docs that
//!   mention the format (the README);
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
    let code_version = source.lines().enumerate().find_map(|(i, l)| {
        let rest = l.trim().strip_prefix("const VERSION: u32 =")?;
        let v: u32 = rest.trim().trim_end_matches(';').parse().ok()?;
        Some((i + 1, v))
    });
    let Some((src_line, version)) = code_version else {
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
