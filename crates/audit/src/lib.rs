//! `antalloc-audit`: the workspace determinism & safety analyzer.
//!
//! The repo's value proposition is the **bit-identity contract** —
//! serial == `run_parallel` == checkpoint-restore == per-ant reference.
//! Property tests enforce it dynamically, but a dynamic test only
//! catches a regression it happens to sample. This crate enforces the
//! contract's *preconditions* statically: it lexes every workspace
//! source file (masking comments and string literals so patterns never
//! fire on prose) and runs a rule catalog over the masked code,
//! reporting `file:line` diagnostics and exiting nonzero for CI.
//!
//! The catalog, the `audit.toml` config schema, and the
//! `// audit:allow(rule): reason` pragma syntax are documented in
//! `docs/DETERMINISM.md`. Rule families:
//!
//! * **nondeterminism sources** (`nondet-*`) — default-hasher
//!   collections, wall-clock reads, environment reads, raw thread
//!   spawns in sim-path crates;
//! * **reserved-stream discipline** (`stream-*`) — every
//!   `StreamSeeder::stream(..)` call passes an ant-index expression or
//!   a registered `reserved::` constant; registry ids unique and above
//!   the ant-index ceiling;
//! * **cast audit** (`cast`) — numeric `as` casts in kernel hot files
//!   must be registered widening idioms or carry a pragma;
//! * **unsafe/panic hygiene** (`forbid-unsafe`, `panic-path`) —
//!   `#![forbid(unsafe_code)]` in every crate root, no
//!   `unwrap`/`expect`/`panic!` in engine step/apply paths;
//! * **cross-file consistency** (`doc-version`, `checkpoint-fixture`,
//!   `doc-stream-table`) — the checkpoint format version matches
//!   `docs/CHECKPOINTS.md` and the README's version range, every older
//!   readable version has a binary fixture, and every reserved stream
//!   is tabled in the architecture docs.
//!
//! Pragmas themselves are audited: an unknown rule name or a missing
//! reason is `bad-pragma`, and a pragma that suppresses nothing is
//! `unused-pragma` — suppressions cannot silently rot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use config::Config;
use lexer::Lexed;
use walk::FileInfo;

/// One `file:line` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (usable in an allow pragma).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Every rule name a pragma may reference.
pub const RULES: &[&str] = &[
    "nondet-collection",
    "nondet-time",
    "nondet-env",
    "nondet-thread",
    "stream-literal",
    "stream-unknown-const",
    "stream-registry",
    "cast",
    "forbid-unsafe",
    "panic-path",
    "doc-version",
    "checkpoint-fixture",
    "doc-stream-table",
];

/// Sink for rule findings that honors allow pragmas.
pub struct Emitter<'a> {
    file: &'a FileInfo,
    lexed: &'a Lexed,
    diags: Vec<Diagnostic>,
}

impl<'a> Emitter<'a> {
    /// Creates an emitter for one lexed file.
    pub fn new(file: &'a FileInfo, lexed: &'a Lexed) -> Self {
        Emitter {
            file,
            lexed,
            diags: Vec::new(),
        }
    }

    /// Records a finding at 1-based `line` unless a pragma covers it.
    pub fn emit(&mut self, rule: &str, line: usize, message: String) {
        if self.suppressed(rule, line) {
            return;
        }
        self.diags.push(Diagnostic {
            rule: rule.to_string(),
            path: self.file.rel.clone(),
            line,
            message,
        });
    }

    /// A pragma suppresses findings on its own line and, when it sits
    /// on a comment-only line, on the code line(s) directly below the
    /// comment block.
    fn suppressed(&self, rule: &str, line: usize) -> bool {
        let mut candidates = vec![line];
        // Walk up through the contiguous comment-only block above.
        let mut l = line;
        while l > 1 {
            l -= 1;
            let prev = &self.lexed.lines[l - 1];
            let comment_only = prev.code.trim().is_empty() && !prev.raw.trim().is_empty();
            if !comment_only {
                break;
            }
            candidates.push(l);
        }
        for p in &self.lexed.pragmas {
            if p.rule == rule && candidates.contains(&p.line) {
                p.used.set(true);
                return true;
            }
        }
        false
    }

    /// Finishes the file: validates pragmas, returns the findings.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        for p in &self.lexed.pragmas {
            let on_test_line = self
                .lexed
                .lines
                .get(p.line - 1)
                .map(|l| l.in_test)
                .unwrap_or(false);
            if on_test_line {
                continue;
            }
            if !RULES.contains(&p.rule.as_str()) {
                self.diags.push(Diagnostic {
                    rule: "bad-pragma".into(),
                    path: self.file.rel.clone(),
                    line: p.line,
                    message: format!("unknown rule `{}` in allow pragma", p.rule),
                });
            } else if p.reason.is_empty() {
                self.diags.push(Diagnostic {
                    rule: "bad-pragma".into(),
                    path: self.file.rel.clone(),
                    line: p.line,
                    message: format!("allow({}) pragma needs a `: reason`", p.rule),
                });
            } else if !p.used.get() && !self.file.relaxed {
                self.diags.push(Diagnostic {
                    rule: "unused-pragma".into(),
                    path: self.file.rel.clone(),
                    line: p.line,
                    message: format!("allow({}) pragma suppresses nothing — remove it", p.rule),
                });
            }
        }
        self.diags
    }
}

/// Runs every per-file rule over one source text.
///
/// `registry` is the parsed reserved-stream registry (used by the
/// stream rules); pass an empty slice to skip `reserved::` validation.
pub fn audit_source(
    info: &FileInfo,
    text: &str,
    cfg: &Config,
    registry: &[rules::streams::ReservedConst],
) -> Vec<Diagnostic> {
    let lexed = lexer::lex(text);
    let mut emitter = Emitter::new(info, &lexed);
    rules::nondet::check(info, &lexed, cfg, &mut emitter);
    rules::streams::check_calls(info, &lexed, registry, &mut emitter);
    rules::casts::check(info, &lexed, cfg, &mut emitter);
    rules::hygiene::check(info, &lexed, cfg, &mut emitter);
    emitter.finish()
}

/// Audits the whole workspace rooted at `root`.
///
/// Runs the registry checks, every per-file rule over every workspace
/// source, and the cross-file consistency checks. Diagnostics come back
/// sorted by path and line.
pub fn run(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();

    let registry_path = root.join(&cfg.stream_registry);
    let registry_text = std::fs::read_to_string(&registry_path)
        .map_err(|e| format!("cannot read stream registry {}: {e}", cfg.stream_registry))?;
    let registry = rules::streams::check_registry(&registry_text, cfg, &mut diags);

    for path in walk::workspace_files(root) {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| "file outside root".to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let info = FileInfo::classify(&rel, cfg);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {rel}: {e}"))?;
        diags.extend(audit_source(&info, &text, cfg, &registry));
    }

    rules::consistency::check(root, cfg, &registry, &mut diags);

    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(diags)
}
