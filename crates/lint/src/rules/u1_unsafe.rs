//! **U1 — `unsafe` only in the audited readiness shim.**
//!
//! The workspace needs exactly one foreign call: `poll(2)`, which the
//! serving event loops block on. It lives in `crates/exec/src/readiness.rs`
//! behind a safe API, every `unsafe` block there carries a `// SAFETY:`
//! argument, and `cuisine-exec` denies `unsafe_code` everywhere else
//! (`cuisine-serve` and the other crates forbid it). The compiler lints
//! are per crate and can be lifted by a one-line `allow`; this rule pins
//! the location: an `unsafe` token anywhere else in the workspace — test
//! code included, since a test's undefined behaviour is no better — is an
//! error. Inside the shim, each `unsafe` must sit directly under a comment
//! block that opens with `// SAFETY:`, the argument a reviewer audits.
//!
//! Scope: every crate under `crates/` plus the workspace-level `tests/`
//! and `examples/`. Separate Cargo workspaces kept in the tree (the
//! benchmark under `perfbench/`) are not members and are not covered.
//! Mentions in comments and string literals are not tokens and never
//! fire.

use crate::context::{FileContext, Section, SourceFile};
use crate::diagnostics::Diagnostic;
use crate::rules::Rule;

/// The one file allowed to contain `unsafe`.
pub const UNSAFE_HOME: &str = "crates/exec/src/readiness.rs";

/// The U1 rule value.
pub struct UnsafeConfined;

impl Rule for UnsafeConfined {
    fn id(&self) -> &'static str {
        "U1"
    }

    fn summary(&self) -> &'static str {
        "unsafe only in crates/exec/src/readiness.rs (the audited poll(2) shim)"
    }

    fn applies(&self, context: &FileContext) -> bool {
        context.krate.is_some() || matches!(context.section, Section::Tests | Section::Examples)
    }

    fn check(&self, file: &SourceFile<'_>) -> Vec<Diagnostic> {
        let home = file.context.rel_path == UNSAFE_HOME;
        let mut out = Vec::new();
        for i in 0..file.tokens.len() {
            if !file.is_ident(i, "unsafe") {
                continue;
            }
            let message = if !home {
                format!(
                    "`unsafe` outside {UNSAFE_HOME}; extend the audited shim there behind a \
                     safe API instead"
                )
            } else if !has_safety_comment(file.text, file.tokens[i].span.start) {
                "`unsafe` in the readiness shim without a `// SAFETY:` comment directly \
                 above it"
                    .to_string()
            } else {
                continue;
            };
            out.push(file.diagnostic(self.id(), i, message));
        }
        out
    }
}

/// Whether the comment lines directly above the line holding byte `at`
/// include one that opens a `// SAFETY:` argument.
fn has_safety_comment(text: &str, at: usize) -> bool {
    let line_start = text.get(..at).and_then(|t| t.rfind('\n')).map_or(0, |p| p + 1);
    text.get(..line_start)
        .unwrap_or("")
        .lines()
        .rev()
        .map(str::trim)
        .take_while(|line| line.starts_with("//"))
        .any(|line| line.starts_with("// SAFETY:"))
}
