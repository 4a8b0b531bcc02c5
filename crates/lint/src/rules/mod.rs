//! The rule engine: one trait, nine project-contract rules, and the
//! shared token-pattern helpers they build on.
//!
//! | rule | contract |
//! |---|---|
//! | [`D1`](d1_hash_iter) | no `HashMap`/`HashSet` iteration in artifact-producing crates |
//! | [`D2`](d2_wall_clock) | no wall-clock / environment reads in deterministic paths |
//! | [`D3`](d3_rng) | all RNG construction flows through seeded constructors |
//! | [`P1`](p1_no_panic) | no panic-capable operation in the serve request path |
//! | [`X1`](x1_threads) | thread spawning only inside `cuisine-exec` |
//! | [`U1`](u1_unsafe) | `unsafe` only in the audited `poll(2)` shim |
//! | [`C1`](c1_lock_order) | lock acquisitions strictly ascend the declared `[lockorder]` table |
//! | [`C2`](c2_blocking_under_guard) | no blocking call while a tracked guard is live |
//! | [`C3`](c3_guard_escape) | no tracked guard moved into a closure/callback or across `catch_unwind` |
//!
//! Rules are plain structs over the token stream — unit-testable in
//! isolation against string fixtures (`tests/rules.rs`) and exercised
//! against embedded known-bad fixtures by `cuisine-lint --self-check`, so
//! a silently broken rule is itself a CI failure. The `C` family
//! additionally builds a [`tree::BraceTree`](crate::tree) per file and
//! reasons over guard lifetimes ([`guards`]); its configuration — the
//! declared lock order — comes from the same `lint.toml` as the
//! baseline, so [`all_rules`] takes the [`LockOrder`] to enforce.

pub mod c1_lock_order;
pub mod c2_blocking_under_guard;
pub mod c3_guard_escape;
pub mod d1_hash_iter;
pub mod d2_wall_clock;
pub mod d3_rng;
pub mod guards;
pub mod p1_no_panic;
pub mod u1_unsafe;
pub mod x1_threads;

use crate::baseline::LockOrder;
use crate::context::{FileContext, SourceFile};
use crate::diagnostics::Diagnostic;

/// One enforceable project contract.
pub trait Rule: Sync {
    /// Stable identifier (`"D1"`), used in output and baseline entries.
    fn id(&self) -> &'static str;

    /// One-line description for `--self-check` output and docs.
    fn summary(&self) -> &'static str;

    /// Whether the rule inspects this file at all.
    fn applies(&self, context: &FileContext) -> bool;

    /// Scan a lexed file and report violations. Implementations must skip
    /// tokens with `file.in_test[i]` set — except the `C` family, whose
    /// lock-discipline contract binds test code equally (a deadlock in a
    /// test hangs CI just the same).
    fn check(&self, file: &SourceFile<'_>) -> Vec<Diagnostic>;
}

/// Every rule, in catalog order, configured with the declared lock order.
pub fn all_rules(order: &LockOrder) -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(d1_hash_iter::HashIteration),
        Box::new(d2_wall_clock::WallClock),
        Box::new(d3_rng::UnseededRng),
        Box::new(p1_no_panic::NoPanic),
        Box::new(x1_threads::ExecOnlyThreads),
        Box::new(u1_unsafe::UnsafeConfined),
        Box::new(c1_lock_order::LockOrderRule::new(order)),
        Box::new(c2_blocking_under_guard::BlockingUnderGuard::new(order)),
        Box::new(c3_guard_escape::GuardEscape::new(order)),
    ]
}

/// Run every applicable rule over one file.
pub fn check_file(file: &SourceFile<'_>, order: &LockOrder) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in all_rules(order) {
        if rule.applies(&file.context) {
            out.extend(rule.check(file));
        }
    }
    out
}

/// Reserved words that can precede `[` without being an indexable
/// expression, and that `let`-pattern scanning must not take for binding
/// names.
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while", "yield",
];

/// Whether identifier text is a Rust keyword.
pub(crate) fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word)
}

/// Find `needle` as a `::`-joined token path ending at token `i`: e.g.
/// `path_match(file, i, &["Instant", "now"])` is true when tokens
/// `i-2..=i` spell `Instant::now` (the two `:` puncts between them).
pub(crate) fn path_ends_with(file: &SourceFile<'_>, i: usize, path: &[&str]) -> bool {
    debug_assert!(!path.is_empty());
    let mut idx = i;
    for (n, segment) in path.iter().rev().enumerate() {
        if !file.is_ident(idx, segment) {
            return false;
        }
        if n + 1 == path.len() {
            return true;
        }
        // Expect `::` before this segment.
        if idx < 3 || !file.is_punct(idx - 1, ':') || !file.is_punct(idx - 2, ':') {
            return false;
        }
        idx -= 3;
    }
    true
}

/// Whether token `i` begins a method call of `name`: `. name (`.
pub(crate) fn is_method_call(file: &SourceFile<'_>, i: usize, name: &str) -> bool {
    i >= 1
        && file.is_ident(i, name)
        && file.is_punct(i - 1, '.')
        && i + 1 < file.tokens.len()
        && file.is_punct(i + 1, '(')
}

/// Names bound to `HashMap`/`HashSet` values in this file.
///
/// Two binding shapes are tracked, both purely token-level:
///
/// * `let [mut] NAME ... ;` where the statement mentions `HashMap` or
///   `HashSet` (type annotation, constructor, or `collect` turbofish);
/// * `NAME : [path::]Hash{Map,Set} <` — struct fields and fn parameters.
///
/// The tracker is deliberately file-scoped and name-based: a false
/// positive (same name reused for a non-hash binding elsewhere in the
/// file) surfaces as a visible diagnostic answerable with a baseline
/// entry, while a false negative would silently drop coverage.
pub(crate) fn hash_bindings(file: &SourceFile<'_>) -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        let in_test = file.in_test.get(i).copied().unwrap_or(false);
        // Shape 2: `NAME : Hash{Map,Set} <` (with optional path prefix).
        // Test-only annotations must not taint a production binding of the
        // same name (a test-local `let active: HashSet<_>` vs. a
        // production `active: Vec<_>` field).
        if !in_test && (file.is_ident(i, "HashMap") || file.is_ident(i, "HashSet")) {
            if let Some(name) = annotated_name(file, i) {
                names.insert(name);
            }
        }
        // Shape 1: `let [mut] NAME` with a hash type anywhere in the
        // statement (scan to the terminating `;` at bracket depth 0).
        if file.is_ident(i, "let") && !in_test {
            let mut j = i + 1;
            if j < tokens.len() && file.is_ident(j, "mut") {
                j += 1;
            }
            if j >= tokens.len() || !matches!(tokens[j].kind, crate::lexer::TokenKind::Ident) {
                continue; // tuple/struct pattern — out of scope
            }
            let name = file.tok(j).to_string();
            if is_keyword(&name) {
                continue;
            }
            let mut depth = 0i32;
            let mut mentions_hash = false;
            for (k, token) in tokens.iter().enumerate().skip(j + 1) {
                match token.kind {
                    crate::lexer::TokenKind::Punct('(' | '[' | '{') => depth += 1,
                    crate::lexer::TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                    crate::lexer::TokenKind::Punct(';') if depth <= 0 => break,
                    crate::lexer::TokenKind::Ident
                        if file.is_ident(k, "HashMap") || file.is_ident(k, "HashSet") =>
                    {
                        mentions_hash = true;
                    }
                    _ => {}
                }
            }
            if mentions_hash {
                names.insert(name);
            }
        }
    }
    names
}

/// For a `HashMap`/`HashSet` ident at token `i`, walk back over an
/// optional `std :: collections ::` path prefix and a `:` to the annotated
/// binding name (`counts : HashMap <`). Returns `None` when the mention is
/// not a type annotation.
fn annotated_name(file: &SourceFile<'_>, i: usize) -> Option<String> {
    // Must look like a generic type use: `Hash{Map,Set} <`.
    if i + 1 >= file.tokens.len() || !file.is_punct(i + 1, '<') {
        return None;
    }
    let mut idx = i;
    // Skip `segment ::` prefixes backwards.
    while idx >= 3 && file.is_punct(idx - 1, ':') && file.is_punct(idx - 2, ':') {
        if matches!(file.tokens[idx - 3].kind, crate::lexer::TokenKind::Ident) {
            idx -= 3;
        } else {
            break;
        }
    }
    // Skip reference sigils between the `:` and the type (`: &HashMap`,
    // `: &mut HashMap`, `: &'a HashMap`) — parameter annotations usually
    // borrow.
    while idx >= 1
        && (file.is_punct(idx - 1, '&')
            || file.is_ident(idx - 1, "mut")
            || matches!(file.tokens[idx - 1].kind, crate::lexer::TokenKind::Lifetime))
    {
        idx -= 1;
    }
    if idx < 2 || !file.is_punct(idx - 1, ':') || file.is_punct(idx - 2, ':') {
        return None;
    }
    let name_idx = idx - 2;
    if !matches!(file.tokens[name_idx].kind, crate::lexer::TokenKind::Ident) {
        return None;
    }
    let name = file.tok(name_idx).to_string();
    if is_keyword(&name) {
        return None;
    }
    Some(name)
}
