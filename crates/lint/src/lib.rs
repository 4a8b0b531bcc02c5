//! `cuisine-lint` — workspace-aware static analysis enforcing the
//! determinism and no-panic contracts at the source level.
//!
//! The reproduction's headline guarantee is that every artifact is a pure
//! function of `(seed, scale)` — byte-identical across thread counts,
//! cache modes, and hosts (`tests/determinism.rs`) — and that the serve
//! layer degrades with typed errors rather than panics. Those contracts
//! were previously enforced only dynamically, by tests that must happen to
//! execute the offending path. This crate enforces them *statically*: a
//! hand-rolled total [lexer](lexer) (no `syn`; the container has no
//! registry access) feeds token-level [rules](rules) over every `.rs`
//! file, producing typed [diagnostics](diagnostics) with `file:line:col`
//! spans and stable rule IDs, filtered through a checked-in
//! [baseline](baseline) (`lint.toml`) whose entries each carry a mandatory
//! justification.
//!
//! | rule | contract |
//! |---|---|
//! | `D1` | no `HashMap`/`HashSet` iteration in artifact-producing crates |
//! | `D2` | no wall-clock / environment reads in deterministic paths |
//! | `D3` | all RNG construction flows through seeded constructors |
//! | `P1` | no unwrap/expect/panic!/indexing in the serve request path |
//! | `X1` | thread spawning only inside `cuisine-exec` |
//! | `U1` | `unsafe` only in `crates/exec/src/readiness.rs` (the `poll(2)` shim) |
//! | `C1` | lock acquisitions strictly ascend the declared `[lockorder]` table |
//! | `C2` | no blocking call (wait/recv/sleep/IO/execute) while a tracked guard is live |
//! | `C3` | no tracked guard moved into a closure/spawned callback or across `catch_unwind` |
//!
//! The `C` family is the concurrency-discipline layer added with the
//! runtime counterpart `cuisine_exec::lockorder`: the same `[lockorder]`
//! table in `lint.toml` that configures these rules is asserted (by an
//! exec unit test) to match the debug-build witness, so the static pass
//! and the dynamic witness can never silently diverge. It reasons over a
//! [brace tree](tree) — a total, never-panicking block/statement layer
//! above the lexer — and conservative [guard lifetimes](rules::guards).
//!
//! Entry points: [`workspace::run_workspace`] for a full run,
//! [`workspace::lint_source`] for one in-memory file (what the rule unit
//! tests drive), and [`selfcheck::run_self_check`] for the embedded
//! known-bad fixtures that prove the rules still fire. The
//! `cuisine-lint` binary wraps all three with human and `--format json`
//! output and is wired into `ci.sh` ahead of clippy.

#![warn(missing_docs)]

pub mod baseline;
pub mod context;
pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod selfcheck;
pub mod tree;
pub mod workspace;
