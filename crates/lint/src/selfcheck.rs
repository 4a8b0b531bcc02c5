//! `cuisine-lint --self-check`: prove the linter still catches what it
//! claims to catch.
//!
//! A static analyzer that silently stops matching is worse than none — CI
//! stays green while the contract rots. The self-check runs every rule
//! against embedded known-bad and known-clean fixtures: each bad fixture
//! must produce at least one diagnostic *from its own rule*, and each
//! clean fixture must produce none. CI runs this before linting the real
//! tree, so a broken rule fails the build even on a clean workspace.

use crate::workspace::lint_source;

/// One embedded fixture: a path (drives rule scoping), source text, and
/// the rule expected to fire (or `None` for a must-be-clean fixture).
struct Fixture {
    name: &'static str,
    rel_path: &'static str,
    source: &'static str,
    expect_rule: Option<&'static str>,
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        name: "D1 catches HashMap iteration in a mining source file",
        rel_path: "crates/mining/src/fixture.rs",
        source: "use std::collections::HashMap;\n\
                 fn emit(counts: HashMap<u32, u64>) -> Vec<(u32, u64)> {\n\
                 \x20   counts.iter().map(|(k, v)| (*k, *v)).collect()\n}\n",
        expect_rule: Some("D1"),
    },
    Fixture {
        name: "D1 catches for-loops over a let-bound HashSet",
        rel_path: "crates/analytics/src/fixture.rs",
        source: "fn f() { let seen = std::collections::HashSet::from([1u32]);\n\
                 \x20   for x in &seen { drop(x); } }\n",
        expect_rule: Some("D1"),
    },
    Fixture {
        name: "D1 ignores lookup-only hash use and BTreeMap iteration",
        rel_path: "crates/mining/src/fixture.rs",
        source: "use std::collections::{BTreeMap, HashSet};\n\
                 fn f(frequent: &HashSet<u32>, sorted: &BTreeMap<u32, u64>) -> u64 {\n\
                 \x20   sorted.iter().filter(|(k, _)| frequent.contains(*k)).map(|(_, v)| *v).sum()\n}\n",
        expect_rule: None,
    },
    Fixture {
        name: "D2 catches Instant::now in a core source file",
        rel_path: "crates/core/src/fixture.rs",
        source: "fn f() -> std::time::Instant { std::time::Instant::now() }\n",
        expect_rule: Some("D2"),
    },
    Fixture {
        name: "D2 catches env::var in a report binary",
        rel_path: "crates/report/src/bin/fixture.rs",
        source: "fn f() -> Option<String> { std::env::var(\"HOME\").ok() }\n",
        expect_rule: Some("D2"),
    },
    Fixture {
        name: "D3 catches entropy-seeded RNG construction",
        rel_path: "crates/evolution/src/fixture.rs",
        source: "fn f() { let _rng = thread_rng(); }\n",
        expect_rule: Some("D3"),
    },
    Fixture {
        name: "D3 ignores seeded construction",
        rel_path: "crates/evolution/src/fixture.rs",
        source: "fn f(seed: u64) -> u64 { let s = replicate_seed(seed, 3); s }\n",
        expect_rule: None,
    },
    Fixture {
        name: "P1 catches unwrap in the serve request path",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        expect_rule: Some("P1"),
    },
    Fixture {
        name: "P1 catches slice indexing in serve",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(v: &[u8]) -> u8 { v[0] }\n",
        expect_rule: Some("P1"),
    },
    Fixture {
        name: "P1 ignores unwrap_or_default and test modules",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }\n\
                 #[cfg(test)]\nmod tests { #[test] fn t() { Some(1u32).unwrap(); } }\n",
        expect_rule: None,
    },
    Fixture {
        name: "X1 catches raw thread::spawn outside cuisine-exec",
        rel_path: "crates/mining/src/fixture.rs",
        source: "fn f() { std::thread::spawn(|| {}).join().ok(); }\n",
        expect_rule: Some("X1"),
    },
    Fixture {
        name: "X1 ignores spawning inside cuisine-exec",
        rel_path: "crates/exec/src/fixture.rs",
        source: "fn f() { std::thread::spawn(|| {}).join().ok(); }\n",
        expect_rule: None,
    },
    Fixture {
        name: "U1 catches an unsafe block outside the readiness shim",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        expect_rule: Some("U1"),
    },
    Fixture {
        name: "U1 catches unsafe in test code of another exec file",
        rel_path: "crates/exec/src/fixture.rs",
        source: "#[cfg(test)]\nmod tests { unsafe fn f() {} }\n",
        expect_rule: Some("U1"),
    },
    Fixture {
        name: "U1 catches an unsafe block in the readiness shim with no SAFETY comment",
        rel_path: "crates/exec/src/readiness.rs",
        source: "extern \"C\" { fn poll(); }\n\
                 fn f() {\n\
                 \x20   // Calls poll.\n\
                 \x20   unsafe { poll() }\n}\n",
        expect_rule: Some("U1"),
    },
    Fixture {
        name: "U1 ignores an unsafe block in the readiness shim under its SAFETY comment",
        rel_path: "crates/exec/src/readiness.rs",
        source: "extern \"C\" { fn poll(); }\n\
                 fn f() {\n\
                 \x20   // SAFETY: `poll` here has no preconditions\n\
                 \x20   // and keeps no pointer.\n\
                 \x20   unsafe { poll() }\n}\n",
        expect_rule: None,
    },
    Fixture {
        name: "U1 ignores the word in comments, strings and lint names",
        rel_path: "crates/serve/src/fixture.rs",
        source: "#![forbid(unsafe_code)]\n\
                 // no unsafe here\n\
                 fn f() -> &'static str { \"unsafe\" }\n",
        expect_rule: None,
    },
    Fixture {
        name: "C1 catches a lock inversion against the declared order",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(s: &S) {\n\
                 \x20   let inflight = s.inflight.lock();\n\
                 \x20   let entries = s.entries.lock();\n\
                 \x20   use2(inflight, entries);\n}\n",
        expect_rule: Some("C1"),
    },
    Fixture {
        name: "C1 catches nested same-lock re-entry",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(s: &S) {\n\
                 \x20   let lru = s.lru.lock();\n\
                 \x20   let again = s.lru.lock();\n\
                 \x20   use2(lru, again);\n}\n",
        expect_rule: Some("C1"),
    },
    Fixture {
        name: "C1 ignores ascending acquisition and drop-before-reacquire",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(s: &S) {\n\
                 \x20   let entries = s.entries.lock();\n\
                 \x20   let lru = s.lru.lock();\n\
                 \x20   use2(entries, lru);\n}\n\
                 fn g(s: &S) {\n\
                 \x20   let lru = s.lru.lock();\n\
                 \x20   drop(lru);\n\
                 \x20   let entries = s.entries.lock();\n\
                 \x20   use1(entries);\n}\n",
        expect_rule: None,
    },
    Fixture {
        name: "C2 catches a channel recv while a tracked guard is live",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(s: &S, chan: &Receiver) {\n\
                 \x20   let lru = s.lru.lock();\n\
                 \x20   let job = chan.recv();\n\
                 \x20   use2(lru, job);\n}\n",
        expect_rule: Some("C2"),
    },
    Fixture {
        name: "C2 catches thread::sleep under a tracked guard",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(s: &S, d: Duration) {\n\
                 \x20   let entries = s.entries.lock();\n\
                 \x20   std::thread::sleep(d);\n\
                 \x20   use1(entries);\n}\n",
        expect_rule: Some("C2"),
    },
    Fixture {
        name: "C2 ignores the condvar wait that consumes its own guard",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(s: &S, t: Duration) -> bool {\n\
                 \x20   let slot = s.slot.lock();\n\
                 \x20   let (slot, timed) = slot.wait_timeout_while(&s.ready, t, |v| v.is_none());\n\
                 \x20   use1(slot);\n\
                 \x20   timed\n}\n",
        expect_rule: None,
    },
    Fixture {
        name: "C2 ignores the one-statement lock-and-recv temporary idiom",
        rel_path: "crates/exec/src/fixture.rs",
        source: "fn f(s: &S) { let job = s.rx.lock().recv(); use1(job); }\n",
        expect_rule: None,
    },
    Fixture {
        name: "C3 catches a guard carried across catch_unwind",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(s: &S) {\n\
                 \x20   let lru = s.lru.lock();\n\
                 \x20   let r = std::panic::catch_unwind(move || drop(lru));\n\
                 \x20   use1(r);\n}\n",
        expect_rule: Some("C3"),
    },
    Fixture {
        name: "C3 catches a guard moved into an executed closure",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(s: &S, p: &Pool) {\n\
                 \x20   let entries = s.entries.lock();\n\
                 \x20   p.execute(move || { use1(entries); });\n}\n",
        expect_rule: Some("C3"),
    },
    Fixture {
        name: "C3 ignores clone-then-drop before handing work off",
        rel_path: "crates/serve/src/fixture.rs",
        source: "fn f(s: &S, p: &Pool) {\n\
                 \x20   let entries = s.entries.lock();\n\
                 \x20   let snapshot = entries.clone();\n\
                 \x20   drop(entries);\n\
                 \x20   p.try_execute(move || { use1(snapshot); });\n}\n",
        expect_rule: None,
    },
];

/// One self-check outcome line.
#[derive(Debug)]
pub struct SelfCheckResult {
    /// Fixture description.
    pub name: &'static str,
    /// Whether the fixture behaved as expected.
    pub passed: bool,
    /// What actually happened (for failure output).
    pub detail: String,
}

/// Run every fixture. The linter is healthy iff all results pass.
pub fn run_self_check() -> Vec<SelfCheckResult> {
    FIXTURES
        .iter()
        .map(|fixture| {
            let diagnostics = lint_source(fixture.rel_path, fixture.source);
            let fired: Vec<&str> = diagnostics.iter().map(|d| d.rule).collect();
            let (passed, detail) = match fixture.expect_rule {
                Some(rule) => (
                    fired.contains(&rule),
                    format!("expected {rule} to fire; got {fired:?}"),
                ),
                None => (
                    fired.is_empty(),
                    format!("expected no diagnostics; got {fired:?}"),
                ),
            };
            SelfCheckResult { name: fixture.name, passed, detail }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fixture_passes() {
        let results = run_self_check();
        let failures: Vec<String> = results
            .iter()
            .filter(|r| !r.passed)
            .map(|r| format!("{}: {}", r.name, r.detail))
            .collect();
        assert!(failures.is_empty(), "self-check failures:\n{}", failures.join("\n"));
        assert!(results.len() >= 10, "fixture catalog should stay substantial");
    }

    #[test]
    fn every_rule_has_a_bad_fixture() {
        let covered: std::collections::BTreeSet<&str> =
            FIXTURES.iter().filter_map(|f| f.expect_rule).collect();
        for rule in crate::rules::all_rules(&crate::baseline::LockOrder::builtin()) {
            assert!(covered.contains(rule.id()), "no known-bad fixture for {}", rule.id());
        }
    }
}
