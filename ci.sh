#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repo root.
#
#   ./ci.sh            # full gate
#   SKIP_CLIPPY=1 ./ci.sh   # skip the lint stage (e.g. older toolchains)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --examples"
cargo build --release --examples

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark builds and passes its own tests against the crates' public API"
# perfbench/ is a separate Cargo workspace with path dependencies on
# crates/, so neither the workspace build nor `cargo test` compiles it; an
# API change that breaks it would otherwise surface only as a benchmark
# run that prints no result. Same target directory as perfbench/run.sh.
CARGO_TARGET_DIR=target cargo build --release --offline --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=target cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> determinism suite with the bitset miner"
CUISINE_MINER=eclat-bitset cargo test -q -p cuisine-core --test determinism

echo "==> determinism suite with the dEclat miner"
CUISINE_MINER=declat cargo test -q -p cuisine-core --test determinism

echo "==> mining smoke at scale 0.2 (dEclat, reordered parallel DFS)"
# Bounded fig3 run well past the test-suite scale: the full accelerated
# configuration must agree byte-for-byte with the default kernel.
cargo run --release -q -p cuisine-bench --bin exp_fig3 -- \
    --scale 0.2 --seed 11 --miner declat --mine-threads 4 \
    --csv /tmp/cuisine-fig3-declat.csv
cargo run --release -q -p cuisine-bench --bin exp_fig3 -- \
    --scale 0.2 --seed 11 \
    --csv /tmp/cuisine-fig3-default.csv
if ! cmp -s /tmp/cuisine-fig3-declat.csv /tmp/cuisine-fig3-default.csv; then
    echo "FAIL: declat fig3 output diverged from the default kernel"; exit 1
fi

echo "==> serve --self-check (smoke test)"
cargo run --release -q -p cuisine-serve --bin serve -- \
    --self-check --scale 0.02 --seed 11 --replicates 2

echo "==> serve --self-check with explicit sharding"
cargo run --release -q -p cuisine-serve --bin serve -- \
    --self-check --scale 0.02 --seed 11 --replicates 2 --shards 4

echo "==> keep-alive loadgen smoke (nonzero reuse + coalescing)"
cargo build --release -q -p cuisine-serve --bin serve --bin loadgen
./target/release/serve --scale 0.02 --seed 11 --replicates 2 --port 7893 \
    </dev/null >/tmp/cuisine-serve-smoke.log 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q listening /tmp/cuisine-serve-smoke.log && break
    sleep 0.2
done
./target/release/loadgen --addr 127.0.0.1:7893 --clients 8 --requests 50 \
    --evolve --keep-alive --pipeline-depth 4 >/dev/null 2>&1
METRICS=$(./target/release/loadgen --addr 127.0.0.1:7893 --dump-metrics)
echo "smoke metrics: $METRICS"
if ! echo "$METRICS" | grep -q '"keepalive_reuses":[1-9]'; then
    echo "FAIL: expected nonzero keepalive_reuses"; exit 1
fi
if ! echo "$METRICS" | grep -q '"coalesced_waiters":[1-9]'; then
    echo "FAIL: expected nonzero coalesced_waiters"; exit 1
fi
echo "==> admin API smoke (register second corpus, hot path, retire)"
BASELINE=$(./target/release/loadgen --addr 127.0.0.1:7893 \
    --request 'GET /table1')
REGISTERED=$(./target/release/loadgen --addr 127.0.0.1:7893 \
    --request 'POST /admin/corpora' --body '{"cuisines":["ITA"]}')
echo "admin register: $REGISTERED"
CORPUS_KEY=$(echo "$REGISTERED" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')
if [[ -z "$CORPUS_KEY" ]]; then
    echo "FAIL: register returned no corpus key"; exit 1
fi
READY=""
for _ in $(seq 1 300); do
    LISTING=$(./target/release/loadgen --addr 127.0.0.1:7893 \
        --request 'GET /admin/corpora')
    if echo "$LISTING" | grep -q "\"key\":\"$CORPUS_KEY\",\"state\":\"ready\""; then
        READY=1; break
    fi
    sleep 0.2
done
if [[ -z "$READY" ]]; then
    echo "FAIL: corpus $CORPUS_KEY never reached ready"; exit 1
fi
./target/release/loadgen --addr 127.0.0.1:7893 --clients 4 --requests 25 \
    --corpus "$CORPUS_KEY" --keep-alive --evolve \
    --workload multi-corpus-smoke >/dev/null 2>&1
SCOPED=$(./target/release/loadgen --addr 127.0.0.1:7893 \
    --request "GET /table1?corpus=$CORPUS_KEY")
if [[ -z "$SCOPED" ]]; then
    echo "FAIL: corpus-scoped /table1 returned no body"; exit 1
fi
METRICS=$(./target/release/loadgen --addr 127.0.0.1:7893 --dump-metrics)
if ! echo "$METRICS" | grep -q '"registry_builds":[1-9]'; then
    echo "FAIL: expected nonzero registry_builds"; exit 1
fi
./target/release/loadgen --addr 127.0.0.1:7893 \
    --request "DELETE /admin/corpora/$CORPUS_KEY" >/dev/null
if ./target/release/loadgen --addr 127.0.0.1:7893 \
    --request "GET /table1?corpus=$CORPUS_KEY" >/dev/null 2>&1; then
    echo "FAIL: retired corpus still answers 2xx"; exit 1
fi
if ./target/release/loadgen --addr 127.0.0.1:7893 \
    --request 'DELETE /admin/corpora/default' >/dev/null 2>&1; then
    echo "FAIL: default corpus retire must answer 409"; exit 1
fi
AFTER=$(./target/release/loadgen --addr 127.0.0.1:7893 \
    --request 'GET /table1')
if [[ "$BASELINE" != "$AFTER" ]]; then
    echo "FAIL: default corpus bytes changed across the admin cycle"; exit 1
fi

echo "==> chaos smoke (fault plan fires under load, byte-identical recovery)"
# Delay + short-write only: both perturb timing and flush chunking without
# changing a single served byte, so loadgen must still exit 0.
./target/release/loadgen --addr 127.0.0.1:7893 \
    --request 'POST /admin/faults' \
    --body '{"spec":"seed=7;evolve.compute=delay:5@1in:4;conn.write=short-write@1in:3"}' \
    >/dev/null
./target/release/loadgen --addr 127.0.0.1:7893 --clients 4 --requests 25 \
    --evolve --keep-alive --retry --deadline-ms 10000 \
    --workload chaos-smoke >/dev/null 2>&1
METRICS=$(./target/release/loadgen --addr 127.0.0.1:7893 --dump-metrics)
echo "chaos metrics: $METRICS"
if ! echo "$METRICS" | grep -q '"fault_firings":[1-9]'; then
    echo "FAIL: fault plan installed but never fired under load"; exit 1
fi
./target/release/loadgen --addr 127.0.0.1:7893 \
    --request 'POST /admin/faults' --body '{"clear":true}' >/dev/null
RECOVERED=$(./target/release/loadgen --addr 127.0.0.1:7893 \
    --request 'GET /table1')
if [[ "$BASELINE" != "$RECOVERED" ]]; then
    echo "FAIL: served bytes changed across the fault cycle"; exit 1
fi
kill "$SERVE_PID" 2>/dev/null || true
trap - EXIT

echo "==> cuisine-lint --self-check (rule fixtures)"
cargo run --release -q -p cuisine-lint --bin cuisine-lint -- --self-check

echo "==> cuisine-lint (workspace contracts, lint.toml baseline)"
cargo run --release -q -p cuisine-lint --bin cuisine-lint -- \
    --root . --format json > /tmp/cuisine-lint-report.json \
    || { cargo run --release -q -p cuisine-lint --bin cuisine-lint -- --root .; exit 1; }

echo "==> cuisine-lint injection stage (C1/C2 must catch seeded faults)"
# Copy a real serve source into a temp tree, seed a lock inversion and a
# recv-under-guard, and require the linter to fail each with a spanned
# diagnostic naming the rule. This proves the concurrency rules fire on
# production-shaped code, not just on embedded fixtures.
INJECT_DIR=$(mktemp -d /tmp/cuisine-lint-inject.XXXXXX)
mkdir -p "$INJECT_DIR/crates/serve/src"
cp crates/serve/src/evolve.rs "$INJECT_DIR/crates/serve/src/evolve.rs"
cat >> "$INJECT_DIR/crates/serve/src/evolve.rs" <<'EOF'

fn injected_inversion(shared: &Shared) {
    let evolve_cache = shared.evolve_cache.lock();
    let inflight = shared.inflight.lock();
    drop((evolve_cache, inflight));
}

fn injected_recv_under_guard(shared: &Shared, chan: &std::sync::mpsc::Receiver<u32>) {
    let inflight = shared.inflight.lock();
    let job = chan.recv();
    drop((inflight, job));
}
EOF
INJECT_OUT=$(cargo run --release -q -p cuisine-lint --bin cuisine-lint -- \
    --root "$INJECT_DIR" --baseline /nonexistent-lint.toml --only C1,C2 || true)
echo "$INJECT_OUT" | sed 's/^/    | /'
if cargo run --release -q -p cuisine-lint --bin cuisine-lint -- \
    --root "$INJECT_DIR" --baseline /nonexistent-lint.toml --only C1,C2 \
    >/dev/null 2>&1; then
    echo "FAIL: injected concurrency faults lint clean"; exit 1
fi
if ! echo "$INJECT_OUT" | grep -q 'evolve\.rs:[0-9]\+:[0-9]\+.*C1'; then
    echo "FAIL: seeded lock inversion not flagged by C1 with a span"; exit 1
fi
if ! echo "$INJECT_OUT" | grep -q 'evolve\.rs:[0-9]\+:[0-9]\+.*C2'; then
    echo "FAIL: seeded recv-under-guard not flagged by C2 with a span"; exit 1
fi
rm -rf "$INJECT_DIR"

echo "==> serve concurrency + chaos suites under the debug lock-order witness"
# Debug profile enables the cuisine_exec::lockorder thread-local witness:
# every OrderedMutex acquisition panics on a declared-order violation, so
# a green run here is a dynamic proof of the same table C1 enforces.
cargo test -q -p cuisine-serve --test concurrency
cargo test -q -p cuisine-serve --test chaos

if [[ -z "${SKIP_CLIPPY:-}" ]]; then
    echo "==> cargo clippy --all-targets -- -D warnings"
    cargo clippy --all-targets -- -D warnings
fi

echo "==> CI gate passed"
