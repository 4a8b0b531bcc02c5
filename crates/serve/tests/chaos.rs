//! Chaos suite: keep-alive load under injected faults.
//!
//! Pins the robustness contract of the fault-injection plane end to end
//! over real sockets:
//!
//! - under `evolve.compute` delays and `conn.write` short-writes, every
//!   response is either byte-identical to the healthy baseline or a
//!   well-formed contract error — never a hang, never stale bytes;
//! - a `pool.dispatch` fault that silently drops the computation job is
//!   converted into a clean `504` within the request's deadline budget
//!   instead of hanging the coalesced flight forever;
//! - the same `FaultPlan` seed over the same request sequence produces
//!   identical firing counts (the plane is deterministic, not lossy
//!   randomness);
//! - a server draining mid-faulted-load still answers everything it
//!   accepted and shuts down cleanly.
//!
//! Shares the seed 11 / scale 0.02 fixture style of
//! `tests/concurrency.rs`.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cuisine_core::{Experiment, PipelineConfig};
use cuisine_evolution::{EnsembleConfig, EvaluationConfig, ModelKind};
use cuisine_serve::client;
use cuisine_serve::{AppState, Server, ServerConfig, SnapshotStore};
use cuisine_synth::SynthConfig;

const TIMEOUT: Duration = Duration::from_secs(30);

static FIXTURE: OnceLock<(Arc<Experiment>, Arc<SnapshotStore>)> = OnceLock::new();

fn fixture() -> &'static (Arc<Experiment>, Arc<SnapshotStore>) {
    FIXTURE.get_or_init(|| {
        let synth = SynthConfig { seed: 11, scale: 0.02, ..Default::default() };
        let experiment = Experiment::synthetic_with(&synth, PipelineConfig::default());
        let fig4 = EvaluationConfig {
            ensemble: EnsembleConfig { replicates: 2, seed: 7, threads: None },
            ..Default::default()
        };
        let store =
            SnapshotStore::build(&experiment, "chaos-v1".into(), &[ModelKind::Null], &fig4);
        (Arc::new(experiment), Arc::new(store))
    })
}

fn start_server(config: ServerConfig) -> Server {
    let (experiment, store) = fixture();
    let state = AppState::with_shared(Arc::clone(experiment), Arc::clone(store), 32);
    Server::start(state, ServerConfig { port: 0, ..config }).expect("bind ephemeral port")
}

/// Install a fault plan over the admin API; panics on a non-200 answer.
fn install_faults(addr: std::net::SocketAddr, spec: &str) {
    let body = format!(r#"{{"spec":{}}}"#, serde_json::to_string(&serde::Value::String(spec.into())).unwrap());
    let response = client::post_json(addr, "/admin/faults", &body, TIMEOUT).expect("admin reachable");
    assert_eq!(
        response.status,
        200,
        "installing {spec:?}: {}",
        String::from_utf8_lossy(&response.body)
    );
}

/// Clear the active fault plan over the admin API.
fn clear_faults(addr: std::net::SocketAddr) {
    let response =
        client::post_json(addr, "/admin/faults", r#"{"clear":true}"#, TIMEOUT).expect("admin");
    assert_eq!(response.status, 200);
}

/// Parse the `GET /admin/faults` status document.
fn faults_status(addr: std::net::SocketAddr) -> serde::Value {
    let response = client::get(addr, "/admin/faults", TIMEOUT).expect("admin reachable");
    assert_eq!(response.status, 200);
    serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap()
}

/// `(occurrences, fired)` for one named point in the status document.
fn point_counts(status: &serde::Value, point: &str) -> (u64, u64) {
    let points = status
        .as_object()
        .and_then(|o| o.get("points"))
        .and_then(|p| p.as_array())
        .expect("points array");
    for row in points {
        let row = row.as_object().expect("point row");
        if row.get("point").and_then(|v| v.as_str()) == Some(point) {
            return (
                row.get("occurrences").and_then(|v| v.as_u64()).unwrap_or(0),
                row.get("fired").and_then(|v| v.as_u64()).unwrap_or(0),
            );
        }
    }
    (0, 0)
}

#[test]
fn faulted_keepalive_load_never_hangs_and_recovers_byte_identical() {
    let server = start_server(ServerConfig {
        threads: Some(2),
        shards: Some(2),
        keep_alive: true,
        ..Default::default()
    });
    let addr = server.addr();

    // Healthy baseline before any fault is installed.
    let baseline = client::get(addr, "/table1", TIMEOUT).expect("healthy /table1");
    assert_eq!(baseline.status, 200);
    let baseline_body = baseline.body;

    // Delays stretch computations in place; short-writes drip responses
    // out a byte at a time on some flush rounds. Neither is allowed to
    // change a single served byte.
    install_faults(addr, "seed=7;evolve.compute=delay:10@1in:4;conn.write=short-write@1in:3");

    let clients = 4usize;
    let per_client = 24usize;
    std::thread::scope(|scope| {
        for client_index in 0..clients {
            let baseline_body = &baseline_body;
            scope.spawn(move || {
                let mut conn = client::Connection::open(addr, TIMEOUT).expect("connect");
                for i in 0..per_client {
                    if i % 3 == 2 {
                        // Distinct seeds force real computations so the
                        // evolve.compute point actually accumulates
                        // occurrences under load.
                        let seed = 1000 + client_index * per_client + i;
                        let body = format!(
                            r#"{{"cuisine":"ITA","model":"NM","seed":{seed},"replicates":2}}"#
                        );
                        let response = conn
                            .post_json("/evolve", &body)
                            .expect("faulted evolve must still answer");
                        assert_eq!(
                            response.status, 200,
                            "client {client_index} slot {i}: {}",
                            String::from_utf8_lossy(&response.body)
                        );
                    } else {
                        let response = conn
                            .get("/table1")
                            .expect("faulted GET must still answer");
                        assert_eq!(response.status, 200, "client {client_index} slot {i}");
                        assert_eq!(
                            &response.body, baseline_body,
                            "client {client_index} slot {i}: short-writes must never \
                             corrupt or truncate the served bytes"
                        );
                    }
                }
            });
        }
    });

    // The plan genuinely fired under that load.
    let status = faults_status(addr);
    let total_fired = status
        .as_object()
        .and_then(|o| o.get("total_fired"))
        .and_then(|v| v.as_u64())
        .expect("total_fired");
    assert!(total_fired > 0, "fault plan installed but never fired: {status:?}");

    // Clearing the plan restores a fault-free, byte-identical server.
    clear_faults(addr);
    let recovered = client::get(addr, "/table1", TIMEOUT).expect("recovered /table1");
    assert_eq!(recovered.status, 200);
    assert_eq!(recovered.body, baseline_body, "recovery must be byte-identical");
    let status = faults_status(addr);
    assert!(
        matches!(status.as_object().and_then(|o| o.get("spec")), Some(serde::Value::Null)),
        "clear must drop the plan: {status:?}"
    );

    server.shutdown();
}

#[test]
fn lost_dispatch_job_becomes_a_504_within_the_deadline_budget() {
    let server = start_server(ServerConfig { threads: Some(2), ..Default::default() });
    let addr = server.addr();

    // The very first dispatched job is dropped before it runs: its flight
    // would never complete and, pre-deadline, every coalesced waiter
    // would hang forever. The request deadline converts that into a 504.
    install_faults(addr, "seed=1;pool.dispatch=fail@nth:1");

    let budget_ms = 400u64;
    let mut conn = client::Connection::open(addr, TIMEOUT).expect("connect");
    conn.set_deadline_ms(Some(budget_ms));
    let started = Instant::now();
    let response = conn
        .post_json("/evolve", r#"{"cuisine":"ITA","model":"NM","seed":7777,"replicates":2}"#)
        .expect("a lost job must answer, not hang");
    let elapsed = started.elapsed();

    assert_eq!(
        response.status,
        504,
        "expected deadline expiry, got: {}",
        String::from_utf8_lossy(&response.body)
    );
    let body = String::from_utf8_lossy(&response.body);
    assert!(
        body.contains(&format!("\"deadline_ms\":{budget_ms}")),
        "504 must echo the budget: {body}"
    );
    assert!(
        elapsed >= Duration::from_millis(300),
        "504 answered before the budget elapsed ({elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "504 took far longer than budget + slack ({elapsed:?})"
    );

    // The drop was observed as a contained worker panic, and the expiry
    // was counted.
    let metrics = client::get(addr, "/metrics", TIMEOUT).expect("/metrics");
    let doc: serde::Value =
        serde_json::from_str(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    let counter = |key: &str| {
        doc.as_object()
            .and_then(|o| o.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("metrics key {key} missing"))
    };
    assert!(counter("deadline_expired") >= 1, "deadline_expired must be counted");
    assert!(counter("worker_panics") >= 1, "the dropped job must be counted");
    assert!(counter("fault_firings") >= 1, "the firing must be counted");

    // With the plan cleared, a fresh computation (new cache key — the
    // dead flight still owns the old one) completes normally.
    clear_faults(addr);
    let healthy = conn
        .post_json("/evolve", r#"{"cuisine":"ITA","model":"NM","seed":7778,"replicates":2}"#)
        .expect("healthy evolve");
    assert_eq!(healthy.status, 200, "{}", String::from_utf8_lossy(&healthy.body));

    server.shutdown();
}

#[test]
fn metrics_on_an_open_connection_count_a_fresh_worker_panic() {
    // `/metrics` must read the pools' panic counters when it is answered:
    // no new connection (and so no accept) happens between the panic and
    // the read below.
    let server = start_server(ServerConfig { threads: Some(1), ..Default::default() });
    let addr = server.addr();
    let mut conn = client::Connection::open(addr, TIMEOUT).expect("connect");
    let worker_panics = |conn: &mut client::Connection| {
        let metrics = conn.get("/metrics").expect("/metrics");
        let doc: serde::Value =
            serde_json::from_str(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
        doc.as_object()
            .and_then(|o| o.get("worker_panics"))
            .and_then(|v| v.as_u64())
            .expect("worker_panics in /metrics")
    };
    assert_eq!(worker_panics(&mut conn), 0);

    install_faults(addr, "seed=1;pool.dispatch=panic@nth:1");
    conn.set_deadline_ms(Some(300));
    let lost = conn
        .post_json("/evolve", r#"{"cuisine":"ITA","model":"NM","seed":9191,"replicates":1}"#)
        .expect("a lost job must answer, not hang");
    assert_eq!(lost.status, 504, "{}", String::from_utf8_lossy(&lost.body));
    conn.set_deadline_ms(None);
    assert_eq!(worker_panics(&mut conn), 1, "the panic is counted on the open connection");
    server.shutdown();
}

#[test]
fn same_fault_seed_yields_identical_firing_counts() {
    // Two independent servers, the same plan, the same sequential request
    // sequence: the compute-layer point must fire on exactly the same
    // occurrences (conn.* points are TCP-chunking-dependent and are
    // deliberately not part of this determinism contract).
    let run = || -> (Vec<u16>, (u64, u64)) {
        let server = start_server(ServerConfig { threads: Some(1), ..Default::default() });
        let addr = server.addr();
        install_faults(addr, "seed=42;evolve.compute=fail@1in:2");
        let mut conn = client::Connection::open(addr, TIMEOUT).expect("connect");
        let mut statuses = Vec::new();
        for seed in 1..=8u64 {
            let body =
                format!(r#"{{"cuisine":"ITA","model":"NM","seed":{seed},"replicates":2}}"#);
            let response = conn.post_json("/evolve", &body).expect("faulted evolve answers");
            statuses.push(response.status);
            if response.status != 200 {
                let text = String::from_utf8_lossy(&response.body);
                assert!(
                    text.contains("injected fault: evolve.compute"),
                    "contract 500 must name the injected fault: {text}"
                );
            }
        }
        let counts = point_counts(&faults_status(addr), "evolve.compute");
        server.shutdown();
        (statuses, counts)
    };

    let (statuses_a, counts_a) = run();
    let (statuses_b, counts_b) = run();

    assert_eq!(counts_a.0, 8, "eight computations, eight occurrences");
    assert!(counts_a.1 >= 1, "a 1-in-2 schedule over 8 occurrences must fire");
    assert!(counts_a.1 < 8, "a 1-in-2 schedule must not fire every time");
    assert_eq!(counts_a, counts_b, "same seed + same sequence => same counts");
    assert_eq!(statuses_a, statuses_b, "same seed + same sequence => same statuses");
}

#[test]
fn shutdown_mid_faulted_load_drains_cleanly() {
    let server = start_server(ServerConfig { threads: Some(2), ..Default::default() });
    let addr = server.addr();
    // Every computation is stretched so the drain genuinely overlaps
    // in-flight work.
    install_faults(addr, "seed=3;evolve.compute=delay:150");

    let handles: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let mut conn = client::Connection::open(addr, TIMEOUT).expect("connect");
                let evolve =
                    format!(r#"{{"cuisine":"ITA","model":"NM","seed":{},"replicates":2}}"#, 500 + i);
                conn.send("/table1", None).expect("send 1");
                conn.send("/evolve", Some(evolve.as_bytes())).expect("send 2");
                conn.send("/healthz", None).expect("send 3");
                for k in 0..3 {
                    let response = conn.recv().unwrap_or_else(|e| {
                        panic!("conn {i} response {k} reset during faulted drain: {e}")
                    });
                    assert_eq!(response.status, 200, "conn {i} response {k}");
                }
            })
        })
        .collect();

    // Let the batches reach the server, then drain while the delayed
    // computations are still in flight.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();

    for handle in handles {
        handle.join().expect("faulted pipelined client");
    }
}
