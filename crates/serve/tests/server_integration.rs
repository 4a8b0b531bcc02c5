//! End-to-end tests over a live server on an ephemeral port.
//!
//! The headline contract: bytes served over HTTP are **identical** to what
//! the offline pipeline serializes for the same configuration — under
//! concurrency, across repeated requests, and across server pool sizes.
//! Graceful shutdown must complete every accepted request (the client
//! verifies `content-length`, so a reset surfaces as a transport error,
//! not a short body).
//!
//! One experiment + snapshot build (seed 11 / scale 0.02, matching
//! `tests/determinism.rs`) is shared by every test via
//! [`AppState::with_shared`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cuisine_core::{Experiment, PipelineConfig};
use cuisine_evolution::{EnsembleConfig, EvaluationConfig, ModelKind};
use cuisine_serve::client;
use cuisine_serve::{AppState, Server, ServerConfig, SnapshotStore};
use cuisine_synth::SynthConfig;

const TIMEOUT: Duration = Duration::from_secs(30);

static FIXTURE: OnceLock<(Arc<Experiment>, Arc<SnapshotStore>)> = OnceLock::new();

fn fig4_config() -> EvaluationConfig {
    EvaluationConfig {
        ensemble: EnsembleConfig { replicates: 2, seed: 7, threads: None },
        ..Default::default()
    }
}

fn fixture() -> &'static (Arc<Experiment>, Arc<SnapshotStore>) {
    FIXTURE.get_or_init(|| {
        let synth = SynthConfig { seed: 11, scale: 0.02, ..Default::default() };
        let experiment = Experiment::synthetic_with(&synth, PipelineConfig::default());
        let store = SnapshotStore::build(
            &experiment,
            "integration-v1".into(),
            &[ModelKind::Null],
            &fig4_config(),
        );
        (Arc::new(experiment), Arc::new(store))
    })
}

fn start_server(config: ServerConfig) -> Server {
    let (experiment, store) = fixture();
    let state = AppState::with_shared(Arc::clone(experiment), Arc::clone(store), 32);
    Server::start(state, ServerConfig { port: 0, ..config }).expect("bind ephemeral port")
}

#[test]
fn eight_concurrent_clients_get_byte_identical_artifacts() {
    let server = start_server(ServerConfig { threads: Some(4), ..Default::default() });
    let addr = server.addr();
    let (experiment, store) = fixture();

    let paths = [
        "/table1",
        "/fig1",
        "/fig2",
        "/fig3/ingredient",
        "/fig3/category",
        "/similarity/ingredient",
        "/fig4",
        "/cuisines",
    ];

    std::thread::scope(|scope| {
        for client_index in 0..8 {
            scope.spawn(move || {
                // Each client walks every path, starting at its own offset.
                for step in 0..paths.len() {
                    let path = paths[(client_index + step) % paths.len()];
                    let response = client::get(addr, path, TIMEOUT)
                        .unwrap_or_else(|e| panic!("client {client_index} {path}: {e}"));
                    assert_eq!(response.status, 200, "{path}");
                    assert_eq!(
                        response.body,
                        **store.get(path).expect("snapshotted"),
                        "served bytes diverged from the snapshot for {path}"
                    );
                }
            });
        }
    });

    // Spot-check the snapshot itself against a fresh offline serialization
    // (the full family is covered by the snapshot unit tests).
    let offline = serde_json::to_string(&experiment.table1()).unwrap();
    assert_eq!(
        client::get(addr, "/table1", TIMEOUT).unwrap().body,
        offline.into_bytes(),
        "served /table1 diverged from the offline pipeline"
    );

    server.shutdown();
}

#[test]
fn evolve_is_deterministic_across_requests_and_pool_sizes() {
    let body = r#"{"cuisine":"ITA","model":"CM-M","seed":42,"replicates":3}"#;

    let single = start_server(ServerConfig { threads: Some(1), ..Default::default() });
    let wide = start_server(ServerConfig { threads: Some(4), ..Default::default() });

    let a = client::post_json(single.addr(), "/evolve", body, TIMEOUT).unwrap();
    let b = client::post_json(single.addr(), "/evolve", body, TIMEOUT).unwrap();
    let c = client::post_json(wide.addr(), "/evolve", body, TIMEOUT).unwrap();
    assert_eq!(a.status, 200, "{}", String::from_utf8_lossy(&a.body));
    assert_eq!(a.body, b.body, "same server, same seed: bodies must match");
    assert_eq!(a.body, c.body, "different pool size: bodies must match");

    // A different seed must actually change the stochastic models' output.
    let reseeded = r#"{"cuisine":"ITA","model":"CM-M","seed":43,"replicates":3}"#;
    let d = client::post_json(wide.addr(), "/evolve", reseeded, TIMEOUT).unwrap();
    assert_eq!(d.status, 200);
    assert_ne!(a.body, d.body, "seed is part of the contract");

    single.shutdown();
    wide.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = start_server(ServerConfig {
        threads: Some(2),
        queue_capacity: 32,
        ..Default::default()
    });
    let addr = server.addr();

    // Six slow-ish requests across two workers: several will still be
    // queued or in flight when shutdown lands.
    let handles: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let body =
                    format!(r#"{{"cuisine":"ITA","model":"NM","seed":{i},"replicates":8}}"#);
                client::post_json(addr, "/evolve", &body, TIMEOUT)
            })
        })
        .collect();

    // Give every client time to connect and be accepted, then shut down
    // mid-flight.
    std::thread::sleep(Duration::from_millis(500));
    server.shutdown();

    for (i, handle) in handles.into_iter().enumerate() {
        let response = handle
            .join()
            .expect("client thread")
            .unwrap_or_else(|e| panic!("request {i} was dropped during drain: {e}"));
        assert_eq!(response.status, 200, "request {i}");
    }

    // The listener is gone after shutdown.
    assert!(client::get(addr, "/healthz", Duration::from_secs(1)).is_err());
}

#[test]
fn protocol_errors_are_served_as_json_statuses() {
    let server = start_server(ServerConfig::default());
    let addr = server.addr();

    assert_eq!(client::get(addr, "/no-such-endpoint", TIMEOUT).unwrap().status, 404);
    assert_eq!(client::get(addr, "/evolve", TIMEOUT).unwrap().status, 405);
    assert_eq!(
        client::post_json(addr, "/evolve", "{]", TIMEOUT).unwrap().status,
        400
    );
    assert_eq!(
        client::post_json(addr, "/evolve", r#"{"cuisine":"ITA"}"#, TIMEOUT).unwrap().status,
        422
    );

    // A malformed request line straight over the socket.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head = String::from_utf8_lossy(&raw);
    assert!(head.starts_with("HTTP/1.1 400"), "got: {head}");

    server.shutdown();
}

#[test]
fn healthz_and_metrics_reflect_live_state() {
    let server = start_server(ServerConfig::default());
    let addr = server.addr();

    let health = client::get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    assert!(String::from_utf8_lossy(&health.body).contains("integration-v1"));

    // Two identical GETs: the second must be an LRU hit.
    let first = client::get(addr, "/table1?x=1&y=2", TIMEOUT).unwrap();
    let second = client::get(addr, "/table1/?y=2&x=1", TIMEOUT).unwrap();
    assert_eq!(first.body, second.body);

    let metrics = client::get(addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(metrics.status, 200);
    let doc: serde::Value =
        serde_json::from_str(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    let object = doc.as_object().unwrap();
    let cache = object.get("response_cache").unwrap().as_object().unwrap();
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));

    server.shutdown();
}

/// Install a fault plan through the admin API.
fn install_faults(addr: std::net::SocketAddr, spec: &str) {
    let body = format!(r#"{{"spec":"{spec}"}}"#);
    let response = client::post_json(addr, "/admin/faults", &body, TIMEOUT).unwrap();
    assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));
}

/// Run `server.shutdown()` on a helper thread and return how long it
/// took, or `None` if it has not returned within `limit` — a lost wake-up
/// fails the test instead of hanging it.
fn shutdown_within(server: Server, limit: Duration) -> Option<Duration> {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let started = Instant::now();
        server.shutdown();
        let _ = done.send(started.elapsed());
    });
    finished.recv_timeout(limit).ok()
}

/// The evolve pool's published depth, read from `/metrics` on `conn`.
fn pool_depth(conn: &mut client::Connection) -> u64 {
    let metrics = conn.get("/metrics").unwrap();
    let doc: serde::Value =
        serde_json::from_str(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    doc.as_object()
        .and_then(|o| o.get("pool"))
        .and_then(|p| p.as_object())
        .and_then(|p| p.get("depth"))
        .and_then(|d| d.as_u64())
        .expect("pool.depth in /metrics")
}

#[test]
fn shutdown_is_prompt_on_an_idle_server_with_an_open_keep_alive_connection() {
    // Every shard is blocked in poll(2) with only a 30 s idle timer
    // pending; shutdown must wake them instead of waiting it out.
    let server = start_server(ServerConfig { shards: Some(2), ..Default::default() });
    let mut conn = client::Connection::open(server.addr(), TIMEOUT).unwrap();
    assert_eq!(conn.get("/healthz").unwrap().status, 200);
    std::thread::sleep(Duration::from_millis(50));

    let elapsed = shutdown_within(server, Duration::from_secs(5)).expect("shutdown returns");
    assert!(elapsed < Duration::from_secs(1), "idle shutdown took {elapsed:?}");
    assert!(conn.get("/healthz").is_err(), "the drained connection is closed");
}

#[test]
fn a_parked_evolve_is_answered_at_its_compute_time_not_its_deadline() {
    // The shard parks the connection with a 60 s budget as its only
    // timer: the finished flight's wake-up, not the timer, must end the
    // wait.
    let server = start_server(ServerConfig { threads: Some(1), ..Default::default() });
    let addr = server.addr();
    install_faults(addr, "seed=1;evolve.compute=delay:200@always");
    // The client gives up long before the deadline would answer.
    let mut conn = client::Connection::open(addr, Duration::from_secs(10)).unwrap();
    conn.set_deadline_ms(Some(60_000));

    let started = Instant::now();
    let response = conn
        .post_json("/evolve", r#"{"cuisine":"ITA","model":"NM","seed":4242,"replicates":1}"#)
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));
    assert!(elapsed >= Duration::from_millis(200), "the injected delay ran ({elapsed:?})");
    assert!(elapsed < Duration::from_secs(10), "answered near the deadline ({elapsed:?})");
    server.shutdown();
}

#[test]
fn shutdown_with_a_parked_evolve_returns_once_the_flight_lands() {
    let server = start_server(ServerConfig { threads: Some(1), ..Default::default() });
    let addr = server.addr();
    install_faults(addr, "seed=1;evolve.compute=delay:300@always");
    let mut parked = client::Connection::open(addr, TIMEOUT).unwrap();
    parked
        .send("/evolve", Some(br#"{"cuisine":"ITA","model":"NM","seed":4343,"replicates":1}"#))
        .unwrap();
    // Wait until the computation is on the pool, so shutdown lands while
    // the connection is parked on its flight.
    let mut probe = client::Connection::open(addr, TIMEOUT).unwrap();
    let waited = Instant::now();
    while pool_depth(&mut probe) == 0 {
        assert!(waited.elapsed() < TIMEOUT, "the evolve job never reached the pool");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Compute time plus slack; a lost wake-up would sit out the 30 s
    // default deadline or the drain backstop.
    shutdown_within(server, Duration::from_secs(5)).expect("shutdown returns once the flight lands");
    let response = parked.recv().expect("a parked request is drained, not dropped");
    assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));
}
