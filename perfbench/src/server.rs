//! The `serve` process under test: spawn, set up, scrape, stop.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

use crate::client::{self, Conn};

/// Longest wait for a corpus to become Ready.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// Pause between readiness polls.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Kernel clock ticks per second of `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux build).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// How the server is launched.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Default corpus synthesis seed.
    pub seed: u64,
    /// Corpus scale.
    pub scale: f64,
    /// Fig. 4 replicates per model and cuisine.
    pub replicates: usize,
    /// Synthesis seeds of the corpora registered after boot.
    pub extra_seeds: Vec<u64>,
}

impl Launch {
    /// Canonical registry key of a corpus with this launch's scale and
    /// the default miner.
    pub fn corpus_key(&self, seed: u64) -> String {
        let miner = cuisine_core::mining::Miner::default().label();
        format!("seed{seed}-scale{}-{miner}", self.scale)
    }
}

/// A running `serve` child. Dropping it stops the process.
pub struct ServeProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Listening address.
    pub addr: SocketAddr,
}

/// One row of `GET /admin/corpora`.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusRow {
    /// Canonical key.
    pub key: String,
    /// `ready`, `building`, ...
    pub state: String,
    /// Install epoch.
    pub epoch: u64,
    /// Server-timed build of the installed epoch.
    pub build_ms: u64,
    /// A rebuild is pending.
    pub rebuilding: bool,
}

impl CorpusRow {
    /// Ready with no build pending.
    pub fn settled(&self) -> bool {
        self.state == "ready" && !self.rebuilding
    }
}

fn other(message: String) -> std::io::Error {
    std::io::Error::other(message)
}

impl ServeProcess {
    /// Spawn `bin` on an ephemeral port and wait until it listens (the
    /// default corpus is built by then).
    pub fn spawn(bin: &Path, launch: &Launch) -> std::io::Result<ServeProcess> {
        let mut child = Command::new(bin)
            .args(["--scale", &launch.scale.to_string()])
            .args(["--seed", &launch.seed.to_string()])
            .args(["--replicates", &launch.replicates.to_string()])
            .args(["--port", "0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| other("no stdout pipe".into()))?;
        let mut process = ServeProcess {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        process.addr = line
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| other(format!("serve did not report its address: {line:?}")))?;
        Ok(process)
    }

    /// Register the launch's extra corpora (keys inherit the default
    /// scale and miner) and wait until every corpus is Ready; returns the
    /// final admin rows.
    pub fn register_and_settle(&self, launch: &Launch) -> std::io::Result<Vec<CorpusRow>> {
        for seed in &launch.extra_seeds {
            let (status, body) = client::once(
                self.addr,
                "POST",
                "/admin/corpora",
                Some(&format!(r#"{{"seed":{seed}}}"#)),
            )?;
            if status != 202 {
                return Err(other(format!(
                    "registering seed {seed} answered {status}: {}",
                    String::from_utf8_lossy(&body)
                )));
            }
        }
        let mut conn = Conn::open(self.addr)?;
        let started = Instant::now();
        loop {
            let rows = admin_rows(&mut conn)?;
            if rows.len() == 1 + launch.extra_seeds.len() && rows.iter().all(CorpusRow::settled) {
                return Ok(rows);
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(other(format!(
                    "corpora not Ready after {READY_TIMEOUT:?}: {rows:?}"
                )));
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// `GET /metrics` as JSON.
    pub fn metrics(&self) -> std::io::Result<Value> {
        let (status, body) = client::once(self.addr, "GET", "/metrics", None)?;
        if status != 200 {
            return Err(other(format!("/metrics answered {status}")));
        }
        parse_json(&body)
    }

    /// Peak resident set size in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> std::io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// User plus system CPU seconds used so far.
    pub fn cpu_seconds(&self) -> std::io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => Ok((user + system) / CLOCK_TICKS_PER_S),
            _ => Err(other("unreadable /proc stat".into())),
        }
    }

    /// Ask for a graceful shutdown and wait for the process to end; kill
    /// it if it does not end within ten seconds.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"\n");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.stop_inner();
        }
    }
}

/// Parse a JSON body.
pub fn parse_json(body: &[u8]) -> std::io::Result<Value> {
    let text = std::str::from_utf8(body).map_err(|_| other("non-UTF-8 JSON".into()))?;
    serde_json::from_str(text).map_err(|e| other(format!("bad JSON: {e}")))
}

/// The rows of `GET /admin/corpora`, read on `conn`.
pub fn admin_rows(conn: &mut Conn) -> std::io::Result<Vec<CorpusRow>> {
    let (status, body) = conn.get("/admin/corpora")?;
    if status != 200 {
        return Err(other(format!("/admin/corpora answered {status}")));
    }
    let doc = parse_json(&body)?;
    let rows = doc
        .as_object()
        .and_then(|d| d.get("corpora"))
        .and_then(Value::as_array)
        .ok_or_else(|| other("admin listing without corpora".into()))?;
    Ok(rows
        .iter()
        .filter_map(|row| {
            let row = row.as_object()?;
            Some(CorpusRow {
                key: row.get("key")?.as_str()?.to_string(),
                state: row.get("state")?.as_str()?.to_string(),
                epoch: row.get("epoch")?.as_u64()?,
                build_ms: row.get("build_ms")?.as_u64()?,
                rebuilding: matches!(row.get("rebuilding"), Some(Value::Bool(true))),
            })
        })
        .collect())
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| other(format!("no VmHWM in {status_path}")))
}

/// A numeric field of a JSON object, by `/`-separated path.
pub fn field(doc: &Value, path: &str) -> f64 {
    let mut node = Some(doc);
    for part in path.split('/') {
        node = node.and_then(Value::as_object).and_then(|o| o.get(part));
    }
    node.and_then(Value::as_f64).unwrap_or(0.0)
}

/// Counters of `/metrics` that the benchmark reads before and after a
/// phase.
pub const COUNTERS: [&str; 11] = [
    "response_cache/hits",
    "response_cache/misses",
    "evolve_cache_hits",
    "evolve_cache_misses",
    "evolve_computations",
    "coalesced_waiters",
    "keepalive_reuses",
    "requests_shed",
    "deadline_expired",
    "worker_panics",
    "registry_swaps",
];

/// Counter deltas between two `/metrics` documents.
#[derive(Debug, Clone, Default)]
pub struct Deltas(pub Vec<(&'static str, f64)>);

impl Deltas {
    /// `after − before` for every counter of [`COUNTERS`].
    pub fn between(before: &Value, after: &Value) -> Self {
        Deltas(
            COUNTERS
                .iter()
                .map(|&c| (c, field(after, c) - field(before, c)))
                .collect(),
        )
    }

    /// One counter's delta.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// `part / (part + rest)`, 0 when both are 0.
    pub fn ratio(&self, part: &str, rest: &str) -> f64 {
        let (a, b) = (self.get(part), self.get(rest));
        if a + b == 0.0 {
            0.0
        } else {
            a / (a + b)
        }
    }
}
