//! Sharded, keep-alive connection layer: acceptor, per-shard event loops,
//! and graceful drain.
//!
//! Architecture (DESIGN.md §7):
//!
//! ```text
//! acceptor ──round-robin try_send + wake──▶ shard 0..N event loops
//!  poll: listener,    all queues full: 503     │  poll: waker + one entry
//!        stop waker                            │        per connection
//!                                              │ per connection:
//!                                              │   FrameReader → route_conn
//!                                              │     Ready  → append response
//!                                              │     Evolve → EvolveEngine.submit
//!                                              ▼       (flight rings the waker)
//!                              AppState: snapshots / LRU / evolve cache / metrics
//! ```
//!
//! * **Acceptor.** One non-blocking listener thread distributes accepted
//!   sockets round-robin over bounded per-shard queues and wakes the
//!   target shard after each hand-off. Round-robin is kept over
//!   `SO_REUSEPORT` sharding on purpose: `std::net` cannot set socket
//!   options before bind, and the kernel's hash may put both of two
//!   connections on one shard while round-robin gives one to each. When
//!   every queue is full the connection is answered `503` inline: load is
//!   shed explicitly, never buffered unboundedly. The acceptor blocks in
//!   `poll(2)` on the listener and its stop [`Waker`]; a failing `accept`
//!   (e.g. `EMFILE` with the listener still readable) backs off for
//!   [`ERROR_BACKOFF`] instead of spinning.
//! * **Shards.** Each shard owns its connections outright — no cross-shard
//!   locking — and runs an event loop over non-blocking sockets: flush
//!   pending output, poll any in-flight `/evolve` [`Flight`], read fresh
//!   bytes into the per-connection [`FrameReader`], answer every complete
//!   frame, sweep timeouts. Keep-alive and pipelining fall out of the
//!   framer: a connection serves requests until it asks to close
//!   (`Connection: close`, HTTP/1.0), errors, or goes idle past
//!   [`ServerConfig::idle_timeout`]. Responses are appended to one
//!   reusable write buffer in request order, so pipelined responses can
//!   never reorder.
//! * **Readiness, not sleep-polling.** A pass that moves nothing ends in
//!   [`readiness::wait`] over the shard's poll set: its [`Waker`] plus one
//!   entry per connection. A connection asks for `POLLIN` only when the
//!   pass would read it (not parked on a flight, not closing or
//!   peer-closed, framer healthy, input below the high-water mark) and for
//!   `POLLOUT` only while output is pending; with neither it is left out
//!   of the set (fd `-1`), so a hung-up parked connection cannot make a
//!   level-triggered `poll` spin. The timeout is [`next_wake`]: the
//!   nearest idle, read or write timeout, mid-frame budget, parked
//!   `/evolve` budget, or drain deadline.
//! * **Wake-ups.** Three producers ring a shard's waker, each *after*
//!   publishing what it announces: the acceptor (after `try_send`), a
//!   finished `/evolve` [`Flight`] (the shard registered the waker with
//!   [`EvolveEngine::submit`]), and [`Server::shutdown`] (after setting
//!   the stop flag and joining the acceptor). The shard drains the waker
//!   right after `poll` returns and before its next pass re-checks the
//!   queue, the flights and the stop flag. So a wake either precedes the
//!   drain — and the pass that follows sees the state — or lands after
//!   it and leaves a byte that ends the next `poll` at once. No wake-up
//!   is lost, and none is needed for timers: `poll`'s timeout covers them.
//! * **`/evolve` off the event loop.** Ensemble computations run on the
//!   [`EvolveEngine`]'s worker pool; the shard parks the *connection* (not
//!   the thread) on the returned [`Flight`] and keeps serving its other
//!   connections. Identical concurrent requests coalesce onto one flight
//!   inside the engine.
//! * **Graceful drain.** [`Server::shutdown`] stops the acceptor first;
//!   shards then finish every request already received — including parked
//!   evolve flights and pipelined frames — flush, and close, with a hard
//!   deadline as a backstop. The engine (and its worker pool) is dropped
//!   only after every shard has joined, so no flight is ever abandoned.
//!
//! The only timed waits left are the `conn.*` fault hook's injected delay
//! and [`ERROR_BACKOFF`] after a failed `accept` or `poll`.
//!
//! Determinism: shards never touch response bytes — they move
//! [`Response`] values produced by the same router/snapshot/evolve paths
//! the blocking server used, so shard count, keep-alive, and coalescing
//! are all value-neutral (asserted by `tests/concurrency.rs`).

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::raw::c_short;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cuisine_exec::readiness::{self, PollFd, Waker, POLLIN, POLLOUT};
use cuisine_exec::{spawn_service, FaultAction, Faults, Flight};

use crate::deadline::{budget_ms, remaining_ms, timeout_response, DeadlineConfig};
use crate::evolve::{EvolveEngine, Submitted};
use crate::http::{Frame, FrameReader, Method, Request, Response};
use crate::router::{normalized, route_conn, AppState, Routed};

/// Per-connection write-buffer high-water mark: frame processing pauses
/// while this much output is unflushed (a slow reader must not balloon
/// memory by pipelining).
const OUT_HIGH_WATER: usize = 256 * 1024;
/// Per-connection read high-water mark: reads pause while this much
/// unparsed input is buffered.
const IN_HIGH_WATER: usize = 64 * 1024;
/// Bounded acceptor→shard queue depth.
const SHARD_QUEUE: usize = 64;
/// Hard backstop for graceful drain: connections still open this long
/// after shutdown began are force-closed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);
/// Pause after a failed `accept` or `poll`, so a persistent error (a
/// listener that stays readable while the process is out of descriptors)
/// cannot turn the loop into a spin.
const ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (`0` = ephemeral, reported by
    /// [`Server::addr`]).
    pub port: u16,
    /// `/evolve` worker threads (workspace convention: `None` = available
    /// parallelism, `Some(0)`/`Some(1)` = one worker).
    pub threads: Option<usize>,
    /// Bounded submission-queue capacity of the evolve pool.
    pub queue_capacity: usize,
    /// LRU response-cache capacity (0 disables).
    pub lru_capacity: usize,
    /// How long a connection may stall *mid-request* before it is answered
    /// `408` and closed.
    pub read_timeout: Duration,
    /// How long unflushed output may stall before the connection is
    /// dropped.
    pub write_timeout: Duration,
    /// Connection shards (event-loop threads). `None` = available
    /// parallelism.
    pub shards: Option<usize>,
    /// Serve multiple requests per connection (HTTP/1.1 keep-alive +
    /// pipelining). When false every response carries
    /// `Connection: close`, restoring the one-request-per-connection
    /// behavior (useful for A/B measurement).
    pub keep_alive: bool,
    /// Close a connection with no buffered request bytes after this long
    /// without activity. Never applied to a connection waiting on an
    /// `/evolve` computation or mid-request (those get `read_timeout`).
    pub idle_timeout: Duration,
    /// Upper bound on concurrently open connections per shard; excess
    /// stays in the acceptor queue (and is shed once that fills).
    pub max_conns_per_shard: usize,
    /// End-to-end request deadline knobs: the default budget and the clamp
    /// applied to client `X-Deadline-Ms` requests. Expiry while parked on
    /// an `/evolve` flight answers `504` and detaches the waiter.
    pub deadline: DeadlineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 7878,
            threads: None,
            queue_capacity: 64,
            lru_capacity: 128,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            shards: None,
            keep_alive: true,
            idle_timeout: Duration::from_secs(30),
            max_conns_per_shard: 1024,
            deadline: DeadlineConfig::default(),
        }
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// accepting, drains in-flight requests, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    accept_waker: Waker,
    shard_wakers: Vec<Waker>,
    accept_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    engine: Option<Arc<EvolveEngine>>,
}

/// Everything a shard loop needs, bundled once per shard.
struct ShardCtx {
    state: Arc<AppState>,
    engine: Arc<EvolveEngine>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    /// Rung by the acceptor, by finished flights and by shutdown.
    waker: Waker,
}

/// The acceptor's handle on one shard.
struct ShardInbox {
    tx: SyncSender<TcpStream>,
    waker: Waker,
}

impl Server {
    /// Bind, spawn the evolve engine, the shards, and the acceptor, and
    /// start serving.
    pub fn start(state: AppState, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, config.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // The server config is the one source of deadline truth once a
        // server fronts the state.
        let state = Arc::new(state.with_deadline(config.deadline));
        let engine = Arc::new(EvolveEngine::new(
            Arc::clone(&state),
            config.threads,
            config.queue_capacity,
        ));
        state.gauges.workers.store(engine.workers(), Ordering::Relaxed);

        // Built up in place so an error part-way shuts down (through
        // `Drop`) whatever was already spawned. `inboxes` is declared
        // after it and so dropped first: the shards see their queues
        // disconnect before the drop wakes and joins them.
        let mut server = Server {
            addr,
            state,
            stop: Arc::new(AtomicBool::new(false)),
            accept_waker: Waker::new()?,
            shard_wakers: Vec::new(),
            accept_thread: None,
            shard_threads: Vec::new(),
            engine: Some(Arc::clone(&engine)),
        };
        let mut inboxes = Vec::new();
        let shard_count = cuisine_exec::resolve_threads(config.shards, usize::MAX);
        for shard in 0..shard_count {
            let (tx, rx) = sync_channel::<TcpStream>(SHARD_QUEUE);
            let waker = Waker::new()?;
            inboxes.push(ShardInbox { tx, waker: waker.clone() });
            server.shard_wakers.push(waker.clone());
            let ctx = ShardCtx {
                state: Arc::clone(&server.state),
                engine: Arc::clone(&engine),
                config: config.clone(),
                stop: Arc::clone(&server.stop),
                waker,
            };
            server
                .shard_threads
                .push(spawn_service(&format!("serve-shard-{shard}"), move || {
                    shard_loop(&rx, &ctx);
                })?);
        }

        let state = Arc::clone(&server.state);
        let stop = Arc::clone(&server.stop);
        let waker = server.accept_waker.clone();
        server.accept_thread = Some(spawn_service("serve-accept", move || {
            accept_loop(&listener, &inboxes, &state, &waker, &stop, &config);
        })?);
        Ok(server)
    }

    /// The bound address (resolves `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared application state (metrics, snapshots, ...).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain every request already
    /// received (including parked evolve computations), join all threads.
    /// Idempotent through `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Order matters: the acceptor exits first and drops the shard
        // queues; shards then drain their connections (evolve flights are
        // completed by the still-live engine workers) and join; only then
        // may the engine — and its worker pool — wind down. Each wake
        // follows the state change it announces.
        self.accept_waker.wake();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for waker in &self.shard_wakers {
            waker.wake();
        }
        for handle in self.shard_threads.drain(..) {
            let _ = handle.join();
        }
        drop(self.engine.take());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shards: &[ShardInbox],
    state: &AppState,
    waker: &Waker,
    stop: &AtomicBool,
    config: &ServerConfig,
) {
    let mut round_robin = 0usize;
    let mut poll_set = [PollFd::new(listener.as_raw_fd(), POLLIN), waker.poll_fd()];
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue; // peer vanished between accept and setup
                }
                let _ = stream.set_nodelay(true);
                // Round-robin over the shards, skipping full queues; if
                // every queue is full the server is genuinely saturated
                // and the connection is shed with an inline 503.
                let mut pending = Some(stream);
                for probe in 0..shards.len() {
                    let index = (round_robin + probe) % shards.len().max(1);
                    let (Some(shard), Some(stream)) = (shards.get(index), pending.take())
                    else {
                        break;
                    };
                    match shard.tx.try_send(stream) {
                        Ok(()) => {
                            shard.waker.wake();
                            round_robin = (index + 1) % shards.len().max(1);
                            break;
                        }
                        Err(TrySendError::Full(stream))
                        | Err(TrySendError::Disconnected(stream)) => {
                            pending = Some(stream);
                        }
                    }
                }
                if let Some(stream) = pending {
                    shed(state, stream, config);
                }
            }
            // Backlog empty: sleep until a connection arrives or shutdown
            // rings the stop waker.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                match readiness::wait(&mut poll_set, None) {
                    Ok(_) if poll_set.get(1).is_some_and(PollFd::readable) => waker.drain(),
                    Ok(_) => {}
                    Err(_) => std::thread::sleep(ERROR_BACKOFF),
                }
            }
            Err(_) => std::thread::sleep(ERROR_BACKOFF),
        }
    }
    // Fall through: the shard senders drop here, which is the shards'
    // signal to drain and exit.
}

/// Publish the gauges that live in the engine and registry pools: evolve
/// pool depth and contained worker panics. Called just before a
/// `GET /metrics` is routed, so the document always reads fresh values.
fn publish_gauges(state: &AppState, engine: &EvolveEngine) {
    state.gauges.pool_depth.store(engine.depth(), Ordering::Relaxed);
    state.gauges.worker_panics.store(
        engine.worker_panics() + state.registry.worker_panics(),
        Ordering::Relaxed,
    );
}

fn is_metrics(request: &Request) -> bool {
    request.method == Method::Get && normalized(&request.path) == "/metrics"
}

/// Answer `503` inline on the accept thread when every shard queue is
/// full.
fn shed(state: &AppState, mut stream: TcpStream, config: &ServerConfig) {
    state.metrics.record_shed();
    state.metrics.record(503, Duration::ZERO);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let response = Response::error(503, "server is at capacity, retry later");
    let _ = response.write_to(&mut stream);
}

/// An `/evolve` computation a connection is parked on.
struct Waiting {
    flight: Arc<Flight<Response>>,
    /// Close the connection after this response.
    close: bool,
    /// Request arrival, for the latency histogram and the deadline.
    started: Instant,
    /// The request's end-to-end millisecond budget (`X-Deadline-Ms`,
    /// clamped, or the configured default). When it runs out the waiter
    /// detaches from the flight — which other waiters may still be parked
    /// on, and which the engine always completes — and answers `504`.
    budget_ms: u64,
}

/// One live connection owned by a shard.
struct Conn {
    stream: TcpStream,
    framer: FrameReader,
    /// Responses serialized and not yet fully written.
    out: Vec<u8>,
    /// Prefix of `out` already written to the socket.
    out_pos: usize,
    /// Responses completed on this connection (reuse = served > 1).
    served: u64,
    /// Last moment bytes moved in either direction.
    last_activity: Instant,
    /// Parked evolve computation, if any. While set, frame processing is
    /// paused so pipelined responses keep request order.
    waiting: Option<Waiting>,
    /// When the currently-arriving request's first bytes landed. Bounds
    /// the *total* time one frame may take to arrive: a drip-feeding peer
    /// resets `last_activity` (so `read_timeout` never trips) but not
    /// this, and is reaped with `408` once the default deadline budget
    /// elapses mid-frame.
    frame_started: Option<Instant>,
    /// Close once `out` is flushed (Connection: close, error, drain).
    close_after_flush: bool,
    /// Peer half-closed its write side (EOF on read).
    read_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Conn {
            stream,
            framer: FrameReader::new(),
            out: Vec::new(),
            out_pos: 0,
            served: 0,
            last_activity: now,
            waiting: None,
            frame_started: None,
            close_after_flush: false,
            read_closed: false,
        }
    }

    fn out_empty(&self) -> bool {
        self.out_pos >= self.out.len()
    }
}

fn shard_loop(rx: &Receiver<TcpStream>, ctx: &ShardCtx) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut poll_set: Vec<PollFd> = Vec::new();
    let mut disconnected = false;
    let mut drain_started: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let draining = disconnected || ctx.stop.load(Ordering::Acquire);
        if draining && drain_started.is_none() {
            drain_started = Some(now);
        }
        let force_close =
            drain_started.is_some_and(|t| now.duration_since(t) > DRAIN_DEADLINE);
        let mut progressed = false;

        // Admit new connections up to the per-shard cap.
        while !draining && conns.len() < ctx.config.max_conns_per_shard {
            match rx.try_recv() {
                Ok(stream) => {
                    ctx.state.gauges.connections.fetch_add(1, Ordering::Relaxed);
                    conns.push(Conn::new(stream, now));
                    progressed = true;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        if !disconnected {
            // Even while draining we must learn about the acceptor's exit.
            if let Err(TryRecvError::Disconnected) = rx.try_recv() {
                disconnected = true;
            }
        }

        conns.retain_mut(|conn| {
            let keep = !force_close && step_conn(conn, ctx, now, draining, &mut progressed);
            if !keep {
                ctx.state.gauges.connections.fetch_sub(1, Ordering::Relaxed);
                let _ = conn.stream.shutdown(Shutdown::Both);
                // The freed slot may admit a connection still queued
                // behind the per-shard cap.
                progressed = true;
            }
            keep
        });

        if draining && disconnected && conns.is_empty() {
            return;
        }
        if !progressed {
            wait_ready(&mut poll_set, &conns, ctx, drain_started);
        }
    }
}

/// Block until a connection in the poll set is ready, the shard's waker
/// rings, or the nearest timer runs out (module docs: interest rules and
/// the wake-up protocol).
fn wait_ready(
    poll_set: &mut Vec<PollFd>,
    conns: &[Conn],
    ctx: &ShardCtx,
    drain_started: Option<Instant>,
) {
    poll_set.clear();
    poll_set.push(ctx.waker.poll_fd());
    poll_set.extend(conns.iter().map(|conn| match interest(conn) {
        0 => PollFd::new(-1, 0), // poll(2) skips negative descriptors
        events => PollFd::new(conn.stream.as_raw_fd(), events),
    }));
    let timeout = next_wake(conns, Instant::now(), &ctx.config, drain_started);
    match readiness::wait(poll_set, timeout) {
        Ok(_) => {
            if poll_set.first().is_some_and(PollFd::readable) {
                ctx.waker.drain();
            }
        }
        Err(_) => std::thread::sleep(ERROR_BACKOFF),
    }
}

/// Whether the next pass reads this connection: [`step_conn`]'s read
/// gate and the `POLLIN` interest are one predicate, so a readable socket
/// in the poll set is always consumed (level-triggered `poll` would spin
/// on one that is not).
fn wants_read(conn: &Conn) -> bool {
    conn.waiting.is_none()
        && !conn.read_closed
        && !conn.close_after_flush
        && !conn.framer.is_failed()
        && conn.framer.buffered() < IN_HIGH_WATER
}

/// The connection's poll interest: `POLLIN` while [`wants_read`],
/// `POLLOUT` while output is pending.
fn interest(conn: &Conn) -> c_short {
    let mut events = 0;
    if wants_read(conn) {
        events |= POLLIN;
    }
    if !conn.out_empty() {
        events |= POLLOUT;
    }
    events
}

/// Time from `now` until the nearest timer of the shard fires, or `None`
/// when nothing is timed (no connections, not draining). Mirrors the
/// sweep in [`step_conn`]: a parked `/evolve` runs on its deadline budget
/// alone; otherwise pending output is bounded by the write timeout, a
/// partial frame by the read timeout and the mid-frame budget, and an
/// idle keep-alive connection by the idle timeout. A timer already due
/// yields `Duration::ZERO`.
fn next_wake(
    conns: &[Conn],
    now: Instant,
    config: &ServerConfig,
    drain_started: Option<Instant>,
) -> Option<Duration> {
    let drain = drain_started.and_then(|t| t.checked_add(DRAIN_DEADLINE));
    conns
        .iter()
        .filter_map(|conn| conn_timer(conn, config))
        .chain(drain)
        .min()
        .map(|at| at.saturating_duration_since(now))
}

/// The instant a connection's active timer fires (`None` if it never
/// can, e.g. a timeout too large to represent).
fn conn_timer(conn: &Conn, config: &ServerConfig) -> Option<Instant> {
    if let Some(waiting) = &conn.waiting {
        return waiting.started.checked_add(Duration::from_millis(waiting.budget_ms));
    }
    if !conn.out_empty() {
        return conn.last_activity.checked_add(config.write_timeout);
    }
    if conn.framer.mid_frame() {
        let quiet = conn.last_activity.checked_add(config.read_timeout);
        let budget = Duration::from_millis(config.deadline.default_ms);
        let frame = conn.frame_started.and_then(|t| t.checked_add(budget));
        return quiet.into_iter().chain(frame).min();
    }
    conn.last_activity.checked_add(config.idle_timeout)
}

/// Advance one connection through its state machine. Returns false when
/// the connection should be closed and dropped.
fn step_conn(
    conn: &mut Conn,
    ctx: &ShardCtx,
    now: Instant,
    draining: bool,
    progressed: &mut bool,
) -> bool {
    if !flush_out(conn, ctx, now, progressed) {
        return false;
    }
    if conn.close_after_flush && conn.out_empty() {
        return false;
    }

    // A finished evolve computation unparks the connection; an exhausted
    // deadline detaches from the flight (the engine still completes it
    // for any other waiters) and answers `504` echoing the budget.
    if let Some(waiting) = &conn.waiting {
        if let Some(response) = waiting.flight.try_get() {
            let close = waiting.close;
            let started = waiting.started;
            conn.waiting = None;
            finish_response(conn, ctx, &response, close, started);
            *progressed = true;
        } else {
            let elapsed = now.duration_since(waiting.started).as_millis().min(u128::from(u64::MAX)) as u64;
            if remaining_ms(waiting.budget_ms, elapsed).is_none() {
                let close = waiting.close;
                let started = waiting.started;
                let response = timeout_response(waiting.budget_ms);
                conn.waiting = None;
                ctx.state.metrics.record_deadline_expired();
                finish_response(conn, ctx, &response, close, started);
                *progressed = true;
            }
        }
    }

    if wants_read(conn) && !read_in(conn, ctx, now, progressed) {
        return false;
    }

    drain_frames(conn, ctx, progressed);

    // Track how long the currently-arriving frame has been incomplete.
    if conn.framer.mid_frame() && conn.waiting.is_none() {
        if conn.frame_started.is_none() {
            conn.frame_started = Some(now);
        }
    } else {
        conn.frame_started = None;
    }

    // Push freshly produced responses in the same tick instead of waiting
    // for the next loop iteration.
    if !flush_out(conn, ctx, now, progressed) {
        return false;
    }
    if conn.close_after_flush && conn.out_empty() {
        return false;
    }

    // With every received frame answered and nothing parked, a draining or
    // peer-closed connection is done.
    if conn.waiting.is_none() && conn.out_empty() && (draining || conn.read_closed) {
        return false;
    }

    // Timeout sweep. A connection parked on an evolve flight is active by
    // definition; the engine guarantees its flight completes.
    if conn.waiting.is_none() {
        let quiet = now.duration_since(conn.last_activity);
        if !conn.out_empty() {
            if quiet > ctx.config.write_timeout {
                return false; // stalled reader on the other end
            }
        } else if conn.framer.mid_frame() {
            // A frame may stall two ways: no bytes at all for
            // `read_timeout`, or a drip-feed that keeps resetting
            // `last_activity` but never completes within the default
            // deadline budget. Both get the blocking parser's `408`.
            let frame_age = conn
                .frame_started
                .map(|t| now.duration_since(t))
                .unwrap_or(Duration::ZERO);
            let budget = Duration::from_millis(ctx.config.deadline.default_ms);
            if quiet > ctx.config.read_timeout || frame_age > budget {
                let response = Response::error(408, "timed out reading request");
                ctx.state.metrics.record(408, Duration::ZERO);
                response.append_to(&mut conn.out, false);
                conn.close_after_flush = true;
            }
        } else if quiet > ctx.config.idle_timeout {
            return false; // quiet keep-alive connection, close silently
        }
    }
    true
}

/// Consult the `conn.read`/`conn.write` fault hook. Returns the number of
/// bytes a short write may move this round (`usize::MAX` = no limit), or
/// `None` when the injected action is fatal to the connection.
fn conn_fault(faults: &Faults, point: &str) -> Option<usize> {
    match faults.fire(point) {
        None => Some(usize::MAX),
        Some(FaultAction::DelayMs(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Some(usize::MAX)
        }
        // A short write moves one byte this round; the resume path (and
        // the peer's reassembly) must still produce byte-identical
        // responses. On the read side a short window is just a small read.
        Some(FaultAction::ShortWrite) => Some(1),
        // Fail/Panic at the socket layer = the transport died; the
        // connection closes exactly as it would on a peer reset. (Panics
        // must not unwind a shard, so both map to the error path.)
        Some(FaultAction::Fail) | Some(FaultAction::Panic) => None,
    }
}

/// Write as much pending output as the socket accepts. Returns false on a
/// fatal write error.
fn flush_out(conn: &mut Conn, ctx: &ShardCtx, now: Instant, progressed: &mut bool) -> bool {
    // Consult the write hook once per flush that has bytes to move (idle
    // ticks must not inflate occurrence counts).
    let mut limit = usize::MAX;
    if conn.out_pos < conn.out.len() {
        limit = match conn_fault(&ctx.state.faults, "conn.write") {
            Some(limit) => limit,
            None => return false,
        };
    }
    while conn.out_pos < conn.out.len() {
        if limit == 0 {
            break; // short-write budget spent; resume next tick
        }
        let end = conn.out.len().min(conn.out_pos.saturating_add(limit));
        let chunk = conn.out.get(conn.out_pos..end).unwrap_or_default();
        match conn.stream.write(chunk) {
            Ok(0) => return false,
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = now;
                limit = limit.saturating_sub(n);
                *progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.out_pos >= conn.out.len() && !conn.out.is_empty() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    true
}

/// Read whatever the socket has into the framer. Returns false on a fatal
/// read error.
fn read_in(conn: &mut Conn, ctx: &ShardCtx, now: Instant, progressed: &mut bool) -> bool {
    let mut chunk = [0u8; 4096];
    let mut consulted = false;
    loop {
        if conn.framer.buffered() >= IN_HIGH_WATER {
            return true;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                return true;
            }
            Ok(n) => {
                // Consult the read hook once per burst of actual inbound
                // data (idle ticks must not inflate occurrence counts).
                // Fail/Panic kill the transport; a delay stalls it; a
                // short-write has no lossless read analogue (feeding a
                // prefix would corrupt the stream), so it reads normally.
                if !consulted {
                    consulted = true;
                    if conn_fault(&ctx.state.faults, "conn.read").is_none() {
                        return false;
                    }
                }
                conn.framer.feed(chunk.get(..n).unwrap_or_default());
                conn.last_activity = now;
                *progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Answer every complete frame buffered on the connection, stopping at a
/// parked evolve computation (response order!), a close, or the write
/// high-water mark.
fn drain_frames(conn: &mut Conn, ctx: &ShardCtx, progressed: &mut bool) {
    while conn.waiting.is_none()
        && !conn.close_after_flush
        && conn.out.len().saturating_sub(conn.out_pos) < OUT_HIGH_WATER
    {
        match conn.framer.next_frame() {
            Frame::NeedMore => break,
            Frame::Malformed(error) => {
                // 400 (or 431/...) then close: the stream has no
                // recoverable request boundary anymore.
                let response = Response::from(&error);
                ctx.state.metrics.record(response.status, Duration::ZERO);
                response.append_to(&mut conn.out, false);
                conn.served += 1;
                conn.close_after_flush = true;
                *progressed = true;
            }
            Frame::Request(framed) => {
                *progressed = true;
                let started = Instant::now();
                // Note: draining does NOT force `close` — every frame the
                // client already pipelined must still be answered; the
                // shard closes the connection once no frames remain
                // (step_conn's draining check).
                let close = framed.close || !ctx.config.keep_alive;
                if is_metrics(&framed.request) {
                    publish_gauges(&ctx.state, &ctx.engine);
                }
                match route_conn(&ctx.state, &framed.request) {
                    Routed::Ready(response) => {
                        finish_response(conn, ctx, &response, close, started);
                    }
                    Routed::Evolve(task) => {
                        let budget = budget_ms(
                            framed.request.header("x-deadline-ms"),
                            &ctx.state.deadline,
                        );
                        match ctx.engine.submit(task, &ctx.waker) {
                            Submitted::Ready(response) => {
                                finish_response(conn, ctx, &response, close, started);
                            }
                            Submitted::Wait(flight) => {
                                conn.waiting =
                                    Some(Waiting { flight, close, started, budget_ms: budget });
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Serialize a finished response onto the connection's write buffer and
/// record its metrics.
fn finish_response(
    conn: &mut Conn,
    ctx: &ShardCtx,
    response: &Response,
    close: bool,
    started: Instant,
) {
    ctx.state.metrics.record(response.status, started.elapsed());
    if conn.served > 0 {
        ctx.state.metrics.record_keepalive_reuse();
    }
    response.append_to(&mut conn.out, !close);
    conn.served += 1;
    if close {
        conn.close_after_flush = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One accepted loopback socket wrapped as a shard connection; the
    /// client end is returned so the socket stays open.
    fn conn(now: Instant) -> (Conn, TcpStream) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (Conn::new(server, now), client)
    }

    fn config() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(7),
            idle_timeout: Duration::from_secs(30),
            deadline: DeadlineConfig { default_ms: 2_000, max_ms: 600_000 },
            ..ServerConfig::default()
        }
    }

    fn wake(conns: &[Conn], now: Instant, drain_started: Option<Instant>) -> Option<Duration> {
        next_wake(conns, now, &config(), drain_started)
    }

    #[test]
    fn nothing_pending_means_no_timeout() {
        assert_eq!(wake(&[], Instant::now(), None), None);
    }

    #[test]
    fn an_idle_keep_alive_connection_wakes_at_the_idle_timeout() {
        let now = Instant::now();
        let (idle, _peer) = conn(now);
        assert_eq!(interest(&idle), POLLIN);
        assert_eq!(wake(&[idle], now, None), Some(Duration::from_secs(30)));
    }

    #[test]
    fn pending_output_wakes_at_the_write_timeout() {
        let now = Instant::now();
        let (mut writing, _peer) = conn(now);
        writing.out.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
        assert_eq!(interest(&writing), POLLIN | POLLOUT);
        assert_eq!(wake(&[writing], now, None), Some(Duration::from_secs(7)));
    }

    #[test]
    fn a_stalled_partial_frame_wakes_at_the_read_timeout() {
        let now = Instant::now();
        let (mut partial, _peer) = conn(now);
        partial.framer.feed(b"GET /table1 HT");
        partial.frame_started = Some(now);
        // With a frame budget longer than the read timeout, silence wins.
        let config = ServerConfig {
            deadline: DeadlineConfig { default_ms: 10_000, max_ms: 600_000 },
            ..config()
        };
        assert_eq!(next_wake(&[partial], now, &config, None), Some(Duration::from_secs(5)));
    }

    #[test]
    fn a_drip_fed_frame_wakes_at_the_mid_frame_budget() {
        let start = Instant::now();
        let (mut partial, _peer) = conn(start);
        partial.framer.feed(b"GET /table1 HT");
        partial.frame_started = Some(start);
        // Bytes keep arriving (activity 1.5 s in), so the read timeout is
        // 6.5 s out; the 2 s frame budget comes first.
        partial.last_activity = start + Duration::from_millis(1_500);
        let now = start + Duration::from_millis(1_600);
        assert_eq!(wake(&[partial], now, None), Some(Duration::from_millis(400)));
    }

    #[test]
    fn a_parked_evolve_wakes_at_its_deadline_budget_only() {
        let start = Instant::now();
        let (mut parked, _peer) = conn(start);
        parked.out.extend_from_slice(b"earlier response");
        parked.waiting = Some(Waiting {
            flight: Arc::new(Flight::new()),
            close: false,
            started: start,
            budget_ms: 60_000,
        });
        // No read interest while parked (responses must keep order) and
        // the write timeout is suspended; output still asks for POLLOUT.
        assert_eq!(interest(&parked), POLLOUT);
        let now = start + Duration::from_secs(10);
        assert_eq!(wake(&[parked], now, None), Some(Duration::from_secs(50)));
    }

    #[test]
    fn draining_wakes_at_the_drain_deadline() {
        let start = Instant::now();
        let now = start + Duration::from_secs(12);
        assert_eq!(wake(&[], now, Some(start)), Some(DRAIN_DEADLINE - Duration::from_secs(12)));
    }

    #[test]
    fn the_nearest_timer_wins_and_an_overdue_one_is_zero() {
        let start = Instant::now();
        let (idle, _a) = conn(start);
        let (mut writing, _b) = conn(start);
        writing.out.push(b'x');
        let now = start + Duration::from_secs(8);
        assert_eq!(wake(&[idle, writing], now, Some(start)), Some(Duration::ZERO));
    }

    #[test]
    fn a_closing_or_failed_connection_asks_for_no_input() {
        let now = Instant::now();
        let (mut closing, _a) = conn(now);
        closing.close_after_flush = true;
        assert_eq!(interest(&closing), 0);
        let (mut half_closed, _b) = conn(now);
        half_closed.read_closed = true;
        assert_eq!(interest(&half_closed), 0);
        let (mut full, _c) = conn(now);
        full.framer.feed(&vec![b'x'; IN_HIGH_WATER]);
        assert!(!wants_read(&full));
    }
}
