//! Readiness waits for the serving event loops: `poll(2)` plus a
//! cross-thread [`Waker`].
//!
//! A connection shard owns non-blocking sockets. When a pass over them
//! moves no bytes it must wait for the next thing that can change its
//! state: a socket turning readable or writable, another thread handing
//! it work (a new connection, a finished `/evolve` flight, shutdown), or a
//! timer running out. [`wait`] blocks on exactly that set: the sockets'
//! file descriptors and one [`Waker`] per waiting thread, with the nearest
//! timer as the timeout.
//!
//! This module is the workspace's only `unsafe` code, and the `unsafe` is
//! one foreign call: `poll(2)` over a `#[repr(C)]` array the caller owns
//! as a `&mut` slice. Everything else is `std`: the [`Waker`] is a
//! non-blocking [`UnixStream`] pair whose read end sits in the poll set.
//! `cuisine-lint` rule `U1` rejects `unsafe` anywhere else in the tree.
//!
//! Passing a file descriptor that is closed is memory-safe: `poll` flags
//! the entry `POLLNVAL`, and the caller's next read or write on the
//! socket surfaces the real error. A negative descriptor is skipped.

use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Interest / readiness bit: data to read (or EOF, or a pending accept).
pub const POLLIN: c_short = 0x001;
/// Interest / readiness bit: room to write.
pub const POLLOUT: c_short = 0x004;
/// Readiness bit: error condition on the descriptor.
pub const POLLERR: c_short = 0x008;
/// Readiness bit: the peer hung up.
pub const POLLHUP: c_short = 0x010;

/// `nfds_t` of the platform's `poll(2)`.
#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// One entry of a poll set: `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events` (a union of [`POLLIN`] and [`POLLOUT`]). An
    /// entry with no events still reports [`POLLHUP`]/[`POLLERR`]; one
    /// with a negative `fd` is ignored.
    pub fn new(fd: RawFd, events: c_short) -> Self {
        PollFd { fd, events, revents: 0 }
    }

    /// Whether the last [`wait`] reported this entry readable (hang-ups
    /// and errors count: the next read returns them).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }
}

/// Block until at least one entry of `fds` is ready or `timeout` elapses
/// (`None` = no timeout). Returns the number of ready entries (0 on
/// timeout) and leaves each entry's readiness for [`PollFd::readable`].
///
/// Timeouts round up to whole milliseconds, so the call never returns
/// early unless something is ready. A signal interrupting the wait
/// (`EINTR`) restarts it with the full timeout: the shim reads no clock,
/// and its callers recompute their timers on every pass anyway.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let nfds = Nfds::try_from(fds.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "poll set too large"))?;
    let timeout_ms = timeout.map_or(-1, ceil_ms);
    loop {
        for entry in fds.iter_mut() {
            entry.revents = 0;
        }
        // SAFETY: `fds` is an exclusively borrowed, initialised slice of
        // `#[repr(C)]` `struct pollfd` values and `nfds` is its exact
        // length, so the kernel reads and writes only memory we own for
        // the duration of the call. `poll` keeps no pointer past return.
        let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
        if ready >= 0 {
            return Ok(usize::try_from(ready).unwrap_or(0));
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

/// Milliseconds for `poll`'s timeout argument: rounded up, clamped to
/// `c_int`.
fn ceil_ms(timeout: Duration) -> c_int {
    let ms = timeout.as_nanos().div_ceil(1_000_000);
    c_int::try_from(ms).unwrap_or(c_int::MAX)
}

/// A cross-thread wake-up for a thread blocked in [`wait`].
///
/// The waiting thread puts [`Waker::poll_fd`] into its poll set; any
/// thread calls [`Waker::wake`] to make that entry readable. The waiting
/// thread calls [`Waker::drain`] once the entry reports readable, *before*
/// it re-checks the shared state the wake announces. A wake that lands
/// after the drain leaves a byte behind, so the next [`wait`] returns at
/// once: no wake-up is lost as long as wakers publish their state change
/// before calling [`Waker::wake`].
///
/// Clones share one pair, so a waker can be handed to any number of
/// producers.
#[derive(Debug, Clone)]
pub struct Waker {
    pair: Arc<(UnixStream, UnixStream)>,
}

impl Waker {
    /// A fresh waker (a non-blocking socket pair).
    pub fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { pair: Arc::new((rx, tx)) })
    }

    /// Make the waiting thread's [`wait`] return. Never blocks: when the
    /// pair's buffer is full a wake is already pending, and that is enough.
    pub fn wake(&self) {
        // Errors other than a full buffer cannot happen while both ends
        // are owned by this pair; none is actionable for a producer.
        let _ = (&self.pair.1).write(&[1]);
    }

    /// Consume every pending wake.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while let Ok(n) = (&self.pair.0).read(&mut sink) {
            if n < sink.len() {
                break;
            }
        }
    }

    /// The poll-set entry that turns readable on [`Waker::wake`].
    pub fn poll_fd(&self) -> PollFd {
        PollFd::new(self.pair.0.as_raw_fd(), POLLIN)
    }

    /// Whether two handles are clones of the same waker.
    pub fn same(&self, other: &Waker) -> bool {
        Arc::ptr_eq(&self.pair, &other.pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn ready_now(entry: PollFd) -> bool {
        let mut set = [entry];
        wait(&mut set, Some(Duration::ZERO)).unwrap() == 1 && set[0].readable()
    }

    #[test]
    fn waker_is_readable_after_wake_and_not_after_drain() {
        let waker = Waker::new().unwrap();
        assert!(!ready_now(waker.poll_fd()));
        waker.clone().wake();
        waker.wake();
        assert!(ready_now(waker.poll_fd()));
        waker.drain();
        assert!(!ready_now(waker.poll_fd()));
    }

    #[test]
    fn wake_from_another_thread_ends_an_unbounded_wait() {
        let waker = Waker::new().unwrap();
        let remote = waker.clone();
        let started = Instant::now();
        let handle = crate::spawn_service("waker-test", move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
        })
        .unwrap();
        let mut set = [waker.poll_fd()];
        assert_eq!(wait(&mut set, None).unwrap(), 1);
        assert!(started.elapsed() >= Duration::from_millis(20));
        handle.join().unwrap();
    }

    #[test]
    fn a_full_waker_does_not_block_the_producer() {
        let waker = Waker::new().unwrap();
        for _ in 0..100_000 {
            waker.wake();
        }
        assert!(ready_now(waker.poll_fd()));
        waker.drain();
        assert!(!ready_now(waker.poll_fd()));
    }

    #[test]
    fn empty_wait_returns_zero_at_the_timeout() {
        let started = Instant::now();
        assert_eq!(wait(&mut [], Some(Duration::from_millis(15))).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_millis(15));
        let waker = Waker::new().unwrap();
        let mut set = [waker.poll_fd()];
        assert_eq!(wait(&mut set, Some(Duration::from_millis(5))).unwrap(), 0);
        assert_eq!(set[0].revents, 0);
    }

    #[test]
    fn a_connection_reports_readable_once_the_peer_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let idle = PollFd::new(server.as_raw_fd(), POLLIN);
        assert!(!ready_now(idle));
        let writable = PollFd::new(server.as_raw_fd(), POLLOUT);
        let mut set = [writable];
        assert_eq!(wait(&mut set, Some(Duration::ZERO)).unwrap(), 1);
        assert_ne!(set[0].revents & POLLOUT, 0);
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut set = [idle];
        assert_eq!(wait(&mut set, Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(set[0].readable());
    }

    #[test]
    fn timeouts_round_up_to_whole_milliseconds() {
        assert_eq!(ceil_ms(Duration::ZERO), 0);
        assert_eq!(ceil_ms(Duration::from_nanos(1)), 1);
        assert_eq!(ceil_ms(Duration::from_micros(1500)), 2);
        assert_eq!(ceil_ms(Duration::from_millis(7)), 7);
        assert_eq!(ceil_ms(Duration::from_secs(u64::MAX)), c_int::MAX);
    }
}
