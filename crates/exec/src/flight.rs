//! A one-shot waiter/notify cell for single-flight request coalescing.
//!
//! The serving layer's `/evolve` endpoint is deterministic: two identical
//! in-flight requests would compute byte-identical responses, so the
//! second one is pure duplicated work. Single-flight coalescing keys every
//! in-flight computation and lets later arrivals *attach* to the first
//! one instead of recomputing. [`Flight`] is the synchronization cell that
//! makes the fan-out safe:
//!
//! * the **leader** runs the computation and calls [`Flight::complete`]
//!   exactly once (later completions are ignored — first write wins, so a
//!   racing duplicate completion cannot change what waiters observe);
//! * **waiters** either block ([`Flight::wait_timeout`]) or poll
//!   ([`Flight::try_get`]) — the polling form is what a non-blocking
//!   connection shard needs: it must keep serving its other connections
//!   while one of them waits for a result. A polling waiter registers its
//!   thread's [`Waker`] with [`Flight::wake_on_complete`] so it can sleep
//!   in [`readiness::wait`](crate::readiness::wait) instead of re-polling
//!   on a timer: the completion wakes every registered waker once.
//!
//! The value is `Clone` because one result fans out to every waiter. In
//! the serving layer the payload is an `Arc`-bodied response, so a clone
//! is a pointer bump, not a body copy.

use std::sync::Condvar;
use std::time::Duration;

use crate::lockorder::{self, OrderedMutex};
use crate::readiness::Waker;

/// A write-once cell: one completion, any number of waiters.
///
/// See the [module docs](self). All methods are safe to call from any
/// thread; poisoning is tolerated (the [`OrderedMutex`] heals it and
/// counts the recovery — waiters must never deadlock because some
/// unrelated holder panicked), and every acquisition is checked against
/// the declared lock order in debug builds.
#[derive(Debug)]
pub struct Flight<T> {
    slot: OrderedMutex<Slot<T>>,
    ready: Condvar,
}

/// The published value and, until it exists, the wakers to ring when it
/// does. One lock covers both, so a registration either sees the value or
/// is rung by the completion — never neither.
#[derive(Debug)]
struct Slot<T> {
    value: Option<T>,
    wakers: Vec<Waker>,
}

impl<T> Default for Flight<T> {
    fn default() -> Self {
        Flight {
            slot: OrderedMutex::new(
                lockorder::EXEC_FLIGHT_SLOT,
                Slot { value: None, wakers: Vec::new() },
            ),
            ready: Condvar::new(),
        }
    }
}

impl<T: Clone> Flight<T> {
    /// An empty flight with no value yet.
    pub fn new() -> Self {
        Flight::default()
    }

    /// Publish the result and wake every waiter: blocked ones through the
    /// condvar, polling ones through their registered [`Waker`]s (rung
    /// after the lock is released).
    ///
    /// The first completion wins; later calls are ignored, so a duplicate
    /// completion (e.g. a shed path racing the computation) cannot swap
    /// the value out from under a waiter that already observed it.
    pub fn complete(&self, value: T) {
        let mut slot = self.slot.lock();
        if slot.value.is_none() {
            slot.value = Some(value);
        }
        let wakers = std::mem::take(&mut slot.wakers);
        drop(slot);
        self.ready.notify_all();
        for waker in wakers {
            waker.wake();
        }
    }

    /// Ring `waker` when the value is published. Registers nothing when it
    /// already is: the caller's next [`Flight::try_get`] sees it.
    /// Registering the same waker twice is a no-op.
    pub fn wake_on_complete(&self, waker: &Waker) {
        let mut slot = self.slot.lock();
        if slot.value.is_none() && !slot.wakers.iter().any(|w| w.same(waker)) {
            slot.wakers.push(waker.clone());
        }
    }

    /// Non-blocking poll: the published value, if any.
    pub fn try_get(&self) -> Option<T> {
        self.slot.lock().value.clone()
    }

    /// Block until the value is published or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<T> {
        let guard = self.slot.lock();
        let (guard, _timed_out) =
            guard.wait_timeout_while(&self.ready, timeout, |slot| slot.value.is_none());
        guard.value.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_get_sees_a_completion() {
        let flight = Flight::new();
        assert_eq!(flight.try_get(), None);
        flight.complete(7u32);
        assert_eq!(flight.try_get(), Some(7));
    }

    #[test]
    fn first_completion_wins() {
        let flight = Flight::new();
        flight.complete("first".to_string());
        flight.complete("second".to_string());
        assert_eq!(flight.try_get().as_deref(), Some("first"));
    }

    #[test]
    fn wait_timeout_returns_none_without_a_value() {
        let flight: Flight<u32> = Flight::new();
        assert_eq!(flight.wait_timeout(Duration::from_millis(20)), None);
    }

    #[test]
    fn waiters_across_threads_all_observe_the_value() {
        let flight = Arc::new(Flight::new());
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let flight = Arc::clone(&flight);
                std::thread::spawn(move || flight.wait_timeout(Duration::from_secs(10)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        flight.complete(42u64);
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Some(42));
        }
    }

    #[test]
    fn completion_rings_each_registered_waker_once() {
        use crate::readiness::{wait, Waker};
        let flight = Flight::new();
        let (a, b) = (Waker::new().unwrap(), Waker::new().unwrap());
        flight.wake_on_complete(&a);
        flight.wake_on_complete(&a.clone());
        flight.wake_on_complete(&b);
        let mut set = [a.poll_fd(), b.poll_fd()];
        assert_eq!(wait(&mut set, Some(Duration::ZERO)).unwrap(), 0);
        flight.complete(5u8);
        assert_eq!(wait(&mut set, Some(Duration::ZERO)).unwrap(), 2);
        // Completion rang each waker; draining clears it.
        a.drain();
        let mut set = [a.poll_fd()];
        assert_eq!(wait(&mut set, Some(Duration::ZERO)).unwrap(), 0);
        // Too late to register: nothing rings, the value is there to read.
        flight.wake_on_complete(&a);
        assert_eq!(wait(&mut set, Some(Duration::ZERO)).unwrap(), 0);
        assert_eq!(flight.try_get(), Some(5));
    }

    #[test]
    fn complete_after_wait_timeout_is_still_visible() {
        let flight = Flight::new();
        assert_eq!(flight.wait_timeout(Duration::from_millis(5)), None);
        flight.complete(1u8);
        assert_eq!(flight.wait_timeout(Duration::from_millis(5)), Some(1));
    }
}
