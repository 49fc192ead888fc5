//! Admission control: the permit pool that decides whether a query may
//! run now, and a bounded MPMC queue.
//!
//! `Permits` is the server's admission rule: at most `capacity` queries
//! in flight, and an arrival that finds every permit held is refused
//! immediately with `Overloaded`, which the connection handler turns
//! into a typed `Overloaded` response. Rejecting at the door keeps tail
//! latency bounded — a request that would wait longer than its deadline is
//! refused in microseconds instead of timing out — and puts the
//! backpressure where the client can see it. An admitted query runs to
//! completion on the connection thread that read it, so there is nothing
//! to wait in and no hand-off between threads.
//!
//! [`BoundedQueue`] is a bounded queue with non-blocking producers and
//! blocking consumers. The server does not use it; it stays exported while
//! `benchmark/`'s server probe times its hand-off.
//! [`close`](BoundedQueue::close) refuses producers with
//! [`PushError::Closed`]; consumers keep popping until the queue is
//! empty, then [`pop`](BoundedQueue::pop) returns `None`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Why [`Permits::try_acquire`] refused: every permit is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Overloaded;

/// A counting permit pool: at most `capacity` queries hold a permit at
/// once. Acquiring never blocks.
pub(crate) struct Permits {
    held: AtomicUsize,
    capacity: usize,
}

/// One query's admission; dropping it returns the permit, on every path
/// out of the query (a panic included).
pub(crate) struct Permit<'a>(&'a Permits);

impl Permits {
    /// A pool of `capacity` permits.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            held: AtomicUsize::new(0),
            capacity,
        }
    }

    /// The pool size.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Permits currently held: the queries in flight.
    pub(crate) fn held(&self) -> usize {
        self.held.load(Ordering::SeqCst)
    }

    /// Takes a permit, or refuses at once when all are held.
    pub(crate) fn try_acquire(&self) -> Result<Permit<'_>, Overloaded> {
        self.held
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |held| {
                (held < self.capacity).then_some(held + 1)
            })
            .map(|_| Permit(self))
            .map_err(|_| Overloaded)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.held.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back for a typed
    /// overload reply.
    Full(T),
    /// The queue is closed (server draining); the item is handed back.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking bounded queue: non-blocking producers (reject, never wait),
/// blocking consumers.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` waiting items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a zero-depth queue would shed every
    /// request and serve nothing.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The high-water mark.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// `true` when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item`, or refuses immediately — this method never blocks,
    /// which is the point: admission is a constant-time decision, not a
    /// second queue.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the oldest waiting item, blocking while the queue is empty
    /// and open. Returns `None` once the queue is closed *and* drained —
    /// the worker-exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    /// Closes the queue: producers are refused from now on, consumers
    /// drain what is already queued, then unblock.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn permits_refuse_past_capacity_and_return_on_drop() {
        let permits = Permits::new(2);
        let a = permits.try_acquire().unwrap();
        let b = permits.try_acquire().unwrap();
        assert_eq!(permits.try_acquire().err(), Some(Overloaded));
        assert_eq!(permits.held(), 2);
        drop(a);
        let c = permits.try_acquire().unwrap();
        assert_eq!(permits.try_acquire().err(), Some(Overloaded));
        drop((b, c));
        assert_eq!(permits.held(), 0);
        assert!(Permits::new(0).try_acquire().is_err());
    }

    #[test]
    fn rejects_above_capacity_and_recovers() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(4).is_ok());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_unblocks() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed("c")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.try_push(7).unwrap();
        q.close();
        let got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got.iter().filter(|g| g.is_some()).count(), 1);
        assert_eq!(got.iter().filter(|g| g.is_none()).count(), 2);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(BoundedQueue::<usize>::new(8));
        let accepted = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let consumed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let q = Arc::clone(&q);
                let accepted = Arc::clone(&accepted);
                scope.spawn(move || {
                    for i in 0..100 {
                        if q.try_push(t * 100 + i).is_ok() {
                            accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
            for _ in 0..2 {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                scope.spawn(move || {
                    while q.pop().is_some() {
                        consumed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            // Give producers time to finish, then drain.
            std::thread::sleep(std::time::Duration::from_millis(50));
            q.close();
        });
        assert_eq!(
            accepted.load(std::sync::atomic::Ordering::Relaxed),
            consumed.load(std::sync::atomic::Ordering::Relaxed)
        );
    }
}
