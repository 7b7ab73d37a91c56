//! A bounded blocking MPMC queue with per-client fair-queuing lanes.
//!
//! The daemon's connection threads are the producers (one push per
//! localize/batch/revise request) and the fixed worker pool is the consumer
//! side. The queue is **bounded**: when a lane is at its fair share (or the
//! queue is at total capacity), [`JobQueue::push`] blocks the connection
//! thread, which in turn stops reading from its socket — backpressure
//! propagates to the client through TCP instead of letting an aggressive
//! load spike buffer unbounded work in memory.
//!
//! # Fair queuing
//!
//! Items are tagged with a *lane* (the requesting `client_id`; unidentified
//! traffic shares the lane named `""`). Consumers drain lanes **round-robin**:
//! a cursor walks the active lanes and takes one item per lane per pass. A
//! lane that drains empty leaves the schedule.
//!
//! Admission is fair-share bounded: with `n` active lanes each lane may
//! hold at most `max(1, capacity / n)` items. A single greedy client
//! therefore saturates only *its own* lane — its excess traffic blocks or
//! sheds — while polite clients' lanes stay shallow and keep their latency.
//! With one lane the share equals the whole capacity.
//!
//! Shutdown is cooperative: [`JobQueue::close`] wakes every blocked thread;
//! producers get [`PushError`], consumers drain the remaining items across
//! all lanes (still in round-robin order) and then receive `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Error returned by [`JobQueue::push`] once the queue is closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushError;

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job queue is closed")
    }
}

impl std::error::Error for PushError {}

/// Error returned by [`JobQueue::try_push`], carrying the rejected item
/// back so the caller can answer its client instead of dropping it.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The lane (or the whole queue) was at capacity; admission control
    /// should shed the job.
    Full(T),
    /// The queue was closed; the daemon is shutting down.
    Closed(T),
}

#[derive(Debug)]
struct Lane<T> {
    id: String,
    items: VecDeque<T>,
}

#[derive(Debug)]
struct QueueState<T> {
    /// Active (non-empty) lanes, in creation order. Invariant: every lane
    /// in this vector holds at least one item — a lane that drains is
    /// removed on the spot, so `lanes.len()` *is* the active-lane count.
    lanes: Vec<Lane<T>>,
    /// Round-robin cursor: index of the lane the next pop visits.
    cursor: usize,
    /// Total items across all lanes.
    total: usize,
    closed: bool,
    /// Total number of items ever accepted (for the stats endpoint).
    enqueued: u64,
}

impl<T> QueueState<T> {
    fn lane_index(&self, lane: &str) -> Option<usize> {
        self.lanes.iter().position(|l| l.id == lane)
    }

    /// Fair-share bound for `lane`, counting it as active even if it has
    /// no items yet (a first push must not see an inflated share).
    fn fair_share(&self, lane: &str, capacity: usize) -> usize {
        let active = self.lanes.len() + usize::from(self.lane_index(lane).is_none());
        (capacity / active.max(1)).max(1)
    }

    fn lane_depth(&self, lane: &str) -> usize {
        self.lane_index(lane)
            .map_or(0, |i| self.lanes[i].items.len())
    }

    /// `true` while `lane` may not accept another item.
    fn lane_full(&self, lane: &str, capacity: usize) -> bool {
        self.total >= capacity || self.lane_depth(lane) >= self.fair_share(lane, capacity)
    }

    fn accept(&mut self, lane: &str, item: T) {
        match self.lane_index(lane) {
            Some(i) => self.lanes[i].items.push_back(item),
            None => self.lanes.push(Lane {
                id: lane.to_string(),
                items: VecDeque::from([item]),
            }),
        }
        self.total += 1;
        self.enqueued += 1;
    }
}

/// A bounded blocking multi-producer multi-consumer queue with per-lane
/// round-robin scheduling (see the module docs).
#[derive(Debug)]
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: Vec::new(),
                cursor: 0,
                total: 0,
                closed: false,
                enqueued: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The maximum number of waiting items across all lanes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently waiting, summed over lanes.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").total
    }

    /// Number of items waiting in one lane.
    pub fn lane_depth(&self, lane: &str) -> usize {
        self.state.lock().expect("queue poisoned").lane_depth(lane)
    }

    /// Number of lanes that currently hold at least one item.
    pub fn active_lanes(&self) -> usize {
        self.state.lock().expect("queue poisoned").lanes.len()
    }

    /// Depth of the deepest lane (0 when idle) — the fairness headline:
    /// under a single-client flood this approaches the flooder's fair
    /// share, not the whole capacity.
    pub fn max_lane_depth(&self) -> usize {
        let state = self.state.lock().expect("queue poisoned");
        state.lanes.iter().map(|l| l.items.len()).max().unwrap_or(0)
    }

    /// Current fair-share bound per lane: `max(1, capacity / active_lanes)`.
    pub fn fair_share(&self) -> usize {
        let state = self.state.lock().expect("queue poisoned");
        (self.capacity / state.lanes.len().max(1)).max(1)
    }

    /// Total number of items ever accepted.
    pub fn enqueued(&self) -> u64 {
        self.state.lock().expect("queue poisoned").enqueued
    }

    /// Enqueues an item on `lane`, blocking while the lane is at its fair
    /// share or the queue at total capacity (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] (with the item lost) if the queue was closed
    /// before space became available.
    pub fn push(&self, lane: &str, item: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        while state.lane_full(lane, self.capacity) && !state.closed {
            state = self.not_full.wait(state).expect("queue poisoned");
        }
        if state.closed {
            return Err(PushError);
        }
        state.accept(lane, item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues on `lane` **without blocking**: a full lane is an
    /// immediate [`TryPushError::Full`] instead of backpressure.
    /// Deadline-carrying jobs go through this path — blocking a connection
    /// thread on a saturated queue could hold the job past its own
    /// deadline, so the daemon sheds it (an `overloaded` error) and lets
    /// the client retry. Fair-share shedding is what isolates tenants: the
    /// reject fires when *this lane* is over its share, so a greedy client
    /// is shed while polite lanes keep accepting.
    ///
    /// # Errors
    ///
    /// Returns the item back inside [`TryPushError`].
    pub fn try_push(&self, lane: &str, item: T) -> Result<(), TryPushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.lane_full(lane, self.capacity) {
            return Err(TryPushError::Full(item));
        }
        state.accept(lane, item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next item in round-robin order, blocking while
    /// the queue is empty. Returns `None` only once the queue is closed
    /// **and** fully drained (across every lane), so no accepted job is
    /// ever dropped during a graceful shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if state.total > 0 {
                // Every lane in the vector is non-empty, so the cursor's
                // lane is always servable: take one item.
                let i = state.cursor % state.lanes.len();
                let lane = &mut state.lanes[i];
                let item = lane.items.pop_front().expect("active lane non-empty");
                if lane.items.is_empty() {
                    // The drained lane leaves the schedule. The cursor stays
                    // put — the removal shifts the next lane into this slot.
                    state.lanes.remove(i);
                    if state.lanes.is_empty() {
                        state.cursor = 0;
                    } else {
                        state.cursor = i % state.lanes.len();
                    }
                } else {
                    state.cursor = (i + 1) % state.lanes.len();
                }
                state.total -= 1;
                drop(state);
                // Freed space may unblock pushers on several different
                // lanes (a drained lane raises every other lane's fair
                // share), so the single-waiter wake-up is not enough.
                self.not_full.notify_all();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Closes the queue: producers start failing, consumers drain and exit.
    /// Idempotent.
    ///
    /// Shutdown-under-backpressure invariant (regression-pinned by
    /// `closing_a_saturated_queue_unblocks_every_pusher`): the wake-up must
    /// cover **both** condvars. Producers blocked on a *full* lane wait on
    /// `not_full`; if close only notified `not_empty`, those connection
    /// threads would sleep forever — no consumer ever pops once the workers
    /// start exiting, so nothing else would wake them and shutdown would
    /// deadlock. The `closed` flag is written under the state lock *before*
    /// either notification, so a producer that re-checks its predicate
    /// after waking (or that is just arriving) always observes it.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// `true` once [`JobQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue poisoned").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_within_capacity() {
        let queue = JobQueue::new(4);
        for i in 0..4 {
            queue.push("", i).unwrap();
        }
        assert_eq!(queue.depth(), 4);
        assert_eq!(queue.enqueued(), 4);
        for i in 0..4 {
            assert_eq!(queue.pop(), Some(i));
        }
    }

    #[test]
    fn push_blocks_until_a_slot_frees() {
        let queue = Arc::new(JobQueue::new(1));
        queue.push("", 0u64).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push("", 1).unwrap())
        };
        // The producer is blocked on the full queue; popping unblocks it.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.depth(), 1, "second push must be waiting");
        assert_eq!(queue.pop(), Some(0));
        producer.join().unwrap();
        assert_eq!(queue.pop(), Some(1));
    }

    #[test]
    fn close_wakes_producers_and_drains_consumers() {
        let queue = Arc::new(JobQueue::new(1));
        queue.push("", 7u64).unwrap();
        let blocked_producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push("", 8))
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(blocked_producer.join().unwrap(), Err(PushError));
        assert_eq!(queue.push("", 9), Err(PushError));
        // The item accepted before the close is still delivered.
        assert_eq!(queue.pop(), Some(7));
        assert_eq!(queue.pop(), None);
        assert!(queue.is_closed());
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let queue: Arc<JobQueue<u64>> = Arc::new(JobQueue::new(1));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn closing_a_saturated_queue_unblocks_every_pusher() {
        // The shutdown-under-backpressure scenario: the queue is full, a
        // crowd of connection threads is blocked in push (waiting on the
        // not-full condvar), and close() fires. Every blocked pusher must
        // wake up with PushError — close notifying only the consumers'
        // condvar would leave them asleep forever — and everything accepted
        // before the close must still drain.
        const PUSHERS: u64 = 8;
        let queue = Arc::new(JobQueue::new(2));
        queue.push("", 0u64).unwrap();
        queue.push("", 1u64).unwrap(); // saturated
        let pushers: Vec<_> = (0..PUSHERS)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.push("", 100 + i))
            })
            .collect();
        // Give the crowd time to actually block on the full queue.
        while queue.depth() < 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(30));
        queue.close();
        for pusher in pushers {
            // A hang here (the join never returning) IS the regression.
            assert_eq!(pusher.join().unwrap(), Err(PushError));
        }
        // The two accepted items survive the shutdown; nothing else does.
        assert_eq!(queue.pop(), Some(0));
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.enqueued(), 2);
    }

    #[test]
    fn try_push_never_blocks() {
        let queue = JobQueue::new(1);
        assert_eq!(queue.try_push("", 1u64), Ok(()));
        // Saturated: the reject returns the item, and nothing was enqueued.
        assert_eq!(queue.try_push("", 2), Err(TryPushError::Full(2)));
        assert_eq!(queue.enqueued(), 1);
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.try_push("", 3), Ok(()));
        queue.close();
        assert_eq!(queue.try_push("", 4), Err(TryPushError::Closed(4)));
        // The item accepted before the close still drains.
        assert_eq!(queue.pop(), Some(3));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 250;
        let queue = Arc::new(JobQueue::new(8));
        let sum = Arc::new(AtomicU64::new(0));
        let received = Arc::new(AtomicU64::new(0));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let sum = Arc::clone(&sum);
                let received = Arc::clone(&received);
                std::thread::spawn(move || {
                    while let Some(v) = queue.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        received.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        queue.push("", p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        queue.close();
        for consumer in consumers {
            consumer.join().unwrap();
        }
        let n = PRODUCERS * PER_PRODUCER;
        assert_eq!(received.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
        assert_eq!(queue.enqueued(), n);
    }

    #[test]
    fn drr_interleaves_lanes_one_job_per_pass() {
        let queue = JobQueue::new(16);
        // Lane "a" floods first; "b" and "c" each queue one job later.
        for i in 0..3 {
            queue.try_push("a", ("a", i)).unwrap();
        }
        queue.try_push("b", ("b", 0)).unwrap();
        queue.try_push("c", ("c", 0)).unwrap();
        assert_eq!(queue.active_lanes(), 3);
        assert_eq!(queue.max_lane_depth(), 3);
        // Round-robin: the late-arriving polite lanes are served after one
        // "a" job each pass, not after the whole "a" backlog.
        let order: Vec<_> = (0..5).map(|_| queue.pop().unwrap()).collect();
        assert_eq!(
            order,
            vec![("a", 0), ("b", 0), ("c", 0), ("a", 1), ("a", 2)]
        );
        assert_eq!(queue.active_lanes(), 0);
    }

    #[test]
    fn fair_share_sheds_the_greedy_lane_only() {
        let queue = JobQueue::new(8);
        // Four active lanes => fair share is 8 / 4 = 2 per lane.
        for lane in ["greedy", "p1", "p2", "p3"] {
            queue.try_push(lane, lane).unwrap();
        }
        assert_eq!(queue.fair_share(), 2);
        assert_eq!(queue.try_push("greedy", "greedy"), Ok(()));
        // The greedy lane is now at its share: its next push sheds...
        assert_eq!(
            queue.try_push("greedy", "greedy"),
            Err(TryPushError::Full("greedy"))
        );
        // ...while the polite lanes still have room.
        assert_eq!(queue.try_push("p1", "p1"), Ok(()));
        assert_eq!(queue.lane_depth("greedy"), 2);
        assert_eq!(queue.lane_depth("p1"), 2);
    }

    #[test]
    fn a_single_lane_keeps_the_whole_capacity() {
        // Single-tenant regression: with only one lane active, the fair
        // share equals the full capacity — fair queuing must not shrink
        // the admission of a single client.
        let queue = JobQueue::new(4);
        for i in 0..4 {
            assert_eq!(queue.try_push("", i), Ok(()));
        }
        assert_eq!(queue.fair_share(), 4);
        assert_eq!(queue.try_push("", 9), Err(TryPushError::Full(9)));
    }

    #[test]
    fn draining_a_lane_raises_the_other_lanes_shares() {
        let queue = JobQueue::new(4);
        queue.try_push("a", "a0").unwrap();
        queue.try_push("b", "b0").unwrap();
        // Two lanes: share 2, so "a" can hold one more but not three.
        queue.try_push("a", "a1").unwrap();
        assert_eq!(queue.try_push("a", "a2"), Err(TryPushError::Full("a2")));
        // Drain "b" entirely; "a" becomes the only lane and its share
        // grows back to the whole capacity.
        assert_eq!(queue.pop(), Some("a0"));
        assert_eq!(queue.pop(), Some("b0"));
        assert_eq!(queue.active_lanes(), 1);
        assert_eq!(queue.try_push("a", "a2"), Ok(()));
        assert_eq!(queue.try_push("a", "a3"), Ok(()));
        assert_eq!(queue.try_push("a", "a4"), Ok(()));
        assert_eq!(queue.lane_depth("a"), 4);
    }

    #[test]
    fn close_drains_every_lane_then_returns_none() {
        // Satellite regression: a shutdown with multiple populated lanes
        // must deliver every accepted job across all lanes (still in
        // round-robin order) before consumers see None, and blocked pushers on any
        // lane must wake with PushError.
        let queue = Arc::new(JobQueue::new(6));
        for lane in ["a", "b", "c"] {
            queue.try_push(lane, format!("{lane}0")).unwrap();
            queue.try_push(lane, format!("{lane}1")).unwrap();
        }
        // All three lanes are at their fair share (6 / 3 = 2): a pusher on
        // each lane blocks, and close must unblock every one of them.
        let blocked: Vec<_> = ["a", "b", "c"]
            .into_iter()
            .map(|lane| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.push(lane, format!("{lane}X")))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        queue.close();
        for pusher in blocked {
            assert_eq!(pusher.join().unwrap(), Err(PushError));
        }
        let drained: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(drained, vec!["a0", "b0", "c0", "a1", "b1", "c1"]);
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.enqueued(), 6);
    }
}
