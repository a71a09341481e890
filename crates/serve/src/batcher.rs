//! The micro-batching request queue.
//!
//! Connection threads [`BatchQueue::push`] one [`PendingRequest`] per
//! observe request; a single batch-worker thread pulls batches with
//! [`BatchQueue::next_batch`], which is **work-conserving**: a worker
//! with anything queued takes up to `max_batch` requests at once, FIFO,
//! and waits only while the queue is empty. No timer holds a request
//! back. Requests that arrive while the worker is busy queue up and
//! leave together in its next flush, so batches grow with load through
//! queueing alone. The queue is bounded — a push against a full queue
//! fails immediately with [`PushError::Busy`] so backpressure reaches
//! the client as a typed `ServerBusy` response instead of unbounded
//! buffering.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One in-flight observe request: the decoded observation and the
/// reply handle the batch worker answers through. The queue is generic
/// over the handle so the server can thread its connection writer
/// through without the queue knowing anything about sockets.
pub(crate) struct PendingRequest<R> {
    /// Decoded observation features.
    pub observation: Vec<f64>,
    /// When the request entered the queue (queue-wait and latency
    /// accounting).
    pub enqueued: Instant,
    /// Where the batch worker delivers the chosen action.
    pub reply: R,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity — surface `ServerBusy` to the client.
    Busy,
    /// The queue is draining for shutdown — surface `ShuttingDown`.
    Closed,
}

struct Inner<R> {
    pending: VecDeque<PendingRequest<R>>,
    closed: bool,
}

/// Bounded multi-producer, single-consumer batching queue.
pub(crate) struct BatchQueue<R> {
    inner: Mutex<Inner<R>>,
    wakeup: Condvar,
    capacity: usize,
}

impl<R> BatchQueue<R> {
    /// A queue refusing pushes beyond `capacity` pending requests.
    pub fn new(capacity: usize) -> Self {
        BatchQueue {
            inner: Mutex::new(Inner {
                pending: VecDeque::new(),
                closed: false,
            }),
            wakeup: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues one request. Only the push that makes the queue
    /// non-empty wakes the worker: the worker waits only on an empty
    /// queue, so any later push finds it busy or already woken.
    pub fn push(&self, request: PendingRequest<R>) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("batch queue poisoned");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.pending.len() >= self.capacity {
            return Err(PushError::Busy);
        }
        let was_empty = inner.pending.is_empty();
        inner.pending.push_back(request);
        drop(inner);
        if was_empty {
            self.wakeup.notify_one();
        }
        Ok(())
    }

    /// Marks the queue closed: further pushes fail with
    /// [`PushError::Closed`], and once the worker has drained what is
    /// already queued, [`BatchQueue::next_batch`] returns `false`.
    pub fn close(&self) {
        self.inner.lock().expect("batch queue poisoned").closed = true;
        self.wakeup.notify_all();
    }

    /// Current number of queued requests.
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .expect("batch queue poisoned")
            .pending
            .len()
    }

    /// Moves up to `max_batch` queued requests, oldest first, into `out`
    /// (cleared first), blocking only while the queue is empty. Returns
    /// `false` — with `out` empty — only when the queue is closed *and*
    /// fully drained.
    pub fn next_batch(&self, max_batch: usize, out: &mut Vec<PendingRequest<R>>) -> bool {
        out.clear();
        let inner = self.inner.lock().expect("batch queue poisoned");
        let mut inner = self
            .wakeup
            .wait_while(inner, |i| i.pending.is_empty() && !i.closed)
            .expect("batch queue poisoned");
        let take = inner.pending.len().min(max_batch.max(1));
        out.extend(inner.pending.drain(..take));
        take > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn request(tag: f64) -> (PendingRequest<Sender<u32>>, Receiver<u32>) {
        let (tx, rx) = channel();
        (
            PendingRequest {
                observation: vec![tag],
                enqueued: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    fn tags(out: &[PendingRequest<Sender<u32>>]) -> Vec<f64> {
        out.iter().map(|p| p.observation[0]).collect()
    }

    #[test]
    fn a_backlog_leaves_at_once_in_max_batch_chunks_fifo() {
        // Requests that queued while no worker was taking them (the
        // shape of a burst that arrives during a forward) leave in the
        // next flushes, max_batch at a time, in arrival order; the short
        // last chunk leaves without waiting for more.
        let q = BatchQueue::new(16);
        for i in 0..10 {
            q.push(request(i as f64).0).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.next_batch(4, &mut out));
        assert_eq!(tags(&out), vec![0.0, 1.0, 2.0, 3.0]);
        assert!(q.next_batch(4, &mut out));
        assert_eq!(tags(&out), vec![4.0, 5.0, 6.0, 7.0]);
        assert!(q.next_batch(4, &mut out));
        assert_eq!(tags(&out), vec![8.0, 9.0]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn an_idle_worker_takes_a_lone_request_at_once() {
        // The worker parks on the empty queue; the push that makes it
        // non-empty must wake it, and it must leave with the lone
        // request instead of waiting for a fuller batch.
        let q = Arc::new(BatchQueue::<Sender<u32>>::new(8));
        let (done_tx, done_rx) = channel();
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Vec::new();
                let alive = q.next_batch(64, &mut out);
                done_tx.send((alive, tags(&out))).unwrap();
            })
        };
        thread::sleep(Duration::from_millis(20));
        q.push(request(3.0).0).unwrap();
        let (alive, got) = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the idle worker was not woken by the push");
        assert!(alive);
        assert_eq!(got, vec![3.0]);
        worker.join().expect("worker panicked");
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let q = BatchQueue::new(2);
        q.push(request(0.0).0).unwrap();
        q.push(request(1.0).0).unwrap();
        assert_eq!(q.push(request(2.0).0).unwrap_err(), PushError::Busy);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BatchQueue::new(8);
        q.push(request(0.0).0).unwrap();
        q.push(request(1.0).0).unwrap();
        q.close();
        assert_eq!(q.push(request(2.0).0).unwrap_err(), PushError::Closed);
        let mut out = Vec::new();
        // Closed: the pending requests still flush, then the queue
        // reports drained.
        assert!(q.next_batch(64, &mut out));
        assert_eq!(out.len(), 2);
        assert!(!q.next_batch(64, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn close_wakes_an_idle_worker() {
        let q = Arc::new(BatchQueue::<Sender<u32>>::new(4));
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Vec::new();
                q.next_batch(4, &mut out)
            })
        };
        thread::sleep(Duration::from_millis(50));
        q.close();
        assert!(!worker.join().expect("worker panicked"));
    }

    #[test]
    fn producer_and_consumer_hand_off_under_contention() {
        let q = Arc::new(BatchQueue::<Sender<u32>>::new(64));
        let total = 200;
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Vec::new();
                let mut seen = 0usize;
                while q.next_batch(7, &mut out) {
                    for p in &out {
                        let _ = p.reply.send(p.observation[0] as u32);
                    }
                    seen += out.len();
                }
                seen
            })
        };
        let mut receivers = Vec::new();
        for i in 0..total {
            loop {
                let (req, rx) = request(i as f64);
                match q.push(req) {
                    Ok(()) => {
                        receivers.push((i, rx));
                        break;
                    }
                    Err(PushError::Busy) => thread::sleep(Duration::from_micros(100)),
                    Err(PushError::Closed) => panic!("queue closed early"),
                }
            }
        }
        for (i, rx) in receivers {
            assert_eq!(rx.recv().expect("reply"), i as u32);
        }
        q.close();
        assert_eq!(consumer.join().expect("consumer panicked"), total);
    }
}
