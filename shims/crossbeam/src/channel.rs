//! MPMC channels with the `crossbeam-channel` API subset the workspace
//! uses: `bounded` / `unbounded`, cloneable senders *and* receivers,
//! blocking and non-blocking operations, and disconnect semantics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when every receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// every sender is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    /// `None` for unbounded channels.
    capacity: Option<usize>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn disconnected_tx(&self) -> bool {
        self.senders.load(Ordering::Acquire) == 0
    }
    fn disconnected_rx(&self) -> bool {
        self.receivers.load(Ordering::Acquire) == 0
    }
}

/// The sending half; cloneable (MPMC).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; cloneable (MPMC).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::AcqRel);
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: wake receivers so they observe disconnect.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Block until the message is enqueued (or all receivers are gone).
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut queue = self.shared.queue.lock().unwrap();
        loop {
            if self.shared.disconnected_rx() {
                return Err(SendError(msg));
            }
            match self.shared.capacity {
                Some(cap) if queue.len() >= cap => {
                    queue = self.shared.not_full.wait(queue).unwrap();
                }
                _ => {
                    queue.push_back(msg);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
            }
        }
    }

    /// Enqueue without blocking.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let mut queue = self.shared.queue.lock().unwrap();
        if self.shared.disconnected_rx() {
            return Err(TrySendError::Disconnected(msg));
        }
        if let Some(cap) = self.shared.capacity {
            if queue.len() >= cap {
                return Err(TrySendError::Full(msg));
            }
        }
        queue.push_back(msg);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().unwrap().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Block until a message arrives (or all senders are gone and the
    /// queue drains).
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut queue = self.shared.queue.lock().unwrap();
        loop {
            if let Some(msg) = queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if self.shared.disconnected_tx() {
                return Err(RecvError);
            }
            queue = self.shared.not_empty.wait(queue).unwrap();
        }
    }

    /// Dequeue without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut queue = self.shared.queue.lock().unwrap();
        if let Some(msg) = queue.pop_front() {
            self.shared.not_full.notify_one();
            return Ok(msg);
        }
        if self.shared.disconnected_tx() {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Block up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut queue = self.shared.queue.lock().unwrap();
        loop {
            if let Some(msg) = queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if self.shared.disconnected_tx() {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (q, _) = self
                .shared
                .not_empty
                .wait_timeout(queue, deadline - now)
                .unwrap();
            queue = q;
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().unwrap().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        capacity,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Channel holding at most `cap` in-flight messages.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(cap))
}

/// Channel with unlimited buffering.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_within_single_consumer() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        rx.recv().unwrap();
        tx.try_send(3).unwrap();
    }

    #[test]
    fn recv_fails_after_last_sender_drops() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn mpmc_consumes_each_message_once() {
        let (tx, rx) = bounded(4);
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..1000u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = bounded::<u8>(1);
        let r = rx.recv_timeout(Duration::from_millis(10));
        assert_eq!(r, Err(RecvTimeoutError::Timeout));
    }
}
