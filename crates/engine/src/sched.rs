//! The striped-deque scheduler under the unordered parallel enumerator.
//!
//! [`Scheduler`] is the work-distribution core of
//! [`ParallelEnumerator`](crate::ParallelEnumerator): one FIFO deque per
//! worker, round-robin submission, idle workers stealing from the *back*
//! of their siblings' deques, and a gate/condvar handshake that makes
//! "push, then wake" race-free. It is kept apart from the enumerator so the
//! loop's wake-up contract can be read, and tested, on its own.
//!
//! What stays with the enumerator is policy, injected into
//! [`Scheduler::worker_loop`] as two callbacks:
//!
//! * `run(task)` — execute one task (an `(answer, node)` extension with
//!   its own panic-safe accounting);
//! * `idle()` — decide what an out-of-work worker does: exit (completion
//!   or abort), find more work elsewhere and rescan (pulling a fresh
//!   separator from the `A_V` cursor), or park on the condvar.
//!
//! ## Lost-wakeup contract
//!
//! [`Scheduler::push`]/[`Scheduler::push_batch`] enqueue *before* a gate
//! round-trip + `notify_all`, and a parking worker re-checks the deques
//! *under* the gate — so a task pushed concurrently with the park is
//! either seen by that re-check or its notify lands after the worker
//! waits. Work that arrives through side channels the re-check cannot
//! see (the enumerator's "active count hit zero, go pull a node" transition
//! re-enters `push_batch`, which would re-lock the gate) is covered by
//! the parked wait's timeout: a [`Backoff`] that doubles on every
//! timed-out wait, so long-idle workers don't poll at kHz rates.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// What an out-of-work worker should do next; returned by the `idle`
/// callback of [`Scheduler::worker_loop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Idle {
    /// The callback may have created work (e.g. pulled a fresh SGR node
    /// and queued its tasks) — re-scan the deques immediately.
    Rescan,
    /// Nothing to do anywhere: park until a wake-up or the backoff
    /// timeout.
    Park,
    /// This worker is done; leave the loop.
    Exit,
}

/// Exponential-backoff bounds for the parked wait of
/// [`Scheduler::worker_loop`] (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// First (and post-work reset) wait.
    pub min: Duration,
    /// Cap; each timed-out wait doubles up to this.
    pub max: Duration,
}

/// A striped work deque plus the wake-up machinery — see the module docs.
/// Parameterized over the task type (the enumerator's `(u32, u32)` frontier
/// pairs).
pub struct Scheduler<T> {
    /// One deque per worker; workers pop their own front, steal others'
    /// back.
    queues: Vec<Mutex<VecDeque<T>>>,
    /// Round-robin cursor for submissions.
    next_queue: AtomicUsize,
    /// The push/park handshake (see module docs).
    gate: Mutex<()>,
    signal: Condvar,
    /// Makes every worker leave `worker_loop` at its next check.
    shutdown: AtomicBool,
}

impl<T> Scheduler<T> {
    /// A scheduler with `stripes` deques (at least one) — one per worker.
    pub fn new(stripes: usize) -> Self {
        Scheduler {
            queues: (0..stripes.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            next_queue: AtomicUsize::new(0),
            gate: Mutex::new(()),
            signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Queues one task (round-robin) and wakes parked workers.
    pub fn push(&self, task: T) {
        let i = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[i].lock().unwrap().push_back(task);
        self.wake_all();
    }

    /// Queues a batch of tasks (round-robin) with a single wake at the
    /// end. No-op on an empty batch.
    pub fn push_batch(&self, tasks: Vec<T>) {
        if tasks.is_empty() {
            return;
        }
        let n = self.queues.len();
        for t in tasks {
            let i = self.next_queue.fetch_add(1, Ordering::Relaxed) % n;
            self.queues[i].lock().unwrap().push_back(t);
        }
        self.wake_all();
    }

    /// Pops from `own`'s front, else steals from the back of a sibling.
    pub fn grab(&self, own: usize) -> Option<T> {
        if let Some(t) = self.queues[own].lock().unwrap().pop_front() {
            return Some(t);
        }
        let n = self.queues.len();
        for off in 1..n {
            if let Some(t) = self.queues[(own + off) % n].lock().unwrap().pop_back() {
                return Some(t);
            }
        }
        None
    }

    /// Tells every worker to leave its loop at the next check and wakes
    /// the parked ones. Queued tasks are left in place (and discarded
    /// with the scheduler).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// `true` once [`Scheduler::request_shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Wakes every parked worker. The gate round-trip orders whatever the
    /// caller wrote before this call ahead of any worker's under-gate
    /// re-check — the push-then-wake contract of the module docs.
    pub fn wake_all(&self) {
        drop(self.gate.lock().unwrap());
        self.signal.notify_all();
    }

    /// Runs worker `own`'s loop on the calling thread until `idle`
    /// returns [`Idle::Exit`] or [`Scheduler::request_shutdown`] is
    /// observed: grab-and-run tasks while any exist, consult `idle` when
    /// out of work, park with a timed wait per `backoff`.
    pub fn worker_loop(
        &self,
        own: usize,
        backoff: Backoff,
        mut run: impl FnMut(T),
        mut idle: impl FnMut() -> Idle,
    ) {
        let mut wait = backoff.min;
        loop {
            if self.is_shutdown() {
                return;
            }
            if let Some(task) = self.grab(own) {
                wait = backoff.min;
                run(task);
                continue;
            }
            match idle() {
                Idle::Exit => return,
                Idle::Rescan => {
                    wait = backoff.min;
                    continue;
                }
                Idle::Park => {
                    let guard = self.gate.lock().unwrap();
                    // Re-check under the gate: anything pushed before our
                    // lock is visible here; anything after will notify.
                    if self.is_shutdown() {
                        return;
                    }
                    if let Some(task) = self.grab(own) {
                        drop(guard);
                        wait = backoff.min;
                        run(task);
                        continue;
                    }
                    let (_guard, timeout) = self.signal.wait_timeout(guard, wait).unwrap();
                    wait = if timeout.timed_out() {
                        (wait * 2).min(backoff.max)
                    } else {
                        backoff.min
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const BACKOFF: Backoff = Backoff {
        min: Duration::from_millis(1),
        max: Duration::from_millis(10),
    };

    #[test]
    fn tasks_round_robin_across_stripes() {
        let sched: Scheduler<usize> = Scheduler::new(3);
        sched.push_batch((0..9).collect());
        for q in 0..3 {
            let mut grabbed = Vec::new();
            while let Some(t) = sched.queues[q].lock().unwrap().pop_front() {
                grabbed.push(t);
            }
            assert_eq!(grabbed, vec![q, q + 3, q + 6]);
        }
    }

    #[test]
    fn grab_prefers_own_stripe_then_steals() {
        let sched: Scheduler<&'static str> = Scheduler::new(2);
        sched.queues[0].lock().unwrap().push_back("own");
        sched.queues[1].lock().unwrap().push_back("stolen-front");
        sched.queues[1].lock().unwrap().push_back("stolen-back");
        assert_eq!(sched.grab(0), Some("own"));
        // steals come from the sibling's *back*
        assert_eq!(sched.grab(0), Some("stolen-back"));
        assert_eq!(sched.grab(0), Some("stolen-front"));
        assert_eq!(sched.grab(0), None);
    }

    #[test]
    fn worker_loop_exits_on_shutdown_while_parked() {
        // An hour-long park: only `request_shutdown`'s wake can end it, so a
        // missed wake hangs this test instead of passing on a timeout.
        const PARK: Backoff = Backoff {
            min: Duration::from_secs(3600),
            max: Duration::from_secs(3600),
        };
        let sched: Arc<Scheduler<()>> = Arc::new(Scheduler::new(1));
        let s2 = Arc::clone(&sched);
        let (idled, idle_seen) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            s2.worker_loop(
                0,
                PARK,
                |_| {},
                || {
                    let _ = idled.send(());
                    Idle::Park
                },
            )
        });
        // Let the worker reach its wait before shutting down.
        idle_seen.recv().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        sched.request_shutdown();
        h.join().unwrap(); // must not hang
    }

    #[test]
    fn worker_loop_drains_then_exits_via_idle() {
        let sched: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(2));
        sched.push_batch((0..100).collect());
        let seen = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let sched = Arc::clone(&sched);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    sched.worker_loop(
                        i,
                        BACKOFF,
                        |_| {
                            seen.fetch_add(1, Ordering::SeqCst);
                        },
                        || Idle::Exit,
                    )
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seen.load(Ordering::SeqCst), 100);
    }
}
