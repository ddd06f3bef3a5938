//! A small work-stealing thread pool on `std` primitives.
//!
//! crates.io is unreachable in this build environment, so instead of
//! `rayon` the engine ships its own pool: resident workers driving the
//! shared striped-deque [`Scheduler`](crate::sched::Scheduler) (one FIFO
//! deque per worker, round-robin submission, idle workers stealing from
//! the *back* of their siblings' deques). Jobs are `FnOnce` boxes and may
//! themselves submit further jobs. The pool adds only batch semantics on
//! top: [`WorkPool::run_batch`] blocks the caller until a whole batch is
//! done and returns the results in input order — the shape the lock-step
//! deterministic driver needs.

use crate::sched::{Idle, Scheduler};
use mintri_telemetry::Gauge;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One worker's share of a live-thread gauge: raised when created by the
/// spawning thread, lowered when dropped. Moved into the worker's
/// closure, it is dropped as the worker exits, before `join` returns.
pub(crate) struct LiveThread(Arc<Gauge>);

impl LiveThread {
    pub(crate) fn new(gauge: &Arc<Gauge>) -> Self {
        gauge.add(1);
        LiveThread(Arc::clone(gauge))
    }
}

impl Drop for LiveThread {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// A fixed-size work-stealing pool; dropping it joins all workers
/// (pending never-started jobs are discarded).
pub struct WorkPool {
    sched: Arc<Scheduler<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkPool {
    /// A pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        Self::with_live_gauge(threads, &Arc::default())
    }

    /// [`WorkPool::new`] whose workers are counted in `live`: each one
    /// raises it at spawn and lowers it as it exits.
    pub fn with_live_gauge(threads: usize, live: &Arc<Gauge>) -> Self {
        let sched = Arc::new(Scheduler::new(threads.max(1)));
        let handles = (0..sched.stripes())
            .map(|i| {
                let sched = Arc::clone(&sched);
                let live = LiveThread::new(live);
                std::thread::Builder::new()
                    .name(format!("mintri-engine-{i}"))
                    // Pure condvar park (no backoff): every job arrives
                    // through the scheduler's push, so the under-gate
                    // re-check covers all wake-up sources.
                    .spawn(move || {
                        let _live = live;
                        sched.worker_loop(i, None, |job: Job| job(), || Idle::Park)
                    })
                    .expect("spawning engine worker")
            })
            .collect();
        WorkPool { sched, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Queues a job for execution.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.sched.push(Box::new(job));
    }

    /// Runs every job and returns their results in input order, blocking
    /// the caller until the whole batch is done. The calling thread only
    /// waits (it is typically the lock-step driver, not a pool worker).
    pub fn run_batch<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        /// Decrements the latch on drop — panic-safe: a panicking job
        /// must still release the waiting driver, or the batch hangs.
        struct LatchGuard(Arc<(Mutex<usize>, Condvar)>);
        impl Drop for LatchGuard {
            fn drop(&mut self) {
                let (count, done) = &*self.0;
                if let Ok(mut remaining) = count.lock() {
                    *remaining -= 1;
                }
                done.notify_all();
            }
        }

        let results: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let latch = Arc::new((Mutex::new(n), Condvar::new()));
        // One push_batch (single wake) rather than n submits: run_batch is
        // the deterministic driver's per-step hot path.
        let wrapped: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                let results = Arc::clone(&results);
                let latch = Arc::clone(&latch);
                Box::new(move || {
                    let _guard = LatchGuard(latch);
                    let out = job();
                    results.lock().unwrap()[i] = Some(out);
                }) as Job
            })
            .collect();
        self.sched.push_batch(wrapped);
        let (count, done) = &*latch;
        let mut remaining = count.lock().unwrap();
        while *remaining > 0 {
            remaining = done.wait(remaining).unwrap();
        }
        drop(remaining);
        // Workers may still hold Arc clones for a moment after the final
        // notify; every slot is filled, so take the vector out by value.
        // A `None` slot means that job panicked on its worker — propagate
        // the failure to the driver instead of hanging or lying.
        let taken = std::mem::take(&mut *results.lock().unwrap());
        taken
            .into_iter()
            .map(|r| r.expect("a batch job panicked on a pool worker"))
            .collect()
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        self.sched.request_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn batch_preserves_input_order() {
        let pool = WorkPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = pool.run_batch(jobs);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_can_submit_jobs() {
        let pool = Arc::new(WorkPool::new(2));
        let counter = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new((Mutex::new(8usize), Condvar::new()));
        for _ in 0..4 {
            let pool2 = Arc::clone(&pool);
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                let counter2 = Arc::clone(&counter);
                let latch2 = Arc::clone(&latch);
                pool2.submit(move || {
                    counter2.fetch_add(1, Ordering::SeqCst);
                    *latch2.0.lock().unwrap() -= 1;
                    latch2.1.notify_all();
                });
                *latch.0.lock().unwrap() -= 1;
                latch.1.notify_all();
            });
        }
        let (count, done) = &*latch;
        let mut remaining = count.lock().unwrap();
        while *remaining > 0 {
            remaining = done.wait(remaining).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    use std::time::Duration;

    #[test]
    fn live_gauge_counts_workers_until_drop() {
        let live = Arc::new(Gauge::new());
        let pool = WorkPool::with_live_gauge(3, &live);
        assert_eq!(live.get(), 3);
        drop(pool);
        assert_eq!(live.get(), 0);
    }

    #[test]
    fn drop_joins_cleanly_with_queued_work() {
        let pool = WorkPool::new(2);
        for _ in 0..100 {
            pool.submit(|| std::thread::sleep(Duration::from_micros(10)));
        }
        drop(pool); // must not hang or panic
    }
}
