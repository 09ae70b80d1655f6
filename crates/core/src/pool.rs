//! The process-wide **thread budget** and the two fan-out primitives
//! behind every parallel axis of the workspace.
//!
//! Two problems motivated this module. First, the sharded runner used to
//! spawn `shards − 1` scoped threads **every step**, so a
//! 50-step × 8-shard run paid 350 thread spawns — measurable per-step
//! overhead that turned small-host sharding into a slowdown. Second, the
//! trial striper and the sharded runner each claimed
//! `available_parallelism()` independently, so `trials × shards` could
//! oversubscribe the host by an order of magnitude. Both are fixed here:
//!
//! * [`ThreadBudget`] — a single, process-wide ledger of *lanes*
//!   (concurrently executing threads). Every parallel region
//!   ([`run_trials_with`](crate::trials::run_trials_with), a sweep or
//!   certification batch, a
//!   [`ShardedRunner`](crate::shard::ShardedRunner) run) **leases** the
//!   lanes it wants and gets at most what is free, so nested parallelism
//!   composes instead of multiplying: trials striped over the whole
//!   budget leave nothing for intra-trial shards, which then degrade to
//!   sequential sweeps on their own lane rather than thrashing the
//!   scheduler.
//! * [`run_indexed`] — the **one-shot batch**: `n` independent jobs
//!   (trials, sweep cells, certification cells) striped over one lease,
//!   one scoped thread per lane, each job's panic caught as its own
//!   `Err`, results returned in index order.
//! * [`WorkerPool`] — the **per-step batch**: long-lived, parked worker
//!   threads driven by a submit/barrier protocol. [`WorkerPool::run`]
//!   submits one batch of borrowed jobs (each worker has its own job
//!   channel; parked workers wake on `recv`), runs the caller's stripe on
//!   the calling thread, and returns only when **every** job of the batch
//!   has completed — the barrier. A sharded run therefore costs one pool
//!   (`lanes − 1` spawns) instead of `steps × (shards − 1)` spawns.
//!
//! # The lease hierarchy
//!
//! Every execution context implicitly owns **one** lane — the thread it
//! is already running on. [`ThreadBudget::lease`] thus always grants at
//! least one lane and draws only the *extra* lanes from the shared
//! ledger; dropping the [`BudgetLease`] returns them. The accounting
//! composes top-down:
//!
//! ```text
//! main thread                               1 implicit lane
//! └─ run_trials_with(5 trials)              leases 5 → gets min(5, budget)
//!    └─ trial lane (1 leased lane each)
//!       └─ ShardedRunner::run(8 shards)     leases 8 → gets what's left
//!          └─ WorkerPool(lanes − 1 workers)
//! ```
//!
//! On an idle 8-core host a lone 8-shard run gets all 8 lanes; the same
//! run under a 5-trial stripe gets 1 lane and runs its shards
//! sequentially — total live threads never exceed the budget.
//!
//! The budget defaults to `available_parallelism()` and can be capped
//! with the `EQIMPACT_THREADS` environment variable or
//! [`ThreadBudget::init_global`] (the `experiments` CLI's `--threads`
//! flag), e.g. to leave cores free for a co-located service.
//!
//! # One-shot batches
//!
//! [`run_indexed`] spawns one scoped thread per granted lane and runs
//! job `i` on lane `i % lanes`. The calling thread only waits: its
//! implicit lane is spent on one of the spawned threads. Running a
//! stripe on the caller instead was measured slower on glibc; the cost
//! came from the main thread's malloc arena being trimmed and regrown,
//! and it vanished with trimming turned off. A panicking job becomes
//! that job's `Err(message)` and its lane goes on with the next job, so
//! one bad cell never costs the others.
//!
//! # The submit/barrier protocol
//!
//! [`WorkerPool::run`] takes a batch of `FnOnce` jobs that may **borrow**
//! the caller's stack (the sharded runner's jobs borrow the AI system and
//! disjoint buffer slices). Jobs are striped round-robin over the lanes
//! (workers first, the last stripe runs on the calling thread), and the
//! call blocks until a completion message has arrived for every submitted
//! job. A panicking job never deadlocks the barrier: workers catch the
//! unwind and report it as that job's completion; `run` finishes the
//! barrier, **poisons** the pool (later `run` calls fail fast — the
//! caller's data may be half-written) and re-raises the first panic.

use eqimpact_telemetry::metrics as tm;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Instant;

/// A job submitted to a [`WorkerPool`] batch: it may borrow anything that
/// outlives the [`WorkerPool::run`] call that executes it.
pub type PoolJob<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// The process-wide ledger of concurrency *lanes* (see the module docs).
///
/// A lane is one concurrently executing thread. The budget starts with
/// `capacity − 1` free lanes — the missing one is the implicit lane of
/// the thread that will call [`Self::lease`] (every caller is already
/// running on *some* thread, which no ledger can hand out twice).
#[derive(Debug)]
pub struct ThreadBudget {
    capacity: usize,
    free: AtomicUsize,
}

static GLOBAL: OnceLock<ThreadBudget> = OnceLock::new();

impl ThreadBudget {
    /// A budget of `capacity` total lanes (clamped to at least 1, the
    /// caller's own lane).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ThreadBudget {
            capacity,
            free: AtomicUsize::new(capacity - 1),
        }
    }

    /// The process-wide budget every runner leases from by default.
    ///
    /// First use fixes the capacity: the `EQIMPACT_THREADS` environment
    /// variable if set (and a positive integer), otherwise
    /// `available_parallelism()`. Cap it programmatically with
    /// [`Self::init_global`] *before* anything leases.
    pub fn global() -> &'static ThreadBudget {
        GLOBAL.get_or_init(|| ThreadBudget::new(default_capacity()))
    }

    /// Initializes the global budget with an explicit capacity (the
    /// `experiments --threads N` path). Returns the budget if the global
    /// capacity is `capacity` (whether this call set it or it was already
    /// so), or `Err(existing)` when the budget was already fixed at a
    /// different capacity by an earlier use.
    pub fn init_global(capacity: usize) -> Result<&'static ThreadBudget, usize> {
        let budget = GLOBAL.get_or_init(|| ThreadBudget::new(capacity));
        if budget.capacity == capacity.max(1) {
            Ok(budget)
        } else {
            Err(budget.capacity)
        }
    }

    /// A leaked, `'static` budget — for tests and benches that need an
    /// isolated budget with the same `'static` lifetime as the global
    /// one (e.g. to simulate a 2-core host on any machine).
    // analyze::allow(R8): tests/sweep.rs, tests/certify.rs and tests/telemetry_identity.rs use it as a private thread budget
    pub fn leaked(capacity: usize) -> &'static ThreadBudget {
        Box::leak(Box::new(ThreadBudget::new(capacity)))
    }

    /// Total lanes this budget manages (fixed at construction).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The lanes a [`Self::lease`] issued right now could get: the
    /// caller's implicit lane plus whatever is currently free.
    pub fn available_lanes(&self) -> usize {
        1 + self.free.load(Ordering::Acquire)
    }

    /// Leases up to `lanes` lanes: the caller's implicit lane (always
    /// granted) plus at most `lanes − 1` extra lanes from the free pool.
    /// Never blocks — when the budget is exhausted the lease holds a
    /// single lane and the parallel region runs sequentially. Dropping
    /// the lease returns the extra lanes.
    pub fn lease(&self, lanes: usize) -> BudgetLease<'_> {
        let want = lanes.max(1) - 1;
        let mut granted = 0;
        // fetch_update retries the closure on contention; `granted` is
        // recomputed every attempt, so the final value matches the CAS
        // that succeeded.
        let _ = self
            .free
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |free| {
                granted = want.min(free);
                Some(free - granted)
            });
        // The lease remembers whether its grant was metered, so the
        // busy-lanes gauge never sees a `sub` without its `add` when the
        // recorder toggles mid-lease.
        let metered = eqimpact_telemetry::enabled();
        if metered {
            tm::POOL_LEASES.incr();
            tm::POOL_LANES_REQUESTED.add(lanes.max(1) as u64);
            tm::POOL_LANES_GRANTED.add(granted as u64 + 1);
            if granted < want {
                tm::POOL_LEASES_CLAMPED.incr();
            }
            tm::POOL_LANES_BUSY.add(granted as u64);
        }
        BudgetLease {
            budget: self,
            extra: granted,
            metered,
        }
    }
}

/// Capacity of the lazily initialized global budget.
fn default_capacity() -> usize {
    capacity_from_env(std::env::var("EQIMPACT_THREADS").ok(), |warning| {
        eprintln!("{warning}")
    })
}

/// Resolves the `EQIMPACT_THREADS` override into a budget capacity.
/// `0` is clamped to 1 (a budget always owns the caller's lane) with a
/// warning through `warn`; unparsable values are ignored.
fn capacity_from_env(var: Option<String>, mut warn: impl FnMut(&str)) -> usize {
    match var.as_deref().map(str::parse::<usize>) {
        Some(Ok(0)) => {
            warn("warning: EQIMPACT_THREADS=0 is not a usable budget; clamping to 1 lane");
            1
        }
        Some(Ok(n)) => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// A granted allocation of lanes (see [`ThreadBudget::lease`]). Holds
/// `lanes() − 1` lanes out of the shared budget until dropped.
#[derive(Debug)]
pub struct BudgetLease<'b> {
    budget: &'b ThreadBudget,
    extra: usize,
    /// Whether this lease's grant was counted into the telemetry gauge.
    metered: bool,
}

impl BudgetLease<'_> {
    /// Lanes this lease may run on, including the caller's own thread
    /// (always ≥ 1).
    pub fn lanes(&self) -> usize {
        self.extra + 1
    }

    /// The extra lanes drawn from the budget (`lanes() − 1`).
    pub fn extra(&self) -> usize {
        self.extra
    }
}

impl Drop for BudgetLease<'_> {
    fn drop(&mut self) {
        self.budget.free.fetch_add(self.extra, Ordering::AcqRel);
        if self.metered {
            tm::POOL_LANES_BUSY.sub(self.extra as u64);
        }
    }
}

/// One job's completion message: `Ok` or the caught panic payload.
type JobResult = Result<(), Box<dyn Any + Send + 'static>>;

/// A pool of long-lived, parked worker threads executing borrowed job
/// batches under the submit/barrier protocol (see the module docs).
///
/// `WorkerPool::new(0)` is valid and useful: with no workers,
/// [`Self::run`] executes every job inline on the calling thread — the
/// sequential fallback a budget-exhausted lease degrades to, with zero
/// threads and zero synchronization.
pub struct WorkerPool {
    senders: Vec<Sender<PoolJob<'static>>>,
    done_rx: Receiver<JobResult>,
    handles: Vec<JoinHandle<()>>,
    poisoned: bool,
}

impl WorkerPool {
    /// Spawns `workers` parked worker threads (plus the calling thread,
    /// the pool drives `workers + 1` lanes).
    pub fn new(workers: usize) -> Self {
        let (done_tx, done_rx) = channel::<JobResult>();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (job_tx, job_rx) = channel::<PoolJob<'static>>();
            let done_tx = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("eqimpact-pool-{w}"))
                .spawn(move || {
                    // Park on recv until the next job or pool drop
                    // (sender disconnect). A panicking job is caught and
                    // reported as its completion, so the barrier in
                    // `run` always resolves.
                    while let Ok(job) = job_rx.recv() {
                        let result = catch_unwind(AssertUnwindSafe(job));
                        if done_tx.send(result).is_err() {
                            break;
                        }
                    }
                })
                .expect("WorkerPool: failed to spawn a worker thread");
            senders.push(job_tx);
            handles.push(handle);
        }
        WorkerPool {
            senders,
            done_rx,
            handles,
            poisoned: false,
        }
    }

    /// Number of worker threads (the pool's lane count minus the caller).
    pub fn worker_count(&self) -> usize {
        self.senders.len()
    }

    /// Whether an earlier batch panicked (see [`Self::run`]).
    // analyze::allow(R8): tests/pool_reuse.rs checks the pool's health through it
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Executes one batch of jobs and returns when **all** of them have
    /// completed (the barrier). Jobs are striped round-robin over
    /// `worker_count() + 1` lanes; the last stripe runs on the calling
    /// thread, concurrently with the workers.
    ///
    /// # Panics
    /// Re-raises the first panicking job's payload after the whole batch
    /// has completed, and poisons the pool: the panicked job may have
    /// left its borrowed buffers half-written, so later `run` calls
    /// panic immediately instead of computing on corrupt state.
    pub fn run<'scope>(&mut self, jobs: Vec<PoolJob<'scope>>) {
        assert!(
            !self.poisoned,
            "WorkerPool: poisoned by a panic in an earlier batch"
        );
        if jobs.is_empty() {
            return;
        }
        let lanes = self.senders.len() + 1;
        let mut own: Vec<PoolJob<'scope>> = Vec::new();
        let mut sent = 0usize;
        // Decided once per batch: metered batches wrap each worker-lane
        // job to record queue wait and lane occupancy (the wrapper
        // allocation only exists on the enabled path).
        let metered = eqimpact_telemetry::enabled();
        for (i, job) in jobs.into_iter().enumerate() {
            let lane = i % lanes;
            if lane < self.senders.len() {
                let job: PoolJob<'scope> = if metered {
                    // The queue-wait latency is wall-clock telemetry; it lands
                    // in the nondeterministic half of the snapshot only.
                    // analyze::allow(R1): queue-wait latency is wall-clock telemetry
                    let submitted = Instant::now();
                    Box::new(move || {
                        tm::POOL_QUEUE_WAIT
                            .record_ns(submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                        tm::POOL_JOBS_RUN.incr();
                        tm::POOL_LANE_JOBS.record(lane + 1, 1);
                        job();
                    })
                } else {
                    job
                };
                // SAFETY: the barrier below blocks until a completion
                // message has arrived for every submitted job, on the
                // success and the panic path alike, so everything the
                // job borrows ('scope) strictly outlives its execution.
                // Workers drop each job at the end of its execution and
                // never retain it.
                let job: PoolJob<'static> =
                    unsafe { std::mem::transmute::<PoolJob<'scope>, PoolJob<'static>>(job) };
                // Workers only exit when the pool is dropped, so the
                // send cannot fail while `self` is alive.
                self.senders[lane]
                    .send(job)
                    .expect("WorkerPool: worker exited while the pool was alive");
                sent += 1;
            } else {
                own.push(job);
            }
        }

        // The caller's stripe runs while the workers chew on theirs. Its
        // panic is deferred too: the barrier must complete first, or the
        // workers could outlive the borrows.
        let own_result = catch_unwind(AssertUnwindSafe(|| {
            for job in own {
                job();
                tm::POOL_JOBS_INLINE.incr();
                tm::POOL_LANE_JOBS.record(0, 1);
            }
        }));

        // The barrier: one completion per submitted job, in any order.
        let mut failure: Option<Box<dyn Any + Send>> = None;
        for _ in 0..sent {
            match self.done_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(payload)) => {
                    tm::POOL_PANICS.incr();
                    failure.get_or_insert(payload);
                }
                Err(_) => {
                    // Unreachable while `self` holds the job senders,
                    // but never deadlock: fail loudly instead.
                    self.poisoned = true;
                    panic!("WorkerPool: workers disconnected mid-batch");
                }
            }
        }
        if let Err(payload) = own_result {
            tm::POOL_PANICS.incr();
            failure.get_or_insert(payload);
        }
        if let Some(payload) = failure {
            self.poisoned = true;
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the job channels: parked workers' recv errors out
        // and their loops end. All jobs of any batch completed before
        // `run` returned, so the workers are idle here.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.senders.len())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

/// Runs `jobs` independent jobs on up to `jobs` lanes leased from
/// `budget` and returns their results in index order (see the module
/// docs).
///
/// `job(i)` runs on lane `i % lanes`, one scoped thread per lane, while
/// the calling thread waits. A job that panics yields `Err` with its
/// panic message; every other job still runs and returns `Ok`. Zero jobs
/// return an empty `Vec`.
pub fn run_indexed<T, F>(budget: &ThreadBudget, jobs: usize, job: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let lease = budget.lease(jobs);
    let lanes = lease.lanes().min(jobs);
    let run_lane = |lane: usize| -> Vec<Result<T, String>> {
        (lane..jobs)
            .step_by(lanes)
            .map(|i| {
                let result = catch_unwind(AssertUnwindSafe(|| job(i))).map_err(|payload| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string())
                });
                tm::POOL_JOBS_RUN.incr();
                tm::POOL_LANE_JOBS.record(lane, 1);
                result
            })
            .collect()
    };
    let run_lane = &run_lane;
    let stripes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| scope.spawn(move || run_lane(lane)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("jobs' panics are caught in the lane"))
            .collect()
    });
    // Job i is the (i / lanes)-th result of stripe i % lanes.
    let mut stripes: Vec<_> = stripes.into_iter().map(Vec::into_iter).collect();
    (0..jobs)
        .map(|i| {
            stripes[i % lanes]
                .next()
                .expect("stripe i % lanes holds job i")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn budget_lease_grants_and_returns() {
        let budget = ThreadBudget::new(4);
        assert_eq!(budget.capacity(), 4);
        assert_eq!(budget.available_lanes(), 4);
        let a = budget.lease(3);
        assert_eq!(a.lanes(), 3);
        assert_eq!(a.extra(), 2);
        assert_eq!(budget.available_lanes(), 2);
        let b = budget.lease(10);
        assert_eq!(b.lanes(), 2, "only one extra lane was free");
        let c = budget.lease(5);
        assert_eq!(
            c.lanes(),
            1,
            "exhausted budget still grants the caller's lane"
        );
        drop(b);
        drop(c);
        assert_eq!(budget.available_lanes(), 2);
        drop(a);
        assert_eq!(budget.available_lanes(), 4);
    }

    #[test]
    fn budget_capacity_is_at_least_one() {
        let budget = ThreadBudget::new(0);
        assert_eq!(budget.capacity(), 1);
        assert_eq!(budget.available_lanes(), 1);
        assert_eq!(budget.lease(8).lanes(), 1);
    }

    #[test]
    fn global_budget_is_fixed_after_first_use() {
        let capacity = ThreadBudget::global().capacity();
        assert!(capacity >= 1);
        // Re-initializing with the same capacity is fine; a different
        // one reports the existing capacity.
        assert!(ThreadBudget::init_global(capacity).is_ok());
        match ThreadBudget::init_global(capacity + 1) {
            Err(existing) => assert_eq!(existing, capacity),
            Ok(_) => panic!("a second capacity must be rejected"),
        }
    }

    #[test]
    fn env_capacity_zero_clamps_to_one_with_a_warning() {
        let mut warnings = Vec::new();
        let capacity = capacity_from_env(Some("0".to_string()), |w| warnings.push(w.to_string()));
        assert_eq!(capacity, 1);
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("EQIMPACT_THREADS=0"),
            "warning names the bad setting: {}",
            warnings[0]
        );
    }

    #[test]
    fn env_capacity_positive_and_garbage_values() {
        let mut warned = false;
        assert_eq!(
            capacity_from_env(Some("3".to_string()), |_| warned = true),
            3
        );
        assert!(!warned, "positive values warn nothing");
        let fallback = capacity_from_env(None, |_| warned = true);
        assert!(fallback >= 1);
        assert_eq!(
            capacity_from_env(Some("not-a-number".to_string()), |_| warned = true),
            fallback,
            "garbage falls back to host parallelism"
        );
        assert!(!warned, "unparsable values are ignored silently");
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let mut pool = WorkerPool::new(3);
        assert_eq!(pool.worker_count(), 3);
        let mut cells = vec![0usize; 10];
        {
            let jobs: Vec<PoolJob<'_>> = cells
                .iter_mut()
                .enumerate()
                .map(|(i, cell)| Box::new(move || *cell += i + 1) as PoolJob<'_>)
                .collect();
            pool.run(jobs);
        }
        let expected: Vec<usize> = (1..=10).collect();
        assert_eq!(cells, expected);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let mut pool = WorkerPool::new(0);
        assert_eq!(pool.worker_count(), 0);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<PoolJob<'_>> = (0..5)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as PoolJob<'_>
            })
            .collect();
        pool.run(jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let mut pool = WorkerPool::new(2);
        let total = Arc::new(AtomicUsize::new(0));
        for batch in 0..4 {
            let jobs: Vec<PoolJob<'_>> = (0..6)
                .map(|_| {
                    let total = Arc::clone(&total);
                    Box::new(move || {
                        total.fetch_add(batch + 1, Ordering::SeqCst);
                    }) as PoolJob<'_>
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(total.load(Ordering::SeqCst), 6 * (1 + 2 + 3 + 4));
        assert!(!pool.is_poisoned());
    }

    #[test]
    fn more_jobs_than_lanes_stripe_over_the_workers() {
        let mut pool = WorkerPool::new(2);
        let mut cells = [0usize; 23];
        let jobs: Vec<PoolJob<'_>> = cells
            .iter_mut()
            .map(|cell| Box::new(move || *cell = 7) as PoolJob<'_>)
            .collect();
        pool.run(jobs);
        assert!(cells.iter().all(|&c| c == 7));
    }

    #[test]
    fn panic_in_a_worker_propagates_and_poisons_the_pool() {
        let mut pool = WorkerPool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<PoolJob<'_>> = (0..6)
                .map(|i| {
                    let completed = Arc::clone(&completed);
                    Box::new(move || {
                        if i == 1 {
                            panic!("job {i} exploded");
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                    }) as PoolJob<'_>
                })
                .collect();
            pool.run(jobs);
        }));
        let payload = result.expect_err("the job panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string panic payload");
        assert!(message.contains("exploded"), "message: {message}");
        // The barrier completed: every non-panicking job still ran.
        assert_eq!(completed.load(Ordering::SeqCst), 5);
        assert!(pool.is_poisoned());

        // A later batch fails fast instead of deadlocking the barrier or
        // computing on half-written state.
        let again = catch_unwind(AssertUnwindSafe(|| pool.run(vec![Box::new(|| ())])));
        let payload = again.expect_err("poisoned pool must reject new batches");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("string panic payload");
        assert!(message.contains("poisoned"), "message: {message}");
    }

    #[test]
    fn panic_on_the_callers_stripe_also_propagates() {
        // With zero workers every job runs on the caller; the panic path
        // must behave identically.
        let mut pool = WorkerPool::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![Box::new(|| panic!("inline boom"))]);
        }));
        assert!(result.is_err());
        assert!(pool.is_poisoned());
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let mut pool = WorkerPool::new(1);
        pool.run(Vec::new());
        pool.run(Vec::new());
        assert!(!pool.is_poisoned());
    }

    #[test]
    fn run_indexed_returns_results_in_index_order() {
        let budget = ThreadBudget::new(3);
        let results = run_indexed(&budget, 23, |i| i * i);
        let expected: Vec<Result<usize, String>> = (0..23).map(|i| Ok(i * i)).collect();
        assert_eq!(results, expected);
        assert!(run_indexed(&budget, 0, |i| i).is_empty());
        assert_eq!(
            budget.available_lanes(),
            budget.capacity(),
            "the batch returned its lease"
        );
    }

    #[test]
    fn run_indexed_turns_a_panicking_job_into_its_error() {
        let budget = ThreadBudget::new(2);
        let results = run_indexed(&budget, 5, |i| {
            if i == 2 {
                panic!("job {i} exploded");
            }
            i
        });
        assert_eq!(results[2], Err("job 2 exploded".to_string()));
        for i in [0, 1, 3, 4] {
            assert_eq!(results[i], Ok(i), "job {i}");
        }
        assert_eq!(budget.available_lanes(), budget.capacity());
    }
}
