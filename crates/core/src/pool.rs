//! The process-wide **thread budget** and the two scoped fan-outs behind
//! every parallel axis of the workspace.
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
//!   scheduler. Without it the trial striper and the sharded runner would
//!   each claim `available_parallelism()`, and `trials × shards` could
//!   oversubscribe the host by an order of magnitude.
//! * [`run_indexed`] — the **one-shot batch**: `n` independent jobs
//!   (trials, sweep evaluations, the sweep's bootstrap intervals, certification
//!   cells) striped over one lease,
//!   one scoped thread per lane while the caller waits, each job's panic
//!   caught as its own `Err`, results returned in index order.
//! * [`run_striped`] — the **per-step batch**: the sharded runner's
//!   sweep of one step, one item per shard, striped over the lease the
//!   run holds. Stripe 0 runs on the calling thread and every other
//!   stripe on a scoped thread; the call returns when every stripe is
//!   done.
//!
//! Both fan-outs are `std::thread::scope` calls: a job may borrow the
//! caller's stack, no thread outlives the call that spawned it, and
//! nothing waits parked between calls.
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
//!          └─ run_striped per step          lanes − 1 scoped threads
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
//! # Who runs a stripe: the caller waits in one, works in the other
//!
//! Both fan-outs run item `i` on lane `i % lanes`. They differ, on
//! purpose, in whether the calling thread takes a stripe. The
//! measurements below compare the two designs in alternating runs of the
//! `loopbench` benchmark on a 2-vCPU KVM guest (rustc 1.95.0, glibc
//! 2.36).
//!
//! [`run_indexed`] spawns one scoped thread per granted lane and the
//! caller only waits: its implicit lane is spent on one of the spawned
//! threads. Its jobs are whole trials and cells, which allocate heavily.
//! A prototype that ran one trial stripe on the caller made
//! `credit-paper` 4.5% slower (`wall_s` 0.0200 s → 0.0209 s, 6 of 6
//! pairs). With glibc's malloc trimming turned off the gap vanished: the
//! cost was the main thread's malloc arena being trimmed and regrown.
//!
//! [`run_striped`] runs stripe 0 on the caller and spawns `lanes − 1`
//! scoped threads, so a one-lane lease spawns nothing. Its items are the
//! shard sweeps of one step, which allocate nothing per row and read the
//! buffers the step tail has just written on the caller's core. A
//! prototype that spawned every stripe while the caller waited made the
//! one-lane (`EQIMPACT_THREADS=1`) `credit-100k` run 8–17% slower
//! (`wall_s` 0.572 s → 0.671 s and 0.647 s → 0.701 s); with stripe 0 on
//! the caller it matched the parked worker pool this replaced
//! (0.587 s → 0.585 s). A scoped spawn plus its join costs about 40 µs
//! on that host, so a 50-step run on 2 lanes pays about 2 ms.
//!
//! A panic never escapes a fan-out early. [`run_indexed`] turns a job's
//! panic into that job's `Err`; [`run_striped`] lets every other item
//! run, then re-raises the first panicking stripe's own payload.

use eqimpact_telemetry::metrics as tm;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// Runs `job` once on every item of `items`, striped over the lanes of
/// `lease` (see the module docs).
///
/// Item `i` runs on stripe `i % lanes`: stripe 0 on the calling thread,
/// every other stripe on its own scoped thread, so a one-lane lease
/// spawns nothing. The call returns once every stripe is done. A
/// panicking item does not stop the others, not even the rest of its own
/// stripe; the first panicking stripe's payload is then re-raised as it
/// was. Zero items are a no-op.
pub fn run_striped<W, F>(lease: &BudgetLease<'_>, items: Vec<W>, job: F)
where
    W: Send,
    F: Fn(W) + Sync,
{
    let lanes = lease.lanes().min(items.len()).max(1);
    let mut stripes: Vec<Vec<W>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        stripes[i % lanes].push(item);
    }
    let run_stripe = |lane: usize, stripe: Vec<W>| {
        let mut failure = None;
        for item in stripe {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(item))) {
                failure.get_or_insert(payload);
            }
            tm::POOL_JOBS_RUN.incr();
            tm::POOL_LANE_JOBS.record(lane, 1);
        }
        failure
    };
    let run_stripe = &run_stripe;
    let mut stripes = stripes.into_iter();
    let own = stripes.next().unwrap_or_default();
    let failure = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .enumerate()
            .map(|(s, stripe)| scope.spawn(move || run_stripe(s + 1, stripe)))
            .collect();
        let mut failure = run_stripe(0, own);
        // Joined here rather than by the scope, whose own re-raise would
        // replace the stripe's payload with a generic message.
        for handle in handles {
            failure = failure.or(handle.join().unwrap_or_else(Some));
        }
        failure
    });
    if let Some(payload) = failure {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn run_striped_runs_every_item_exactly_once() {
        let budget = ThreadBudget::new(3);
        let lease = budget.lease(3);
        assert_eq!(lease.lanes(), 3);
        let mut cells = vec![0usize; 23];
        run_striped(
            &lease,
            cells.iter_mut().enumerate().collect(),
            |(i, cell)| *cell += i + 1,
        );
        let expected: Vec<usize> = (1..=23).collect();
        assert_eq!(cells, expected);
    }

    #[test]
    fn run_striped_runs_stripe_zero_on_the_caller() {
        let caller = std::thread::current().id();
        let budget = ThreadBudget::new(3);
        let lease = budget.lease(3);
        let mut ran_on = vec![None; 23];
        run_striped(&lease, ran_on.iter_mut().collect(), |slot| {
            *slot = Some(std::thread::current().id())
        });
        let ran_on: Vec<_> = ran_on.into_iter().map(Option::unwrap).collect();
        for (i, id) in ran_on.iter().enumerate() {
            assert_eq!(*id, ran_on[i % 3], "item {i} runs on stripe {}", i % 3);
            assert_eq!(*id == caller, i % 3 == 0, "item {i}");
        }
        let mut threads = Vec::new();
        for id in ran_on {
            if !threads.contains(&id) {
                threads.push(id);
            }
        }
        assert!(threads.len() <= lease.lanes(), "{} threads", threads.len());

        // A one-lane lease spawns nothing: every item runs on the caller.
        let one = budget.lease(1);
        assert_eq!(one.lanes(), 1);
        let mut ran_on = [None; 5];
        run_striped(&one, ran_on.iter_mut().collect(), |slot| {
            *slot = Some(std::thread::current().id())
        });
        assert!(ran_on.iter().all(|id| *id == Some(caller)));
    }

    #[test]
    fn run_striped_with_no_items_is_a_no_op() {
        let budget = ThreadBudget::new(2);
        let lease = budget.lease(2);
        run_striped(&lease, Vec::<usize>::new(), |_| panic!("no item to run"));
        drop(lease);
        assert_eq!(budget.available_lanes(), budget.capacity());
    }

    #[test]
    fn run_striped_re_raises_a_panic_after_every_other_item() {
        // Item 1 runs on spawned stripe 1, item 0 on the caller's stripe
        // 0; items 4 and 3 follow them on the same stripes.
        for bad in [1usize, 0] {
            let budget = ThreadBudget::new(3);
            let lease = budget.lease(3);
            let completed = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_striped(&lease, (0..6).collect(), |i| {
                    if i == bad {
                        panic!("item {i} exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                })
            }));
            let payload = result.expect_err("the item's panic must propagate");
            let message = payload.downcast::<String>().expect("a formatted message");
            assert_eq!(*message, format!("item {bad} exploded"));
            assert_eq!(completed.load(Ordering::SeqCst), 5, "item {bad}");
        }
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
