//! Multi-trial execution: the paper's protocol of five independent trials,
//! each with a fresh batch of users, run in parallel with deterministic
//! per-trial seeds.
//!
//! The worker threads are leased from the process-wide [`ThreadBudget`]
//! (trials are striped over the granted lanes), so trial parallelism
//! composes with intra-trial sharding instead of multiplying with it — a
//! [`ShardedRunner`](crate::shard::ShardedRunner) nested inside a trial
//! worker finds the budget spent and sweeps sequentially on its own
//! lane. A panic inside any trial is re-raised on the caller's thread
//! with the trial index attached.

use crate::pool::ThreadBudget;
use crate::recorder::LoopRecord;
use eqimpact_stats::describe::Summary;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The records of a set of trials.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSet {
    /// One record per trial, in trial order.
    pub records: Vec<LoopRecord>,
}

/// Runs `trials` independent trials of any outcome type in parallel, on
/// worker threads leased from the **global** [`ThreadBudget`].
/// `factory(trial_index)` must build and run one complete trial; it
/// receives the trial index so it can derive a deterministic seed (the
/// convention is `base_seed + trial_index`). Results come back in trial
/// order.
///
/// # Panics
/// Panics when `trials == 0`, and re-raises the lowest-indexed per-trial
/// panic as `"trial <index> panicked: <message>"`.
pub fn run_trials_with<T, F>(trials: usize, factory: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_trials_with_budget(ThreadBudget::global(), trials, factory)
}

/// [`run_trials_with`] leasing from an explicit budget. The lease is
/// held for the whole protocol: `lease.lanes()` stripes run concurrently
/// (the caller's thread only waits, so its implicit lane is spent on one
/// of the stripes), and the lanes return to the budget when every trial
/// has finished.
pub fn run_trials_with_budget<T, F>(budget: &ThreadBudget, trials: usize, factory: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(trials > 0, "run_trials_with: zero trials");
    let lease = budget.lease(trials);
    let workers = lease.lanes().min(trials);
    let mut outcomes: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    // Lowest-indexed panic across all workers.
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);

    // Stripe the trials over the workers: worker w owns trials w, w + W,
    // w + 2W, ... — a deterministic partition with no work queue.
    let stripes: Vec<Vec<(usize, &mut Option<T>)>> = {
        let mut stripes: Vec<Vec<(usize, &mut Option<T>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (t, slot) in outcomes.iter_mut().enumerate() {
            stripes[t % workers].push((t, slot));
        }
        stripes
    };

    // One closure per stripe, all spawned through the sanctioned
    // scoped-run entry point in `pool` (thread-hygiene rule R3: this
    // module never touches `std::thread` directly).
    let jobs: Vec<_> = stripes
        .into_iter()
        .map(|stripe| {
            let factory = &factory;
            let failure = &failure;
            move || {
                for (t, slot) in stripe {
                    match catch_unwind(AssertUnwindSafe(|| factory(t))) {
                        Ok(outcome) => *slot = Some(outcome),
                        Err(payload) => {
                            let message = payload
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".to_string());
                            let mut failure = failure.lock().unwrap_or_else(|e| e.into_inner());
                            let is_lowest =
                                failure.as_ref().map(|&(prev, _)| t < prev).unwrap_or(true);
                            if is_lowest {
                                *failure = Some((t, message));
                            }
                            return;
                        }
                    }
                }
            }
        })
        .collect();
    crate::pool::scoped_run(jobs);

    if let Some((t, message)) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic!("trial {t} panicked: {message}");
    }
    outcomes
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Runs `trials` independent loop trials in parallel (see
/// [`run_trials_with`] for the execution model).
pub fn run_trials<F>(trials: usize, factory: F) -> TrialSet
where
    F: Fn(usize) -> LoopRecord + Sync,
{
    TrialSet {
        records: run_trials_with(trials, factory),
    }
}

impl TrialSet {
    /// Number of trials.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set is empty (never true for `run_trials` output).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Cross-trial mean and standard deviation of a per-trial scalar
    /// statistic.
    pub fn summarize(&self, stat: impl Fn(&LoopRecord) -> f64) -> Summary {
        let mut s = Summary::new();
        for r in &self.records {
            s.push(stat(r));
        }
        s
    }

    /// Cross-trial mean ± std of a per-trial *time series* (e.g. a group's
    /// ADR trajectory): returns `(mean[k], std[k])` per step. Trials must
    /// produce series of equal length.
    pub fn summarize_series(
        &self,
        series: impl Fn(&LoopRecord) -> Vec<f64>,
    ) -> (Vec<f64>, Vec<f64>) {
        let all: Vec<Vec<f64>> = self.records.iter().map(&series).collect();
        let len = all.first().map(|s| s.len()).unwrap_or(0);
        assert!(
            all.iter().all(|s| s.len() == len),
            "summarize_series: unequal series lengths"
        );
        let mut means = Vec::with_capacity(len);
        let mut stds = Vec::with_capacity(len);
        for k in 0..len {
            let mut s = Summary::new();
            for trial in &all {
                s.push(trial[k]);
            }
            means.push(s.mean());
            // Population std over the trial dimension, matching the error
            // shades of the paper's Fig. 3.
            stds.push(s.std_dev_population());
        }
        (means, stds)
    }

    /// All per-user action series across all trials (the 5 x 1000 curves
    /// of the paper's Fig. 4), as (trial, user, series) triples flattened
    /// to a vector of series.
    pub fn all_user_series(
        &self,
        extract: impl Fn(&LoopRecord, usize) -> Vec<f64>,
    ) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        for r in &self.records {
            for i in 0..r.user_count() {
                out.push(extract(r, i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqimpact_stats::SimRng;

    fn make_record(seed: usize, steps: usize) -> LoopRecord {
        let mut rng = SimRng::new(seed as u64);
        let mut r = LoopRecord::new(3);
        for _ in 0..steps {
            let actions: Vec<f64> = (0..3)
                .map(|_| if rng.bernoulli(0.3) { 1.0 } else { 0.0 })
                .collect();
            r.push_step(&[0.0; 3], &actions, &[0.0; 3]);
        }
        r
    }

    #[test]
    fn trials_are_deterministic_per_index() {
        let a = run_trials(4, |t| make_record(t, 50));
        let b = run_trials(4, |t| make_record(t, 50));
        assert_eq!(a.records, b.records);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_trials_differ() {
        let set = run_trials(2, |t| make_record(t, 200));
        assert_ne!(set.records[0], set.records[1]);
    }

    #[test]
    fn summarize_scalar() {
        let set = run_trials(8, |t| make_record(t, 500));
        let s = set.summarize(|r| r.mean_actions().iter().sum::<f64>() / r.steps() as f64);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 0.3).abs() < 0.08, "mean = {}", s.mean());
    }

    #[test]
    fn summarize_series_shapes() {
        let set = run_trials(5, |t| make_record(t, 100));
        let (mean, std) = set.summarize_series(|r| r.mean_actions());
        assert_eq!(mean.len(), 100);
        assert_eq!(std.len(), 100);
        assert!(std.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn all_user_series_flattens() {
        let set = run_trials(5, |t| make_record(t, 10));
        let series = set.all_user_series(|r, i| r.user_actions(i));
        // 5 trials x 3 users.
        assert_eq!(series.len(), 15);
        assert!(series.iter().all(|s| s.len() == 10));
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn zero_trials_rejected() {
        run_trials(0, |t| make_record(t, 1));
    }

    #[test]
    fn many_more_trials_than_cores_preserve_order() {
        // Far above any machine's parallelism: exercises the striping.
        let set = run_trials(64, |t| make_record(t, 3));
        assert_eq!(set.len(), 64);
        assert_eq!(set.records[10], make_record(10, 3));
        assert_eq!(set.records[63], make_record(63, 3));
    }

    #[test]
    fn run_trials_with_arbitrary_outcome_type() {
        let squares = run_trials_with(5, |t| t * t);
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn panics_carry_the_trial_index() {
        let result = std::panic::catch_unwind(|| {
            run_trials(8, |t| {
                if t == 5 {
                    panic!("boom");
                }
                make_record(t, 5)
            })
        });
        let payload = result.expect_err("must propagate the panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string panic message");
        assert!(message.contains("trial 5 panicked"), "message: {message}");
        assert!(message.contains("boom"), "message: {message}");
    }

    #[test]
    #[should_panic(expected = "unequal series lengths")]
    fn unequal_series_rejected() {
        let set = run_trials(2, |t| make_record(t, 10 + t));
        let _ = set.summarize_series(|r| r.mean_actions());
    }
}
