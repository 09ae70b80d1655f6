//! Multi-trial execution: the paper's protocol of five independent trials,
//! each with a fresh batch of users, run in parallel with deterministic
//! per-trial seeds.
//!
//! The trials are one [`run_indexed`] batch: they stripe over lanes
//! leased from the process-wide [`ThreadBudget`], so trial parallelism
//! composes with intra-trial sharding instead of multiplying with it — a
//! [`ShardedRunner`](crate::shard::ShardedRunner) nested inside a trial
//! finds the budget spent and sweeps sequentially on its own lane. A
//! panic inside any trial is re-raised on the caller's thread with the
//! trial index attached.

use crate::pool::{run_indexed, ThreadBudget};

/// Runs `trials` independent trials of any outcome type in parallel, on
/// worker threads leased from the **global** [`ThreadBudget`].
/// `factory(trial_index)` must build and run one complete trial; it
/// receives the trial index so it can derive a deterministic seed (the
/// convention is `base_seed + trial_index`). Results come back in trial
/// order. The lease is held for the whole protocol, and the lanes return
/// to the budget when every trial has finished.
///
/// # Panics
/// Panics when `trials == 0`, and re-raises the lowest-indexed per-trial
/// panic as `"trial <index> panicked: <message>"` once every trial has
/// finished.
pub fn run_trials_with<T, F>(trials: usize, factory: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(trials > 0, "run_trials_with: zero trials");
    run_indexed(ThreadBudget::global(), trials, factory)
        .into_iter()
        .enumerate()
        .map(|(t, outcome)| {
            outcome.unwrap_or_else(|message| panic!("trial {t} panicked: {message}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::LoopRecord;
    use eqimpact_stats::describe::Summary;
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
        let a = run_trials_with(4, |t| make_record(t, 50));
        let b = run_trials_with(4, |t| make_record(t, 50));
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn different_trials_differ() {
        let records = run_trials_with(2, |t| make_record(t, 200));
        assert_ne!(records[0], records[1]);
    }

    #[test]
    fn summarize_scalar() {
        let records = run_trials_with(8, |t| make_record(t, 500));
        let mut s = Summary::new();
        for r in &records {
            s.push(r.mean_actions().iter().sum::<f64>() / r.steps() as f64);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 0.3).abs() < 0.08, "mean = {}", s.mean());
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn zero_trials_rejected() {
        run_trials_with(0, |t| make_record(t, 1));
    }

    #[test]
    fn many_more_trials_than_cores_preserve_order() {
        // Far above any machine's parallelism: exercises the striping.
        let records = run_trials_with(64, |t| make_record(t, 3));
        assert_eq!(records.len(), 64);
        assert_eq!(records[10], make_record(10, 3));
        assert_eq!(records[63], make_record(63, 3));
    }

    #[test]
    fn run_trials_with_arbitrary_outcome_type() {
        let squares = run_trials_with(5, |t| t * t);
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn panics_carry_the_trial_index() {
        let result = std::panic::catch_unwind(|| {
            run_trials_with(8, |t| {
                if t == 3 || t == 6 {
                    panic!("boom {t}");
                }
                make_record(t, 5)
            })
        });
        let payload = result.expect_err("must propagate the panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string panic message");
        assert!(
            message.starts_with("trial 3 panicked: boom 3"),
            "the lowest-indexed panic wins: {message}"
        );
    }
}
