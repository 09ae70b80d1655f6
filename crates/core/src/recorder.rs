//! Telemetry of a closed-loop run.
//!
//! [`LoopRecord`] stores its per-step matrices **flat** (one contiguous
//! `Vec<f64>` per channel, row-major over steps) so recording a step is a
//! bounds-checked `extend_from_slice` with no per-step allocation once
//! capacity is reserved, and step slices come back as contiguous memory.

use crate::features::FeatureMatrix;
use eqimpact_stats::json::{Json, ToJson};

/// An observer of the loop's raw per-step telemetry, fed by
/// [`LoopRunner::run_with_sink`](crate::closed_loop::LoopRunner::run_with_sink)
/// and its sharded twin *in addition to* the [`LoopRecord`] they return.
///
/// A sink sees strictly more than the record: the visible features of
/// every step (which the record drops), so a trace store can capture
/// everything needed to re-drive the loop without re-simulating the
/// population. Both runners call [`Self::on_step`] at the step barrier,
/// after the filter ran — sequentially and in step order, regardless of
/// the shard count.
///
/// The unit type `()` is the no-op sink (what the plain `run` methods
/// use); `Box<dyn StepSink + Send>` forwards, so type-erased sinks plug
/// into the generic runners.
pub trait StepSink {
    /// Optional per-user group metadata (e.g. race per user), delivered
    /// by the workload once, before the first step. Defaults to a no-op.
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        let _ = (labels, codes);
    }

    /// One completed step: the features the AI saw, the signals it
    /// broadcast, the population's actions, and the filter's per-user
    /// output.
    fn on_step(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    );

    /// Whether this sink wants per-retrain model checkpoints. The
    /// runners only ask the AI system to capture its state when this
    /// returns `true` (checkpoint capture is not free), and only sinks
    /// that return `true` receive [`Self::on_checkpoint`] calls.
    fn wants_checkpoints(&self) -> bool {
        false
    }

    /// One model checkpoint, captured right after the retrain of step
    /// `k`'s delayed feedback. Called at the step barrier like
    /// [`Self::on_step`], after the `on_step` of the same `k`. Defaults
    /// to a no-op.
    fn on_checkpoint(&mut self, k: usize, checkpoint: &crate::checkpoint::ModelCheckpoint) {
        let _ = (k, checkpoint);
    }
}

impl StepSink for () {
    fn on_step(
        &mut self,
        _k: usize,
        _visible: &FeatureMatrix,
        _signals: &[f64],
        _actions: &[f64],
        _filtered: &[f64],
    ) {
    }
}

impl<T: StepSink + ?Sized> StepSink for Box<T> {
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        (**self).on_groups(labels, codes)
    }
    fn on_step(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    ) {
        (**self).on_step(k, visible, signals, actions, filtered)
    }
    fn wants_checkpoints(&self) -> bool {
        (**self).wants_checkpoints()
    }
    fn on_checkpoint(&mut self, k: usize, checkpoint: &crate::checkpoint::ModelCheckpoint) {
        (**self).on_checkpoint(k, checkpoint)
    }
}

/// How much telemetry [`LoopRecord`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordPolicy {
    /// Keep every per-user series (signals, actions, filtered values).
    #[default]
    Full,
    /// Keep per-step aggregates only (mean action per step). Memory is
    /// `O(steps)` instead of `O(steps x users)` — the production setting
    /// for million-user populations.
    Thin,
}

/// The record of a loop run: per-step signals, actions, and filtered
/// per-user values (under [`RecordPolicy::Full`]), with derived Cesàro
/// trajectories, or per-step aggregates only (under
/// [`RecordPolicy::Thin`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopRecord {
    user_count: usize,
    steps: usize,
    policy: RecordPolicy,
    /// Flat `steps x user_count`: `signals[k * n + i]` = π(k, i).
    signals: Vec<f64>,
    /// Flat `steps x user_count`: `actions[k * n + i]` = y_i(k).
    actions: Vec<f64>,
    /// Flat `steps x user_count`: the filter's per-user output at step k
    /// (e.g. running ADR).
    filtered: Vec<f64>,
    /// Exact aggregate action `Σ_i y_i(k)` per step (kept under every
    /// policy; means derive from it).
    step_action_sums: Vec<f64>,
}

impl LoopRecord {
    /// Creates an empty full-telemetry record for `user_count` users.
    pub fn new(user_count: usize) -> Self {
        LoopRecord::with_policy(user_count, RecordPolicy::Full)
    }

    /// Creates an empty record with an explicit policy.
    pub fn with_policy(user_count: usize, policy: RecordPolicy) -> Self {
        LoopRecord {
            user_count,
            steps: 0,
            policy,
            signals: Vec::new(),
            actions: Vec::new(),
            filtered: Vec::new(),
            step_action_sums: Vec::new(),
        }
    }

    /// Pre-allocates room for `steps` more steps, so recording allocates
    /// at most once up front.
    pub fn reserve(&mut self, steps: usize) {
        if self.policy == RecordPolicy::Full {
            let cells = steps * self.user_count;
            self.signals.reserve(cells);
            self.actions.reserve(cells);
            self.filtered.reserve(cells);
        }
        self.step_action_sums.reserve(steps);
    }

    /// Appends one step of telemetry.
    ///
    /// # Panics
    /// Panics when any slice length differs from the user count.
    pub fn push_step(&mut self, signals: &[f64], actions: &[f64], filtered: &[f64]) {
        assert_eq!(signals.len(), self.user_count, "signals length");
        assert_eq!(actions.len(), self.user_count, "actions length");
        assert_eq!(filtered.len(), self.user_count, "filtered length");
        if self.policy == RecordPolicy::Full {
            self.signals.extend_from_slice(signals);
            self.actions.extend_from_slice(actions);
            self.filtered.extend_from_slice(filtered);
        }
        self.step_action_sums.push(actions.iter().sum());
        self.steps += 1;
    }

    /// Number of recorded steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.user_count
    }

    /// The record's policy.
    pub fn policy(&self) -> RecordPolicy {
        self.policy
    }

    fn full_slice<'a>(&self, channel: &'a [f64], k: usize, what: &str) -> &'a [f64] {
        assert_eq!(
            self.policy,
            RecordPolicy::Full,
            "{what}: thin records keep per-step aggregates only"
        );
        assert!(k < self.steps, "{what}: step {k} out of {}", self.steps);
        &channel[k * self.user_count..(k + 1) * self.user_count]
    }

    /// Signals of step `k`.
    ///
    /// # Panics
    /// Panics for [`RecordPolicy::Thin`] records or `k` out of range.
    pub fn signals(&self, k: usize) -> &[f64] {
        self.full_slice(&self.signals, k, "signals")
    }

    /// Actions of step `k`.
    ///
    /// # Panics
    /// Panics for [`RecordPolicy::Thin`] records or `k` out of range.
    pub fn actions(&self, k: usize) -> &[f64] {
        self.full_slice(&self.actions, k, "actions")
    }

    /// Filtered per-user values of step `k`.
    ///
    /// # Panics
    /// Panics for [`RecordPolicy::Thin`] records or `k` out of range.
    pub fn filtered(&self, k: usize) -> &[f64] {
        self.full_slice(&self.filtered, k, "filtered")
    }

    /// User `i`'s value of `channel` at each step, read in place.
    fn user_series<'a>(
        &self,
        channel: &'a [f64],
        i: usize,
        what: &str,
    ) -> impl Iterator<Item = f64> + 'a {
        assert_eq!(
            self.policy,
            RecordPolicy::Full,
            "{what}: thin records keep per-step aggregates only"
        );
        assert!(
            i < self.user_count,
            "{what}: user {i} out of {}",
            self.user_count
        );
        channel.iter().skip(i).step_by(self.user_count).copied()
    }

    /// The action time series of user `i`.
    pub fn user_actions(&self, i: usize) -> Vec<f64> {
        self.user_series(&self.actions, i, "user_actions").collect()
    }

    /// The filtered time series of user `i` (e.g. `{ADR_i(k)}_k`), step
    /// by step, read in place.
    pub fn user_filtered(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        self.user_series(&self.filtered, i, "user_filtered")
    }

    /// Aggregate action `y(k) = Σ_i y_i(k)` per step (exact sums).
    pub fn aggregate_actions(&self) -> Vec<f64> {
        self.step_action_sums.clone()
    }

    /// Mean action per step (available under every policy).
    pub fn mean_actions(&self) -> Vec<f64> {
        let n = self.user_count;
        self.step_action_sums
            .iter()
            .map(|&s| if n == 0 { 0.0 } else { s / n as f64 })
            .collect()
    }

    /// Serializes the record to a JSON value (see [`Self::from_json`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("user_count", self.user_count.to_json()),
            ("steps", self.steps.to_json()),
            (
                "policy",
                match self.policy {
                    RecordPolicy::Full => "full",
                    RecordPolicy::Thin => "thin",
                }
                .to_json(),
            ),
            ("signals", self.signals.to_json()),
            ("actions", self.actions.to_json()),
            ("filtered", self.filtered.to_json()),
            ("aggregate_actions", self.step_action_sums.to_json()),
        ])
    }

    /// Deserializes a record produced by [`Self::to_json`].
    ///
    /// Non-finite cells are written as `null` by the JSON layer (JSON has
    /// no NaN); this reader maps them back to `f64::NAN`, so a record
    /// containing NaN filter outputs round-trips functionally (note that
    /// `PartialEq` on such records is still `false`, as NaN != NaN).
    pub fn from_json(doc: &Json) -> Result<LoopRecord, String> {
        let field = |name: &str| doc.get(name).ok_or_else(|| format!("missing field {name}"));
        let vec_field = |name: &str| -> Result<Vec<f64>, String> {
            field(name)?
                .as_arr()
                .ok_or_else(|| format!("field {name} is not an array"))?
                .iter()
                .map(|cell| match cell {
                    Json::Num(x) => Ok(*x),
                    Json::Null => Ok(f64::NAN),
                    _ => Err(format!("field {name} holds a non-numeric element")),
                })
                .collect()
        };
        let user_count = field("user_count")?
            .as_usize()
            .ok_or("user_count is not an integer")?;
        let steps = field("steps")?
            .as_usize()
            .ok_or("steps is not an integer")?;
        let policy = match field("policy")?.as_str() {
            Some("full") => RecordPolicy::Full,
            Some("thin") => RecordPolicy::Thin,
            _ => return Err("policy must be \"full\" or \"thin\"".to_string()),
        };
        let record = LoopRecord {
            user_count,
            steps,
            policy,
            signals: vec_field("signals")?,
            actions: vec_field("actions")?,
            filtered: vec_field("filtered")?,
            step_action_sums: vec_field("aggregate_actions")?,
        };
        let cells = match policy {
            RecordPolicy::Full => steps * user_count,
            RecordPolicy::Thin => 0,
        };
        if record.signals.len() != cells
            || record.actions.len() != cells
            || record.filtered.len() != cells
            || record.step_action_sums.len() != steps
        {
            return Err("channel lengths inconsistent with steps x user_count".to_string());
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> LoopRecord {
        let mut r = LoopRecord::new(2);
        r.push_step(&[1.0, 1.0], &[1.0, 0.0], &[1.0, 0.0]);
        r.push_step(&[0.5, 0.5], &[0.0, 0.0], &[0.5, 0.0]);
        r.push_step(&[0.2, 0.2], &[1.0, 1.0], &[2.0 / 3.0, 1.0 / 3.0]);
        r
    }

    #[test]
    fn dimensions_and_access() {
        let r = sample_record();
        assert_eq!(r.steps(), 3);
        assert_eq!(r.user_count(), 2);
        assert_eq!(r.policy(), RecordPolicy::Full);
        assert_eq!(r.signals(1), &[0.5, 0.5]);
        assert_eq!(r.actions(2), &[1.0, 1.0]);
        assert_eq!(r.filtered(0), &[1.0, 0.0]);
    }

    #[test]
    fn per_user_series() {
        let r = sample_record();
        assert_eq!(r.user_actions(0), vec![1.0, 0.0, 1.0]);
        let filtered: Vec<f64> = r.user_filtered(0).collect();
        assert_eq!(filtered, vec![1.0, 0.5, 2.0 / 3.0]);
    }

    #[test]
    fn aggregates() {
        let r = sample_record();
        assert_eq!(r.aggregate_actions(), vec![1.0, 0.0, 2.0]);
        assert_eq!(r.mean_actions(), vec![0.5, 0.0, 1.0]);
    }

    #[test]
    fn empty_record() {
        let r = LoopRecord::new(4);
        assert_eq!(r.steps(), 0);
        assert!(r.aggregate_actions().is_empty());
    }

    #[test]
    fn thin_policy_keeps_aggregates_only() {
        let mut r = LoopRecord::with_policy(2, RecordPolicy::Thin);
        r.push_step(&[1.0, 1.0], &[1.0, 0.0], &[1.0, 0.0]);
        r.push_step(&[1.0, 1.0], &[1.0, 1.0], &[1.0, 0.5]);
        assert_eq!(r.steps(), 2);
        assert_eq!(r.mean_actions(), vec![0.5, 1.0]);
        assert_eq!(r.aggregate_actions(), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "aggregates only")]
    fn thin_policy_rejects_per_user_access() {
        let mut r = LoopRecord::with_policy(1, RecordPolicy::Thin);
        r.push_step(&[1.0], &[1.0], &[1.0]);
        r.signals(0);
    }

    #[test]
    fn json_roundtrip_full_and_thin() {
        let full = sample_record();
        let mut thin = LoopRecord::with_policy(2, RecordPolicy::Thin);
        thin.push_step(&[1.0, 0.0], &[1.0, 0.0], &[0.5, 0.5]);
        for record in [full, thin] {
            let text = record.to_json().render_pretty();
            let parsed = eqimpact_stats::json::parse(&text).unwrap();
            let back = LoopRecord::from_json(&parsed).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn json_roundtrips_nan_cells_via_null() {
        // Custom filters may emit NaN per-user values (e.g. group
        // trackers over empty sets); those cells serialize as null and
        // must come back as NaN.
        let mut r = LoopRecord::new(1);
        r.push_step(&[1.0], &[0.5], &[f64::NAN]);
        let text = r.to_json().render();
        assert!(text.contains("null"), "text = {text}");
        let back = LoopRecord::from_json(&eqimpact_stats::json::parse(&text).unwrap()).unwrap();
        assert!(back.filtered(0)[0].is_nan());
        assert_eq!(back.actions(0), &[0.5]);
    }

    #[test]
    fn json_rejects_inconsistent_lengths() {
        let mut doc = sample_record().to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "steps" {
                    *v = Json::Num(99.0);
                }
            }
        }
        assert!(LoopRecord::from_json(&doc).is_err());
    }

    #[test]
    #[should_panic(expected = "actions length")]
    fn push_checks_lengths() {
        let mut r = LoopRecord::new(2);
        r.push_step(&[0.0, 0.0], &[0.0], &[0.0, 0.0]);
    }
}
