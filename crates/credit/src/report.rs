//! Extraction of the paper's artifacts (Table I, Figs. 2-5) from trial
//! outcomes, as plain data structures and CSV renderers.

use crate::sim::CreditOutcome;
use eqimpact_census::{IncomeTable, Race, BRACKETS};
use eqimpact_ml::scorecard::Scorecard;
use eqimpact_stats::describe::Summary;
use eqimpact_stats::hist::Histogram2D;
use eqimpact_stats::{Json, ToJson};
use std::collections::BTreeMap;
use std::fmt::Write;

/// The paper's Table I reference values: `(history, income)` points.
pub const TABLE1_PAPER_REFERENCE: (f64, f64) = (-8.17, 5.77);

/// Table I: a learned scorecard condensed to the paper's comparison —
/// the single extraction shared by the `credit` scenario and the bench
/// harness, so the published artifact cannot fork from the test surface.
#[derive(Debug, Clone)]
pub struct Table1Scorecard {
    /// Learned points per unit of average default rate ("History").
    pub history_points: f64,
    /// Learned points for the income code ("Income > $15K").
    pub income_points: f64,
    /// Learned base points (intercept).
    pub base_points: f64,
    /// The paper's reference values [`TABLE1_PAPER_REFERENCE`].
    pub paper_reference: (f64, f64),
    /// The worked example's score for ADR 0.1, income code 1 (the paper
    /// reports 4.953 for its reference card, excluding base points).
    pub example_score: f64,
}

impl Table1Scorecard {
    /// Condenses a learned scorecard (factor order: History = ADR,
    /// Income = code) to the Table I comparison.
    pub fn from_scorecard(card: &Scorecard) -> Self {
        let history = card.rows[0].points_per_unit;
        let income = card.rows[1].points_per_unit;
        Table1Scorecard {
            history_points: history,
            income_points: income,
            base_points: card.base_points,
            paper_reference: TABLE1_PAPER_REFERENCE,
            example_score: history * 0.1 + income,
        }
    }
}

impl ToJson for Table1Scorecard {
    fn to_json(&self) -> Json {
        Json::obj([
            ("history_points", self.history_points.to_json()),
            ("income_points", self.income_points.to_json()),
            ("base_points", self.base_points.to_json()),
            ("paper_reference", self.paper_reference.to_json()),
            ("example_score", self.example_score.to_json()),
        ])
    }
}

/// Fig. 3 data: per race, the cross-trial mean and ±1 standard deviation
/// of `{ADR_s(k)}` per step.
#[derive(Debug, Clone)]
pub struct RaceAdrSummary {
    /// The race.
    pub race: String,
    /// Per-step mean across trials.
    pub mean: Vec<f64>,
    /// Per-step population standard deviation across trials.
    pub std: Vec<f64>,
}

/// Builds the Fig. 3 series from a set of trial outcomes.
///
/// # Panics
/// Panics when `outcomes` is empty or trials disagree on step counts.
pub fn fig3_race_adr(outcomes: &[CreditOutcome]) -> Vec<RaceAdrSummary> {
    assert!(!outcomes.is_empty(), "fig3: no outcomes");
    let steps = outcomes[0].record.steps();
    assert!(
        outcomes.iter().all(|o| o.record.steps() == steps),
        "fig3: unequal step counts"
    );
    Race::ALL
        .iter()
        .map(|&race| {
            let series: Vec<Vec<f64>> = outcomes.iter().map(|o| o.race_adr_series(race)).collect();
            let mut mean = Vec::with_capacity(steps);
            let mut std = Vec::with_capacity(steps);
            for k in 0..steps {
                let mut s = Summary::new();
                for trial in &series {
                    if !trial[k].is_nan() {
                        s.push(trial[k]);
                    }
                }
                mean.push(s.mean());
                std.push(s.std_dev_population());
            }
            RaceAdrSummary {
                race: race.label().to_string(),
                mean,
                std,
            }
        })
        .collect()
}

/// Fig. 5 data: the (step x ADR) density histogram over all users and
/// trials, race information erased.
pub fn fig5_density(outcomes: &[CreditOutcome], adr_bins: usize) -> Histogram2D {
    assert!(!outcomes.is_empty(), "fig5: no outcomes");
    let steps = outcomes[0].record.steps();
    let mut hist = Histogram2D::new(steps, 0.0, 1.0 + 1e-9, adr_bins);
    for o in outcomes {
        for k in 0..steps.min(o.record.steps()) {
            for &adr in o.record.filtered(k) {
                hist.add(k, adr);
            }
        }
    }
    hist
}

/// Fig. 2 data: the embedded table's income distribution of a year by
/// race, as `(bracket label, [share per race in Race::ALL order])` rows.
pub fn fig2_income_distribution(year: u32) -> Vec<(String, [f64; 3])> {
    let table = IncomeTable::embedded();
    BRACKETS
        .iter()
        .enumerate()
        .map(|(b, bracket)| {
            let mut row = [0.0; 3];
            for race in Race::ALL {
                row[race.index()] = table
                    .shares(year, race)
                    .expect("caller passes a valid year")[b];
            }
            (bracket.label.to_string(), row)
        })
        .collect()
}

// The CSV renderers below append straight into their output `String`;
// writing into a `String` cannot fail, so the `fmt::Result`s are dropped.

/// Renders the Fig. 3 series as CSV:
/// `year,race,mean,std`.
pub fn fig3_csv(summaries: &[RaceAdrSummary], first_year: u32) -> String {
    let mut csv = String::from("year,race,mean_adr,std_adr\n");
    for s in summaries {
        for (k, (m, sd)) in s.mean.iter().zip(&s.std).enumerate() {
            let year = first_year + k as u32;
            let _ = writeln!(csv, "{year},{},{m:.6},{sd:.6}", s.race);
        }
    }
    csv
}

/// Renders Fig. 4 as CSV, `series_id,race,year,adr`: every `{ADR_i(k)}`
/// trajectory across all trials, tagged with its race label (the
/// paper's 5 x 1000 coloured curves). The series are the users of each
/// outcome in turn, each read in place from the record's filtered
/// channel.
///
/// Each row is `"{id},{race},{year},{adr:.6}"`, assembled from pieces
/// formatted once: a series' `"{id},{race},"` prefix once per series, a
/// year once per call, and an ADR once per distinct bit pattern. The
/// memo stays small: an ADR is defaults ÷ offers with at most one offer
/// a year, so over 19 years it takes at most 121 distinct values (the
/// fractions in [0, 1] with a denominator up to 19), however many rows
/// there are.
///
/// # Panics
/// Panics for a [`RecordPolicy::Thin`](eqimpact_core::recorder::RecordPolicy::Thin)
/// record, or an outcome with fewer races than users.
pub fn fig4_csv(outcomes: &[CreditOutcome], first_year: u32) -> String {
    const HEADER: &str = "series_id,race,year,adr\n";
    // A paper-scale row is 27 bytes plus the id's digits.
    const ROW_BYTES: usize = 32;
    let rows: usize = outcomes
        .iter()
        .map(|o| o.record.user_count() * o.record.steps())
        .sum();
    let steps = outcomes.iter().map(|o| o.record.steps()).max().unwrap_or(0);
    let years: Vec<String> = (0..steps)
        .map(|k| format!("{},", first_year + k as u32))
        .collect();
    let mut adr_text: BTreeMap<u64, String> = BTreeMap::new();
    // Most rows repeat the ADR of the row before (82% at paper scale), so
    // the last value is checked before the memo.
    let (mut last_bits, mut text) = (None, "");
    let mut prefix = String::new();
    let mut csv = String::with_capacity(HEADER.len() + rows * ROW_BYTES);
    csv.push_str(HEADER);
    let series = outcomes
        .iter()
        .flat_map(|o| (0..o.record.user_count()).map(move |i| (o.races[i].label(), o, i)));
    for (id, (race, o, i)) in series.enumerate() {
        prefix.clear();
        let _ = write!(prefix, "{id},{race},");
        for (year, adr) in years.iter().zip(o.record.user_filtered(i)) {
            let bits = adr.to_bits();
            if last_bits != Some(bits) {
                last_bits = Some(bits);
                text = adr_text
                    .entry(bits)
                    .or_insert_with(|| format!("{adr:.6}\n"));
            }
            csv.push_str(&prefix);
            csv.push_str(year);
            csv.push_str(text);
        }
    }
    csv
}

/// Renders the Fig. 5 density as CSV: `year,adr_bin_center,density`.
pub fn fig5_csv(hist: &Histogram2D, first_year: u32) -> String {
    let mut csv = String::from("year,adr,density\n");
    for x in 0..hist.x_len() {
        for b in 0..hist.y_bins() {
            let _ = writeln!(
                csv,
                "{},{:.4},{:.6}",
                first_year + x as u32,
                hist.y_bin_center(b),
                hist.col_density(x, b)
            );
        }
    }
    csv
}

/// Renders the Fig. 2 distribution as CSV: `bracket,black,white,asian`.
pub fn fig2_csv(rows: &[(String, [f64; 3])]) -> String {
    let mut csv = String::from("bracket,black_alone,white_alone,asian_alone\n");
    for (label, [black, white, asian]) in rows {
        let _ = writeln!(csv, "{label},{black:.4},{white:.4},{asian:.4}");
    }
    csv
}

/// Approval-rate series by race: `rates[race_index][k]` = fraction of the
/// race approved at step `k`, averaged across trials. The access view of
/// the introduction's example.
pub fn approval_rates_by_race(outcomes: &[CreditOutcome]) -> Vec<Vec<f64>> {
    assert!(!outcomes.is_empty(), "approval rates: no outcomes");
    let steps = outcomes[0].record.steps();
    Race::ALL
        .iter()
        .map(|&race| {
            (0..steps)
                .map(|k| {
                    let mut approved = 0usize;
                    let mut total = 0usize;
                    for o in outcomes {
                        let members = o.race_indices(race);
                        let signals = o.record.signals(k);
                        for &i in &members {
                            total += 1;
                            if signals[i] > 0.0 {
                                approved += 1;
                            }
                        }
                    }
                    if total == 0 {
                        f64::NAN
                    } else {
                        approved as f64 / total as f64
                    }
                })
                .collect()
        })
        .collect()
}

/// Renders the approval series as CSV: `year,race,approval_rate`.
pub fn approval_csv(rates: &[Vec<f64>], first_year: u32) -> String {
    let mut csv = String::from("year,race,approval_rate\n");
    for (race, series) in Race::ALL.iter().zip(rates) {
        for (k, r) in series.iter().enumerate() {
            let year = first_year + k as u32;
            let _ = writeln!(csv, "{year},{},{r:.6}", race.label());
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_trials_protocol, CreditConfig, LenderKind};
    use eqimpact_core::recorder::LoopRecord;
    use eqimpact_stats::SimRng;
    use std::collections::BTreeSet;

    fn outcomes() -> Vec<CreditOutcome> {
        run_trials_protocol(&CreditConfig {
            users: 150,
            steps: 19,
            trials: 2,
            seed: 42,
            lender: LenderKind::Scorecard,
            ..Default::default()
        })
    }

    #[test]
    fn fig3_shapes_and_content() {
        let o = outcomes();
        let summaries = fig3_race_adr(&o);
        assert_eq!(summaries.len(), 3);
        for s in &summaries {
            assert_eq!(s.mean.len(), 19);
            assert_eq!(s.std.len(), 19);
            assert!(s.std.iter().all(|&v| v >= 0.0 || v.is_nan()));
        }
        let csv = fig3_csv(&summaries, 2002);
        assert!(csv.starts_with("year,race"));
        assert!(csv.contains("2002,BLACK ALONE"));
        assert!(csv.contains("2020,ASIAN ALONE"));
        // 3 races x 19 years + header.
        assert_eq!(csv.lines().count(), 3 * 19 + 1);
    }

    #[test]
    fn fig4_has_all_trajectories() {
        let o = outcomes();
        let csv = fig4_csv(&o, 2002);
        assert_eq!(csv.lines().count(), 2 * 150 * 19 + 1);
        assert!(csv.lines().last().unwrap().starts_with("299,"));
        assert_eq!(csv, fig4_csv_oracle(&o, 2002));
    }

    /// The reference rendering of `fig4_csv`: user by user, one
    /// `writeln!` per step.
    fn fig4_csv_oracle(outcomes: &[CreditOutcome], first_year: u32) -> String {
        let mut csv = String::from("series_id,race,year,adr\n");
        let mut id = 0;
        for o in outcomes {
            for (i, race) in o.races.iter().enumerate() {
                for k in 0..o.record.steps() {
                    let year = first_year + k as u32;
                    let adr = o.record.filtered(k)[i];
                    let _ = writeln!(csv, "{id},{race},{year},{adr:.6}");
                }
                id += 1;
            }
        }
        csv
    }

    /// An outcome whose record holds `series[i]` as user `i`'s filtered
    /// values (the series are of equal length).
    fn outcome_of(races: &[Race], series: &[Vec<f64>]) -> CreditOutcome {
        let steps = series.first().map_or(0, Vec::len);
        let zeros = vec![0.0; races.len()];
        let mut record = LoopRecord::new(races.len());
        for k in 0..steps {
            let filtered: Vec<f64> = series.iter().map(|s| s[k]).collect();
            record.push_step(&zeros, &zeros, &filtered);
        }
        CreditOutcome {
            record,
            races: races.to_vec(),
            scorecard: None,
        }
    }

    #[test]
    fn fig4_csv_matches_the_writeln_oracle() {
        let mut special = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            1e300,
            -1e300,
            -0.25,
            -3.0000005,
            1.0,
        ];
        // One ulp either side of a tie at the sixth decimal, and the tie.
        for tie in [0.0000005, 0.1234565, -0.0000005] {
            special.extend([f64::next_down(tie), tie, f64::next_up(tie)]);
        }
        let mut rng = SimRng::new(22);
        let random: Vec<f64> = (0..10_000).map(|_| rng.uniform_in(-2.0, 2.0)).collect();
        let distinct: BTreeSet<u64> = random.iter().map(|x| x.to_bits()).collect();
        assert_eq!(distinct.len(), random.len());
        // Repeats through the memo, records of unequal length, one with
        // users but no steps (its series are numbered, with no rows) and
        // one with no users.
        let outcomes = [
            outcome_of(
                &[Race::Black, Race::White],
                &[special.clone(), special.iter().rev().copied().collect()],
            ),
            outcome_of(&[Race::Asian, Race::Asian], &[Vec::new(), Vec::new()]),
            outcome_of(
                &[Race::White, Race::Asian],
                &[random[..5_000].to_vec(), random[5_000..].to_vec()],
            ),
            outcome_of(&[], &[]),
            outcome_of(&[Race::Black], &[vec![0.5; 19]]),
        ];
        for first_year in [2002, 0] {
            assert_eq!(
                fig4_csv(&outcomes, first_year),
                fig4_csv_oracle(&outcomes, first_year)
            );
        }
        assert_eq!(fig4_csv(&[], 2002), fig4_csv_oracle(&[], 2002));
        assert_eq!(fig4_csv(&[], 2002), "series_id,race,year,adr\n");
    }

    #[test]
    fn fig5_density_masses() {
        let o = outcomes();
        let hist = fig5_density(&o, 20);
        assert_eq!(hist.x_len(), 19);
        assert_eq!(hist.y_bins(), 20);
        // Every column holds all users of all trials.
        for k in 0..19 {
            assert_eq!(hist.col_total(k), 2 * 150);
        }
        let csv = fig5_csv(&hist, 2002);
        assert_eq!(csv.lines().count(), 19 * 20 + 1);
    }

    #[test]
    fn approval_series_shapes() {
        let o = outcomes();
        let rates = approval_rates_by_race(&o);
        assert_eq!(rates.len(), 3);
        for series in &rates {
            assert_eq!(series.len(), 19);
            // Warmup years approve everyone.
            assert_eq!(series[0], 1.0);
            assert_eq!(series[1], 1.0);
            for &r in series.iter() {
                assert!((0.0..=1.0).contains(&r) || r.is_nan());
            }
        }
        let csv = approval_csv(&rates, 2002);
        assert_eq!(csv.lines().count(), 3 * 19 + 1);
        assert!(csv.contains("2002,BLACK ALONE,1.000000"));
    }

    #[test]
    fn fig2_rows_cover_brackets() {
        let rows = fig2_income_distribution(2020);
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].0, "under 15");
        // Shares per race sum to ~1 down the column.
        for race in 0..3 {
            let total: f64 = rows.iter().map(|(_, s)| s[race]).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        let csv = fig2_csv(&rows);
        assert!(csv.contains("over 200"));
        assert_eq!(csv.lines().count(), 10);
    }
}
