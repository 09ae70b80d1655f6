//! Integration: the full Sec. VII credit pipeline — census sampling, the
//! repayment model, ADR filtering, scorecard retraining, figures.

use eqimpact_census::Race;
use eqimpact_core::impact::{conditioned_equal_impact_report, group_limits};
use eqimpact_credit::report;
use eqimpact_credit::sim::{run_trial, run_trials_protocol, CreditConfig, LenderKind};

fn config(users: usize, lender: LenderKind) -> CreditConfig {
    CreditConfig {
        users,
        steps: 19,
        trials: 3,
        seed: 11,
        lender,
        ..Default::default()
    }
}

#[test]
fn adr_values_are_valid_probabilities() {
    let outcome = run_trial(&config(300, LenderKind::Scorecard), 0);
    for k in 0..outcome.record.steps() {
        for &adr in outcome.record.filtered(k) {
            assert!((0.0..=1.0).contains(&adr), "ADR out of range: {adr}");
        }
    }
}

#[test]
fn adr_monotonicity_for_denied_users() {
    // A user denied at step k keeps the same ADR at step k+1 (no new
    // offers change the ratio).
    let outcome = run_trial(&config(300, LenderKind::Scorecard), 0);
    for k in 2..outcome.record.steps() - 1 {
        let signals_next = outcome.record.signals(k + 1);
        let adr_now = outcome.record.filtered(k);
        let adr_next = outcome.record.filtered(k + 1);
        for i in 0..300 {
            if signals_next[i] == 0.0 {
                assert!(
                    (adr_now[i] - adr_next[i]).abs() < 1e-12,
                    "denied user {i} ADR moved {} -> {}",
                    adr_now[i],
                    adr_next[i]
                );
            }
        }
    }
}

#[test]
fn race_series_dwindle_and_converge() {
    // The paper's Fig. 3 reading: all races decline from their early peak
    // and end in a narrow low band.
    let outcomes = run_trials_protocol(&config(500, LenderKind::Scorecard));
    let summaries = report::fig3_race_adr(&outcomes);
    for s in &summaries {
        let peak = s.mean.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let last = *s.mean.last().unwrap();
        assert!(last < peak, "{}: no decline ({peak} -> {last})", s.race);
        assert!(last < 0.1, "{}: final ADR {last} too high", s.race);
    }
    let finals: Vec<f64> = summaries.iter().map(|s| *s.mean.last().unwrap()).collect();
    let spread = finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - finals.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.05, "final race spread = {spread}");
}

#[test]
fn equal_impact_holds_within_races_under_scorecard() {
    // Def. 4 conditioned on race over the ADR trajectories: within each
    // race the individual limits concentrate.
    let outcome = run_trial(&config(600, LenderKind::Scorecard), 0);
    let classes: Vec<Vec<usize>> = Race::ALL.iter().map(|&r| outcome.race_indices(r)).collect();
    // Use repayment actions as y_i; generous tolerance because 19 steps is
    // a short horizon.
    let report = conditioned_equal_impact_report(&outcome.record, &classes, 0.3, 0.6);
    let groups = group_limits(&report, &classes);
    for (race, g) in Race::ALL.iter().zip(&groups) {
        assert!(
            (0.3..=1.0).contains(g),
            "{race}: group repayment limit {g} implausible"
        );
    }
}

#[test]
fn uniform_policy_shrinks_access_unevenly() {
    let outcome = run_trial(
        &CreditConfig {
            steps: 40,
            ..config(500, LenderKind::UniformExclusion)
        },
        0,
    );
    let last = outcome.record.steps() - 1;
    let rate = |race: Race| {
        let members = outcome.race_indices(race);
        let signals = outcome.record.signals(last);
        members.iter().filter(|&&i| signals[i] > 0.0).count() as f64 / members.len().max(1) as f64
    };
    let black = rate(Race::Black);
    let white = rate(Race::White);
    assert!(
        black < white,
        "uniform policy should exclude Black households faster: {black} vs {white}"
    );
}

#[test]
fn scorecard_outperforms_uniform_on_access_while_controlling_defaults() {
    let scorecard = run_trial(&config(500, LenderKind::Scorecard), 0);
    let uniform = run_trial(&config(500, LenderKind::UniformExclusion), 0);
    let last = 18;
    let access = |o: &eqimpact_credit::sim::CreditOutcome| {
        let signals = o.record.signals(last);
        signals.iter().filter(|&&l| l > 0.0).count() as f64 / signals.len() as f64
    };
    assert!(
        access(&scorecard) > access(&uniform),
        "scorecard access {} should beat uniform {}",
        access(&scorecard),
        access(&uniform)
    );
}

#[test]
fn figures_are_mutually_consistent() {
    let outcomes = run_trials_protocol(&config(200, LenderKind::Scorecard));
    // Fig. 4 trajectories aggregated per race at the final year must match
    // Fig. 3's final means.
    let f3 = report::fig3_race_adr(&outcomes);
    let f4 = report::fig4_csv(&outcomes, 2002);
    let last_year = (2002 + outcomes[0].record.steps() - 1).to_string();
    for summary in &f3 {
        // The final-year ADR of every series of the race, as rendered.
        let finals: Vec<f64> = f4
            .lines()
            .skip(1)
            .map(|row| row.split(',').collect::<Vec<_>>())
            .filter(|cells| cells[1] == summary.race && cells[2] == last_year)
            .map(|cells| cells[3].parse::<f64>().unwrap())
            .collect();
        // Mean over trials of per-trial race means == grand mean here only
        // when race counts are equal across trials; they are, because each
        // trial uses an independent batch but the mean-of-means matches
        // within a small tolerance for equal-sized populations.
        let grand: f64 = finals.iter().sum::<f64>() / finals.len() as f64;
        let f3_final = *summary.mean.last().unwrap();
        assert!(
            (grand - f3_final).abs() < 0.02,
            "{}: fig4 grand {} vs fig3 {}",
            summary.race,
            grand,
            f3_final
        );
    }
    // Fig. 5 column totals must equal users x trials.
    let f5 = report::fig5_density(&outcomes, 10);
    for k in 0..f5.x_len() {
        assert_eq!(f5.col_total(k), 3 * 200);
    }
}
