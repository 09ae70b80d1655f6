//! The nine income brackets of Table A-2 / the paper's Fig. 2.

/// Number of income brackets.
pub const BRACKET_COUNT: usize = 9;

/// One income bracket in thousands of dollars, `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncomeBracket {
    /// Lower bound ($K), inclusive.
    pub lo: f64,
    /// Upper bound ($K), exclusive.
    pub hi: f64,
    /// Display label matching Fig. 2's axis.
    pub label: &'static str,
}

/// The Fig. 2 brackets. The open-ended "over 200" bracket is capped at
/// $500K for bracket-uniform sampling; the cap only affects the extreme
/// tail, which the credit model treats identically (any income above
/// ~$21K repays a 3.5x-income mortgage with near-certainty — see
/// `eqimpact-credit`).
pub const BRACKETS: [IncomeBracket; BRACKET_COUNT] = [
    IncomeBracket {
        lo: 1.0,
        hi: 15.0,
        label: "under 15",
    },
    IncomeBracket {
        lo: 15.0,
        hi: 25.0,
        label: "15-25",
    },
    IncomeBracket {
        lo: 25.0,
        hi: 35.0,
        label: "25-35",
    },
    IncomeBracket {
        lo: 35.0,
        hi: 50.0,
        label: "35-50",
    },
    IncomeBracket {
        lo: 50.0,
        hi: 75.0,
        label: "50-75",
    },
    IncomeBracket {
        lo: 75.0,
        hi: 100.0,
        label: "75-100",
    },
    IncomeBracket {
        lo: 100.0,
        hi: 150.0,
        label: "100-150",
    },
    IncomeBracket {
        lo: 150.0,
        hi: 200.0,
        label: "150-200",
    },
    IncomeBracket {
        lo: 200.0,
        hi: 500.0,
        label: "over 200",
    },
];

// Every income is drawn uniformly from `[lo, hi)` of one bracket, so this
// makes every income positive: the credit and hiring response models
// assert a positive income on the respond path and rely on it.
const _: () = {
    let mut i = 0;
    while i < BRACKET_COUNT {
        assert!(0.0 < BRACKETS[i].lo && BRACKETS[i].lo < BRACKETS[i].hi);
        i += 1;
    }
};

impl IncomeBracket {
    /// Midpoint of the bracket ($K).
    #[cfg(test)]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether an income ($K) falls into this bracket.
    pub fn contains(&self, income: f64) -> bool {
        income >= self.lo && income < self.hi
    }
}

/// The bracket index of an income ($K); incomes above the top cap clamp to
/// the last bracket, incomes below the floor to the first.
#[cfg(test)]
pub fn bracket_of(income: f64) -> usize {
    for (i, b) in BRACKETS.iter().enumerate() {
        if income < b.hi {
            return i;
        }
    }
    BRACKET_COUNT - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn brackets_are_contiguous_and_ordered() {
        for w in BRACKETS.windows(2) {
            assert_eq!(
                w[0].hi, w[1].lo,
                "gap between {} and {}",
                w[0].label, w[1].label
            );
            assert!(w[0].lo < w[0].hi);
        }
        assert_eq!(BRACKETS.len(), BRACKET_COUNT);
    }

    #[test]
    fn midpoints_and_membership() {
        assert_eq!(BRACKETS[0].midpoint(), 8.0);
        assert!(BRACKETS[0].contains(10.0));
        assert!(!BRACKETS[0].contains(15.0));
        assert!(BRACKETS[1].contains(15.0));
    }

    #[test]
    fn bracket_of_maps_correctly() {
        assert_eq!(bracket_of(5.0), 0);
        assert_eq!(bracket_of(15.0), 1);
        assert_eq!(bracket_of(99.9), 5);
        assert_eq!(bracket_of(250.0), 8);
        assert_eq!(bracket_of(1_000.0), 8); // above cap clamps
        assert_eq!(bracket_of(0.0), 0);
    }

    #[test]
    fn labels_match_figure_axis() {
        let labels: Vec<&str> = BRACKETS.iter().map(|b| b.label).collect();
        assert_eq!(labels[0], "under 15");
        assert_eq!(labels[8], "over 200");
    }

    proptest! {
        #[test]
        fn every_income_lands_in_its_bracket(income in 1.0f64..499.0) {
            let b = bracket_of(income);
            prop_assert!(BRACKETS[b].contains(income));
        }
    }
}
