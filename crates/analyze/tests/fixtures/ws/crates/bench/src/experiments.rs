//! Fixture: panic-contract violations (R5).
//! An `.unwrap()` named in this doc comment must not fire.

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

pub fn boom() {
    panic!("fixture panic");
}

pub fn expected(v: Option<u32>) -> u32 {
    v.expect("fixture expect")
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        assert_eq!(super::first(&[7]), 7);
        let _ = Some(1u32).unwrap();
    }
}

// analyze::allow(R8): tests/harness.rs uses it as a fixture builder
pub fn harness_only() -> u32 {
    2
}
