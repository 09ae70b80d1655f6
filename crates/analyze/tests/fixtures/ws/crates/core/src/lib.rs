//! Fixture: deterministic-plane violations (rules R1-R4).
//! Mentions of Instant::now() and HashMap in this comment must not fire.

pub fn clock() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}

pub fn epoch_nanos() -> u64 {
    let _ = std::time::SystemTime::now();
    0
}

pub fn table() {
    let _ = std::collections::HashMap::<u32, u32>::new();
}

pub fn spawn_worker() {
    std::thread::spawn(|| {}).join().ok();
}

pub fn peek(v: &[u8]) -> u8 {
    let s = "thread::spawn inside a string literal";
    let _ = s;
    unsafe { *v.as_ptr() }
}

pub fn peek_documented(v: &[u8]) -> u8 {
    // SAFETY: the fixture slice is non-empty by contract.
    unsafe { *v.as_ptr() }
}

#[cfg(test)]
mod tests {
    #[test]
    fn masked() {
        let _ = std::collections::HashSet::<u32>::new();
        let _ = std::time::Instant::now();
    }
}

pub fn dead_helper() -> u32 {
    0
}

#[cfg(test)]
pub fn test_only_helper() -> u32 {
    1
}

// analyze::allow(R8): stale, the fixture example calls it
pub fn called_by_example() {}

pub mod surface;
