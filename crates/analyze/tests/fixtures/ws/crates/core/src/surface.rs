//! Fixture: dead surface that only its own impl blocks name (R8), and
//! two near misses that stay silent.

pub struct Unused {
    n: u32,
}

impl Unused {
    pub fn new() -> Unused {
        Unused { n: 0 }
    }
}

impl Default for Unused {
    fn default() -> Self {
        Unused::new()
    }
}

pub trait Unnamed {
    fn ping(&self) -> u32;
}

impl Unnamed for Unused {
    fn ping(&self) -> u32 {
        self.n
    }
}

// Near miss: the fixture example names it only through `Built::new()`.
pub struct Built;

impl Built {
    pub fn new() -> Built {
        Built
    }
}

// Near miss: named only as the return type of a fn that takes `impl Fn`.
pub struct Made(pub u32);

impl From<u32> for Made {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

pub fn make(f: impl Fn() -> u32) -> Made {
    f().into()
}
