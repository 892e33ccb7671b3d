//! A fast hasher for maps keyed by a few words of ids and values.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative hash `rustc` uses, for hash maps in hot code whose
/// keys are a few words of ids and values: std's SipHash costs several
/// times as much there. Output never depends on such a map's iteration
/// order, as it never does on a std map's, which is seeded per process.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
