//! The fixed-size circular trace buffer.
//!
//! "With Processor Tracing, the sample window `w` corresponds to the
//! contents of a fixed-size circular buffer" (paper §III-C). The paper
//! also notes a kernel artifact: "buffers do not yield the expected
//! addresses (size / 8 bytes) ... because buffer fill and flushes occur
//! asynchronously with the sampling trigger" (§VI) — a 16-KiB buffer
//! yields ≈1150 addresses rather than 2048, an 8-KiB one ≈500 rather than
//! 1024. [`CircBuffer::snapshot`] reproduces that with a configurable
//! yield factor jittered by a small deterministic LCG.

use std::collections::VecDeque;

/// Deterministic 64-bit LCG (no `rand` dependency in the hardware model).
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Seeded generator.
    pub fn new(seed: u64) -> Lcg {
        Lcg {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        // Musl-style LCG constants, xor-folded for better high bits.
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = self.state;
        (x >> 33) ^ x
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// Fixed-capacity circular trace buffer with byte accounting, holding
/// PTW packets on the packet path or whole accesses on the access path.
#[derive(Debug, Clone)]
pub struct CircBuffer<T> {
    cap_bytes: u64,
    used_bytes: u64,
    /// Items plus their individual byte cost (a packet that carried an
    /// amortized TSC/PSB sideband, or a two-source access, costs more).
    items: VecDeque<(T, u64)>,
    /// Mean fraction of buffer contents the snapshot yields (kernel
    /// async-fill artifact); jittered ±0.1 per snapshot.
    yield_factor: f64,
    rng: Lcg,
}

/// Default mean yield factor matching the paper's observed ≈ 0.49–0.56
/// addresses per expected buffer slot.
pub const DEFAULT_YIELD: f64 = 0.55;

impl<T: Copy> CircBuffer<T> {
    /// An empty buffer of `cap_bytes` capacity.
    pub fn new(cap_bytes: u64, yield_factor: f64, seed: u64) -> CircBuffer<T> {
        CircBuffer {
            cap_bytes,
            used_bytes: 0,
            items: VecDeque::new(),
            yield_factor,
            rng: Lcg::new(seed),
        }
    }

    /// Push an item costing `cost` bytes, evicting the oldest contents on
    /// wrap (circular overwrite). Returns the bytes evicted. An item
    /// larger than the whole buffer still goes in, alone.
    #[inline]
    pub fn push(&mut self, item: T, cost: u64) -> u64 {
        let mut evicted = 0;
        while self.used_bytes + cost > self.cap_bytes {
            match self.items.pop_front() {
                Some((_, c)) => {
                    self.used_bytes -= c;
                    evicted += c;
                }
                None => break,
            }
        }
        self.items.push_back((item, cost));
        self.used_bytes += cost;
        evicted
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Change the capacity; takes effect at the next push.
    pub fn set_capacity(&mut self, cap_bytes: u64) {
        self.cap_bytes = cap_bytes;
    }

    /// True when no items are held.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Read the buffer at a sampling trigger: returns the most recent
    /// items (the async-fill artifact discards the oldest fraction) and
    /// resets the buffer for the next window.
    pub fn snapshot(&mut self) -> Vec<T> {
        let jitter = self.rng.range_f64(-0.1, 0.1);
        let f = (self.yield_factor + jitter).clamp(0.05, 1.0);
        let keep = ((self.items.len() as f64) * f).round() as usize;
        let skip = self.items.len() - keep.min(self.items.len());
        let out = self.items.iter().skip(skip).map(|(p, _)| *p).collect();
        self.items.clear();
        self.used_bytes = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PtwPacket;
    use memgaze_model::Ip;

    fn pkt(i: u64) -> PtwPacket {
        PtwPacket {
            ip: Ip(0x400 + i),
            payload: i,
            load_time: i,
        }
    }

    #[test]
    fn wraps_when_full() {
        let mut b = CircBuffer::new(100, 1.0, 1);
        let evicted: u64 = (0..25).map(|i| b.push(pkt(i), 10)).sum();
        // Capacity 10 packets: only the newest survive.
        assert_eq!(evicted, 150);
        assert_eq!(b.used_bytes(), 100);
        let snap = b.snapshot();
        assert_eq!(snap.last().unwrap().payload, 24);
        // Oldest retained is recent.
        assert!(snap.first().unwrap().payload >= 15);
        assert!(b.is_empty());
    }

    #[test]
    fn yield_factor_shrinks_snapshots() {
        // Paper: 16-KiB buffer yields ≈1150 addresses, not 2048.
        let mut b = CircBuffer::new(16 << 10, 0.55, 42);
        let mut totals = Vec::new();
        for round in 0..20u64 {
            for i in 0..4096 {
                b.push(pkt(round * 10_000 + i), 8);
            }
            totals.push(b.snapshot().len());
        }
        let mean = totals.iter().sum::<usize>() as f64 / totals.len() as f64;
        assert!(
            (900.0..1400.0).contains(&mean),
            "mean snapshot {mean} outside paper-like range"
        );
    }

    #[test]
    fn snapshot_preserves_order_and_recency() {
        let mut b = CircBuffer::new(1000, 0.5, 7);
        for i in 0..50 {
            b.push(pkt(i), 10);
        }
        let snap = b.snapshot();
        assert!(snap.windows(2).all(|w| w[0].payload < w[1].payload));
        assert_eq!(snap.last().unwrap().payload, 49);
    }

    #[test]
    fn lcg_is_deterministic_and_uniformish() {
        let mut a = Lcg::new(9);
        let mut b = Lcg::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Lcg::new(10);
        let mean: f64 = (0..10_000).map(|_| c.next_f64()).sum::<f64>() / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "LCG mean {mean}");
    }
}
