//! The ledger's yardstick for host speed.
//!
//! The bench host is a small shared virtual machine. Its speed drifts by
//! tens of percent over minutes, and for minutes at a time its second
//! core is mostly taken by someone else, which slows a checkpoint op by
//! 30–40% (more, the more of it runs on both cores) and leaves
//! single-threaded code alone. Raw milliseconds of one and the same
//! binary therefore do not repeat within any bound the benchmark may
//! set. The gated timings are reported in *laps* instead: multiples of a
//! fixed amount of work that only this file defines, timed beside the
//! ops it is compared with (before every save iteration, on the thread
//! that runs it). A lap is shaped like a checkpoint op — two thirds of
//! it runs on the calling thread, one third on every core at once — so
//! that losing a core stretches a lap about as much as it stretches an
//! op. Nothing the system under test does can make a lap faster or
//! slower, so a change to the system moves a gated timing only by moving
//! the op itself. Raw milliseconds stay in the per-layer table.

use std::hint::black_box;
use std::time::Instant;

/// 64-bit words per buffer (8 MiB): a pass streams one buffer into
/// another, past the per-core caches, like the copies and digests of a
/// save do.
const WORDS: usize = 1 << 20;
/// Passes the calling thread makes alone before every core makes one.
const SERIAL_PASSES: usize = 2;

/// The two buffers one thread streams between.
struct Lane {
    a: Vec<u64>,
    b: Vec<u64>,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            a: (0..WORDS as u64).collect(),
            b: vec![0; WORDS],
        }
    }

    /// A multiply-rotate hash chained through every word (integer
    /// latency, like the digest and codec loops) while copying.
    fn pass(&mut self) {
        let mut h = self.a[0];
        for (dst, src) in self.b.iter_mut().zip(&self.a) {
            h = (h ^ *src)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(29);
            *dst = h;
        }
        std::mem::swap(&mut self.a, &mut self.b);
        black_box(&self.a);
    }
}

/// One lane per core the process may use.
pub struct Yardstick {
    lanes: Vec<Lane>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Yardstick {
            lanes: (0..cores).map(|_| Lane::new()).collect(),
        }
    }

    /// One lap, in milliseconds.
    pub fn lap_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..SERIAL_PASSES {
            self.lanes[0].pass();
        }
        let (own, others) = self
            .lanes
            .split_first_mut()
            .expect("one lane per core, at least one");
        std::thread::scope(|s| {
            for lane in others {
                s.spawn(|| lane.pass());
            }
            own.pass();
        });
        t0.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lap_works_every_lane() {
        let mut y = Yardstick::new();
        let before: Vec<u64> = y.lanes.iter().map(|l| l.a[WORDS - 1]).collect();
        assert!(y.lap_ms() > 0.0);
        let after: Vec<u64> = y.lanes.iter().map(|l| l.a[WORDS - 1]).collect();
        assert!(before.iter().zip(&after).all(|(b, a)| b != a));
    }
}
