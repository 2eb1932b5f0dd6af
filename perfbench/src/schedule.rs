//! Seeded open-loop arrival schedules.
//!
//! Arrivals follow a Poisson process: gaps are exponential draws from a
//! splitmix64 stream, so the same seed always yields the same send times
//! and the same choice of request bodies.

/// splitmix64: a small, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One scheduled request: when it is due (nanoseconds after the phase
/// starts) and which pre-encoded request body it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub body: usize,
}

/// `count` Poisson arrivals at `rate` per second, each choosing one of
/// `bodies` request bodies uniformly.
pub fn poisson(seed: u64, rate: f64, count: usize, bodies: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -rng.unit().ln() / rate * 1e9;
            Arrival {
                due_ns: at as u64,
                body: rng.below(bodies),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        assert_eq!(poisson(7, 200.0, 1000, 11), poisson(7, 200.0, 1000, 11));
        assert_ne!(poisson(7, 200.0, 1000, 11), poisson(8, 200.0, 1000, 11));
    }

    #[test]
    fn schedule_hits_its_rate() {
        for (seed, rate) in [(1, 50.0), (2, 400.0), (3, 2000.0)] {
            let count = 4000;
            let arrivals = poisson(seed, rate, count, 4);
            assert_eq!(arrivals.len(), count);
            // The sum of n exponential gaps has sd sqrt(n)/rate; allow five.
            let span_s = arrivals[count - 1].due_ns as f64 / 1e9;
            let expected_s = count as f64 / rate;
            assert!(
                (span_s - expected_s).abs() < 5.0 * (count as f64).sqrt() / rate,
                "rate {rate}: {count} arrivals took {span_s}s, expected ~{expected_s}s"
            );
            let mut sorted = arrivals.clone();
            sorted.sort_by_key(|a| a.due_ns);
            assert_eq!(sorted, arrivals, "arrivals are in due order");
            assert!(arrivals.iter().all(|a| a.body < 4));
        }
    }

    #[test]
    fn bodies_are_drawn_across_the_pool() {
        let arrivals = poisson(9, 1000.0, 2000, 5);
        let mut seen = [0usize; 5];
        for a in &arrivals {
            seen[a.body] += 1;
        }
        assert!(seen.iter().all(|&count| count > 300), "{seen:?}");
    }
}
