//! Seeded input generation: index samplers and the open-loop arrival
//! process. Everything here is a pure function of its RNG, so one
//! `--seed` reproduces the whole request stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// SplitMix64 finaliser: derives independent sub-seeds (per table, per
/// ladder step) from the run's one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded RNG for stream `salt` of run `seed`.
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, salt))
}

/// How a request's indices are drawn from a table's rows.
#[derive(Clone, Debug)]
pub enum Indices {
    /// Every row equally likely.
    Uniform,
    /// Zipf over row ranks, rank 0 hottest (inverse-CDF sampling).
    Zipf(Zipf),
}

impl Indices {
    /// Draws a rank in `0..n` (`n` must match the Zipf table's size).
    pub fn draw(&self, rng: &mut StdRng, n: u64) -> u64 {
        match self {
            Indices::Uniform => rng.gen_range(0..n),
            Indices::Zipf(z) => {
                debug_assert_eq!(z.len(), n);
                z.sample(rng)
            }
        }
    }
}

/// Zipf(s) over `n` ranks: P(rank k) ∝ 1 / (k + 1)^s.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the cumulative distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero ranks");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let k = self.cdf.partition_point(|&c| c < u);
        k.min(self.cdf.len() - 1) as u64
    }
}

/// Due times of a Poisson process at `rate` per second over `window`,
/// as offsets from the window's start.
pub fn poisson_arrivals(rng: &mut StdRng, rate: f64, window: Duration) -> Vec<Duration> {
    let mut at = 0.0f64;
    let end = window.as_secs_f64();
    let mut out = Vec::with_capacity((rate * end * 1.2) as usize + 8);
    loop {
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate;
        if at >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samplers_are_deterministic_in_the_seed() {
        let zipf = Indices::Zipf(Zipf::new(1000, 1.0));
        let draw = |seed: u64, ix: &Indices| -> Vec<u64> {
            let mut r = rng(seed, 7);
            (0..256).map(|_| ix.draw(&mut r, 1000)).collect()
        };
        for ix in [&Indices::Uniform, &zipf] {
            assert_eq!(draw(3, ix), draw(3, ix));
            assert_ne!(draw(3, ix), draw(4, ix));
            assert!(draw(3, ix).iter().all(|&k| k < 1000));
        }
        let a = poisson_arrivals(&mut rng(9, 1), 500.0, Duration::from_secs(1));
        let b = poisson_arrivals(&mut rng(9, 1), 500.0, Duration::from_secs(1));
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut r = rng(1, 2);
        let n = 20_000;
        let hot = (0..n).filter(|_| z.sample(&mut r) == 0).count() as f64 / n as f64;
        // P(rank 0) = 1 / H_1000 ≈ 0.1336.
        assert!((hot - 0.1336).abs() < 0.015, "rank-0 share {hot}");
    }

    #[test]
    fn poisson_rate_and_order() {
        let at = poisson_arrivals(&mut rng(5, 5), 1000.0, Duration::from_secs(4));
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        let n = at.len() as f64;
        assert!((n - 4000.0).abs() < 4.0 * 4000f64.sqrt(), "{n} arrivals");
    }
}
