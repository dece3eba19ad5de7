//! Zipfian key-popularity distribution (the YCSB generator).

use rand::Rng;

/// A Zipfian distribution over `0..n` with skew parameter θ, implemented with
/// the rejection-free formula used by YCSB (Gray et al.).
///
/// θ = 0.99 (the YCSB default and the paper's setting) makes roughly 10 % of
/// the keys receive ~90 % of the accesses.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a Zipfian distribution over `0..n` with skew `theta`.
    ///
    /// The Gray et al. inverse works on either side of θ = 1 — for θ > 1
    /// `alpha` goes negative and `eta` flips sign, but the mapping from the
    /// uniform draw to a rank stays monotone — so super-skewed workloads
    /// (e.g. the θ = 1.2 point of the local-tier sweep) use the same
    /// rejection-free formula.  Only θ = 1 itself is excluded: the inverse
    /// needs `1 - θ ≠ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `theta <= 0` or `theta == 1`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "key space must not be empty");
        assert!(
            theta > 0.0 && theta != 1.0,
            "theta must be positive and != 1 (the inverse divides by 1-θ)"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// The YCSB default distribution (θ = 0.99) over `0..n`.
    pub fn ycsb(n: u64) -> Self {
        Zipfian::new(n, 0.99)
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation; the evaluation uses at most ~10 M keys, for which
        // this costs a few tens of milliseconds once per generator.
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Number of distinct keys.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws the *rank* of a key: rank 0 is the most popular key.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Draws a key id, scattering ranks over the key space so that popular
    /// keys are not clustered at low ids (YCSB's `ScrambledZipfian`).
    pub fn sample_scrambled<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let rank = self.sample(rng);
        scramble(rank) % self.n
    }

    /// The skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

/// FNV-style scrambling of a rank into a pseudo-random but stable key id.
pub fn scramble(v: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in v.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_are_in_range() {
        let z = Zipfian::ycsb(1_000);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1_000);
            assert!(z.sample_scrambled(&mut rng) < 1_000);
        }
    }

    #[test]
    fn distribution_is_skewed() {
        let z = Zipfian::ycsb(10_000);
        let mut rng = StdRng::seed_from_u64(7);
        let mut top100 = 0u64;
        let total = 100_000;
        for _ in 0..total {
            if z.sample(&mut rng) < 100 {
                top100 += 1;
            }
        }
        // With θ=0.99 the first 1 % of ranks should draw well over a third of
        // all requests.
        assert!(
            top100 as f64 / total as f64 > 0.35,
            "top-100 share {}",
            top100 as f64 / total as f64
        );
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let z = Zipfian::ycsb(1_000);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u64; 1_000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max);
        assert!(counts[0] > counts[500] * 10);
    }

    #[test]
    fn scrambling_spreads_hot_keys() {
        let z = Zipfian::ycsb(1_000_000);
        let mut rng = StdRng::seed_from_u64(5);
        let mut below_thousand = 0;
        for _ in 0..10_000 {
            if z.sample_scrambled(&mut rng) < 1_000 {
                below_thousand += 1;
            }
        }
        // Scrambled keys should not cluster in the low id range.
        assert!(below_thousand < 200);
    }

    #[test]
    fn scramble_is_deterministic() {
        assert_eq!(scramble(12345), scramble(12345));
        assert_ne!(scramble(1), scramble(2));
    }

    #[test]
    #[should_panic]
    fn empty_keyspace_panics() {
        let _ = Zipfian::new(0, 0.99);
    }

    #[test]
    #[should_panic]
    fn invalid_theta_panics() {
        let _ = Zipfian::new(10, 1.0);
    }

    #[test]
    fn super_skew_is_sharper_and_in_range() {
        let mild = Zipfian::new(10_000, 0.99);
        let sharp = Zipfian::new(10_000, 1.2);
        let mut rng = StdRng::seed_from_u64(11);
        let total = 100_000;
        let (mut top_mild, mut top_sharp) = (0u64, 0u64);
        for _ in 0..total {
            if mild.sample(&mut rng) < 100 {
                top_mild += 1;
            }
            let rank = sharp.sample(&mut rng);
            assert!(rank < 10_000);
            if rank < 100 {
                top_sharp += 1;
            }
        }
        // θ = 1.2 concentrates strictly more mass on the head than the
        // YCSB default, and rank 0 stays the mode.
        assert!(
            top_sharp > top_mild,
            "θ=1.2 top-100 share {top_sharp} must exceed θ=0.99 share {top_mild}"
        );
    }
}
