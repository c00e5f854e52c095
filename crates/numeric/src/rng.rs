//! Deterministic pseudo-random number generation for Monte Carlo work.
//!
//! The suite needs reproducible randomness with two extra constraints the
//! usual crates do not give us for free:
//!
//! 1. **offline builds** — no external dependencies, and
//! 2. **stream splitting** — a parent seed must derive independent child
//!    streams by index, so a chunk of Monte Carlo samples draws the same
//!    values no matter which worker thread evaluates it (see
//!    `ssn-core::parallel`).
//!
//! The generator is xoshiro256++ (Blackman & Vigna, public domain), seeded
//! through SplitMix64 exactly as its authors recommend. Both algorithms are
//! small, portable, and have well-studied statistical quality far beyond
//! what variation analysis needs.

/// SplitMix64: a tiny 64-bit generator used to expand seeds and derive
/// independent streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Starts the sequence at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workhorse generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the full 256-bit state from a single `u64` via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        // The all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros, but keep the guard explicit.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Self { s }
    }

    /// Derives the `stream`-th independent child generator of `seed`.
    ///
    /// The (seed, stream) pair is hashed through SplitMix64 before state
    /// expansion, so streams 0, 1, 2, ... of the same seed are mutually
    /// independent sequences — the determinism contract of the parallel
    /// Monte Carlo engine rests on this.
    pub fn from_seed_and_stream(seed: u64, stream: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let a = sm.next_u64();
        let mut sm2 = SplitMix64::new(a ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BC05));
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm2.next_u64();
        }
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Self { s }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty integer range");
        let span = (hi - lo) as u64 + 1;
        // Multiply-shift rejection-free mapping is fine here: span is tiny
        // relative to 2^64, so the bias is immeasurable for test use.
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as usize
    }

    /// A uniform `f64` in the open interval `(0, 1)`: the 53-bit grid of
    /// [`Rng::uniform`] shifted by half a step, so `ln` never sees zero.
    fn uniform_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// A standard normal deviate: Marsaglia & Tsang's 256-layer ziggurat
    /// (*J. Stat. Softw.* 5(8), 2000).
    ///
    /// One `next_u64` feeds both the layer index (its low 8 bits) and a
    /// signed uniform (its upper 52 bits, centred on the half-step grid so
    /// `u` and `-u` are equally likely and neither `0` nor `±1` occurs).
    /// About 98.5% of draws return from the rectangle test alone; the rest
    /// pay one `exp` in a wedge or Marsaglia's `ln` loop in the tail beyond
    /// `R ≈ 3.654`. The values this stream yields per seed are the Monte
    /// Carlo stream contract (v2; DESIGN.md §11).
    pub fn normal(&mut self) -> f64 {
        let zig = Ziggurat::get();
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            let u = ((bits >> 12) as f64 + 0.5) * (1.0 / (1u64 << 51) as f64) - 1.0;
            let x = u * zig.x[i];
            if x.abs() < zig.x[i + 1] {
                return x;
            }
            if i == 0 {
                return self.normal_tail(u < 0.0);
            }
            let y = zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * self.uniform();
            if y < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A deviate from the normal tail beyond `±ZIG_R` (Marsaglia's method).
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            let x = self.uniform_open().ln() / ZIG_R;
            let y = self.uniform_open().ln();
            if -2.0 * y >= x * x {
                return if negative { x - ZIG_R } else { ZIG_R - x };
            }
        }
    }
}

/// Start of the tail: the right edge of the 256-layer ziggurat's base
/// layer.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// The common area of every layer (the base layer includes the tail).
const ZIG_V: f64 = 4.928_673_233_99e-3;

/// The ziggurat's layer edges `x[i]` (decreasing, `x[256] = 0`) and the
/// unnormalized density `f[i] = exp(-x[i]²/2)` at each, built once.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

impl Ziggurat {
    fn get() -> &'static Self {
        static TABLES: std::sync::OnceLock<Ziggurat> = std::sync::OnceLock::new();
        TABLES.get_or_init(|| {
            let pdf = |x: f64| (-0.5 * x * x).exp();
            let mut x = [0.0; 257];
            // x[0] is the base layer's pseudo-width: a rectangle of area V
            // and height f(R), whose overhang past R stands for the tail.
            x[0] = ZIG_V / pdf(ZIG_R);
            x[1] = ZIG_R;
            for i in 2..256 {
                x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
            }
            Self { x, f: x.map(pdf) }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_moves() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn rng_reproducible_per_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(Rng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn streams_are_distinct_and_reproducible() {
        let mut s0 = Rng::from_seed_and_stream(1, 0);
        let mut s1 = Rng::from_seed_and_stream(1, 1);
        let mut s0b = Rng::from_seed_and_stream(1, 0);
        let a: Vec<u64> = (0..16).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| s1.next_u64()).collect();
        let a2: Vec<u64> = (0..16).map(|_| s0b.next_u64()).collect();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        // Different parent seeds diverge too.
        let mut other = Rng::from_seed_and_stream(2, 0);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn uniform_stays_in_range_and_fills_it() {
        let mut r = Rng::seed_from_u64(3);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99);
        for _ in 0..1000 {
            let x = r.uniform_in(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn usize_in_covers_inclusive_bounds() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let k = r.usize_in(10, 14);
            assert!((10..=14).contains(&k));
            seen[k - 10] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.usize_in(3, 3), 3);
    }

    /// Standard normal CDF through the Numerical Recipes `erfc`
    /// (fractional error < 1.2e-7, far below the KS bound tested here).
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let upper = 0.5 * t * poly.exp();
        if x >= 0.0 {
            1.0 - upper
        } else {
            upper
        }
    }

    /// A fixed-seed 10^6-draw check of the ziggurat against the Gaussian:
    /// the whole CDF (Kolmogorov–Smirnov at the 1% critical value), the
    /// first two moments, the mass on each side beyond `±3` (where a wrong
    /// wedge test shows first), beyond `±ZIG_R` (which only the tail branch
    /// can produce) and beyond `±4`, and sign symmetry.
    #[test]
    fn ziggurat_normal_matches_the_gaussian() {
        let n = 1_000_000usize;
        let nf = n as f64;
        let mut r = Rng::seed_from_u64(2000);
        let mut xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        assert!(xs.iter().all(|x| x.is_finite()));

        let mean = xs.iter().sum::<f64>() / nf;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (nf - 1.0);
        assert!(mean.abs() < 4.0 / nf.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 4.0 * (2.0 / nf).sqrt(), "var {var}");

        // Counts of a binomial(n, p) event within 4 sigma of n p.
        let within_4_sigma = |count: usize, p: f64| {
            (count as f64 - nf * p).abs() <= 4.0 * (nf * p * (1.0 - p)).sqrt()
        };
        for edge in [3.0, ZIG_R, 4.0] {
            let p = phi(-edge);
            let above = xs.iter().filter(|&&x| x > edge).count();
            let below = xs.iter().filter(|&&x| x < -edge).count();
            for (side, count) in [("above", above), ("below", below)] {
                assert!(
                    within_4_sigma(count, p),
                    "{count} draws {side} ±{edge}, want {}",
                    nf * p
                );
            }
        }
        let positive = xs.iter().filter(|&&x| x > 0.0).count();
        assert!(within_4_sigma(positive, 0.5), "{positive} positive draws");

        xs.sort_by(f64::total_cmp);
        let ks = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let c = phi(x);
                (c - i as f64 / nf).max((i + 1) as f64 / nf - c)
            })
            .fold(0.0, f64::max);
        assert!(ks <= 1.63 / nf.sqrt(), "KS distance {ks}");
    }

    #[test]
    fn ziggurat_tables_close_at_zero() {
        let zig = Ziggurat::get();
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[256], 0.0);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]));
        // The top layer's recursion must land on f = 1 (x = 0): the
        // constants R and V are consistent to ~1e-10.
        let top = ZIG_V / zig.x[255] + zig.f[255];
        assert!((top - 1.0).abs() < 1e-9, "top layer closes at {top}");
        assert_eq!(zig.f[256], 1.0);
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut r = Rng::seed_from_u64(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        assert!(xs.iter().all(|x| x.is_finite()));
    }
}
