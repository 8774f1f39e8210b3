//! # heron-rng — deterministic, dependency-free randomness for Heron
//!
//! The whole workspace builds offline; no registry crates are allowed
//! (see `DESIGN.md`, "Zero-dependency & determinism policy"). This crate
//! replaces `rand` with an owned, pinned implementation so that
//! stochastic components — `RandSAT` sampling, the constrained genetic
//! algorithm, GBDT feature subsampling — are bit-reproducible across
//! PRs, platforms, and compiler versions.
//!
//! Core generator: **xoshiro256\*\*** (Blackman & Vigna), seeded from a
//! single `u64` through **SplitMix64** exactly as the reference code
//! recommends. Golden-stream tests in `tests/golden.rs` pin the first
//! outputs for three seeds; any silent change to the generator is a
//! test failure, not a quiet perturbation of every experiment.
//!
//! ```
//! use heron_rng::{HeronRng, Rng, IndexedRandom, SliceRandom};
//!
//! let mut rng = HeronRng::from_seed(42);
//! let x: f64 = rng.random();            // uniform in [0, 1)
//! let i = rng.random_range(0..10usize); // uniform integer
//! let g = rng.gaussian(0.0, 1.0);       // normal sample
//! let mut v = vec![1, 2, 3, 4];
//! v.shuffle(&mut rng);
//! let picked = v.as_slice().choose(&mut rng);
//! assert!(picked.is_some());
//! let _ = (x, i, g);
//!
//! // Parallel explorers: fork decorrelated child streams by id.
//! let child_a = rng.fork(0);
//! let child_b = rng.fork(1);
//! assert_ne!(child_a.clone().next_u64(), child_b.clone().next_u64());
//! // Forks depend only on (seed, stream_id), never on draw order.
//! assert_eq!(HeronRng::from_seed(42).fork(0).next_u64(), child_a.clone().next_u64());
//! ```

mod range;
mod slice;

pub use range::{SampleRange, SampleUniform};
pub use slice::{IndexedRandom, SliceRandom};

/// Multiplicative constant of the Weyl sequence used by SplitMix64
/// (the 64-bit golden ratio).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 — the canonical one-word seeder / splitter.
///
/// Used to expand a single `u64` seed into the 256-bit xoshiro state and
/// to derive decorrelated stream seeds in [`HeronRng::fork`]. Also a
/// perfectly serviceable standalone generator for cheap one-shot
/// hashing-style randomness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output (reference algorithm, Steele et al. 2014).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

/// The workspace PRNG: xoshiro256\*\* seeded via SplitMix64.
///
/// 256 bits of state, period 2^256 − 1, passes BigCrush; `*_jump`-free
/// parallelism is provided by [`HeronRng::fork`], which derives child
/// seeds purely from `(root_seed, stream_id)` so parallel explorers get
/// reproducible, order-independent streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeronRng {
    s: [u64; 4],
    /// The `u64` this generator was seeded with (kept for `fork` and
    /// failure reporting; never consumed by generation itself).
    seed: u64,
}

impl HeronRng {
    /// Seed the generator from a single word. The 256-bit state is
    /// filled with four successive SplitMix64 outputs, as the xoshiro
    /// reference implementation prescribes.
    #[inline]
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        HeronRng { s, seed }
    }

    /// The seed this generator (or fork) was constructed from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive a decorrelated child generator for parallel stream
    /// `stream_id`.
    ///
    /// The child seed is a SplitMix64-quality mix of the *original*
    /// seed and the stream id — deliberately independent of how many
    /// values the parent has drawn, so `rng.fork(k)` is stable no
    /// matter where in the tuning loop it is called. Identical
    /// `(seed, stream_id)` pairs always yield identical streams;
    /// distinct stream ids yield streams that differ immediately.
    #[inline]
    pub fn fork(&self, stream_id: u64) -> HeronRng {
        // Feed (seed, stream_id) through two SplitMix64 steps so that
        // fork(0) of seed s is *not* the same as from_seed(s).
        let mut sm = SplitMix64::new(self.seed ^ stream_id.wrapping_mul(GOLDEN_GAMMA));
        let a = sm.next_u64();
        let b = sm.next_u64();
        HeronRng::from_seed(a ^ b.rotate_left(32) ^ 0x48_45_52_4F_4E) // "HERON"
    }

    /// The raw 256-bit xoshiro state, for checkpointing a generator
    /// mid-stream (tuner session resume). Pair with [`HeronRng::seed`]
    /// and feed both to [`HeronRng::restore`] to reconstruct the exact
    /// stream position.
    #[inline]
    pub fn state_words(&self) -> [u64; 4] {
        self.s
    }

    /// Reconstructs a generator from a checkpointed `(seed, state)` pair
    /// so the restored stream continues bit-for-bit where the saved one
    /// stopped. The seed is carried along because [`HeronRng::fork`]
    /// derives child streams from it (never from the moving state).
    #[inline]
    pub fn restore(seed: u64, state: [u64; 4]) -> Self {
        HeronRng { s: state, seed }
    }

    /// Raw xoshiro256** output (reference algorithm, Blackman & Vigna
    /// 2018).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Rng for HeronRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        HeronRng::next_u64(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Uniform random generation — the trait bound every stochastic
/// component in the workspace takes (`fn fit<R: Rng>(..., rng: &mut R)`).
///
/// Only `next_u64` is required; everything else is a provided,
/// deterministic derivation so all implementors produce identical
/// distributions from identical raw streams.
pub trait Rng {
    /// The only required method: the next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32-bit output (upper half of the 64-bit word — the
    /// high bits of xoshiro256\*\* are the strongest).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform sample of a primitive type: `f64`/`f32` in `[0, 1)`,
    /// integers over their full range, `bool` fair.
    #[inline]
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Uniform sample from an integer or float range
    /// (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// A normal (Gaussian) sample via the Box–Muller transform.
    ///
    /// Deterministically consumes exactly two raw words per call (the
    /// sine branch is discarded instead of cached, so a call sequence
    /// is a pure function of the stream position).
    #[inline]
    fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64
    where
        Self: Sized,
    {
        // u1 in (0, 1] so ln(u1) is finite; u2 in [0, 1).
        let u1: f64 = 1.0 - self.random::<f64>();
        let u2: f64 = self.random();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Types with a canonical "standard" uniform distribution for
/// [`Rng::random`].
pub trait Standard: Sized {
    fn sample_standard<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// 53 random mantissa bits → uniform in `[0, 1)`.
    #[inline]
    fn sample_standard<R: Rng>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// 24 random mantissa bits → uniform in `[0, 1)`.
    #[inline]
    fn sample_standard<R: Rng>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn sample_standard<R: Rng>(rng: &mut R) -> bool {
        // Highest bit of the raw word.
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample_standard<R: Rng>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        let mut a = HeronRng::from_seed(7);
        let mut b = HeronRng::from_seed(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(
            HeronRng::from_seed(1).next_u64(),
            HeronRng::from_seed(2).next_u64()
        );
    }

    #[test]
    fn fork_is_order_independent_and_decorrelated() {
        let root = HeronRng::from_seed(42);
        let mut drained = HeronRng::from_seed(42);
        for _ in 0..100 {
            drained.next_u64();
        }
        // Fork depends only on (seed, id), not on parent draw position.
        assert_eq!(root.fork(3), drained.fork(3));
        // Distinct ids → distinct streams; fork(0) != the root stream.
        assert_ne!(root.fork(0).next_u64(), root.fork(1).next_u64());
        assert_ne!(root.fork(0).next_u64(), HeronRng::from_seed(42).next_u64());
    }

    #[test]
    fn state_roundtrip_resumes_the_exact_stream() {
        let mut rng = HeronRng::from_seed(99);
        for _ in 0..37 {
            rng.next_u64();
        }
        let snapshot = (rng.seed(), rng.state_words());
        let expect: Vec<u64> = {
            let mut r = rng.clone();
            (0..16).map(|_| r.next_u64()).collect()
        };
        let mut restored = HeronRng::restore(snapshot.0, snapshot.1);
        let got: Vec<u64> = (0..16).map(|_| restored.next_u64()).collect();
        assert_eq!(expect, got, "restored stream diverged");
        // Forks survive restore too (they derive from the seed).
        assert_eq!(rng.fork(5), restored.fork(5));
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = HeronRng::from_seed(5);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.random();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = HeronRng::from_seed(17);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn rng_trait_objects_through_mut_ref() {
        fn draw<R: Rng>(rng: &mut R) -> u64 {
            rng.next_u64()
        }
        let mut rng = HeronRng::from_seed(1);
        let direct = HeronRng::from_seed(1).next_u64();
        assert_eq!(draw(&mut &mut rng), direct);
    }
}
