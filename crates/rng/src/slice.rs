//! Slice adaptors: Fisher–Yates shuffling and uniform element choice,
//! mirroring the `rand` trait split (`SliceRandom` for mutation,
//! `IndexedRandom` for read-only choice) so call sites stay idiomatic.

use crate::Rng;

/// Read-only random access to slices.
pub trait IndexedRandom {
    type Output;

    /// A uniformly random element, or `None` if the slice is empty.
    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Output>;
}

impl<T> IndexedRandom for [T] {
    type Output = T;

    #[inline]
    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.random_range(0..self.len())])
        }
    }
}

/// In-place random mutation of slices.
pub trait SliceRandom {
    /// Uniform in-place Fisher–Yates shuffle (descending variant —
    /// identical draw count for identical lengths).
    fn shuffle<R: Rng>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.random_range(0..=i);
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeronRng;

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = HeronRng::from_seed(21);
        let v = [10, 20, 30, 40];
        let mut seen = [false; 4];
        for _ in 0..400 {
            let &x = v.as_slice().choose(&mut rng).unwrap();
            seen[x / 10 - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [i32; 0] = [];
        assert!(empty.as_slice().choose(&mut rng).is_none());
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut rng = HeronRng::from_seed(22);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());

        let mut rng2 = HeronRng::from_seed(22);
        let mut v2: Vec<u32> = (0..50).collect();
        v2.shuffle(&mut rng2);
        assert_eq!(v, v2, "same seed must give the same permutation");
    }
}
