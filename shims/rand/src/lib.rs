//! Workspace-local stand-in for the subset of `rand` 0.8 this workspace
//! uses. Deterministic by construction: `StdRng` is xoshiro256++ seeded
//! via SplitMix64, so `seed_from_u64` gives reproducible streams across
//! platforms (the property every simulator here relies on).

/// Low-level source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types producible uniformly by `Rng::gen` (the `Standard` distribution
/// of real rand).
pub trait StandardSample: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u8 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with `Rng::gen_range`.
pub trait SampleRange<T> {
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift bounded sampling: negligible bias for the
                // span sizes used here, and branch-free.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end - start) as u64 + 1;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                start + hi as $t
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize);

macro_rules! signed_range {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                ((self.start as i64).wrapping_add(hi as i64)) as $t
            }
        }
    )*};
}

signed_range!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let unit = <$t as StandardSample>::sample_standard(rng);
                self.start + (self.end - self.start) * unit
            }
        }
    )*};
}

float_range!(f32, f64);

/// High-level sampling methods, available on every `RngCore`.
pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_in(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ seeded through SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling and choosing on slices.
    pub trait SliceRandom {
        type Item;
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            // Fisher–Yates.
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }

    pub mod index {
        use super::super::{Rng, RngCore};

        /// Indices sampled without replacement.
        #[derive(Debug, Clone)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
                self.0.iter().copied()
            }

            pub fn len(&self) -> usize {
                self.0.len()
            }

            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        /// Samples `amount` distinct indices from `0..length` (partial
        /// Fisher–Yates over an index table).
        pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(amount <= length, "cannot sample {amount} of {length}");
            let mut indices: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                indices.swap(i, j);
            }
            indices.truncate(amount);
            IndexVec(indices)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y = rng.gen_range(-3.0f64..5.5);
            assert!((-3.0..5.5).contains(&y));
            let n = rng.gen_range(3usize..17);
            assert!((3..17).contains(&n));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn index_sample_is_distinct() {
        let mut rng = StdRng::seed_from_u64(3);
        let idx = super::seq::index::sample(&mut rng, 100, 10);
        let mut v: Vec<usize> = idx.iter().collect();
        assert_eq!(v.len(), 10);
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 10);
        assert!(v.iter().all(|&i| i < 100));
    }
}
