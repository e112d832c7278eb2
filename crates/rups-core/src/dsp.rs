//! Minimal DSP kernels: a planned iterative radix-2 FFT, real-input
//! complex-packing transforms, FFT-based cross-correlation and a four-lane
//! `(Σx, Σx²)` reduction.
//!
//! The reference SYN search costs `O(mwk)` (§V-A). For *dense* contexts
//! (after missing-channel interpolation) the per-channel sliding dot
//! products are a plain cross-correlation, which an FFT computes in
//! `O(m log m)` — the engine's FFT kernel
//! ([`Kernel::Fft`](crate::engine::Kernel::Fft)). No external DSP crates
//! are available offline, so the transform is implemented here from
//! scratch and tested against naive references.
//!
//! Four layers keep the hot path microsecond-scale:
//!
//! * [`FftPlan`] — twiddle factors (forward and conjugated) and the
//!   bit-reversal permutation are computed once per transform size and
//!   shared process-wide through [`plan_for`], so a steady-state transform
//!   performs no trigonometry, no planning work and no per-butterfly
//!   branch on its direction;
//! * real complex-packing — two real rows ride one complex transform
//!   ([`real_spectra_pair_into`]), and two correlation products share one
//!   inverse transform ([`corr_from_spectra_pair_into`]), halving the
//!   transform count of a multi-channel pass;
//! * half-length spectra — a real row's spectrum is conjugate-symmetric, so
//!   every split spectrum keeps bins `0..=n/2` only and the correlation
//!   writes the mirrored product bins from their partners;
//! * spectrum-level entry points and a crate-private spectra memo
//!   (`SpectraMemo`) — callers that hold one side of a correlation (the
//!   engine memoises its own rows, its windows and, per query, the
//!   neighbour's rows) transform each channel pair once and pay only for
//!   the rest plus the inverse transform.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// A complex number as a bare `(re, im)` pair — all we need for the FFT.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs a complex number.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

/// Transform size for the linear correlation of an `f_len`-point window
/// against an `s_len`-point row: the correlation has `f_len + s_len − 1`
/// distinct lags, so that — not `f_len + s_len` — is what must fit without
/// circular wrap-around. At exact power-of-two boundaries the distinction
/// halves the transform.
pub fn corr_fft_size(f_len: usize, s_len: usize) -> usize {
    (f_len + s_len - 1).next_power_of_two()
}

/// A reusable FFT plan for one power-of-two size: the bit-reversal
/// permutation and per-stage twiddle factors, computed once. Obtain shared
/// plans through [`plan_for`]; the planned transform itself is
/// [`FftPlan::process`].
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// `rev[i]` = bit-reversed index of `i` (entries with `rev[i] > i`
    /// mark the swaps to perform).
    rev: Vec<u32>,
    /// Forward-transform twiddles, stages concatenated: for stage length
    /// `len = 2, 4, …, n` the `len/2` factors `e^{−2πik/len}`. Total
    /// `n − 1` entries.
    tw: Vec<Complex>,
    /// The same twiddles conjugated, for the inverse transform.
    tw_inv: Vec<Complex>,
}

impl FftPlan {
    /// Builds the plan for size `n` (a power of two).
    fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let mut rev = vec![0u32; n];
        let mut j = 0usize;
        for r in rev.iter_mut().skip(1) {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            *r = j as u32;
        }
        let mut tw = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2usize;
        while len <= n {
            let ang = -std::f64::consts::TAU / len as f64;
            for k in 0..len / 2 {
                let a = ang * k as f64;
                tw.push(Complex::new(a.cos(), a.sin()));
            }
            len <<= 1;
        }
        let tw_inv = tw.iter().map(|w| w.conj()).collect();
        Self { n, rev, tw, tw_inv }
    }

    /// In-place iterative radix-2 Cooley–Tukey FFT using the precomputed
    /// permutation and twiddles. `inverse` computes the unscaled inverse
    /// transform; divide by `n` afterwards to invert exactly (the
    /// correlation helpers below handle that). The direction only picks the
    /// twiddle table: each stage's butterflies run over the two halves of
    /// every `len`-point block.
    pub fn process(&self, data: &mut [Complex], inverse: bool) {
        let n = self.n;
        assert_eq!(data.len(), n, "plan is for size {n}, got {}", data.len());
        if n <= 1 {
            return;
        }
        for i in 1..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let twiddles = if inverse { &self.tw_inv } else { &self.tw };
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let tw = &twiddles[half - 1..len - 1];
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), &w) in lo.iter_mut().zip(hi).zip(tw) {
                    let (a, b) = (*u, *v * w);
                    *u = a + b;
                    *v = a - b;
                }
            }
            len <<= 1;
        }
    }
}

/// Process-wide plan cache: one [`FftPlan`] per size, built on first use.
/// The SYN hot path only ever sees a handful of sizes (one per
/// `(window, context)` length pair rounded up to a power of two), so the
/// map stays tiny and lock contention is read-mostly.
fn plan_cache() -> &'static RwLock<HashMap<usize, Arc<FftPlan>>> {
    static CACHE: std::sync::OnceLock<RwLock<HashMap<usize, Arc<FftPlan>>>> =
        std::sync::OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The shared plan for transform size `n` (a power of two), built on first
/// request and reused for every later same-size call.
pub fn plan_for(n: usize) -> Arc<FftPlan> {
    if let Some(p) = plan_cache()
        .read()
        .expect("FFT plan cache poisoned")
        .get(&n)
    {
        return Arc::clone(p);
    }
    // Planned outside the write lock: a size that is not a power of two
    // panics here without poisoning the process-wide cache.
    let plan = Arc::new(FftPlan::new(n));
    let mut guard = plan_cache().write().expect("FFT plan cache poisoned");
    Arc::clone(guard.entry(n).or_insert(plan))
}

/// Half-length spectra of two real rows via **one** complex transform of
/// `size` — the real complex-packing trick: transform `a + i·b`, then split
/// the result using the conjugate symmetry of real-input spectra. Each
/// spectrum keeps bins `0..=size/2`: bin `size − k` of a real row's
/// spectrum is the conjugate of bin `k`.
///
/// `a` and `b` are zero-padded to `size` (each must be no longer than
/// `size`); `b` may be empty, in which case this is a plain padded real
/// FFT of `a` and `xb` is left cleared. With `reversed` set, both rows are
/// written time-reversed (the fixed-window side of a correlation).
/// `work` is a caller-reused transform buffer. `f32` rows widen exactly,
/// so they transform bit for bit like their `f64` copies.
pub fn real_spectra_pair_into<T: Copy + Into<f64>>(
    a: &[T],
    b: &[T],
    reversed: bool,
    size: usize,
    work: &mut Vec<Complex>,
    xa: &mut Vec<Complex>,
    xb: &mut Vec<Complex>,
) {
    assert!(
        a.len() <= size && b.len() <= size,
        "rows must fit the transform: {} / {} vs {size}",
        a.len(),
        b.len()
    );
    let plan = plan_for(size);
    work.clear();
    work.resize(size, Complex::default());
    if reversed {
        for (i, &v) in a.iter().rev().enumerate() {
            work[i].re = v.into();
        }
        for (i, &v) in b.iter().rev().enumerate() {
            work[i].im = v.into();
        }
    } else {
        for (i, &v) in a.iter().enumerate() {
            work[i].re = v.into();
        }
        for (i, &v) in b.iter().enumerate() {
            work[i].im = v.into();
        }
    }
    plan.process(work, false);
    split_packed_spectrum(work, xa, xb, !b.is_empty());
}

/// Splits the spectrum `x` of the packed signal `a + i·b` (both real) into
/// bins `0..=n/2` of the individual spectra `xa` and `xb`:
/// `A[k] = (X[k] + conj(X[n−k]))/2`, `B[k] = −i·(X[k] − conj(X[n−k]))/2`.
fn split_packed_spectrum(
    x: &[Complex],
    xa: &mut Vec<Complex>,
    xb: &mut Vec<Complex>,
    want_b: bool,
) {
    let (n, bins) = (x.len(), x.len() / 2 + 1);
    // Exact reservations: a memo entry keeps what its spectra need, not a
    // doubled capacity.
    xa.clear();
    xa.reserve_exact(bins);
    xb.clear();
    if want_b {
        xb.reserve_exact(bins);
    }
    for k in 0..bins {
        let p = x[k];
        let q = x[(n - k) & (n - 1)].conj();
        xa.push(Complex::new(0.5 * (p.re + q.re), 0.5 * (p.im + q.im)));
        if want_b {
            // −i·(p − q)/2: re = (p.im − q.im)/2, im = −(p.re − q.re)/2.
            xb.push(Complex::new(0.5 * (p.im - q.im), 0.5 * (q.re - p.re)));
        }
    }
}

/// Correlation lags of **two** channel pairs from their half-length spectra
/// via one inverse transform: the products `Fa·Sa` and `Fb·Sb` (both
/// conjugate-symmetric, hence real after inversion) are packed as
/// `P = Fa·Sa + i·(Fb·Sb)`, inverted once, and split from the real and
/// imaginary parts. Product bin `n − k` is written from bin `k`'s products
/// with their signs flipped, `conj(Fa·Sa) + i·conj(Fb·Sb)`: the arithmetic
/// a full-length product does on the mirrored, conjugate spectrum bins, so
/// the lags are its bits (on degenerate rows a lag that is exactly zero may
/// carry the other sign).
///
/// `fa`/`fb` must be spectra of *time-reversed* `f_len`-point fixed rows
/// (see [`real_spectra_pair_into`] with `reversed`), `sa`/`sb` spectra of
/// the sliding rows, all of one transform size. Writes `n_out` lags per
/// channel. Pass `fb`/`sb` as empty slices for a lone trailing channel;
/// `out_b` is then left cleared.
#[allow(clippy::too_many_arguments)]
pub fn corr_from_spectra_pair_into(
    fa: &[Complex],
    sa: &[Complex],
    fb: &[Complex],
    sb: &[Complex],
    f_len: usize,
    n_out: usize,
    work: &mut Vec<Complex>,
    out_a: &mut Vec<f64>,
    out_b: &mut Vec<f64>,
) {
    let bins = fa.len();
    assert_eq!(sa.len(), bins, "spectra sizes must agree");
    let have_b = !fb.is_empty();
    if have_b {
        assert_eq!(fb.len(), bins, "spectra sizes must agree");
        assert_eq!(sb.len(), bins, "spectra sizes must agree");
    }
    // The transform size whose bins 0..=n/2 the spectra hold.
    let n = (2 * (bins - 1)).max(1);
    assert!(
        f_len >= 1 && f_len - 1 + n_out <= n,
        "lags must fit the transform: f_len {f_len}, n_out {n_out}, size {n}"
    );
    let plan = plan_for(n);
    work.clear();
    work.resize(n, Complex::default());
    // Bins 0 and n/2 are their own mirrors: the direct write comes second.
    if have_b {
        for k in 0..bins {
            let pa = fa[k] * sa[k];
            let pb = fb[k] * sb[k];
            work[(n - k) & (n - 1)] = Complex::new(pa.re + pb.im, pb.re - pa.im);
            // pa + i·pb
            work[k] = Complex::new(pa.re - pb.im, pa.im + pb.re);
        }
    } else {
        for k in 0..bins {
            let pa = fa[k] * sa[k];
            work[(n - k) & (n - 1)] = pa.conj();
            work[k] = pa;
        }
    }
    plan.process(work, true);
    let scale = 1.0 / n as f64;
    // Correlation lag j lives at convolution index (f_len − 1) + j.
    out_a.clear();
    out_a.extend((0..n_out).map(|j| work[f_len - 1 + j].re * scale));
    out_b.clear();
    if have_b {
        out_b.extend((0..n_out).map(|j| work[f_len - 1 + j].im * scale));
    }
}

/// A channel pair's half-length packed spectra (`b` empty for a lone
/// trailing channel). Memoised per pair because the packing makes each
/// channel's spectrum partner-dependent in floating point: a memo hit must
/// return exactly what a fresh [`real_spectra_pair_into`] over the same
/// pair would produce.
#[derive(Default)]
pub(crate) struct SpectraPair {
    pub a: Vec<Complex>,
    pub b: Vec<Complex>,
}

/// Memo key: `(transform size, first channel, second channel)`.
type SpectraKey = (usize, usize, Option<usize>);

/// The packed spectra of one set of real rows, per transform size and
/// channel pair, each transformed once on first use and then shared by
/// every correlation that reads it, from any thread. The engine keeps one
/// over its own rows, one per checking window over that window's reversed
/// slice, and one per query over the neighbour's rows, held in the query's
/// pooled arena; [`reset`](Self::reset) empties that one for the next
/// query and keeps its entries' buffers, so a warm query fills it without
/// allocating.
#[derive(Default)]
pub(crate) struct SpectraMemo {
    state: RwLock<MemoState>,
}

#[derive(Default)]
struct MemoState {
    entries: HashMap<SpectraKey, Arc<SpectraPair>>,
    /// Entries emptied by the last reset, refilled by later misses.
    spare: Vec<Arc<SpectraPair>>,
}

impl SpectraMemo {
    /// The spectra of the rows of `pair` (one channel, or two packed in
    /// order) at `size`, time-reversed when `reversed`. A miss transforms
    /// `row(ch)` for each channel through `work` under the write lock,
    /// after looking again, so concurrent misses fill each pair once. A
    /// memo must always be asked for one orientation of one set of rows.
    pub(crate) fn pair<'r, T: Copy + Into<f64> + 'r>(
        &self,
        size: usize,
        pair: &[usize],
        reversed: bool,
        row: impl Fn(usize) -> &'r [T],
        work: &mut Vec<Complex>,
    ) -> Arc<SpectraPair> {
        let key = (size, pair[0], pair.get(1).copied());
        let state = self.state.read().expect("spectra memo lock poisoned");
        if let Some(hit) = state.entries.get(&key) {
            return Arc::clone(hit);
        }
        drop(state);
        let mut state = self.state.write().expect("spectra memo lock poisoned");
        let MemoState { entries, spare } = &mut *state;
        if let Some(hit) = entries.get(&key) {
            return Arc::clone(hit);
        }
        let mut entry = spare.pop().unwrap_or_default();
        let SpectraPair { a, b } = Arc::get_mut(&mut entry).expect("spare entries are unshared");
        let second = pair.get(1).map_or(&[][..], |&ch| row(ch));
        real_spectra_pair_into(row(pair[0]), second, reversed, size, work, a, b);
        entries.insert(key, Arc::clone(&entry));
        entry
    }

    /// Empties the memo, keeping the buffers of the entries no one still
    /// holds for its next fills.
    pub(crate) fn reset(&mut self) {
        let state = self.state.get_mut().expect("spectra memo lock poisoned");
        let unshared = state.entries.drain().map(|(_, e)| e);
        state
            .spare
            .extend(unshared.filter(|e| Arc::strong_count(e) == 1));
    }

    /// The number of pairs held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let state = self.state.read().expect("spectra memo lock poisoned");
        state.entries.len()
    }
}

/// `(Σx, Σx²)` of a row in one pass, hand-unrolled into four independent
/// f64 lanes — the fixed-window sum builder of every dense scan. Lane
/// partials are combined in a fixed `(0+1)+(2+3)` order, so results are
/// deterministic (though not bit-identical to a sequential fold). `f32`
/// rows are widened value by value, exactly, so they sum bit for bit like
/// their `f64` copies.
pub fn sum_sumsq<T: Copy + Into<f64>>(x: &[T]) -> (f64, f64) {
    let mut s = [0.0f64; 4];
    let mut q = [0.0f64; 4];
    let mut chunks = x.chunks_exact(4);
    for c in &mut chunks {
        for (l, &v) in c.iter().enumerate() {
            let v: f64 = v.into();
            s[l] += v;
            q[l] += v * v;
        }
    }
    let (mut sum, mut sumsq) = ((s[0] + s[1]) + (s[2] + s[3]), (q[0] + q[1]) + (q[2] + q[3]));
    for &v in chunks.remainder() {
        let v: f64 = v.into();
        sum += v;
        sumsq += v * v;
    }
    (sum, sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-place transform of `data` through its size's shared plan.
    fn fft(data: &mut [Complex], inverse: bool) {
        plan_for(data.len()).process(data, inverse);
    }

    fn naive_sliding_dot(f: &[f64], s: &[f64]) -> Vec<f64> {
        (0..=s.len() - f.len())
            .map(|j| f.iter().zip(&s[j..]).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// The buffers of one FFT correlation pass, reused across calls the way
    /// the engine's passes reuse their scratch arena.
    #[derive(Default)]
    struct PairCorr {
        work: Vec<Complex>,
        fa: Vec<Complex>,
        fb: Vec<Complex>,
        sa: Vec<Complex>,
        sb: Vec<Complex>,
        out_a: Vec<f64>,
        out_b: Vec<f64>,
    }

    impl PairCorr {
        /// Lags of `f1` over `s1` into `out_a` and of `f2` over `s2` into
        /// `out_b` through [`real_spectra_pair_into`] +
        /// [`corr_from_spectra_pair_into`] at the minimal transform size;
        /// empty `f2`/`s2` take the lone-channel form.
        fn run(&mut self, f1: &[f64], s1: &[f64], f2: &[f64], s2: &[f64]) {
            let (fl, sl) = (f1.len(), s1.len());
            let size = corr_fft_size(fl, sl);
            let w = &mut self.work;
            real_spectra_pair_into(f1, f2, true, size, w, &mut self.fa, &mut self.fb);
            real_spectra_pair_into(s1, s2, false, size, w, &mut self.sa, &mut self.sb);
            let (fa, sa, fb, sb) = (&self.fa, &self.sa, &self.fb, &self.sb);
            let (out_a, out_b) = (&mut self.out_a, &mut self.out_b);
            corr_from_spectra_pair_into(fa, sa, fb, sb, fl, sl - fl + 1, w, out_a, out_b);
        }
    }

    fn assert_lags(got: &[f64], f: &[f64], s: &[f64], tol: f64) {
        let naive = naive_sliding_dot(f, s);
        assert_eq!(got.len(), naive.len());
        for (j, (a, b)) in got.iter().zip(&naive).enumerate() {
            assert!(
                (a - b).abs() < tol,
                "({}, {}) lag {j}: fft {a} vs naive {b}",
                f.len(),
                s.len()
            );
        }
    }

    #[test]
    fn fft_roundtrip_recovers_signal() {
        let n = 64;
        let orig: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut data = orig.clone();
        fft(&mut data, false);
        fft(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re / n as f64 - b.re).abs() < 1e-10);
            assert!((a.im / n as f64 - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 16];
        data[0] = Complex::new(1.0, 0.0);
        fft(&mut data, false);
        for c in &data {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_parseval() {
        let n = 128;
        let sig: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 1.1).sin(), 0.0))
            .collect();
        let time_energy: f64 = sig.iter().map(|c| c.re * c.re + c.im * c.im).sum();
        let mut freq = sig.clone();
        fft(&mut freq, false);
        let freq_energy: f64 =
            freq.iter().map(|c| c.re * c.re + c.im * c.im).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        // Panics before the cache's write lock: the other tests of this
        // process keep sharing the cache.
        plan_for(12);
    }

    #[test]
    fn planned_fft_matches_adhoc_trig_fft() {
        // Reference: the twiddle-recurrence FFT this module used to ship.
        fn fft_trig(data: &mut [Complex], inverse: bool) {
            let n = data.len();
            let mut j = 0usize;
            for i in 1..n {
                let mut bit = n >> 1;
                while j & bit != 0 {
                    j ^= bit;
                    bit >>= 1;
                }
                j |= bit;
                if i < j {
                    data.swap(i, j);
                }
            }
            let sign = if inverse { 1.0 } else { -1.0 };
            let mut len = 2usize;
            while len <= n {
                let ang = sign * std::f64::consts::TAU / len as f64;
                let wlen = Complex::new(ang.cos(), ang.sin());
                let mut i = 0usize;
                while i < n {
                    let mut w = Complex::new(1.0, 0.0);
                    for k in 0..len / 2 {
                        let u = data[i + k];
                        let v = data[i + k + len / 2] * w;
                        data[i + k] = u + v;
                        data[i + k + len / 2] = u - v;
                        w = w * wlen;
                    }
                    i += len;
                }
                len <<= 1;
            }
        }
        for &n in &[1usize, 2, 8, 64, 256] {
            let sig: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.9).sin(), (i as f64 * 0.4).cos()))
                .collect();
            for inverse in [false, true] {
                let mut a = sig.clone();
                let mut b = sig.clone();
                fft(&mut a, inverse);
                fft_trig(&mut b, inverse);
                for (x, y) in a.iter().zip(&b) {
                    assert!(
                        (x.re - y.re).abs() < 1e-9 && (x.im - y.im).abs() < 1e-9,
                        "n={n} inverse={inverse}: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }

    /// A real row of `len` dBm-like values, distinct from seed to seed.
    fn real_row(seed: u64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64 + 1.0) * (0.37 + seed as f64 * 0.11)).sin() * 20.0 - 70.0)
            .collect()
    }

    /// Two real rows packed as `a + i·b`, zero-padded to `n`.
    fn packed(a: &[f64], b: &[f64], n: usize) -> Vec<Complex> {
        let mut x = vec![Complex::default(); n];
        for (i, &v) in a.iter().enumerate() {
            x[i].re = v;
        }
        for (i, &v) in b.iter().enumerate() {
            x[i].im = v;
        }
        x
    }

    fn complex_bits(x: &[Complex]) -> Vec<(u64, u64)> {
        x.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// The butterfly loop as it was before the conjugated twiddle table:
    /// one `inverse` branch and one conjugation per butterfly.
    fn process_conj_per_butterfly(plan: &FftPlan, data: &mut [Complex], inverse: bool) {
        let n = plan.n;
        if n <= 1 {
            return;
        }
        for i in 1..n {
            let j = plan.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut len = 2usize;
        let mut tw_base = 0usize;
        while len <= n {
            let half = len / 2;
            let tw = &plan.tw[tw_base..tw_base + half];
            let mut i = 0usize;
            while i < n {
                for k in 0..half {
                    let w = if inverse { tw[k].conj() } else { tw[k] };
                    let u = data[i + k];
                    let v = data[i + k + half] * w;
                    data[i + k] = u + v;
                    data[i + k + half] = u - v;
                }
                i += len;
            }
            tw_base += half;
            len <<= 1;
        }
    }

    /// The split of a packed spectrum into full-length spectra, every bin
    /// from its own formula.
    fn split_full(x: &[Complex]) -> (Vec<Complex>, Vec<Complex>) {
        let n = x.len();
        (0..n)
            .map(|k| {
                let (p, q) = (x[k], x[(n - k) & (n - 1)].conj());
                let a = Complex::new(0.5 * (p.re + q.re), 0.5 * (p.im + q.im));
                let b = Complex::new(0.5 * (p.im - q.im), 0.5 * (q.re - p.re));
                (a, b)
            })
            .unzip()
    }

    /// Full-length spectra of `a` and `b` (`b` may be empty) at `n`,
    /// `a` and `b` time-reversed when `reversed`.
    fn full_spectra(
        a: &[f64],
        b: &[f64],
        reversed: bool,
        n: usize,
    ) -> (Vec<Complex>, Vec<Complex>) {
        let rev = |r: &[f64]| -> Vec<f64> {
            if reversed {
                r.iter().rev().copied().collect()
            } else {
                r.to_vec()
            }
        };
        let mut x = packed(&rev(a), &rev(b), n);
        fft(&mut x, false);
        split_full(&x)
    }

    #[test]
    fn butterflies_match_the_per_butterfly_conj_loop_bit_for_bit() {
        for log in 0..=12 {
            let n = 1usize << log;
            let plan = plan_for(n);
            let tw_conj: Vec<Complex> = plan.tw.iter().map(|w| w.conj()).collect();
            assert_eq!(complex_bits(&plan.tw_inv), complex_bits(&tw_conj), "n={n}");
            // Rows shorter than the transform, as the correlations pad them.
            let len = n - n / 4;
            let x = packed(&real_row(1, len), &real_row(2, len / 2), n);
            for inverse in [false, true] {
                let (mut got, mut want) = (x.clone(), x.clone());
                plan.process(&mut got, inverse);
                process_conj_per_butterfly(&plan, &mut want, inverse);
                assert_eq!(
                    complex_bits(&got),
                    complex_bits(&want),
                    "n={n} inverse={inverse}"
                );
            }
        }
    }

    #[test]
    fn half_spectra_are_the_full_spectra_up_to_their_exact_conjugates() {
        let (mut work, mut xa, mut xb) = (Vec::new(), Vec::new(), Vec::new());
        for log in 0..=12 {
            let n = 1usize << log;
            let len = n.min(85);
            let (a, b) = (real_row(3, len), real_row(4, len.div_ceil(2)));
            for (b, reversed) in [(&b[..], false), (&b[..], true), (&[][..], false)] {
                real_spectra_pair_into(&a, b, reversed, n, &mut work, &mut xa, &mut xb);
                let (fa, fb) = full_spectra(&a, b, reversed, n);
                let case = format!("n={n} lone={} reversed={reversed}", b.is_empty());
                assert_eq!(complex_bits(&xa), complex_bits(&fa[..=n / 2]), "{case}");
                let mirrored = |x: &[Complex]| -> Vec<Complex> {
                    (0..n).map(|k| x[(n - k) & (n - 1)].conj()).collect()
                };
                // Bins 0 and n/2 are their own mirrors.
                let inner = |x: &[Complex]| complex_bits(&x[1..(n / 2).max(1)]);
                let (fam, fbm) = (mirrored(&fa), mirrored(&fb));
                assert_eq!(inner(&fa), inner(&fam), "{case}");
                if b.is_empty() {
                    assert!(xb.is_empty(), "{case}");
                } else {
                    assert_eq!(complex_bits(&xb), complex_bits(&fb[..=n / 2]), "{case}");
                    assert_eq!(inner(&fb), inner(&fbm), "{case}");
                }
            }
        }
    }

    #[test]
    fn correlations_match_a_full_length_product_bit_for_bit() {
        // Sizes 1, 2 and 4, then f + s − 1 at and one past a power of two.
        let cases = [
            (1usize, 1usize),
            (1, 2),
            (2, 2),
            (1, 4),
            (2, 3),
            (3, 3),
            (16, 49),
            (16, 50),
            (85, 172),
            (85, 173),
        ];
        let mut p = PairCorr::default();
        let mut full_work = Vec::new();
        for (fl, sl) in cases {
            let n = corr_fft_size(fl, sl);
            let (f1, f2) = (real_row(5, fl), real_row(6, fl));
            let (s1, s2) = (real_row(7, sl), real_row(8, sl));
            for (f2, s2) in [(&f2[..], &s2[..]), (&[][..], &[][..])] {
                p.run(&f1, &s1, f2, s2);
                let (fa, fb) = full_spectra(&f1, f2, true, n);
                let (sa, sb) = full_spectra(&s1, s2, false, n);
                full_work.clear();
                full_work.extend((0..n).map(|k| {
                    let pa = fa[k] * sa[k];
                    if f2.is_empty() {
                        pa
                    } else {
                        let pb = fb[k] * sb[k];
                        Complex::new(pa.re - pb.im, pa.im + pb.re)
                    }
                }));
                fft(&mut full_work, true);
                let scale = 1.0 / n as f64;
                let lags = sl - fl + 1;
                let lag = |j: usize| full_work[fl - 1 + j];
                let want_a: Vec<u64> = (0..lags).map(|j| (lag(j).re * scale).to_bits()).collect();
                let got_a: Vec<u64> = p.out_a.iter().map(|v| v.to_bits()).collect();
                let case = format!("({fl}, {sl}) lone={}", f2.is_empty());
                assert_eq!(got_a, want_a, "{case}");
                if !f2.is_empty() {
                    let want_b: Vec<u64> =
                        (0..lags).map(|j| (lag(j).im * scale).to_bits()).collect();
                    let got_b: Vec<u64> = p.out_b.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got_b, want_b, "{case}");
                }
            }
        }
    }

    #[test]
    fn a_memo_fills_each_pair_once_and_refills_in_place_after_a_reset() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let rows = [real_row(9, 40), real_row(10, 40), real_row(11, 40)];
        let reads = AtomicUsize::new(0);
        let row = |ch: usize| {
            reads.fetch_add(1, Relaxed);
            &rows[ch][..]
        };
        // Four threads miss the same pair at once: one fills it.
        let memo = SpectraMemo::default();
        let barrier = std::sync::Barrier::new(4);
        let got: Vec<Arc<SpectraPair>> = std::thread::scope(|scope| {
            let ask = || {
                barrier.wait();
                memo.pair(64, &[0, 1], false, row, &mut Vec::new())
            };
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(ask)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(reads.load(Relaxed), 2, "one fill reads each row once");
        assert!(got.iter().all(|p| Arc::ptr_eq(p, &got[0])));
        let (mut work, mut xa, mut xb) = (Vec::new(), Vec::new(), Vec::new());
        real_spectra_pair_into(&rows[0], &rows[1], false, 64, &mut work, &mut xa, &mut xb);
        assert_eq!(complex_bits(&got[0].a), complex_bits(&xa));
        assert_eq!(complex_bits(&got[0].b), complex_bits(&xb));
        // A lone channel and another size are entries of their own.
        memo.pair(64, &[2], false, row, &mut work);
        memo.pair(128, &[0, 1], false, row, &mut work);
        assert_eq!((memo.len(), reads.load(Relaxed)), (3, 5));
        // A reset empties the memo; its next fills reuse the entries.
        drop(got);
        let mut memo = memo;
        memo.reset();
        assert_eq!(memo.len(), 0);
        let again = memo.pair(64, &[0, 1], false, row, &mut work);
        assert_eq!(complex_bits(&again.a), complex_bits(&xa));
        assert_eq!(complex_bits(&again.b), complex_bits(&xb));
        let spare = memo.state.read().unwrap().spare.len();
        assert_eq!(spare, 2, "a refill takes a spare entry");
    }

    #[test]
    fn plans_are_shared_per_size() {
        let a = plan_for(128);
        let b = plan_for(128);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn sliding_dot_matches_naive() {
        let f: Vec<f64> = (0..23).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let s: Vec<f64> = (0..100).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
        let f2: Vec<f64> = (0..23).map(|i| ((i * 5) % 13) as f64 - 6.0).collect();
        let s2: Vec<f64> = (0..100).map(|i| ((i * 11) % 19) as f64 - 9.0).collect();
        let mut p = PairCorr::default();
        p.run(&f, &s, &f2, &s2);
        assert_lags(&p.out_a, &f, &s, 1e-6);
        assert_lags(&p.out_b, &f2, &s2, 1e-6);
        p.run(&f, &s, &[], &[]);
        assert_lags(&p.out_a, &f, &s, 1e-6);
        assert!(p.out_b.is_empty());
    }

    #[test]
    fn sliding_dot_degenerate_sizes() {
        let mut p = PairCorr::default();
        // f.len() == s.len(): one lag.
        let f = [1.0, 2.0, 3.0];
        p.run(&f, &f, &[2.0, 0.0, 1.0], &f);
        assert_eq!((p.out_a.len(), p.out_b.len()), (1, 1));
        assert!((p.out_a[0] - 14.0).abs() < 1e-9);
        assert!((p.out_b[0] - 5.0).abs() < 1e-9);
        // Single-element window: identity.
        p.run(&[2.0], &[1.0, 2.0, 3.0], &[], &[]);
        assert_eq!(p.out_a.len(), 3);
        assert!((p.out_a[1] - 4.0).abs() < 1e-9);
        // One-point row against itself: the 1-point transform.
        p.run(&[3.0], &[-2.0], &[], &[]);
        assert!((p.out_a[0] + 6.0).abs() < 1e-12);
    }

    #[test]
    fn corr_size_uses_minimal_transform_at_pow2_boundaries() {
        // 3 + 5 − 1 = 7 → 8; the old `next_pow2(f + s)` sizing doubled
        // this exact boundary case to 16 (2× the transform work).
        assert_eq!(corr_fft_size(3, 5), 8);
        assert_eq!(corr_fft_size(1, 1), 1);
        assert_eq!(corr_fft_size(64, 65), 128);
        // Lag indexing stays correct at the tight size, paired and lone:
        // exhaustive check around several boundaries.
        let mut p = PairCorr::default();
        for &(fl, sl) in &[(3usize, 6usize), (64, 65), (16, 49), (2, 7), (5, 12)] {
            assert!(
                (fl + sl - 1).is_power_of_two(),
                "test case ({fl},{sl}) must sit exactly on a boundary"
            );
            let f: Vec<f64> = (0..fl).map(|i| (i as f64 * 0.7).sin() + 1.0).collect();
            let s: Vec<f64> = (0..sl).map(|i| (i as f64 * 1.1).cos() - 0.5).collect();
            let f2: Vec<f64> = (0..fl).map(|i| (i as f64 * 0.4).cos() - 2.0).collect();
            let s2: Vec<f64> = (0..sl).map(|i| (i as f64 * 0.9).sin() + 0.5).collect();
            p.run(&f, &s, &f2, &s2);
            assert_lags(&p.out_a, &f, &s, 1e-9);
            assert_lags(&p.out_b, &f2, &s2, 1e-9);
            p.run(&f, &s, &[], &[]);
            assert_lags(&p.out_a, &f, &s, 1e-9);
            assert!(p.out_b.is_empty());
        }
    }

    #[test]
    fn packed_spectra_match_individual_ffts() {
        let n = 64;
        let a: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin() * 20.0).collect();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.8).cos() * 15.0).collect();
        let (mut work, mut xa, mut xb) = (Vec::new(), Vec::new(), Vec::new());
        for reversed in [false, true] {
            real_spectra_pair_into(&a, &b, reversed, n, &mut work, &mut xa, &mut xb);
            assert_eq!((xa.len(), xb.len()), (n / 2 + 1, n / 2 + 1));
            for (row, got) in [(&a, &xa), (&b, &xb)] {
                let mut direct = vec![Complex::default(); n];
                if reversed {
                    for (i, &v) in row.iter().rev().enumerate() {
                        direct[i].re = v;
                    }
                } else {
                    for (i, &v) in row.iter().enumerate() {
                        direct[i].re = v;
                    }
                }
                fft(&mut direct, false);
                for (k, (p, q)) in got.iter().zip(&direct).enumerate() {
                    assert!(
                        (p.re - q.re).abs() < 1e-9 && (p.im - q.im).abs() < 1e-9,
                        "reversed={reversed} bin {k}: packed {p:?} vs direct {q:?}"
                    );
                }
            }
        }
        // Lone-row variant: xb cleared, xa still exact.
        real_spectra_pair_into(&a, &[], false, n, &mut work, &mut xa, &mut xb);
        assert!(xb.is_empty());
        let mut direct = vec![Complex::default(); n];
        for (i, &v) in a.iter().enumerate() {
            direct[i].re = v;
        }
        fft(&mut direct, false);
        for (p, q) in xa.iter().zip(&direct) {
            assert!((p.re - q.re).abs() < 1e-9 && (p.im - q.im).abs() < 1e-9);
        }
    }

    #[test]
    fn paired_correlation_from_spectra_matches_naive() {
        let fl = 17usize;
        let sl = 90usize;
        let f1: Vec<f64> = (0..fl).map(|i| (i as f64 * 0.5).sin() - 70.0).collect();
        let f2: Vec<f64> = (0..fl).map(|i| (i as f64 * 0.9).cos() - 65.0).collect();
        let s1: Vec<f64> = (0..sl).map(|i| (i as f64 * 0.7).sin() - 72.0).collect();
        let s2: Vec<f64> = (0..sl).map(|i| (i as f64 * 0.2).cos() - 60.0).collect();
        let mut p = PairCorr::default();
        p.run(&f1, &s1, &f2, &s2);
        assert_lags(&p.out_a, &f1, &s1, 1e-6);
        assert_lags(&p.out_b, &f2, &s2, 1e-6);
        // Lone-channel inversion path.
        p.run(&f1, &s1, &[], &[]);
        assert!(p.out_b.is_empty());
        assert_lags(&p.out_a, &f1, &s1, 1e-6);
    }

    #[test]
    fn into_variants_reuse_buffers_across_sizes() {
        // Grow, shrink, grow again with one set of buffers, paired and
        // lone: stale capacity must never leak into results, which match
        // a run on fresh buffers bit for bit.
        let mut p = PairCorr::default();
        for &(fl, sl) in &[(5usize, 40usize), (3, 9), (17, 64)] {
            let f: Vec<f64> = (0..fl).map(|i| (i as f64 * 0.9).cos()).collect();
            let sig: Vec<f64> = (0..sl).map(|i| (i as f64 * 1.3).sin()).collect();
            let f2: Vec<f64> = (0..fl).map(|i| (i as f64 * 0.2).sin()).collect();
            let sig2: Vec<f64> = (0..sl).map(|i| (i as f64 * 0.6).cos()).collect();
            for (f2, sig2) in [(&f2[..], &sig2[..]), (&[][..], &[][..])] {
                p.run(&f, &sig, f2, sig2);
                let mut fresh = PairCorr::default();
                fresh.run(&f, &sig, f2, sig2);
                assert_eq!(p.out_a, fresh.out_a, "({fl}, {sl})");
                assert_eq!(p.out_b, fresh.out_b, "({fl}, {sl})");
            }
        }
    }

    #[test]
    fn sum_sumsq_matches_naive_within_rounding() {
        for n in 0..35usize {
            let x: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.77).cos() * 90.0 - 70.0)
                .collect();
            let (s, q) = sum_sumsq(&x);
            let es: f64 = x.iter().sum();
            let eq: f64 = x.iter().map(|v| v * v).sum();
            assert!((s - es).abs() < 1e-9, "n={n}: {s} vs {es}");
            assert!((q - eq).abs() < 1e-6, "n={n}: {q} vs {eq}");
        }
    }

    #[test]
    fn complex_algebra() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
    }
}
