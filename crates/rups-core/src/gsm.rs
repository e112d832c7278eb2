//! Power vectors and GSM-aware trajectories (§III, §IV-C).
//!
//! A **power vector** is the RSSI of every scanned GSM channel at one road
//! location. A **GSM-aware trajectory** is the `n_channels × m_metres`
//! matrix formed by binding consecutive power vectors to the geographical
//! trajectory — the paper's `S^R = [C_1; C_2; …; C_n]` with channel rows
//! `C_i = [x_i^1 … x_i^m]`.
//!
//! Missing measurements (channels the scanner did not reach at a metre mark,
//! §IV-C) are stored as `NaN` and can be filled by linear interpolation over
//! distance with [`GsmTrajectory::interpolate_missing`].

use crate::stats;
#[allow(unused_imports)]
use serde::ser::SerializeSeq as _;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// RSSI measurements over the scanned channels at a single road location.
///
/// `NaN` entries mark channels that were not measured at this location.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerVector {
    values: Vec<f32>,
}

impl PowerVector {
    /// A power vector with every channel missing.
    pub fn missing(n_channels: usize) -> Self {
        Self {
            values: vec![f32::NAN; n_channels],
        }
    }

    /// Builds a power vector from a closure returning `Some(rssi_dbm)` for
    /// measured channels and `None` for missing ones.
    pub fn from_fn(n_channels: usize, mut f: impl FnMut(usize) -> Option<f32>) -> Self {
        Self {
            values: (0..n_channels)
                .map(|ch| f(ch).unwrap_or(f32::NAN))
                .collect(),
        }
    }

    /// Builds a power vector from raw values (`NaN` = missing).
    pub fn from_values(values: Vec<f32>) -> Self {
        Self { values }
    }

    /// Number of channels (measured or not).
    #[inline]
    pub fn n_channels(&self) -> usize {
        self.values.len()
    }

    /// Raw values; `NaN` marks missing channels.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// RSSI of channel `ch`, or `None` if missing.
    #[inline]
    pub fn get(&self, ch: usize) -> Option<f32> {
        let v = *self.values.get(ch)?;
        (!v.is_nan()).then_some(v)
    }

    /// Records a measurement for channel `ch`.
    #[inline]
    pub fn set(&mut self, ch: usize, rssi_dbm: f32) {
        self.values[ch] = rssi_dbm;
    }

    /// Number of channels with a valid measurement.
    pub fn present_count(&self) -> usize {
        self.values.iter().filter(|v| !v.is_nan()).count()
    }

    /// Fraction of channels with a valid measurement.
    pub fn coverage(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.present_count() as f64 / self.values.len() as f64
    }

    /// Pearson's correlation coefficient with another power vector over the
    /// common measured channels — Eq. (1) of the paper.
    pub fn pearson(&self, other: &PowerVector) -> Option<f64> {
        stats::pearson(&self.values, &other.values)
    }

    /// Relative change `‖X − X'‖ / ‖X‖` with respect to this vector —
    /// Eq. (3) of the paper, the fine-resolution metric of §III-D.
    pub fn relative_change(&self, other: &PowerVector) -> Option<f64> {
        stats::relative_change(&self.values, &other.values)
    }

    /// Mean RSSI over measured channels.
    pub fn mean(&self) -> Option<f64> {
        stats::present_mean(&self.values)
    }
}

/// A GSM-aware trajectory: per-channel RSSI rows over per-metre columns,
/// aligned index-for-index with a [`crate::geo::GeoTrajectory`].
///
/// Rows are stored as independent contiguous vectors so that the hot
/// per-channel Pearson pass of the SYN search streams over cache-friendly
/// slices.
#[derive(Debug, Clone, PartialEq)]
pub struct GsmTrajectory {
    rows: Vec<Vec<f32>>,
    len: usize,
}

// Missing cells are NaN, which JSON cannot represent; (de)serialise through
// `Option<f32>` (None = missing) so every serde format round-trips.
impl Serialize for PowerVector {
    fn serialize<S: serde::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        let opt: Vec<Option<f32>> = self
            .values
            .iter()
            .map(|&v| (!v.is_nan()).then_some(v))
            .collect();
        opt.serialize(ser)
    }
}

impl<'de> Deserialize<'de> for PowerVector {
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let opt = Vec::<Option<f32>>::deserialize(de)?;
        Ok(PowerVector {
            values: opt.into_iter().map(|v| v.unwrap_or(f32::NAN)).collect(),
        })
    }
}

impl Serialize for GsmTrajectory {
    fn serialize<S: serde::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        let rows: Vec<Vec<Option<f32>>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|&v| (!v.is_nan()).then_some(v)).collect())
            .collect();
        rows.serialize(ser)
    }
}

impl<'de> Deserialize<'de> for GsmTrajectory {
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let opt_rows = Vec::<Vec<Option<f32>>>::deserialize(de)?;
        let rows: Vec<Vec<f32>> = opt_rows
            .into_iter()
            .map(|r| r.into_iter().map(|v| v.unwrap_or(f32::NAN)).collect())
            .collect();
        let len = rows.first().map_or(0, |r: &Vec<f32>| r.len());
        if rows.iter().any(|r| r.len() != len) {
            return Err(serde::de::Error::custom("ragged GSM trajectory rows"));
        }
        Ok(GsmTrajectory { rows, len })
    }
}

impl GsmTrajectory {
    /// An empty trajectory over `n_channels` channels.
    pub fn new(n_channels: usize) -> Self {
        Self {
            rows: vec![Vec::new(); n_channels],
            len: 0,
        }
    }

    /// An empty trajectory with per-row capacity reserved for `cap` metres.
    pub fn with_capacity(n_channels: usize, cap: usize) -> Self {
        // Not `vec![Vec::with_capacity(cap); n]`: cloning a `Vec` keeps its
        // length but not its spare capacity, so only one row would reserve.
        Self {
            rows: (0..n_channels).map(|_| Vec::with_capacity(cap)).collect(),
            len: 0,
        }
    }

    /// Builds a trajectory from channel rows. All rows must share a length.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Self {
        let len = rows.first().map_or(0, |r| r.len());
        assert!(
            rows.iter().all(|r| r.len() == len),
            "all channel rows must share a length"
        );
        Self { rows, len }
    }

    /// Number of channels (rows).
    #[inline]
    pub fn n_channels(&self) -> usize {
        self.rows.len()
    }

    /// Length in metres (columns).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no metre has been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The full RSSI row of channel `ch` (one value per metre, `NaN` =
    /// missing).
    #[inline]
    pub fn channel(&self, ch: usize) -> &[f32] {
        &self.rows[ch]
    }

    /// The power vector at metre index `i`.
    pub fn power_at(&self, i: usize) -> PowerVector {
        assert!(
            i < self.len,
            "metre index {i} out of range (len {})",
            self.len
        );
        PowerVector::from_values(self.rows.iter().map(|r| r[i]).collect())
    }

    /// RSSI of `(channel, metre)`, `None` when missing.
    #[inline]
    pub fn get(&self, ch: usize, i: usize) -> Option<f32> {
        let v = *self.rows.get(ch)?.get(i)?;
        (!v.is_nan()).then_some(v)
    }

    /// Appends the power vector of the next metre mark.
    pub fn push(&mut self, pv: &PowerVector) {
        assert_eq!(
            pv.n_channels(),
            self.rows.len(),
            "power vector channel count must match trajectory"
        );
        for (row, &v) in self.rows.iter_mut().zip(pv.values()) {
            row.push(v);
        }
        self.len += 1;
    }

    /// Drops the `n` oldest metres.
    pub fn drain_front(&mut self, n: usize) {
        let n = n.min(self.len);
        for row in &mut self.rows {
            row.drain(..n);
        }
        self.len -= n;
    }

    /// Keeps only the most recent `keep` metres.
    pub fn truncate_front(&mut self, keep: usize) {
        if self.len > keep {
            let drop = self.len - keep;
            self.drain_front(drop);
        }
    }

    /// A copy of the most recent `len` metres.
    pub fn tail(&self, len: usize) -> GsmTrajectory {
        let start = self.len.saturating_sub(len);
        self.slice(start..self.len)
    }

    /// A copy of the metre range `range`.
    pub fn slice(&self, range: Range<usize>) -> GsmTrajectory {
        assert!(range.end <= self.len, "slice range out of bounds");
        GsmTrajectory {
            rows: self
                .rows
                .iter()
                .map(|r| r[range.clone()].to_vec())
                .collect(),
            len: range.len(),
        }
    }

    /// Fraction of `(channel, metre)` cells holding a valid measurement.
    pub fn coverage(&self) -> f64 {
        let total = self.len * self.rows.len();
        if total == 0 {
            return 0.0;
        }
        let present: usize = self
            .rows
            .iter()
            .map(|r| r.iter().filter(|v| !v.is_nan()).count())
            .sum();
        present as f64 / total as f64
    }

    /// Fills missing cells by linear interpolation over distance within each
    /// channel row (§IV-C: "missing channels are estimated by linearly
    /// interpolating between neighbouring power vectors over distance").
    /// Leading/trailing gaps are filled by extending the nearest measurement;
    /// fully missing rows stay missing.
    pub fn interpolate_missing(&mut self) {
        for row in &mut self.rows {
            interpolate_row(row);
        }
    }

    /// Returns a copy with missing cells interpolated.
    pub fn interpolated(&self) -> GsmTrajectory {
        let mut out = self.clone();
        out.interpolate_missing();
        out
    }

    /// Indices of the `k` channels with the highest mean RSSI over the given
    /// metre range — the "top 45 channels wide" window selection of §V-A.
    /// Channels with no measurement in the range are excluded; fewer than
    /// `k` indices may be returned.
    pub fn top_k_channels(&self, range: Range<usize>, k: usize) -> Vec<usize> {
        let mut scored: Vec<(usize, f64)> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(ch, row)| stats::present_mean(&row[range.clone()]).map(|m| (ch, m)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("means are finite"));
        scored.truncate(k);
        let mut idx: Vec<usize> = scored.into_iter().map(|(ch, _)| ch).collect();
        idx.sort_unstable();
        idx
    }

    /// Trajectory correlation coefficient of Eq. (2) between a segment of
    /// this trajectory and an equally long segment of `other`, optionally
    /// restricted to a channel subset.
    ///
    /// `r = (1/n) Σ_i pearson(C_i^a, C_i^b) + pearson(mean_a, mean_b)`
    ///
    /// where the second term correlates the two vectors of per-channel mean
    /// RSSI. The value lies in `[-2, 2]`; the paper's coherency threshold of
    /// 1.2 lives on this scale. Channels whose per-channel Pearson is
    /// undefined in the window are skipped; `None` is returned when no
    /// channel yields a defined coefficient or the mean-profile term is
    /// undefined.
    pub fn correlation(
        &self,
        self_range: Range<usize>,
        other: &GsmTrajectory,
        other_range: Range<usize>,
        channels: Option<&[usize]>,
    ) -> Option<f64> {
        debug_assert_eq!(
            self_range.len(),
            other_range.len(),
            "correlated segments must share a length"
        );
        debug_assert_eq!(self.n_channels(), other.n_channels());

        let mut chan_sum = 0.0f64;
        let mut chan_n = 0usize;
        let mut means_a = Vec::new();
        let mut means_b = Vec::new();

        let mut visit = |ch: usize| {
            let ra = &self.rows[ch][self_range.clone()];
            let rb = &other.rows[ch][other_range.clone()];
            // One pass yields both the per-channel Pearson term and the
            // per-channel means feeding the mean-profile term — this is the
            // innermost loop of the O(mwk) SYN search.
            let sums = stats::PairSums::accumulate(ra, rb);
            if let Some(r) = sums.pearson() {
                chan_sum += r;
                chan_n += 1;
            }
            match sums.means() {
                Some((ma, mb)) => {
                    means_a.push(ma as f32);
                    means_b.push(mb as f32);
                }
                None => {
                    means_a.push(f32::NAN);
                    means_b.push(f32::NAN);
                }
            }
        };

        match channels {
            Some(subset) => subset.iter().for_each(|&ch| visit(ch)),
            None => (0..self.n_channels()).for_each(&mut visit),
        }

        if chan_n == 0 {
            return None;
        }
        let per_channel = chan_sum / chan_n as f64;
        let mean_profile = stats::pearson(&means_a, &means_b)?;
        Some(per_channel + mean_profile)
    }
}

/// True when `row` holds a value that is not finite (`NaN` or ±∞). A fold
/// with no early exit, so that it vectorises: on the dense rows a context
/// usually holds it costs a fraction of a short-circuiting scan.
pub(crate) fn has_non_finite(row: &[f32]) -> bool {
    row.iter().fold(false, |any, v| any | !v.is_finite())
}

/// Linear interpolation of `NaN` runs within one channel row. A row with
/// no `NaN`, found by one vectorised fold, is left as it is without the
/// scan.
fn interpolate_row(row: &mut [f32]) {
    if row.iter().fold(false, |any, v| any | v.is_nan()) {
        fill_nan_runs(row);
    }
}

/// The scan behind [`interpolate_row`]: each `NaN` run is filled linearly
/// between the measurements around it, or with the nearest one at an edge.
fn fill_nan_runs(row: &mut [f32]) {
    let n = row.len();
    let mut i = 0usize;
    let mut last_valid: Option<usize> = None;
    while i < n {
        if !row[i].is_nan() {
            last_valid = Some(i);
            i += 1;
            continue;
        }
        // Find the end of the NaN run.
        let run_start = i;
        while i < n && row[i].is_nan() {
            i += 1;
        }
        let next_valid = (i < n).then_some(i);
        match (last_valid, next_valid) {
            (Some(a), Some(b)) => {
                let va = row[a] as f64;
                let vb = row[b] as f64;
                let span = (b - a) as f64;
                for (j, slot) in row.iter_mut().enumerate().take(b).skip(run_start) {
                    let t = (j - a) as f64 / span;
                    *slot = (va + t * (vb - va)) as f32;
                }
            }
            (Some(a), None) => {
                let va = row[a];
                row[run_start..n].fill(va);
            }
            (None, Some(b)) => {
                let vb = row[b];
                row[..b].fill(vb);
            }
            (None, None) => {} // entire row missing: leave as NaN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAN: f32 = f32::NAN;

    fn ramp_traj(n_channels: usize, len: usize, phase: f32) -> GsmTrajectory {
        let rows = (0..n_channels)
            .map(|ch| {
                (0..len)
                    .map(|i| -70.0 + 10.0 * ((0.3 * i as f32) + ch as f32 + phase).sin())
                    .collect()
            })
            .collect();
        GsmTrajectory::from_rows(rows)
    }

    #[test]
    fn power_vector_basics() {
        let pv = PowerVector::from_fn(4, |ch| (ch != 2).then(|| -60.0 - ch as f32));
        assert_eq!(pv.n_channels(), 4);
        assert_eq!(pv.present_count(), 3);
        assert!((pv.coverage() - 0.75).abs() < 1e-12);
        assert_eq!(pv.get(2), None);
        assert_eq!(pv.get(1), Some(-61.0));
        let mean = pv.mean().unwrap();
        assert!((mean - (-60.0 - 61.0 - 63.0) / 3.0).abs() < 1e-6);
    }

    #[test]
    fn power_vector_set_and_missing() {
        let mut pv = PowerVector::missing(3);
        assert_eq!(pv.present_count(), 0);
        pv.set(1, -55.0);
        assert_eq!(pv.get(1), Some(-55.0));
        assert_eq!(pv.present_count(), 1);
    }

    #[test]
    fn trajectory_push_and_column_access() {
        let mut t = GsmTrajectory::new(3);
        for i in 0..5 {
            let pv = PowerVector::from_fn(3, |ch| Some(-(i as f32) - 10.0 * ch as f32));
            t.push(&pv);
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.n_channels(), 3);
        let col = t.power_at(2);
        assert_eq!(col.values(), &[-2.0, -12.0, -22.0]);
        assert_eq!(t.channel(1), &[-10.0, -11.0, -12.0, -13.0, -14.0]);
        assert_eq!(t.get(1, 3), Some(-13.0));
    }

    #[test]
    fn with_capacity_reserves_every_row() {
        let t = GsmTrajectory::with_capacity(4, 100);
        assert_eq!(t.n_channels(), 4);
        for (ch, row) in t.rows.iter().enumerate() {
            assert!(
                row.capacity() >= 100,
                "row {ch} reserved {}",
                row.capacity()
            );
        }
    }

    #[test]
    #[should_panic(expected = "power vector channel count")]
    fn trajectory_push_wrong_width_panics() {
        let mut t = GsmTrajectory::new(3);
        t.push(&PowerVector::missing(2));
    }

    #[test]
    fn drain_and_tail() {
        let mut t = ramp_traj(2, 10, 0.0);
        let tail = t.tail(4);
        assert_eq!(tail.len(), 4);
        assert_eq!(tail.channel(0)[0], t.channel(0)[6]);
        t.drain_front(7);
        assert_eq!(t.len(), 3);
        assert_eq!(t.channel(0), &tail.channel(0)[1..]);
        t.truncate_front(2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn coverage_counts_missing_cells() {
        let rows = vec![vec![1.0, NAN, 3.0], vec![NAN, NAN, NAN]];
        let t = GsmTrajectory::from_rows(rows);
        assert!((t.coverage() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn interpolation_fills_interior_gap_linearly() {
        let rows = vec![vec![0.0, NAN, NAN, 3.0]];
        let mut t = GsmTrajectory::from_rows(rows);
        t.interpolate_missing();
        assert_eq!(t.channel(0), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn interpolation_extends_edges() {
        let rows = vec![vec![NAN, 5.0, NAN, NAN]];
        let mut t = GsmTrajectory::from_rows(rows);
        t.interpolate_missing();
        assert_eq!(t.channel(0), &[5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn interpolation_leaves_empty_row_missing() {
        let rows = vec![vec![NAN, NAN]];
        let mut t = GsmTrajectory::from_rows(rows);
        t.interpolate_missing();
        assert!(t.channel(0).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn interpolation_matches_paper_example() {
        // §IV-C / Fig. 6: "the RSSI value of channel 7 at location l5 is
        // estimated by averaging the RSSI measures taken at l3 and l7".
        // With measurements at indices 3 and 7, the midpoint (index 5) gets
        // their average.
        let mut row = vec![NAN; 9];
        row[3] = -60.0;
        row[7] = -70.0;
        let mut t = GsmTrajectory::from_rows(vec![row]);
        t.interpolate_missing();
        assert!((t.channel(0)[5] - (-65.0)).abs() < 1e-6);
    }

    #[test]
    fn correlation_of_identical_segments_is_two() {
        let t = ramp_traj(8, 40, 0.0);
        let r = t.correlation(0..40, &t, 0..40, None).unwrap();
        assert!(
            (r - 2.0).abs() < 1e-6,
            "self-correlation should reach +2, got {r}"
        );
    }

    #[test]
    fn correlation_detects_shifted_overlap() {
        // Same "road" sampled twice with slight noise vs a different road.
        let a = ramp_traj(8, 60, 0.0);
        let same = ramp_traj(8, 60, 0.0);
        let different = ramp_traj(8, 60, 2.3);
        let r_same = a.correlation(10..50, &same, 10..50, None).unwrap();
        let r_diff = a.correlation(10..50, &different, 10..50, None).unwrap();
        assert!(r_same > 1.8);
        assert!(r_diff < r_same - 0.5, "same {r_same} diff {r_diff}");
    }

    #[test]
    fn correlation_channel_subset() {
        let t = ramp_traj(8, 40, 0.0);
        let r = t.correlation(0..40, &t, 0..40, Some(&[0, 3, 5])).unwrap();
        assert!((r - 2.0).abs() < 1e-6);
    }

    #[test]
    fn correlation_undefined_when_all_missing() {
        let a = GsmTrajectory::from_rows(vec![vec![NAN; 10]]);
        let b = GsmTrajectory::from_rows(vec![vec![NAN; 10]]);
        assert_eq!(a.correlation(0..10, &b, 0..10, None), None);
    }

    #[test]
    fn top_k_channels_orders_by_strength() {
        let rows = vec![
            vec![-90.0; 10], // weak
            vec![-50.0; 10], // strongest
            vec![-70.0; 10],
            vec![NAN; 10], // unmeasured: excluded
        ];
        let t = GsmTrajectory::from_rows(rows);
        assert_eq!(t.top_k_channels(0..10, 2), vec![1, 2]);
        assert_eq!(t.top_k_channels(0..10, 10), vec![0, 1, 2]);
    }

    proptest::proptest! {
        #[test]
        fn interpolate_row_equals_the_scan_bit_for_bit(
            values in proptest::collection::vec(
                proptest::prop_oneof![
                    10 => -110.0f32..-40.0,
                    1 => proptest::strategy::Just(f32::INFINITY),
                    1 => proptest::strategy::Just(f32::NEG_INFINITY),
                ],
                0..48,
            ),
            holes in proptest::collection::vec(0u8..4, 48),
            shape in 0u8..5,
        ) {
            // No NaN, a leading run, a trailing run, scattered runs
            // (interior ones included), or nothing measured at all.
            let mut row = values;
            let n = row.len();
            match shape {
                0 => {}
                1 => row[..n.div_ceil(3)].fill(NAN),
                2 => row[n - n.div_ceil(3)..].fill(NAN),
                3 => row
                    .iter_mut()
                    .zip(&holes)
                    .filter(|(_, &h)| h == 0)
                    .for_each(|(v, _)| *v = NAN),
                _ => row.fill(NAN),
            }
            let (mut fast, mut scan) = (row.clone(), row);
            interpolate_row(&mut fast);
            fill_nan_runs(&mut scan);
            let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&fast), bits(&scan));
        }
    }

    #[test]
    fn has_non_finite_flags_nan_and_infinities() {
        assert!(!has_non_finite(&[]));
        assert!(!has_non_finite(&[-60.0, 0.0, -0.0, f32::MIN_POSITIVE]));
        for bad in [NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut row = vec![-70.0; 37];
            row[29] = bad;
            assert!(has_non_finite(&row), "{bad}");
        }
    }

    #[test]
    fn interpolated_returns_copy() {
        let rows = vec![vec![0.0, NAN, 2.0]];
        let t = GsmTrajectory::from_rows(rows);
        let filled = t.interpolated();
        assert!(t.channel(0)[1].is_nan());
        assert_eq!(filled.channel(0), &[0.0, 1.0, 2.0]);
    }
}
