//! Replay by convolution against interpolated TVIR taps.
//!
//! A [`ReplayChannel`] walks a waveform through the bank's snapshot
//! timeline: each input segment falling between two snapshots is convolved
//! (overlap-save FFT, plan and scratch reused) with taps linearly
//! interpolated at the segment's midpoint, and the segment outputs
//! overlap-add into the result. Samples past the bank's last snapshot
//! hold its taps and run as one segment. A single-snapshot (static) bank collapses
//! to one convolution — which then matches the synthetic
//! `apply_baseband` path to FFT rounding.

use vab_util::complex::C64;
use vab_util::ola::OlaPlan;

/// A stateful replay convolver over one tap matrix (one-way or round-trip).
///
/// Construction allocates the FFT plan and interpolation buffer;
/// [`ReplayChannel::apply`] allocates its output vector and, when the input
/// is longer than any before, the segment scratch (sized once per call
/// for the longest possible segment).
#[derive(Debug, Clone)]
pub struct ReplayChannel {
    /// Snapshot tap rows, flattened snapshot-major.
    snaps: Vec<C64>,
    n_snaps: usize,
    /// Snapshot spacing, seconds (zero for a static bank).
    dt: f64,
    fs: f64,
    /// Start offset into the bank timeline, seconds.
    t0: f64,
    taps_len: usize,
    plan: OlaPlan,
    interp: Vec<C64>,
    seg_out: Vec<C64>,
}

impl ReplayChannel {
    /// Builds a replay channel over `snaps` (snapshot-major tap rows,
    /// all the same length) spaced `dt` seconds apart, replaying from
    /// bank time `t0` at sample rate `fs`.
    ///
    /// # Panics
    /// Panics when `snaps` is empty, rows are ragged, or `fs`/`dt`/`t0`
    /// are unusable.
    pub fn new(snaps: &[Vec<C64>], dt: f64, fs: f64, t0: f64) -> Self {
        assert!(!snaps.is_empty(), "replay needs at least one snapshot");
        let taps_len = snaps[0].len();
        assert!(taps_len > 0, "replay snapshots need at least one tap");
        assert!(snaps.iter().all(|s| s.len() == taps_len), "ragged snapshot rows");
        assert!(fs.is_finite() && fs > 0.0, "bad sample rate {fs}");
        assert!(dt.is_finite() && dt >= 0.0, "bad snapshot spacing {dt}");
        assert!(t0.is_finite() && t0 >= 0.0, "bad start time {t0}");
        let plan = OlaPlan::new(&snaps[0]);
        Self {
            snaps: snaps.concat(),
            n_snaps: snaps.len(),
            dt,
            fs,
            t0,
            taps_len,
            plan,
            interp: vec![C64::ZERO; taps_len],
            seg_out: Vec::new(),
        }
    }

    /// Tap count per snapshot.
    pub fn taps_len(&self) -> usize {
        self.taps_len
    }

    /// Interpolation interval index for the sample at time `t` (clamped to
    /// the last interval; a static bank is always interval 0).
    fn interval_at(&self, t: f64) -> usize {
        if self.n_snaps < 2 || self.dt <= 0.0 {
            return 0;
        }
        ((t / self.dt).floor() as usize).min(self.n_snaps - 2)
    }

    /// Linearly interpolates the taps at bank time `t` into the reusable
    /// buffer and retunes the convolution plan.
    fn tune_to(&mut self, t: f64) {
        if self.n_snaps < 2 || self.dt <= 0.0 {
            self.plan.set_taps(&self.snaps[..self.taps_len]);
            return;
        }
        let k = self.interval_at(t);
        let alpha = ((t / self.dt) - k as f64).clamp(0.0, 1.0);
        let (a, b) = self.snaps[k * self.taps_len..].split_at(self.taps_len);
        for ((o, &x), &y) in self.interp.iter_mut().zip(a).zip(b) {
            *o = x.scale(1.0 - alpha) + y.scale(alpha);
        }
        self.plan.set_taps(&self.interp);
    }

    /// Replays `x` through the channel: output length
    /// `x.len() + taps_len − 1`, overlap-added across snapshot segments.
    pub fn apply(&mut self, x: &[C64]) -> Vec<C64> {
        let _t = vab_obs::time_stage("replay.apply");
        if x.is_empty() {
            return Vec::new();
        }
        let out_len = x.len() + self.taps_len - 1;
        let mut y = vec![C64::ZERO; out_len];
        self.seg_out.clear();
        self.seg_out.reserve(out_len);
        let static_bank = self.n_snaps < 2 || self.dt <= 0.0;
        let last = self.n_snaps.saturating_sub(2);
        let mut start = 0usize;
        while start < x.len() {
            // Maximal run of samples inside one interpolation interval.
            let end = if static_bank {
                x.len()
            } else {
                let k = self.interval_at(self.t0 + start as f64 / self.fs);
                // First sample index that leaves interval k.
                let leave = (((k + 1) as f64 * self.dt - self.t0) * self.fs).ceil() as usize;
                if k == last && leave <= start {
                    // Past the bank's end the taps hold at the last
                    // snapshot, so the whole tail is one segment.
                    x.len()
                } else {
                    leave.clamp(start + 1, x.len())
                }
            };
            let mid = self.t0 + (start + end) as f64 / 2.0 / self.fs;
            self.tune_to(mid);
            self.plan.convolve_into(&x[start..end], &mut self.seg_out);
            for (o, v) in y[start..].iter_mut().zip(&self.seg_out) {
                *o += *v;
            }
            start = end;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize) -> Vec<C64> {
        (0..n).map(|i| C64::cis(i as f64 * 0.21) * (1.0 + 0.1 * (i as f64 * 0.03).sin())).collect()
    }

    fn direct(x: &[C64], h: &[C64]) -> Vec<C64> {
        let mut y = vec![C64::ZERO; x.len() + h.len() - 1];
        for (i, &xi) in x.iter().enumerate() {
            for (j, &hj) in h.iter().enumerate() {
                y[i + j] += xi * hj;
            }
        }
        y
    }

    #[test]
    fn static_bank_is_plain_convolution() {
        let taps: Vec<C64> = (0..90).map(|i| C64::new((i as f64 * 0.2).sin(), 0.1)).collect();
        let x = tone(400);
        let mut ch = ReplayChannel::new(std::slice::from_ref(&taps), 0.0, 1000.0, 0.0);
        let got = ch.apply(&x);
        let want = direct(&x, &taps);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_is_repeatable() {
        let taps: Vec<C64> = (0..70).map(|i| C64::new(0.0, (i as f64 * 0.3).cos())).collect();
        let snaps = vec![taps.clone(), taps.iter().map(|t| t.scale(0.5)).collect()];
        let x = tone(300);
        let mut ch = ReplayChannel::new(&snaps, 0.1, 1000.0, 0.02);
        let a = ch.apply(&x);
        let b = ch.apply(&x);
        assert_eq!(a, b, "replay must be bit-deterministic call to call");
    }

    #[test]
    fn interpolation_blends_between_snapshots() {
        // Two snapshots: identity tap scaled 1.0 and 3.0. Mid-bank replay
        // must land strictly between.
        let s0 = vec![C64::ONE];
        let s1 = vec![C64::real(3.0)];
        let x = vec![C64::ONE; 100];
        // t0 = 0.05 s into a 0.1 s interval at fs = 1000: alpha ≈ 0.5.
        let mut ch = ReplayChannel::new(&[s0, s1], 0.1, 1000.0, 0.049);
        let y = ch.apply(&x);
        let mid = y[20].re;
        assert!(mid > 1.2 && mid < 2.8, "expected a blended gain, got {mid}");
    }

    #[test]
    fn segments_walk_the_snapshot_timeline() {
        // Three snapshots over 0.2 s; a 0.3 s signal must see a rising
        // gain profile as the taps interpolate 1 → 2 → 4.
        let snaps = vec![vec![C64::ONE], vec![C64::real(2.0)], vec![C64::real(4.0)]];
        let x = vec![C64::ONE; 300];
        let mut ch = ReplayChannel::new(&snaps, 0.1, 1000.0, 0.0);
        let y = ch.apply(&x);
        assert!(y[10].re < y[150].re && y[150].re < y[250].re, "gain must rise along the bank");
    }

    /// The segmenting loop before the past-end rule: every sample past the
    /// bank's last snapshot ran as its own one-sample segment (held at the
    /// same last-snapshot taps).
    fn apply_sample_per_tail_segment(ch: &mut ReplayChannel, x: &[C64]) -> Vec<C64> {
        let mut y = vec![C64::ZERO; x.len() + ch.taps_len - 1];
        let mut start = 0usize;
        while start < x.len() {
            let k = ch.interval_at(ch.t0 + start as f64 / ch.fs);
            let boundary = ((k + 1) as f64 * ch.dt - ch.t0) * ch.fs;
            let end = (boundary.ceil() as usize).clamp(start + 1, x.len());
            ch.tune_to(ch.t0 + (start + end) as f64 / 2.0 / ch.fs);
            let mut seg_out = Vec::new();
            ch.plan.convolve_into(&x[start..end], &mut seg_out);
            for (j, v) in seg_out.iter().enumerate() {
                y[start + j] += *v;
            }
            start = end;
        }
        y
    }

    #[test]
    fn past_end_tail_matches_per_sample_segmenting() {
        let spec = crate::BankSpec {
            water: crate::WaterSpec::River,
            range_m: 60.0,
            carrier_hz: 18_500.0,
            fs: 1600.0,
            n_snapshots: 8,
            span_s: 2.0,
            seed: 11,
        };
        let bank = crate::generate(&spec).unwrap();
        // 0.2 s of signal: starts after 1.8 s run past the bank's end.
        let x = tone(320);
        let mut past_end = 0;
        for i in 0..=32 {
            let t0 = spec.span_s * i as f64 / 32.0;
            for mut ch in [bank.one_way_channel(t0), bank.round_trip_channel(t0)] {
                let want = apply_sample_per_tail_segment(&mut ch.clone(), &x);
                let got = ch.apply(&x);
                assert_eq!(got.len(), want.len());
                if t0 + x.len() as f64 / spec.fs <= spec.span_s {
                    assert_eq!(got, want, "t0 = {t0}: in-bank replay must be bit-identical");
                    continue;
                }
                past_end += 1;
                let peak = want.iter().map(|v| v.abs()).fold(0.0, f64::max);
                let worst = got.iter().zip(&want).map(|(g, w)| (*g - *w).abs()).fold(0.0, f64::max);
                assert!(
                    worst <= 1e-12 * peak,
                    "t0 = {t0}: max relative difference {}",
                    worst / peak
                );
            }
        }
        assert!(past_end >= 8, "the sweep must exercise past-end tails");
    }

    #[test]
    fn empty_input_is_fine() {
        let mut ch = ReplayChannel::new(&[vec![C64::ONE]], 0.0, 1000.0, 0.0);
        assert!(ch.apply(&[]).is_empty());
    }
}
