//! Adaptive bitrate selection.
//!
//! A compact reproduction of the throughput-based ABR that streaming
//! clients run: harmonic mean over the last few chunk downloads, with a
//! safety factor, snapped down to the ladder. The paper's point is that
//! ABR makes *inter-video* bitrate fingerprinting useless intra-video
//! (all branches of one title share the ladder), and the baselines in
//! `wm_core::baselines` demonstrate exactly that; the player still runs real
//! ABR so chunk sizes respond to the condition grid.

/// Sliding-window throughput estimator (harmonic mean).
#[derive(Debug, Clone)]
pub struct ThroughputEstimator {
    /// Recent samples in bits/second, newest last.
    samples: Vec<f64>,
    capacity: usize,
}

impl ThroughputEstimator {
    /// Estimator over the last `capacity` chunk downloads.
    pub fn new(capacity: usize) -> Self {
        ThroughputEstimator {
            samples: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Record one download: `bytes` transferred in `micros` µs.
    pub fn record(&mut self, bytes: usize, micros: u64) {
        if micros == 0 {
            return; // degenerate (sub-microsecond) sample; skip
        }
        let bps = bytes as f64 * 8.0 / (micros as f64 / 1e6);
        if self.samples.len() == self.capacity {
            self.samples.remove(0);
        }
        self.samples.push(bps);
    }

    /// Harmonic-mean estimate in bits/second (`None` until a sample
    /// exists).
    pub fn estimate_bps(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let denom: f64 = self.samples.iter().map(|s| 1.0 / s).sum();
        Some(self.samples.len() as f64 / denom)
    }

    /// Pick the highest ladder rung no greater than `safety` × estimate.
    /// Falls back to the given start rung with no samples.
    pub fn select(&self, ladder: &[u32], start_index: usize, safety: f64) -> u32 {
        let fallback = ladder[start_index.min(ladder.len() - 1)];
        let Some(est) = self.estimate_bps() else {
            return fallback;
        };
        let budget = est * safety;
        ladder
            .iter()
            .copied()
            .filter(|&b| (b as f64) <= budget)
            .max()
            .unwrap_or(ladder[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: [u32; 5] = [235_000, 750_000, 1_750_000, 3_000_000, 5_800_000];

    #[test]
    fn empty_estimator_uses_start_rung() {
        let e = ThroughputEstimator::new(3);
        assert_eq!(e.estimate_bps(), None);
        assert_eq!(e.select(&LADDER, 2, 0.8), 1_750_000);
    }

    #[test]
    fn fast_link_selects_top_rung() {
        let mut e = ThroughputEstimator::new(3);
        // 10 MB in 1 s = 80 Mbps.
        e.record(10_000_000, 1_000_000);
        assert_eq!(e.select(&LADDER, 2, 0.8), 5_800_000);
    }

    #[test]
    fn slow_link_selects_bottom_rung() {
        let mut e = ThroughputEstimator::new(3);
        // 25 kB/s = 200 kbps < lowest rung: clamp to ladder floor.
        e.record(25_000, 1_000_000);
        assert_eq!(e.select(&LADDER, 2, 0.8), 235_000);
    }

    #[test]
    fn harmonic_mean_is_pessimistic() {
        let mut e = ThroughputEstimator::new(3);
        e.record(1_000_000, 1_000_000); // 8 Mbps
        e.record(1_000_000, 8_000_000); // 1 Mbps
        let est = e.estimate_bps().unwrap();
        // Harmonic mean of 8 and 1 is 16/9 ≈ 1.78 Mbps, well below the
        // arithmetic mean of 4.5 Mbps.
        assert!((est - 16.0 / 9.0 * 1e6).abs() < 1e3, "estimate {est}");
    }

    #[test]
    fn window_slides() {
        let mut e = ThroughputEstimator::new(2);
        e.record(125_000, 1_000_000); // 1 Mbps
        e.record(1_250_000, 1_000_000); // 10 Mbps
        e.record(1_250_000, 1_000_000); // 10 Mbps — evicts the 1 Mbps sample
        let est = e.estimate_bps().unwrap();
        assert!((est - 10e6).abs() < 1e3, "estimate {est}");
    }

    #[test]
    fn zero_duration_sample_ignored() {
        let mut e = ThroughputEstimator::new(2);
        e.record(1_000, 0);
        assert_eq!(e.estimate_bps(), None);
    }

    #[test]
    fn mid_rate_picks_matching_rung() {
        let mut e = ThroughputEstimator::new(3);
        // 2.5 Mbps with 0.8 safety → budget 2.0 Mbps → 1750k rung.
        e.record(312_500, 1_000_000);
        assert_eq!(e.select(&LADDER, 0, 0.8), 1_750_000);
    }
}
