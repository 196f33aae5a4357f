//! Empirical CDFs (Figures 5 and 6).

/// An empirical cumulative distribution function over a sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF; NaN values are dropped.
    pub fn new(data: &[f64]) -> Self {
        let mut sorted: Vec<f64> = data.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        Ecdf { sorted }
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`. `NaN` for an empty sample.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Evaluates the ECDF at each point of a grid, returning `(x, F(x))`
    /// pairs — the series a Figure 5-style CDF plot draws.
    pub fn curve(&self, grid: &[f64]) -> Vec<(f64, f64)> {
        grid.iter().map(|&x| (x, self.eval(x))).collect()
    }

    /// A log-spaced grid from 1 to `max` with `points` entries, matching the
    /// log-x axis of Figure 5.
    pub fn log_grid(max: f64, points: usize) -> Vec<f64> {
        if points == 0 || max <= 1.0 {
            return vec![1.0];
        }
        let lmax = max.ln();
        let mut grid: Vec<f64> = (0..points)
            .map(|i| (lmax * i as f64 / (points - 1) as f64).exp())
            .collect();
        // exp(ln(max)) can round a hair below max; the grid must end exactly
        // at max so CDF curves terminate at 1.
        if let Some(last) = grid.last_mut() {
            *last = max;
        }
        grid
    }

    /// Inverse ECDF (quantile of the sample). `q` clamped to `[0,1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).saturating_sub(1);
        self.sorted[idx.min(self.sorted.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_steps_through_sample() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn ecdf_handles_duplicates() {
        let e = Ecdf::new(&[2.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(1.9), 0.0);
    }

    #[test]
    fn ecdf_drops_nan() {
        let e = Ecdf::new(&[1.0, f64::NAN, 3.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn empty_ecdf_is_nan() {
        let e = Ecdf::new(&[]);
        assert!(e.eval(1.0).is_nan());
        assert!(e.is_empty());
    }

    #[test]
    fn quantile_inverse() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
    }

    #[test]
    fn log_grid_spans_range() {
        let g = Ecdf::log_grid(1000.0, 4);
        assert_eq!(g.len(), 4);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[3] - 1000.0).abs() < 1e-9);
        assert!((g[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn curve_matches_eval() {
        let e = Ecdf::new(&[1.0, 10.0, 100.0]);
        let curve = e.curve(&[1.0, 10.0, 100.0]);
        assert_eq!(curve[0].1, e.eval(1.0));
        assert_eq!(curve[2].1, 1.0);
    }
}
