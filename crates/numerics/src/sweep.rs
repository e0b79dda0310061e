//! Parameter-sweep grids.
//!
//! Every experiment in the reproduced paper is a sweep — over gate voltage,
//! cell ratio β, or supply voltage — over a uniform grid.

/// `n` evenly spaced points covering `[lo, hi]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2` or `lo >= hi`.
///
/// # Examples
///
/// ```
/// use tfet_numerics::linspace;
/// assert_eq!(linspace(0.0, 1.0, 3), vec![0.0, 0.5, 1.0]);
/// ```
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least 2 points");
    assert!(lo < hi, "linspace needs lo < hi");
    let step = (hi - lo) / (n - 1) as f64;
    (0..n)
        .map(|i| {
            if i == n - 1 {
                hi // exact endpoint, no accumulated rounding
            } else {
                lo + step * i as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_are_exact() {
        let pts = linspace(0.1, 0.9, 17);
        assert_eq!(pts.len(), 17);
        assert_eq!(pts[0], 0.1);
        assert_eq!(pts[16], 0.9);
    }

    #[test]
    fn linspace_is_uniform() {
        let pts = linspace(-1.0, 1.0, 5);
        for w in pts.windows(2) {
            assert!((w[1] - w[0] - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn linspace_rejects_single_point() {
        linspace(0.0, 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn linspace_rejects_inverted_range() {
        linspace(1.0, 0.0, 3);
    }
}
