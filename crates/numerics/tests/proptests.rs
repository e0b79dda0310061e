//! Property-based tests for the numerics substrate.

use proptest::prelude::*;
use tfet_numerics::matrix::Matrix;
use tfet_numerics::roots::{critical_threshold, Threshold};
use tfet_numerics::{linspace, Lut1d, Lut2d, Summary};

/// Strategy: a well-conditioned diagonally dominant n×n matrix plus rhs.
fn dominant_system(n: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    let entry = -1.0f64..1.0f64;
    (
        prop::collection::vec(prop::collection::vec(entry.clone(), n), n),
        prop::collection::vec(-10.0f64..10.0f64, n),
    )
        .prop_map(move |(mut rows, b)| {
            for (i, row) in rows.iter_mut().enumerate() {
                let off: f64 = row.iter().map(|x| x.abs()).sum();
                row[i] = off + 1.0; // strict diagonal dominance => nonsingular
            }
            (rows, b)
        })
}

proptest! {
    #[test]
    fn lu_solve_satisfies_system((rows, b) in dominant_system(6)) {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&refs);
        let x = a.solve(&b).unwrap();
        let back = a.mul_vec(&x);
        for (bi, yi) in b.iter().zip(&back) {
            prop_assert!((bi - yi).abs() < 1e-8, "residual too large");
        }
    }

    #[test]
    fn lut1d_is_exact_at_nodes(vals in prop::collection::vec(-100.0f64..100.0, 2..20)) {
        let n = vals.len();
        let axis = linspace(0.0, 1.0, n);
        let lut = Lut1d::new(axis.clone(), vals.clone()).unwrap();
        for (x, v) in axis.iter().zip(&vals) {
            prop_assert!((lut.eval(*x) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn lut1d_interpolation_is_bounded_by_neighbors(
        vals in prop::collection::vec(-100.0f64..100.0, 2..20),
        t in 0.0f64..1.0,
    ) {
        let n = vals.len();
        let axis = linspace(0.0, 1.0, n);
        let lut = Lut1d::new(axis, vals.clone()).unwrap();
        let x = t; // inside [0,1]
        let y = lut.eval(x);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(y >= lo - 1e-12 && y <= hi + 1e-12);
    }

    #[test]
    fn lut1d_preserves_monotonicity(
        deltas in prop::collection::vec(0.0f64..10.0, 2..20),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        // Build a non-decreasing value sequence.
        let mut vals = vec![0.0];
        for d in &deltas {
            vals.push(vals.last().unwrap() + d);
        }
        let axis = linspace(0.0, 1.0, vals.len());
        let lut = Lut1d::new(axis, vals).unwrap();
        let (x1, x2) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(lut.eval(x1) <= lut.eval(x2) + 1e-12);
    }

    #[test]
    fn lut2d_matches_bilinear_functions(
        c0 in -5.0f64..5.0, cx in -5.0f64..5.0,
        cy in -5.0f64..5.0, cxy in -5.0f64..5.0,
        px in 0.0f64..1.0, py in 0.0f64..1.0,
    ) {
        let f = move |x: f64, y: f64| c0 + cx * x + cy * y + cxy * x * y;
        let lut = Lut2d::tabulate((0.0, 1.0), 7, (0.0, 1.0), 5, f);
        prop_assert!((lut.eval(px, py) - f(px, py)).abs() < 1e-9);
    }

    #[test]
    fn critical_threshold_matches_known_step(step in 0.0001f64..0.9999) {
        match critical_threshold(0.0, 1.0, 1e-9, |x| x >= step) {
            Threshold::Critical(v) => prop_assert!((v - step).abs() < 1e-6),
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    #[test]
    fn summary_mean_within_minmax(data in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&data);
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.std_dev >= 0.0);
    }

    #[test]
    fn linspace_is_sorted_and_exact_at_ends(lo in -100.0f64..0.0, span in 0.1f64..100.0, n in 2usize..50) {
        let hi = lo + span;
        let pts = linspace(lo, hi, n);
        prop_assert_eq!(pts.len(), n);
        prop_assert_eq!(pts[0], lo);
        prop_assert_eq!(pts[n-1], hi);
        for w in pts.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }
}
