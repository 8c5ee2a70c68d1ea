//! Order statistics over repetition samples.

/// The median of `samples` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile: the value, the integer percentile it sits at, and how
/// many samples it was taken from and lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: u32,
    pub samples: usize,
    pub beyond: usize,
}

/// The highest integer percentile of `samples` that has at least
/// [`TAIL_BEYOND`] samples strictly above its rank (nearest-rank method).
/// `None` when there are too few samples for any percentile to qualify.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    // Nearest rank of percentile p is ceil(p·n/100); the largest p whose
    // rank leaves TAIL_BEYOND samples above it is floor(100·(n−10)/n).
    let percentile = (100 * (n - TAIL_BEYOND) / n) as u32;
    if percentile == 0 {
        return None;
    }
    let rank = (percentile as usize * n).div_ceil(100);
    Some(Tail {
        value: s[rank - 1],
        percentile,
        samples: n,
        beyond: n - rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // 11 samples: p9 has rank 1, leaving exactly 10 beyond.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (9, 10, 1.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.percentile, t.samples, t.beyond), (95, 200, 10));
        assert_eq!(t.value, 190.0);
        for n in 11..2000usize {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&samples).unwrap();
            assert!(t.beyond >= TAIL_BEYOND, "n={n}");
            // One percentile higher would leave fewer than ten beyond.
            let next = (t.percentile as usize + 1) * n;
            assert!(n - next.div_ceil(100) < TAIL_BEYOND, "n={n}");
        }
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut samples: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let a = tail(&samples).unwrap();
        samples.reverse();
        assert_eq!(tail(&samples), Some(a));
        assert_eq!((a.percentile, a.value), (90, 89.0));
    }
}
