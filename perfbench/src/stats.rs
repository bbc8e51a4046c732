//! Small order statistics: medians, the tail percentile rule, geometric
//! means, and span self time.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentiles the tail rule may pick, lowest first.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail timing of a run: the highest percentile of [`TAIL_LADDER`]
/// with at least [`TAIL_MIN_BEYOND`] jobs of the workload's job list
/// beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile picked.
    pub pct: f64,
    /// Its nearest-rank value over the run's samples.
    pub value: f64,
    /// Samples in the run.
    pub samples: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

/// Nearest rank of percentile `pct` among `n` sorted values, from 1.
/// The epsilon keeps p99.9 of 10000 at rank 9990, not 9991.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The tail percentile for a list of `jobs` distinct jobs.  A run takes
/// the whole list at least once, so at least `TAIL_MIN_BEYOND` samples
/// lie beyond it.  Choosing it from the list, not from the sample count,
/// keeps a workload on one percentile however fast the machine runs.
/// With fewer than `2 * TAIL_MIN_BEYOND` jobs no percentile qualifies
/// and it is p50.
pub fn tail_pct(jobs: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| jobs - rank(p, jobs).min(jobs) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// The tail of `samples`, a run over a list of `jobs` distinct jobs.
pub fn tail(samples: &[f64], jobs: usize) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let pct = tail_pct(jobs);
    let r = rank(pct, n);
    Tail {
        pct,
        value: v.get(r - 1).copied().unwrap_or(0.0),
        samples: n,
        beyond: n.saturating_sub(r),
    }
}

/// Geometric mean of positive `xs`; `0.0` for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Self time of the interval `[start, end)`: its length minus the part
/// the `children` intervals cover.  Children are clipped to the parent
/// and their union is taken, so overlapping children are subtracted
/// once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_jobs_beyond_the_percentile() {
        // p90 of 100 jobs is rank 90, leaving exactly ten beyond; p99
        // would leave one.
        assert_eq!(tail_pct(100), 90.0);
        // p90 of 99 jobs is rank 90 with nine beyond: fall to p50.
        assert_eq!(tail_pct(99), 50.0);
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(10_000), 99.9);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 100);
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (90.0, 90.0, 100, 10));
    }

    #[test]
    fn tail_percentile_follows_the_job_list_not_the_sample_count() {
        // 1000 samples of a 150-job list stay on p90, as 300 do.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 150);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 900.0, 100));
        let t = tail(&xs[..300], 150);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 270.0, 30));
    }

    #[test]
    fn tail_ignores_sample_order() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&xs, 200);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 180.0, 20));
    }

    #[test]
    fn tail_of_a_short_list_falls_back_to_the_median() {
        let t = tail(&[5.0, 1.0, 3.0], 3);
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (50.0, 3.0, 3, 1));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40): together they cover 50, not 60.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // A child nested in another child adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(0, 10, &[]), 10);
    }
}
