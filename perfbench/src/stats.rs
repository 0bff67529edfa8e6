//! The benchmark's own statistics: quantiles, the tail rule, and span
//! self time.

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method), so the figures printed here
/// match the spread check applied to them. Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() as f64 + 1.0;
    // Python clamps the index first and then extrapolates with the
    // unclamped offset, which matters for very short inputs.
    let at = |i: usize| {
        let pos = i as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([at(1), at(2), at(3)])
}

/// The median (the mean of the middle pair for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail: the highest percentile that still has at least ten
/// samples beyond it. Returns the percentile (an integer in 50..=99)
/// and its value, the sample at that rank. With fewer than twenty
/// samples there is no such percentile above the median, and the
/// median is returned.
#[must_use]
pub fn tail(values: &[f64]) -> (u32, f64) {
    if values.is_empty() {
        return (50, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in (51..=99u32).rev() {
        // The p-th percentile is the sample at rank ceil(p·n/100); the
        // samples strictly above that rank are the ones beyond it.
        let rank = (p as usize * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (50, median(values))
}

/// One recorded interval on the benchmark's clock, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start.
    pub start: u64,
    /// End (at or after `start`).
    pub end: u64,
}

/// Length of the union of `intervals` clipped to `within`: the part of
/// a parent span its children cover. Children from parallel workers
/// overlap; the overlap is counted once.
#[must_use]
pub fn covered(within: Interval, intervals: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = intervals
        .iter()
        .map(|i| Interval {
            start: i.start.max(within.start),
            end: i.end.min(within.end),
        })
        .filter(|i| i.end > i.start)
        .collect();
    clipped.sort_by_key(|i| i.start);
    let mut total = 0;
    let mut cur: Option<Interval> = None;
    for i in clipped {
        cur = match cur {
            Some(c) if i.start <= c.end => Some(Interval {
                start: c.start,
                end: c.end.max(i.end),
            }),
            Some(c) => {
                total += c.end - c.start;
                Some(i)
            }
            None => Some(i),
        };
    }
    total + cur.map_or(0, |c| c.end - c.start)
}

/// A span's self time: its duration minus the part of it that its
/// child spans cover.
#[must_use]
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    (span.end - span.start) - covered(span, children)
}

/// `num / den`, or 0 when the base is 0 (a layer that did no work).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // 100 samples 1..=100: p90 is the 90th sample, 10 lie beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 90.0));
        // 1000 samples: p99 has exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99, 990.0));
        // 40 samples: p75 is rank 30, leaving 10.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (75, 30.0));
        // Too few samples for any percentile above the median.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&v), (50, 8.0));
    }

    #[test]
    fn tail_is_order_independent() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v), (90, 90.0));
    }

    #[test]
    fn self_time_counts_overlapping_parallel_children_once() {
        // A parent of 100 ns with two workers' children overlapping in
        // 30..50: covered is 20..70, so self time is 50.
        let parent = iv(0, 100);
        let children = [iv(20, 50), iv(30, 70)];
        assert_eq!(covered(parent, &children), 50);
        assert_eq!(self_time(parent, &children), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let parent = iv(10, 20);
        // One child spills past each end; one lies wholly outside.
        let children = [iv(0, 12), iv(18, 30), iv(40, 50)];
        assert_eq!(self_time(parent, &children), 6);
    }

    #[test]
    fn self_time_of_disjoint_and_nested_children() {
        let parent = iv(0, 100);
        let children = [iv(0, 10), iv(2, 8), iv(50, 60), iv(90, 100)];
        assert_eq!(self_time(parent, &children), 70);
        assert_eq!(self_time(parent, &[]), 100);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
