//! Dataset statistics: the quantities that determine whether a generated
//! city is in the "paper regime" (dense coverage of the popular region,
//! homogeneous lengths, genuine OOD shift). Used by `tad-bench`'s
//! `diagnose` tool (see README "Reproducing the paper").

use std::collections::HashMap;

use tad_roadnet::RoadNetwork;

use crate::dataset::Trajectory;

/// Per-split summary statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct SplitStats {
    /// Number of trajectories.
    pub count: usize,
    /// Mean segments per trajectory.
    pub mean_len: f64,
    /// Minimum trajectory length.
    pub min_len: usize,
    /// Maximum trajectory length.
    pub max_len: usize,
    /// Number of distinct SD pairs.
    pub distinct_sd_pairs: usize,
    /// Number of distinct segments visited.
    pub distinct_segments: usize,
}

/// Computes summary statistics for one split.
pub fn split_stats(split: &[Trajectory]) -> SplitStats {
    let mut sd = std::collections::HashSet::new();
    let mut segs = std::collections::HashSet::new();
    let mut total = 0usize;
    let mut min_len = usize::MAX;
    let mut max_len = 0usize;
    for t in split {
        total += t.len();
        min_len = min_len.min(t.len());
        max_len = max_len.max(t.len());
        if !t.is_empty() {
            sd.insert(t.sd_pair());
        }
        segs.extend(t.segments.iter().copied());
    }
    SplitStats {
        count: split.len(),
        mean_len: if split.is_empty() { 0.0 } else { total as f64 / split.len() as f64 },
        min_len: if split.is_empty() { 0 } else { min_len },
        max_len,
        distinct_sd_pairs: sd.len(),
        distinct_segments: segs.len(),
    }
}

/// Per-segment visit counts over a split (the empirical popularity the
/// RP-VAE must learn).
pub fn segment_frequencies(split: &[Trajectory]) -> HashMap<u32, usize> {
    let mut freq = HashMap::new();
    for t in split {
        for s in &t.segments {
            *freq.entry(s.0).or_insert(0usize) += 1;
        }
    }
    freq
}

/// Coverage of a split over the network: fraction of segments visited at
/// least once.
pub fn coverage(net: &RoadNetwork, split: &[Trajectory]) -> f64 {
    if net.num_segments() == 0 {
        return 0.0;
    }
    let freq = segment_frequencies(split);
    freq.len() as f64 / net.num_segments() as f64
}

/// Fraction of the segments of `eval_split` that never occur in
/// `reference` — the "unseen share" that drives OOD behaviour.
pub fn unseen_share(reference: &[Trajectory], eval_split: &[Trajectory]) -> f64 {
    let seen = segment_frequencies(reference);
    let mut total = 0usize;
    let mut unseen = 0usize;
    for t in eval_split {
        for s in &t.segments {
            total += 1;
            if !seen.contains_key(&s.0) {
                unseen += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        unseen as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_city, CityConfig};
    use tad_roadnet::SegmentId;

    fn traj(ids: &[u32]) -> Trajectory {
        Trajectory::normal(ids.iter().map(|&i| SegmentId(i)).collect(), 0)
    }

    #[test]
    fn split_stats_basics() {
        let split = vec![traj(&[0, 1, 2]), traj(&[0, 1, 2, 3, 4])];
        let s = split_stats(&split);
        assert_eq!(s.count, 2);
        assert_eq!(s.min_len, 3);
        assert_eq!(s.max_len, 5);
        assert!((s.mean_len - 4.0).abs() < 1e-12);
        assert_eq!(s.distinct_segments, 5);
        assert_eq!(s.distinct_sd_pairs, 2); // (0,2) and (0,4)
    }

    #[test]
    fn empty_split_stats() {
        let s = split_stats(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_len, 0.0);
        assert_eq!(s.min_len, 0);
    }

    #[test]
    fn frequencies_count_repeats() {
        let split = vec![traj(&[7, 7, 8])];
        let f = segment_frequencies(&split);
        assert_eq!(f[&7], 2);
        assert_eq!(f[&8], 1);
    }

    #[test]
    fn unseen_share_bounds_and_values() {
        let reference = vec![traj(&[0, 1, 2])];
        assert_eq!(unseen_share(&reference, &[traj(&[0, 1])]), 0.0);
        assert_eq!(unseen_share(&reference, &[traj(&[8, 9])]), 1.0);
        assert!((unseen_share(&reference, &[traj(&[0, 9])]) - 0.5).abs() < 1e-12);
        assert_eq!(unseen_share(&reference, &[]), 0.0);
    }

    #[test]
    fn generated_city_ood_split_has_more_unseen() {
        let city = generate_city(&CityConfig::test_scale(820));
        let id_unseen = unseen_share(&city.data.train, &city.data.test_id);
        let ood_unseen = unseen_share(&city.data.train, &city.data.test_ood);
        assert!(
            ood_unseen > id_unseen,
            "OOD must traverse more unseen segments: {ood_unseen:.3} vs {id_unseen:.3}"
        );
        let cov = coverage(&city.net, &city.data.train);
        assert!(cov > 0.2 && cov <= 1.0, "coverage {cov}");
    }
}
