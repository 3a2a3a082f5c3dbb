//! Dataset statistics: per-segment visit counts over a split, and the
//! share of a split's segments that another split never visits — what
//! tells whether a generated city shows a genuine OOD shift. `tad-bench`'s
//! `diagnose` tool prints that share for every test pool against the
//! training counts (see README "Reproducing the paper").

use std::collections::HashMap;

use crate::dataset::Trajectory;

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

/// Fraction of the segments of `eval_split` that never occur in `seen`,
/// the [`segment_frequencies`] of a reference split — the "unseen share"
/// that drives OOD behaviour.
pub fn unseen_share(seen: &HashMap<u32, usize>, eval_split: &[Trajectory]) -> f64 {
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
    fn frequencies_count_repeats() {
        let split = vec![traj(&[7, 7, 8])];
        let f = segment_frequencies(&split);
        assert_eq!(f[&7], 2);
        assert_eq!(f[&8], 1);
    }

    #[test]
    fn unseen_share_bounds_and_values() {
        let seen = segment_frequencies(&[traj(&[0, 1, 2])]);
        assert_eq!(unseen_share(&seen, &[traj(&[0, 1])]), 0.0);
        assert_eq!(unseen_share(&seen, &[traj(&[8, 9])]), 1.0);
        assert!((unseen_share(&seen, &[traj(&[0, 9])]) - 0.5).abs() < 1e-12);
        assert_eq!(unseen_share(&seen, &[]), 0.0);
    }

    #[test]
    fn generated_city_ood_split_has_more_unseen() {
        let city = generate_city(&CityConfig::test_scale(820));
        let seen = segment_frequencies(&city.data.train);
        let id_unseen = unseen_share(&seen, &city.data.test_id);
        let ood_unseen = unseen_share(&seen, &city.data.test_ood);
        assert!(
            ood_unseen > id_unseen,
            "OOD must traverse more unseen segments: {ood_unseen:.3} vs {id_unseen:.3}"
        );
        // Coverage: the share of the network the training split visits.
        let cov = seen.len() as f64 / city.net.num_segments() as f64;
        assert!(cov > 0.2 && cov <= 1.0, "coverage {cov}");
    }
}
