//! Experiment harness: turns detectors + dataset combinations into the
//! metric rows the paper's tables report.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tad_baselines::Detector;
use tad_trajsim::Trajectory;

use crate::metrics::{pr_auc, roc_auc};

/// ROC/PR-AUC of one detector on one dataset combination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComboResult {
    pub roc_auc: f64,
    pub pr_auc: f64,
}

/// Scores `normals` (label false) against `anomalies` (label true) with a
/// fitted detector and computes both AUCs.
pub fn evaluate(
    det: &dyn Detector,
    normals: &[Trajectory],
    anomalies: &[Trajectory],
) -> ComboResult {
    evaluate_at_ratio(det, normals, anomalies, 1.0)
}

/// Like [`evaluate`], but each trajectory is truncated to the observed
/// ratio before scoring (the online evaluation of §VI-E).
pub fn evaluate_at_ratio(
    det: &dyn Detector,
    normals: &[Trajectory],
    anomalies: &[Trajectory],
    observed_ratio: f64,
) -> ComboResult {
    evaluate_scores(
        &det.score_pool(normals, observed_ratio),
        &det.score_pool(anomalies, observed_ratio),
    )
}

/// The stability evaluation of §VI-D: normals are a mixture of the ID and
/// OOD test sets with shift ratio `alpha` (0 = all ID, 1 = all OOD),
/// matched in size to `min(id.len(), ood.len())` and deterministically
/// subsampled.
pub fn mix_normals(
    id: &[Trajectory],
    ood: &[Trajectory],
    alpha: f64,
    seed: u64,
) -> Vec<Trajectory> {
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
    let total = id.len().min(ood.len()).max(1);
    let n_ood = ((total as f64) * alpha).round() as usize;
    let n_id = total - n_ood;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pick = |src: &[Trajectory], n: usize| -> Vec<Trajectory> {
        let mut idx: Vec<usize> = (0..src.len()).collect();
        idx.shuffle(&mut rng);
        idx.into_iter().take(n).map(|i| src[i].clone()).collect()
    };
    let mut out = pick(id, n_id);
    out.extend(pick(ood, n_ood));
    out
}

/// ROC/PR-AUC of per-trip scores: `normals` (label false) against
/// `anomalies` (label true).
pub fn evaluate_scores(normals: &[f64], anomalies: &[f64]) -> ComboResult {
    let scores: Vec<f64> = normals.iter().chain(anomalies).copied().collect();
    let mut labels = vec![false; normals.len()];
    labels.resize(scores.len(), true);
    ComboResult { roc_auc: roc_auc(&scores, &labels), pr_auc: pr_auc(&scores, &labels) }
}

/// Runs `jobs` on up to `workers` threads, preserving output order.
/// Used by the table binaries to train several detectors concurrently.
pub fn parallel_map<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let n = jobs.len();
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1).min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().unwrap().take().expect("job taken twice");
                *slots[i].lock().unwrap() = Some(job());
            });
        }
    });

    slots.into_iter().map(|s| s.into_inner().unwrap().expect("job did not run")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_roadnet::{RoadNetwork, SegmentId};

    /// A fake detector scoring by trajectory length.
    struct LengthDetector;
    impl Detector for LengthDetector {
        fn name(&self) -> &'static str {
            "len"
        }
        fn fit(&mut self, _net: &RoadNetwork, _train: &[Trajectory]) {}
        fn score_prefix(&self, traj: &Trajectory, prefix_len: usize) -> f64 {
            prefix_len.min(traj.len()) as f64
        }
    }

    fn traj(len: usize) -> Trajectory {
        Trajectory::normal((0..len as u32).map(SegmentId).collect(), 0)
    }

    #[test]
    fn evaluate_perfect_separation() {
        let normals: Vec<_> = (3..8).map(traj).collect();
        let anomalies: Vec<_> = (10..15).map(traj).collect();
        let r = evaluate(&LengthDetector, &normals, &anomalies);
        assert_eq!(r.roc_auc, 1.0);
        assert_eq!(r.pr_auc, 1.0);
    }

    #[test]
    fn evaluate_at_ratio_truncates() {
        let normals = vec![traj(10)];
        let anomalies = vec![traj(20)];
        let full = evaluate_at_ratio(&LengthDetector, &normals, &anomalies, 1.0);
        let half = evaluate_at_ratio(&LengthDetector, &normals, &anomalies, 0.5);
        assert_eq!(full.roc_auc, 1.0);
        // At ratio 0.5 the anomaly still observes more segments.
        assert_eq!(half.roc_auc, 1.0);
    }

    #[test]
    fn mix_normals_ratio() {
        let id: Vec<_> = (0..20).map(|_| traj(5)).collect();
        let ood: Vec<_> = (0..20).map(|_| traj(9)).collect();
        for &(alpha, expect_ood) in &[(0.0, 0usize), (0.5, 10), (1.0, 20)] {
            let mixed = mix_normals(&id, &ood, alpha, 7);
            assert_eq!(mixed.len(), 20);
            let ood_count = mixed.iter().filter(|t| t.len() == 9).count();
            assert_eq!(ood_count, expect_ood, "alpha {alpha}");
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn mix_normals_rejects_bad_alpha() {
        let _ = mix_normals(&[], &[], 1.5, 0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<_> = (0..17).map(|i| move || i * i).collect();
        let out = parallel_map(jobs, 4);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_worker() {
        let jobs: Vec<_> = (0..3).map(|i| move || i + 1).collect();
        assert_eq!(parallel_map(jobs, 1), vec![1, 2, 3]);
    }
}
