//! Trajectory and dataset types.

use std::cmp::Ordering;

use tad_roadnet::SegmentId;

/// Ground-truth label of a generated trajectory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Label {
    /// A route produced by the route-choice model.
    Normal,
    /// A Detour anomaly (paper §VI-A2, strategy 1).
    Detour,
    /// A Switch anomaly (paper §VI-A2, strategy 2).
    Switch,
}

impl Label {
    /// True for either anomaly class.
    pub fn is_anomalous(self) -> bool {
        !matches!(self, Label::Normal)
    }

    /// Stable byte encoding for the codec.
    pub fn as_u8(self) -> u8 {
        match self {
            Label::Normal => 0,
            Label::Detour => 1,
            Label::Switch => 2,
        }
    }

    /// Inverse of [`Label::as_u8`].
    pub fn from_u8(v: u8) -> Option<Label> {
        match v {
            0 => Some(Label::Normal),
            1 => Some(Label::Detour),
            2 => Some(Label::Switch),
            _ => None,
        }
    }
}

/// A source-destination pair: the first and last road segments of a trip
/// (the condition `C = <s, d>` of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SdPair {
    /// First road segment.
    pub source: SegmentId,
    /// Last road segment.
    pub dest: SegmentId,
}

/// A map-matched trajectory: an ordered walk of road segments plus the
/// departure-time slot (Definition 2 of the paper, enriched with time for
/// the DeepTEA baseline and the time-factorised extension).
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory {
    /// The segment walk, `t_1 .. t_n`.
    pub segments: Vec<SegmentId>,
    /// Departure-time slot in `0..num_time_slots`.
    pub time_slot: u8,
    /// Ground-truth label.
    pub label: Label,
}

impl Trajectory {
    /// Creates a normal trajectory.
    pub fn normal(segments: Vec<SegmentId>, time_slot: u8) -> Self {
        Trajectory { segments, time_slot, label: Label::Normal }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the walk holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The SD pair `<t_1, t_n>` of this trajectory.
    ///
    /// # Panics
    /// Panics on empty trajectories.
    pub fn sd_pair(&self) -> SdPair {
        SdPair {
            source: *self.segments.first().expect("empty trajectory"),
            dest: *self.segments.last().expect("empty trajectory"),
        }
    }

    /// Jaccard similarity of the segment *sets* of two trajectories,
    /// the measure the paper's Switch generator thresholds on
    /// (`|t' ∩ t| / |t' ∪ t|`).
    pub fn jaccard(&self, other: &Trajectory) -> f64 {
        let (a, b) = (distinct_ids(&self.segments), distinct_ids(&other.segments));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        // A merge of the two sorted sets counts their intersection.
        let (mut i, mut j, mut inter) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => (i, j, inter) = (i + 1, j + 1, inter + 1),
            }
        }
        let union = a.len() + b.len() - inter;
        inter as f64 / union as f64
    }

    /// The prefix visible after observing `ratio` of the trip (at least one
    /// segment), used by the online evaluation (paper §VI-E).
    pub fn observed_prefix(&self, ratio: f64) -> &[SegmentId] {
        let n = self.segments.len();
        let k = ((n as f64 * ratio).round() as usize).clamp(1, n);
        &self.segments[..k]
    }
}

/// The segment set of a walk: its ids, sorted, each once.
fn distinct_ids(segments: &[SegmentId]) -> Vec<u32> {
    let mut ids: Vec<u32> = segments.iter().map(|s| s.0).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The datasets the paper evaluates on, for one city.
///
/// * `train` — half of the trajectories of the candidate (popular) SD
///   pairs.
/// * `test_id` — the other half (in-distribution normals).
/// * `test_ood` — normals with SD pairs never seen in training.
/// * `detour` / `switch` — anomaly datasets generated from in-distribution
///   trajectories; combined with either normal set they form the four test
///   combinations of Tables I and II.
#[derive(Clone, Debug, Default)]
pub struct CityDatasets {
    pub train: Vec<Trajectory>,
    pub test_id: Vec<Trajectory>,
    pub test_ood: Vec<Trajectory>,
    pub detour: Vec<Trajectory>,
    pub switch: Vec<Trajectory>,
}

impl CityDatasets {
    /// Summarises split sizes, used in reports and logs.
    pub fn summary(&self) -> String {
        format!(
            "train={} id={} ood={} detour={} switch={}",
            self.train.len(),
            self.test_id.len(),
            self.test_ood.len(),
            self.detour.len(),
            self.switch.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(ids: &[u32]) -> Trajectory {
        Trajectory::normal(ids.iter().map(|&i| SegmentId(i)).collect(), 0)
    }

    #[test]
    fn sd_pair_is_first_and_last() {
        let t = traj(&[3, 5, 9]);
        assert_eq!(t.sd_pair(), SdPair { source: SegmentId(3), dest: SegmentId(9) });
    }

    #[test]
    fn jaccard_extremes() {
        let a = traj(&[1, 2, 3]);
        let b = traj(&[1, 2, 3]);
        let c = traj(&[7, 8, 9]);
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
        assert_eq!(a.jaccard(&c), 0.0);
    }

    #[test]
    fn jaccard_partial_overlap() {
        let a = traj(&[1, 2, 3, 4]);
        let b = traj(&[3, 4, 5, 6]);
        // intersection 2, union 6.
        assert!((a.jaccard(&b) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_counts_repeated_segments_once() {
        // The same measure over hash sets.
        let reference = |a: &Trajectory, b: &Trajectory| -> f64 {
            let a: std::collections::HashSet<_> = a.segments.iter().collect();
            let b: std::collections::HashSet<_> = b.segments.iter().collect();
            let inter = a.intersection(&b).count();
            inter as f64 / (a.len() + b.len() - inter) as f64
        };
        let cases = [
            (traj(&[1, 2, 2, 3, 1, 4]), traj(&[4, 4, 5, 1, 6, 5])),
            (traj(&[9, 9, 9]), traj(&[9])),
            (traj(&[7, 3, 7, 3]), traj(&[8, 2, 8])),
            (traj(&[5, 1, 4, 1, 5, 9, 2, 6]), traj(&[2, 7, 1, 8, 2, 8, 1, 8])),
        ];
        for (a, b) in &cases {
            assert_eq!(a.jaccard(b).to_bits(), reference(a, b).to_bits(), "{a:?} vs {b:?}");
            assert_eq!(b.jaccard(a).to_bits(), reference(b, a).to_bits(), "{b:?} vs {a:?}");
        }
        // intersection {1, 4}, union {1, 2, 3, 4, 5, 6}.
        assert!((cases[0].0.jaccard(&cases[0].1) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn observed_prefix_bounds() {
        let t = traj(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(t.observed_prefix(0.0).len(), 1);
        assert_eq!(t.observed_prefix(0.5).len(), 5);
        assert_eq!(t.observed_prefix(1.0).len(), 10);
        assert_eq!(t.observed_prefix(2.0).len(), 10);
    }

    #[test]
    fn label_roundtrip_and_anomaly_flag() {
        for label in [Label::Normal, Label::Detour, Label::Switch] {
            assert_eq!(Label::from_u8(label.as_u8()), Some(label));
        }
        assert_eq!(Label::from_u8(9), None);
        assert!(!Label::Normal.is_anomalous());
        assert!(Label::Detour.is_anomalous());
        assert!(Label::Switch.is_anomalous());
    }
}
