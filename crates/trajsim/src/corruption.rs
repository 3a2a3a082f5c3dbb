//! Fault-model corruption generators: seeded, replayable transforms that
//! turn any clean dataset into the hostile-telemetry regime an online
//! detector actually faces.
//!
//! Five independent fault channels, each gated by its own probability:
//!
//! * **Duplicate** — a segment is re-sent immediately (at-least-once
//!   transport).
//! * **Reorder** — two adjacent segments swap arrival order (racing
//!   uplinks, retry queues).
//! * **Drop** — a segment never arrives (dead zone, packet loss).
//! * **Jitter** — a segment is replaced by a *sibling*: a different
//!   successor of its predecessor (GPS noise snapping the fix onto a
//!   parallel road). Requires the road network.
//! * **Teleport** — a segment is replaced by a uniformly random one
//!   (map-matching glitch: an off-network jump).
//!
//! Value faults (jitter, teleport) are applied first, then loss (drop),
//! then transport faults (duplicate, reorder) — the order a real pipeline
//! composes them in. Every transform draws from one caller-provided RNG,
//! so a [`CorruptionConfig`] plus a seed replays the exact same corrupted
//! stream anywhere ([`corrupt_dataset`] seeds its own `StdRng` from
//! `cfg.seed` for one-call replayability).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tad_roadnet::{RoadNetwork, SegmentId};

use crate::dataset::Trajectory;

/// Per-channel corruption probabilities plus the replay seed. The default
/// is the identity transform (all probabilities zero).
#[derive(Clone, Debug, PartialEq)]
pub struct CorruptionConfig {
    /// Probability that a segment is immediately re-sent.
    pub duplicate_prob: f64,
    /// Probability that a segment swaps arrival order with its successor
    /// in the stream.
    pub reorder_prob: f64,
    /// Probability that a segment is lost entirely.
    pub drop_prob: f64,
    /// Probability that a segment is replaced by a different successor of
    /// its predecessor (GPS snap noise).
    pub jitter_prob: f64,
    /// Probability that a segment is replaced by a uniformly random one
    /// (off-network teleport).
    pub teleport_prob: f64,
    /// Seed for [`corrupt_dataset`]'s private RNG.
    pub seed: u64,
}

impl Default for CorruptionConfig {
    fn default() -> Self {
        CorruptionConfig {
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            drop_prob: 0.0,
            jitter_prob: 0.0,
            teleport_prob: 0.0,
            seed: 0,
        }
    }
}

impl CorruptionConfig {
    /// Pure duplication at probability `p`.
    pub fn duplicates(p: f64, seed: u64) -> Self {
        CorruptionConfig { duplicate_prob: p, seed, ..CorruptionConfig::default() }
    }

    /// Pure adjacent reordering at probability `p`.
    pub fn reorders(p: f64, seed: u64) -> Self {
        CorruptionConfig { reorder_prob: p, seed, ..CorruptionConfig::default() }
    }

    /// Pure segment loss at probability `p`.
    pub fn drops(p: f64, seed: u64) -> Self {
        CorruptionConfig { drop_prob: p, seed, ..CorruptionConfig::default() }
    }
}

/// Applies the configured fault channels to one trajectory, drawing all
/// randomness from `rng`. The label and time slot are preserved — the
/// corruption models the *telemetry channel*, not the driving behaviour.
/// Trips are never corrupted down to an empty walk: at least one segment
/// always survives the drop channel.
fn corrupt_trajectory<R: Rng + ?Sized>(
    net: &RoadNetwork,
    traj: &Trajectory,
    cfg: &CorruptionConfig,
    rng: &mut R,
) -> Trajectory {
    let vocab = net.num_segments() as u32;
    let mut segments: Vec<SegmentId> = traj.segments.clone();

    // 1. Value faults. Jitter first (needs the true predecessor wiring),
    //    then teleports on top.
    if cfg.jitter_prob > 0.0 {
        for i in 1..segments.len() {
            if rng.gen_bool(cfg.jitter_prob.clamp(0.0, 1.0)) {
                let prev = segments[i - 1];
                let siblings: Vec<SegmentId> =
                    net.successors(prev).filter(|&s| s != segments[i]).collect();
                if let Some(&pick) = siblings.get(rng.gen_range(0..siblings.len().max(1))) {
                    segments[i] = pick;
                }
            }
        }
    }
    if cfg.teleport_prob > 0.0 && vocab > 0 {
        for seg in segments.iter_mut() {
            if rng.gen_bool(cfg.teleport_prob.clamp(0.0, 1.0)) {
                *seg = SegmentId(rng.gen_range(0..vocab));
            }
        }
    }

    // 2. Loss. At least one segment survives so the trip stays a trip.
    if cfg.drop_prob > 0.0 {
        let kept: Vec<SegmentId> = segments
            .iter()
            .copied()
            .filter(|_| !rng.gen_bool(cfg.drop_prob.clamp(0.0, 1.0)))
            .collect();
        if !kept.is_empty() {
            segments = kept;
        } else if let Some(&first) = segments.first() {
            segments = vec![first];
        }
    }

    // 3. Transport faults. Duplication emits a segment twice; reordering
    //    swaps a segment with its stream successor (each position takes
    //    part in at most one swap).
    if cfg.duplicate_prob > 0.0 {
        let mut stream = Vec::with_capacity(segments.len() * 2);
        for &seg in &segments {
            stream.push(seg);
            if rng.gen_bool(cfg.duplicate_prob.clamp(0.0, 1.0)) {
                stream.push(seg);
            }
        }
        segments = stream;
    }
    if cfg.reorder_prob > 0.0 {
        let mut i = 0;
        while i + 1 < segments.len() {
            if rng.gen_bool(cfg.reorder_prob.clamp(0.0, 1.0)) {
                segments.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    Trajectory { segments, time_slot: traj.time_slot, label: traj.label }
}

/// Applies `corrupt_trajectory` to every trip of a dataset, in order,
/// from a private `StdRng` seeded with `cfg.seed` — the same config over
/// the same slice replays the exact same corrupted dataset.
pub fn corrupt_dataset(
    net: &RoadNetwork,
    data: &[Trajectory],
    cfg: &CorruptionConfig,
) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    data.iter().map(|t| corrupt_trajectory(net, t, cfg, &mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_city, CityConfig};

    fn city() -> crate::generator::City {
        generate_city(&CityConfig::test_scale(4242))
    }

    #[test]
    fn identity_config_is_a_no_op() {
        let city = city();
        let cfg = CorruptionConfig::default();
        let out = corrupt_dataset(&city.net, &city.data.test_id, &cfg);
        assert_eq!(out, city.data.test_id);
    }

    #[test]
    fn corruption_is_replayable() {
        let city = city();
        let cfg = CorruptionConfig {
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
            drop_prob: 0.1,
            jitter_prob: 0.1,
            teleport_prob: 0.05,
            seed: 7,
        };
        let a = corrupt_dataset(&city.net, &city.data.test_id, &cfg);
        let b = corrupt_dataset(&city.net, &city.data.test_id, &cfg);
        assert_eq!(a, b, "same seed must replay the same corrupted stream");
        let c =
            corrupt_dataset(&city.net, &city.data.test_id, &CorruptionConfig { seed: 8, ..cfg });
        assert_ne!(a, c, "a different seed must change the stream");
    }

    #[test]
    fn duplicates_only_insert_exact_resends() {
        let city = city();
        let cfg = CorruptionConfig::duplicates(0.5, 3);
        let out = corrupt_dataset(&city.net, &city.data.test_id, &cfg);
        let mut grew = false;
        for (clean, dirty) in city.data.test_id.iter().zip(&out) {
            assert!(dirty.len() >= clean.len());
            grew |= dirty.len() > clean.len();
            // Removing immediate duplicates recovers the clean walk.
            let mut dedup: Vec<_> = Vec::new();
            for &seg in &dirty.segments {
                if dedup.last() != Some(&seg) {
                    dedup.push(seg);
                }
            }
            // The clean walk itself never has immediate self-loops, so the
            // collapse is exact.
            let clean_segs: Vec<_> = clean.segments.clone();
            assert_eq!(dedup, clean_segs);
            assert_eq!(dirty.label, clean.label);
            assert_eq!(dirty.time_slot, clean.time_slot);
        }
        assert!(grew, "p=0.5 must duplicate something across the suite");
    }

    #[test]
    fn reorders_preserve_the_multiset() {
        let city = city();
        let cfg = CorruptionConfig::reorders(0.5, 3);
        let out = corrupt_dataset(&city.net, &city.data.test_id, &cfg);
        let mut changed = false;
        for (clean, dirty) in city.data.test_id.iter().zip(&out) {
            assert_eq!(dirty.len(), clean.len());
            let mut a = clean.segments.clone();
            let mut b = dirty.segments.clone();
            changed |= a != b;
            a.sort_unstable_by_key(|s| s.0);
            b.sort_unstable_by_key(|s| s.0);
            assert_eq!(a, b, "reordering must not add or lose segments");
        }
        assert!(changed, "p=0.5 must swap something across the suite");
    }

    #[test]
    fn drops_never_empty_a_trip() {
        let city = city();
        let cfg = CorruptionConfig::drops(0.95, 3);
        let out = corrupt_dataset(&city.net, &city.data.test_id, &cfg);
        for (clean, dirty) in city.data.test_id.iter().zip(&out) {
            assert!(!dirty.is_empty());
            assert!(dirty.len() <= clean.len());
        }
    }

    #[test]
    fn teleports_and_jitter_stay_in_vocab() {
        let city = city();
        let vocab = city.net.num_segments() as u32;
        let cfg = CorruptionConfig {
            jitter_prob: 0.3,
            teleport_prob: 0.3,
            seed: 11,
            ..CorruptionConfig::default()
        };
        let out = corrupt_dataset(&city.net, &city.data.test_id, &cfg);
        let mut changed = false;
        for (clean, dirty) in city.data.test_id.iter().zip(&out) {
            assert_eq!(dirty.len(), clean.len());
            changed |= dirty.segments != clean.segments;
            for seg in &dirty.segments {
                assert!(seg.0 < vocab);
            }
        }
        assert!(changed, "value faults at p=0.3 must alter the suite");
    }
}
