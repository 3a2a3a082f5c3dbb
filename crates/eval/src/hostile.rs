//! Hostile-stream evaluation: detection quality under corruption ×
//! sanitization-policy cells.
//!
//! The offline [`harness`](crate::harness) scores trajectories with
//! `Detector::score` — it never sees the telemetry channel. This module
//! closes that gap: trajectories are first passed through a
//! [`tad_trajsim::corrupt_dataset`] fault model and then scored through a
//! [`tad_serve::FleetEngine`] configured with a [`StreamPolicy`], exactly
//! the path a production deployment takes. Pairing corruption channels
//! with sanitization policies yields an AUC grid that answers the
//! operational question the paper's tables cannot: *how much detection
//! quality does each fault channel cost, and how much does each
//! sanitization policy buy back?*
//!
//! The equivalence guarantees proven by the serve/net/router batteries
//! carry over verbatim: with the all-off policy the engine path is
//! bit-identical to an unpoliced engine, so the `clean × off` cell of any
//! grid reproduces the offline evaluation's ranking.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use causaltad::CausalTad;
use tad_roadnet::RoadNetwork;
use tad_serve::{Event, FleetConfig, FleetEngine, StreamPolicy};
use tad_trajsim::{corrupt_dataset, CorruptionConfig, Trajectory};

use crate::harness::ComboResult;
use crate::metrics::{pr_auc, roc_auc};

/// Scores every trajectory through a [`FleetEngine`] configured with
/// `policy`, returning the final (Eq. 10) anomaly score of each trip in
/// input order.
///
/// Trips are interleaved round-robin into one event stream — the same
/// fleet-shaped arrival order the serving batteries use — so the policy
/// layer sees realistic concurrency while per-trip event order (the only
/// order the engine guarantees anything about) is preserved.
///
/// Panics if the engine fails to complete a trip: every trip here is
/// submitted with a terminating `TripEnd`, so a missing final score is an
/// engine bug, not an evaluation outcome.
fn fleet_scores(model: &Arc<CausalTad>, policy: &StreamPolicy, trips: &[Trajectory]) -> Vec<f64> {
    let finals: Arc<Mutex<HashMap<u64, f64>>> = Arc::new(Mutex::new(HashMap::new()));
    let sink = Arc::clone(&finals);
    let cfg = FleetConfig { policy: policy.clone(), ..FleetConfig::default() };
    let engine = FleetEngine::builder(Arc::clone(model))
        .config(cfg)
        .on_complete(move |o| {
            sink.lock().unwrap().insert(o.id, o.score);
        })
        .build()
        .expect("fleet_scores: model must be trained");

    for (id, t) in trips.iter().enumerate() {
        let sd = t.sd_pair();
        engine
            .submit(Event::TripStart {
                id: id as u64,
                source: sd.source.0,
                dest: sd.dest.0,
                time_slot: t.time_slot,
            })
            .expect("submit start");
    }
    let longest = trips.iter().map(|t| t.len()).max().unwrap_or(0);
    for step in 0..longest {
        for (id, t) in trips.iter().enumerate() {
            if let Some(seg) = t.segments.get(step) {
                engine.submit(Event::Segment { id: id as u64, seg: seg.0 }).expect("submit seg");
            }
            if step + 1 == t.len() {
                engine.submit(Event::TripEnd { id: id as u64 }).expect("submit end");
            }
        }
    }
    engine.shutdown();

    let finals = Arc::try_unwrap(finals).expect("engine gone").into_inner().unwrap();
    trips
        .iter()
        .enumerate()
        .map(|(id, _)| {
            *finals.get(&(id as u64)).unwrap_or_else(|| panic!("trip {id} never completed"))
        })
        .collect()
}

/// Evaluates one corruption × policy cell: corrupts `normals` and
/// `anomalies` with the fault model, scores both through a
/// policy-configured fleet engine, and computes both AUCs (normals are
/// label `false`, anomalies label `true`).
///
/// Corruption is replayable: the same `corruption` config over the same
/// slices reproduces the exact same corrupted streams, so cells can be
/// compared across policies without fault-sampling noise.
pub fn hostile_cell(
    model: &Arc<CausalTad>,
    net: &RoadNetwork,
    policy: &StreamPolicy,
    corruption: &CorruptionConfig,
    normals: &[Trajectory],
    anomalies: &[Trajectory],
) -> ComboResult {
    let dirty_normals = corrupt_dataset(net, normals, corruption);
    let dirty_anomalies = corrupt_dataset(net, anomalies, corruption);
    let mut scores = fleet_scores(model, policy, &dirty_normals);
    scores.extend(fleet_scores(model, policy, &dirty_anomalies));
    let mut labels = vec![false; dirty_normals.len()];
    labels.extend(std::iter::repeat_n(true, dirty_anomalies.len()));
    ComboResult { roc_auc: roc_auc(&scores, &labels), pr_auc: pr_auc(&scores, &labels) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causaltad::CausalTadConfig;
    use tad_trajsim::{generate_city, City, CityConfig};

    fn trained() -> (City, Arc<CausalTad>) {
        let city = generate_city(&CityConfig::test_scale(909));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 1;
        let mut model = CausalTad::new(&city.net, cfg);
        model.fit(&city.data.train);
        (city, Arc::new(model))
    }

    #[test]
    fn dedup_policy_recovers_clean_scores_bit_exactly() {
        let (city, model) = trained();
        let trips: Vec<Trajectory> = city.data.test_id.iter().take(8).cloned().collect();
        let clean = fleet_scores(&model, &StreamPolicy::default(), &trips);

        // Every segment duplicated; the dedup window collapses the
        // resends, so the policed dirty stream must reproduce the clean
        // unpoliced scores to the bit.
        let dirty = corrupt_dataset(&city.net, &trips, &CorruptionConfig::duplicates(1.0, 5));
        let policy = StreamPolicy { dedup_window: 2, ..StreamPolicy::default() };
        let policed = fleet_scores(&model, &policy, &dirty);

        assert_eq!(clean.len(), policed.len());
        for (i, (a, b)) in clean.iter().zip(&policed).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "trip {i}: {a} vs {b}");
        }
    }

    #[test]
    fn hostile_cell_produces_valid_aucs() {
        let (city, model) = trained();
        let normals: Vec<Trajectory> = city.data.test_id.iter().take(10).cloned().collect();
        let anomalies: Vec<Trajectory> = city.data.detour.iter().take(10).cloned().collect();
        let corruption = CorruptionConfig {
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
            drop_prob: 0.1,
            seed: 3,
            ..CorruptionConfig::default()
        };
        let policy = StreamPolicy { dedup_window: 2, reorder_window: 3, ..StreamPolicy::default() };
        let r = hostile_cell(&model, &city.net, &policy, &corruption, &normals, &anomalies);
        assert!((0.0..=1.0).contains(&r.roc_auc), "roc {}", r.roc_auc);
        assert!((0.0..=1.0).contains(&r.pr_auc), "pr {}", r.pr_auc);
    }
}
