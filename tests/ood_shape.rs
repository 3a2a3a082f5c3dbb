//! The paper's headline result as an integration test: on trajectories with
//! unseen SD pairs, CausalTAD retains usable detection quality while the
//! conditional baseline degrades sharply (Table II's shape).
//!
//! This trains two real models on a mid-sized confounded city: ~2 s, now
//! that `tad-autodiff`'s kernels are built optimised in the dev profile too
//! (root `Cargo.toml`; with them unoptimised it was ~4 min, most of a
//! `cargo test` run). The city and the trained CausalTAD are shared by both
//! tests, and the two trainings overlap.

use std::sync::OnceLock;

use causaltad::CausalTadConfig;
use tad_baselines::{BaselineConfig, Detector, Vsae};
use tad_eval::cities::{xian_s, Scale};
use tad_eval::harness::evaluate;
use tad_eval::parts::{evaluate_parts, ScoreParts};
use tad_eval::wrappers::CausalTadDetector;
use tad_trajsim::{generate_city, City};

const EPOCHS: usize = 14;

/// One city for the whole binary.
fn city() -> &'static City {
    static CITY: OnceLock<City> = OnceLock::new();
    CITY.get_or_init(|| {
        let mut cfg = xian_s(Scale::Quick);
        // Trim for test runtime while keeping the regime (many pairs,
        // dense coverage, genuine OOD shift).
        cfg.num_candidate_pairs = 40;
        cfg.trajs_per_pair = 14;
        cfg.num_ood_pairs = 30;
        cfg.num_anomalies = 120;
        generate_city(&cfg)
    })
}

/// One trained CausalTAD for the whole binary (training in debug mode is
/// most of this file's runtime). Read-only: a λ sweep reads the model's
/// score parts.
fn trained() -> &'static CausalTadDetector {
    static CAUSAL: OnceLock<CausalTadDetector> = OnceLock::new();
    CAUSAL.get_or_init(|| {
        let mut causal =
            CausalTadDetector::new(CausalTadConfig { epochs: EPOCHS, ..Default::default() });
        causal.fit(&city().net, &city().data.train);
        causal
    })
}

#[test]
fn causaltad_beats_vsae_out_of_distribution() {
    let city = city();
    // The baseline first: the other test is training the shared CausalTAD
    // meanwhile, on the other core.
    let mut vsae = Vsae::vsae(BaselineConfig { epochs: EPOCHS, ..Default::default() });
    vsae.fit(&city.net, &city.data.train);
    let causal = trained();

    // In distribution: both models must be strong.
    let vsae_id = evaluate(&vsae, &city.data.test_id, &city.data.detour).roc_auc;
    let causal_id = evaluate(causal, &city.data.test_id, &city.data.detour).roc_auc;
    assert!(vsae_id > 0.8, "VSAE ID sanity: {vsae_id:.3}");
    assert!(causal_id > 0.8, "CausalTAD ID sanity: {causal_id:.3}");

    // Out of distribution: the paper's claim — CausalTAD generalises,
    // the conditional model does not.
    let vsae_ood = evaluate(&vsae, &city.data.test_ood, &city.data.detour).roc_auc;
    let causal_ood = evaluate(causal, &city.data.test_ood, &city.data.detour).roc_auc;
    assert!(
        causal_ood > vsae_ood + 0.05,
        "CausalTAD must clearly beat VSAE on OOD: {causal_ood:.3} vs {vsae_ood:.3}"
    );

    // Both degrade from ID to OOD (the confounding is real), but CausalTAD
    // degrades less.
    let vsae_drop = vsae_id - vsae_ood;
    let causal_drop = causal_id - causal_ood;
    assert!(
        causal_drop < vsae_drop,
        "CausalTAD must degrade less: drop {causal_drop:.3} vs {vsae_drop:.3}"
    );
}

#[test]
fn debiasing_term_helps_ood_detection() {
    // Fig. 8's first observation: lambda = 0 (pure TG-VAE) is worse out of
    // distribution than a moderate lambda.
    let data = &city().data;
    let model = trained().model().expect("trained");
    let [ood, detour, switch] =
        [&data.test_ood, &data.detour, &data.switch].map(|pool| ScoreParts::of(model, pool));

    let auc_at = |lambda: f64| {
        let d = evaluate_parts(&ood, &detour, |p| p.full(lambda)).roc_auc;
        let s = evaluate_parts(&ood, &switch, |p| p.full(lambda)).roc_auc;
        (d + s) / 2.0
    };
    let ood_zero = auc_at(0.0);
    let ood_mid = auc_at(0.1);
    let ood_huge = auc_at(2.0);
    assert!(
        ood_mid > ood_zero,
        "moderate lambda must help OOD: {ood_mid:.3} vs {ood_zero:.3} at zero"
    );
    assert!(ood_huge < ood_mid, "overblown lambda must hurt: {ood_huge:.3} vs {ood_mid:.3}");
}
