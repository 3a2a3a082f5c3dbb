//! Diagnostic tool: decomposes the anomaly score by pool and sweeps λ.
//!
//! Prints, for each test pool of the xian-s city: mean length, the share of
//! segments never seen in training, mean scaling factor per segment, and
//! mean likelihood NLL per segment — the quantities that explain *why*
//! CausalTAD ranks pools the way it does. Then reports a ROC-AUC λ-sweep
//! against VSAE. Both read one scoring pass per pool
//! ([`tad_eval::parts::ScoreParts`]): the sweep sets no λ on the model.
//!
//! ```sh
//! cargo run --release -p tad-bench --bin diagnose -- [bias] [noise] [epochs]
//! ```

use causaltad::CausalTadConfig;
use tad_baselines::{BaselineConfig, Detector, Vsae};
use tad_eval::cities::{xian_s, Scale};
use tad_eval::harness::evaluate;
use tad_eval::parts::{evaluate_parts, ScoreParts};
use tad_eval::wrappers::CausalTadDetector;
use tad_trajsim::stats::{segment_frequencies, unseen_share};
use tad_trajsim::{generate_city, Trajectory};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bias: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(-1.0);
    let noise: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(-1.0);
    let epochs: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(20);

    let mut cc = xian_s(Scale::Quick);
    if bias >= 0.0 {
        cc.sd.popularity_bias = bias;
    }
    if noise >= 0.0 {
        cc.route.utility_noise = noise;
    }
    let city = generate_city(&cc);
    println!(
        "city: {} segments | {} | bias {} noise {}",
        city.net.num_segments(),
        city.data.summary(),
        cc.sd.popularity_bias,
        cc.route.utility_noise
    );

    let mut vsae = Vsae::vsae(BaselineConfig { epochs, ..Default::default() });
    vsae.fit(&city.net, &city.data.train);
    let mut causal = CausalTadDetector::new(CausalTadConfig { epochs, ..Default::default() });
    causal.fit(&city.net, &city.data.train);
    let model = causal.model().expect("trained");
    let seen = segment_frequencies(&city.data.train);

    let data = &city.data;
    let pools = [
        ("test_id", &data.test_id),
        ("test_ood", &data.test_ood),
        ("detour", &data.detour),
        ("switch", &data.switch),
    ];
    let [id, ood, detour, switch] = pools.map(|(_, pool)| ScoreParts::of(model, pool));
    println!("pool decomposition:");
    for ((name, pool), parts) in pools.iter().zip([&id, &ood, &detour, &switch]) {
        let nseg: usize = pool.iter().map(Trajectory::len).sum();
        let scale: f64 = parts.iter().map(|p| p.log_scale).sum();
        let nll: f64 = parts.iter().map(|p| p.nll).sum();
        println!(
            "  {name:<9} len {:5.1}  unseen% {:4.1}  scale/seg {:5.2}  nll/seg {:5.2}",
            nseg as f64 / pool.len() as f64,
            unseen_share(&seen, pool) * 100.0,
            scale / nseg as f64,
            nll / nseg as f64
        );
    }

    let ev = |det: &dyn Detector, normals: &[Trajectory], anomalies: &[Trajectory]| {
        evaluate(det, normals, anomalies).roc_auc
    };
    println!("ROC-AUC:");
    println!(
        "  VSAE        ID-D {:.3} OOD-D {:.3} ID-S {:.3} OOD-S {:.3}",
        ev(&vsae, &data.test_id, &data.detour),
        ev(&vsae, &data.test_ood, &data.detour),
        ev(&vsae, &data.test_id, &data.switch),
        ev(&vsae, &data.test_ood, &data.switch),
    );
    for lambda in [0.0, 0.05, 0.1, 0.2, 0.3, 0.5] {
        let ev =
            |normals, anomalies| evaluate_parts(normals, anomalies, |p| p.full(lambda)).roc_auc;
        println!(
            "  CTAD l={lambda:<5} ID-D {:.3} OOD-D {:.3} ID-S {:.3} OOD-S {:.3}",
            ev(&id, &detour),
            ev(&ood, &detour),
            ev(&id, &switch),
            ev(&ood, &switch),
        );
    }
}
