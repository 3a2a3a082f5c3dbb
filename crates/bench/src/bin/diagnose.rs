//! Diagnostic tool: decomposes the anomaly score by pool and sweeps λ.
//!
//! Prints, for each test pool of the xian-s city: mean length, the share of
//! segments never seen in training, mean scaling factor per segment, and
//! mean likelihood NLL per segment — the quantities that explain *why*
//! CausalTAD ranks pools the way it does. Then reports a ROC-AUC λ-sweep
//! against VSAE.
//!
//! ```sh
//! cargo run --release -p tad-bench --bin diagnose -- [bias] [noise] [epochs]
//! ```

use causaltad::CausalTadConfig;
use tad_baselines::{BaselineConfig, Detector, Vsae};
use tad_eval::cities::{xian_s, Scale};
use tad_eval::harness::evaluate;
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
    let table = model.scaling().expect("trained");
    let seen = segment_frequencies(&city.data.train);

    let stats = |name: &str, pool: &[Trajectory]| {
        let mut nseg = 0usize;
        let mut scale = 0.0;
        let mut nll = 0.0;
        for t in pool {
            let sd = t.sd_pair();
            let mut s = model.online(sd.source.0, sd.dest.0, t.time_slot);
            for &seg in &t.segments {
                s.push(seg.0);
                nseg += 1;
                scale += table.log_scale(seg.0, t.time_slot);
            }
            nll += s.likelihood_nll();
        }
        println!(
            "  {name:<9} len {:5.1}  unseen% {:4.1}  scale/seg {:5.2}  nll/seg {:5.2}",
            nseg as f64 / pool.len() as f64,
            unseen_share(&seen, pool) * 100.0,
            scale / nseg as f64,
            nll / nseg as f64
        );
    };
    println!("pool decomposition:");
    stats("test_id", &city.data.test_id);
    stats("test_ood", &city.data.test_ood);
    stats("detour", &city.data.detour);
    stats("switch", &city.data.switch);

    let ev = |det: &dyn Detector, normals: &[Trajectory], anomalies: &[Trajectory]| {
        evaluate(det, normals, anomalies).roc_auc
    };
    println!("ROC-AUC:");
    println!(
        "  VSAE        ID-D {:.3} OOD-D {:.3} ID-S {:.3} OOD-S {:.3}",
        ev(&vsae, &city.data.test_id, &city.data.detour),
        ev(&vsae, &city.data.test_ood, &city.data.detour),
        ev(&vsae, &city.data.test_id, &city.data.switch),
        ev(&vsae, &city.data.test_ood, &city.data.switch),
    );
    for lambda in [0.0, 0.05, 0.1, 0.2, 0.3, 0.5] {
        causal.set_lambda(lambda);
        println!(
            "  CTAD l={lambda:<5} ID-D {:.3} OOD-D {:.3} ID-S {:.3} OOD-S {:.3}",
            ev(&causal, &city.data.test_id, &city.data.detour),
            ev(&causal, &city.data.test_ood, &city.data.detour),
            ev(&causal, &city.data.test_id, &city.data.switch),
            ev(&causal, &city.data.test_ood, &city.data.switch),
        );
    }
}
