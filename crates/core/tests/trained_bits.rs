//! Trained bits as a checked fact. Every kernel, tape and optimiser change
//! here claims "the trained parameters are those of the parent, bit for
//! bit"; this pins them. Each case fits CausalTAD on a test-scale city and
//! hashes every trained parameter (names, shapes, values' bits) and the
//! scores of the in-distribution test set. The other pins compare two
//! training paths that share the tape and its buffer pool, so they cannot
//! see a drift both paths take; these digests can. Digests taken before
//! the pool kept one power-of-two class per buffer; equal in debug and
//! release. A change that moves trained bits on purpose updates them and
//! says why. (The six sequence baselines have the same pin, one test per
//! model file of `tad-baselines`.)

use causaltad::{CausalTad, CausalTadConfig};
use tad_codec::checksum64;
use tad_trajsim::{generate_city, CityConfig};

#[test]
fn trained_causaltad_hashes_to_its_checked_in_digests() {
    // One of the cities `tests/cities.rs` pins.
    let city = generate_city(&CityConfig::test_scale(7));
    let base = CausalTadConfig::test_scale();
    let cases = [
        ("default", base.clone()),
        (
            "time_factorised_scaling",
            CausalTadConfig { time_factorised_scaling: true, ..base.clone() },
        ),
        ("tie_sd_embedding", CausalTadConfig { tie_sd_embedding: true, ..base.clone() }),
        ("micro_batch 1", CausalTadConfig { micro_batch: 1, ..base.clone() }),
        // Two tape passes of eight accumulate into each optimiser step.
        ("micro_batch 8 of 16", CausalTadConfig { micro_batch: 8, batch_size: 16, ..base }),
    ];
    let digests: Vec<String> = cases
        .into_iter()
        .map(|(what, cfg)| {
            let mut model = CausalTad::new(&city.net, cfg);
            model.fit(&city.data.train);
            let scores: Vec<u8> = city
                .data
                .test_id
                .iter()
                .flat_map(|t| model.score(t).to_bits().to_le_bytes())
                .collect();
            let (params, scores) = (checksum64(&model.store().to_bytes()), checksum64(&scores));
            format!("{what}: params {params:#018x} scores {scores:#018x}")
        })
        .collect();
    assert_eq!(
        digests,
        [
            "default: params 0xaa0fa07f69007d2b scores 0x3f7de21e110092df",
            "time_factorised_scaling: params 0x7a3c3dd3098bb4ed scores 0x6b0c12960c5cd3c4",
            "tie_sd_embedding: params 0x721597c82ca74f94 scores 0x865a2befea637876",
            "micro_batch 1: params 0x5968a23dc3f01c67 scores 0x8cc686dd55a0a112",
            "micro_batch 8 of 16: params 0xde6a2955bc6661b1 scores 0x65a724e80e956a9e",
        ]
    );
}
