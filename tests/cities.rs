//! The two standard quick cities are inputs to every benchmark workload,
//! every paper table and most of the integration suites: a change to
//! dataset generation that moves one trajectory moves every AUC digit
//! downstream. This pins them — network, all five datasets — to digests
//! taken before the route sampler stopped calling `powf` per edge
//! relaxation, so "same cities, faster" stays a checked claim.

use causaltad_suite::codec::checksum64;
use causaltad_suite::eval::cities::{standard_cities, Scale};
use causaltad_suite::roadnet::codec::network_to_bytes;
use causaltad_suite::trajsim::codec::datasets_to_bytes;
use causaltad_suite::trajsim::{generate_city, CityConfig};

#[test]
fn standard_quick_cities_hash_to_their_checked_in_digests() {
    let digests: Vec<String> = standard_cities(Scale::Quick)
        .iter()
        .map(|cfg| {
            let city = generate_city(cfg);
            let mut bytes = network_to_bytes(&city.net).to_vec();
            bytes.extend_from_slice(&datasets_to_bytes(&city.data));
            format!("{} {:#018x}", city.name, checksum64(&bytes))
        })
        .collect();
    assert_eq!(digests, ["xian-s 0x0a895ca1532f5e7e", "chengdu-s 0x61e157415fa4842a"]);
}

/// Six more cities at laptop scale: other seeds, an 8×8 grid and trips of
/// 6 segments up. Digests taken before the generator held one reusable
/// search; equal in debug and release.
#[test]
fn test_scale_cities_hash_to_their_checked_in_digests() {
    let digests: Vec<String> = [1, 2, 7, 11, 42, 901]
        .into_iter()
        .map(|seed| {
            let city = generate_city(&CityConfig::test_scale(seed));
            let mut bytes = network_to_bytes(&city.net).to_vec();
            bytes.extend_from_slice(&datasets_to_bytes(&city.data));
            format!("{} {:#018x}", city.name, checksum64(&bytes))
        })
        .collect();
    assert_eq!(
        digests,
        [
            "test-city-1 0x04b40b944b50c739",
            "test-city-2 0x6af3ba89436dc876",
            "test-city-7 0xe80230b0011a9846",
            "test-city-11 0x3198dd7fb7089d6d",
            "test-city-42 0xb024b07b7387d494",
            "test-city-901 0xc9b205587e0dc30e",
        ]
    );
}
