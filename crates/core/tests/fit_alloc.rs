//! Pins what training holds: [`Trainer::fit`]'s peak heap, over where it
//! started, is a small multiple of the parameter store (values and
//! gradients). The fit needs the two lanes' Adam moments (one store), the
//! best epoch's snapshot (half of one) and one tape pass's activations and
//! gradients per lane — not the union of every ragged batch shape the
//! tape's buffer pool has seen, nor two snapshots at once, nor a copy of
//! the store on the tape (a parameter leaf reads the store in place).
//! These fits read 3.4–4.1x (4.00 / 3.42 / 4.05 on cities 1 / 7 / 42);
//! with every parameter copied onto the tape each pass they read
//! 3.8–4.5x, and with an exact-size class per small buffer, doubling
//! growth and a fresh snapshot per better epoch 10–14x.
//!
//! The counting allocator is process-wide (it counts the RP-VAE lane's
//! thread too), so this file holds exactly one test: nothing else
//! allocates while a fit is measured.

mod counting;

use causaltad::{CausalTad, CausalTadConfig, Trainer};
use tad_trajsim::{generate_city, CityConfig};

#[test]
fn fit_peak_heap_is_a_few_stores_not_every_shape_the_pool_has_seen() {
    // Three of the cities `tests/cities.rs` pins, at the default widths.
    for seed in [1, 7, 42] {
        let city = generate_city(&CityConfig::test_scale(seed));
        let mut model = CausalTad::new(&city.net, CausalTadConfig::default());
        let store = 2 * model.store().num_scalars() * std::mem::size_of::<f32>();
        let (report, grew) = counting::peak_growth(|| Trainer::fit(&mut model, &city.data.train));
        assert!(!report.diverged, "city {seed}");
        let ratio = grew as f64 / store as f64;
        eprintln!("city {seed}: fit grew {ratio:.2}x the store");
        assert!(ratio <= 4.25, "city {seed}: fit grew {grew} B over a {store} B store");
    }
}
