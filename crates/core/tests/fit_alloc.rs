//! Pins what training holds and what it leaves behind.
//!
//! [`Trainer::fit`]'s peak heap, over where it started, is a small
//! multiple of the model's parameter values. The fit needs the two
//! lanes' gradients (one set of values), their Adam moments (two), the
//! best epoch's snapshot (one) and one tape pass per lane — its
//! activations, with gradients that reuse their buffers as backward
//! passes them — not the union of every ragged batch shape the tape's
//! buffer pool has seen, nor a caller's noise adopted into the pool, nor
//! two snapshots at once, nor a copy of the store on the tape (a
//! parameter leaf reads the store in place). These fits read 7.33 /
//! 6.84 / 7.68x the values on cities 1 / 7 / 42 (bound 7.85x), in debug
//! and release alike.
//!
//! And the fit leaves nothing but its report: gradients, moments, tapes
//! and snapshot are allocated and freed on the lanes' threads, so the
//! live heap after the fit is the live heap before it plus the report's
//! epoch losses.
//!
//! The counting allocator is process-wide (it counts both lane threads),
//! so this file holds exactly one test: nothing else allocates while a
//! fit is measured.

mod counting;

use causaltad::{CausalTad, CausalTadConfig, Trainer};
use tad_trajsim::{generate_city, CityConfig};

#[test]
fn fit_peak_heap_is_a_few_stores_not_every_shape_the_pool_has_seen() {
    // Three of the cities `tests/cities.rs` pins, at the default widths.
    for seed in [1, 7, 42] {
        let city = generate_city(&CityConfig::test_scale(seed));
        let mut model = CausalTad::new(&city.net, CausalTadConfig::default());
        let values = model.store().num_scalars() * std::mem::size_of::<f32>();
        let ((report, grew), kept) = counting::live_growth(|| {
            counting::peak_growth(|| Trainer::fit(&mut model, &city.data.train))
        });
        assert!(!report.diverged, "city {seed}");
        let ratio = grew as f64 / values as f64;
        eprintln!("city {seed}: fit grew {ratio:.2}x the values, kept {kept} B");
        assert!(ratio <= 7.85, "city {seed}: fit grew {grew} B over {values} B of values");
        // The report's losses, and not a tensor more.
        let report_bytes = (report.epoch_losses.capacity() * std::mem::size_of::<f64>()) as isize;
        assert!(
            kept <= report_bytes + 1024,
            "city {seed}: fit kept {kept} B beyond the {report_bytes} B report"
        );
    }
}
