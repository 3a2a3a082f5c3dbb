//! Pins that `FleetConfig::queue_capacity` is a bound, not an allocation:
//! building an engine (and sending each shard a first message, so the
//! workers have made their own allocations too) takes the same heap
//! whether each shard queue may hold 1 message or 65 536. A queue that
//! writes a slot per unit of its bound up front, as `sync_channel` does,
//! takes ~2.6 MB more per shard at 65 536.
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test: nothing else allocates while a build is measured.

#[path = "../../core/tests/counting/mod.rs"]
mod counting;

use std::sync::Arc;

use causaltad::{CausalTad, CausalTadConfig};
use tad_serve::{FleetConfig, FleetEngine};
use tad_trajsim::{generate_city, CityConfig};

#[test]
fn a_shard_queue_bound_costs_no_heap_until_it_is_used() {
    const SHARDS: usize = 2;
    let city = generate_city(&CityConfig::test_scale(206));
    let mut model = CausalTad::new(&city.net, CausalTadConfig::test_scale());
    model.precompute_scaling();
    let model = Arc::new(model);

    // The high-water mark of build + a first flush, which every worker
    // answers only after its start-up allocations.
    let build_heap = |queue_capacity: usize| {
        let cfg = FleetConfig { num_shards: SHARDS, queue_capacity, ..FleetConfig::default() };
        let (engine, grew) = counting::peak_growth(|| {
            let engine =
                FleetEngine::builder(Arc::clone(&model)).config(cfg).build().expect("scaled model");
            engine.flush().expect("shards live");
            engine
        });
        engine.shutdown();
        grew
    };
    // The first build also derives the model's inference plan.
    build_heap(1);
    let at_one = build_heap(1);
    let at_max = build_heap(65_536);
    println!("build + flush heap: {at_one} B at capacity 1, {at_max} B at 65 536");
    assert!(
        at_max < at_one + SHARDS * 16 * 1024,
        "capacity 65 536 took {} B more than capacity 1 over {SHARDS} shards",
        at_max.saturating_sub(at_one)
    );
}
