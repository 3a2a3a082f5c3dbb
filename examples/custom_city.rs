//! The paper's Fig. 1 worked end-to-end on a hand-built road network.
//!
//! A mall sits at p5, so training trips all head there, preferring the wide
//! road p2→p3 over the narrow p2→p4. At inference a trip heads for the new
//! destination p7, whose sensible route is p2→p4→p6→p7. A conditional
//! model (λ = 0) over-penalises the unpopular p2→p4 turn; CausalTAD's
//! per-segment scaling factor compensates exactly there.
//!
//! ```sh
//! cargo run --release --example custom_city
//! ```

use causaltad::{CausalTad, CausalTadConfig};
use tad_roadnet::geometry::Point;
use tad_roadnet::{NodeId, RoadClass, RoadNetwork, SegmentId};
use tad_trajsim::Trajectory;

/// Builds the Fig. 1 layout; returns the network and the named nodes.
fn fig1_network() -> (RoadNetwork, Vec<NodeId>) {
    let mut net = RoadNetwork::new();
    // Index:        0=m     1=p1    2=p2    3=p3    4=p4    5=p5    6=p6    7=p7
    let coords = [
        (-1.0, 1.0),
        (0.0, 2.0),
        (0.0, 1.0),
        (1.0, 1.0),
        (0.0, 0.0),
        (1.0, 0.0),
        (0.0, -1.0),
        (1.0, -1.0),
    ];
    let nodes: Vec<NodeId> =
        coords.iter().map(|&(x, y)| net.add_node(Point::new(x * 300.0, y * 300.0))).collect();
    let mut link = |a: usize, b: usize, class: RoadClass| {
        let len = 300.0;
        net.add_segment(nodes[a], nodes[b], len, class);
        net.add_segment(nodes[b], nodes[a], len, class);
    };
    link(0, 2, RoadClass::Major); // the main road into p2
    link(2, 1, RoadClass::Local); // p2 - p1 (leads away)
    link(2, 3, RoadClass::Major); // p2 - p3 (wide)
    link(2, 4, RoadClass::Local); // p2 - p4 (narrow)
    link(3, 5, RoadClass::Major); // p3 - p5 (wide, to the mall)
    link(4, 5, RoadClass::Local); // p4 - p5 (narrow)
    link(4, 6, RoadClass::Local); // p4 - p6
    link(6, 7, RoadClass::Local); // p6 - p7
    link(5, 7, RoadClass::Local); // p5 - p7 (very narrow)
    (net, nodes)
}

/// A trajectory along a node path.
fn walk(net: &RoadNetwork, nodes: &[NodeId], path: &[usize]) -> Trajectory {
    let segments: Vec<SegmentId> = path
        .windows(2)
        .map(|w| net.segment_between(nodes[w[0]], nodes[w[1]]).expect("edge exists"))
        .collect();
    Trajectory::normal(segments, 0)
}

fn main() {
    let (net, nodes) = fig1_network();

    // Training data (E -> C): the mall at p5 dominates destinations, and
    // drivers prefer the wide p2->p3->p5 (E -> T): 16 trips via p3, 4 via p4.
    let mut train = Vec::new();
    for _ in 0..16 {
        train.push(walk(&net, &nodes, &[0, 2, 3, 5]));
    }
    for _ in 0..4 {
        train.push(walk(&net, &nodes, &[0, 2, 4, 5]));
    }

    let mut cfg = CausalTadConfig::test_scale();
    cfg.epochs = 60;
    cfg.lambda = 0.1;
    let mut model = CausalTad::new(&net, cfg);
    println!("training on {} trips to the mall (p5) ...", train.len());
    model.fit(&train);

    // The paper's inference scenario: a normal trip to the NEW destination
    // p7 via p2 -> p4 -> p6 -> p7 (all narrow, unpopular roads).
    let new_trip = walk(&net, &nodes, &[0, 2, 4, 6, 7]);
    // The dominant trained route, as the in-distribution reference.
    let trained_trip = walk(&net, &nodes, &[0, 2, 3, 5]);

    let table = model.scaling().expect("fitted");
    let p2p3 = net.segment_between(nodes[2], nodes[3]).unwrap();
    let p2p4 = net.segment_between(nodes[2], nodes[4]).unwrap();
    println!("\nprecomputed log-scaling factors (higher = more compensation):");
    println!("  popular   p2->p3: {:6.3}", table.log_scale(p2p3.0, 0));
    println!("  unpopular p2->p4: {:6.3}", table.log_scale(p2p4.0, 0));
    assert!(table.log_scale(p2p4.0, 0) > table.log_scale(p2p3.0, 0));

    // Per-segment trace of the new-destination trip (the paper's Fig. 4):
    // unpopular segments are exactly where the compensation lands.
    println!("\nper-segment trace of the trip to p7 (lambda = 0.1):");
    // One pass scores both trips; the new trip's steps are its trace.
    let pair = [new_trip, trained_trip];
    let mut trace = Vec::new();
    let states = model.score_pool(&pair, Trajectory::len, |i, step| {
        if i == 0 {
            trace.push(step);
        }
    });
    println!("  {:>4} {:>9} {:>10} {:>9}", "seg", "raw nll", "log-scale", "debiased");
    for step in &trace {
        println!(
            "  {:>4} {:>9.3} {:>10.3} {:>9.3}",
            step.segment,
            step.nll,
            step.log_scale,
            step.debiased(0.1)
        );
    }

    // Debiasing pulls the normal-but-unpopular route towards the trained
    // route's score level (relative gap shrinks), which is how the OOD
    // false alarms of the conditional model disappear.
    let per_seg = |i: usize| {
        let n = pair[i].len() as f64;
        (states[i].score(0.0) / n, states[i].score(0.1) / n)
    };
    let (biased_new, debiased_new) = per_seg(0);
    let (biased_ref, debiased_ref) = per_seg(1);
    let gap_biased = biased_new - biased_ref;
    let gap_debiased = debiased_new - debiased_ref;
    println!("\nper-segment scores (higher = more anomalous):");
    println!("  trained route to p5:  biased {biased_ref:6.3}   debiased {debiased_ref:6.3}");
    println!("  new route to p7:      biased {biased_new:6.3}   debiased {debiased_new:6.3}");
    println!(
        "\nexcess score of the normal new-destination trip over the trained route\n\
         (per segment; this excess is what turns into OOD false alarms):\n  \
         biased   (P(T|C)):     {gap_biased:6.3}\n  \
         debiased (P(T|do(C))): {gap_debiased:6.3}  <- smaller",
    );
    assert!(
        gap_debiased < gap_biased,
        "debiasing must compensate unpopular roads more than popular ones"
    );
}
