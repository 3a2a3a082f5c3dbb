//! Shortest paths over the road network.
//!
//! Two flavours are provided:
//!
//! * **segment-space** search ([`SegmentSearch`], held by callers that
//!   search one network many times, and [`segment_shortest_path`] for one
//!   query): states are directed segments connected by the successor
//!   relation. This is the search the paper's Detour anomaly generator
//!   needs ("temporarily delete `t_k` from the road network and apply
//!   Dijkstra") and the one the route choice model of `tad-trajsim`
//!   perturbs, because route preference is a property of segments, not
//!   intersections.
//! * **node-space** search ([`node_shortest_path`]) for plain
//!   intersection-to-intersection queries.
//!
//! Costs are supplied by a closure `SegmentId -> Option<f64>`; returning
//! `None` bans a segment, which is how detours and Yen's spur searches
//! remove edges without mutating the graph.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::graph::{NodeId, RoadNetwork, SegmentId};

/// Node-space heap entry ordered by smallest cost first.
#[derive(Debug)]
struct HeapEntry {
    cost: f64,
    state: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.state == other.state
    }
}
impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; total_cmp handles NaN defensively.
        other.cost.total_cmp(&self.cost).then_with(|| other.state.cmp(&self.state))
    }
}

/// A path found by a shortest-path search.
#[derive(Clone, Debug, PartialEq)]
pub struct PathResult {
    /// Sequence of segments, including the start and end states for
    /// segment-space searches.
    pub segments: Vec<SegmentId>,
    /// Total cost under the supplied cost function.
    pub cost: f64,
}

/// Dijkstra in segment space from `start` to `goal` (both inclusive in the
/// returned path): [`SegmentSearch::path`] on a search built for this one
/// query. A caller that searches one network many times holds a
/// [`SegmentSearch`] instead.
pub fn segment_shortest_path(
    net: &RoadNetwork,
    start: SegmentId,
    goal: SegmentId,
    cost: impl Fn(SegmentId) -> Option<f64>,
) -> Option<PathResult> {
    SegmentSearch::new(net).path(start, goal, cost)
}

/// A reusable segment-space Dijkstra over one network.
///
/// Built once per network: every segment's successor list (U-turns
/// already filtered, as [`RoadNetwork::successors`] does) is flattened into
/// one offset array and one successor array, and the distance, predecessor
/// and heap buffers are kept from one search to the next, so a query
/// allocates only the path it returns.
///
/// A heap entry is one packed key, `cost.to_bits() << 32 | segment`, popped
/// smallest first. The bits of a non-negative `f64` order as its value
/// does, so this is cost order with ties broken by the smaller segment id:
/// every pop, relaxation and predecessor is that of a heap of `(cost,
/// segment)` pairs under `f64::total_cmp`.
#[derive(Debug)]
pub struct SegmentSearch<'n> {
    net: &'n RoadNetwork,
    /// The successors of segment `s` are `succ[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    succ: Vec<u32>,
    dist: Vec<f64>,
    prev: Vec<u32>,
    heap: BinaryHeap<Reverse<u128>>,
}

impl<'n> SegmentSearch<'n> {
    /// Flattens `net`'s successor relation and sizes the buffers.
    pub fn new(net: &'n RoadNetwork) -> Self {
        let n = net.num_segments();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut succ = Vec::new();
        offsets.push(0);
        for seg in net.segment_ids() {
            succ.extend(net.successors(seg).map(|s| s.0));
            offsets.push(succ.len() as u32);
        }
        SegmentSearch {
            net,
            offsets,
            succ,
            dist: vec![f64::INFINITY; n],
            prev: vec![u32::MAX; n],
            heap: BinaryHeap::new(),
        }
    }

    /// The network this search runs on.
    pub fn net(&self) -> &'n RoadNetwork {
        self.net
    }

    /// The cheapest path from `start` to `goal`, both inclusive.
    /// `cost(seg)` prices *entering* each segment after the first and must
    /// not be negative; `None` bans a segment entirely (including `goal`,
    /// which then makes the search fail). The cost of the `start` segment
    /// itself is not counted, matching the semantics of extending an
    /// existing trajectory.
    pub fn path(
        &mut self,
        start: SegmentId,
        goal: SegmentId,
        cost: impl Fn(SegmentId) -> Option<f64>,
    ) -> Option<PathResult> {
        cost(goal)?;
        if start == goal {
            return Some(PathResult { segments: vec![start], cost: 0.0 });
        }
        let SegmentSearch { offsets, succ, dist, prev, heap, .. } = self;
        // `prev` needs no reset: the walk back from `goal` only reads
        // entries this search wrote.
        dist.fill(f64::INFINITY);
        heap.clear();
        dist[start.index()] = 0.0;
        heap.push(Reverse(heap_key(0.0, start.0)));

        while let Some(Reverse(key)) = heap.pop() {
            let (d, state) = (f64::from_bits((key >> 32) as u64), key as u32);
            if state == goal.0 {
                break;
            }
            let s = state as usize;
            if d > dist[s] {
                continue;
            }
            for &next in &succ[offsets[s] as usize..offsets[s + 1] as usize] {
                let Some(step) = cost(SegmentId(next)) else { continue };
                debug_assert!(step >= 0.0, "negative segment cost");
                let nd = d + step;
                if nd < dist[next as usize] {
                    dist[next as usize] = nd;
                    prev[next as usize] = state;
                    heap.push(Reverse(heap_key(nd, next)));
                }
            }
        }

        if dist[goal.index()].is_infinite() {
            return None;
        }
        let mut segments = vec![goal];
        let mut cur = goal.0;
        while cur != start.0 {
            cur = prev[cur as usize];
            debug_assert_ne!(cur, u32::MAX, "broken predecessor chain");
            segments.push(SegmentId(cur));
        }
        segments.reverse();
        Some(PathResult { segments, cost: dist[goal.index()] })
    }
}

/// `(cost, segment)` as one integer whose order is cost order, then
/// segment order, for any non-negative `cost`.
fn heap_key(cost: f64, segment: u32) -> u128 {
    (u128::from(cost.to_bits()) << 32) | u128::from(segment)
}

/// Dijkstra in node space from `from` to `to`. Returns the segment sequence
/// traversed. `cost(seg)` prices traversing each segment; `None` bans it.
pub fn node_shortest_path(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    cost: impl Fn(SegmentId) -> Option<f64>,
) -> Option<PathResult> {
    if from == to {
        return Some(PathResult { segments: Vec::new(), cost: 0.0 });
    }
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev_seg: Vec<u32> = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[from.index()] = 0.0;
    heap.push(HeapEntry { cost: 0.0, state: from.0 });

    while let Some(HeapEntry { cost: d, state }) = heap.pop() {
        if state == to.0 {
            break;
        }
        if d > dist[state as usize] {
            continue;
        }
        for &seg in net.out_segments(NodeId(state)) {
            let Some(step) = cost(seg) else { continue };
            debug_assert!(step >= 0.0, "negative segment cost");
            let next = net.segment(seg).to;
            let nd = d + step;
            if nd < dist[next.index()] {
                dist[next.index()] = nd;
                prev_seg[next.index()] = seg.0;
                heap.push(HeapEntry { cost: nd, state: next.0 });
            }
        }
    }

    if dist[to.index()].is_infinite() {
        return None;
    }
    let mut segments = Vec::new();
    let mut cur = to;
    while cur != from {
        let seg = SegmentId(prev_seg[cur.index()]);
        segments.push(seg);
        cur = net.segment(seg).from;
    }
    segments.reverse();
    Some(PathResult { segments, cost: dist[to.index()] })
}

/// All-source single-target distances in node space are not needed; what the
/// map matcher wants is a *bounded* one-to-one distance. This runs node
/// Dijkstra but stops as soon as the target is settled or the best distance
/// exceeds `limit`, returning the network distance if reachable within it.
pub fn bounded_node_distance(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    limit: f64,
) -> Option<f64> {
    if from == to {
        return Some(0.0);
    }
    let mut dist = vec![f64::INFINITY; net.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[from.index()] = 0.0;
    heap.push(HeapEntry { cost: 0.0, state: from.0 });
    while let Some(HeapEntry { cost: d, state }) = heap.pop() {
        if d > limit {
            return None;
        }
        if state == to.0 {
            return Some(d);
        }
        if d > dist[state as usize] {
            continue;
        }
        for &seg in net.out_segments(NodeId(state)) {
            let next = net.segment(seg).to;
            let nd = d + net.segment(seg).length;
            if nd < dist[next.index()] {
                dist[next.index()] = nd;
                heap.push(HeapEntry { cost: nd, state: next.0 });
            }
        }
    }
    None
}

/// Cost function: segment length in metres.
pub fn length_cost(net: &RoadNetwork) -> impl Fn(SegmentId) -> Option<f64> + '_ {
    move |s| Some(net.segment(s).length)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::RoadClass;
    use crate::grid::{generate_grid_city, GridCityConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The segment-space search before [`SegmentSearch`]: fresh buffers and
    /// a heap of [`HeapEntry`] per query, successors read off the network.
    fn reference_path(
        net: &RoadNetwork,
        start: SegmentId,
        goal: SegmentId,
        cost: impl Fn(SegmentId) -> Option<f64>,
    ) -> Option<PathResult> {
        cost(goal)?;
        if start == goal {
            return Some(PathResult { segments: vec![start], cost: 0.0 });
        }
        let n = net.num_segments();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<u32> = vec![u32::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[start.index()] = 0.0;
        heap.push(HeapEntry { cost: 0.0, state: start.0 });

        while let Some(HeapEntry { cost: d, state }) = heap.pop() {
            if state == goal.0 {
                break;
            }
            if d > dist[state as usize] {
                continue;
            }
            for next in net.successors(SegmentId(state)) {
                let Some(step) = cost(next) else { continue };
                let nd = d + step;
                if nd < dist[next.index()] {
                    dist[next.index()] = nd;
                    prev[next.index()] = state;
                    heap.push(HeapEntry { cost: nd, state: next.0 });
                }
            }
        }

        if dist[goal.index()].is_infinite() {
            return None;
        }
        let mut segments = vec![goal];
        let mut cur = goal.0;
        while cur != start.0 {
            cur = prev[cur as usize];
            segments.push(SegmentId(cur));
        }
        segments.reverse();
        Some(PathResult { segments, cost: dist[goal.index()] })
    }

    /// One held search per city answers every query exactly as the
    /// reference does, segment for segment and cost bit for bit: jittered
    /// lengths, equal block lengths (exact ties everywhere), random costs
    /// with zeros and repeats, random bans, a banned goal, `start == goal`
    /// and pairs made unreachable. Queries of every kind interleave on the
    /// one search, so a buffer one query leaves stale fails another.
    #[test]
    fn a_held_search_matches_the_binary_heap_reference_bit_for_bit() {
        let (mut queries, mut paths, mut none, mut trivial) = (0, 0, 0, 0);
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = GridCityConfig {
                width: 6 + seed as usize % 3,
                height: 7,
                jitter: if seed % 2 == 0 { 0.08 } else { 0.0 },
                missing_edge_prob: 0.06,
                ..GridCityConfig::default()
            };
            let net = generate_grid_city(&cfg, &mut rng);
            let n = net.num_segments();
            let mut search = SegmentSearch::new(&net);
            for q in 0..80 {
                let start = SegmentId(rng.gen_range(0..n as u32));
                let goal = if q % 13 == 0 { start } else { SegmentId(rng.gen_range(0..n as u32)) };
                let random: Vec<f64> = (0..n)
                    .map(|_| match q % 3 {
                        1 => rng.gen_range(0..4) as f64,
                        _ => rng.gen_range(0.0..500.0),
                    })
                    .collect();
                let mut banned = vec![false; n];
                match (q / 3) % 4 {
                    0 => {}
                    1 => banned.iter_mut().for_each(|b| *b = rng.gen_bool(0.1)),
                    2 => banned[goal.index()] = true,
                    _ => net.successors(start).for_each(|s| banned[s.index()] = true),
                }
                let cost = |s: SegmentId| match (banned[s.index()], q % 3) {
                    (true, _) => None,
                    (false, 0) => Some(net.segment(s).length),
                    (false, _) => Some(random[s.index()]),
                };
                let (got, want) =
                    (search.path(start, goal, cost), reference_path(&net, start, goal, cost));
                match (&got, &want) {
                    (Some(g), Some(w)) => {
                        assert_eq!(g.segments, w.segments, "city {seed} query {q}");
                        assert_eq!(g.cost.to_bits(), w.cost.to_bits(), "city {seed} query {q}");
                        if start == goal {
                            trivial += 1;
                        } else {
                            paths += 1;
                        }
                    }
                    (None, None) => none += 1,
                    _ => panic!("city {seed} query {q}: {got:?} against {want:?}"),
                }
                queries += 1;
            }
        }
        assert!(
            queries >= 200 && paths >= 150 && none >= 100 && trivial >= 20,
            "{paths} {none} {trivial}"
        );
    }

    /// A 3x3 grid with bidirectional unit-length edges.
    fn grid3() -> (RoadNetwork, Vec<NodeId>) {
        let mut net = RoadNetwork::new();
        let mut nodes = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                nodes.push(net.add_node(Point::new(x as f64, y as f64)));
            }
        }
        let idx = |x: usize, y: usize| nodes[y * 3 + x];
        for y in 0..3 {
            for x in 0..3 {
                if x + 1 < 3 {
                    net.add_segment(idx(x, y), idx(x + 1, y), 1.0, RoadClass::Local);
                    net.add_segment(idx(x + 1, y), idx(x, y), 1.0, RoadClass::Local);
                }
                if y + 1 < 3 {
                    net.add_segment(idx(x, y), idx(x, y + 1), 1.0, RoadClass::Local);
                    net.add_segment(idx(x, y + 1), idx(x, y), 1.0, RoadClass::Local);
                }
            }
        }
        (net, nodes)
    }

    #[test]
    fn node_path_is_manhattan_on_grid() {
        let (net, nodes) = grid3();
        let r = node_shortest_path(&net, nodes[0], nodes[8], length_cost(&net)).unwrap();
        assert!((r.cost - 4.0).abs() < 1e-12);
        assert_eq!(r.segments.len(), 4);
        assert!(net.is_connected_path(&r.segments));
        assert_eq!(net.segment(r.segments[0]).from, nodes[0]);
        assert_eq!(net.segment(*r.segments.last().unwrap()).to, nodes[8]);
    }

    #[test]
    fn node_path_same_node_is_empty() {
        let (net, nodes) = grid3();
        let r = node_shortest_path(&net, nodes[4], nodes[4], length_cost(&net)).unwrap();
        assert!(r.segments.is_empty());
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn segment_path_connects_and_respects_bans() {
        let (net, nodes) = grid3();
        let start = net.segment_between(nodes[0], nodes[1]).unwrap();
        let goal = net.segment_between(nodes[7], nodes[8]).unwrap();
        let r = segment_shortest_path(&net, start, goal, length_cost(&net)).unwrap();
        assert!(net.is_connected_path(&r.segments));
        assert_eq!(r.segments.first(), Some(&start));
        assert_eq!(r.segments.last(), Some(&goal));

        // Ban a segment on the found path; the new route must avoid it and
        // cannot be cheaper.
        let banned = r.segments[1];
        let r2 = segment_shortest_path(&net, start, goal, |s| {
            if s == banned {
                None
            } else {
                Some(net.segment(s).length)
            }
        })
        .unwrap();
        assert!(!r2.segments.contains(&banned));
        assert!(r2.cost >= r.cost - 1e-12);
    }

    #[test]
    fn banned_goal_fails() {
        let (net, nodes) = grid3();
        let start = net.segment_between(nodes[0], nodes[1]).unwrap();
        let goal = net.segment_between(nodes[7], nodes[8]).unwrap();
        let r = segment_shortest_path(&net, start, goal, |s| {
            if s == goal {
                None
            } else {
                Some(net.segment(s).length)
            }
        });
        assert!(r.is_none());
    }

    #[test]
    fn bounded_distance_respects_limit() {
        let (net, nodes) = grid3();
        assert_eq!(bounded_node_distance(&net, nodes[0], nodes[8], 10.0), Some(4.0));
        assert_eq!(bounded_node_distance(&net, nodes[0], nodes[8], 3.0), None);
        assert_eq!(bounded_node_distance(&net, nodes[5], nodes[5], 0.0), Some(0.0));
    }

    #[test]
    fn costs_can_reweight_routes() {
        let (net, nodes) = grid3();
        // Make horizontal moves on the bottom row expensive; the search
        // should route through the middle row instead.
        let expensive: Vec<_> =
            (0..2).map(|x| net.segment_between(nodes[x], nodes[x + 1]).unwrap()).collect();
        let r = node_shortest_path(&net, nodes[0], nodes[2], |s| {
            if expensive.contains(&s) {
                Some(100.0)
            } else {
                Some(net.segment(s).length)
            }
        })
        .unwrap();
        assert!((r.cost - 4.0).abs() < 1e-12, "detour over the middle row: {}", r.cost);
        assert_eq!(r.segments.len(), 4);
    }
}
