//! The road network: a directed graph of road segments.
//!
//! Trajectories in the paper are map-matched sequences of *road segments*
//! (Definition 2), and CausalTAD's decoder predicts the next segment among
//! the *successors* of the current one (road-constrained prediction). The
//! segment-successor relation is therefore a first-class citizen here, and
//! all ids are dense `u32` newtypes so every lookup is a `Vec` index.

use crate::geometry::Point;

/// Dense handle to an intersection node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into node-keyed vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense handle to a directed road segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u32);

impl SegmentId {
    /// Index into segment-keyed vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Functional class of a road, mirroring the "road level" factor the paper
/// lists as part of the hidden preference confounder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Trunk roads ("the main road" of the paper's Fig. 1 example).
    Major,
    /// Mid-tier connector roads.
    Arterial,
    /// Narrow local streets.
    Local,
}

impl RoadClass {
    /// Stable small integer encoding (used by the codec and as a feature).
    pub fn as_u8(self) -> u8 {
        match self {
            RoadClass::Major => 0,
            RoadClass::Arterial => 1,
            RoadClass::Local => 2,
        }
    }

    /// Inverse of [`RoadClass::as_u8`].
    pub fn from_u8(v: u8) -> Option<RoadClass> {
        match v {
            0 => Some(RoadClass::Major),
            1 => Some(RoadClass::Arterial),
            2 => Some(RoadClass::Local),
            _ => None,
        }
    }
}

/// An intersection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Node {
    /// Position in the local planar frame (metres).
    pub pos: Point,
}

/// A directed road segment between two intersections.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Start intersection.
    pub from: NodeId,
    /// End intersection.
    pub to: NodeId,
    /// Length in metres.
    pub length: f64,
    /// Functional class.
    pub class: RoadClass,
}

/// A directed road network over dense node/segment ids.
#[derive(Clone, Debug, Default)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    segments: Vec<Segment>,
    /// Outgoing segments per node.
    out_segments: Vec<Vec<SegmentId>>,
    /// Incoming segments per node.
    in_segments: Vec<Vec<SegmentId>>,
}

impl RoadNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an intersection, returning its id.
    pub fn add_node(&mut self, pos: Point) -> NodeId {
        self.nodes.push(Node { pos });
        self.out_segments.push(Vec::new());
        self.in_segments.push(Vec::new());
        NodeId((self.nodes.len() - 1) as u32)
    }

    /// Adds a directed segment, returning its id.
    ///
    /// # Panics
    /// Panics if either endpoint is unknown or the segment is a self-loop.
    pub fn add_segment(
        &mut self,
        from: NodeId,
        to: NodeId,
        length: f64,
        class: RoadClass,
    ) -> SegmentId {
        assert!(from.index() < self.nodes.len(), "unknown from node");
        assert!(to.index() < self.nodes.len(), "unknown to node");
        assert_ne!(from, to, "self-loop segments are not allowed");
        assert!(length > 0.0, "segment length must be positive");
        let id = SegmentId(self.segments.len() as u32);
        self.segments.push(Segment { from, to, length, class });
        self.out_segments[from.index()].push(id);
        self.in_segments[to.index()].push(id);
        id
    }

    /// Number of intersections.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed segments (this is the model vocabulary size).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Segment accessor.
    #[inline]
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// All segments leaving `node`.
    #[inline]
    pub fn out_segments(&self, node: NodeId) -> &[SegmentId] {
        &self.out_segments[node.index()]
    }

    /// All segments entering `node`.
    #[inline]
    pub fn in_segments(&self, node: NodeId) -> &[SegmentId] {
        &self.in_segments[node.index()]
    }

    /// The segments that can follow `seg` in a trajectory: every segment
    /// leaving `seg`'s end node, except the exact reverse of `seg`
    /// (U-turns are excluded, as is standard for map-matched taxi data).
    pub fn successors(&self, seg: SegmentId) -> impl Iterator<Item = SegmentId> + '_ {
        let s = self.segment(seg);
        let (from, to) = (s.from, s.to);
        self.out_segments[to.index()].iter().copied().filter(move |&n| {
            self.segment(n).to != from || self.out_segments[to.index()].len() == 1
        })
    }

    /// Successors of `seg` collected into a vector of raw `u32` ids, the
    /// form consumed by the models' road-constrained projections.
    pub fn successor_ids(&self, seg: SegmentId) -> Vec<u32> {
        self.successors(seg).map(|s| s.0).collect()
    }

    /// Finds the directed segment from `a` to `b`, if present.
    pub fn segment_between(&self, a: NodeId, b: NodeId) -> Option<SegmentId> {
        self.out_segments[a.index()].iter().copied().find(|&s| self.segment(s).to == b)
    }

    /// True when `path` is a connected walk: each consecutive pair of
    /// segments shares an intersection head-to-tail.
    pub fn is_connected_path(&self, path: &[SegmentId]) -> bool {
        path.windows(2).all(|w| self.segment(w[0]).to == self.segment(w[1]).from)
    }

    /// Total length of a path in metres.
    pub fn path_length(&self, path: &[SegmentId]) -> f64 {
        path.iter().map(|&s| self.segment(s).length).sum()
    }

    /// Midpoint of a segment in the plane (used by the spatial index and
    /// for visualisation).
    pub fn segment_midpoint(&self, seg: SegmentId) -> Point {
        let s = self.segment(seg);
        self.node(s.from).pos.lerp(&self.node(s.to).pos, 0.5)
    }

    /// Iterates over all segment ids.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> {
        (0..self.segments.len() as u32).map(SegmentId)
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// True when every node can reach every other node following directed
    /// segments (checked by forward and backward BFS from node 0).
    pub fn is_strongly_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let forward = self.bfs_reach(NodeId(0), false);
        let backward = self.bfs_reach(NodeId(0), true);
        forward.iter().all(|&r| r) && backward.iter().all(|&r| r)
    }

    fn bfs_reach(&self, start: NodeId, reversed: bool) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            let edges =
                if reversed { &self.in_segments[n.index()] } else { &self.out_segments[n.index()] };
            for &s in edges {
                let next = if reversed { self.segment(s).from } else { self.segment(s).to };
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    queue.push_back(next);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a 2x2 ring: 0 -> 1 -> 3 -> 2 -> 0 plus reverse edges.
    fn ring() -> (RoadNetwork, Vec<NodeId>) {
        let mut net = RoadNetwork::new();
        let n: Vec<_> = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
            .iter()
            .map(|&(x, y)| net.add_node(Point::new(x, y)))
            .collect();
        for &(a, b) in &[(0, 1), (1, 3), (3, 2), (2, 0)] {
            net.add_segment(n[a], n[b], 1.0, RoadClass::Local);
            net.add_segment(n[b], n[a], 1.0, RoadClass::Local);
        }
        (net, n)
    }

    #[test]
    fn add_and_lookup() {
        let (net, n) = ring();
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.num_segments(), 8);
        let s = net.segment_between(n[0], n[1]).unwrap();
        assert_eq!(net.segment(s).from, n[0]);
        assert_eq!(net.segment(s).to, n[1]);
    }

    #[test]
    fn successors_exclude_u_turn() {
        let (net, n) = ring();
        let s01 = net.segment_between(n[0], n[1]).unwrap();
        let succ: Vec<_> = net.successors(s01).collect();
        // From node 1 we can go to 3 or back to 0; the U-turn (1 -> 0) is
        // excluded because node 1 has another outgoing option.
        assert_eq!(succ.len(), 1);
        assert_eq!(net.segment(succ[0]).to, n[3]);
    }

    #[test]
    fn u_turn_allowed_at_dead_end() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(1.0, 0.0));
        let ab = net.add_segment(a, b, 1.0, RoadClass::Local);
        let ba = net.add_segment(b, a, 1.0, RoadClass::Local);
        // b is a dead end: the only way onward is the U-turn.
        let succ: Vec<_> = net.successors(ab).collect();
        assert_eq!(succ, vec![ba]);
    }

    #[test]
    fn connected_path_check() {
        let (net, n) = ring();
        let s01 = net.segment_between(n[0], n[1]).unwrap();
        let s13 = net.segment_between(n[1], n[3]).unwrap();
        let s32 = net.segment_between(n[3], n[2]).unwrap();
        assert!(net.is_connected_path(&[s01, s13, s32]));
        assert!(!net.is_connected_path(&[s01, s32]));
        assert_eq!(net.path_length(&[s01, s13, s32]), 3.0);
    }

    #[test]
    fn strong_connectivity() {
        let (net, _) = ring();
        assert!(net.is_strongly_connected());

        let mut one_way = RoadNetwork::new();
        let a = one_way.add_node(Point::new(0.0, 0.0));
        let b = one_way.add_node(Point::new(1.0, 0.0));
        one_way.add_segment(a, b, 1.0, RoadClass::Local);
        assert!(!one_way.is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        net.add_segment(a, a, 1.0, RoadClass::Local);
    }

    #[test]
    fn road_class_codec_roundtrip() {
        for class in [RoadClass::Major, RoadClass::Arterial, RoadClass::Local] {
            assert_eq!(RoadClass::from_u8(class.as_u8()), Some(class));
        }
        assert_eq!(RoadClass::from_u8(9), None);
    }
}
