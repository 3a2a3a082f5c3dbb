//! The benchmark's input: the labelled trip pool of a generated city, a
//! `--seed`-permuted replay order, and the slot scheduler that turns them
//! into one interleaved fleet event stream with steady concurrency.
//!
//! Every trip id carries what its receiver needs to check and time the
//! trip's scores without shared state:
//!
//! ```text
//! id = start_turn << 27 | pool_index << 16 | slot
//! ```
//!
//! `slot` is the trip's place in the live fleet (one trip per slot at a
//! time), `pool_index` names the labelled trajectory being replayed, and
//! `start_turn` is the turn (pacing tick or closed-loop round) at which
//! the trip's first segment is sent; segment `seq` goes out at turn
//! `start_turn + stride * seq`.

use std::sync::Arc;

use tad_serve::Event;
use tad_trajsim::{City, Trajectory};

/// Which labelled split a pool trip came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// In-distribution normal (`test_id`).
    Id,
    /// Out-of-distribution normal (`test_ood`).
    Ood,
    /// Detour anomaly.
    Detour,
    /// Switch anomaly.
    Switch,
}

/// One labelled trajectory of the pool.
#[derive(Clone, Debug)]
pub struct PoolTrip {
    /// The segment walk.
    pub segs: Vec<u32>,
    /// Departure time slot.
    pub time_slot: u8,
    /// The split it came from.
    pub class: Class,
}

/// The labelled pool: `test_id`, `test_ood`, `detour`, `switch` in that
/// order.
#[derive(Clone, Debug)]
pub struct Pool {
    /// The trips, in canonical (seed-independent) order.
    pub trips: Vec<PoolTrip>,
}

const SLOT_BITS: u32 = 16;
const POOL_BITS: u32 = 11;

/// First turn number any schedule uses, so prefilled trips (whose
/// notional start lies before the first real turn) keep a non-negative
/// `start_turn`.
pub const BASE_TURN: u64 = 1 << 16;

/// Packs a trip id (see the module docs).
pub fn trip_id(start_turn: u64, pool_index: usize, slot: usize) -> u64 {
    debug_assert!(slot < 1 << SLOT_BITS && pool_index < 1 << POOL_BITS);
    start_turn << (SLOT_BITS + POOL_BITS) | (pool_index as u64) << SLOT_BITS | slot as u64
}

/// The fleet slot an id belongs to.
pub fn id_slot(id: u64) -> usize {
    (id & ((1 << SLOT_BITS) - 1)) as usize
}

/// The pool trip an id replays.
pub fn id_pool(id: u64) -> usize {
    ((id >> SLOT_BITS) & ((1 << POOL_BITS) - 1)) as usize
}

/// The turn at which the id's first segment is sent.
pub fn id_start_turn(id: u64) -> u64 {
    id >> (SLOT_BITS + POOL_BITS)
}

impl Pool {
    /// Builds the pool from a city's four test splits.
    pub fn from_city(city: &City) -> Pool {
        let d = &city.data;
        let splits: [(&[Trajectory], Class); 4] = [
            (&d.test_id, Class::Id),
            (&d.test_ood, Class::Ood),
            (&d.detour, Class::Detour),
            (&d.switch, Class::Switch),
        ];
        let trips: Vec<PoolTrip> = splits
            .iter()
            .flat_map(|&(ts, class)| {
                ts.iter().map(move |t| PoolTrip {
                    segs: t.segments.iter().map(|s| s.0).collect(),
                    time_slot: t.time_slot,
                    class,
                })
            })
            .collect();
        assert!(trips.len() < 1 << POOL_BITS, "pool of {} trips overflows the id", trips.len());
        assert!(trips.iter().all(|t| !t.segs.is_empty()), "empty pool trip");
        Pool { trips }
    }

    /// Total segments over all pool trips.
    pub fn segments(&self) -> usize {
        self.trips.iter().map(|t| t.segs.len()).sum()
    }

    /// A `seed`-determined permutation of the pool indexes (Fisher-Yates
    /// over SplitMix64): the order in which fresh trips are drawn.
    pub fn order(&self, seed: u64) -> Vec<u16> {
        let mut order: Vec<u16> = (0..self.trips.len() as u16).collect();
        let mut rng = SplitMix64(seed ^ 0x7ad_be9c);
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// SplitMix64: the whole benchmark's only source of randomness.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a 64 over the generated event stream, so two runs can show they
/// replayed the same inputs. Each event is hashed as tag, id, payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds another stream's hash in (order matters).
    pub fn fold(&mut self, other: StreamHash) {
        self.bytes(&other.0.to_le_bytes());
    }

    /// Folds one event in.
    pub fn event(&mut self, ev: &Event) {
        match *ev {
            Event::TripStart { id, source, dest, time_slot } => {
                self.bytes(&[1, time_slot]);
                self.bytes(&id.to_le_bytes());
                self.bytes(&source.to_le_bytes());
                self.bytes(&dest.to_le_bytes());
            }
            Event::Segment { id, seg } => {
                self.bytes(&[2]);
                self.bytes(&id.to_le_bytes());
                self.bytes(&seg.to_le_bytes());
            }
            Event::TripEnd { id } => {
                self.bytes(&[3]);
                self.bytes(&id.to_le_bytes());
            }
        }
    }
}

/// Turns hashed into [`Slots::hash`] after the prefill: enough to tell
/// two replay orders apart, few enough that the generator's cost stays
/// flat over a long run and the hash does not depend on how many turns a
/// timed phase happened to fit.
const HASHED_TURNS: u64 = 64;

/// Slots a prefill brings up at a time. A prefill wave makes every trip
/// of the group take the same step at once, so their sessions' vectors
/// all double together; with the whole fleet in one group that herd set
/// the run's peak RSS, 5 to 12 MB apart from seed to seed.
const PREFILL_GROUP: usize = 2_048;

/// The live fleet of one producer: `n` slots, each replaying one pool
/// trip at a time and drawing the next trip from the permuted order the
/// moment the current one ends.
pub struct Slots {
    pool: Arc<Pool>,
    order: Arc<Vec<u16>>,
    cursor: usize,
    base: usize,
    stride: u64,
    trip: Vec<u16>,
    seq: Vec<u16>,
    id: Vec<u64>,
    /// Hash of the prefill and the first [`HASHED_TURNS`] turns.
    pub hash: StreamHash,
    hash_until: u64,
    /// Segment events emitted so far (the operations attempted).
    pub segments_sent: u64,
}

impl Slots {
    /// `n` slots numbered from `base`, drawing trips from `order` starting
    /// at `cursor`; consecutive segments of a trip are `stride` turns
    /// apart.
    pub fn new(
        pool: Arc<Pool>,
        order: Arc<Vec<u16>>,
        base: usize,
        n: usize,
        cursor: usize,
        stride: u64,
    ) -> Slots {
        assert!(base + n <= 1 << SLOT_BITS, "slot range overflows the id");
        Slots {
            pool,
            order,
            cursor,
            base,
            stride,
            trip: vec![0; n],
            seq: vec![0; n],
            id: vec![0; n],
            hash: StreamHash::default(),
            hash_until: 0,
            segments_sent: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.trip.len()
    }

    fn emit(&mut self, turn: u64, ev: Event, out: &mut Vec<Event>) {
        if turn < self.hash_until {
            self.hash.event(&ev);
        }
        out.push(ev);
    }

    /// Opens the next pool trip in local slot `s`, its first segment due
    /// at `start_turn`.
    fn open(&mut self, s: usize, start_turn: u64, turn: u64, out: &mut Vec<Event>) {
        let pool_index = self.order[self.cursor % self.order.len()] as usize;
        self.cursor += 1;
        let trip = &self.pool.trips[pool_index];
        let id = trip_id(start_turn, pool_index, self.base + s);
        let (source, dest) = (trip.segs[0], *trip.segs.last().expect("non-empty trip"));
        let time_slot = trip.time_slot;
        self.trip[s] = pool_index as u16;
        self.seq[s] = 0;
        self.id[s] = id;
        self.emit(turn, Event::TripStart { id, source, dest, time_slot }, out);
    }

    /// Local slot `s` takes its turn: its trip's next segment, and — when
    /// that was the last — the trip's `TripEnd` plus the `TripStart` of
    /// its replacement (first segment at `turn + stride`), so the number
    /// of open trips never changes.
    pub fn step(&mut self, s: usize, turn: u64, out: &mut Vec<Event>) {
        let trip = &self.pool.trips[self.trip[s] as usize];
        let id = self.id[s];
        let seg = trip.segs[self.seq[s] as usize];
        let last = self.seq[s] as usize + 1 == trip.segs.len();
        self.seq[s] += 1;
        self.segments_sent += 1;
        self.emit(turn, Event::Segment { id, seg }, out);
        if last {
            self.emit(turn, Event::TripEnd { id }, out);
            self.open(s, turn + self.stride, turn, out);
        }
    }

    /// Opens a trip in every slot and advances each by a `seed`-drawn
    /// share of its length, so the fleet starts in its steady state (trip
    /// phases spread evenly) instead of with every trip at segment 0.
    /// `first_turn(s)` is the turn at which local slot `s` will next be
    /// stepped. Slots are brought up [`PREFILL_GROUP`] at a time; events
    /// go to `sink` in waves (the group's starts, then segment 0 of every
    /// trip of the group that needs it, ...), each wave one call.
    pub fn prefill(
        &mut self,
        seed: u64,
        first_turn: impl Fn(usize) -> u64,
        mut sink: impl FnMut(&[Event]),
    ) {
        let mut rng = SplitMix64(seed ^ (self.base as u64) << 32 ^ 0x9f11);
        let mut out = Vec::new();
        self.hash_until = u64::MAX;
        for group in (0..self.len()).step_by(PREFILL_GROUP) {
            let slots = group..(group + PREFILL_GROUP).min(self.len());
            out.clear();
            let mut progress = Vec::with_capacity(slots.len());
            for s in slots.clone() {
                // The start turn depends on the drawn progress, which
                // depends on the trip's length: peek, draw, then open.
                let pool_index = self.order[self.cursor % self.order.len()] as usize;
                let len = self.pool.trips[pool_index].segs.len();
                let drawn = (rng.next() % len as u64) as usize;
                self.open(s, first_turn(s) - self.stride * drawn as u64, 0, &mut out);
                progress.push(drawn);
            }
            sink(&out);
            let deepest = progress.iter().copied().max().unwrap_or(0);
            for wave in 0..deepest {
                out.clear();
                for s in slots.clone().filter(|&s| progress[s - group] > wave) {
                    self.step(s, 0, &mut out);
                }
                sink(&out);
            }
        }
        self.hash_until = BASE_TURN + HASHED_TURNS;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small synthetic pool: trip `i` has `3 + i % 4` segments.
    pub(crate) fn toy_pool(n: usize) -> Arc<Pool> {
        let trips = (0..n)
            .map(|i| PoolTrip {
                segs: (0..3 + i % 4).map(|k| (i * 10 + k) as u32).collect(),
                time_slot: (i % 4) as u8,
                class: [Class::Id, Class::Ood, Class::Detour, Class::Switch][i % 4],
            })
            .collect();
        Arc::new(Pool { trips })
    }

    fn run(seed: u64, turns: u64) -> (StreamHash, Vec<Event>, Slots) {
        let pool = toy_pool(23);
        let order = Arc::new(pool.order(seed));
        let mut slots = Slots::new(pool, order, 0, 8, 0, 1);
        let mut all = Vec::new();
        slots.prefill(seed, |_| BASE_TURN, |evs| all.extend_from_slice(evs));
        for turn in BASE_TURN..BASE_TURN + turns {
            let mut out = Vec::new();
            for s in 0..slots.len() {
                slots.step(s, turn, &mut out);
            }
            all.extend(out);
        }
        (slots.hash, all, slots)
    }

    #[test]
    fn ids_round_trip() {
        let id = trip_id(BASE_TURN + 77, 1249, 32_767);
        assert_eq!((id_start_turn(id), id_pool(id), id_slot(id)), (BASE_TURN + 77, 1249, 32_767));
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_order() {
        let (h1, evs1, _) = run(5, 40);
        let (h2, evs2, _) = run(5, 40);
        let (h3, evs3, _) = run(6, 40);
        assert_eq!(h1, h2);
        assert_eq!(evs1, evs2);
        assert_ne!(h1, h3);
        assert_ne!(evs1, evs3);
        // The hash covers a fixed prefix, so it does not depend on how
        // long the run went on.
        assert_eq!(run(5, 200).0, run(5, 100).0);
    }

    #[test]
    fn order_is_a_permutation() {
        let pool = toy_pool(23);
        let mut order = pool.order(9);
        assert_ne!(order, pool.order(10));
        order.sort_unstable();
        assert_eq!(order, (0..23).collect::<Vec<u16>>());
    }

    #[test]
    fn concurrency_holds_and_segments_follow_the_id_schedule() {
        let (_, evs, slots) = run(3, 50);
        let pool = toy_pool(23);
        let mut open = std::collections::BTreeMap::new();
        let mut segments = 0u64;
        for ev in &evs {
            match *ev {
                Event::TripStart { id, source, dest, .. } => {
                    let trip = &pool.trips[id_pool(id)];
                    assert_eq!((source, dest), (trip.segs[0], *trip.segs.last().unwrap()));
                    assert!(open.insert(id, 0usize).is_none(), "trip id reused");
                }
                Event::Segment { id, seg } => {
                    let seq = open.get_mut(&id).expect("segment of an open trip");
                    assert_eq!(seg, pool.trips[id_pool(id)].segs[*seq]);
                    *seq += 1;
                    segments += 1;
                }
                Event::TripEnd { id } => {
                    assert_eq!(open.remove(&id), Some(pool.trips[id_pool(id)].segs.len()));
                }
            }
        }
        assert_eq!(open.len(), 8, "one open trip per slot at every turn boundary");
        assert_eq!(segments, slots.segments_sent);
    }
}
