//! Per-shard session store: the live [`ScorerState`]s keyed by trip id,
//! with TTL sweeps and an **O(1) LRU** cap.
//!
//! Sessions live in a slab (`Vec` of slots with a free list) threaded by an
//! intrusive doubly-linked recency list: the head is the most recently
//! touched session, the tail the least. `insert`, `touch`, `remove`, and a
//! cap eviction are all O(1); a TTL sweep walks from the tail and stops at
//! the first fresh session, so it is O(evicted + 1). Because `last_touch`
//! only changes through [`SessionStore::touch`] (which moves the session to
//! the head), list order always equals recency order.
//!
//! A slot is 104 bytes: the scorer state (its bf16 hidden row on the
//! heap, `2·hidden` bytes; a segment count and the score accumulators
//! inline), the clocks and flags, and 32-bit links. Segments queued
//! inside a drain live on the shard's drain queue, not here, and the
//! policy rings are boxed on first use, so a default-configured session
//! owns no heap beyond its hidden row, however many segments it has
//! scored.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use causaltad::ScorerState;

use crate::event::TripId;

/// Sentinel for an absent 32-bit index (no slot, no work item, no queued
/// segment): the one `u32` a slot index never takes, since a store holds
/// at most [`MAX_SESSIONS`].
pub(crate) const NIL: u32 = u32::MAX;

/// The largest `max_sessions_per_shard` a store can address with its
/// 32-bit slot indices (every index stays below [`NIL`]).
pub(crate) const MAX_SESSIONS: usize = NIL as usize;

/// One live trip inside a shard.
pub struct Session {
    /// The owned scorer state; temporarily `mem::take`n out during a
    /// drain's waves and written back after.
    pub state: ScorerState,
    /// Last time an event touched this trip (TTL/LRU clock). Updated
    /// through [`SessionStore::touch`] so the recency list stays ordered.
    pub last_touch: Instant,
    /// The sanitization rings of an enabled `StreamPolicy`, boxed on
    /// first use; `None` for every session of the default all-off policy.
    pub(crate) policy: Option<Box<PolicyRings>>,
    /// Index of this trip's item on the drain's work list while the
    /// current drain has segments queued for it, [`NIL`] otherwise (and
    /// at every point outside a drain).
    pub(crate) work: u32,
    /// A `TripEnd` arrived; finalize once its queued segments are scored.
    /// Later segment events are rejected.
    pub ending: bool,
    /// Delta-snapshot dirty bit: set whenever the session is handed out
    /// mutably (insert, [`SessionStore::touch`], [`SessionStore::get_mut`])
    /// and cleared only by a delta capture. A conservative
    /// over-approximation — a session marked dirty but unchanged costs one
    /// redundant record in the next delta, never a lost update.
    pub dirty: bool,
}

/// Per-session state of the ingest sanitization policy.
#[derive(Default)]
pub(crate) struct PolicyRings {
    /// Dedup ring: the last `StreamPolicy::dedup_window` *admitted*
    /// segment ids, newest last.
    pub(crate) dedup: VecDeque<u32>,
    /// Reorder hold buffer: segments that did not chain onto the
    /// admission tail, in arrival order, at most
    /// `StreamPolicy::reorder_window` of them.
    pub(crate) held: VecDeque<u32>,
}

impl Session {
    pub fn new(state: ScorerState, now: Instant) -> Self {
        Session { state, last_touch: now, policy: None, work: NIL, ending: false, dirty: true }
    }

    /// The reorder hold buffer (empty while no policy ring exists).
    pub(crate) fn held(&self) -> impl Iterator<Item = u32> + '_ {
        self.policy.iter().flat_map(|rings| rings.held.iter().copied())
    }

    /// The policy rings, boxed on the first call.
    pub(crate) fn rings(&mut self) -> &mut PolicyRings {
        self.policy.get_or_insert_with(Box::default)
    }
}

struct Slot {
    id: TripId,
    session: Session,
    /// Towards the head (more recently touched).
    prev: u32,
    /// Towards the tail (less recently touched).
    next: u32,
}

// A slab element is at most 104 bytes, and its `Option` costs no tag
// (the slot has niches to spare).
const _: () = assert!(std::mem::size_of::<Slot>() <= 104);
const _: () = assert!(std::mem::size_of::<Option<Slot>>() == std::mem::size_of::<Slot>());

/// Trip-id keyed session map with bounded size and O(1) LRU maintenance.
pub struct SessionStore {
    map: HashMap<TripId, u32>,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Most recently touched slot index (NIL when empty).
    head: u32,
    /// Least recently touched slot index (NIL when empty).
    tail: u32,
    max_sessions: usize,
}

impl SessionStore {
    /// # Panics
    /// Panics unless `1 <= max_sessions <= MAX_SESSIONS` (the engine
    /// builder rejects any other cap with a typed error first).
    pub fn new(max_sessions: usize) -> Self {
        assert!(
            (1..=MAX_SESSIONS).contains(&max_sessions),
            "session cap {max_sessions} outside 1..={MAX_SESSIONS}"
        );
        SessionStore {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            max_sessions,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn contains(&self, id: TripId) -> bool {
        self.map.contains_key(&id)
    }

    /// Accesses a session without touching its recency (micro-batch state
    /// write-backs must not reorder the LRU list). Marks it dirty for the
    /// delta layer — every `get_mut` caller is about to mutate.
    pub fn get_mut(&mut self, id: TripId) -> Option<&mut Session> {
        let &slot = self.map.get(&id)?;
        let session = &mut self.slot_mut(slot).session;
        session.dirty = true;
        Some(session)
    }

    /// Marks a session as just-used: updates its TTL clock and moves it to
    /// the head of the recency list, then hands it out. O(1).
    pub fn touch(&mut self, id: TripId, now: Instant) -> Option<&mut Session> {
        let &slot = self.map.get(&id)?;
        self.unlink(slot);
        self.link_front(slot);
        let session = &mut self.slot_mut(slot).session;
        session.last_touch = now;
        session.dirty = true;
        Some(session)
    }

    pub fn remove(&mut self, id: TripId) -> Option<Session> {
        let slot = self.map.remove(&id)?;
        self.unlink(slot);
        self.free.push(slot);
        Some(self.slots[slot as usize].take().expect("mapped slot is live").session)
    }

    /// Inserts a new session as the most recently touched. When the store
    /// is at capacity, the least recently touched session is evicted and
    /// returned. O(1).
    ///
    /// # Panics
    /// Panics if `id` is already present (callers check `contains` first).
    pub fn insert(&mut self, id: TripId, session: Session) -> Option<(TripId, Session)> {
        assert!(!self.map.contains_key(&id), "duplicate session insert for trip {id}");
        let evicted = if self.map.len() >= self.max_sessions { self.pop_lru() } else { None };
        let filled = Some(Slot { id, session, prev: NIL, next: NIL });
        // At most `max_sessions <= MAX_SESSIONS` slots are ever live, so a
        // new slot's index stays below NIL.
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = filled;
                slot
            }
            None => {
                self.slots.push(filled);
                (self.slots.len() - 1) as u32
            }
        };
        self.map.insert(id, slot);
        self.link_front(slot);
        evicted
    }

    /// Removes and returns every session idle for longer than `ttl`,
    /// oldest first. Walks from the tail of the recency list and stops at
    /// the first fresh session — O(evicted + 1), not O(sessions).
    pub fn sweep_ttl(&mut self, ttl: Duration, now: Instant) -> Vec<(TripId, Session)> {
        let mut swept = Vec::new();
        while self.tail != NIL {
            let slot = self.slot(self.tail);
            if now.saturating_duration_since(slot.session.last_touch) <= ttl {
                break;
            }
            let id = slot.id;
            let session = self.remove(id).expect("tail id is mapped");
            swept.push((id, session));
        }
        swept
    }

    /// Visits every live session from least to most recently touched (the
    /// order a fleet snapshot records, so a restore that re-inserts in
    /// iteration order reproduces the recency list).
    pub fn iter_lru(&self) -> impl Iterator<Item = (TripId, &Session)> {
        let mut cursor = self.tail;
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let slot = self.slot(cursor);
            cursor = slot.prev;
            Some((slot.id, &slot.session))
        })
    }

    /// Visits every live session mutably, least to most recently touched,
    /// without going through [`SessionStore::get_mut`] — the delta-capture
    /// walk, which must clear dirty bits rather than set them.
    pub fn for_each_lru_mut(&mut self, mut f: impl FnMut(TripId, &mut Session)) {
        let mut cursor = self.tail;
        while cursor != NIL {
            let slot = self.slot_mut(cursor);
            cursor = slot.prev;
            f(slot.id, &mut slot.session);
        }
    }

    /// Removes and returns the least recently touched session — the
    /// shutdown flush and the handoff drain empty the store through this,
    /// one session at a time, so teardown never holds a second copy of
    /// the fleet.
    pub fn pop_lru(&mut self) -> Option<(TripId, Session)> {
        if self.tail == NIL {
            return None;
        }
        let id = self.slot(self.tail).id;
        Some((id, self.remove(id).expect("tail id is mapped")))
    }

    fn slot(&self, slot: u32) -> &Slot {
        self.slots[slot as usize].as_ref().expect("linked slot is live")
    }

    fn slot_mut(&mut self, slot: u32) -> &mut Slot {
        self.slots[slot as usize].as_mut().expect("linked slot is live")
    }

    /// Detaches `slot` from the recency list (no-op bookkeeping if it is
    /// not linked).
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = *self.slot(slot);
        match prev {
            NIL => {
                if self.head == slot {
                    self.head = next;
                }
            }
            p => self.slot_mut(p).next = next,
        }
        match next {
            NIL => {
                if self.tail == slot {
                    self.tail = prev;
                }
            }
            n => self.slot_mut(n).prev = prev,
        }
        let s = self.slot_mut(slot);
        s.prev = NIL;
        s.next = NIL;
    }

    /// Links `slot` in as the new head (most recently touched).
    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        let s = self.slot_mut(slot);
        s.prev = NIL;
        s.next = old_head;
        if old_head != NIL {
            self.slot_mut(old_head).prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(now: Instant) -> Session {
        Session::new(ScorerState::default(), now)
    }

    /// The store's recency list, least recent first (test oracle).
    fn lru_order(store: &SessionStore) -> Vec<TripId> {
        store.iter_lru().map(|(id, _)| id).collect()
    }

    #[test]
    fn lru_cap_evicts_least_recently_touched() {
        let t0 = Instant::now();
        let mut store = SessionStore::new(2);
        store.insert(1, session(t0));
        store.insert(2, session(t0 + Duration::from_secs(1)));
        // Touch trip 1 so trip 2 becomes the LRU victim.
        store.touch(1, t0 + Duration::from_secs(5)).unwrap();
        let evicted = store.insert(3, session(t0 + Duration::from_secs(6)));
        assert_eq!(evicted.map(|(id, _)| id), Some(2));
        assert_eq!(store.len(), 2);
        assert!(store.contains(1) && store.contains(3));
    }

    #[test]
    fn touch_reorders_and_evict_pops_true_oldest() {
        let t0 = Instant::now();
        let mut store = SessionStore::new(4);
        for id in 1..=4 {
            store.insert(id, session(t0 + Duration::from_secs(id)));
        }
        assert_eq!(lru_order(&store), vec![1, 2, 3, 4]);
        // Touching the current tail and a middle element reorders them.
        store.touch(1, t0 + Duration::from_secs(10)).unwrap();
        store.touch(3, t0 + Duration::from_secs(11)).unwrap();
        assert_eq!(lru_order(&store), vec![2, 4, 1, 3]);
        // At cap, successive inserts evict in exactly that recency order.
        let mut victims = Vec::new();
        for id in 5..=7 {
            let (victim, _) = store.insert(id, session(t0 + Duration::from_secs(20 + id))).unwrap();
            victims.push(victim);
        }
        assert_eq!(victims, vec![2, 4, 1]);
        assert_eq!(lru_order(&store), vec![3, 5, 6, 7]);
    }

    #[test]
    fn churn_at_cap_reuses_the_victims_slot() {
        // Rounds of `cap` evicting inserts, each after a touch of a live
        // trip: every insert takes the slot its victim just freed, so the
        // slab never grows past `cap` nor keeps a free slot, and the
        // victims leave in exact recency order (the oracle is a plain
        // least-recent-first list).
        let now = Instant::now();
        let cap = 16;
        let mut store = SessionStore::new(cap);
        let mut oracle: Vec<TripId> = (0..cap as TripId).collect();
        for &id in &oracle {
            store.insert(id, session(now));
        }
        let (mut next_id, mut cursor) = (cap as TripId, 0u64);
        for _round in 0..4 {
            for _ in 0..cap {
                cursor = cursor.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let touched = oracle[(cursor >> 33) as usize % cap];
                store.touch(touched, now).expect("live trip");
                oracle.retain(|&id| id != touched);
                oracle.push(touched);
                let (victim, _) = store.insert(next_id, session(now)).expect("store is at cap");
                assert_eq!(victim, oracle.remove(0));
                oracle.push(next_id);
                next_id += 1;
                assert_eq!((store.slots.len(), store.free.len()), (cap, 0));
            }
            assert_eq!(lru_order(&store), oracle);
        }
    }

    #[test]
    fn get_mut_does_not_reorder() {
        let t0 = Instant::now();
        let mut store = SessionStore::new(4);
        store.insert(1, session(t0));
        store.insert(2, session(t0 + Duration::from_secs(1)));
        store.get_mut(1).unwrap().ending = true;
        assert_eq!(lru_order(&store), vec![1, 2]);
        assert!(store.get_mut(99).is_none());
    }

    #[test]
    fn remove_relinks_neighbours_and_frees_slots() {
        let t0 = Instant::now();
        let mut store = SessionStore::new(8);
        for id in 1..=5 {
            store.insert(id, session(t0 + Duration::from_secs(id)));
        }
        assert!(store.remove(3).is_some()); // middle
        assert!(store.remove(1).is_some()); // tail
        assert!(store.remove(5).is_some()); // head
        assert!(store.remove(3).is_none()); // already gone
        assert_eq!(lru_order(&store), vec![2, 4]);
        // Freed slots are reused; recency is insertion order again.
        store.insert(6, session(t0 + Duration::from_secs(30)));
        store.insert(7, session(t0 + Duration::from_secs(31)));
        assert_eq!(lru_order(&store), vec![2, 4, 6, 7]);
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn ttl_sweep_removes_only_stale_sessions() {
        let t0 = Instant::now();
        let mut store = SessionStore::new(8);
        store.insert(1, session(t0));
        store.insert(2, session(t0 + Duration::from_secs(50)));
        let swept = store.sweep_ttl(Duration::from_secs(30), t0 + Duration::from_secs(60));
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].0, 1);
        assert!(store.contains(2));
    }

    #[test]
    fn ttl_sweep_interops_with_touch() {
        let t0 = Instant::now();
        let mut store = SessionStore::new(8);
        for id in 1..=3 {
            store.insert(id, session(t0));
        }
        // A touch rescues trip 2 from the sweep below.
        store.touch(2, t0 + Duration::from_secs(55)).unwrap();
        let swept = store.sweep_ttl(Duration::from_secs(30), t0 + Duration::from_secs(60));
        let swept_ids: Vec<TripId> = swept.iter().map(|&(id, _)| id).collect();
        assert_eq!(swept_ids, vec![1, 3]);
        assert_eq!(lru_order(&store), vec![2]);
        // Nothing further to sweep.
        assert!(store.sweep_ttl(Duration::from_secs(30), t0 + Duration::from_secs(61)).is_empty());
    }

    #[test]
    fn dirty_bits_track_mutable_access_and_clear_without_remarking() {
        let t0 = Instant::now();
        let mut store = SessionStore::new(4);
        store.insert(1, session(t0));
        store.insert(2, session(t0));
        // Fresh sessions are dirty; a delta-capture walk clears them.
        store.for_each_lru_mut(|_, s| s.dirty = false);
        assert!(store.iter_lru().all(|(_, s)| !s.dirty));
        // touch and get_mut both re-mark; iter_lru does not.
        store.touch(1, t0 + Duration::from_secs(1)).unwrap();
        assert!(store.iter_lru().any(|(id, s)| id == 1 && s.dirty));
        assert!(store.iter_lru().any(|(id, s)| id == 2 && !s.dirty));
        store.for_each_lru_mut(|_, s| s.dirty = false);
        store.get_mut(2).unwrap();
        assert!(store.iter_lru().any(|(id, s)| id == 2 && s.dirty));
        assert!(store.iter_lru().any(|(id, s)| id == 1 && !s.dirty));
    }

    #[test]
    fn drain_empties_the_store_oldest_first() {
        let now = Instant::now();
        let mut store = SessionStore::new(4);
        store.insert(1, session(now));
        store.insert(2, session(now));
        let drained: Vec<TripId> =
            std::iter::from_fn(|| store.pop_lru()).map(|(id, _)| id).collect();
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(store.len(), 0);
        assert_eq!(lru_order(&store), Vec::<TripId>::new());
    }
}
