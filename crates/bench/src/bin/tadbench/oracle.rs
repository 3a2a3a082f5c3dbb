//! The correctness oracle and the measurement sink every workload shares.
//!
//! Set-up scores each pool trip once with a sequential
//! [`causaltad::OnlineScorer`]; every score a workload gets back — over
//! the wire or from an engine callback — must match that reference **bit
//! for bit**, arrive exactly once, and arrive in per-trip order. The AUCs
//! a run reports are computed from the final scores it was actually
//! served, never from the reference.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use causaltad::CausalTad;
use tad_eval::metrics::{pr_auc, roc_auc};
use tad_serve::{Completion, ScoreUpdate};

use crate::stats;
use crate::stream::{id_pool, id_slot, id_start_turn, Class, Pool, BASE_TURN};

/// Nanoseconds since the process-wide epoch (first call). All harness
/// timestamps share this clock so threads can compare them as integers.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The sequential reference: per pool trip, the debiased score after each
/// segment and the final likelihood-only (TG-VAE) score.
pub struct Reference {
    /// `scores[trip][seq]`.
    pub scores: Vec<Vec<f64>>,
    /// Final `likelihood_nll` per trip (the `score_tg_only` ablation).
    pub tg_final: Vec<f64>,
}

impl Reference {
    /// Scores every pool trip with one `OnlineScorer` each, in order.
    pub fn compute(model: &CausalTad, pool: &Pool) -> Reference {
        let mut scores = Vec::with_capacity(pool.trips.len());
        let mut tg_final = Vec::with_capacity(pool.trips.len());
        for trip in &pool.trips {
            let mut scorer =
                model.online(trip.segs[0], *trip.segs.last().expect("non-empty"), trip.time_slot);
            scores.push(trip.segs.iter().map(|&s| scorer.push(s)).collect());
            tg_final.push(scorer.likelihood_nll());
        }
        Reference { scores, tg_final }
    }
}

/// Per-slot delivery state of one trip.
#[derive(Clone, Copy, Default)]
struct TripCheck {
    id: u64,
    next_seq: u32,
    done: bool,
}

/// Failed deliveries by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Faults {
    /// A score that was not its trip's next: duplicate, gap, reordering,
    /// a score after the completion, or an id outside the fleet.
    pub sequence: u64,
    /// A score in sequence whose bits differ from the reference.
    pub bits: u64,
    /// A completion that was duplicated, not `Ended`, early, or whose
    /// final scores differ from the reference.
    pub completion: u64,
    /// A trip displaced from its slot's memory before it completed.
    pub forgotten: u64,
    /// A typed error frame, or a bounced, shed or refused submission.
    pub error: u64,
}

impl Faults {
    /// All failed deliveries.
    pub fn total(&self) -> u64 {
        self.sequence + self.bits + self.completion + self.forgotten + self.error
    }
}

/// Checks every delivered score and completion of the slots
/// `base..base + n` against the reference. A slot remembers its current
/// and its previous trip, because a finished trip's last frames and its
/// replacement's first may come from different backends in either order.
#[derive(Clone)]
pub struct Verifier {
    pool: Arc<Pool>,
    reference: Arc<Reference>,
    base: usize,
    cur: Vec<TripCheck>,
    prev: Vec<TripCheck>,
    /// Scores that matched the reference bit for bit, in order.
    pub ok: u64,
    /// Deliveries that failed a check.
    pub faults: Faults,
    /// Trips whose completion matched.
    pub completes: u64,
    /// Final debiased score served per pool trip (`NaN` = never served).
    pub served: Vec<f64>,
    /// Final likelihood-only score served per pool trip.
    pub served_tg: Vec<f64>,
}

impl Verifier {
    /// A verifier for slots `base..base + n`.
    pub fn new(pool: Arc<Pool>, reference: Arc<Reference>, base: usize, n: usize) -> Verifier {
        let trips = pool.trips.len();
        Verifier {
            pool,
            reference,
            base,
            cur: vec![TripCheck::default(); n],
            prev: vec![TripCheck::default(); n],
            ok: 0,
            faults: Faults::default(),
            completes: 0,
            served: vec![f64::NAN; trips],
            served_tg: vec![f64::NAN; trips],
        }
    }

    /// The slot's record for `id`, rotating a new trip in when `id` is
    /// neither the current nor the previous one. `None` for ids outside
    /// this verifier's slots or pool.
    fn check_of(&mut self, id: u64) -> Option<&mut TripCheck> {
        let s = id_slot(id).checked_sub(self.base).filter(|&s| s < self.cur.len())?;
        if id_pool(id) >= self.pool.trips.len() || id == 0 {
            return None;
        }
        if self.cur[s].id == id {
            return Some(&mut self.cur[s]);
        }
        if self.prev[s].id == id {
            return Some(&mut self.prev[s]);
        }
        // A third trip in the slot: the one being forgotten must have
        // completed, or its missing frames would go unnoticed.
        if self.prev[s].id != 0 && !self.prev[s].done {
            self.faults.forgotten += 1;
        }
        self.prev[s] = self.cur[s];
        self.cur[s] = TripCheck { id, next_seq: 0, done: false };
        Some(&mut self.cur[s])
    }

    /// One delivered per-segment score. Returns whether it was the next
    /// expected score of its trip and bit-identical to the reference.
    pub fn on_score(&mut self, u: &ScoreUpdate) -> bool {
        let expected =
            self.reference.scores.get(id_pool(u.id)).and_then(|t| t.get(u.seq as usize)).copied();
        let in_sequence = match self.check_of(u.id) {
            Some(c) if !c.done && c.next_seq == u.seq => {
                c.next_seq += 1;
                true
            }
            _ => false,
        };
        let good = in_sequence && expected.is_some_and(|e| e.to_bits() == u.score.to_bits());
        if good {
            self.ok += 1;
        } else if in_sequence {
            self.faults.bits += 1;
        } else {
            self.faults.sequence += 1;
        }
        good
    }

    /// One delivered trip completion: it must be an `Ended` completion of
    /// a fully scored trip with bit-identical final scores.
    pub fn on_complete(
        &mut self,
        id: u64,
        completion: Completion,
        score: f64,
        likelihood_nll: f64,
        segments: usize,
    ) -> bool {
        let p = id_pool(id);
        let want = self.reference.scores.get(p).map(|t| (t.len(), t[t.len() - 1]));
        let want_tg = self.reference.tg_final.get(p).copied();
        let good = match (self.check_of(id), want, want_tg) {
            (Some(c), Some((len, last)), Some(tg)) if !c.done => {
                c.done = true;
                completion == Completion::Ended
                    && c.next_seq as usize == len
                    && segments == len
                    && last.to_bits() == score.to_bits()
                    && tg.to_bits() == likelihood_nll.to_bits()
            }
            _ => false,
        };
        if good {
            self.completes += 1;
            self.served[p] = score;
            self.served_tg[p] = likelihood_nll;
        } else {
            self.faults.completion += 1;
        }
        good
    }

    /// A typed error frame or refused submission: always a failure.
    pub fn on_error(&mut self) {
        self.faults.error += 1;
    }

    /// Folds another verifier's tallies and served scores in.
    pub fn absorb(&mut self, other: &Verifier) {
        self.ok += other.ok;
        self.completes += other.completes;
        let (mine, theirs) = (&mut self.faults, &other.faults);
        mine.sequence += theirs.sequence;
        mine.bits += theirs.bits;
        mine.completion += theirs.completion;
        mine.forgotten += theirs.forgotten;
        mine.error += theirs.error;
        for (mine, theirs) in
            [(&mut self.served, &other.served), (&mut self.served_tg, &other.served_tg)]
        {
            for (m, &t) in mine.iter_mut().zip(theirs) {
                if !t.is_nan() {
                    *m = t;
                }
            }
        }
    }
}

/// Detection quality computed from served final scores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aucs {
    /// `test_id` vs `detour ∪ switch`.
    pub id_roc: f64,
    /// `test_ood` vs `detour ∪ switch`.
    pub ood_roc: f64,
    /// `[id_detour, id_switch, ood_detour, ood_switch]` ROC-AUC.
    pub roc: [f64; 4],
    /// Same four combinations, PR-AUC.
    pub pr: [f64; 4],
}

impl Aucs {
    /// Element-wise mean (the macro-average over cities).
    pub fn mean<'a>(items: impl Iterator<Item = &'a Aucs>) -> Aucs {
        let items: Vec<&Aucs> = items.collect();
        let avg =
            |f: &dyn Fn(&Aucs) -> f64| items.iter().map(|a| f(a)).sum::<f64>() / items.len() as f64;
        Aucs {
            id_roc: avg(&|a| a.id_roc),
            ood_roc: avg(&|a| a.ood_roc),
            roc: std::array::from_fn(|i| avg(&|a| a.roc[i])),
            pr: std::array::from_fn(|i| avg(&|a| a.pr[i])),
        }
    }
}

/// AUCs over `scores` (one per pool trip, pool order). `None` when any
/// pool trip has no served score.
pub fn aucs(pool: &Pool, scores: &[f64]) -> Option<Aucs> {
    if scores.len() != pool.trips.len() || scores.iter().any(|s| s.is_nan()) {
        return None;
    }
    let of = |class: Class| -> Vec<f64> {
        pool.trips.iter().zip(scores).filter(|(t, _)| t.class == class).map(|(_, &s)| s).collect()
    };
    let combo = |normal: &[f64], anomalies: &[&[f64]]| -> (f64, f64) {
        let mut s = normal.to_vec();
        let mut labels = vec![false; normal.len()];
        for a in anomalies {
            s.extend_from_slice(a);
            labels.extend(std::iter::repeat_n(true, a.len()));
        }
        (roc_auc(&s, &labels), pr_auc(&s, &labels))
    };
    let (id, ood, detour, switch) =
        (of(Class::Id), of(Class::Ood), of(Class::Detour), of(Class::Switch));
    let pairs = [
        combo(&id, &[&detour]),
        combo(&id, &[&switch]),
        combo(&ood, &[&detour]),
        combo(&ood, &[&switch]),
    ];
    Some(Aucs {
        id_roc: combo(&id, &[&detour, &switch]).0,
        ood_roc: combo(&ood, &[&detour, &switch]).0,
        roc: pairs.map(|p| p.0),
        pr: pairs.map(|p| p.1),
    })
}

/// The share of a phase's windows (or rounds) the `calm.*` diagnostics are
/// read from. Other tenants of a shared host only ever slow a run down,
/// for seconds at a time, so the undisturbed tenth says what the code can
/// do while the median says what the run was like. The reported speed
/// metrics are medians; the calm readings sit beside them, ungated.
pub const CALM: f64 = 0.10;

/// Score counts, and for the paced loop raw latency samples, of a timed
/// phase on a fixed grid of 1 s windows. Samples are kept raw (`u32` ns,
/// saturating) — no histogram quantisation.
#[derive(Clone)]
pub struct Recorder {
    origin_ns: u64,
    bin_ns: u64,
    /// Scores decoded inside each window.
    pub counts: Vec<u64>,
    /// Latency samples of each window, keyed by the segment's due time.
    pub samples: Vec<Vec<u32>>,
}

impl Recorder {
    /// `bins` windows of `bin_ns` starting at `origin_ns`.
    pub fn new(origin_ns: u64, bin_ns: u64, bins: usize) -> Recorder {
        Recorder { origin_ns, bin_ns, counts: vec![0; bins], samples: vec![Vec::new(); bins] }
    }

    /// Reserves room for a million samples per second of window up front:
    /// untouched capacity costs no resident memory, while growing by
    /// doubling would put a transient copy of every window into the run's
    /// peak RSS.
    pub fn reserve_samples(&mut self) {
        let room = (self.bin_ns / 1_000).max(1) as usize;
        self.samples.iter_mut().for_each(|s| s.reserve(room));
    }

    fn bin(&self, t_ns: u64) -> Option<usize> {
        let b = (t_ns.checked_sub(self.origin_ns)? / self.bin_ns) as usize;
        (b < self.counts.len()).then_some(b)
    }

    /// One score decoded at `decoded_ns`; dropped outside the grid
    /// (warm-up, or the tail after the phase).
    pub fn count(&mut self, decoded_ns: u64) {
        if let Some(b) = self.bin(decoded_ns) {
            self.counts[b] += 1;
        }
    }

    /// One score whose segment was due at `due_ns` and decoded at
    /// `decoded_ns`. The count goes to the window of the decode time, the
    /// latency sample to the window of the due time; either is dropped
    /// when it falls outside the grid.
    pub fn record(&mut self, due_ns: u64, decoded_ns: u64) {
        self.count(decoded_ns);
        if let Some(b) = self.bin(due_ns) {
            let lat = decoded_ns.saturating_sub(due_ns).min(u64::from(u32::MAX)) as u32;
            self.samples[b].push(lat);
        }
    }

    /// Folds another recorder on the same grid in.
    pub fn absorb(&mut self, other: Recorder) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
        for (a, mut b) in self.samples.iter_mut().zip(other.samples) {
            a.append(&mut b);
        }
    }

    /// Scores decoded inside the grid.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Latency percentile `q` of each window, in ms (windows without
    /// samples are skipped).
    pub fn window_percentiles_ms(&mut self, q: f64) -> Vec<f64> {
        self.samples
            .iter_mut()
            .filter_map(|s| stats::percentile(s, q))
            .map(|ns| f64::from(ns) / 1e6)
            .collect()
    }

    /// Median over the windows of each window's latency percentile `q`,
    /// in ms: `seg_p50_ms` for `q = 0.5`.
    pub fn median_percentile_ms(&mut self, q: f64) -> f64 {
        stats::median(&self.window_percentiles_ms(q))
    }

    /// Latency percentile `q` of the calm windows, in ms: the [`CALM`]
    /// quantile from the low end of the per-window percentiles.
    pub fn calm_percentile_ms(&mut self, q: f64) -> f64 {
        stats::quantile(&self.window_percentiles_ms(q), CALM)
    }

    /// All samples of all windows in one vector.
    pub fn all_samples(&self) -> Vec<u32> {
        self.samples.iter().flatten().copied().collect()
    }
}

/// One closed-loop round of one producer: a segment per live trip, then
/// the barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Round {
    /// When the generator began the round.
    pub start_ns: u64,
    /// When the barrier's reply — and every score of the round — was in.
    pub end_ns: u64,
    /// Segments sent (and scored) in the round.
    pub segments: u64,
    /// Whether harness spans were kept during the round.
    pub traced: bool,
}

impl Round {
    fn rate(&self) -> f64 {
        self.segments as f64 * 1e9 / (self.end_ns - self.start_ns).max(1) as f64
    }
}

/// Segments per wall second of one producer's consecutive `rounds`.
fn span_rate(rounds: &[Round]) -> Option<f64> {
    let (first, last) = (rounds.first()?, rounds.last()?);
    let segments: u64 = rounds.iter().map(|r| r.segments).sum();
    Some(segments as f64 * 1e9 / (last.end_ns - first.start_ns).max(1) as f64)
}

/// Closed-loop `segments_per_s`: each producer's measured rounds are cut
/// into `blocks` equal runs of consecutive rounds; a block's rate is the
/// sum over producers of segments ÷ wall of their run; the result is the
/// median over the blocks. `NaN` when a producer has fewer rounds than
/// blocks.
pub fn block_median_rate(producers: &[Vec<Round>], blocks: usize) -> f64 {
    let per_block: Option<Vec<f64>> = (0..blocks)
        .map(|b| {
            producers
                .iter()
                .map(|r| span_rate(&r[b * r.len() / blocks..(b + 1) * r.len() / blocks]))
                .sum()
        })
        .collect();
    per_block.map_or(f64::NAN, |rates| stats::median(&rates))
}

/// Sum over producers of `pick` applied to the rates of the producer's
/// single rounds that pass `keep`.
fn round_rates(
    producers: &[Vec<Round>],
    keep: impl Fn(&Round) -> bool,
    pick: impl Fn(&[f64]) -> f64,
) -> f64 {
    producers
        .iter()
        .map(|rounds| {
            let rates: Vec<f64> = rounds.iter().filter(|r| keep(r)).map(Round::rate).collect();
            pick(&rates)
        })
        .sum()
}

/// Closed-loop throughput of the calm rounds: per producer the [`CALM`]
/// quantile from the fast end of its single-round rates, summed.
pub fn calm_round_rate(producers: &[Vec<Round>]) -> f64 {
    round_rates(producers, |_| true, |rates| stats::quantile(rates, 1.0 - CALM))
}

/// Median single-round rate of the traced (or the untraced) rounds,
/// summed over producers.
pub fn median_round_rate(producers: &[Vec<Round>], traced: bool) -> f64 {
    round_rates(producers, |r| r.traced == traced, stats::median)
}

/// The paced loop's schedule on the [`now_ns`] clock: turn
/// `BASE_TURN + k` is due at `t0_ns + k * tick_ns`, whether or not the
/// generator kept up.
#[derive(Clone, Copy, Debug)]
pub struct Paced {
    /// Due time of the first tick.
    pub t0_ns: u64,
    /// Tick period.
    pub tick_ns: u64,
}

/// Where delivered scores end up: checked by the [`Verifier`], then
/// counted — and, in the paced loop, timed against the schedule — in the
/// [`Recorder`].
pub struct Sink {
    /// Correctness state.
    pub verifier: Verifier,
    /// Timing state.
    pub recorder: Recorder,
    paced: Option<Paced>,
    stride: u64,
}

impl Sink {
    /// A sink for trips whose consecutive segments are `stride` turns
    /// apart. Nothing is timed until [`Sink::start_phase`].
    pub fn new(verifier: Verifier, stride: u64) -> Sink {
        Sink { verifier, recorder: Recorder::new(0, 1, 0), paced: None, stride }
    }

    /// Starts counting into `recorder`'s grid and, given the paced
    /// schedule, timing each score from its segment's due time; the
    /// correctness state carries over.
    pub fn start_phase(&mut self, mut recorder: Recorder, paced: Option<Paced>) {
        if paced.is_some() {
            recorder.reserve_samples();
        }
        self.recorder = recorder;
        self.paced = paced;
    }

    /// One delivered score, decoded just now.
    pub fn score(&mut self, u: &ScoreUpdate) {
        let now = now_ns();
        if !self.verifier.on_score(u) {
            return;
        }
        let turn = id_start_turn(u.id) + self.stride * u64::from(u.seq);
        match self.paced {
            // Prefilled segments have turns before BASE_TURN: never timed.
            Some(p) if turn >= BASE_TURN => {
                self.recorder.record(p.t0_ns + (turn - BASE_TURN) * p.tick_ns, now);
            }
            Some(_) => {}
            None => self.recorder.count(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::tests::toy_pool;
    use crate::stream::trip_id;

    fn toy_reference(pool: &Pool) -> Arc<Reference> {
        let scores: Vec<Vec<f64>> = pool
            .trips
            .iter()
            .enumerate()
            .map(|(i, t)| (0..t.segs.len()).map(|k| i as f64 + k as f64 * 0.25).collect())
            .collect();
        let tg_final = (0..pool.trips.len()).map(|i| i as f64 * 2.0).collect();
        Arc::new(Reference { scores, tg_final })
    }

    fn update(id: u64, seq: u32, score: f64) -> ScoreUpdate {
        ScoreUpdate { id, seq, segment: 0, score, nll: 0.0, log_scale: 0.0 }
    }

    #[test]
    fn verifier_accepts_exact_stream_and_flags_every_fault() {
        let pool = toy_pool(8);
        let reference = toy_reference(&pool);
        let mut v = Verifier::new(Arc::clone(&pool), Arc::clone(&reference), 0, 4);
        let id = trip_id(BASE_TURN, 5, 2);
        let len = pool.trips[5].segs.len();
        for seq in 0..len {
            assert!(v.on_score(&update(id, seq as u32, reference.scores[5][seq])));
        }
        assert!(v.on_complete(
            id,
            Completion::Ended,
            reference.scores[5][len - 1],
            reference.tg_final[5],
            len
        ));
        assert_eq!((v.ok, v.faults.total(), v.completes), (len as u64, 0, 1));
        assert_eq!(v.served[5], reference.scores[5][len - 1]);

        // Duplicate after completion, wrong bits, a gap, a foreign slot,
        // a second completion, an evicted trip: each one failure.
        assert!(!v.on_score(&update(id, 0, reference.scores[5][0])));
        let id2 = trip_id(BASE_TURN + 1, 6, 2);
        assert!(!v.on_score(&update(id2, 0, reference.scores[6][0] + 1e-12)));
        assert!(!v.on_score(&update(id2, 2, reference.scores[6][2])));
        assert!(!v.on_score(&update(trip_id(BASE_TURN, 1, 9), 0, reference.scores[1][0])));
        assert!(!v.on_complete(id, Completion::Ended, 0.0, 0.0, len));
        let id3 = trip_id(BASE_TURN, 3, 0);
        assert!(!v.on_complete(id3, Completion::EvictedLru, 0.0, 0.0, 0));
        assert_eq!(
            v.faults,
            Faults { sequence: 3, bits: 1, completion: 2, forgotten: 0, error: 0 }
        );
    }

    #[test]
    fn replacement_may_overtake_the_previous_trips_tail() {
        let pool = toy_pool(8);
        let reference = toy_reference(&pool);
        let mut v = Verifier::new(Arc::clone(&pool), Arc::clone(&reference), 0, 1);
        let (a, b) = (trip_id(BASE_TURN, 0, 0), trip_id(BASE_TURN + 3, 1, 0));
        let len_a = pool.trips[0].segs.len();
        for seq in 0..len_a - 1 {
            assert!(v.on_score(&update(a, seq as u32, reference.scores[0][seq])));
        }
        assert!(v.on_score(&update(b, 0, reference.scores[1][0])));
        assert!(v.on_score(&update(a, len_a as u32 - 1, reference.scores[0][len_a - 1])));
        assert!(v.on_complete(
            a,
            Completion::Ended,
            reference.scores[0][len_a - 1],
            reference.tg_final[0],
            len_a
        ));
        assert_eq!(v.faults.total(), 0);
        // But a third trip while the first never completed is a loss.
        let mut v = Verifier::new(Arc::clone(&pool), Arc::clone(&reference), 0, 1);
        assert!(v.on_score(&update(a, 0, reference.scores[0][0])));
        assert!(v.on_score(&update(b, 0, reference.scores[1][0])));
        v.on_score(&update(trip_id(BASE_TURN + 9, 2, 0), 0, reference.scores[2][0]));
        assert_eq!(v.faults, Faults { forgotten: 1, ..Faults::default() });
    }

    #[test]
    fn recorder_bins_counts_by_decode_and_samples_by_due_time() {
        let mut r = Recorder::new(1_000, 100, 3);
        r.record(1_010, 1_050); // both in window 0, 40 ns
        r.record(1_090, 1_150); // sample window 0 (60 ns), count window 1
        r.record(900, 1_020); // due before the grid: counted, not sampled
        r.record(1_250, 1_400); // decoded after the grid: sampled, not counted
        r.count(1_299);
        assert_eq!(r.counts, vec![2, 1, 1]);
        assert_eq!(r.samples, vec![vec![40, 60], vec![], vec![150]]);
        assert_eq!(r.total(), 4);
        assert_eq!(r.window_percentiles_ms(0.5), vec![40e-6, 150e-6]);
        let mut other = Recorder::new(1_000, 100, 3);
        other.record(1_110, 1_120);
        r.absorb(other);
        assert_eq!(r.counts, vec![2, 2, 1]);
        assert_eq!(r.samples[1], vec![10]);
    }

    #[test]
    fn window_statistics_of_p50_on_known_samples() {
        // Three 1 s windows with p50s 2, 10 and 4 ms: the median window is
        // 4 ms (not the pooled p50), the calm one 2 ms.
        let mut r = Recorder::new(0, 1_000_000_000, 3);
        for (w, lats_ms) in [[1u64, 2, 3], [9, 10, 50], [4, 4, 4]].iter().enumerate() {
            for &ms in lats_ms {
                let due = w as u64 * 1_000_000_000 + 5;
                r.record(due, due + ms * 1_000_000);
            }
        }
        assert_eq!(r.median_percentile_ms(0.5), 4.0);
        assert_eq!(r.median_percentile_ms(1.0), 4.0);
        assert_eq!(r.calm_percentile_ms(0.5), 2.0);
    }

    /// `n` back-to-back rounds of `segments` segments and `ms` each.
    fn rounds(start_ms: u64, n: u64, ms: u64, segments: u64) -> Vec<Round> {
        (0..n)
            .map(|i| Round {
                start_ns: (start_ms + i * ms) * 1_000_000,
                end_ns: (start_ms + (i + 1) * ms) * 1_000_000,
                segments,
                traced: i % 2 == 1,
            })
            .collect()
    }

    #[test]
    fn block_median_of_known_rounds() {
        // One producer, 12 rounds of 1000 segments: six at 10 ms, four at
        // 20 ms, two at 40 ms. Blocks of two rounds run at 100, 100, 100,
        // 50, 50 and 25 thousand segments a second: the median is 75.
        let mut one = rounds(0, 6, 10, 1000);
        one.extend(rounds(60, 4, 20, 1000));
        one.extend(rounds(140, 2, 40, 1000));
        assert_eq!(block_median_rate(&[one.clone()], 6), 75_000.0);
        // A second producer at a steady 10 ms adds 100 thousand to each.
        let two = rounds(0, 12, 10, 1000);
        assert_eq!(block_median_rate(&[one.clone(), two.clone()], 6), 175_000.0);
        // Three blocks of four rounds: 100, 4000/60 ms, 4000/120 ms.
        assert_eq!(block_median_rate(&[one.clone()], 3), 4000.0 / 0.06);
        assert!(block_median_rate(&[rounds(0, 5, 10, 1000)], 6).is_nan());
        // Single rounds: the calm tenth runs at 100 thousand; the traced
        // (odd) and untraced rounds both have a median of 75 thousand.
        assert_eq!(calm_round_rate(&[one.clone()]), 100_000.0);
        assert_eq!(median_round_rate(&[one.clone()], true), 75_000.0);
        assert_eq!(median_round_rate(&[one, two], false), 175_000.0);
    }

    #[test]
    fn sink_times_paced_scores_from_their_due_time_and_counts_the_rest() {
        let pool = toy_pool(8);
        let reference = toy_reference(&pool);
        let verifier = Verifier::new(Arc::clone(&pool), Arc::clone(&reference), 0, 4);
        let mut sink = Sink::new(verifier, 2);
        let t0_ns = now_ns();
        let grid = Recorder::new(t0_ns, 3_600_000_000_000, 1);
        sink.start_phase(grid.clone(), Some(Paced { t0_ns, tick_ns: 1_000 }));
        // Segment 1 of a trip started at BASE_TURN is due two ticks in;
        // a trip whose start lies before BASE_TURN is prefill: not timed.
        let (timed, prefill) = (trip_id(BASE_TURN, 5, 2), trip_id(BASE_TURN - 9, 6, 3));
        sink.score(&update(timed, 0, reference.scores[5][0]));
        sink.score(&update(timed, 1, reference.scores[5][1]));
        sink.score(&update(prefill, 0, reference.scores[6][0]));
        assert_eq!((sink.verifier.ok, sink.recorder.total()), (3, 2));
        assert_eq!(sink.recorder.samples[0].len(), 2);
        // The second score was decoded later and due 2 000 ns later.
        assert!(sink.recorder.samples[0][1] + 2_000 >= sink.recorder.samples[0][0]);
        // A closed loop counts every verified score and keeps no sample.
        sink.start_phase(grid, None);
        sink.score(&update(timed, 2, reference.scores[5][2]));
        assert_eq!(sink.recorder.total(), 1);
        assert!(sink.recorder.samples[0].is_empty());
    }

    #[test]
    fn aucs_need_every_trip_and_separate_the_classes() {
        let pool = toy_pool(16);
        let mut scores: Vec<f64> = pool
            .trips
            .iter()
            .map(|t| if matches!(t.class, Class::Detour | Class::Switch) { 2.0 } else { 1.0 })
            .collect();
        let a = aucs(&pool, &scores).expect("all served");
        assert_eq!((a.id_roc, a.ood_roc), (1.0, 1.0));
        assert_eq!(a.roc, [1.0; 4]);
        scores[3] = f64::NAN;
        assert!(aucs(&pool, &scores).is_none());
    }
}
