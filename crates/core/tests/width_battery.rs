//! One step, whatever drives it: across hidden widths whose `3h` is and is
//! not a multiple of the matmul kernel's panel (16) and short-tile (64)
//! widths, and wave widths on both sides of its row tile (4) and of a wave
//! tile at hidden 256 (64), [`OnlineScorer::push`], a one-row
//! [`CausalTad::step_wave`] ([`CausalTad::push_state`]) and row `i` of
//! [`CausalTad::push_batch`] give the same score, state and step, bit for
//! bit — on a trip's first segment, on graph, off graph, and on the leg a
//! `reset_context` opens.

use causaltad::{
    CausalTad, CausalTadConfig, OnlineScorer, ScorerState, SegmentTrace, OFF_GRAPH_NLL,
};
use tad_trajsim::{generate_city, CityConfig};

const HIDDEN: [usize; 6] = [20, 48, 64, 100, 128, 256];
const WIDTHS: [usize; 8] = [1, 2, 3, 4, 5, 63, 64, 65];
const WAVES: usize = 3;

/// What session `i` does on wave `w`.
#[derive(Clone, Copy, PartialEq)]
enum Hop {
    /// A successor of the previous segment (the first one, if any).
    OnGraph,
    /// A segment that is not one.
    OffGraph,
    /// `reset_context`, then any segment.
    FreshLeg,
}

fn hop(i: usize, w: usize) -> Hop {
    match (i + 2 * w) % 5 {
        1 => Hop::OffGraph,
        3 => Hop::FreshLeg,
        _ => Hop::OnGraph,
    }
}

/// Everything a state holds, as bits: hidden row, then the segment count
/// and the three accumulators.
fn bits(state: &ScorerState) -> Vec<u64> {
    let hidden = state.hidden().iter().map(|x| x.to_bits() as u64);
    let sums = [state.base_nll(), state.likelihood_nll(), state.scale_log_sum()].map(f64::to_bits);
    hidden.chain([state.len() as u64]).chain(sums).collect()
}

/// A step's contribution as bits: segment, NLL, log-scale.
fn step_bits(step: &SegmentTrace) -> [u64; 3] {
    [step.segment as u64, step.nll.to_bits(), step.log_scale.to_bits()]
}

#[test]
fn push_push_state_and_push_batch_rows_agree_at_every_width() {
    let city = generate_city(&CityConfig::test_scale(205));
    for hidden_dim in HIDDEN {
        // Untrained weights run the same kernels; a session needs only the
        // scaling table to start.
        let cfg = CausalTadConfig { hidden_dim, ..CausalTadConfig::test_scale() };
        let mut model = CausalTad::new(&city.net, cfg);
        model.precompute_scaling();
        let vocab = model.vocab() as u32;

        for width in WIDTHS {
            let ctx = |what: &str, i: usize, w: usize| {
                format!("hidden {hidden_dim} width {width} wave {w} row {i}: {what}")
            };
            // Every third session opens in the wave (its first segment is
            // charged nothing); the others are already under way.
            let start = |i: usize| {
                let (s, d) = (i as u32 * 7 % vocab, (i as u32 * 13 + 5) % vocab);
                let mut st = model.start_state(s, d, (i % 4) as u8).expect("in vocabulary");
                if !i.is_multiple_of(3) {
                    model.push_state(&mut st, s);
                }
                st
            };
            let mut scorers: Vec<OnlineScorer> =
                (0..width).map(|i| OnlineScorer::from_state(&model, start(i))).collect();
            let mut singles: Vec<ScorerState> = (0..width).map(start).collect();
            let mut wave: Vec<ScorerState> = (0..width).map(start).collect();

            let (mut off_graph, mut fresh_legs, mut first_segments) = (0, 0, 0);
            for w in 0..WAVES {
                let mut segs = Vec::with_capacity(width);
                for (i, st) in wave.iter_mut().enumerate() {
                    let succ = st.last_segment().map_or(&[][..], |prev| model.successors_of(prev));
                    let stray = (0..vocab).find(|c| !succ.contains(c)).expect("a sparse graph");
                    first_segments += usize::from(st.is_empty());
                    segs.push(match hop(i, w) {
                        Hop::OnGraph => succ.first().copied().unwrap_or(stray),
                        Hop::OffGraph => stray,
                        Hop::FreshLeg => {
                            let mut parked = std::mem::replace(
                                &mut scorers[i],
                                OnlineScorer::from_state(&model, ScorerState::default()),
                            )
                            .into_state();
                            for st in [&mut parked, &mut singles[i], st] {
                                st.reset_context();
                            }
                            scorers[i] = OnlineScorer::from_state(&model, parked);
                            stray
                        }
                    });
                }

                let batched = model.push_batch(None, &mut wave, &segs);
                assert_eq!(batched.len(), width);
                for i in 0..width {
                    let pushed = scorers[i].push(segs[i]);
                    let mut row = None;
                    model.step_wave(std::slice::from_mut(&mut singles[i]), &segs[i..=i], |s, t| {
                        row = Some((s, t))
                    });
                    let (single, step) = row.expect("a one-row step emits one row");
                    assert_eq!(pushed.to_bits(), single.to_bits(), "{}", ctx("push", i, w));
                    assert_eq!(batched[i].to_bits(), single.to_bits(), "{}", ctx("score", i, w));
                    assert!(bits(&wave[i]) == bits(&singles[i]), "{}", ctx("wave state", i, w));
                    assert!(
                        bits(scorers[i].state()) == bits(&singles[i]),
                        "{}",
                        ctx("scorer state", i, w)
                    );

                    let recorded = scorers[i].trace().last().expect("just pushed");
                    assert_eq!(step_bits(recorded), step_bits(&step), "{}", ctx("step", i, w));
                    let opened = singles[i].len() == 1;
                    match hop(i, w) {
                        _ if opened => assert_eq!(step.nll, 0.0, "{}", ctx("opening", i, w)),
                        Hop::FreshLeg => {
                            fresh_legs += 1;
                            assert_eq!(step.nll, 0.0, "{}", ctx("fresh leg", i, w));
                        }
                        Hop::OffGraph => {
                            off_graph += 1;
                            assert_eq!(step.nll, OFF_GRAPH_NLL, "{}", ctx("off graph", i, w));
                        }
                        Hop::OnGraph => assert!(step.nll.is_finite(), "{}", ctx("nll", i, w)),
                    }
                }
            }
            assert!(first_segments > 0, "hidden {hidden_dim} width {width}: a trip opened");
            if width >= 5 {
                assert!(off_graph > 0 && fresh_legs > 0, "the mix covers every kind of hop");
            }
        }
    }
}
