//! Differential test of the adaptive engine: the vectorized
//! [`Engine::step`] against its scalar oracle [`Engine::step_scalar`].
//!
//! Pairs are seeded and cover empty inputs, strongly unequal lengths (so
//! every shift guard fires), odd and even bands from 2 to 257, and 0–30 %
//! divergence including indels longer than half the band. Each trial runs
//! both engines side by side and compares every step's outcome, `BT` row,
//! origin and cell count, then the final score and the CIGAR the
//! [`AdaptiveAligner`] wrapper returns. `ENGINE_SMOKE_TRIALS` sets the
//! trial count.

use nw_core::adaptive::{AdaptiveAligner, Engine, Shift};
use nw_core::rng::SplitMix64;
use nw_core::seq::{Base, DnaSeq, PackedSeq, SeqView};
use nw_core::traceback::{walk, BtCell};
use nw_core::{AlignError, ScoringScheme};

fn trials() -> usize {
    std::env::var("ENGINE_SMOKE_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

fn rand_seq(rng: &mut SplitMix64, len: usize) -> Vec<Base> {
    (0..len)
        .map(|_| Base::from_code(rng.below(4) as u8))
        .collect()
}

/// `a` mutated at `divergence` events per base: substitutions, and
/// insertions or deletions whose length is occasionally above `w / 2`.
fn mutate(rng: &mut SplitMix64, a: &[Base], divergence: f64, w: usize) -> Vec<Base> {
    let mut b = Vec::with_capacity(a.len() + a.len() / 4);
    let mut x = 0;
    while x < a.len() {
        if !rng.chance(divergence) {
            b.push(a[x]);
            x += 1;
            continue;
        }
        let indel = if rng.chance(0.05) {
            rng.between(w as u64 / 2 + 1, w as u64 + 8) as usize
        } else {
            rng.between(1, 4) as usize
        };
        match rng.below(4) {
            0 | 1 => {
                b.push(Base::from_code(a[x].code() ^ rng.between(1, 3) as u8));
                x += 1;
            }
            2 => b.extend(rand_seq(rng, indel)),
            _ => x += indel,
        }
    }
    b
}

/// One trial's inputs: band, scheme and the pair.
fn case(rng: &mut SplitMix64, trial: usize) -> (usize, ScoringScheme, Vec<Base>, Vec<Base>) {
    let w = rng.between(2, 257) as usize;
    let shape = trial % 8;
    let scheme = match shape {
        // Heavy penalties on the unequal and unrelated shapes. Every
        // in-window cell has a live neighbour, so the window never strands
        // the corner, and OutOfBand arises only when the band-constrained
        // score sinks below NEG_INF / 2; these schemes get there, and leave
        // dead cells inside the valid range for the shift heuristic to
        // skip. A cell is at least its left neighbour minus
        // gap_open + gap_extend (<= 250_000), so 6000 anti-diagonals keep
        // every value inside i32.
        1..=3 if rng.chance(0.5) => ScoringScheme::new(
            rng.between(1, 4) as i32,
            rng.between(0, 200_000) as i32,
            rng.between(0, 50_000) as i32,
            rng.between(100_000, 200_000) as i32,
        ),
        _ if trial.is_multiple_of(2) => ScoringScheme::default(),
        _ => ScoringScheme::new(
            rng.between(1, 4) as i32,
            rng.between(0, 6) as i32,
            rng.between(0, 8) as i32,
            rng.between(1, 4) as i32,
        ),
    };
    let len = rng.below(3001) as usize;
    let (a, b) = match shape {
        // Empty on one side or both.
        0 => {
            let a = rand_seq(rng, len);
            match rng.below(3) {
                0 => (a, Vec::new()),
                1 => (Vec::new(), a),
                _ => (Vec::new(), Vec::new()),
            }
        }
        // m >> n and n >> m.
        1 => (rand_seq(rng, len), rand_seq(rng, len / 16)),
        2 => (rand_seq(rng, len / 16), rand_seq(rng, len)),
        // Unrelated sequences of about the same length.
        3 => {
            let other = len + rng.below(64) as usize;
            (rand_seq(rng, len), rand_seq(rng, other))
        }
        // Related pairs at 0-30 % divergence.
        _ => {
            let a = rand_seq(rng, len);
            let divergence = rng.below(31) as f64 / 100.0;
            let b = mutate(rng, &a, divergence, w);
            (a, b)
        }
    };
    (w, scheme, a, b)
}

/// What a trial saw, for the non-vacuity guard.
#[derive(Default)]
struct Seen {
    out_of_band: usize,
    downs: usize,
    bt_trials: usize,
}

/// Drive `step` (through view `a`, `b`) and `step_scalar` (through the
/// unpacked `DnaSeq`s) in lockstep and compare everything they expose.
fn check<A: SeqView + ?Sized, B: SeqView + ?Sized>(
    w: usize,
    scheme: ScoringScheme,
    want_bt: bool,
    (a, b): (&A, &B),
    (da, db): (&DnaSeq, &DnaSeq),
    seen: &mut Seen,
    label: &str,
) {
    let (m, n) = (da.len(), db.len());
    let mut fast = Engine::new(scheme, w, m, n, want_bt);
    let mut oracle = Engine::new(scheme, w, m, n, want_bt);
    let row_bytes = w.div_ceil(2);
    let mut bt = vec![0u8; (m + n + 1) * row_bytes];
    while !oracle.is_done() {
        let want = oracle.step_scalar(da, db);
        let got = fast.step(a, b);
        assert_eq!(got, want, "{label}: step outcome");
        assert_eq!(
            fast.bt_row().as_bytes(),
            oracle.bt_row().as_bytes(),
            "{label}: BT row at t={}",
            want.t
        );
        assert_eq!(fast.origins().last(), oracle.origins().last(), "{label}");
        assert_eq!(
            fast.cells(),
            oracle.cells(),
            "{label}: cells at t={}",
            want.t
        );
        bt[want.t * row_bytes..][..row_bytes].copy_from_slice(oracle.bt_row().as_bytes());
        seen.downs += usize::from(want.shift == Shift::Down);
    }
    assert!(fast.is_done(), "{label}");
    assert_eq!(fast.origins(), oracle.origins(), "{label}: origins");
    let score = oracle.final_score();
    assert_eq!(fast.final_score(), score, "{label}: final score");

    let aligner = AdaptiveAligner::new(scheme, w);
    if !want_bt {
        seen.out_of_band += usize::from(score.is_err());
        assert_eq!(aligner.score(da, db), score, "{label}: wrapper score");
        return;
    }
    seen.bt_trials += 1;
    let origins = oracle.origins();
    let want = score.and_then(|score| {
        let cigar = walk(m, n, w, |i, j| {
            let t = i + j;
            let k = i as i64 - origins[t];
            let k = usize::try_from(k).ok().filter(|&k| k < w)?;
            Some(BtCell((bt[t * row_bytes + k / 2] >> ((k % 2) * 4)) & 0x0F))
        })?;
        Ok((score, cigar))
    });
    seen.out_of_band += usize::from(matches!(want, Err(AlignError::OutOfBand { .. })));
    let got = aligner.align(da, db).map(|aln| (aln.score, aln.cigar));
    assert_eq!(got, want, "{label}: wrapper alignment");
}

#[test]
fn vectorized_step_matches_scalar_oracle() {
    let mut rng = SplitMix64::new(0xE5_61E5);
    let mut seen = Seen::default();
    let trials = trials();
    for trial in 0..trials {
        let (w, scheme, a, b) = case(&mut rng, trial);
        let (da, db) = (DnaSeq::from_bases(a.clone()), DnaSeq::from_bases(b.clone()));
        let want_bt = (trial / 3).is_multiple_of(2);
        let label = format!(
            "trial {trial}: w={w} m={} n={} bt={want_bt}",
            a.len(),
            b.len()
        );
        let oracle = (&da, &db);
        match trial % 3 {
            0 => check(
                w,
                scheme,
                want_bt,
                (&a[..], &b[..]),
                oracle,
                &mut seen,
                &label,
            ),
            1 => check(w, scheme, want_bt, oracle, oracle, &mut seen, &label),
            _ => {
                let (pa, pb): (PackedSeq, PackedSeq) = (da.pack(), db.pack());
                check(w, scheme, want_bt, (&pa, &pb), oracle, &mut seen, &label)
            }
        }
    }
    // Non-vacuity: the trials must reach the paths that differ between the
    // two steps, not only easy diagonal runs.
    if trials >= 40 {
        assert!(seen.out_of_band > 0, "no trial ended out of band");
        assert!(seen.downs > 0, "no trial took a Down shift");
        assert!(seen.bt_trials > 0, "no traceback trial");
    }
}
