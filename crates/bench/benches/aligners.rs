//! Microbenchmarks of the alignment kernels themselves: cells per second of
//! the exact, static banded (KSW2-style) and adaptive banded aligners — the
//! per-cell costs behind Tables 2–6.

use bench::harness::Harness;
use cpu_baseline::Ksw2Aligner;
use datasets::mutate::{mutate, ErrorModel};
use datasets::{random_seq, rng};
use nw_core::adaptive::AdaptiveAligner;
use nw_core::banded::BandedAligner;
use nw_core::full::FullAligner;
use nw_core::seq::DnaSeq;
use nw_core::wfa::{Penalties, WfaAligner};
use nw_core::ScoringScheme;

fn pair(len: usize, seed: u64) -> (DnaSeq, DnaSeq) {
    let mut r = rng(seed);
    let a = random_seq(&mut r, len);
    let (b, _) = mutate(&a, &ErrorModel::uniform(0.02), &mut r);
    (a, b)
}

fn main() {
    let mut h = Harness::from_env();
    let scheme = ScoringScheme::default();
    let band = 128usize;

    let mut group = h.group("score_per_cell");
    for len in [1_000usize, 4_000] {
        let (a, b) = pair(len, 42);
        let banded_cells = BandedAligner::new(scheme, band)
            .score(&a, &b)
            .map(|_| ((a.len() + b.len()) / 2) as u64 * (band as u64 + 1))
            .unwrap_or(0);
        group.throughput_elements(banded_cells);
        let al = BandedAligner::new(scheme, band);
        group.bench(&format!("static_banded/{len}"), || {
            al.score(&a, &b).unwrap()
        });
        let al = Ksw2Aligner::new(scheme, band);
        group.bench(&format!("ksw2_profile/{len}"), || al.score(&a, &b).unwrap());
        let al = AdaptiveAligner::new(scheme, band);
        group.bench(&format!("adaptive/{len}"), || al.score(&a, &b).unwrap());
        let al = WfaAligner::new(Penalties::from_scheme(&scheme));
        group.bench(&format!("wfa/{len}"), || al.penalty(&a, &b).unwrap());
    }

    // The exact DP only at a modest size (quadratic).
    let mut group = h.group("exact_dp");
    let (a, b) = pair(1_000, 7);
    group.throughput_elements((a.len() * b.len()) as u64);
    let al = FullAligner::affine(scheme);
    group.bench("full_gotoh_score", || al.score(&a, &b));

    // Traceback cost on top of scoring.
    let mut group = h.group("traceback");
    let (a, b) = pair(2_000, 9);
    let al = AdaptiveAligner::new(scheme, band);
    group.bench("adaptive_score_only", || al.score(&a, &b).unwrap());
    group.bench("adaptive_with_cigar", || al.align(&a, &b).unwrap().score);
    // The align-long shape: one S10000-like pair at band 128.
    let (a, b) = pair(10_000, 11);
    group.bench("adaptive_with_cigar/10000", || {
        al.align(&a, &b).unwrap().score
    });
}
