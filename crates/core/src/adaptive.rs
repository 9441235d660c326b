//! Adaptive banded DP (§3.4) — the algorithm the paper runs on the DPUs.
//!
//! Instead of a fixed band of diagonals, a window of `w` cells slides along
//! anti-diagonals (Suzuki–Kasahara [24]). After each anti-diagonal the window
//! moves **right** (same rows, next column) or **down** (next row) depending
//! on the scores inside it, following the most promising path. The band can
//! therefore track large gaps that a static band of the same width would
//! miss — Table 1 shows adaptive@128 matching static@512.
//!
//! The memory layout mirrors §4.2.1: a step reads only four `w`-sized
//! arrays (two previous anti-diagonals of `H`, one of `I`, one of `D`),
//! which is what lets the real kernel keep them in the DPU's 64 KB WRAM.
//! Traceback information is a 4-bit cell per window position per
//! anti-diagonal — the `(m+n) × w` `BT` structure of §4.2.2.
//!
//! The low-level [`Engine`] advances one anti-diagonal per [`Engine::step`];
//! the host-side [`AdaptiveAligner`] and the simulated DPU kernel
//! (`dpu-kernel` crate) both drive the same engine, so their scores and
//! CIGARs agree bit-for-bit — the kernel merely adds cycle accounting and
//! real WRAM/MRAM movement around it.
//!
//! # Host layout of a step
//!
//! The cells of one anti-diagonal do not depend on each other (the paper
//! splits them over `T` tasklets, §4.2.3), so [`Engine::step`] computes
//! them as one branch-free loop the compiler vectorizes:
//!
//! - `a` is unpacked forwards and `b` reversed into byte buffers on the
//!   first step, so the bases of window cells `k..k+len` are two
//!   contiguous slices.
//! - `H`, `I` and `D` live in padded arrays with window cell `k` at index
//!   `k + 1` and `NEG_INF` sentinels at both ends, so the five neighbour
//!   operands (left and up at `t-1`, diagonal at `t-2`) are equal-length
//!   sub-slices at constant offsets.
//! - Only the valid range `[k_lo, k_hi]` (in-matrix cells) is written.
//!   Cells outside it always read as `NEG_INF`: before reusing a slot, the
//!   step resets the cells it held three anti-diagonals ago that fall
//!   outside the new range.
//! - The traceback is one nibble per cell in a `w`-byte scratch, packed two
//!   per byte into the [`BtRow`] at the end of the step.
//!
//! [`Engine::step_scalar`] keeps the original one-cell-at-a-time loop as
//! the oracle; the `engine_equivalence` test holds the two bit-identical.

use crate::error::AlignError;
use crate::scoring::ScoringScheme;
use crate::seq::{DnaSeq, SeqView};
use crate::traceback::{walk, BtCell, BtRow, Origin};
use crate::{Alignment, Score, NEG_INF};

/// Which way the window moved between two consecutive anti-diagonals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// Window keeps its row origin; columns advance.
    Right,
    /// Window's row origin advances by one.
    Down,
}

/// The trajectory of the adaptive window — used by the Figure-3 visualizer
/// and by tests asserting the band never strands the end cell.
#[derive(Debug, Clone, Default)]
pub struct BandTrace {
    /// `origins[t]` is the `i` coordinate of window cell 0 at anti-diagonal
    /// `t` (may be negative near the start).
    pub origins: Vec<i64>,
    /// Shift decisions; `shifts[t]` moved the window from `t` to `t+1`.
    pub shifts: Vec<Shift>,
}

impl BandTrace {
    /// Number of Down shifts (equals `origins.last() - origins[0]`).
    pub fn downs(&self) -> usize {
        self.shifts.iter().filter(|s| **s == Shift::Down).count()
    }
}

/// Outcome of an adaptive alignment when the caller also wants the trace and
/// cell-count statistics (used by the benchmark harness).
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The alignment (score + CIGAR).
    pub alignment: Alignment,
    /// Window trajectory.
    pub trace: BandTrace,
    /// DP cells evaluated (valid in-matrix window cells).
    pub cells: u64,
}

/// What one engine step produced — everything a caller needs for cost
/// accounting and `BT` persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The anti-diagonal that was just computed (1-based; step `t` computes
    /// cells with `i + j == t`).
    pub t: usize,
    /// The shift that produced this window from the previous one.
    pub shift: Shift,
    /// Window origin: matrix row of window cell 0.
    pub origin: i64,
    /// Number of in-matrix cells evaluated on this anti-diagonal.
    pub valid_cells: u32,
}

/// One anti-diagonal of rolling DP state: `H`, `I` and `D` over the padded
/// window, the window origin, and the range `[lo, hi]` of window cells that
/// lie inside the matrix (empty when `lo > hi`).
///
/// Arrays carry one sentinel cell on the left and two on the right (always
/// `NEG_INF`): window cell `k` lives at index `k + 1`, so the shifted
/// neighbour reads of a step index unconditionally.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Diag {
    h: Vec<Score>,
    i: Vec<Score>,
    d: Vec<Score>,
    origin: i64,
    lo: i64,
    hi: i64,
}

impl Diag {
    fn empty(w: usize, origin: i64) -> Self {
        Self {
            h: vec![NEG_INF; w + 3],
            i: vec![NEG_INF; w + 3],
            d: vec![NEG_INF; w + 3],
            origin,
            lo: 0,
            hi: -1,
        }
    }

    /// Reset window cells `lo..=hi` (clamped to what this anti-diagonal
    /// holds) to `NEG_INF` in all three arrays.
    fn clear(&mut self, lo: i64, hi: i64) {
        let (lo, hi) = (lo.max(self.lo), hi.min(self.hi));
        if lo <= hi {
            let cells = (lo + 1) as usize..=(hi + 1) as usize;
            self.h[cells.clone()].fill(NEG_INF);
            self.i[cells.clone()].fill(NEG_INF);
            self.d[cells].fill(NEG_INF);
        }
    }
}

/// Scoring constants of the interior recurrence, hoisted out of the sweep.
#[derive(Debug, Clone, Copy)]
struct CellScores {
    on_match: Score,
    on_mismatch: Score,
    gap_extend: Score,
    gap_open_extend: Score,
}

/// One interior cell of the recurrence: `H`, `I`, `D` and the `BT` nibble
/// from the five neighbour values and the two base codes. Branch-free
/// (compare-and-select only), so the sweep over an anti-diagonal
/// auto-vectorizes. Must agree bit-for-bit with [`Engine::step_scalar`].
#[inline(always)]
fn interior_cell(
    sc: CellScores,
    [left_h, left_d, up_h, up_i, diag_h]: [Score; 5],
    a: u8,
    b: u8,
) -> (Score, Score, Score, u8) {
    let (d_ext, d_open) = (left_d - sc.gap_extend, left_h - sc.gap_open_extend);
    let (i_ext, i_open) = (up_i - sc.gap_extend, up_h - sc.gap_open_extend);
    let d_val = d_ext.max(d_open);
    let i_val = i_ext.max(i_open);
    let sub = if a == b { sc.on_match } else { sc.on_mismatch };
    let diag = diag_h + sub;
    let best = diag.max(d_val).max(i_val);
    let diag_won = (best == diag) & (diag_h > NEG_INF / 2);
    let origin = if diag_won {
        Origin::DiagMatch as u8 + u8::from(sub <= 0)
    } else {
        Origin::Ins as u8 + u8::from(best != i_val)
    };
    let bt = origin
        | (u8::from(i_ext >= i_open) * BtCell::I_EXTEND)
        | (u8::from(d_ext >= d_open) * BtCell::D_EXTEND);
    (best, i_val, d_val, bt)
}

/// The adaptive banded DP engine: one alignment, advanced one anti-diagonal
/// at a time.
#[derive(Debug, Clone)]
pub struct Engine {
    scheme: ScoringScheme,
    w: usize,
    m: usize,
    n: usize,
    want_bt: bool,
    t: usize,
    origins: Vec<i64>,
    shifts: Vec<Shift>,
    cells: u64,
    bt_row: BtRow,
    /// One `BT` nibble per window cell, packed into `bt_row` after a step.
    bt_cells: Vec<u8>,
    /// Base codes of `a`, forwards, and of `b`, reversed: the bases of
    /// window cells `k..k+len` are then two contiguous slices.
    a_codes: Vec<u8>,
    b_rev: Vec<u8>,
    // Rolling anti-diagonal state (§4.2.1): the step reads `H` two deep and
    // `I`, `D` one deep; the third slot is the one being written.
    cur: Diag,
    prev: Diag,
    prev2: Diag,
}

impl Engine {
    /// Start an alignment of sequences of length `m` and `n` with window
    /// width `w`. When `want_bt` is false no `BT` rows are produced (the
    /// score-only 16S mode, §5.3).
    pub fn new(scheme: ScoringScheme, w: usize, m: usize, n: usize, want_bt: bool) -> Self {
        assert!(w >= 2, "adaptive window must be at least 2 wide");
        // Anti-diagonal 0: window centred on (0, 0) — Figure 3 (B).
        let o0 = -((w / 2) as i64);
        let mut prev = Diag::empty(w, o0);
        let k0 = -o0;
        prev.h[k0 as usize + 1] = 0;
        (prev.lo, prev.hi) = (k0, k0);
        let mut origins = Vec::with_capacity(m + n + 1);
        origins.push(o0);
        Self {
            scheme,
            w,
            m,
            n,
            want_bt,
            t: 0,
            origins,
            shifts: Vec::with_capacity(m + n),
            cells: 1,
            bt_row: BtRow::new(w),
            bt_cells: vec![0; w],
            a_codes: Vec::new(),
            b_rev: Vec::new(),
            cur: Diag::empty(w, o0),
            prev,
            prev2: Diag::empty(w, o0),
        }
    }

    /// True once all `m + n` anti-diagonals have been computed.
    pub fn is_done(&self) -> bool {
        self.t == self.m + self.n
    }

    /// Window width.
    pub fn band(&self) -> usize {
        self.w
    }

    /// Anti-diagonal index of the *next* step (0 after construction).
    pub fn t(&self) -> usize {
        self.t
    }

    /// Window origins seen so far (`origins[t]`).
    pub fn origins(&self) -> &[i64] {
        &self.origins
    }

    /// In-matrix cells evaluated so far.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// The `BT` row of the most recent step (all-zero when `want_bt` is
    /// false). Valid until the next call to [`Engine::step`].
    pub fn bt_row(&self) -> &BtRow {
        &self.bt_row
    }

    /// Consume the trace (after the run, for [`AdaptiveOutcome`]).
    pub fn into_trace(self) -> BandTrace {
        BandTrace {
            origins: self.origins,
            shifts: self.shifts,
        }
    }

    /// Advance one anti-diagonal. `a` and `b` are the sequences (any
    /// [`SeqView`]) and must be the same on every step: the first call
    /// unpacks them into the engine's own buffers and later calls read
    /// only those. Panics if called when [`Engine::is_done`].
    ///
    /// Only the valid range `[k_lo, k_hi]` is touched. Cells of the slot
    /// being overwritten that were valid three steps ago and are not now
    /// are reset to `NEG_INF`, so every cell outside the valid range reads
    /// as `NEG_INF` — the same state [`Engine::step_scalar`] keeps by
    /// refilling whole arrays.
    pub fn step<A: SeqView + ?Sized, B: SeqView + ?Sized>(&mut self, a: &A, b: &B) -> StepOutcome {
        assert!(!self.is_done(), "engine already finished");
        debug_assert_eq!(a.len(), self.m);
        debug_assert_eq!(b.len(), self.n);
        if self.a_codes.len() != self.m || self.b_rev.len() != self.n {
            self.a_codes = (0..self.m).map(|x| a.base(x).code()).collect();
            self.b_rev = (0..self.n).rev().map(|x| b.base(x).code()).collect();
        }
        let shift = self.decide_shift();
        let (t, o_new, k_lo, k_hi) = self.advance(shift);
        let (go, ge) = (self.scheme.gap_open, self.scheme.gap_extend);
        let cur = &mut self.cur;
        cur.clear(cur.lo, k_lo - 1);
        cur.clear(k_hi + 1, cur.hi);

        // Boundary cells (at most one of each per anti-diagonal).
        let mut int_lo = k_lo;
        let mut int_hi = k_hi;
        if k_lo <= k_hi && o_new + k_lo == 0 {
            // i == 0: H[0][j] = D[0][j] = -(go + j*ge); I = -inf (t >= 1).
            let pk = (k_lo + 1) as usize;
            cur.h[pk] = -go - (t as Score) * ge;
            cur.d[pk] = cur.h[pk];
            cur.i[pk] = NEG_INF;
            int_lo += 1;
        }
        if k_lo <= k_hi && t as i64 - (o_new + k_hi) == 0 {
            // j == 0: H[i][0] = I[i][0] = -(go + i*ge); D = -inf.
            let pk = (k_hi + 1) as usize;
            cur.h[pk] = -go - (t as Score) * ge;
            cur.i[pk] = cur.h[pk];
            cur.d[pk] = NEG_INF;
            int_hi -= 1;
        }

        if self.want_bt {
            self.bt_cells.fill(0);
        }
        if int_lo <= int_hi {
            // Interior sweep: every operand is an equal-length slice. With
            // window cell k at padded index k + 1, left (i, j-1) and up
            // (i-1, j) at t-1 sit s1 and s1-1 past it, diag (i-1, j-1) at
            // t-2 sits s2-1 past it.
            let len = (int_hi - int_lo + 1) as usize;
            let s1 = (o_new - self.prev.origin) as usize; // 0 = Right, 1 = Down
            let s2 = (o_new - self.prev2.origin) as usize; // 0..=2
            let p = int_lo as usize; // padded index of cell int_lo, minus 1
            let left_h = &self.prev.h[p + 1 + s1..][..len];
            let left_d = &self.prev.d[p + 1 + s1..][..len];
            let up_h = &self.prev.h[p + s1..][..len];
            let up_i = &self.prev.i[p + s1..][..len];
            let diag_h = &self.prev2.h[p + s2..][..len];
            // Cell k is (i, j) = (o_new + k, t - i): it reads a[i-1] and
            // b[j-1] = b_rev[n - j].
            let a_bases = &self.a_codes[(o_new + int_lo - 1) as usize..][..len];
            let b_bases =
                &self.b_rev[(self.n as i64 - t as i64 + o_new + int_lo) as usize..][..len];
            let h = &mut cur.h[p + 1..][..len];
            let i = &mut cur.i[p + 1..][..len];
            let d = &mut cur.d[p + 1..][..len];
            let sc = CellScores {
                on_match: self.scheme.match_score,
                on_mismatch: -self.scheme.mismatch_penalty,
                gap_extend: ge,
                gap_open_extend: go + ge,
            };
            if self.want_bt {
                let bt = &mut self.bt_cells[p..][..len];
                for x in 0..len {
                    let nb = [left_h[x], left_d[x], up_h[x], up_i[x], diag_h[x]];
                    (h[x], i[x], d[x], bt[x]) = interior_cell(sc, nb, a_bases[x], b_bases[x]);
                }
            } else {
                for x in 0..len {
                    let nb = [left_h[x], left_d[x], up_h[x], up_i[x], diag_h[x]];
                    (h[x], i[x], d[x], _) = interior_cell(sc, nb, a_bases[x], b_bases[x]);
                }
            }
        }
        if self.want_bt {
            self.bt_row.pack_nibbles(&self.bt_cells);
        }
        self.finish(shift, t, o_new, k_lo, k_hi)
    }

    /// The scalar reference for [`Engine::step`]: one branchy pass per cell
    /// through [`SeqView::base`], whole-array `NEG_INF` refills and per-cell
    /// [`BtRow::set`]. Tests drive it as the oracle the vectorized step must
    /// match bit-for-bit (outcome, `BT` row, origins, cell count, score).
    pub fn step_scalar<A: SeqView + ?Sized, B: SeqView + ?Sized>(
        &mut self,
        a: &A,
        b: &B,
    ) -> StepOutcome {
        assert!(!self.is_done(), "engine already finished");
        debug_assert_eq!(a.len(), self.m);
        debug_assert_eq!(b.len(), self.n);
        let shift = self.decide_shift_scalar();
        let (t, o_new, k_lo, k_hi) = self.advance(shift);

        self.cur.h.fill(NEG_INF);
        self.cur.i.fill(NEG_INF);
        self.cur.d.fill(NEG_INF);
        if self.want_bt {
            self.bt_row.clear();
        }
        let (go, ge) = (self.scheme.gap_open, self.scheme.gap_extend);

        // Boundary cells (at most one of each per anti-diagonal).
        let mut int_lo = k_lo;
        let mut int_hi = k_hi;
        if k_lo <= k_hi && o_new + k_lo == 0 {
            // i == 0: H[0][j] = D[0][j] = -(go + j*ge); I = -inf (t >= 1).
            let v = -go - (t as Score) * ge;
            let pk = (k_lo + 1) as usize;
            self.cur.h[pk] = v;
            self.cur.d[pk] = v;
            int_lo += 1;
        }
        if k_lo <= k_hi && t as i64 - (o_new + k_hi) == 0 {
            // j == 0: H[i][0] = I[i][0] = -(go + i*ge).
            let v = -go - (t as Score) * ge;
            let pk = (k_hi + 1) as usize;
            self.cur.h[pk] = v;
            self.cur.i[pk] = v;
            int_hi -= 1;
        }

        // Interior sweep: neighbour indices are constant shifts thanks to
        // the sentinel padding (window cell k is at padded index k + 1).
        let s1 = (o_new - self.prev.origin) as usize; // 0 = Right, 1 = Down
        let s2 = (o_new - self.prev2.origin) as usize; // 0..=2
        let goge = go + ge;
        for k in int_lo..=int_hi {
            let pk = (k + 1) as usize;
            let i = (o_new + k) as usize;
            let j = t - i;
            // left (i, j-1) at t-1; up (i-1, j) at t-1; diag (i-1, j-1) at t-2.
            let left_h = self.prev.h[pk + s1];
            let left_d = self.prev.d[pk + s1];
            let up_h = self.prev.h[pk + s1 - 1];
            let up_i = self.prev.i[pk + s1 - 1];
            let diag_h = self.prev2.h[pk + s2 - 1];

            let d_extend = left_d - ge >= left_h - goge;
            let d_val = (left_d - ge).max(left_h - goge);
            let i_extend = up_i - ge >= up_h - goge;
            let i_val = (up_i - ge).max(up_h - goge);
            let sub = self.scheme.substitution(a.base(i - 1), b.base(j - 1));
            let diag = diag_h + sub;
            let best = diag.max(d_val).max(i_val);
            self.cur.h[pk] = best;
            self.cur.d[pk] = d_val;
            self.cur.i[pk] = i_val;
            if self.want_bt {
                let origin = if best == diag && diag_h > NEG_INF / 2 {
                    if sub > 0 {
                        Origin::DiagMatch
                    } else {
                        Origin::DiagMismatch
                    }
                } else if best == i_val {
                    Origin::Ins
                } else {
                    Origin::Del
                };
                self.bt_row
                    .set(k as usize, BtCell::new(origin, i_extend, d_extend));
            }
        }
        self.finish(shift, t, o_new, k_lo, k_hi)
    }

    /// Record `shift` as the move to the next anti-diagonal; return that
    /// anti-diagonal's index, origin and valid window range `[k_lo, k_hi]`
    /// (cells with `i` in `[0, m]` and `j = t - i` in `[0, n]`).
    fn advance(&mut self, shift: Shift) -> (usize, i64, i64, i64) {
        let t = self.t + 1;
        let (m, n, w) = (self.m as i64, self.n as i64, self.w as i64);
        let o_new = match shift {
            Shift::Right => self.prev.origin,
            Shift::Down => self.prev.origin + 1,
        };
        self.shifts.push(shift);
        self.origins.push(o_new);
        let k_lo = 0i64.max(-o_new).max(t as i64 - n - o_new);
        let k_hi = (w - 1).min(m - o_new).min(t as i64 - o_new);
        (t, o_new, k_lo, k_hi)
    }

    /// Close a step: stamp the written anti-diagonal and rotate the ring.
    fn finish(&mut self, shift: Shift, t: usize, o_new: i64, k_lo: i64, k_hi: i64) -> StepOutcome {
        let valid = (k_hi - k_lo + 1).max(0) as u32;
        (self.cur.origin, self.cur.lo, self.cur.hi) = (o_new, k_lo, k_hi);
        std::mem::swap(&mut self.prev2, &mut self.prev);
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.cells += u64::from(valid);
        self.t = t;
        StepOutcome {
            t,
            shift,
            origin: o_new,
            valid_cells: valid,
        }
    }

    /// The band-constrained score, available once [`Engine::is_done`].
    pub fn final_score(&self) -> Result<Score, AlignError> {
        assert!(self.is_done(), "engine still running");
        let (m, n, w) = (self.m, self.n, self.w);
        let k_final = m as i64 - self.prev.origin;
        if k_final < 0 || k_final >= w as i64 {
            return Err(AlignError::OutOfBand { band: w, m, n });
        }
        let score = self.prev.h[k_final as usize + 1];
        if score < NEG_INF / 2 {
            return Err(AlignError::OutOfBand { band: w, m, n });
        }
        Ok(score)
    }

    /// The hard guards of the shift decision, or `None` when the heuristic
    /// decides. They come first so the window can always still reach
    /// `(m, n)`.
    fn guard_shift(&self, t: usize) -> Option<Shift> {
        let (m, n) = (self.m as i64, self.n as i64);
        let (o_old, w, t) = (self.prev.origin, self.w as i64, t as i64);
        // Guard 1: never push the origin past row m — (m, n) must keep index
        // >= 0 in the final window.
        if o_old + 1 > m {
            return Some(Shift::Right);
        }
        // Guard 2: enough Down shifts must remain to lift the origin to
        // m - w + 1 by anti-diagonal m+n.
        let remaining_after = m + n - t; // shifts left after this one
        if o_old + remaining_after < m - w + 1 {
            return Some(Shift::Down);
        }
        // Guard 3: if the window's top would sit above the matrix (j > n),
        // shifting right is wasted; move down.
        if t - o_old > n {
            return Some(Shift::Down);
        }
        // Guard 4: if the window's bottom already hangs below the matrix
        // (i > m), moving down adds more dead cells; move right.
        if o_old + w > m {
            return Some(Shift::Right);
        }
        None
    }

    /// Heuristic shift from the argmax of the previous anti-diagonal's `H`:
    /// keep the best cell centred within the span of live (`>= NEG_INF / 2`)
    /// cells. `found` is `(k_best, lo, hi)` over that span, `None` when no
    /// cell is live yet (start-up corner: drift toward the matrix).
    fn centre_shift(&self, found: Option<(i64, i64, i64)>) -> Shift {
        match found {
            Some((k_best, lo, hi)) if (k_best - lo) * 2 > hi - lo => Shift::Down,
            Some(_) => Shift::Right,
            None if self.prev.origin < 0 => Shift::Down,
            None => Shift::Right,
        }
    }

    /// Choose the shift that produces the next anti-diagonal from the
    /// previous one.
    ///
    /// The window steers so the best cell of the previous anti-diagonal
    /// stays centred. The two-extremity comparison of [24] is a special
    /// case of this ("which side of the window looks better"); tracking the
    /// argmax is equally cheap per anti-diagonal and markedly more robust on
    /// the long (>100 bp) gaps the PacBio dataset contains. Only the
    /// previous step's valid range `[lo, hi]` is scanned; ties keep the
    /// earliest (topmost) argmax, so they favour Right, mirroring the
    /// extremity rule's tie behaviour.
    fn decide_shift(&self) -> Shift {
        if let Some(shift) = self.guard_shift(self.t + 1) {
            return shift;
        }
        self.centre_shift(self.live_argmax())
    }

    /// `(k_best, first, last)` over the live cells of the previous
    /// anti-diagonal's valid range, `None` when none is live.
    fn live_argmax(&self) -> Option<(i64, i64, i64)> {
        let (lo, hi) = (self.prev.lo, self.prev.hi);
        if lo > hi {
            return None;
        }
        let h = &self.prev.h[(lo + 1) as usize..=(hi + 1) as usize];
        let live = |v: &Score| *v >= NEG_INF / 2;
        let first = h.iter().position(live)?;
        let last = h.iter().rposition(live)?;
        // Dead cells sit below NEG_INF / 2, so the maximum is a live cell.
        let best = *h[first..=last].iter().max()?;
        let k_best = first + h[first..].iter().position(|&v| v == best)?;
        Some((lo + k_best as i64, lo + first as i64, lo + last as i64))
    }

    /// [`Engine::decide_shift`] as one scan over the whole window with
    /// per-cell validity tests — the reference `step_scalar` uses.
    fn decide_shift_scalar(&self) -> Shift {
        let t = self.t + 1;
        if let Some(shift) = self.guard_shift(t) {
            return shift;
        }
        let (m, n) = (self.m as i64, self.n as i64);
        let t_prev = t as i64 - 1;
        let mut best: Option<(Score, i64)> = None;
        let mut k_lo: Option<i64> = None;
        let mut k_hi: Option<i64> = None;
        for k in 0..self.w as i64 {
            let i = self.prev.origin + k;
            let j = t_prev - i;
            if i < 0 || j < 0 || i > m || j > n {
                continue;
            }
            let v = self.prev.h[k as usize + 1];
            if v < NEG_INF / 2 {
                continue;
            }
            if k_lo.is_none() {
                k_lo = Some(k);
            }
            k_hi = Some(k);
            // Strict '>' keeps the earliest (topmost) argmax.
            if best.is_none_or(|(bv, _)| v > bv) {
                best = Some((v, k));
            }
        }
        let found = match (best, k_lo, k_hi) {
            (Some((_, k_best)), Some(lo), Some(hi)) => Some((k_best, lo, hi)),
            _ => None,
        };
        self.centre_shift(found)
    }
}

/// Adaptive banded affine-gap global aligner (host-side convenience wrapper
/// around [`Engine`]).
#[derive(Debug, Clone)]
pub struct AdaptiveAligner {
    scheme: ScoringScheme,
    band: usize,
}

impl AdaptiveAligner {
    /// Build an adaptive aligner with window width `band` (>= 2).
    pub fn new(scheme: ScoringScheme, band: usize) -> Self {
        assert!(band >= 2, "adaptive window must be at least 2 wide");
        Self { scheme, band }
    }

    /// The configured window width.
    pub fn band(&self) -> usize {
        self.band
    }

    /// The scoring scheme.
    pub fn scheme(&self) -> &ScoringScheme {
        &self.scheme
    }

    /// Score only — no `BT` storage at all. This is the 16S mode of §5.3.
    pub fn score(&self, a: &DnaSeq, b: &DnaSeq) -> Result<Score, AlignError> {
        let mut engine = Engine::new(self.scheme, self.band, a.len(), b.len(), false);
        while !engine.is_done() {
            engine.step(a, b);
        }
        engine.final_score()
    }

    /// Full alignment with CIGAR.
    pub fn align(&self, a: &DnaSeq, b: &DnaSeq) -> Result<Alignment, AlignError> {
        let outcome = self.align_traced(a, b)?;
        Ok(outcome.alignment)
    }

    /// Alignment plus the window trajectory and cell counts.
    pub fn align_traced(&self, a: &DnaSeq, b: &DnaSeq) -> Result<AdaptiveOutcome, AlignError> {
        let (m, n) = (a.len(), b.len());
        let w = self.band;
        let mut engine = Engine::new(self.scheme, w, m, n, true);
        // All BT rows in one flat store, row t at byte t * row_bytes (row 0,
        // the start cell, is never read).
        let row_bytes = w.div_ceil(2);
        let mut bt = vec![0u8; (m + n + 1) * row_bytes];
        while !engine.is_done() {
            let t = engine.step(a, b).t;
            bt[t * row_bytes..][..row_bytes].copy_from_slice(engine.bt_row().as_bytes());
        }
        let score = engine.final_score()?;
        let cells = engine.cells();
        let origins = engine.origins();
        let cigar = walk(m, n, w, |i, j| {
            let t = i + j;
            let k = i as i64 - origins[t];
            if k < 0 || k >= w as i64 {
                None
            } else {
                let k = k as usize;
                Some(BtCell((bt[t * row_bytes + k / 2] >> ((k % 2) * 4)) & 0x0F))
            }
        })?;
        Ok(AdaptiveOutcome {
            alignment: Alignment { score, cigar },
            trace: engine.into_trace(),
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::FullAligner;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn adaptive(w: usize) -> AdaptiveAligner {
        AdaptiveAligner::new(ScoringScheme::default(), w)
    }

    #[test]
    fn identical_sequences() {
        let s = seq("ACGTACGTACGTACGTACGT");
        let aln = adaptive(8).align(&s, &s).unwrap();
        assert_eq!(aln.cigar.to_string(), "20=");
        assert_eq!(aln.score, ScoringScheme::default().perfect(20));
    }

    #[test]
    fn single_mismatch_and_quickstart_doc() {
        let a = seq("ACGTACGTTT");
        let b = seq("ACGAACGTTT");
        let aln = adaptive(16).align(&a, &b).unwrap();
        assert_eq!(aln.cigar.to_string(), "3=1X6=");
    }

    #[test]
    fn matches_full_dp_on_small_inputs() {
        let pairs = [
            ("GATTACA", "GCTACAT"),
            ("ACGTACGTACGT", "ACGTTACGTAGT"),
            ("TTTTTTTT", "TTTT"),
            ("ACACACACAC", "CACACACACA"),
            ("AAAACGTTTT", "AAAATTTT"),
        ];
        let scheme = ScoringScheme::default();
        let full = FullAligner::affine(scheme);
        for (x, y) in pairs {
            let (a, b) = (seq(x), seq(y));
            let w = 2 * (a.len() + b.len()) + 2;
            let aln = AdaptiveAligner::new(scheme, w).align(&a, &b).unwrap();
            assert_eq!(aln.score, full.score(&a, &b), "{x} vs {y}");
            aln.cigar.validate(&a, &b).unwrap();
            assert_eq!(aln.cigar.score(&scheme), aln.score, "{x} vs {y}");
        }
    }

    #[test]
    fn tracks_a_large_gap_where_static_fails() {
        // 40-base gap, window 48: the adaptive window follows the gap while a
        // static band of 16 diagonals cannot even reach the end corner.
        let mut a_text = String::new();
        let mut b_text = String::new();
        let unit = "ACGTGGTCAT";
        for _ in 0..6 {
            a_text.push_str(unit);
            b_text.push_str(unit);
        }
        b_text.insert_str(30, &"T".repeat(40));
        let (a, b) = (seq(&a_text), seq(&b_text));
        let scheme = ScoringScheme::default();
        let optimal = FullAligner::affine(scheme).score(&a, &b);

        let adaptive_score = AdaptiveAligner::new(scheme, 48)
            .align(&a, &b)
            .unwrap()
            .score;
        assert_eq!(adaptive_score, optimal, "adaptive w=48 finds the gap");

        // Static w=16 cannot even reach (m, n): |n - m| = 40 > 8.
        let static_err = crate::banded::BandedAligner::new(scheme, 16)
            .align(&a, &b)
            .unwrap_err();
        assert!(matches!(static_err, crate::AlignError::OutOfBand { .. }));
    }

    #[test]
    fn empty_inputs() {
        let aln = adaptive(4).align(&DnaSeq::new(), &DnaSeq::new()).unwrap();
        assert_eq!(aln.score, 0);
        assert_eq!(aln.cigar.to_string(), "");
        let aln = adaptive(4).align(&seq("ACGT"), &DnaSeq::new()).unwrap();
        assert_eq!(aln.cigar.to_string(), "4I");
        let aln = adaptive(4).align(&DnaSeq::new(), &seq("ACGT")).unwrap();
        assert_eq!(aln.cigar.to_string(), "4D");
    }

    #[test]
    fn window_reaches_the_corner() {
        // Strongly unequal lengths force many Down/Right guards.
        let a = seq(&"ACGT".repeat(20)); // 80
        let b = seq(&"ACGT".repeat(5)); // 20
        let out = adaptive(16).align_traced(&a, &b).unwrap();
        let last = *out.trace.origins.last().unwrap();
        let k = a.len() as i64 - last;
        assert!((0..16).contains(&k), "final window must contain (m, n)");
        out.alignment.cigar.validate(&a, &b).unwrap();
    }

    #[test]
    fn trace_shift_counts_are_consistent() {
        let a = seq(&"GATTACA".repeat(10));
        let b = seq(&"GATTACA".repeat(10));
        let out = adaptive(8).align_traced(&a, &b).unwrap();
        assert_eq!(out.trace.origins.len(), a.len() + b.len() + 1);
        assert_eq!(out.trace.shifts.len(), a.len() + b.len());
        let downs = out.trace.downs() as i64;
        assert_eq!(
            out.trace.origins.last().unwrap() - out.trace.origins[0],
            downs
        );
    }

    #[test]
    fn cells_scale_linearly_not_quadratically() {
        let scheme = ScoringScheme::default();
        let a1 = seq(&"ACGTACGT".repeat(16)); // 128
        let a2 = seq(&"ACGTACGT".repeat(32)); // 256
        let w = 16;
        let c1 = AdaptiveAligner::new(scheme, w)
            .align_traced(&a1, &a1)
            .unwrap()
            .cells;
        let c2 = AdaptiveAligner::new(scheme, w)
            .align_traced(&a2, &a2)
            .unwrap()
            .cells;
        // Doubling length should roughly double (not quadruple) the cells.
        assert!(c2 < c1 * 3, "c1={c1} c2={c2}");
        assert!(c2 > c1 * 3 / 2, "c1={c1} c2={c2}");
    }

    #[test]
    fn score_only_agrees_with_align() {
        let a = seq(&"ACGTTGCA".repeat(12));
        let b = seq(&"ACGTTGCA".repeat(11));
        let al = adaptive(32);
        assert_eq!(al.score(&a, &b).unwrap(), al.align(&a, &b).unwrap().score);
    }

    #[test]
    fn adaptive_beats_static_at_equal_width_with_gaps() {
        // Sanity behind Table 1: with a mid-sequence 24-gap and w=32 the
        // adaptive band finds the optimum while the static band cannot reach
        // the corner (|n-m| = 24 > 16).
        let core = "ACGTGGTCATCGATTACAGGCT";
        let a = seq(&core.repeat(8));
        let mut b_text = core.repeat(8);
        b_text.insert_str(88, &"G".repeat(24));
        let b = seq(&b_text);
        let scheme = ScoringScheme::default();
        let optimal = FullAligner::affine(scheme).score(&a, &b);
        let ad = AdaptiveAligner::new(scheme, 32)
            .align(&a, &b)
            .unwrap()
            .score;
        assert_eq!(ad, optimal, "adaptive w=32 tracks the 24-gap");
        assert!(crate::banded::BandedAligner::new(scheme, 32)
            .align(&a, &b)
            .is_err());
    }

    #[test]
    fn engine_steps_match_wrapper() {
        // Driving the engine manually (as the DPU kernel does) must agree
        // with the one-shot wrapper.
        let a = seq(&"ACGGTTAC".repeat(8));
        let b = seq(&"ACGTTTAC".repeat(8));
        let scheme = ScoringScheme::default();
        let mut engine = Engine::new(scheme, 16, a.len(), b.len(), false);
        let mut steps = 0;
        while !engine.is_done() {
            let out = engine.step(&a, &b);
            assert!(out.valid_cells > 0);
            assert_eq!(out.t, steps + 1);
            steps += 1;
        }
        assert_eq!(steps, a.len() + b.len());
        let wrapper = AdaptiveAligner::new(scheme, 16).score(&a, &b).unwrap();
        assert_eq!(engine.final_score().unwrap(), wrapper);
    }

    #[test]
    fn engine_works_on_packed_views() {
        // The DPU kernel aligns packed/unpacked mixes; results must agree.
        let a = seq(&"GATTACAT".repeat(6));
        let b = seq(&"GATTCCAT".repeat(6));
        let (pa, pb) = (a.pack(), b.pack());
        let scheme = ScoringScheme::default();
        let mut e1 = Engine::new(scheme, 16, a.len(), b.len(), false);
        let mut e2 = Engine::new(scheme, 16, a.len(), b.len(), false);
        while !e1.is_done() {
            e1.step(&a, &b);
            e2.step(&pa, &pb);
        }
        assert_eq!(e1.final_score().unwrap(), e2.final_score().unwrap());
    }

    #[test]
    fn step_leaves_the_state_step_scalar_leaves() {
        // `step` refreshes only the valid range; every other cell must still
        // read as NEG_INF, exactly as after the scalar step's full refills.
        let core = seq(&"ACGTGGTCATCGATTACAGGCT".repeat(4));
        let mut gapped = core.to_ascii();
        gapped.splice(40..40, b"TTTTTTTTTTTTTTTTTTTT".iter().copied());
        let pairs = [
            (core.clone(), seq(&String::from_utf8(gapped).unwrap())),
            (core.clone(), seq("ACGTACGT")),
            (seq("GATTACA"), core),
        ];
        for (a, b) in &pairs {
            for w in [2, 5, 16, 33] {
                let scheme = ScoringScheme::default();
                let mut fast = Engine::new(scheme, w, a.len(), b.len(), true);
                let mut oracle = Engine::new(scheme, w, a.len(), b.len(), true);
                while !oracle.is_done() {
                    assert_eq!(fast.step(a, b), oracle.step_scalar(a, b));
                    assert_eq!(
                        (&fast.cur, &fast.prev, &fast.prev2),
                        (&oracle.cur, &oracle.prev, &oracle.prev2),
                        "w={w} t={}",
                        oracle.t
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "engine already finished")]
    fn stepping_past_the_end_panics() {
        let mut e = Engine::new(ScoringScheme::default(), 4, 0, 0, false);
        assert!(e.is_done());
        let a = DnaSeq::new();
        e.step(&a, &a);
    }

    #[test]
    #[should_panic(expected = "at least 2 wide")]
    fn tiny_window_rejected() {
        AdaptiveAligner::new(ScoringScheme::default(), 1);
    }
}
