//! Fused scoring kernels: the one dot-product the whole workspace shares.
//!
//! Algorithm 1 line 4 ("get rating vector x̂ᵤ") makes user-vs-catalog
//! scoring the hottest loop in the system: every model-aware sampler pays
//! it once per training pair. A naive `iter().zip().map().sum()` dot is
//! *latency*-bound — each `f32` add waits on the previous one, so a d = 32
//! dot costs ~d·latency cycles instead of ~d/throughput. These kernels
//! break the dependency chain with [`LANES`] independent accumulators
//! updated via [`f32::mul_add`], then reduce them in a **fixed balanced
//! tree**, which makes the summation order deterministic and identical
//! across every entry point:
//!
//! * [`dot`] — one row · row product (single score),
//! * [`gemv`] — user row × the whole item table (the full rating vector),
//! * [`gather_dots`] — user row × an arbitrary subset of item rows (the
//!   candidate-scoring path of `ScoreAccess::Candidates` samplers),
//! * [`dot_atomic`] — the same arithmetic over [`AtomicF32Cell`] rows (the
//!   hogwild tables of [`crate::hogwild`]).
//!
//! Because all four share one accumulation structure, `score(u, i)`,
//! `score_all(u, ..)[i]` and `score_items(u, [i], ..)` return **bitwise
//! identical** values for the same model state — the property the fused
//! BNS draw relies on when it compares candidate thresholds against
//! catalog scores computed in a separate blocked pass.
//!
//! # The eight-row AVX2 + FMA path
//!
//! Builds that enable AVX2 and FMA (the workspace's `target-cpu=native`
//! on any recent x86-64) score [`gemv`] and [`gather_dots`] eight rows
//! per step with intrinsics: each row keeps its own 256-bit accumulator,
//! so lane `l` of row `r` runs exactly the FMA chain of [`dot`], the user
//! chunk is loaded once for all eight rows, and one transposed reduction
//! computes the fixed reduction tree for all eight at once. Intrinsics,
//! because the compiler vectorizes the portable body one row at a time
//! and pays the reduction's shuffles per row: at d = 32 on a table in L2
//! that ran at about half the eight-row rate (2-vCPU Xeon with AVX-512).
//! A single [`dot`] stays portable — one row has no shuffles to share,
//! and an intrinsics copy of it measured within noise of the portable
//! body. Rows left over after the last full group of eight, and every
//! row on other targets, go through [`dot`]. The tests compare the
//! eight-row path with [`dot`] bit for bit (random finite values, exact
//! cancellation, sums whose `+ tail` step decides the sign of a zero,
//! subnormals, dimensions 1–67).
//!
//! The eight-row path therefore leaves the bit-level training trace as
//! [`dot`] makes it; `tests/golden_bits.rs` pins digests of scorer outputs
//! and of a seeded BNS run to hold that. Changing the summation order does
//! change it (a different but still deterministic trace): re-pin those
//! digests when doing so on purpose. Accuracy against an `f64` scalar
//! reference is property-tested here and in `tests/proptests.rs` (≤ 1e-5
//! relative).

use bns_sync::AtomicF32Cell;

/// Number of independent accumulators in the unrolled kernels.
pub const LANES: usize = 8;

/// One multiply-accumulate step.
///
/// `f32::mul_add` is only a win when the target actually codegens an FMA
/// instruction; on baseline x86-64 (SSE2) it lowers to a **libm call**,
/// which is an order of magnitude slower than the loop it lives in. The
/// workspace builds with `target-cpu=native` (see `.cargo/config.toml`),
/// so machines with FMA take the fused path; anything else falls back to
/// separate multiply+add, which the independent lanes still let LLVM
/// vectorize. Either way the summation order is fixed; the chosen path is
/// part of the binary's deterministic identity (same binary → same bits),
/// which is all the repro guards require.
#[inline(always)]
fn fmadd(a: f32, b: f32, acc: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// Reduces the lane accumulators plus a scalar tail in a fixed balanced
/// tree. One reduction order for every kernel — the bit-consistency
/// contract of the module.
#[inline(always)]
fn reduce(acc: [f32; LANES], tail: f32) -> f32 {
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

/// Unrolled dot product with [`LANES`] accumulators and `mul_add`.
///
/// Panics in debug builds when the lengths differ; the release path
/// truncates to the shorter slice via `chunks_exact`/`zip`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    let mut acc = [0.0f32; LANES];
    let a_chunks = a.chunks_exact(LANES);
    let b_chunks = b.chunks_exact(LANES);
    let a_rem = a_chunks.remainder();
    let b_rem = b_chunks.remainder();
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for l in 0..LANES {
            acc[l] = fmadd(ca[l], cb[l], acc[l]);
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a_rem.iter().zip(b_rem) {
        tail = fmadd(x, y, tail);
    }
    reduce(acc, tail)
}

/// [`dot`] over one plain row and one row of relaxed-atomic bit cells —
/// the hogwild variant. Identical accumulation structure, so for equal
/// values the result is bitwise equal to [`dot`].
#[inline]
pub fn dot_atomic(a: &[f32], cells: &[AtomicF32Cell]) -> f32 {
    debug_assert_eq!(a.len(), cells.len(), "dot operands must have equal length");
    let mut acc = [0.0f32; LANES];
    let a_chunks = a.chunks_exact(LANES);
    let c_chunks = cells.chunks_exact(LANES);
    let a_rem = a_chunks.remainder();
    let c_rem = c_chunks.remainder();
    for (ca, cc) in a_chunks.zip(c_chunks) {
        for l in 0..LANES {
            acc[l] = fmadd(ca[l], cc[l].load(), acc[l]);
        }
    }
    let mut tail = 0.0f32;
    for (&x, cell) in a_rem.iter().zip(c_rem) {
        tail = fmadd(x, cell.load(), tail);
    }
    reduce(acc, tail)
}

/// Dense GEMV: fills `out[i] = dot(user, items[i·d .. (i+1)·d])` for the
/// row-major `out.len() × user.len()` table `items`.
///
/// The user row stays resident in registers/L1 while the item table
/// streams through once — the blocked form of Algorithm 1 line 4.
#[inline]
pub fn gemv(user: &[f32], items: &[f32], out: &mut [f32]) {
    let d = user.len();
    debug_assert_eq!(
        items.len(),
        d * out.len(),
        "item table shape does not match user dim × out len"
    );
    let n = out.len().min(items.len() / d.max(1));
    dots_by_row(user, &mut out[..n], |i| &items[i * d..(i + 1) * d]);
}

/// Gather-dot: fills `out[k] = dot(user, items[ids[k]])` for an arbitrary
/// id subset of the row-major item table — the batched
/// `Scorer::score_items` kernel behind `ScoreAccess::Candidates`.
#[inline]
pub fn gather_dots(user: &[f32], items: &[f32], ids: &[u32], out: &mut [f32]) {
    let d = user.len();
    debug_assert_eq!(ids.len(), out.len(), "one output slot per gathered id");
    let n = out.len().min(ids.len());
    dots_by_row(user, &mut out[..n], |k| {
        let i = ids[k] as usize;
        &items[i * d..(i + 1) * d]
    });
}

/// Fills `out[k] = dot(user, row(k))` for rows of `user.len()` floats. With
/// AVX2 and FMA, full groups of [`LANES`] rows go through [`dots8_avx2`];
/// the rest, and every row elsewhere, through [`dot`].
#[inline(always)]
fn dots_by_row<'a>(user: &[f32], out: &mut [f32], row: impl Fn(usize) -> &'a [f32]) {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    let done = {
        let full = out.len() - out.len() % LANES;
        for (g, group) in out[..full].chunks_exact_mut(LANES).enumerate() {
            let rows = std::array::from_fn(|r| row(g * LANES + r));
            group.copy_from_slice(&dots8_avx2(user, rows));
        }
        full
    };
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    let done = 0;
    for (k, slot) in out.iter_mut().enumerate().skip(done) {
        *slot = dot(user, row(k));
    }
}

/// [`LANES`] dots of one user row against `rows` (each of `user.len()`
/// floats), bitwise equal to [`dot`] per row. Each row keeps its own
/// accumulator register and FMA chain, and the user chunk is loaded once
/// for all of them. The [`reduce`] tree runs transposed: lane-half adds
/// give `[s(r), s(r+4)]` per row pair with `s = [a0+a4, a1+a5, a2+a6,
/// a3+a7]`, one horizontal add gives each row's `s0+s1` and `s2+s3`, a
/// second gives `(s0+s1)+(s2+s3)` for rows 0..8 in order, and the scalar
/// tails are added last. The shuffles are shared by eight rows instead of
/// paid per row.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
#[inline(always)]
fn dots8_avx2(user: &[f32], rows: [&[f32]; LANES]) -> [f32; LANES] {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_hadd_ps, _mm256_loadu_ps,
        _mm256_permute2f128_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let d = user.len();
    let body = d - d % LANES;
    let mut tails = [0.0f32; LANES];
    for (tail, row) in tails.iter_mut().zip(rows) {
        for (&x, &y) in user[body..].iter().zip(&row[body..]) {
            *tail = fmadd(x, y, *tail);
        }
    }
    let mut out = [0.0f32; LANES];
    // SAFETY: the cfg on this function admits it only to builds that
    // enable AVX2 and FMA for the whole binary, so every intrinsic here is
    // supported by any CPU the binary runs on. Every row has `d` floats
    // (the callers slice them as `user.len()` wide; indexing `row[body..]`
    // above panics otherwise), and `k + LANES <= body <= d`, so each
    // unaligned 256-bit load reads inside its slice; `tails` and `out` are
    // LANES floats.
    unsafe {
        let mut acc: [__m256; LANES] = [_mm256_setzero_ps(); LANES];
        for k in (0..body).step_by(LANES) {
            let u = _mm256_loadu_ps(user.as_ptr().add(k));
            for (a, row) in acc.iter_mut().zip(rows) {
                *a = _mm256_fmadd_ps(u, _mm256_loadu_ps(row.as_ptr().add(k)), *a);
            }
        }
        let halves = |lo: __m256, hi: __m256| {
            _mm256_add_ps(
                _mm256_permute2f128_ps::<0x20>(lo, hi),
                _mm256_permute2f128_ps::<0x31>(lo, hi),
            )
        };
        let pairs01 = _mm256_hadd_ps(halves(acc[0], acc[4]), halves(acc[1], acc[5]));
        let pairs23 = _mm256_hadd_ps(halves(acc[2], acc[6]), halves(acc[3], acc[7]));
        let total = _mm256_hadd_ps(pairs01, pairs23);
        let sums = _mm256_add_ps(total, _mm256_loadu_ps(tails.as_ptr()));
        _mm256_storeu_ps(out.as_mut_ptr(), sums);
    }
    out
}

/// One BPR SGD step over the three rows of a triple `(u, i, j)` with
/// gradient magnitude `g = info(j)` (Rendle et al., UAI 2009):
///
/// ```text
/// wᵤ += α (g·(hᵢ − hⱼ) − λ wᵤ)
/// hᵢ += α (g·wᵤ        − λ hᵢ)
/// hⱼ += α (−g·wᵤ       − λ hⱼ)
/// ```
///
/// All three writes use the pre-update values of the current dimension.
/// This is the **one** copy of the per-triple update arithmetic: both
/// `MatrixFactorization::accumulate_triple` and the `k = 1` rows of the
/// blocked `update_batch` path call it, which is what keeps the batched
/// trainer bitwise identical to the per-triple trace at `k = 1`.
#[inline]
pub fn bpr_step(wu: &mut [f32], hi: &mut [f32], hj: &mut [f32], g: f32, lr: f32, reg: f32) {
    let dim = wu.len();
    debug_assert_eq!(hi.len(), dim, "row dims must agree");
    debug_assert_eq!(hj.len(), dim, "row dims must agree");
    for k in 0..dim {
        let (wuk, hik, hjk) = (wu[k], hi[k], hj[k]);
        wu[k] += lr * (g * (hik - hjk) - reg * wuk);
        hi[k] += lr * (g * wuk - reg * hik);
        hj[k] += lr * (-g * wuk - reg * hjk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f64 scalar reference for accuracy checks.
    fn dot_ref(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum::<f64>()
    }

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        // Deterministic, sign-alternating values in ~[-1, 1].
        (0..n)
            .map(|i| {
                let h = (i as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seed.wrapping_mul(40503));
                ((h % 2000) as f32 / 1000.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn dot_matches_reference_across_lengths() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 100] {
            let a = pseudo(n, 1);
            let b = pseudo(n, 2);
            let got = dot(&a, &b) as f64;
            let want = dot_ref(&a, &b);
            let tol = 1e-5 * want.abs().max(1.0);
            assert!((got - want).abs() <= tol, "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn dot_exact_small_integers() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn atomic_dot_is_bitwise_equal_to_plain_dot() {
        let mut bits = Bits(3);
        for n in 0..=67usize {
            let a: Vec<f32> = (0..n).map(|_| bits.finite()).collect();
            let b: Vec<f32> = (0..n).map(|_| bits.finite()).collect();
            let cells: Vec<AtomicF32Cell> = b.iter().map(|&x| AtomicF32Cell::new(x)).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_atomic(&a, &cells).to_bits(),
                "len {n}"
            );
        }
    }

    /// xorshift64* stream: the test's source of random bits.
    struct Bits(u64);

    impl Bits {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// A random finite f32 of either sign with exponent in 2^-60..2^60,
        /// so no product or sum of up to 67 of them overflows.
        fn finite(&mut self) -> f32 {
            let r = self.next();
            let exp = 127 - 60 + (r >> 32) % 121;
            f32::from_bits(((r >> 63) << 31) as u32 | (exp as u32) << 23 | (r as u32 & 0x7f_ffff))
        }

        /// A random subnormal (or zero) f32 of either sign.
        fn subnormal(&mut self) -> f32 {
            let r = self.next();
            f32::from_bits(((r >> 63) << 31) as u32 | (r as u32 & 0x7f_ffff))
        }
    }

    /// The user rows scored at dimension `d`: a random one, one of tiny
    /// values whose products underflow, and one of equal pairs that the
    /// `±1` rows of [`mixed_table`] cancel exactly.
    fn users(bits: &mut Bits, d: usize) -> [Vec<f32>; 3] {
        let xs: Vec<f32> = (0..d.div_ceil(2)).map(|_| bits.finite()).collect();
        [
            (0..d).map(|_| bits.finite()).collect(),
            vec![1e-30; d],
            (0..d).map(|k| xs[k / 2]).collect(),
        ]
    }

    /// Rows per table: twelve full groups of eight plus a remainder.
    const ROWS: usize = 8 * 12 + 5;

    /// `ROWS` rows of `d` floats, each all random finite, all subnormal,
    /// all −1e-30 (against the tiny user, every accumulator rounds to
    /// −0.0, so the sign of a zero result depends on the `+ tail` step), or
    /// alternating `1, −1` (against the paired user, every product has its
    /// negation in the neighbouring lane).
    fn mixed_table(bits: &mut Bits, d: usize) -> Vec<f32> {
        let mut table = Vec::with_capacity(ROWS * d);
        for _ in 0..ROWS {
            let kind = bits.next() % 4;
            table.extend((0..d).map(|k| match kind {
                0 => bits.finite(),
                1 => bits.subnormal(),
                2 => -1e-30,
                _ => [1.0, -1.0][k % 2],
            }));
        }
        table
    }

    /// Every `gemv` row (eight rows per step on the AVX2 + FMA path, plus a
    /// remainder) carries [`dot`]'s bits, at every dimension 1–67.
    #[test]
    fn gemv_rows_are_bitwise_equal_to_dot() {
        let mut bits = Bits(5);
        for d in 1..=67usize {
            let table = mixed_table(&mut bits, d);
            for user in users(&mut bits, d) {
                let mut out = vec![0.0f32; ROWS];
                gemv(&user, &table, &mut out);
                for (i, row) in table.chunks_exact(d).enumerate() {
                    let want = dot(&user, row).to_bits();
                    assert_eq!(out[i].to_bits(), want, "d {d}, row {i}");
                }
            }
        }
    }

    /// Under FMA, a user of 1e-30 against a row of −1e-30 rounds every
    /// accumulator to −0.0, so the sign of the zero result is decided by
    /// the `+ tail` step: −0.0 when there is a tail, +0.0 otherwise.
    #[cfg(target_feature = "fma")]
    #[test]
    fn gemv_keeps_the_sign_the_tail_step_gives_a_zero() {
        for d in 1..=67usize {
            let user = vec![1e-30f32; d];
            let table = vec![-1e-30f32; ROWS * d];
            let mut out = vec![1.0f32; ROWS];
            gemv(&user, &table, &mut out);
            let negative = d > LANES && d % LANES != 0;
            for (i, x) in out.iter().enumerate() {
                assert_eq!(*x, 0.0, "d {d}, row {i}");
                assert_eq!(x.is_sign_negative(), negative, "d {d}, row {i}");
            }
        }
    }

    /// `gather_dots` over random ids (duplicates included) equals `gemv`.
    #[test]
    fn gather_dots_matches_gemv_subset() {
        let mut bits = Bits(0xd1b5_4a32_d192_ed03);
        for d in 1..=67usize {
            let table = mixed_table(&mut bits, d);
            for user in users(&mut bits, d) {
                let mut full = vec![0.0f32; ROWS];
                gemv(&user, &table, &mut full);
                let ids: Vec<u32> = (0..300)
                    .map(|_| (bits.next() % ROWS as u64) as u32)
                    .collect();
                let mut out = vec![0.0f32; ids.len()];
                gather_dots(&user, &table, &ids, &mut out);
                for (k, &i) in ids.iter().enumerate() {
                    let want = full[i as usize].to_bits();
                    assert_eq!(out[k].to_bits(), want, "d {d}, id {i}");
                }
            }
        }
    }
}
