//! Fused convolution-window micro-kernels.
//!
//! PressedConv's inner computation — for one output pixel, K binary dot
//! products over a kh-row window — is dispatched here **once per pixel**
//! rather than once per (filter, row). Each SIMD tier gets a monomorphized
//! window function carrying the right `#[target_feature]`; inside, the
//! popcount accumulates in *vector registers across the entire window* and
//! is reduced to a scalar only once per filter. (A naive per-row kernel
//! pays a horizontal reduction per row — at VGG's kh = 3 that triples the
//! most expensive instruction in the loop.) This is where the paper's
//! register-level loop structure (tile over filters, stream packed rows)
//! lives.
//!
//! Layout contract (established by `bitflow-tensor`):
//!
//! * `input` — packed words of the whole (padded) input map; the window's
//!   row `r` occupies `input[base + r·row_stride .. +row_len]`, contiguous
//!   because width and pressed channels are adjacent in NHWC.
//! * `filters` — filter `k` occupies `filters[k·kh·row_len ..]`, rows
//!   contiguous in the same (kw, c_words) order.
//! * `out[k] = n_logical − 2·popcount(window ⊕ filter_k)`.

use crate::kernels::SimdLevel;

/// Arguments of one window evaluation (all distances in `u64` words).
#[derive(Clone, Copy, Debug)]
pub struct WindowGeom {
    /// Word offset of the window's first row in `input`.
    pub base: usize,
    /// Words between consecutive input rows (`W_padded · c_words`).
    pub row_stride: usize,
    /// Words per window row (`kw · c_words`).
    pub row_len: usize,
    /// Window rows (`kh`).
    pub kh: usize,
    /// Meaningful bits per window (`kh · kw · C_logical`).
    pub n_logical: i32,
}

/// Fully-unrolled 3×3 window with one word per pixel (C ≤ 64 — VGG's
/// conv2.x tier): the nine input words are hoisted into registers once and
/// reused across all K filters. The generic scalar loop optimizes poorly at
/// row_len = 3 (too short to vectorize, too branchy to pipeline).
fn window_3x3_1w(input: &[u64], filters: &[u64], g: WindowGeom, out: &mut [f32]) {
    debug_assert_eq!(g.row_len, 3);
    debug_assert_eq!(g.kh, 3);
    let (i0, i1, i2) = (g.base, g.base + g.row_stride, g.base + 2 * g.row_stride);
    let a = [
        input[i0],
        input[i0 + 1],
        input[i0 + 2], //
        input[i1],
        input[i1 + 1],
        input[i1 + 2], //
        input[i2],
        input[i2 + 1],
        input[i2 + 2],
    ];
    for (k, o) in out.iter_mut().enumerate() {
        let f = &filters[k * 9..k * 9 + 9];
        let pop = (a[0] ^ f[0]).count_ones()
            + (a[1] ^ f[1]).count_ones()
            + (a[2] ^ f[2]).count_ones()
            + (a[3] ^ f[3]).count_ones()
            + (a[4] ^ f[4]).count_ones()
            + (a[5] ^ f[5]).count_ones()
            + (a[6] ^ f[6]).count_ones()
            + (a[7] ^ f[7]).count_ones()
            + (a[8] ^ f[8]).count_ones();
        *o = (g.n_logical - 2 * pop as i32) as f32;
    }
}

fn window_scalar(input: &[u64], filters: &[u64], g: WindowGeom, out: &mut [f32]) {
    if g.row_len == 3 && g.kh == 3 {
        return window_3x3_1w(input, filters, g, out);
    }
    let per_filter = g.kh * g.row_len;
    for (k, o) in out.iter_mut().enumerate() {
        let f0 = k * per_filter;
        let mut pop = 0u64;
        for r in 0..g.kh {
            let a0 = g.base + r * g.row_stride;
            let a = &input[a0..a0 + g.row_len];
            let b = &filters[f0 + r * g.row_len..f0 + (r + 1) * g.row_len];
            for (&x, &y) in a.iter().zip(b.iter()) {
                pop += (x ^ y).count_ones() as u64;
            }
        }
        *o = (g.n_logical - 2 * pop as i32) as f32;
    }
}

fn window_unvectorized(input: &[u64], filters: &[u64], g: WindowGeom, out: &mut [f32]) {
    let per_filter = g.kh * g.row_len;
    for (k, o) in out.iter_mut().enumerate() {
        let f0 = k * per_filter;
        let mut pop = 0u64;
        for r in 0..g.kh {
            let a0 = g.base + r * g.row_stride;
            let a = &input[a0..a0 + g.row_len];
            let b = &filters[f0 + r * g.row_len..f0 + (r + 1) * g.row_len];
            for (&x, &y) in a.iter().zip(b.iter()) {
                // black_box defeats auto-vectorization: one XOR + one
                // scalar POPCNT per word (the unoptimized baseline).
                pop += std::hint::black_box(x ^ y).count_ones() as u64;
            }
        }
        *o = (g.n_logical - 2 * pop as i32) as f32;
    }
}

/// SSE window: 128-bit xor, scalar `POPCNT` per lane (SSE has no vector
/// popcount), scalar accumulation — nothing to hoist.
///
/// # Safety
/// Requires SSE2; geometry must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn window_sse(input: &[u64], filters: &[u64], g: WindowGeom, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let per_filter = g.kh * g.row_len;
    for (k, o) in out.iter_mut().enumerate() {
        let f0 = k * per_filter;
        let mut pop = 0u64;
        for r in 0..g.kh {
            let a = input.as_ptr().add(g.base + r * g.row_stride);
            let b = filters.as_ptr().add(f0 + r * g.row_len);
            let pairs = g.row_len / 2;
            for i in 0..pairs {
                let va = _mm_loadu_si128(a.add(2 * i) as *const __m128i);
                let vb = _mm_loadu_si128(b.add(2 * i) as *const __m128i);
                let x = _mm_xor_si128(va, vb);
                pop += (_mm_cvtsi128_si64(x) as u64).count_ones() as u64;
                pop += (_mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)) as u64).count_ones() as u64;
            }
            if g.row_len % 2 == 1 {
                pop += (*a.add(g.row_len - 1) ^ *b.add(g.row_len - 1)).count_ones() as u64;
            }
        }
        *o = (g.n_logical - 2 * pop as i32) as f32;
    }
}

/// AVX2 window: 256-bit xor + nibble-lookup popcount, with the per-64-bit
/// lane counts accumulated in a 256-bit register across the *whole window*
/// and reduced once per filter.
///
/// # Safety
/// Requires AVX2; geometry must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn window_avx2(input: &[u64], filters: &[u64], g: WindowGeom, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let per_filter = g.kh * g.row_len;
    for (k, o) in out.iter_mut().enumerate() {
        let f0 = k * per_filter;
        let mut acc = _mm256_setzero_si256();
        let mut tail_pop = 0u64;
        for r in 0..g.kh {
            let a = input.as_ptr().add(g.base + r * g.row_stride);
            let b = filters.as_ptr().add(f0 + r * g.row_len);
            let quads = g.row_len / 4;
            for i in 0..quads {
                let va = _mm256_loadu_si256(a.add(4 * i) as *const __m256i);
                let vb = _mm256_loadu_si256(b.add(4 * i) as *const __m256i);
                let x = _mm256_xor_si256(va, vb);
                acc = _mm256_add_epi64(acc, crate::popcount::popcount_m256_lookup(x));
            }
            for i in quads * 4..g.row_len {
                tail_pop += (*a.add(i) ^ *b.add(i)).count_ones() as u64;
            }
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let pop = lanes.iter().sum::<u64>() + tail_pop;
        *o = (g.n_logical - 2 * pop as i32) as f32;
    }
}

/// AVX-512 window with native VPOPCNTDQ: 512-bit xor + `VPOPCNTQ`, masked
/// row tails, vector accumulation across the window, one
/// `_mm512_reduce_add_epi64` per filter.
///
/// # Safety
/// Requires AVX512F + AVX512VPOPCNTDQ; geometry must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn window_avx512(input: &[u64], filters: &[u64], g: WindowGeom, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let per_filter = g.kh * g.row_len;
    let octs = g.row_len / 8;
    let tail = g.row_len - octs * 8;
    let tail_mask: __mmask8 = if tail == 0 { 0 } else { (1u8 << tail) - 1 };
    for (k, o) in out.iter_mut().enumerate() {
        let f0 = k * per_filter;
        let mut acc = _mm512_setzero_si512();
        for r in 0..g.kh {
            let a = input.as_ptr().add(g.base + r * g.row_stride);
            let b = filters.as_ptr().add(f0 + r * g.row_len);
            for i in 0..octs {
                let va = _mm512_loadu_si512(a.add(8 * i) as *const __m512i);
                let vb = _mm512_loadu_si512(b.add(8 * i) as *const __m512i);
                acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
            }
            if tail != 0 {
                let va = _mm512_maskz_loadu_epi64(tail_mask, a.add(octs * 8) as *const i64);
                let vb = _mm512_maskz_loadu_epi64(tail_mask, b.add(octs * 8) as *const i64);
                let x = _mm512_maskz_xor_epi64(tail_mask, va, vb);
                acc = _mm512_add_epi64(acc, _mm512_maskz_popcnt_epi64(tail_mask, x));
            }
        }
        let pop = _mm512_reduce_add_epi64(acc) as u64;
        *o = (g.n_logical - 2 * pop as i32) as f32;
    }
}

/// AVX-512 window without VPOPCNTDQ (Skylake-SP class): 512-bit xor, AVX2
/// nibble-lookup popcount on the two halves, vector accumulation.
///
/// # Safety
/// Requires AVX512F + AVX2; geometry must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
unsafe fn window_avx512_lookup(input: &[u64], filters: &[u64], g: WindowGeom, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let per_filter = g.kh * g.row_len;
    for (k, o) in out.iter_mut().enumerate() {
        let f0 = k * per_filter;
        let mut acc = _mm256_setzero_si256();
        let mut tail_pop = 0u64;
        for r in 0..g.kh {
            let a = input.as_ptr().add(g.base + r * g.row_stride);
            let b = filters.as_ptr().add(f0 + r * g.row_len);
            let octs = g.row_len / 8;
            for i in 0..octs {
                let va = _mm512_loadu_si512(a.add(8 * i) as *const __m512i);
                let vb = _mm512_loadu_si512(b.add(8 * i) as *const __m512i);
                let x = _mm512_xor_si512(va, vb);
                let lo = _mm512_castsi512_si256(x);
                let hi = _mm512_extracti64x4_epi64::<1>(x);
                acc = _mm256_add_epi64(acc, crate::popcount::popcount_m256_lookup(lo));
                acc = _mm256_add_epi64(acc, crate::popcount::popcount_m256_lookup(hi));
            }
            for i in octs * 8..g.row_len {
                tail_pop += (*a.add(i) ^ *b.add(i)).count_ones() as u64;
            }
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let pop = lanes.iter().sum::<u64>() + tail_pop;
        *o = (g.n_logical - 2 * pop as i32) as f32;
    }
}

/// Evaluates one convolution window against all K filters at the requested
/// SIMD level, falling back to scalar when the level is unavailable.
///
/// # Panics
/// If the window reaches past `input` or the `out.len()` filters reach
/// past `filters`. The SIMD tiers load through raw pointers, so these two
/// O(1) checks are what keeps this safe function sound; they hold in
/// release builds too.
#[inline]
pub fn conv_window(
    level: SimdLevel,
    input: &[u64],
    filters: &[u64],
    g: WindowGeom,
    out: &mut [f32],
) {
    let window_end =
        g.kh.saturating_sub(1)
            .checked_mul(g.row_stride)
            .and_then(|rows| rows.checked_add(g.base))
            .and_then(|start| start.checked_add(g.row_len));
    assert!(
        g.kh == 0 || window_end.is_some_and(|end| end <= input.len()),
        "conv window reaches past the input ({} words)",
        input.len()
    );
    let filter_words = out
        .len()
        .checked_mul(g.kh)
        .and_then(|n| n.checked_mul(g.row_len));
    assert!(
        filter_words.is_some_and(|n| n <= filters.len()),
        "conv filters reach past the bank ({} words)",
        filters.len()
    );
    #[cfg(target_arch = "x86_64")]
    {
        let f = crate::detect::features();
        match level {
            SimdLevel::Unvectorized => window_unvectorized(input, filters, g, out),
            SimdLevel::Scalar => window_scalar(input, filters, g, out),
            SimdLevel::Sse if f.sse2 => {
                // SAFETY: sse2 verified by the detector; bounds asserted above.
                unsafe { window_sse(input, filters, g, out) }
            }
            SimdLevel::Avx2 if f.avx2 => {
                // SAFETY: avx2 verified by the detector; bounds asserted above.
                unsafe { window_avx2(input, filters, g, out) }
            }
            SimdLevel::Avx512 if f.avx512f && f.avx512vpopcntdq => {
                // SAFETY: avx512f+vpopcntdq verified; bounds asserted above.
                unsafe { window_avx512(input, filters, g, out) }
            }
            SimdLevel::Avx512 if f.avx512f && f.avx2 => {
                // SAFETY: avx512f+avx2 verified; bounds asserted above.
                unsafe { window_avx512_lookup(input, filters, g, out) }
            }
            _ => window_scalar(input, filters, g, out),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        match level {
            SimdLevel::Unvectorized => window_unvectorized(input, filters, g, out),
            _ => window_scalar(input, filters, g, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn reference(input: &[u64], filters: &[u64], g: WindowGeom, k: usize) -> Vec<f32> {
        let per_filter = g.kh * g.row_len;
        (0..k)
            .map(|kk| {
                let mut pop = 0u64;
                for r in 0..g.kh {
                    for i in 0..g.row_len {
                        let a = input[g.base + r * g.row_stride + i];
                        let b = filters[kk * per_filter + r * g.row_len + i];
                        pop += (a ^ b).count_ones() as u64;
                    }
                }
                (g.n_logical - 2 * pop as i32) as f32
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "conv window reaches past the input")]
    fn window_past_the_input_panics() {
        let g = WindowGeom {
            base: 64,
            row_stride: 4,
            row_len: 1,
            kh: 1,
            n_logical: 64,
        };
        let mut out = [0.0f32; 1];
        conv_window(SimdLevel::Avx512, &[0u64; 4], &[0u64; 1], g, &mut out);
    }

    #[test]
    #[should_panic(expected = "conv filters reach past the bank")]
    fn filters_past_the_bank_panic() {
        let g = WindowGeom {
            base: 0,
            row_stride: 4,
            row_len: 4,
            kh: 1,
            n_logical: 256,
        };
        let mut out = [0.0f32; 2];
        conv_window(SimdLevel::Avx512, &[0u64; 4], &[0u64; 4], g, &mut out);
    }

    #[test]
    fn all_levels_match_reference() {
        let mut rng = StdRng::seed_from_u64(77);
        for (kh, row_len, row_stride, k) in [
            (3usize, 3usize, 20usize, 5usize),
            (1, 8, 8, 3),
            (3, 24, 100, 16),
            (2, 1, 7, 1),
            (3, 12, 40, 9),
            (3, 9, 30, 2),  // odd row_len: SSE pair tail + AVX-512 mask tail
            (2, 17, 50, 4), // tail > 8
        ] {
            let input: Vec<u64> = (0..row_stride * (kh + 2) + row_len)
                .map(|_| rng.gen())
                .collect();
            let filters: Vec<u64> = (0..k * kh * row_len).map(|_| rng.gen()).collect();
            let g = WindowGeom {
                base: 2,
                row_stride,
                row_len,
                kh,
                n_logical: (kh * row_len * 64) as i32,
            };
            let want = reference(&input, &filters, g, k);
            for level in [
                SimdLevel::Unvectorized,
                SimdLevel::Scalar,
                SimdLevel::Sse,
                SimdLevel::Avx2,
                SimdLevel::Avx512,
            ] {
                let mut out = vec![0.0f32; k];
                conv_window(level, &input, &filters, g, &mut out);
                assert_eq!(out, want, "{level} kh={kh} row_len={row_len}");
            }
        }
    }
}
