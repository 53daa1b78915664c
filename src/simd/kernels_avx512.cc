// AVX-512 (F+BW+VL) implementations of the full KernelTable.
//
// Lane structure of the tier (the single-pair kernels define it; every
// batch/tile lane reproduces it bit-for-bit, per the contract in
// kernels.h):
//
//   - Float kernels run two zmm accumulators over 32-float strides, one
//     over 16, and finish the d%16 remainder with ONE masked 16-wide step
//     (_mm512_maskz_loadu_ps zeroes the dead lanes, so the FMA is a no-op
//     there). There are no scalar float tails anywhere in this file: the
//     whole reduction is explicit intrinsics, so the compiler cannot
//     change contraction between batch and single-pair compilations.
//   - The ADC kernels gather 16 codes per group (zmm vgatherdps). Each
//     group's code bytes are byte-transposed ONCE (the SSE transpose the
//     fast-scan kernels use), so every sub-space's gather-index vector is
//     a single vpmovzxbd instead of 16 scalar byte loads; the count%16
//     remainder stages its rows into zeroed scratch and masks the store —
//     the float accumulation order per lane (sequential in the sub-space
//     s) is identical for full and remainder groups.
//   - The fast-scan kernels transpose 16 packed rows per block and look up
//     FOUR sub-spaces x 16 candidates with one zmm vpshufb (64 nibble
//     lookups per instruction; a 64-byte LUT load covers four consecutive
//     16-entry sub-tables). Sums are exact u16 integers, so they equal the
//     scalar/AVX2 sums bit-for-bit by construction.
//   - The tiled kernels use the 32 zmm registers for genuine
//     rows x queries register tiles: L2SqrTile keeps two queries' worth of
//     Batch4 accumulators live per dimension pass, PqAdcTile reuses each
//     gather-index vector across sub-groups of EIGHT per-query tables
//     (AVX2's 16 ymm registers capped this at four).
//   - The nearest-centroid scan turns the layout around below 17
//     dimensions: points in lanes, one register per coordinate, and each
//     lane repeats the single-pair kernel's reduction tree as vertical
//     adds (see SmallDimL2Sqr).
#include "simd/kernels.h"

#if defined(RESINFER_HAVE_AVX512)

// GCC's avx512 intrinsic headers route several intrinsics (cvtepu8_epi32,
// reduce_add_ps, masked gathers) through _mm512_undefined_si512, which
// trips -Wuninitialized/-Wmaybe-uninitialized inside the SYSTEM header
// under -O2 inlining (GCC bug 105593). Nothing in this file reads
// uninitialized state; silence the false positive for the whole TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include <cstring>
#include <limits>

namespace resinfer::simd::internal {

namespace {

// Horizontal sum of a 512-bit float vector. _mm512_reduce_add_ps expands
// to a fixed shuffle/add tree, so every caller in this TU reduces in the
// same order — the bit-identity between single-pair and batch lanes rests
// on that.
inline float ReduceAdd(__m512 v) { return _mm512_reduce_add_ps(v); }

// Mask covering the last n - i lanes of a 16-wide step (1 <= n - i < 16).
inline __mmask16 TailMask(std::size_t i, std::size_t n) {
  return static_cast<__mmask16>((1u << (n - i)) - 1u);
}

}  // namespace

float L2SqrAvx512(const float* a, const float* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                              _mm512_loadu_ps(b + i + 16));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= n; i += 16) {
    __m512 d = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  if (i < n) {
    const __mmask16 mask = TailMask(i, n);
    __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, a + i),
                             _mm512_maskz_loadu_ps(mask, b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);  // dead lanes add 0 * 0
  }
  return ReduceAdd(_mm512_add_ps(acc0, acc1));
}

float InnerProductAvx512(const float* a, const float* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  if (i < n) {
    const __mmask16 mask = TailMask(i, n);
    acc0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, a + i),
                           _mm512_maskz_loadu_ps(mask, b + i), acc0);
  }
  return ReduceAdd(_mm512_add_ps(acc0, acc1));
}

float Norm2SqrAvx512(const float* a, std::size_t n) {
  return InnerProductAvx512(a, a, n);
}

void AxpyAvx512(float scale, const float* x, float* out, std::size_t n) {
  const __m512 s = _mm512_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 o = _mm512_loadu_ps(out + i);
    o = _mm512_fmadd_ps(s, _mm512_loadu_ps(x + i), o);
    _mm512_storeu_ps(out + i, o);
  }
  if (i < n) {
    const __mmask16 mask = TailMask(i, n);
    __m512 o = _mm512_maskz_loadu_ps(mask, out + i);
    o = _mm512_fmadd_ps(s, _mm512_maskz_loadu_ps(mask, x + i), o);
    _mm512_mask_storeu_ps(out + i, mask, o);
  }
}

namespace {

// 16 code bytes widened to 16 floats (full step and masked tail share it;
// a masked byte load zeroes the dead lanes before widening).
inline __m512 LoadCodes16(const uint8_t* code) {
  return _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(code))));
}

inline __m512 LoadCodes16Masked(const uint8_t* code, __mmask16 mask) {
  return _mm512_cvtepi32_ps(
      _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(mask, code)));
}

}  // namespace

float SqAdcL2SqrAvx512(const float* q, const uint8_t* code,
                       const float* vmin, const float* step, std::size_t n) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 c = LoadCodes16(code + i);
    __m512 recon = _mm512_fmadd_ps(c, _mm512_loadu_ps(step + i),
                                   _mm512_loadu_ps(vmin + i));
    __m512 d = _mm512_sub_ps(_mm512_loadu_ps(q + i), recon);
    acc = _mm512_fmadd_ps(d, d, acc);
  }
  if (i < n) {
    const __mmask16 mask = TailMask(i, n);
    __m512 c = LoadCodes16Masked(code + i, mask);
    __m512 recon = _mm512_fmadd_ps(c, _mm512_maskz_loadu_ps(mask, step + i),
                                   _mm512_maskz_loadu_ps(mask, vmin + i));
    __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, q + i), recon);
    acc = _mm512_fmadd_ps(d, d, acc);
  }
  return ReduceAdd(acc);
}

void L2SqrBatch4Avx512(const float* q, const float* const* rows,
                       std::size_t n, float* out) {
  // Per-lane structure identical to L2SqrAvx512 (two accumulators over
  // 32-float strides, one over 16, masked tail); query loads shared.
  __m512 acc0[4], acc1[4];
  for (int r = 0; r < 4; ++r) {
    acc0[r] = _mm512_setzero_ps();
    acc1[r] = _mm512_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 qa = _mm512_loadu_ps(q + i);
    const __m512 qb = _mm512_loadu_ps(q + i + 16);
    for (int r = 0; r < 4; ++r) {
      __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(rows[r] + i), qa);
      __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(rows[r] + i + 16), qb);
      acc0[r] = _mm512_fmadd_ps(d0, d0, acc0[r]);
      acc1[r] = _mm512_fmadd_ps(d1, d1, acc1[r]);
    }
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 qa = _mm512_loadu_ps(q + i);
    for (int r = 0; r < 4; ++r) {
      __m512 d = _mm512_sub_ps(_mm512_loadu_ps(rows[r] + i), qa);
      acc0[r] = _mm512_fmadd_ps(d, d, acc0[r]);
    }
  }
  if (i < n) {
    const __mmask16 mask = TailMask(i, n);
    const __m512 qa = _mm512_maskz_loadu_ps(mask, q + i);
    for (int r = 0; r < 4; ++r) {
      __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, rows[r] + i), qa);
      acc0[r] = _mm512_fmadd_ps(d, d, acc0[r]);
    }
  }
  for (int r = 0; r < 4; ++r) {
    out[r] = ReduceAdd(_mm512_add_ps(acc0[r], acc1[r]));
  }
}

void InnerProductBatch4Avx512(const float* q, const float* const* rows,
                              std::size_t n, float* out) {
  // Per-lane structure identical to InnerProductAvx512.
  __m512 acc0[4], acc1[4];
  for (int r = 0; r < 4; ++r) {
    acc0[r] = _mm512_setzero_ps();
    acc1[r] = _mm512_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 qa = _mm512_loadu_ps(q + i);
    const __m512 qb = _mm512_loadu_ps(q + i + 16);
    for (int r = 0; r < 4; ++r) {
      acc0[r] = _mm512_fmadd_ps(_mm512_loadu_ps(rows[r] + i), qa, acc0[r]);
      acc1[r] = _mm512_fmadd_ps(_mm512_loadu_ps(rows[r] + i + 16), qb,
                                acc1[r]);
    }
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 qa = _mm512_loadu_ps(q + i);
    for (int r = 0; r < 4; ++r) {
      acc0[r] = _mm512_fmadd_ps(_mm512_loadu_ps(rows[r] + i), qa, acc0[r]);
    }
  }
  if (i < n) {
    const __mmask16 mask = TailMask(i, n);
    const __m512 qa = _mm512_maskz_loadu_ps(mask, q + i);
    for (int r = 0; r < 4; ++r) {
      acc0[r] = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, rows[r] + i),
                                qa, acc0[r]);
    }
  }
  for (int r = 0; r < 4; ++r) {
    out[r] = ReduceAdd(_mm512_add_ps(acc0[r], acc1[r]));
  }
}

void SqAdcL2SqrBatch4Avx512(const float* q, const uint8_t* const* codes,
                            const float* vmin, const float* step,
                            std::size_t n, float* out) {
  // Per-lane structure identical to SqAdcL2SqrAvx512 (one accumulator,
  // 16-wide strides, masked tail); query/range loads shared.
  __m512 acc[4];
  for (int r = 0; r < 4; ++r) acc[r] = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 qv = _mm512_loadu_ps(q + i);
    const __m512 sv = _mm512_loadu_ps(step + i);
    const __m512 mv = _mm512_loadu_ps(vmin + i);
    for (int r = 0; r < 4; ++r) {
      __m512 recon = _mm512_fmadd_ps(LoadCodes16(codes[r] + i), sv, mv);
      __m512 d = _mm512_sub_ps(qv, recon);
      acc[r] = _mm512_fmadd_ps(d, d, acc[r]);
    }
  }
  if (i < n) {
    const __mmask16 mask = TailMask(i, n);
    const __m512 qv = _mm512_maskz_loadu_ps(mask, q + i);
    const __m512 sv = _mm512_maskz_loadu_ps(mask, step + i);
    const __m512 mv = _mm512_maskz_loadu_ps(mask, vmin + i);
    for (int r = 0; r < 4; ++r) {
      __m512 recon =
          _mm512_fmadd_ps(LoadCodes16Masked(codes[r] + i, mask), sv, mv);
      __m512 d = _mm512_sub_ps(qv, recon);
      acc[r] = _mm512_fmadd_ps(d, d, acc[r]);
    }
  }
  for (int r = 0; r < 4; ++r) out[r] = ReduceAdd(acc[r]);
}

namespace {

// Bound on the per-block byte-column scratch shared by the gather and
// fast-scan kernels: ceil(256 / 2) packed fast-scan bytes covers the
// documented m <= 256 limit (see kernels.h), and the gather kernels fall
// back to the (bit-identical, sequential-order) scalar kernels beyond 128
// full-byte sub-spaces.
constexpr int kMaxByteColumns = 128;

// cols[j] = byte j of rows[0..15], row 0 in byte 0. Full 8-column segments
// go through two 8x8 byte transposes (one per 8-row half) whose paired
// column outputs interleave with unpacklo/hi_epi64; the 8-byte row loads
// stay inside each row because j + 8 <= packed. Tail columns are assembled
// bytewise so the kernel never reads past a packed row's end (records sit
// at arbitrary strides, including the very end of a CodeStore allocation).
inline void Transpose8x8(const uint8_t* const* rows, int j, __m128i pair[4]) {
  const __m128i r0 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rows[0] + j));
  const __m128i r1 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rows[1] + j));
  const __m128i r2 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rows[2] + j));
  const __m128i r3 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rows[3] + j));
  const __m128i r4 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rows[4] + j));
  const __m128i r5 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rows[5] + j));
  const __m128i r6 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rows[6] + j));
  const __m128i r7 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rows[7] + j));
  const __m128i a0 = _mm_unpacklo_epi8(r0, r1);
  const __m128i a1 = _mm_unpacklo_epi8(r2, r3);
  const __m128i a2 = _mm_unpacklo_epi8(r4, r5);
  const __m128i a3 = _mm_unpacklo_epi8(r6, r7);
  const __m128i b0 = _mm_unpacklo_epi16(a0, a1);
  const __m128i b1 = _mm_unpacklo_epi16(a2, a3);
  const __m128i b2 = _mm_unpackhi_epi16(a0, a1);
  const __m128i b3 = _mm_unpackhi_epi16(a2, a3);
  pair[0] = _mm_unpacklo_epi32(b0, b1);  // columns j, j+1 (8 bytes each)
  pair[1] = _mm_unpackhi_epi32(b0, b1);  // columns j+2, j+3
  pair[2] = _mm_unpacklo_epi32(b2, b3);  // columns j+4, j+5
  pair[3] = _mm_unpackhi_epi32(b2, b3);  // columns j+6, j+7
}

// Sixteen full 16-byte row segments -> sixteen columns at zmm width: four
// zmm hold the 16x16 byte block (v[q] lane L = row 4L+q), two unpack
// rounds produce per-lane dwords of four-row column slices, and ONE
// cross-lane vpermd per four columns assembles the finished column
// vectors — under half the uops of four SSE 8x8 transposes, and the
// dominant cost of the single-query fast-scan kernel.
inline void TransposeSegment16(const uint8_t* const* rows, int j,
                               __m128i* cols) {
  __m512i v[4];
  for (int q = 0; q < 4; ++q) {
    __m512i t = _mm512_castsi128_si512(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(rows[q] + j)));
    t = _mm512_inserti32x4(
        t,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[q + 4] + j)),
        1);
    t = _mm512_inserti32x4(
        t,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[q + 8] + j)),
        2);
    t = _mm512_inserti32x4(
        t,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[q + 12] + j)),
        3);
    v[q] = t;
  }
  // Lane L after round two: B0 = cols j..j+3 of rows 4L..4L+3 (one dword
  // per column), B1 = cols j+4.., B2 = cols j+8.., B3 = cols j+12...
  const __m512i a0 = _mm512_unpacklo_epi8(v[0], v[1]);
  const __m512i a1 = _mm512_unpackhi_epi8(v[0], v[1]);
  const __m512i a2 = _mm512_unpacklo_epi8(v[2], v[3]);
  const __m512i a3 = _mm512_unpackhi_epi8(v[2], v[3]);
  const __m512i b0 = _mm512_unpacklo_epi16(a0, a2);
  const __m512i b1 = _mm512_unpackhi_epi16(a0, a2);
  const __m512i b2 = _mm512_unpacklo_epi16(a1, a3);
  const __m512i b3 = _mm512_unpackhi_epi16(a1, a3);
  // Dword k of lane L is one four-row slice of column (4-col base + k);
  // this permute gathers each column's four slices into one 128-bit lane.
  const __m512i idx = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13,
                                        2, 6, 10, 14, 3, 7, 11, 15);
  _mm512_storeu_si512(reinterpret_cast<void*>(cols + j),
                      _mm512_permutexvar_epi32(idx, b0));
  _mm512_storeu_si512(reinterpret_cast<void*>(cols + j + 4),
                      _mm512_permutexvar_epi32(idx, b1));
  _mm512_storeu_si512(reinterpret_cast<void*>(cols + j + 8),
                      _mm512_permutexvar_epi32(idx, b2));
  _mm512_storeu_si512(reinterpret_cast<void*>(cols + j + 12),
                      _mm512_permutexvar_epi32(idx, b3));
}

inline void GatherColumns16(const uint8_t* const* rows, int packed,
                            __m128i* cols) {
  int j = 0;
  for (; j + 16 <= packed; j += 16) {
    TransposeSegment16(rows, j, cols);
  }
  for (; j + 8 <= packed; j += 8) {
    __m128i lo[4], hi[4];
    Transpose8x8(rows, j, lo);      // rows 0..7
    Transpose8x8(rows + 8, j, hi);  // rows 8..15
    for (int p = 0; p < 4; ++p) {
      cols[j + 2 * p] = _mm_unpacklo_epi64(lo[p], hi[p]);
      cols[j + 2 * p + 1] = _mm_unpackhi_epi64(lo[p], hi[p]);
    }
  }
  for (; j < packed; ++j) {
    alignas(16) uint8_t bytes[16];
    for (int r = 0; r < 16; ++r) bytes[r] = rows[r][j];
    cols[j] = _mm_load_si128(reinterpret_cast<const __m128i*>(bytes));
  }
}

// One 16-code gather group against one sub-space table: column s of the
// transposed code block widens to the 16 gather lanes with a single
// vpmovzxbd (building this index vector from 16 scalar byte loads is what
// made a plain-gather loop slower than the scalar kernel). Lane j adds its
// own code's table entries sequentially in s, preserving the scalar
// per-code order exactly.
inline __m512 GatherAccumulate16(const float* table, int ksub, int m,
                                 const __m128i* cols, __m512 acc) {
  int base = 0;
  for (int s = 0; s < m; ++s, base += ksub) {
    const __m512i idx = _mm512_add_epi32(_mm512_set1_epi32(base),
                                         _mm512_cvtepu8_epi32(cols[s]));
    acc = _mm512_add_ps(acc, _mm512_i32gather_ps(idx, table, 4));
  }
  return acc;
}

}  // namespace

void PqAdcBatchAvx512(const float* table, int m, int ksub,
                      const uint8_t* const* codes, int count, float* out) {
  // Sixteen codes per gather group, byte-transposed into sub-space columns
  // first (the SSE transpose shared with fast-scan) so the gather-index
  // construction is one vpmovzxbd per sub-space. The remainder group stages
  // its live rows into a zeroed fixed-stride scratch block: dead lanes
  // gather table[s * ksub] (always in bounds) and their sums are dropped by
  // the masked store. Beyond kMaxByteColumns sub-spaces the scalar kernel
  // takes over — it accumulates per code sequentially in s, so it is
  // bit-identical to the vector lanes by construction.
  if (m > kMaxByteColumns) {
    PqAdcBatchScalar(table, m, ksub, codes, count, out);
    return;
  }
  alignas(64) __m128i cols[kMaxByteColumns];
  int c = 0;
  for (; c + 16 <= count; c += 16) {
    GatherColumns16(codes + c, m, cols);
    _mm512_storeu_ps(
        out + c,
        GatherAccumulate16(table, ksub, m, cols, _mm512_setzero_ps()));
  }
  if (c < count) {
    const int rem = count - c;
    alignas(64) uint8_t scratch[16 * kMaxByteColumns] = {0};
    const uint8_t* rows[16];
    for (int r = 0; r < 16; ++r) rows[r] = scratch + r * kMaxByteColumns;
    for (int r = 0; r < rem; ++r) {
      std::memcpy(scratch + r * kMaxByteColumns, codes[c + r],
                  static_cast<std::size_t>(m));
    }
    GatherColumns16(rows, m, cols);
    const __m512 acc =
        GatherAccumulate16(table, ksub, m, cols, _mm512_setzero_ps());
    _mm512_mask_storeu_ps(out + c,
                          static_cast<__mmask16>((1u << rem) - 1u), acc);
  }
}

// --- Fast-scan (packed 4-bit codes, quantized u8 LUT) ----------------------

namespace {

// u16 LUT sums for the 16 candidates whose byte-columns are in cols. Four
// packed columns (EIGHT sub-spaces) per round: one 64-byte column load
// lines lanes up as [c_j, c_j+1, c_j+2, c_j+3], and two 64-byte LUT loads
// cover sub-tables 2j..2j+7, lane-shuffled into the even set
// [2j, 2j+2, 2j+4, 2j+6] for the low nibbles and the odd set for the high
// nibbles — two zmm vpshufb = 128 lookups per round. The u8 hits widen to
// u16 with and/srli (shift-port ops; unpacks would contend with the
// lookups for the shuffle port), so the accumulators hold EVEN candidates
// {0,2,..,14} and ODD candidates {1,3,..,15} per lane and the final fold
// re-interleaves them. Integer adds are exact, so the result equals
// PqAdcFastScanOne regardless of the lane/interleave split. Trailing
// columns (packed % 4) fall back to narrower rounds — still no lookup
// outside the lut allocation. Results for the 16 candidates are written
// through `store_mask` so a partial block never touches out-of-range
// outputs.
inline void AccumulateLut16(const uint8_t* lut, int packed,
                            const __m128i* cols, uint16_t* out,
                            __mmask16 store_mask) {
  const __m512i nib = _mm512_set1_epi8(0x0f);
  const __m512i byte_lo = _mm512_set1_epi16(0x00ff);
  __m512i acc_even = _mm512_setzero_si512();  // candidates 0,2,..,14
  __m512i acc_odd = _mm512_setzero_si512();   // candidates 1,3,..,15
  int j = 0;
  for (; j + 4 <= packed; j += 4) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(cols + j));
    const __m512i tbl_a =
        _mm512_loadu_si512(reinterpret_cast<const void*>(lut + j * 32));
    const __m512i tbl_b =
        _mm512_loadu_si512(reinterpret_cast<const void*>(lut + j * 32 + 64));
    const __m512i evens =
        _mm512_shuffle_i32x4(tbl_a, tbl_b, _MM_SHUFFLE(2, 0, 2, 0));
    const __m512i odds =
        _mm512_shuffle_i32x4(tbl_a, tbl_b, _MM_SHUFFLE(3, 1, 3, 1));
    const __m512i lo = _mm512_and_si512(v, nib);
    const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), nib);
    const __m512i vals_e = _mm512_shuffle_epi8(evens, lo);
    const __m512i vals_o = _mm512_shuffle_epi8(odds, hi);
    acc_even = _mm512_add_epi16(acc_even, _mm512_and_si512(vals_e, byte_lo));
    acc_odd = _mm512_add_epi16(acc_odd, _mm512_srli_epi16(vals_e, 8));
    acc_even = _mm512_add_epi16(acc_even, _mm512_and_si512(vals_o, byte_lo));
    acc_odd = _mm512_add_epi16(acc_odd, _mm512_srli_epi16(vals_o, 8));
  }
  if (j + 2 <= packed) {  // two-column round: 64-byte LUT, 4 sub-spaces
    const __m512i tbl =
        _mm512_loadu_si512(reinterpret_cast<const void*>(lut + j * 32));
    const __m512i tblp =
        _mm512_shuffle_i32x4(tbl, tbl, _MM_SHUFFLE(3, 1, 2, 0));
    __m512i v = _mm512_zextsi128_si512(cols[j]);
    v = _mm512_inserti32x4(v, cols[j + 1], 1);
    v = _mm512_shuffle_i32x4(v, v, _MM_SHUFFLE(1, 0, 1, 0));
    const __m512i lo = _mm512_and_si512(v, nib);
    const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), nib);
    const __m512i idx = _mm512_shuffle_i32x4(lo, hi, _MM_SHUFFLE(1, 0, 1, 0));
    const __m512i vals = _mm512_shuffle_epi8(tblp, idx);
    acc_even = _mm512_add_epi16(acc_even, _mm512_and_si512(vals, byte_lo));
    acc_odd = _mm512_add_epi16(acc_odd, _mm512_srli_epi16(vals, 8));
    j += 2;
  }
  if (j < packed) {  // odd trailing column: 32-byte LUT pair, 2 sub-spaces
    const __m256i tbl = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lut + j * 32));
    const __m128i nib128 = _mm_set1_epi8(0x0f);
    const __m128i lo = _mm_and_si128(cols[j], nib128);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(cols[j], 4), nib128);
    const __m512i vals = _mm512_zextsi256_si512(
        _mm256_shuffle_epi8(tbl, _mm256_set_m128i(hi, lo)));
    acc_even = _mm512_add_epi16(acc_even, _mm512_and_si512(vals, byte_lo));
    acc_odd = _mm512_add_epi16(acc_odd, _mm512_srli_epi16(vals, 8));
  }
  // Fold the four lanes' partial sums, then re-interleave even/odd
  // candidates into output order.
  const __m256i e2 =
      _mm256_add_epi16(_mm512_castsi512_si256(acc_even),
                       _mm512_extracti64x4_epi64(acc_even, 1));
  const __m128i e1 = _mm_add_epi16(_mm256_castsi256_si128(e2),
                                   _mm256_extracti128_si256(e2, 1));
  const __m256i o2 =
      _mm256_add_epi16(_mm512_castsi512_si256(acc_odd),
                       _mm512_extracti64x4_epi64(acc_odd, 1));
  const __m128i o1 = _mm_add_epi16(_mm256_castsi256_si128(o2),
                                   _mm256_extracti128_si256(o2, 1));
  const __m256i sums = _mm256_set_m128i(_mm_unpackhi_epi16(e1, o1),
                                        _mm_unpacklo_epi16(e1, o1));
  _mm256_mask_storeu_epi16(out, store_mask, sums);
}

// Partial block (count % 16): the remaining rows are copied into a zeroed
// scratch block so the transpose stays in-bounds, and the results of the
// pad rows are dropped by the masked store — no per-candidate scalar
// fallback.
inline void FastScanPartialBlock(const uint8_t* lut, int packed,
                                 const uint8_t* const* codes, int rem,
                                 uint16_t* out) {
  alignas(64) uint8_t scratch[16 * kMaxByteColumns] = {0};
  const uint8_t* rows[16];
  for (int r = 0; r < 16; ++r) rows[r] = scratch + r * packed;
  for (int r = 0; r < rem; ++r) {
    std::memcpy(scratch + r * packed, codes[r],
                static_cast<std::size_t>(packed));
  }
  __m128i cols[kMaxByteColumns];
  GatherColumns16(rows, packed, cols);
  AccumulateLut16(lut, packed, cols, out,
                  static_cast<__mmask16>((1u << rem) - 1u));
}

}  // namespace

void PqAdcFastScanAvx512(const uint8_t* lut, int m,
                         const uint8_t* const* codes, int count,
                         uint16_t* out) {
  const int packed = (m + 1) / 2;
  if (packed > kMaxByteColumns) {  // beyond the documented m <= 256
    PqAdcFastScanScalar(lut, m, codes, count, out);
    return;
  }
  __m128i cols[kMaxByteColumns];
  int c = 0;
  for (; c + 16 <= count; c += 16) {
    GatherColumns16(codes + c, packed, cols);
    AccumulateLut16(lut, packed, cols, out + c, 0xffff);
  }
  if (c < count) {
    FastScanPartialBlock(lut, packed, codes + c, count - c, out + c);
  }
}

void PqAdcFastScanTileAvx512(const uint8_t* const* luts, int num_queries,
                             int m, const uint8_t* const* codes, int count,
                             uint16_t* out) {
  const int packed = (m + 1) / 2;
  if (packed > kMaxByteColumns) {
    PqAdcFastScanTileScalar(luts, num_queries, m, codes, count, out);
    return;
  }
  __m128i cols[kMaxByteColumns];
  int c = 0;
  for (; c + 16 <= count; c += 16) {
    // The nibble transpose — the kernel's memory-bound half — is built
    // once per code block and reused by every group member's LUT.
    GatherColumns16(codes + c, packed, cols);
    for (int g = 0; g < num_queries; ++g) {
      AccumulateLut16(luts[g], packed, cols,
                      out + static_cast<std::size_t>(g) * count + c, 0xffff);
    }
  }
  if (c < count) {
    const int rem = count - c;
    alignas(64) uint8_t scratch[16 * kMaxByteColumns] = {0};
    const uint8_t* rows[16];
    for (int r = 0; r < 16; ++r) rows[r] = scratch + r * packed;
    for (int r = 0; r < rem; ++r) {
      std::memcpy(scratch + r * packed, codes[c + r],
                  static_cast<std::size_t>(packed));
    }
    GatherColumns16(rows, packed, cols);
    const __mmask16 mask = static_cast<__mmask16>((1u << rem) - 1u);
    for (int g = 0; g < num_queries; ++g) {
      AccumulateLut16(luts[g], packed, cols,
                      out + static_cast<std::size_t>(g) * count + c, mask);
    }
  }
}

// --- Query-tiled kernels ---------------------------------------------------

void L2SqrTileAvx512(const float* const* queries, int num_queries,
                     const float* const* rows, std::size_t n, float* out) {
  // Genuine register tile: two queries' worth of Batch4 accumulator state
  // (2 x 4 x 2 = 16 zmm) plus query broadcasts and row loads stay resident
  // across each dimension pass — the candidate rows are loaded once per
  // TWO group members instead of once per member. Each lane (g, r) runs
  // the exact L2SqrBatch4Avx512 operation sequence (32/16-stride
  // accumulators, masked tail), so bit-identity with the single-query
  // kernels is preserved; AVX2's 16 ymm registers could not hold a
  // two-query tile without spills, which is why its tile is a per-member
  // loop.
  int g = 0;
  for (; g + 2 <= num_queries; g += 2) {
    const float* q0 = queries[g];
    const float* q1 = queries[g + 1];
    __m512 acc0[2][4], acc1[2][4];
    for (int t = 0; t < 2; ++t) {
      for (int r = 0; r < 4; ++r) {
        acc0[t][r] = _mm512_setzero_ps();
        acc1[t][r] = _mm512_setzero_ps();
      }
    }
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      const __m512 q0a = _mm512_loadu_ps(q0 + i);
      const __m512 q0b = _mm512_loadu_ps(q0 + i + 16);
      const __m512 q1a = _mm512_loadu_ps(q1 + i);
      const __m512 q1b = _mm512_loadu_ps(q1 + i + 16);
      for (int r = 0; r < 4; ++r) {
        const __m512 ra = _mm512_loadu_ps(rows[r] + i);
        const __m512 rb = _mm512_loadu_ps(rows[r] + i + 16);
        __m512 d0 = _mm512_sub_ps(ra, q0a);
        __m512 d1 = _mm512_sub_ps(rb, q0b);
        acc0[0][r] = _mm512_fmadd_ps(d0, d0, acc0[0][r]);
        acc1[0][r] = _mm512_fmadd_ps(d1, d1, acc1[0][r]);
        d0 = _mm512_sub_ps(ra, q1a);
        d1 = _mm512_sub_ps(rb, q1b);
        acc0[1][r] = _mm512_fmadd_ps(d0, d0, acc0[1][r]);
        acc1[1][r] = _mm512_fmadd_ps(d1, d1, acc1[1][r]);
      }
    }
    for (; i + 16 <= n; i += 16) {
      const __m512 q0a = _mm512_loadu_ps(q0 + i);
      const __m512 q1a = _mm512_loadu_ps(q1 + i);
      for (int r = 0; r < 4; ++r) {
        const __m512 ra = _mm512_loadu_ps(rows[r] + i);
        __m512 d = _mm512_sub_ps(ra, q0a);
        acc0[0][r] = _mm512_fmadd_ps(d, d, acc0[0][r]);
        d = _mm512_sub_ps(ra, q1a);
        acc0[1][r] = _mm512_fmadd_ps(d, d, acc0[1][r]);
      }
    }
    if (i < n) {
      const __mmask16 mask = TailMask(i, n);
      const __m512 q0a = _mm512_maskz_loadu_ps(mask, q0 + i);
      const __m512 q1a = _mm512_maskz_loadu_ps(mask, q1 + i);
      for (int r = 0; r < 4; ++r) {
        const __m512 ra = _mm512_maskz_loadu_ps(mask, rows[r] + i);
        __m512 d = _mm512_sub_ps(ra, q0a);
        acc0[0][r] = _mm512_fmadd_ps(d, d, acc0[0][r]);
        d = _mm512_sub_ps(ra, q1a);
        acc0[1][r] = _mm512_fmadd_ps(d, d, acc0[1][r]);
      }
    }
    for (int t = 0; t < 2; ++t) {
      for (int r = 0; r < 4; ++r) {
        out[(g + t) * kBatchWidth + r] =
            ReduceAdd(_mm512_add_ps(acc0[t][r], acc1[t][r]));
      }
    }
  }
  if (g < num_queries) {
    L2SqrBatch4Avx512(queries[g], rows, n, out + g * kBatchWidth);
  }
}

void PqAdcTileAvx512(const float* const* tables, int num_queries, int m,
                     int ksub, const uint8_t* const* codes, int count,
                     float* out) {
  // The byte-transpose of each 16-code group (one vpmovzxbd-able column
  // per sub-space, shared with PqAdcBatchAvx512) is built ONCE per group
  // and reused by every table sub-group; within a sub-group, up to EIGHT
  // per-query tables interleave over each gather-index vector — twice the
  // reuse the AVX2 tile gets from its four-table sub-groups, because eight
  // live zmm accumulators plus gather temporaries fit the 32-register
  // file. Lane (g, c) accumulates sequentially in s, exactly like
  // PqAdcBatchAvx512's lane c with table g (the scalar tile keeps the same
  // order, so the m > kMaxByteColumns fallback stays bit-identical).
  if (m > kMaxByteColumns) {
    PqAdcTileScalar(tables, num_queries, m, ksub, codes, count, out);
    return;
  }
  alignas(64) __m128i cols[kMaxByteColumns];
  int c = 0;
  for (; c + 16 <= count; c += 16) {
    GatherColumns16(codes + c, m, cols);
    for (int g0 = 0; g0 < num_queries; g0 += 8) {
      const int gn = num_queries - g0 < 8 ? num_queries - g0 : 8;
      __m512 acc[8];
      for (int g = 0; g < gn; ++g) acc[g] = _mm512_setzero_ps();
      int base = 0;
      for (int s = 0; s < m; ++s, base += ksub) {
        const __m512i idx = _mm512_add_epi32(_mm512_set1_epi32(base),
                                             _mm512_cvtepu8_epi32(cols[s]));
        for (int g = 0; g < gn; ++g) {
          acc[g] = _mm512_add_ps(
              acc[g], _mm512_i32gather_ps(idx, tables[g0 + g], 4));
        }
      }
      for (int g = 0; g < gn; ++g) {
        _mm512_storeu_ps(out + static_cast<std::size_t>(g0 + g) * count + c,
                         acc[g]);
      }
    }
  }
  if (c < count) {
    // Remainder group: live rows staged into a zeroed fixed-stride scratch
    // block (dead lanes gather table[s * ksub], always in bounds; their
    // sums are dropped by the masked stores).
    const int rem = count - c;
    const __mmask16 mask = static_cast<__mmask16>((1u << rem) - 1u);
    alignas(64) uint8_t scratch[16 * kMaxByteColumns] = {0};
    const uint8_t* rows[16];
    for (int r = 0; r < 16; ++r) rows[r] = scratch + r * kMaxByteColumns;
    for (int r = 0; r < rem; ++r) {
      std::memcpy(scratch + r * kMaxByteColumns, codes[c + r],
                  static_cast<std::size_t>(m));
    }
    GatherColumns16(rows, m, cols);
    for (int g0 = 0; g0 < num_queries; g0 += 8) {
      const int gn = num_queries - g0 < 8 ? num_queries - g0 : 8;
      __m512 acc[8];
      for (int g = 0; g < gn; ++g) acc[g] = _mm512_setzero_ps();
      int base = 0;
      for (int s = 0; s < m; ++s, base += ksub) {
        const __m512i idx = _mm512_add_epi32(_mm512_set1_epi32(base),
                                             _mm512_cvtepu8_epi32(cols[s]));
        for (int g = 0; g < gn; ++g) {
          acc[g] = _mm512_add_ps(
              acc[g], _mm512_i32gather_ps(idx, tables[g0 + g], 4));
        }
      }
      for (int g = 0; g < gn; ++g) {
        _mm512_mask_storeu_ps(
            out + static_cast<std::size_t>(g0 + g) * count + c, mask,
            acc[g]);
      }
    }
  }
}

// --- Nearest-centroid scan -------------------------------------------------

namespace {

// Squared distances from one centroid (D floats at c) to 16 points held
// coordinate-major in p[0..D), lane l bit-identical to
// L2SqrAvx512(c, point l, D). Below 17 dimensions that kernel makes one
// 16-wide step (masked below 16) whose lane j holds v[j] = (c[j] - x[j])^2
// and whose lanes j >= D hold +0, then reduces it through
// _mm512_reduce_add_ps: t[j] = v[j+8] + v[j], u[j] = t[j+4] + t[j], and
// (u[0] + u[2]) + (u[1] + u[3]). This runs the same tree once per point
// lane, leaving out each addition of a +0 lane: x + 0 is x for every
// square (and a NaN stays NaN). At D = 4 the tree is (v0+v2) + (v1+v3).
template <int D>
inline __m512 SmallDimL2Sqr(const __m512* p, const float* c) {
  const __m512 zero = _mm512_setzero_ps();
  __m512 v[D];
  for (int j = 0; j < D; ++j) {
    const __m512 diff = _mm512_sub_ps(_mm512_set1_ps(c[j]), p[j]);
    // fmadd onto zero, as in L2SqrAvx512: the square is rounded once and
    // no later add can be contracted into it.
    v[j] = _mm512_fmadd_ps(diff, diff, zero);
  }
  constexpr int kT = D < 8 ? D : 8;
  __m512 t[kT];
  for (int j = 0; j < kT; ++j) {
    t[j] = j + 8 < D ? _mm512_add_ps(v[j + 8], v[j]) : v[j];
  }
  constexpr int kU = D < 4 ? D : 4;
  __m512 u[kU];
  for (int j = 0; j < kU; ++j) {
    u[j] = j + 4 < kT ? _mm512_add_ps(t[j + 4], t[j]) : t[j];
  }
  const __m512 w0 = kU > 2 ? _mm512_add_ps(u[0], u[2]) : u[0];
  if constexpr (kU == 1) {
    return w0;
  } else {
    const __m512 w1 = kU > 3 ? _mm512_add_ps(u[1], u[3]) : u[1];
    return _mm512_add_ps(w0, w1);
  }
}

// AssignNearest for n == D <= 16: 16 points per zmm register (one gather
// per coordinate), one broadcast per centroid coordinate, and a strict-<
// argmin over the centroids in index order. Lanes past the last point
// gather nothing and are never stored.
template <int D>
void AssignNearestSmallDim(const float* centroids, int64_t num_centroids,
                           const float* points, int64_t count,
                           int64_t stride, int32_t* assignments,
                           float* distances) {
  const __m512i offsets = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(stride)));
  for (int64_t p0 = 0; p0 < count; p0 += 16) {
    const __mmask16 live =
        count - p0 >= 16
            ? static_cast<__mmask16>(0xffff)
            : TailMask(0, static_cast<std::size_t>(count - p0));
    const float* tile = points + p0 * stride;
    __m512 p[D];
    for (int j = 0; j < D; ++j) {
      p[j] = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), live, offsets,
                                      tile + j, 4);
    }
    __m512 best = _mm512_set1_ps(std::numeric_limits<float>::max());
    __m512i best_index = _mm512_setzero_si512();
    const float* c = centroids;
    for (int64_t ci = 0; ci < num_centroids; ++ci, c += D) {
      const __m512 dist = SmallDimL2Sqr<D>(p, c);
      // _CMP_LT_OQ: strict and false on NaN, like the scalar `<`.
      const __mmask16 closer = _mm512_cmp_ps_mask(dist, best, _CMP_LT_OQ);
      best = _mm512_mask_mov_ps(best, closer, dist);
      best_index = _mm512_mask_mov_epi32(
          best_index, closer, _mm512_set1_epi32(static_cast<int>(ci)));
    }
    _mm512_mask_storeu_epi32(assignments + p0, live, best_index);
    if (distances != nullptr) {
      _mm512_mask_storeu_ps(distances + p0, live, best);
    }
  }
}

}  // namespace

void AssignNearestAvx512(const float* centroids, int64_t num_centroids,
                         std::size_t n, const float* points, int64_t count,
                         int64_t stride, int32_t* assignments,
                         float* distances) {
  // The gather offsets are 32-bit: lane 15 sits 15 strides in.
  if (n == 0 || n > 16 || stride > (int64_t{1} << 31) / 16) {
    AssignNearestTiled(L2SqrTileAvx512, centroids, num_centroids, n, points,
                       count, stride, assignments, distances);
    return;
  }
  using Kernel = void (*)(const float*, int64_t, const float*, int64_t,
                          int64_t, int32_t*, float*);
  static constexpr Kernel kKernels[16] = {
      AssignNearestSmallDim<1>,  AssignNearestSmallDim<2>,
      AssignNearestSmallDim<3>,  AssignNearestSmallDim<4>,
      AssignNearestSmallDim<5>,  AssignNearestSmallDim<6>,
      AssignNearestSmallDim<7>,  AssignNearestSmallDim<8>,
      AssignNearestSmallDim<9>,  AssignNearestSmallDim<10>,
      AssignNearestSmallDim<11>, AssignNearestSmallDim<12>,
      AssignNearestSmallDim<13>, AssignNearestSmallDim<14>,
      AssignNearestSmallDim<15>, AssignNearestSmallDim<16>,
  };
  kKernels[n - 1](centroids, num_centroids, points, count, stride,
                  assignments, distances);
}

}  // namespace resinfer::simd::internal

#endif  // RESINFER_HAVE_AVX512
