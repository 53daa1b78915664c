#include "simd/kernels.h"

#if defined(RESINFER_HAVE_AVX2)

#include <immintrin.h>

namespace resinfer::simd::internal {

namespace {

// Horizontal sum of a 256-bit float vector.
inline float ReduceAdd(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehdup_ps(lo);
  __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

// Scalar tails shared by the single-pair and batched kernels. noinline
// pins one compiled instance: whether the compiler contracts d*d + acc
// into an FMA is then decided once, keeping batch lanes bit-identical to
// single-pair calls for dimensions that are not a multiple of 8.
__attribute__((noinline)) float L2SqrTail(const float* a, const float* b,
                                          std::size_t i, std::size_t n,
                                          float acc) {
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

__attribute__((noinline)) float IpTail(const float* a, const float* b,
                                       std::size_t i, std::size_t n,
                                       float acc) {
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

__attribute__((noinline)) float SqAdcTail(const float* q,
                                          const uint8_t* code,
                                          const float* vmin,
                                          const float* step, std::size_t i,
                                          std::size_t n, float acc) {
  for (; i < n; ++i) {
    float d = q[i] - (vmin[i] + static_cast<float>(code[i]) * step[i]);
    acc += d * d;
  }
  return acc;
}

}  // namespace

float L2SqrAvx2(const float* a, const float* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                              _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  return L2SqrTail(a, b, i, n, ReduceAdd(_mm256_add_ps(acc0, acc1)));
}

float InnerProductAvx2(const float* a, const float* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  return IpTail(a, b, i, n, ReduceAdd(_mm256_add_ps(acc0, acc1)));
}

void InnerProductBatch4Avx2(const float* q, const float* const* rows,
                            std::size_t n, float* out) {
  // Per-lane structure identical to InnerProductAvx2 (two accumulators over
  // 16-float strides, one over 8, scalar tail); query loads shared.
  __m256 acc0[4], acc1[4];
  for (int r = 0; r < 4; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 qa = _mm256_loadu_ps(q + i);
    const __m256 qb = _mm256_loadu_ps(q + i + 8);
    for (int r = 0; r < 4; ++r) {
      acc0[r] = _mm256_fmadd_ps(_mm256_loadu_ps(rows[r] + i), qa, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(_mm256_loadu_ps(rows[r] + i + 8), qb,
                                acc1[r]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 qa = _mm256_loadu_ps(q + i);
    for (int r = 0; r < 4; ++r) {
      acc0[r] = _mm256_fmadd_ps(_mm256_loadu_ps(rows[r] + i), qa, acc0[r]);
    }
  }
  for (int r = 0; r < 4; ++r) {
    out[r] = IpTail(rows[r], q, i, n,
                    ReduceAdd(_mm256_add_ps(acc0[r], acc1[r])));
  }
}

float Norm2SqrAvx2(const float* a, std::size_t n) {
  return InnerProductAvx2(a, a, n);
}

void AxpyAvx2(float scale, const float* x, float* out, std::size_t n) {
  __m256 s = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 o = _mm256_loadu_ps(out + i);
    o = _mm256_fmadd_ps(s, _mm256_loadu_ps(x + i), o);
    _mm256_storeu_ps(out + i, o);
  }
  for (; i < n; ++i) out[i] += scale * x[i];
}

void L2SqrBatch4Avx2(const float* q, const float* const* rows, std::size_t n,
                     float* out) {
  // Four lanes, each replicating the exact accumulator structure of
  // L2SqrAvx2 (two accumulators over 16-float strides, one over 8, scalar
  // tail) so every lane is bit-identical to a single-pair call. The win:
  // the query loads are shared and 8 FMA chains stay in flight.
  __m256 acc0[4], acc1[4];
  for (int r = 0; r < 4; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 qa = _mm256_loadu_ps(q + i);
    const __m256 qb = _mm256_loadu_ps(q + i + 8);
    for (int r = 0; r < 4; ++r) {
      __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(rows[r] + i), qa);
      __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(rows[r] + i + 8), qb);
      acc0[r] = _mm256_fmadd_ps(d0, d0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(d1, d1, acc1[r]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 qa = _mm256_loadu_ps(q + i);
    for (int r = 0; r < 4; ++r) {
      __m256 d = _mm256_sub_ps(_mm256_loadu_ps(rows[r] + i), qa);
      acc0[r] = _mm256_fmadd_ps(d, d, acc0[r]);
    }
  }
  for (int r = 0; r < 4; ++r) {
    out[r] = L2SqrTail(rows[r], q, i, n,
                       ReduceAdd(_mm256_add_ps(acc0[r], acc1[r])));
  }
}

void PqAdcBatchAvx2(const float* table, int m, int ksub,
                    const uint8_t* const* codes, int count, float* out) {
  // Eight codes per gather group; lane j accumulates its own code's table
  // entries sequentially in s, matching the scalar per-code order exactly.
  int c = 0;
  for (; c + 8 <= count; c += 8) {
    __m256 acc = _mm256_setzero_ps();
    int base = 0;
    for (int s = 0; s < m; ++s, base += ksub) {
      __m256i idx = _mm256_add_epi32(
          _mm256_set1_epi32(base),
          _mm256_setr_epi32(codes[c][s], codes[c + 1][s], codes[c + 2][s],
                            codes[c + 3][s], codes[c + 4][s],
                            codes[c + 5][s], codes[c + 6][s],
                            codes[c + 7][s]));
      acc = _mm256_add_ps(acc, _mm256_i32gather_ps(table, idx, 4));
    }
    _mm256_storeu_ps(out + c, acc);
  }
  for (; c < count; ++c) {
    float acc = 0.f;
    const float* row = table;
    for (int s = 0; s < m; ++s, row += ksub) acc += row[codes[c][s]];
    out[c] = acc;
  }
}

namespace {

// The fast-scan kernels work on byte-columns: column j of an 8-candidate
// group holds byte j of each candidate's packed row — the two nibbles of
// sub-spaces 2j and 2j+1 for all eight candidates. Bound on the column
// scratch: ceil(256 / 2) columns covers the documented m <= 256 limit.
constexpr int kFastScanMaxPacked = 128;

// colbits[j] = byte j of rows[0..7], row 0 in the low byte. Full 8-column
// segments go through an 8x8 byte transpose (8 x 8-byte loads + 12
// unpacks); the loads stay inside each row because j + 8 <= packed. Tail
// columns are assembled bytewise so the kernel never reads past a packed
// row's end (records sit at arbitrary strides, including the very end of a
// CodeStore allocation).
inline void GatherColumns8(const uint8_t* const* rows, int packed,
                           uint64_t* colbits) {
  int j = 0;
  for (; j + 8 <= packed; j += 8) {
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
    _mm_storeu_si128(reinterpret_cast<__m128i*>(colbits + j),
                     _mm_unpacklo_epi32(b0, b1));  // columns j, j+1
    _mm_storeu_si128(reinterpret_cast<__m128i*>(colbits + j + 2),
                     _mm_unpackhi_epi32(b0, b1));  // columns j+2, j+3
    _mm_storeu_si128(reinterpret_cast<__m128i*>(colbits + j + 4),
                     _mm_unpacklo_epi32(b2, b3));  // columns j+4, j+5
    _mm_storeu_si128(reinterpret_cast<__m128i*>(colbits + j + 6),
                     _mm_unpackhi_epi32(b2, b3));  // columns j+6, j+7
  }
  for (; j < packed; ++j) {
    uint64_t bits = 0;
    for (int r = 0; r < 8; ++r) {
      bits |= static_cast<uint64_t>(rows[r][j]) << (8 * r);
    }
    colbits[j] = bits;
  }
}

// u16 LUT sums for the 8 candidates whose byte-columns are in colbits: per
// column, the two nibble sets select from the 32-byte LUT pair (rows 2j in
// lane 0, 2j+1 in lane 1) with one vpshufb; u8 hits widen into a u16
// accumulator per lane. Integer adds are exact, so the result equals
// PqAdcFastScanOne regardless of order; the lane split only delays the
// even/odd-sub-space combine to the final 128-bit add. For odd m both the
// LUT pad row and every code's pad nibble are zero, so the extra lookup
// contributes nothing.
inline void AccumulateLut8(const uint8_t* lut, int packed,
                           const uint64_t* colbits, uint16_t* out) {
  const __m128i nib = _mm_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  for (int j = 0; j < packed; ++j) {
    const __m128i col =
        _mm_cvtsi64_si128(static_cast<long long>(colbits[j]));
    const __m128i lo = _mm_and_si128(col, nib);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(col, 4), nib);
    const __m256i idx = _mm256_set_m128i(hi, lo);
    const __m256i tbl =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lut + j * 32));
    const __m256i vals = _mm256_shuffle_epi8(tbl, idx);
    acc = _mm256_add_epi16(acc, _mm256_unpacklo_epi8(vals, zero));
  }
  const __m128i sums = _mm_add_epi16(_mm256_castsi256_si128(acc),
                                     _mm256_extracti128_si256(acc, 1));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), sums);
}

}  // namespace

void PqAdcFastScanAvx2(const uint8_t* lut, int m,
                       const uint8_t* const* codes, int count,
                       uint16_t* out) {
  const int packed = (m + 1) / 2;
  if (packed > kFastScanMaxPacked) {  // beyond the documented m <= 256
    PqAdcFastScanScalar(lut, m, codes, count, out);
    return;
  }
  uint64_t colbits[kFastScanMaxPacked];
  int c = 0;
  for (; c + 8 <= count; c += 8) {
    GatherColumns8(codes + c, packed, colbits);
    AccumulateLut8(lut, packed, colbits, out + c);
  }
  for (; c < count; ++c) out[c] = PqAdcFastScanOne(lut, m, codes[c]);
}

void PqAdcFastScanTileAvx2(const uint8_t* const* luts, int num_queries,
                           int m, const uint8_t* const* codes, int count,
                           uint16_t* out) {
  const int packed = (m + 1) / 2;
  if (packed > kFastScanMaxPacked) {
    PqAdcFastScanTileScalar(luts, num_queries, m, codes, count, out);
    return;
  }
  uint64_t colbits[kFastScanMaxPacked];
  int c = 0;
  for (; c + 8 <= count; c += 8) {
    // The nibble transpose — the kernel's memory-bound half — is built
    // once per code block and reused by every group member's LUT.
    GatherColumns8(codes + c, packed, colbits);
    for (int g = 0; g < num_queries; ++g) {
      AccumulateLut8(luts[g], packed, colbits,
                     out + static_cast<std::size_t>(g) * count + c);
    }
  }
  for (; c < count; ++c) {
    for (int g = 0; g < num_queries; ++g) {
      out[static_cast<std::size_t>(g) * count + c] =
          PqAdcFastScanOne(luts[g], m, codes[c]);
    }
  }
}

void SqAdcL2SqrBatch4Avx2(const float* q, const uint8_t* const* codes,
                          const float* vmin, const float* step,
                          std::size_t n, float* out) {
  // Per-lane structure identical to SqAdcL2SqrAvx2 (one accumulator, 8-wide
  // strides, scalar tail); query/range loads shared across the four codes.
  __m256 acc[4];
  for (int r = 0; r < 4; ++r) acc[r] = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 qv = _mm256_loadu_ps(q + i);
    const __m256 sv = _mm256_loadu_ps(step + i);
    const __m256 mv = _mm256_loadu_ps(vmin + i);
    for (int r = 0; r < 4; ++r) {
      __m128i bytes = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(codes[r] + i));
      __m256 cvt = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
      __m256 recon = _mm256_fmadd_ps(cvt, sv, mv);
      __m256 d = _mm256_sub_ps(qv, recon);
      acc[r] = _mm256_fmadd_ps(d, d, acc[r]);
    }
  }
  for (int r = 0; r < 4; ++r) {
    out[r] = SqAdcTail(q, codes[r], vmin, step, i, n, ReduceAdd(acc[r]));
  }
}

void L2SqrTileAvx2(const float* const* queries, int num_queries,
                   const float* const* rows, std::size_t n, float* out) {
  // One L2SqrBatch4 pass per group member. The four candidate rows are
  // register-loaded per pass but stay L1-resident across members, so the
  // tile still touches candidate memory once. A deeper register tiling
  // (rows x several queries per dim pass) would need a different
  // accumulator structure per lane and break bit-identity with the
  // single-pair kernel, which the batch contract forbids.
  for (int g = 0; g < num_queries; ++g) {
    L2SqrBatch4Avx2(queries[g], rows, n, out + g * kBatchWidth);
  }
}

void PqAdcTileAvx2(const float* const* tables, int num_queries, int m,
                   int ksub, const uint8_t* const* codes, int count,
                   float* out) {
  // Interleaves up to four per-query tables over each 8-code gather group:
  // the gather-index vector (the expensive part of PqAdcBatchAvx2's inner
  // loop) is built once per (s, code-group, 4-table sub-group) and reused
  // for the sub-group's tables — a 4x reduction over per-table passes;
  // sharing it across ALL tables would need one live accumulator per
  // group member, which outruns the 16 YMM registers. Lane (g, c)
  // accumulates sequentially in s, exactly like PqAdcBatchAvx2's lane c
  // with table g.
  int c = 0;
  for (; c + 8 <= count; c += 8) {
    for (int g0 = 0; g0 < num_queries; g0 += 4) {
      const int gn = num_queries - g0 < 4 ? num_queries - g0 : 4;
      __m256 acc[4];
      for (int g = 0; g < gn; ++g) acc[g] = _mm256_setzero_ps();
      int base = 0;
      for (int s = 0; s < m; ++s, base += ksub) {
        const __m256i idx = _mm256_add_epi32(
            _mm256_set1_epi32(base),
            _mm256_setr_epi32(codes[c][s], codes[c + 1][s], codes[c + 2][s],
                              codes[c + 3][s], codes[c + 4][s],
                              codes[c + 5][s], codes[c + 6][s],
                              codes[c + 7][s]));
        for (int g = 0; g < gn; ++g) {
          acc[g] = _mm256_add_ps(acc[g],
                                 _mm256_i32gather_ps(tables[g0 + g], idx, 4));
        }
      }
      for (int g = 0; g < gn; ++g) {
        _mm256_storeu_ps(out + static_cast<std::size_t>(g0 + g) * count + c,
                         acc[g]);
      }
    }
  }
  for (; c < count; ++c) {
    for (int g = 0; g < num_queries; ++g) {
      float acc = 0.f;
      const float* row = tables[g];
      for (int s = 0; s < m; ++s, row += ksub) acc += row[codes[c][s]];
      out[static_cast<std::size_t>(g) * count + c] = acc;
    }
  }
}

float SqAdcL2SqrAvx2(const float* q, const uint8_t* code, const float* vmin,
                     const float* step, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Widen 8 code bytes to 8 floats, decode in registers, square-diff.
    __m128i bytes = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(code + i));
    __m256 c = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    __m256 recon = _mm256_fmadd_ps(c, _mm256_loadu_ps(step + i),
                                   _mm256_loadu_ps(vmin + i));
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(q + i), recon);
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  return SqAdcTail(q, code, vmin, step, i, n, ReduceAdd(acc));
}

uint32_t Crc32cSse42(uint32_t crc, const void* data, std::size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --n;
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  for (; n > 0; --n)
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
  return ~static_cast<uint32_t>(c);
}

// L2SqrAvx2 finishes every dimension below 8 in the sequential scalar
// L2SqrTail, so a points-per-register kernel would have to copy that
// tail's contraction; the tile loop keeps the lanes bit-identical instead.
void AssignNearestAvx2(const float* centroids, int64_t num_centroids,
                       std::size_t n, const float* points, int64_t count,
                       int64_t stride, int32_t* assignments,
                       float* distances) {
  AssignNearestTiled(L2SqrTileAvx2, centroids, num_centroids, n, points,
                     count, stride, assignments, distances);
}

}  // namespace resinfer::simd::internal

#endif  // RESINFER_HAVE_AVX2
