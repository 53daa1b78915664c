#include "simd/kernels.h"

#include <algorithm>
#include <limits>

namespace resinfer::simd::internal {

float L2SqrScalar(const float* a, const float* b, std::size_t n) {
  // Four independent accumulators let the compiler keep the FMA pipeline
  // full without -ffast-math reassociation.
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float d0 = a[i] - b[i];
    float d1 = a[i + 1] - b[i + 1];
    float d2 = a[i + 2] - b[i + 2];
    float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    acc0 += d * d;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

float InnerProductScalar(const float* a, const float* b, std::size_t n) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

float Norm2SqrScalar(const float* a, std::size_t n) {
  return InnerProductScalar(a, a, n);
}

void AxpyScalar(float scale, const float* x, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += scale * x[i];
}

float SqAdcL2SqrScalar(const float* q, const uint8_t* code,
                       const float* vmin, const float* step, std::size_t n) {
  float acc0 = 0.f, acc1 = 0.f;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float d0 = q[i] - (vmin[i] + static_cast<float>(code[i]) * step[i]);
    float d1 = q[i + 1] -
               (vmin[i + 1] + static_cast<float>(code[i + 1]) * step[i + 1]);
    acc0 += d0 * d0;
    acc1 += d1 * d1;
  }
  for (; i < n; ++i) {
    float d = q[i] - (vmin[i] + static_cast<float>(code[i]) * step[i]);
    acc0 += d * d;
  }
  return acc0 + acc1;
}

// The scalar batch kernels are the reference path: each lane simply runs
// the single-pair kernel, which makes bit-identity trivial and leaves the
// amortization win (shared query loads, interleaved chains) to the
// vectorized implementations.
void L2SqrBatch4Scalar(const float* q, const float* const* rows,
                       std::size_t n, float* out) {
  for (int r = 0; r < kBatchWidth; ++r) out[r] = L2SqrScalar(rows[r], q, n);
}

void InnerProductBatch4Scalar(const float* q, const float* const* rows,
                              std::size_t n, float* out) {
  for (int r = 0; r < kBatchWidth; ++r) {
    out[r] = InnerProductScalar(rows[r], q, n);
  }
}

void PqAdcBatchScalar(const float* table, int m, int ksub,
                      const uint8_t* const* codes, int count, float* out) {
  int c = 0;
  // Four independent accumulation chains; each chain keeps the sequential
  // per-subspace order of PqCodebook::AdcDistance.
  for (; c + 4 <= count; c += 4) {
    const uint8_t* c0 = codes[c];
    const uint8_t* c1 = codes[c + 1];
    const uint8_t* c2 = codes[c + 2];
    const uint8_t* c3 = codes[c + 3];
    float a0 = 0.f, a1 = 0.f, a2 = 0.f, a3 = 0.f;
    const float* row = table;
    for (int s = 0; s < m; ++s, row += ksub) {
      a0 += row[c0[s]];
      a1 += row[c1[s]];
      a2 += row[c2[s]];
      a3 += row[c3[s]];
    }
    out[c] = a0;
    out[c + 1] = a1;
    out[c + 2] = a2;
    out[c + 3] = a3;
  }
  for (; c < count; ++c) {
    float acc = 0.f;
    const float* row = table;
    for (int s = 0; s < m; ++s, row += ksub) acc += row[codes[c][s]];
    out[c] = acc;
  }
}

void SqAdcL2SqrBatch4Scalar(const float* q, const uint8_t* const* codes,
                            const float* vmin, const float* step,
                            std::size_t n, float* out) {
  for (int r = 0; r < kBatchWidth; ++r)
    out[r] = SqAdcL2SqrScalar(q, codes[r], vmin, step, n);
}

void PqAdcFastScanScalar(const uint8_t* lut, int m,
                         const uint8_t* const* codes, int count,
                         uint16_t* out) {
  // Integer accumulation is exact, so the per-code reference lane IS the
  // contract; the vectorized path reproduces these sums bit-for-bit.
  for (int c = 0; c < count; ++c) out[c] = PqAdcFastScanOne(lut, m, codes[c]);
}

void PqAdcFastScanTileScalar(const uint8_t* const* luts, int num_queries,
                             int m, const uint8_t* const* codes, int count,
                             uint16_t* out) {
  for (int g = 0; g < num_queries; ++g) {
    PqAdcFastScanScalar(luts[g], m, codes, count, out + g * count);
  }
}

void L2SqrTileScalar(const float* const* queries, int num_queries,
                     const float* const* rows, std::size_t n, float* out) {
  for (int g = 0; g < num_queries; ++g) {
    L2SqrBatch4Scalar(queries[g], rows, n, out + g * kBatchWidth);
  }
}

void PqAdcTileScalar(const float* const* tables, int num_queries, int m,
                     int ksub, const uint8_t* const* codes, int count,
                     float* out) {
  for (int g = 0; g < num_queries; ++g) {
    PqAdcBatchScalar(tables[g], m, ksub, codes, count, out + g * count);
  }
}

void AssignNearestTiled(L2SqrTileFn tile, const float* centroids,
                        int64_t num_centroids, std::size_t n,
                        const float* points, int64_t count, int64_t stride,
                        int32_t* assignments, float* distances) {
  // Points per tile: each block of four centroid rows is loaded once per
  // 16 points.
  constexpr int kPointTile = 16;
  const float* point_ptrs[kPointTile];
  const float* rows[kBatchWidth];
  float scores[kPointTile * kBatchWidth];
  float best_dist[kPointTile];
  int32_t best[kPointTile];
  for (int64_t p0 = 0; p0 < count; p0 += kPointTile) {
    const int np = static_cast<int>(std::min<int64_t>(kPointTile, count - p0));
    for (int g = 0; g < np; ++g) {
      point_ptrs[g] = points + (p0 + g) * stride;
      best_dist[g] = std::numeric_limits<float>::max();
      best[g] = 0;
    }
    for (int64_t c = 0; c < num_centroids; c += kBatchWidth) {
      // A short last block repeats its final row; the extra lanes are
      // ignored.
      const int live = static_cast<int>(
          std::min<int64_t>(kBatchWidth, num_centroids - c));
      for (int r = 0; r < kBatchWidth; ++r) {
        rows[r] = centroids + (c + std::min(r, live - 1)) *
                                  static_cast<int64_t>(n);
      }
      tile(point_ptrs, np, rows, n, scores);
      for (int g = 0; g < np; ++g) {
        const float* lane = scores + g * kBatchWidth;
        for (int r = 0; r < live; ++r) {
          if (lane[r] < best_dist[g]) {
            best_dist[g] = lane[r];
            best[g] = static_cast<int32_t>(c + r);
          }
        }
      }
    }
    std::copy(best, best + np, assignments + p0);
    if (distances != nullptr) {
      std::copy(best_dist, best_dist + np, distances + p0);
    }
  }
}

void AssignNearestScalar(const float* centroids, int64_t num_centroids,
                         std::size_t n, const float* points, int64_t count,
                         int64_t stride, int32_t* assignments,
                         float* distances) {
  AssignNearestTiled(L2SqrTileScalar, centroids, num_centroids, n, points,
                     count, stride, assignments, distances);
}

namespace {

// Slicing-by-8 tables for CRC32C (Castagnoli, reflected poly 0x82F63B78):
// table[0] is the classic byte-at-a-time table; table[k][b] extends a CRC
// whose low byte is b across k additional zero bytes, letting the hot loop
// fold 8 input bytes per iteration with eight independent lookups.
struct Crc32cTables {
  uint32_t t[8][256];
  constexpr Crc32cTables() : t{} {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t crc = b;
      for (int k = 0; k < 8; ++k)
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      t[0][b] = crc;
    }
    for (int k = 1; k < 8; ++k)
      for (uint32_t b = 0; b < 256; ++b)
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
  }
};

constexpr Crc32cTables kCrc32cTables;

}  // namespace

uint32_t Crc32cScalar(uint32_t crc, const void* data, std::size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const auto& t = kCrc32cTables.t;
  crc = ~crc;
  // Byte-align so the 8-wide loop can use one unaligned 64-bit load.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
    --n;
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    word ^= crc;  // little-endian: low 4 bytes absorb the running CRC
    crc = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^
          t[5][(word >> 16) & 0xFFu] ^ t[4][(word >> 24) & 0xFFu] ^
          t[3][(word >> 32) & 0xFFu] ^ t[2][(word >> 40) & 0xFFu] ^
          t[1][(word >> 48) & 0xFFu] ^ t[0][(word >> 56) & 0xFFu];
  }
  for (; n > 0; --n)
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  return ~crc;
}

}  // namespace resinfer::simd::internal
