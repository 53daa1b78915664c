// Distance kernels: squared L2, inner product, squared norm.
//
// These are the innermost loops of every index and distance computer. The
// public functions route through the dispatch table (see dispatch.h); the
// `internal` namespace exposes each implementation directly so tests can
// assert scalar/AVX2 agreement.
//
// All kernels accept unaligned pointers; aligned inputs (AlignedBuffer) are
// simply faster.
//
// Batched kernels (the block-scan refinement path): each lane reproduces the
// exact floating-point operation order of the corresponding single-pair
// kernel at the same SIMD level, so lane i of a batch call is bit-identical
// to a per-candidate call on the same inputs. The speedup comes from
// sharing the query loads across lanes and keeping several independent
// accumulation chains in flight, not from reassociation.
#ifndef RESINFER_SIMD_KERNELS_H_
#define RESINFER_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace resinfer::simd {

// Rows per batched-kernel call; block scans feed the batch kernels in groups
// of this size and finish the remainder with single-pair calls.
inline constexpr int kBatchWidth = 4;

// sum_i (a[i] - b[i])^2
float L2Sqr(const float* a, const float* b, std::size_t n);

// sum_i a[i] * b[i]
float InnerProduct(const float* a, const float* b, std::size_t n);

// sum_i a[i]^2
float Norm2Sqr(const float* a, std::size_t n);

// out[i] += scale * x[i], used by training loops.
void Axpy(float scale, const float* x, float* out, std::size_t n);

// sum_j (q[j] - (vmin[j] + code[j] * step[j]))^2 — the SQ8 asymmetric
// distance against a byte-quantized vector, decoded on the fly.
float SqAdcL2Sqr(const float* q, const uint8_t* code, const float* vmin,
                 const float* step, std::size_t n);

// out[r] = L2Sqr(rows[r], q, n) for r in [0, kBatchWidth). Evaluates four
// candidate rows per call with shared query loads; each lane is
// bit-identical to the single-pair L2Sqr at the active level.
void L2SqrBatch4(const float* q, const float* const* rows, std::size_t n,
                 float* out);

// out[r] = InnerProduct(rows[r], q, n) for r in [0, kBatchWidth); the
// inner-product counterpart of L2SqrBatch4 (DDCres first-stage scans).
void InnerProductBatch4(const float* q, const float* const* rows,
                        std::size_t n, float* out);

// PQ/RQ ADC table accumulation over a block of codes:
//   out[c] = sum_s table[s * ksub + codes[c][s]]   for c in [0, count).
// Per-code accumulation is sequential in s (the PqCodebook::AdcDistance
// order), so each lane is bit-identical to the per-candidate lookup sum.
void PqAdcBatch(const float* table, int m, int ksub,
                const uint8_t* const* codes, int count, float* out);

// out[r] = SqAdcL2Sqr(q, codes[r], vmin, step, n) for r in [0, kBatchWidth).
void SqAdcL2SqrBatch4(const float* q, const uint8_t* const* codes,
                      const float* vmin, const float* step, std::size_t n,
                      float* out);

// --- Fast-scan ADC (packed 4-bit codes, quantized u8 LUT) ------------------
//
// The register-resident tier for nbits <= 4 codes
// (quant::CodePacking::kPacked4): the per-query float ADC table is
// quantized to one 16-entry u8 sub-table per sub-space
// (PqCodebook::QuantizeAdcTable), which fits a SIMD register, so the AVX2
// implementation replaces PqAdcBatch's per-code vgatherdps with in-register
// vpshufb lookups. Accumulation is integral and therefore EXACT: scalar and
// vectorized implementations return identical u16 sums, and callers
// dequantize with one shared float expression — bit-identity across SIMD
// levels and scan paths is structural, not contractual.
//
// `lut` holds ceil(m/2) * 32 bytes (sub-table s at lut + s * 16; odd-m pad
// row zero). codes[c] points at candidate c's packed row of ceil(m/2)
// bytes, even sub-space in the low nibble. Requires m <= 256 so the u16
// accumulators cannot overflow (m * 255 < 65536).

// Scalar reference for one packed code; the kernels' tail lanes and the
// estimators' sequential paths share this exact accumulation.
inline uint16_t PqAdcFastScanOne(const uint8_t* lut, int m,
                                 const uint8_t* code) {
  uint32_t sum = 0;
  for (int s = 0; s < m; ++s) {
    const uint8_t byte = code[s >> 1];
    const uint8_t idx = (s & 1) ? static_cast<uint8_t>(byte >> 4)
                                : static_cast<uint8_t>(byte & 0x0f);
    sum += lut[s * 16 + idx];
  }
  return static_cast<uint16_t>(sum);
}

// out[c] = sum_s lut[s * 16 + nibble(codes[c], s)] for c in [0, count).
void PqAdcFastScan(const uint8_t* lut, int m, const uint8_t* const* codes,
                   int count, uint16_t* out);

// Query-group form: out[g * count + c] is PqAdcFastScan lane c under
// luts[g]. Sums are exact integers, so any evaluation order is identical;
// the AVX2 path shares each code block's nibble transpose across the
// group's LUTs.
void PqAdcFastScanTile(const uint8_t* const* luts, int num_queries, int m,
                       const uint8_t* const* codes, int count,
                       uint16_t* out);

// --- Query-tiled kernels (the multi-query serving path) --------------------
//
// Query-major scans score one candidate block for a whole group of queries
// before moving on; these kernels evaluate the q x candidate tile in one
// call so the candidate data is touched once per tile instead of once per
// query. Lane (g, c) is bit-identical to the corresponding single-query
// kernel at the same SIMD level — tiling shares loads, never reassociates.

// out[g * kBatchWidth + r] = L2Sqr(rows[r], queries[g], n) for
// g in [0, num_queries), r in [0, kBatchWidth): L2SqrBatch4 for every query
// of a group while the four candidate rows are cache-hot.
void L2SqrTile(const float* const* queries, int num_queries,
               const float* const* rows, std::size_t n, float* out);

// out[g * count + c] = sum_s tables[g][s * ksub + codes[c][s]]:
// PqAdcBatch over one shared code block for several per-query ADC tables
// (each group member owns one). The codes — and on AVX2 the gather-index
// construction — are shared across the group's tables.
void PqAdcTile(const float* const* tables, int num_queries, int m, int ksub,
               const uint8_t* const* codes, int count, float* out);

// --- Nearest-centroid scan (the build passes) ------------------------------
//
// The assignment pass of k-means, PQ encoding and every single-point
// codebook lookup: assignments[i] is the index of the centroid closest to
// the point at points + i * stride, for i in [0, count), among the
// num_centroids >= 1 rows of `centroids` (row-major, n floats each), and
// distances[i], when distances is non-null, is that squared distance.
// Every distance is bit-identical to L2Sqr(centroid, point, n) at the same
// level. Centroids are taken in index order and a later one wins only if
// strictly closer, so ties go to the lowest index and a point with no
// distance below FLT_MAX (NaN, or a square that overflows) gets index 0
// and FLT_MAX, exactly as in a one-at-a-time scan. The scalar and AVX2
// entries score 16-point tiles against four centroids per L2SqrTile call;
// the AVX-512 entry scores 16 points per zmm register when n <= 16.
void AssignNearest(const float* centroids, int64_t num_centroids,
                   std::size_t n, const float* points, int64_t count,
                   int64_t stride, int32_t* assignments, float* distances);

// --- CRC32C (Castagnoli) ---------------------------------------------------
//
// Incremental CRC32C over a byte range, used by the persist layer to
// checksum file sections so index loads can verify integrity without a
// separate pass. Start with crc = 0 and chain the return value through
// successive calls; the result equals the CRC32C of the concatenated bytes
// (each call performs the standard pre/post inversion, which composes).
// The AVX2/AVX-512 tables dispatch to the SSE4.2 `crc32` instruction
// (8 bytes per cycle-ish); the scalar table uses a slicing-by-8 software
// implementation, so checksums agree bit-for-bit at every level.
uint32_t Crc32c(uint32_t crc, const void* data, std::size_t n);

namespace internal {

float L2SqrScalar(const float* a, const float* b, std::size_t n);
float InnerProductScalar(const float* a, const float* b, std::size_t n);
float Norm2SqrScalar(const float* a, std::size_t n);
void AxpyScalar(float scale, const float* x, float* out, std::size_t n);
float SqAdcL2SqrScalar(const float* q, const uint8_t* code,
                       const float* vmin, const float* step, std::size_t n);
void L2SqrBatch4Scalar(const float* q, const float* const* rows,
                       std::size_t n, float* out);
void InnerProductBatch4Scalar(const float* q, const float* const* rows,
                              std::size_t n, float* out);
void PqAdcBatchScalar(const float* table, int m, int ksub,
                      const uint8_t* const* codes, int count, float* out);
void SqAdcL2SqrBatch4Scalar(const float* q, const uint8_t* const* codes,
                            const float* vmin, const float* step,
                            std::size_t n, float* out);
void PqAdcFastScanScalar(const uint8_t* lut, int m,
                         const uint8_t* const* codes, int count,
                         uint16_t* out);
void PqAdcFastScanTileScalar(const uint8_t* const* luts, int num_queries,
                             int m, const uint8_t* const* codes, int count,
                             uint16_t* out);
void L2SqrTileScalar(const float* const* queries, int num_queries,
                     const float* const* rows, std::size_t n, float* out);
void PqAdcTileScalar(const float* const* tables, int num_queries, int m,
                     int ksub, const uint8_t* const* codes, int count,
                     float* out);
uint32_t Crc32cScalar(uint32_t crc, const void* data, std::size_t n);

// The tiled AssignNearest loop every level can run: 16-point tiles as the
// query side of `tile` (one level's L2SqrTile), four centroids per call.
using L2SqrTileFn = void (*)(const float* const*, int, const float* const*,
                             std::size_t, float*);
void AssignNearestTiled(L2SqrTileFn tile, const float* centroids,
                        int64_t num_centroids, std::size_t n,
                        const float* points, int64_t count, int64_t stride,
                        int32_t* assignments, float* distances);
void AssignNearestScalar(const float* centroids, int64_t num_centroids,
                         std::size_t n, const float* points, int64_t count,
                         int64_t stride, int32_t* assignments,
                         float* distances);

#if defined(RESINFER_HAVE_AVX2)
float L2SqrAvx2(const float* a, const float* b, std::size_t n);
float InnerProductAvx2(const float* a, const float* b, std::size_t n);
float Norm2SqrAvx2(const float* a, std::size_t n);
void AxpyAvx2(float scale, const float* x, float* out, std::size_t n);
float SqAdcL2SqrAvx2(const float* q, const uint8_t* code, const float* vmin,
                     const float* step, std::size_t n);
void L2SqrBatch4Avx2(const float* q, const float* const* rows, std::size_t n,
                     float* out);
void InnerProductBatch4Avx2(const float* q, const float* const* rows,
                            std::size_t n, float* out);
void PqAdcBatchAvx2(const float* table, int m, int ksub,
                    const uint8_t* const* codes, int count, float* out);
void SqAdcL2SqrBatch4Avx2(const float* q, const uint8_t* const* codes,
                          const float* vmin, const float* step,
                          std::size_t n, float* out);
void PqAdcFastScanAvx2(const uint8_t* lut, int m,
                       const uint8_t* const* codes, int count,
                       uint16_t* out);
void PqAdcFastScanTileAvx2(const uint8_t* const* luts, int num_queries,
                           int m, const uint8_t* const* codes, int count,
                           uint16_t* out);
void L2SqrTileAvx2(const float* const* queries, int num_queries,
                   const float* const* rows, std::size_t n, float* out);
void PqAdcTileAvx2(const float* const* tables, int num_queries, int m,
                   int ksub, const uint8_t* const* codes, int count,
                   float* out);
void AssignNearestAvx2(const float* centroids, int64_t num_centroids,
                       std::size_t n, const float* points, int64_t count,
                       int64_t stride, int32_t* assignments,
                       float* distances);
// SSE4.2 hardware crc32 (cpuid-gated alongside AVX2: every AVX2 host has
// SSE4.2, and BestSupportedLevel checks the flag explicitly anyway). Shared
// by the AVX2 and AVX-512 tables.
uint32_t Crc32cSse42(uint32_t crc, const void* data, std::size_t n);
#endif

#if defined(RESINFER_HAVE_AVX512)
// The AVX-512 tier (F+BW+VL): zmm lanes, mask registers for every d%16 and
// n%4 tail (no scalar remainder loops), 64 nibble lookups per vpshufb in
// the fast-scan kernels, and genuine rows x queries register tiles in the
// tiled kernels (32 zmm registers where AVX2's 16 forced per-query
// passes). The single-pair kernels define the level's lane-reduction
// structure; every batch/tile lane reproduces it bit-for-bit.
float L2SqrAvx512(const float* a, const float* b, std::size_t n);
float InnerProductAvx512(const float* a, const float* b, std::size_t n);
float Norm2SqrAvx512(const float* a, std::size_t n);
void AxpyAvx512(float scale, const float* x, float* out, std::size_t n);
float SqAdcL2SqrAvx512(const float* q, const uint8_t* code,
                       const float* vmin, const float* step, std::size_t n);
void L2SqrBatch4Avx512(const float* q, const float* const* rows,
                       std::size_t n, float* out);
void InnerProductBatch4Avx512(const float* q, const float* const* rows,
                              std::size_t n, float* out);
void PqAdcBatchAvx512(const float* table, int m, int ksub,
                      const uint8_t* const* codes, int count, float* out);
void SqAdcL2SqrBatch4Avx512(const float* q, const uint8_t* const* codes,
                            const float* vmin, const float* step,
                            std::size_t n, float* out);
void PqAdcFastScanAvx512(const uint8_t* lut, int m,
                         const uint8_t* const* codes, int count,
                         uint16_t* out);
void PqAdcFastScanTileAvx512(const uint8_t* const* luts, int num_queries,
                             int m, const uint8_t* const* codes, int count,
                             uint16_t* out);
void L2SqrTileAvx512(const float* const* queries, int num_queries,
                     const float* const* rows, std::size_t n, float* out);
void PqAdcTileAvx512(const float* const* tables, int num_queries, int m,
                     int ksub, const uint8_t* const* codes, int count,
                     float* out);
void AssignNearestAvx512(const float* centroids, int64_t num_centroids,
                         std::size_t n, const float* points, int64_t count,
                         int64_t stride, int32_t* assignments,
                         float* distances);
#endif

}  // namespace internal

}  // namespace resinfer::simd

#endif  // RESINFER_SIMD_KERNELS_H_
