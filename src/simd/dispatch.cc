#include "simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/kernels.h"

namespace resinfer::simd {

namespace {

// All kernel entry points for one SIMD level. The public functions below
// dispatch through a single pointer to one of these tables: one relaxed
// pointer load plus an indirect call per kernel invocation, instead of the
// previous atomic-level-load-plus-branch in every innermost loop. The table
// also carries its own level so ActiveLevel() is derived from the same
// pointer the kernels dispatch through — one atomic, no way for a reader
// to observe a level that disagrees with the active table.
struct KernelTable {
  SimdLevel level;
  float (*l2sqr)(const float*, const float*, std::size_t);
  float (*inner_product)(const float*, const float*, std::size_t);
  float (*norm2sqr)(const float*, std::size_t);
  void (*axpy)(float, const float*, float*, std::size_t);
  float (*sq_adc_l2sqr)(const float*, const uint8_t*, const float*,
                        const float*, std::size_t);
  void (*l2sqr_batch4)(const float*, const float* const*, std::size_t,
                       float*);
  void (*inner_product_batch4)(const float*, const float* const*,
                               std::size_t, float*);
  void (*pq_adc_batch)(const float*, int, int, const uint8_t* const*, int,
                       float*);
  void (*sq_adc_l2sqr_batch4)(const float*, const uint8_t* const*,
                              const float*, const float*, std::size_t,
                              float*);
  void (*pq_adc_fast_scan)(const uint8_t*, int, const uint8_t* const*, int,
                           uint16_t*);
  void (*pq_adc_fast_scan_tile)(const uint8_t* const*, int, int,
                                const uint8_t* const*, int, uint16_t*);
  void (*l2sqr_tile)(const float* const*, int, const float* const*,
                     std::size_t, float*);
  void (*pq_adc_tile)(const float* const*, int, int, int,
                      const uint8_t* const*, int, float*);
  void (*assign_nearest)(const float*, int64_t, std::size_t, const float*,
                         int64_t, int64_t, int32_t*, float*);
  uint32_t (*crc32c)(uint32_t, const void*, std::size_t);
};

constexpr KernelTable kScalarTable = {
    SimdLevel::kScalar,
    internal::L2SqrScalar,
    internal::InnerProductScalar,
    internal::Norm2SqrScalar,
    internal::AxpyScalar,
    internal::SqAdcL2SqrScalar,
    internal::L2SqrBatch4Scalar,
    internal::InnerProductBatch4Scalar,
    internal::PqAdcBatchScalar,
    internal::SqAdcL2SqrBatch4Scalar,
    internal::PqAdcFastScanScalar,
    internal::PqAdcFastScanTileScalar,
    internal::L2SqrTileScalar,
    internal::PqAdcTileScalar,
    internal::AssignNearestScalar,
    internal::Crc32cScalar,
};

#if defined(RESINFER_HAVE_AVX2)
constexpr KernelTable kAvx2Table = {
    SimdLevel::kAvx2,
    internal::L2SqrAvx2,
    internal::InnerProductAvx2,
    internal::Norm2SqrAvx2,
    internal::AxpyAvx2,
    internal::SqAdcL2SqrAvx2,
    internal::L2SqrBatch4Avx2,
    internal::InnerProductBatch4Avx2,
    internal::PqAdcBatchAvx2,
    internal::SqAdcL2SqrBatch4Avx2,
    internal::PqAdcFastScanAvx2,
    internal::PqAdcFastScanTileAvx2,
    internal::L2SqrTileAvx2,
    internal::PqAdcTileAvx2,
    internal::AssignNearestAvx2,
    internal::Crc32cSse42,
};
#endif

#if defined(RESINFER_HAVE_AVX512)
constexpr KernelTable kAvx512Table = {
    SimdLevel::kAvx512,
    internal::L2SqrAvx512,
    internal::InnerProductAvx512,
    internal::Norm2SqrAvx512,
    internal::AxpyAvx512,
    internal::SqAdcL2SqrAvx512,
    internal::L2SqrBatch4Avx512,
    internal::InnerProductBatch4Avx512,
    internal::PqAdcBatchAvx512,
    internal::SqAdcL2SqrBatch4Avx512,
    internal::PqAdcFastScanAvx512,
    internal::PqAdcFastScanTileAvx512,
    internal::L2SqrTileAvx512,
    internal::PqAdcTileAvx512,
    internal::AssignNearestAvx512,
    // AVX-512 hosts use the same SSE4.2 crc32 instruction; there is no wider
    // form, so the tier shares the AVX2 TU's implementation.
    internal::Crc32cSse42,
};
#endif

const KernelTable* TableFor(SimdLevel level) {
#if defined(RESINFER_HAVE_AVX512)
  if (level == SimdLevel::kAvx512) return &kAvx512Table;
#endif
#if defined(RESINFER_HAVE_AVX2)
  if (level >= SimdLevel::kAvx2) return &kAvx2Table;
#endif
  (void)level;
  return &kScalarTable;
}

// Function-local static avoids static-initialization-order hazards; the
// table pointer is resolved once on first use (cpuid check included) and
// only changes through SetActiveLevel. This single slot is the whole
// dispatch state: the level is a field of the table it points to, so
// ActiveLevel()/kernel pairs can never be observed mismatched (the previous
// two-atomics design allowed a reader between the two stores to see the old
// level with the new table, or vice versa).
std::atomic<const KernelTable*>& TableSlot() {
  static std::atomic<const KernelTable*> slot{TableFor(InitialLevel())};
  return slot;
}

inline const KernelTable& Active() {
  return *TableSlot().load(std::memory_order_relaxed);
}

}  // namespace

SimdLevel BestSupportedLevel() {
  // The vectorized kernels are compiled into every RESINFER_HAVE_* build,
  // but the binary may land on an older host; check the CPU once so
  // dispatch degrades level by level instead of executing illegal
  // instructions.
#if defined(RESINFER_HAVE_AVX512) && (defined(__GNUC__) || defined(__clang__))
  // F is the zmm/mask baseline, BW the byte/word ops (vpshufb on zmm,
  // u16 fast-scan accumulation), VL the masked 128/256-bit loads the
  // tail paths use.
  static const bool avx512_ok = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512bw") &&
                                __builtin_cpu_supports("avx512vl");
  if (avx512_ok) return SimdLevel::kAvx512;
#endif
#if defined(RESINFER_HAVE_AVX2)
#if defined(__GNUC__) || defined(__clang__)
  // sse4.2 is implied by AVX2 on every real part, but the AVX2 table's
  // crc32c entry executes `crc32` instructions, so gate it explicitly.
  static const bool cpu_ok = __builtin_cpu_supports("avx2") &&
                             __builtin_cpu_supports("fma") &&
                             __builtin_cpu_supports("sse4.2");
  return cpu_ok ? SimdLevel::kAvx2 : SimdLevel::kScalar;
#else
  return SimdLevel::kAvx2;
#endif
#else
  return SimdLevel::kScalar;
#endif
}

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel best = BestSupportedLevel();
  if (best >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (best >= SimdLevel::kAvx512) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

bool ParseSimdLevelName(const char* name, SimdLevel* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    *out = SimdLevel::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = SimdLevel::kAvx2;
    return true;
  }
  if (std::strcmp(name, "avx512") == 0) {
    *out = SimdLevel::kAvx512;
    return true;
  }
  return false;
}

SimdLevel InitialLevel() {
  const SimdLevel best = BestSupportedLevel();
  const char* env = std::getenv("RESINFER_SIMD_LEVEL");
  if (env == nullptr || env[0] == '\0') return best;
  SimdLevel requested;
  if (!ParseSimdLevelName(env, &requested)) {
    std::fprintf(stderr,
                 "resinfer: ignoring invalid RESINFER_SIMD_LEVEL=%s "
                 "(expected scalar|avx2|avx512)\n",
                 env);
    return best;
  }
  return requested > best ? best : requested;
}

SimdLevel ActiveLevel() { return Active().level; }

void SetActiveLevel(SimdLevel level) {
  if (level > BestSupportedLevel()) level = BestSupportedLevel();
  TableSlot().store(TableFor(level), std::memory_order_relaxed);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

float L2Sqr(const float* a, const float* b, std::size_t n) {
  return Active().l2sqr(a, b, n);
}

float InnerProduct(const float* a, const float* b, std::size_t n) {
  return Active().inner_product(a, b, n);
}

float Norm2Sqr(const float* a, std::size_t n) { return Active().norm2sqr(a, n); }

void Axpy(float scale, const float* x, float* out, std::size_t n) {
  Active().axpy(scale, x, out, n);
}

float SqAdcL2Sqr(const float* q, const uint8_t* code, const float* vmin,
                 const float* step, std::size_t n) {
  return Active().sq_adc_l2sqr(q, code, vmin, step, n);
}

void L2SqrBatch4(const float* q, const float* const* rows, std::size_t n,
                 float* out) {
  Active().l2sqr_batch4(q, rows, n, out);
}

void InnerProductBatch4(const float* q, const float* const* rows,
                        std::size_t n, float* out) {
  Active().inner_product_batch4(q, rows, n, out);
}

void PqAdcBatch(const float* table, int m, int ksub,
                const uint8_t* const* codes, int count, float* out) {
  Active().pq_adc_batch(table, m, ksub, codes, count, out);
}

void SqAdcL2SqrBatch4(const float* q, const uint8_t* const* codes,
                      const float* vmin, const float* step, std::size_t n,
                      float* out) {
  Active().sq_adc_l2sqr_batch4(q, codes, vmin, step, n, out);
}

void PqAdcFastScan(const uint8_t* lut, int m, const uint8_t* const* codes,
                   int count, uint16_t* out) {
  Active().pq_adc_fast_scan(lut, m, codes, count, out);
}

void PqAdcFastScanTile(const uint8_t* const* luts, int num_queries, int m,
                       const uint8_t* const* codes, int count,
                       uint16_t* out) {
  Active().pq_adc_fast_scan_tile(luts, num_queries, m, codes, count, out);
}

void L2SqrTile(const float* const* queries, int num_queries,
               const float* const* rows, std::size_t n, float* out) {
  Active().l2sqr_tile(queries, num_queries, rows, n, out);
}

void PqAdcTile(const float* const* tables, int num_queries, int m, int ksub,
               const uint8_t* const* codes, int count, float* out) {
  Active().pq_adc_tile(tables, num_queries, m, ksub, codes, count, out);
}

void AssignNearest(const float* centroids, int64_t num_centroids,
                   std::size_t n, const float* points, int64_t count,
                   int64_t stride, int32_t* assignments, float* distances) {
  Active().assign_nearest(centroids, num_centroids, n, points, count, stride,
                          assignments, distances);
}

uint32_t Crc32c(uint32_t crc, const void* data, std::size_t n) {
  return Active().crc32c(crc, data, n);
}

}  // namespace resinfer::simd
