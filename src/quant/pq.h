// Product Quantization (Jégou et al., TPAMI 2011).
//
// Splits the D-dimensional space into m sub-spaces of D/m dimensions, trains
// a 2^nbits-entry k-means codebook per sub-space, and represents each vector
// by m sub-codes (one byte each for nbits in [5, 8], nibble pairs for nbits
// <= 4 — see quant/code_layout.h). Query-time asymmetric distances (ADC) are
// m table lookups against a per-query lookup table — the "quantization"
// approximate distance of §II-B that DDCopq corrects.
#ifndef RESINFER_QUANT_PQ_H_
#define RESINFER_QUANT_PQ_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "quant/code_layout.h"
#include "quant/kmeans.h"

namespace resinfer::quant {

struct PqOptions {
  // Number of sub-spaces; must divide the dimension.
  int num_subspaces = 8;
  // Bits per code; 8 (256 centroids per sub-space) is the standard setting
  // and what the paper's storage analysis assumes (§VI-B).
  int nbits = 8;
  KMeansOptions kmeans;
  // Training-sample cap; the paper samples 65,536 points for OPQ (§VII).
  int64_t max_train_rows = 65536;
  uint64_t sample_seed = 99;
};

class PqCodebook {
 public:
  PqCodebook() = default;

  static PqCodebook Train(const float* data, int64_t n, int64_t d,
                          const PqOptions& options = PqOptions());

  // Rebuilds a codebook from persisted sub-space centroid tables
  // (persist/persist.h). Each table must be ksub x dsub with identical
  // shapes; dim = m * dsub. `layout` defaults to the legacy byte-per-code
  // layout pre-v2 files were written with; ksub must fit layout.bits.
  static PqCodebook FromCodebooks(std::vector<linalg::Matrix> codebooks,
                                  CodeLayout layout = CodeLayout());

  bool trained() const { return dim_ > 0; }
  int64_t dim() const { return dim_; }
  int num_subspaces() const { return m_; }
  int64_t subspace_dim() const { return dsub_; }
  int num_centroids() const { return ksub_; }
  const CodeLayout& layout() const { return layout_; }
  // TRUE bytes per encoded vector under the code layout: (m + 1) / 2 for
  // the packed 4-bit layout, m otherwise. Every buffer sized off this must
  // read codes through CodeAt()/the packed kernels, never code[s].
  int64_t code_size() const { return layout_.CodeBytes(m_); }
  // Sub-code s of an encoded vector.
  uint8_t CodeAt(const uint8_t* code, int s) const {
    return quant::CodeAt(code, s, layout_);
  }

  // Centroid table for sub-space s: ksub x dsub.
  const linalg::Matrix& centroids(int s) const { return codebooks_[s]; }

  // code must hold code_size() bytes.
  void Encode(const float* x, uint8_t* code) const;
  void Decode(const uint8_t* code, float* out) const;

  // Squared L2 distance between x and its reconstruction.
  float ReconstructionError(const float* x) const;

  // Per-query ADC lookup table: table[s * ksub + c] = || q_s - centroid_sc ||^2.
  // table must hold m * ksub floats.
  void ComputeAdcTable(const float* query, float* table) const;
  int64_t adc_table_size() const { return static_cast<int64_t>(m_) * ksub_; }

  // Asymmetric distance: sum over sub-spaces of the table entries selected
  // by the code. This approximates ||q - x||^2.
  float AdcDistance(const float* table, const uint8_t* code) const;

  // --- Quantized LUT (the fast-scan operand; packed layout only) ----------
  //
  // Quantizes a ComputeAdcTable result to one u8 16-entry sub-table per
  // sub-space, laid out for simd::PqAdcFastScan (sub-table s at lut +
  // s * 16; ceil(m/2) * 32 bytes total, odd-m pad row zeroed). The affine
  // map is shared across sub-spaces: entry_q = round((entry - min_s) /
  // scale) with scale = max_s(range_s) / 255, so
  //     adc ≈ scale * sum_q + bias,  |error| <= m * scale / 2
  // (bias = sum_s min_s; no clipping occurs by choice of scale). Tail
  // entries [ksub, 16) of every sub-table are zero-filled so a codebook
  // clamped by a small training set (ksub < 2^bits) can never surface
  // uninitialized LUT bytes.
  int64_t fast_scan_lut_bytes() const {
    return (static_cast<int64_t>(m_) + 1) / 2 * 32;
  }
  void QuantizeAdcTable(const float* table, uint8_t* lut, float* scale,
                        float* bias) const;
  // The documented |quantized - float| ADC bound for a given scale.
  float FastScanErrorBound(float scale) const {
    return 0.5f * static_cast<float>(m_) * scale;
  }
  // The one dequantization expression every fast-scan consumer shares:
  // sums are exact integers, so routing all paths (sequential, batch,
  // grouped, any SIMD level) through this keeps their estimates
  // bit-identical.
  static float DequantizeFastScanSum(uint16_t sum, float scale, float bias) {
    return scale * static_cast<float>(sum) + bias;
  }

  // Batch-encode n rows into a contiguous code array (n * code_size()),
  // in parallel over row ranges; byte-identical to n Encode calls.
  std::vector<uint8_t> EncodeBatch(const float* data, int64_t n) const;

 private:
  // Encodes `count` contiguous rows into count * code_size() bytes through
  // the tiled nearest-centroid pass (quant::AssignNearestCentroids).
  void EncodeRange(const float* data, int64_t count, uint8_t* codes) const;

  int64_t dim_ = 0;
  int m_ = 0;
  int64_t dsub_ = 0;
  int ksub_ = 0;
  CodeLayout layout_;
  std::vector<linalg::Matrix> codebooks_;  // m entries, each ksub x dsub
};

// Largest divisor of `dim` that is <= target; used to pick num_subspaces =~
// dim/4 per the paper's storage discussion even when dim is not a power of
// two.
int LargestDivisorAtMost(int64_t dim, int target);

}  // namespace resinfer::quant

#endif  // RESINFER_QUANT_PQ_H_
