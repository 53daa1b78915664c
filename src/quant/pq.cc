#include "quant/pq.h"

#include <algorithm>
#include <limits>

#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace resinfer::quant {

PqCodebook PqCodebook::Train(const float* data, int64_t n, int64_t d,
                             const PqOptions& options) {
  RESINFER_CHECK(n >= 1 && d >= 1);
  RESINFER_CHECK(options.num_subspaces >= 1);
  RESINFER_CHECK_MSG(d % options.num_subspaces == 0,
                     "num_subspaces must divide the dimension");
  RESINFER_CHECK(options.nbits >= 1 && options.nbits <= 8);

  // Subsample training rows.
  std::vector<float> sampled;
  const float* train = data;
  int64_t train_n = n;
  if (n > options.max_train_rows) {
    Rng rng(options.sample_seed);
    std::vector<int64_t> pick =
        rng.SampleWithoutReplacement(n, options.max_train_rows);
    sampled.resize(pick.size() * static_cast<std::size_t>(d));
    for (std::size_t i = 0; i < pick.size(); ++i) {
      const float* src = data + pick[i] * d;
      std::copy(src, src + d, sampled.data() + i * d);
    }
    train = sampled.data();
    train_n = static_cast<int64_t>(pick.size());
  }

  PqCodebook pq;
  pq.dim_ = d;
  pq.m_ = options.num_subspaces;
  pq.dsub_ = d / options.num_subspaces;
  pq.ksub_ = std::min<int64_t>(1 << options.nbits, train_n);
  // The fast-scan tier's u16 accumulators cap the packed layout at m <=
  // 256 (m * 255 must fit); larger m keeps the byte-per-code layout
  // instead of training a codebook that would abort at query time.
  pq.layout_ = pq.m_ <= 256 ? CodeLayout::ForBits(options.nbits)
                            : CodeLayout{options.nbits,
                                         CodePacking::kBytePerCode};
  pq.codebooks_.resize(static_cast<std::size_t>(pq.m_));

  // The sub-space codebooks train concurrently, each k-means on its own
  // seed; a k-means started inside this loop runs its passes inline, so
  // the loops do not nest.
  ParallelForShards(pq.m_, DefaultThreadCount(),
                    [&](int64_t s_begin, int64_t s_end) {
    std::vector<float> sub(train_n * pq.dsub_);
    for (int64_t s = s_begin; s < s_end; ++s) {
      // Gather the sub-space slice contiguously for k-means.
      for (int64_t i = 0; i < train_n; ++i) {
        const float* src = train + i * d + s * pq.dsub_;
        std::copy(src, src + pq.dsub_, sub.data() + i * pq.dsub_);
      }
      KMeansOptions km = options.kmeans;
      km.seed = options.kmeans.seed + static_cast<uint64_t>(s) * 7919;
      pq.codebooks_[static_cast<std::size_t>(s)] =
          KMeans(sub.data(), train_n, pq.dsub_, pq.ksub_, km).centroids;
    }
  });
  return pq;
}

PqCodebook PqCodebook::FromCodebooks(
    std::vector<linalg::Matrix> codebooks, CodeLayout layout) {
  RESINFER_CHECK(!codebooks.empty());
  const int64_t ksub = codebooks[0].rows();
  const int64_t dsub = codebooks[0].cols();
  RESINFER_CHECK(ksub > 0 && ksub <= 256 && dsub > 0);
  RESINFER_CHECK(layout.bits >= 1 && layout.bits <= 8);
  RESINFER_CHECK_MSG(ksub <= (int64_t{1} << layout.bits),
                     "codebook has more centroids than the layout's bits");
  RESINFER_CHECK_MSG(!layout.packed() || layout.bits <= 4,
                     "packed 4-bit layout requires bits <= 4");
  RESINFER_CHECK_MSG(!layout.packed() || codebooks.size() <= 256,
                     "packed layout requires m <= 256 (u16 LUT accumulators)");
  for (const auto& table : codebooks) {
    RESINFER_CHECK(table.rows() == ksub && table.cols() == dsub);
  }
  PqCodebook pq;
  pq.m_ = static_cast<int>(codebooks.size());
  pq.dsub_ = dsub;
  pq.ksub_ = static_cast<int>(ksub);
  pq.dim_ = pq.m_ * dsub;
  pq.layout_ = layout;
  pq.codebooks_ = std::move(codebooks);
  return pq;
}

void PqCodebook::Encode(const float* x, uint8_t* code) const {
  RESINFER_DCHECK(trained());
  EncodeRange(x, 1, code);
}

void PqCodebook::EncodeRange(const float* data, int64_t count,
                             uint8_t* codes) const {
  const int64_t code_bytes = code_size();
  if (layout_.packed()) {
    // Zero first so the pad nibble of an odd-m tail byte is deterministic.
    std::fill_n(codes, static_cast<std::size_t>(count * code_bytes),
                uint8_t{0});
  }
  // Points per sub-space pass: their slices stay cache-resident while the
  // m codebooks take turns.
  constexpr int64_t kChunk = 256;
  int32_t nearest[kChunk];
  for (int64_t i0 = 0; i0 < count; i0 += kChunk) {
    const int64_t chunk = std::min(kChunk, count - i0);
    for (int s = 0; s < m_; ++s) {
      AssignNearestCentroids(codebooks_[s], data + i0 * dim_ + s * dsub_,
                             chunk, dim_, nearest, nullptr);
      for (int64_t i = 0; i < chunk; ++i) {
        SetCodeAt(codes + (i0 + i) * code_bytes, s,
                  static_cast<uint8_t>(nearest[i]), layout_);
      }
    }
  }
}

void PqCodebook::Decode(const uint8_t* code, float* out) const {
  RESINFER_DCHECK(trained());
  for (int s = 0; s < m_; ++s) {
    const float* centroid = codebooks_[s].Row(CodeAt(code, s));
    std::copy(centroid, centroid + dsub_, out + s * dsub_);
  }
}

float PqCodebook::ReconstructionError(const float* x) const {
  RESINFER_DCHECK(trained());
  float total = 0.0f;
  for (int s = 0; s < m_; ++s) {
    float dist = 0.0f;
    NearestCentroid(codebooks_[s], x + s * dsub_, &dist);
    total += dist;
  }
  return total;
}

void PqCodebook::ComputeAdcTable(const float* query, float* table) const {
  RESINFER_DCHECK(trained());
  for (int s = 0; s < m_; ++s) {
    const float* qsub = query + s * dsub_;
    float* row = table + static_cast<int64_t>(s) * ksub_;
    for (int c = 0; c < ksub_; ++c) {
      row[c] = simd::L2Sqr(codebooks_[s].Row(c), qsub,
                           static_cast<std::size_t>(dsub_));
    }
  }
}

float PqCodebook::AdcDistance(const float* table, const uint8_t* code) const {
  float total = 0.0f;
  const float* row = table;
  for (int s = 0; s < m_; ++s, row += ksub_) total += row[CodeAt(code, s)];
  return total;
}

void PqCodebook::QuantizeAdcTable(const float* table, uint8_t* lut,
                                  float* scale, float* bias) const {
  RESINFER_DCHECK(trained());
  RESINFER_CHECK_MSG(layout_.packed(),
                     "quantized LUTs require the packed 4-bit layout");
  // m * 255 must fit the kernels' u16 accumulators.
  RESINFER_CHECK(m_ <= 256);

  // Shared scale: the widest per-sub-space range, so no entry clips and the
  // rounding error stays <= scale / 2 per sub-space.
  float range = 0.0f;
  float bias_sum = 0.0f;
  std::vector<float> mins(static_cast<std::size_t>(m_));
  for (int s = 0; s < m_; ++s) {
    const float* row = table + static_cast<int64_t>(s) * ksub_;
    float lo = row[0], hi = row[0];
    for (int c = 1; c < ksub_; ++c) {
      lo = std::min(lo, row[c]);
      hi = std::max(hi, row[c]);
    }
    mins[static_cast<std::size_t>(s)] = lo;
    bias_sum += lo;
    range = std::max(range, hi - lo);
  }
  const float s255 = range / 255.0f;
  const float inv = s255 > 0.0f ? 1.0f / s255 : 0.0f;

  // Sub-table s lives at lut + s * 16; entries past ksub_ and the odd-m pad
  // row are zero so a small-training-set codebook (ksub < 16) can never
  // surface uninitialized bytes.
  std::fill_n(lut, static_cast<std::size_t>(fast_scan_lut_bytes()),
              uint8_t{0});
  for (int s = 0; s < m_; ++s) {
    const float* row = table + static_cast<int64_t>(s) * ksub_;
    uint8_t* qrow = lut + static_cast<int64_t>(s) * 16;
    const float lo = mins[static_cast<std::size_t>(s)];
    for (int c = 0; c < ksub_; ++c) {
      const int q = static_cast<int>((row[c] - lo) * inv + 0.5f);
      qrow[c] = static_cast<uint8_t>(std::clamp(q, 0, 255));
    }
  }
  *scale = s255;
  *bias = bias_sum;
}

std::vector<uint8_t> PqCodebook::EncodeBatch(const float* data,
                                             int64_t n) const {
  RESINFER_CHECK(trained());
  const int64_t code_bytes = code_size();
  std::vector<uint8_t> codes(static_cast<std::size_t>(n * code_bytes));
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    EncodeRange(data + begin * dim_, end - begin,
                codes.data() + begin * code_bytes);
  });
  return codes;
}

int LargestDivisorAtMost(int64_t dim, int target) {
  RESINFER_CHECK(dim >= 1 && target >= 1);
  for (int m = std::min<int64_t>(target, dim); m >= 1; --m) {
    if (dim % m == 0) return m;
  }
  return 1;
}

}  // namespace resinfer::quant
