#include "core/ddc_res.h"

#include <algorithm>
#include <cmath>

#include "core/staged_scan.h"
#include "simd/kernels.h"
#include "util/macros.h"

namespace resinfer::core {

DdcResComputer::DdcResComputer(const linalg::PcaModel* pca,
                               const linalg::Matrix* rotated_base,
                               const DdcResOptions& options)
    : pca_(pca), rotated_base_(rotated_base), options_(options) {
  RESINFER_CHECK(pca != nullptr && rotated_base != nullptr);
  RESINFER_CHECK(pca->fitted());
  RESINFER_CHECK(rotated_base->cols() == pca->dim());
  RESINFER_CHECK(options_.init_dim >= 1 && options_.delta_dim >= 1);

  multiplier_ = options_.multiplier > 0.0
                    ? static_cast<float>(options_.multiplier)
                    : static_cast<float>(
                          GaussianQuantileMultiplier(options_.quantile));

  const int64_t n = rotated_base_->rows();
  const std::size_t d = static_cast<std::size_t>(pca_->dim());
  norms_sqr_.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    norms_sqr_[i] = simd::Norm2Sqr(rotated_base_->Row(i), d);
  }
  error_model_ = ResidualErrorModel(pca_->variances());
  for (int64_t d = options_.init_dim; d < pca_->dim();
       d += options_.delta_dim) {
    stage_dims_.push_back(d);
    if (!options_.incremental) break;  // Algorithm 1: single test
  }
}

void DdcResComputer::BeginQuery(const float* query) {
  SetQueryBatch(query, 1, dim());
  SelectQuery(0);
}

void DdcResComputer::SetQueryBatch(const float* queries, int count,
                                   int64_t stride) {
  index::DistanceComputer::SetQueryBatch(queries, count, stride);
  const int64_t d = pca_->dim();
  const int64_t num_stages = static_cast<int64_t>(stage_dims_.size());
  group_rotated_.resize(static_cast<std::size_t>(count * d));
  group_bounds_.resize(static_cast<std::size_t>(count * num_stages));
  group_norms_.resize(static_cast<std::size_t>(count));
  for (int g = 0; g < count; ++g) {
    float* rotated = group_rotated_.data() + g * d;
    float* bounds = group_bounds_.data() + g * num_stages;
    pca_->Transform(GroupQuery(g), rotated);
    group_norms_[static_cast<std::size_t>(g)] =
        simd::Norm2Sqr(rotated, static_cast<std::size_t>(d));
    error_model_.BeginQuery(rotated);
    // Hoist the per-stage sigma square roots out of the candidate loop.
    for (int64_t s = 0; s < num_stages; ++s) {
      bounds[s] = multiplier_ * error_model_.Sigma(stage_dims_[s]);
    }
  }
}

void DdcResComputer::SelectQuery(int g) {
  RESINFER_DCHECK(g >= 0 && g < group_count_);
  active_rotated_query_ = group_rotated_.data() + g * pca_->dim();
  active_stage_bounds_ =
      group_bounds_.data() + g * static_cast<int64_t>(stage_dims_.size());
  query_norm_sqr_ = group_norms_[static_cast<std::size_t>(g)];
}

void DdcResComputer::Scan(const uint8_t* codes, const int64_t* ids,
                          int count, float tau, index::EstimateResult* out) {
  const int64_t code_size = CodeSize();
  const int64_t stride = quant::CodeRecordStride(code_size, 1);
  const float query_norm = query_norm_sqr_;
  const float* bounds = active_stage_bounds_;
  // C1 = ||x||^2 + ||q||^2, ||x||^2 from the record's sidecar or by id. The
  // summed C2 = 2<x, q> becomes exact (C2 + C3) once every dim is in.
  const auto c1 = [&](int pos) {
    return (codes != nullptr
                ? quant::RecordSidecars(codes + pos * stride, code_size)[0]
                : norms_sqr_[ids[pos]]) +
           query_norm;
  };
  StagedScan</*kTwiceInnerProduct=*/true>(
      active_rotated_query_, stage_dims_, *rotated_base_, codes, stride, ids,
      count,
      [&c1, bounds, tau](int pos, std::size_t stage, float c2) {
        return c1(pos) - c2 - bounds[stage] > tau;
      },
      [&c1](int pos, float c2) { return std::max(0.0f, c1(pos) - c2); },
      stats_, out);
}

index::EstimateResult DdcResComputer::EstimateWithThreshold(int64_t id,
                                                            float tau) {
  index::EstimateResult out;
  Scan(nullptr, &id, 1, tau, &out);
  return out;
}

void DdcResComputer::EstimateBatch(const int64_t* ids, int count, float tau,
                                   index::EstimateResult* out) {
  Scan(nullptr, ids, count, tau, out);
}

int64_t DdcResComputer::CodeSize() const {
  return PrefixDims(stage_dims_, pca_->dim()) *
         static_cast<int64_t>(sizeof(float));
}

std::string DdcResComputer::code_tag() const {
  // Both variants (incremental / basic) read the layout identically, so
  // the tag is variant-independent and one attached store serves either.
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(
        rotated_base_->data(),
        static_cast<std::size_t>(rotated_base_->size()) * sizeof(float));
    f = quant::FingerprintArray(norms_sqr_.data(),
                                norms_sqr_.size() * sizeof(float), f);
    code_tag_ = quant::MakeCodeTag("ddc-res", CodeSize(), 1, size(), f);
  }
  return code_tag_;
}

quant::CodeStore DdcResComputer::MakeCodeStore() const {
  quant::CodeStore store(size(), CodeSize(), 1, code_tag());
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i,
                  reinterpret_cast<const uint8_t*>(rotated_base_->Row(i)));
    store.SetSidecar(i, 0, norms_sqr_[i]);
  }
  return store;
}

void DdcResComputer::EstimateBatchCodes(const uint8_t* codes,
                                        const int64_t* ids, int count,
                                        float tau,
                                        index::EstimateResult* out) {
  Scan(codes, ids, count, tau, out);
}

float DdcResComputer::ExactDistance(int64_t id) {
  const float* x = rotated_base_->Row(id);
  return simd::L2Sqr(x, active_rotated_query_,
                     static_cast<std::size_t>(pca_->dim()));
}

float DdcResComputer::ApproximateDistance(int64_t id, int64_t d) const {
  d = std::clamp<int64_t>(d, 0, pca_->dim());
  const float* x = rotated_base_->Row(id);
  const float c1 = norms_sqr_[id] + query_norm_sqr_;
  const float c2 =
      2.0f * simd::InnerProduct(x, active_rotated_query_,
                                static_cast<std::size_t>(d));
  return std::max(0.0f, c1 - c2);
}

int64_t DdcResComputer::ExtraBytes() const {
  // Norms (n floats) + rotation matrix (D^2 floats) + eigenvalue vector.
  return static_cast<int64_t>(norms_sqr_.size()) * sizeof(float) +
         pca_->rotation().size() * static_cast<int64_t>(sizeof(float)) +
         static_cast<int64_t>(pca_->variances().size()) * sizeof(float);
}

}  // namespace resinfer::core
