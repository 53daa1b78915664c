#include "core/ddc_pca.h"

#include <algorithm>
#include <cmath>

#include "core/staged_scan.h"
#include "simd/kernels.h"
#include "util/macros.h"
#include "util/timer.h"

namespace resinfer::core {

DdcPcaArtifacts TrainDdcPca(const linalg::PcaModel& pca,
                            const linalg::Matrix& rotated_base,
                            const linalg::Matrix& base,
                            const linalg::Matrix& train_queries,
                            const DdcPcaOptions& options) {
  RESINFER_CHECK(pca.fitted());
  RESINFER_CHECK(rotated_base.rows() == base.rows());
  WallTimer timer;

  DdcPcaArtifacts artifacts;
  const int64_t full_dim = pca.dim();
  for (int64_t d = options.init_dim; d < full_dim;
       d += options.delta_dim) {
    artifacts.stage_dims.push_back(d);
  }
  RESINFER_CHECK_MSG(!artifacts.stage_dims.empty(),
                     "init_dim must be smaller than the data dimension");

  // Shared labeled pairs (exact KNN of every training query — the
  // expensive step, done once for all stages).
  std::vector<LabeledPair> pairs =
      CollectLabeledPairs(base, train_queries, options.training);

  // Rotate the training queries once.
  linalg::Matrix rotated_queries =
      pca.TransformBatch(train_queries.data(), train_queries.rows());

  const int num_stages = static_cast<int>(artifacts.stage_dims.size());
  double per_stage_recall = options.corrector.target_recall;
  if (options.split_target_across_stages && num_stages > 1) {
    per_stage_recall = std::pow(options.corrector.target_recall,
                                1.0 / static_cast<double>(num_stages));
  }

  for (int stage = 0; stage < num_stages; ++stage) {
    const int64_t d = artifacts.stage_dims[stage];
    std::vector<CorrectorSample> samples = MaterializeSamples(
        pairs, [&](int64_t query_index, int64_t id, float* /*extra*/) {
          return simd::L2Sqr(rotated_base.Row(id),
                             rotated_queries.Row(query_index),
                             static_cast<std::size_t>(d));
        });
    LinearCorrectorOptions corrector_options = options.corrector;
    corrector_options.num_features = 2;
    corrector_options.target_recall = per_stage_recall;
    corrector_options.seed = options.corrector.seed +
                             static_cast<uint64_t>(stage) * 101;
    artifacts.correctors.push_back(
        LinearCorrector::Train(samples, corrector_options));
  }
  artifacts.train_seconds = timer.ElapsedSeconds();
  return artifacts;
}

DdcPcaComputer::DdcPcaComputer(const linalg::PcaModel* pca,
                               const linalg::Matrix* rotated_base,
                               const DdcPcaArtifacts* artifacts)
    : pca_(pca), rotated_base_(rotated_base), artifacts_(artifacts) {
  RESINFER_CHECK(pca != nullptr && rotated_base != nullptr &&
                 artifacts != nullptr);
  RESINFER_CHECK(pca->fitted());
  RESINFER_CHECK(artifacts->stage_dims.size() ==
                 artifacts->correctors.size());
  RESINFER_CHECK(!artifacts->stage_dims.empty());
  RESINFER_CHECK(artifacts->stage_dims.back() < pca->dim());
}

void DdcPcaComputer::BeginQuery(const float* query) {
  SetQueryBatch(query, 1, dim());
  SelectQuery(0);
}

void DdcPcaComputer::SetQueryBatch(const float* queries, int count,
                                   int64_t stride) {
  index::DistanceComputer::SetQueryBatch(queries, count, stride);
  const int64_t d = pca_->dim();
  group_rotated_.resize(static_cast<std::size_t>(count * d));
  for (int g = 0; g < count; ++g) {
    pca_->Transform(GroupQuery(g), group_rotated_.data() + g * d);
  }
}

void DdcPcaComputer::SelectQuery(int g) {
  RESINFER_DCHECK(g >= 0 && g < group_count_);
  active_rotated_query_ = group_rotated_.data() + g * pca_->dim();
}

void DdcPcaComputer::Scan(const uint8_t* codes, const int64_t* ids,
                          int count, float tau, index::EstimateResult* out) {
  const bool tau_finite = std::isfinite(tau);
  const std::vector<LinearCorrector>& correctors = artifacts_->correctors;
  StagedScan</*kTwiceInnerProduct=*/false>(
      active_rotated_query_, artifacts_->stage_dims, *rotated_base_, codes,
      quant::CodeRecordStride(CodeSize(), 0), ids, count,
      [&correctors, tau, tau_finite](int, std::size_t stage, float partial) {
        return tau_finite && correctors[stage].PredictPrunable(partial, tau);
      },
      [](int, float partial) { return partial; }, stats_, out);
}

index::EstimateResult DdcPcaComputer::EstimateWithThreshold(int64_t id,
                                                            float tau) {
  index::EstimateResult out;
  Scan(nullptr, &id, 1, tau, &out);
  return out;
}

void DdcPcaComputer::EstimateBatch(const int64_t* ids, int count, float tau,
                                   index::EstimateResult* out) {
  Scan(nullptr, ids, count, tau, out);
}

int64_t DdcPcaComputer::CodeSize() const {
  return PrefixDims(artifacts_->stage_dims, pca_->dim()) *
         static_cast<int64_t>(sizeof(float));
}

std::string DdcPcaComputer::code_tag() const {
  if (code_tag_.empty()) {
    const uint64_t f = quant::FingerprintArray(
        rotated_base_->data(),
        static_cast<std::size_t>(rotated_base_->size()) * sizeof(float));
    code_tag_ = quant::MakeCodeTag("ddc-pca", CodeSize(), 0, size(), f);
  }
  return code_tag_;
}

quant::CodeStore DdcPcaComputer::MakeCodeStore() const {
  quant::CodeStore store(size(), CodeSize(), 0, code_tag());
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i,
                  reinterpret_cast<const uint8_t*>(rotated_base_->Row(i)));
  }
  return store;
}

void DdcPcaComputer::EstimateBatchCodes(const uint8_t* codes,
                                        const int64_t* ids, int count,
                                        float tau,
                                        index::EstimateResult* out) {
  Scan(codes, ids, count, tau, out);
}

float DdcPcaComputer::ExactDistance(int64_t id) {
  return simd::L2Sqr(rotated_base_->Row(id), active_rotated_query_,
                     static_cast<std::size_t>(pca_->dim()));
}

float DdcPcaComputer::ApproximateDistance(int64_t id, int64_t d) const {
  d = std::clamp<int64_t>(d, 0, pca_->dim());
  return simd::L2Sqr(rotated_base_->Row(id), active_rotated_query_,
                     static_cast<std::size_t>(d));
}

int64_t DdcPcaComputer::ExtraBytes() const {
  // Rotation matrix + a handful of classifier weights.
  return pca_->rotation().size() * static_cast<int64_t>(sizeof(float)) +
         static_cast<int64_t>(artifacts_->correctors.size()) * 4 *
             static_cast<int64_t>(sizeof(float));
}

}  // namespace resinfer::core
